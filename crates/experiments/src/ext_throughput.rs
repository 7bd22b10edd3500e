//! Extension: effective pipeline throughput vs operating set-point.
//!
//! The paper frames its benefit as safety-margin (period) reduction; with
//! the Razor-style pipeline contract of
//! [`adaptive_clock::pipeline::PipelineModel`], the same benefit can be
//! stated as *throughput*: run the clock faster, pay for the rare timing
//! violations with replays, and find the sweet spot. The adaptive clock's
//! sweet spot sits at a lower set-point (higher frequency) than the fixed
//! clock's because its violations start later.

use adaptive_clock::pipeline::PipelineModel;
use adaptive_clock::system::{Scheme, SystemBuilder};
use variation::sources::Harmonic;

use crate::cache::CacheKeyExt as _;
use crate::render::{fmt, Table};
use crate::results::{ExperimentResult, Series};
use crate::runner::{cached_map, Codec, RunCtx};

/// The run budget of one throughput point: samples and discarded warm-up.
const SAMPLES: usize = 7000;
const WARMUP: usize = 1000;

/// Sweep the operated set-point for one scheme; return normalized
/// throughput per set-point (1.0 = an ideal violation-free clock running
/// exactly at `c_req`). The result cache is consulted per operated
/// set-point.
pub fn throughput_curve(
    ctx: &RunCtx,
    scheme: Scheme,
    replay_penalty: usize,
    setpoints: &[i64],
) -> Vec<f64> {
    let params = &ctx.params;
    let c_req = params.setpoint;
    let model = PipelineModel::new(c_req as f64, replay_penalty);
    let hodv = Harmonic::new(params.amplitude(), 50.0 * c_req as f64, 0.0);
    let point_key = |c_ctrl: i64| {
        crate::cache::key("ext-throughput")
            .params(params)
            .scheme(&scheme)
            .i64("c_ctrl", c_ctrl)
            .u64("replay_penalty", replay_penalty as u64)
            .u64("budget.samples", SAMPLES as u64)
            .u64("budget.warmup", WARMUP as u64)
            .finish()
    };
    cached_map(
        ctx,
        setpoints,
        Codec::SCALAR,
        |&c_ctrl| vec![point_key(c_ctrl)],
        |_| SAMPLES as u64,
        |&c_ctrl| {
            let system = SystemBuilder::new(c_ctrl)
                .cdn_delay(c_req as f64)
                .scheme(scheme.clone())
                .build()
                .expect("valid configuration");
            vec![system
                .run_with(&hodv, SAMPLES, model.sink(WARMUP))
                .relative_throughput(c_req as f64)]
        },
    )
}

/// Run the experiment for the IIR RO and the fixed clock.
pub fn run(ctx: &RunCtx, replay_penalty: usize) -> ExperimentResult {
    let c_req = ctx.params.setpoint;
    let setpoints: Vec<i64> = (c_req - 2..=c_req + 16).collect();
    let xs: Vec<f64> = setpoints.iter().map(|&c| c as f64).collect();
    let iir = throughput_curve(ctx, Scheme::iir_paper(), replay_penalty, &setpoints);
    let fixed = throughput_curve(ctx, Scheme::Fixed, replay_penalty, &setpoints);
    ExperimentResult::new(
        "ext-throughput",
        format!(
            "Normalized pipeline throughput vs operated set-point \
             (c_req = {c_req}, HoDV 0.2c @ Te = 50c, replay penalty {replay_penalty})"
        ),
    )
    .with_series(Series::new("IIR RO", xs.clone(), iir))
    .with_series(Series::new("Fixed clock", xs, fixed))
}

/// The throughput-optimal set-point and its value for a series.
pub fn optimum(series: &crate::results::Series) -> (f64, f64) {
    series
        .x
        .iter()
        .zip(&series.y)
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite throughputs"))
        .map(|(&x, &y)| (x, y))
        .expect("non-empty series")
}

/// Render as a table with the optima highlighted.
pub fn render(result: &ExperimentResult) -> String {
    let mut headers = vec!["set-point".to_owned()];
    headers.extend(result.series.iter().map(|s| s.label.clone()));
    let mut t = Table::new(headers);
    if let Some(first) = result.series.first() {
        for (i, &x) in first.x.iter().enumerate() {
            let mut row = vec![format!("{x}")];
            row.extend(result.series.iter().map(|s| fmt(s.y[i])));
            t.row(row);
        }
    }
    let mut out = format!("Extension — {}\n\n{}", result.description, t.render());
    for s in &result.series {
        let (x, y) = optimum(s);
        out.push_str(&format!(
            "optimal set-point for {}: {} (normalized throughput {:.4})\n",
            s.label, x, y
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;

    fn result() -> ExperimentResult {
        run(&RunCtx::new(PaperParams::default()), 8)
    }

    #[test]
    fn iir_peak_throughput_beats_fixed() {
        let r = result();
        let (_, iir_peak) = optimum(r.series_named("IIR RO").unwrap());
        let (_, fixed_peak) = optimum(r.series_named("Fixed clock").unwrap());
        assert!(
            iir_peak > 1.05 * fixed_peak,
            "IIR peak {iir_peak} vs fixed {fixed_peak}"
        );
    }

    #[test]
    fn iir_optimum_sits_at_lower_setpoint() {
        let r = result();
        let (iir_c, _) = optimum(r.series_named("IIR RO").unwrap());
        let (fixed_c, _) = optimum(r.series_named("Fixed clock").unwrap());
        assert!(
            iir_c <= fixed_c,
            "IIR optimum {iir_c} should not exceed fixed optimum {fixed_c}"
        );
    }

    #[test]
    fn throughput_collapses_below_requirement() {
        // Operating far below c_req makes every period violate: replays
        // swallow everything.
        let r = result();
        let iir = r.series_named("IIR RO").unwrap();
        let at_low = iir.nearest(62.0).unwrap();
        let (_, peak) = optimum(iir);
        assert!(
            at_low < 0.5 * peak,
            "throughput at c=62 ({at_low}) must collapse vs peak {peak}"
        );
    }

    #[test]
    fn heavily_margined_throughput_declines_linearly() {
        // well above the violation region, throughput ~ c_req / c_ctrl
        let r = result();
        let fixed = r.series_named("Fixed clock").unwrap();
        let y78 = fixed.nearest(78.0).unwrap();
        let y80 = fixed.nearest(80.0).unwrap();
        assert!(y78 > y80, "more margin must mean less throughput");
        assert!((y80 - 64.0 / 80.0).abs() < 0.02, "y(80) = {y80}");
    }

    #[test]
    fn render_reports_optima() {
        let text = render(&result());
        assert!(text.contains("optimal set-point for IIR RO"));
        assert!(text.contains("optimal set-point for Fixed clock"));
    }
}
