//! Extension: predict the time-domain adaptation error from the z-domain
//! sensitivity function — theory meets simulation.
//!
//! For a harmonic HoDV of amplitude `A` and period `T_e` (in clock
//! periods), the loop's residual error amplitude is predicted by
//!
//! ```text
//! |δ|_max ≈ A · |H_δ(e^{jω}) · W_e(e^{jω})| ,   ω = 2π / (T_e/c)
//! ```
//!
//! with `H_δ` the error transfer (Eq. 5) and `W_e = (1 − z^{−M−1})z^{−1}`
//! the homogeneous-input weight of `p(z)`. This experiment sweeps `T_e`,
//! measures the actual error envelope of the (float, unquantized) IIR loop
//! in the event-driven engine, and overlays the prediction — quantitative
//! evidence that the whole simulation tower and the paper's Eq. (4)–(5)
//! algebra describe the same system.

use std::ops::Range;

use adaptive_clock::batch::{BatchLoop, BatchTrace, TraceSink};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::event::SummarySink;
use adaptive_clock::loopsim::{constant, LoopInputs};
use adaptive_clock::system::{Scheme, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use variation::sources::Harmonic;
use zdomain::{closedloop, Complex, TransferFunction};

use crate::cache::CacheKeyExt as _;
use crate::render::{fmt, Table};
use crate::results::{ExperimentResult, Series};
use crate::runner::{cached_map, Codec, RunCtx};
use crate::sweep::{lane_ranges, log_grid, parallel_map, CancelToken};

/// Predicted error amplitude for perturbation period `te_over_c` and CDN
/// depth `m` (whole periods), per unit perturbation amplitude.
pub fn predicted_gain(h: &TransferFunction, m: usize, te_over_c: f64) -> f64 {
    assert!(te_over_c >= 2.0, "beyond Nyquist");
    let omega = std::f64::consts::TAU / te_over_c;
    let z = Complex::unit_circle(omega);
    let hd = closedloop::error_transfer(h, m);
    let w = closedloop::input_weights(m);
    let weight = w.homogeneous.eval_z_complex(z);
    (hd.eval(z) * weight).abs()
}

/// Run the sweep: measured vs predicted error amplitude across `T_e/c`.
/// The result cache is consulted per measured `T_e` point (the
/// event-driven runs dominate the sweep; the batched discrete lanes and
/// the z-domain prediction are cheap enough to recompute every time).
pub fn run(ctx: &RunCtx, points: usize) -> ExperimentResult {
    let params = &ctx.params;
    // Below Te ≈ 8 periods the loop's own period modulation makes the CDN
    // depth M[n] swing within one perturbation cycle, so the fixed-M linear
    // prediction stops being meaningful; sweep the regime it claims.
    let tes = log_grid(8.0, 500.0, points);
    let h = zdomain::iir_paper_filter();
    let c = params.setpoint;
    let amp = params.amplitude();

    let te_key = |te: f64| {
        crate::cache::key("ext-sensitivity-measured")
            .params(params)
            .scheme(&Scheme::IirFloat(IirConfig::paper()))
            .str("quantization", "none")
            .f64("te_over_c", te)
            .u64("budget.samples", params.samples_for(te) as u64)
            .u64("budget.warmup", params.warmup as u64)
            .finish()
    };
    let measured = cached_map(
        ctx,
        &tes,
        Codec::SCALAR,
        |&te| vec![te_key(te)],
        |&te| params.samples_for(te) as u64,
        |&te| {
            let system = SystemBuilder::new(c)
                .cdn_delay(c as f64)
                .scheme(Scheme::IirFloat(IirConfig::paper()))
                .quantization(Quantization::None)
                .build()
                .expect("valid configuration");
            let hodv = Harmonic::new(amp, te * c as f64, 0.0);
            // max |τ − c| = max(worst negative, worst positive error): both
            // folds start at 0 and take exact copies of the same
            // differences, so the envelope is the trace fold's to the bit.
            let summary = system.run_with(
                &hodv,
                params.samples_for(te),
                SummarySink::with_warmup(params.warmup),
            );
            vec![summary
                .worst_negative_error
                .max(summary.worst_positive_error)]
        },
    );
    let predicted: Vec<f64> = tes
        .iter()
        .map(|&te| amp * predicted_gain(&h, 1, te))
        .collect();
    let batched = batched_errors(&tes, c, amp, &ctx.telemetry);

    ExperimentResult::new(
        "ext-sensitivity",
        format!(
            "Measured vs z-domain-predicted |τ−c| amplitude for the IIR RO \
             (c = {c}, t_clk = c, HoDV amplitude 0.2c)"
        ),
    )
    .with_series(Series::new("measured", tes.clone(), measured))
    .with_series(Series::new("discrete (batched)", tes.clone(), batched))
    .with_series(Series::new("predicted", tes, predicted))
}

/// The same error-amplitude sweep on the fixed-`M` discrete loop — the
/// system the prediction is actually derived for — with every `T_e` lane
/// advanced in lock-step by the blocked SoA batch engine and the lanes
/// spread over the sweep worker pool in 8-lane ranges. Lane
/// independence makes the recombined trace bit-identical to one
/// whole-batch [`BatchLoop::run`] call for any worker count, which is
/// what keeps the golden `everything` fixture stable across machines.
fn batched_errors(
    tes: &[f64],
    c: i64,
    amp: f64,
    telemetry: &clock_telemetry::Telemetry,
) -> Vec<f64> {
    // Settle even the slowest lane, then measure over the second half.
    let slowest = tes.iter().copied().fold(0.0f64, f64::max);
    let steps = 2000 + (12.0 * slowest) as usize;
    let run = |range: &Range<usize>| {
        let mut batch = BatchLoop::new();
        for _ in range.clone() {
            batch.push(
                1,
                Controller::float_iir(&IirConfig::paper(), c as f64)
                    .expect("paper config is valid"),
                Quantization::None,
            );
        }
        let setpoint = constant(c as f64);
        let zero = constant(0.0);
        let e_fns: Vec<Box<dyn Fn(i64) -> f64 + Sync>> = range
            .clone()
            .map(|lane| {
                let te = tes[lane];
                Box::new(move |n: i64| amp * (std::f64::consts::TAU * n as f64 / te).sin())
                    as Box<dyn Fn(i64) -> f64 + Sync>
            })
            .collect();
        let inputs: Vec<LoopInputs<'_>> = e_fns
            .iter()
            .map(|e| LoopInputs {
                setpoint: &setpoint,
                homogeneous: e.as_ref(),
                heterogeneous: &zero,
            })
            .collect();
        batch.run(&inputs, steps, TraceSink::default())
    };
    let ranges = lane_ranges(tes.len(), 8);
    let parts = {
        let mut dispatch = telemetry.scope("batch.dispatch");
        dispatch.attr("lanes", tes.len());
        dispatch.attr("chunks", ranges.len());
        let never = CancelToken::never();
        parallel_map(&ranges, |r| r.len() as u64, run, telemetry, &never)
    };
    let trace = {
        let _recombine = telemetry.scope("batch.recombine");
        BatchTrace::concat(&parts)
    };
    (0..tes.len())
        .map(|lane| {
            let lt = trace.lane(lane);
            lt.delta[steps / 2..]
                .iter()
                .fold(0.0f64, |a, d| a.max(d.abs()))
        })
        .collect()
}

/// Render as a comparison table.
pub fn render(result: &ExperimentResult) -> String {
    let meas = result.series_named("measured").expect("series present");
    let pred = result.series_named("predicted").expect("series present");
    let batched = result.series_named("discrete (batched)");
    let mut headers = vec!["Te/c".to_owned(), "measured |δ|max".to_owned()];
    if batched.is_some() {
        headers.push("discrete |δ|max".to_owned());
    }
    headers.push("predicted |δ|max".to_owned());
    headers.push("ratio".to_owned());
    let mut t = Table::new(headers);
    for (i, &x) in meas.x.iter().enumerate() {
        let ratio = if pred.y[i] > 1e-9 {
            meas.y[i] / pred.y[i]
        } else {
            f64::NAN
        };
        let mut row = vec![fmt(x), fmt(meas.y[i])];
        if let Some(b) = batched {
            row.push(fmt(b.y[i]));
        }
        row.push(fmt(pred.y[i]));
        row.push(fmt(ratio));
        t.row(row);
    }
    format!(
        "Extension — sensitivity-function prediction of the adaptation error\n\n{}\n\
         The prediction uses only Eq. (4)–(5) algebra evaluated on the unit circle;\n\
         the measurement is the full event-driven simulation. The measurement\n\
         bottoms out at a ≈1-stage floor the linear fixed-M model cannot see:\n\
         the ±20% period modulation swings the CDN depth M[n] itself (a\n\
         second-order, amplitude-squared effect). Against the fixed-M discrete\n\
         loop the prediction is tight to 3% (see the module tests).\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use adaptive_clock::controller::FloatIir;
    use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};

    /// Against the discrete fixed-M loop — the system the prediction is
    /// derived for — the sensitivity formula is tight.
    #[test]
    fn prediction_matches_discrete_loop_tightly() {
        let h = zdomain::iir_paper_filter();
        let amp = 12.8;
        for te in [10.0f64, 25.0, 50.0, 100.0, 400.0] {
            let ctrl = FloatIir::from_config(&IirConfig::paper(), 64.0).expect("paper");
            let mut dl = DiscreteLoop::new(1, ctrl, Quantization::None);
            let cs = constant(64.0);
            let zero = constant(0.0);
            let e = move |n: i64| amp * (std::f64::consts::TAU * n as f64 / te).sin();
            let steps = 2000 + (12.0 * te) as usize;
            let tr = dl.run(
                &LoopInputs {
                    setpoint: &cs,
                    homogeneous: &e,
                    heterogeneous: &zero,
                },
                steps,
            );
            let tail = &tr.delta[steps / 2..];
            let measured = tail.iter().fold(0.0f64, |a, d| a.max(d.abs()));
            let predicted = amp * predicted_gain(&h, 1, te);
            assert!(
                (measured - predicted).abs() <= 0.03 * predicted + 0.02,
                "Te={te}: discrete-loop measured {measured} vs predicted {predicted}"
            );
        }
    }

    /// Against the event-driven engine the prediction still tracks, but the
    /// time-varying CDN depth (M[n] swings with the ±20% period modulation)
    /// adds real second-order error the linear model cannot see.
    #[test]
    fn prediction_tracks_event_engine_loosely() {
        let r = run(&RunCtx::new(PaperParams::default()), 7);
        let meas = r.series_named("measured").unwrap();
        let pred = r.series_named("predicted").unwrap();
        for (i, &te) in meas.x.iter().enumerate() {
            let m = meas.y[i];
            let p = pred.y[i];
            assert!(
                (m - p).abs() <= 0.35 * p + 1.3,
                "Te/c={te}: measured {m} vs predicted {p}"
            );
        }
    }

    /// The batched SoA sweep is the same fixed-M discrete loop the tight
    /// prediction holds for, so its whole series must hug the prediction.
    #[test]
    fn batched_series_matches_prediction_tightly() {
        let r = run(&RunCtx::new(PaperParams::default()), 7);
        let batched = r.series_named("discrete (batched)").expect("series");
        let pred = r.series_named("predicted").expect("series");
        for (i, &te) in batched.x.iter().enumerate() {
            let b = batched.y[i];
            let p = pred.y[i];
            assert!(
                (b - p).abs() <= 0.05 * p + 0.1,
                "Te/c={te}: batched {b} vs predicted {p}"
            );
        }
    }

    #[test]
    fn predicted_gain_shapes() {
        let h = zdomain::iir_paper_filter();
        // very slow perturbations are almost fully rejected
        assert!(predicted_gain(&h, 1, 500.0) < 0.1);
        // the waterbed hump amplifies mid-frequency perturbations
        assert!(predicted_gain(&h, 1, 10.0) > 0.8);
    }

    #[test]
    fn render_lists_every_point() {
        let r = run(&RunCtx::new(PaperParams::default()), 5);
        let text = render(&r);
        assert!(text.contains("predicted"));
        assert!(text.matches('\n').count() > 8);
    }
}
