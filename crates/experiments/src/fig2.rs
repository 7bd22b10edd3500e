//! Fig. 2 — mismatch induced between the RO and an arbitrary CP by the CDN
//! delay under harmonic and single-event HoDV.
//!
//! Reproduced twice: analytically (Eq. 2–3 in closed form) and empirically
//! (sweeping Eq. 1 over the actual waveforms); the run asserts both agree,
//! which is exactly the property the paper's figure illustrates.

use clock_telemetry::Telemetry;
use variation::analysis;
use variation::sources::{Harmonic, SingleEvent};

use crate::render::{ascii_chart, fmt, Table};
use crate::results::{ExperimentResult, Series};
use crate::runner::RunCtx;
use crate::sweep::{parallel_map, CancelToken};

/// Generate the Fig. 2 curves over `x = t_clk/T_ν ∈ [0, x_max]`; a fired
/// `ctx.cancel` stops the empirical sweep within one delay chunk.
pub fn run(ctx: &RunCtx, x_max: f64, points: usize) -> ExperimentResult {
    let pts = analysis::fig2_series(x_max, points);
    let x: Vec<f64> = pts.iter().map(|p| p.x).collect();
    let harmonic: Vec<f64> = pts.iter().map(|p| p.harmonic).collect();
    let single: Vec<f64> = pts.iter().map(|p| p.single_event).collect();

    let (emp_h, emp_s) = empirical_curves(&x, &ctx.cancel);

    ExperimentResult::new(
        "fig2",
        "Worst-case induced mismatch Δν/ν0 vs t_clk/Tν for harmonic and \
         single-event HoDV (Eq. 2 and Eq. 3, with empirical validation)",
    )
    .with_series(Series::new("Harmonic HoDV", x.clone(), harmonic))
    .with_series(Series::new("Single event HoDV", x.clone(), single))
    .with_series(Series::new("Harmonic (empirical)", x.clone(), emp_h))
    .with_series(Series::new("Single event (empirical)", x, emp_s))
}

/// Delays per parallel task of [`empirical_curves`]. Fixed, not derived
/// from the worker count, so the task split is the same on every host.
const DELAY_CHUNK: usize = 32;

/// The empirical counterparts of both curves, from the actual waveforms
/// (unit amplitude, unit variation period/duration), Eq. 1 swept over
/// `0 ≤ t ≤ 10` (harmonic) and `0 ≤ t ≤ 30` (single event).
///
/// Each delay's worst case is an independent fold over the same time grid,
/// so the delay grid is cut into [`DELAY_CHUNK`]-sized pieces that run
/// across the sweep workers; every entry is bit-identical to the one-call
/// [`analysis::empirical_worst_case_curve`] at any worker count.
fn empirical_curves(delays: &[f64], cancel: &CancelToken) -> (Vec<f64>, Vec<f64>) {
    let h_wave = Harmonic::new(1.0, 1.0, 0.0);
    let s_wave = SingleEvent::new(1.0, 1.0, 10.0);
    const DT: f64 = 0.002;
    // (single event?, delay chunk); harmonic chunks first.
    let tasks: Vec<(bool, &[f64])> = [false, true]
        .into_iter()
        .flat_map(|single| delays.chunks(DELAY_CHUNK).map(move |c| (single, c)))
        .collect();
    let parts = parallel_map(
        &tasks,
        // Cost hint: time-grid points × delays (the single event sweeps a
        // three times longer window).
        |&(single, chunk)| if single { 3 } else { 1 } * chunk.len() as u64,
        |&(single, chunk)| {
            if single {
                analysis::empirical_worst_case_curve(&s_wave, chunk, 0.0, 30.0, DT)
            } else {
                analysis::empirical_worst_case_curve(&h_wave, chunk, 0.0, 10.0, DT)
            }
        },
        &Telemetry::disabled(),
        cancel,
    );
    let (h, s) = parts.split_at(parts.len() / 2);
    (h.concat(), s.concat())
}

/// Render the figure as a chart plus the zero-mismatch-island table.
pub fn render(result: &ExperimentResult) -> String {
    let h = result
        .series_named("Harmonic HoDV")
        .expect("series present");
    let s = result
        .series_named("Single event HoDV")
        .expect("series present");
    let mut out = String::new();
    out.push_str("Fig. 2 — Δν/ν0 vs t_clk/Tν\n\n");
    out.push_str(&ascii_chart(
        &[("Harmonic HoDV", &h.y), ("Single event HoDV", &s.y)],
        72,
        16,
    ));
    out.push('\n');
    let mut t = Table::new(["t_clk/Tν", "harmonic Δν/ν0", "single event Δν/ν0"]);
    for (i, &x) in h.x.iter().enumerate() {
        if (x * 4.0).fract().abs() < 1e-9 {
            // quarter-integer rows only, to keep the table printable
            t.row([fmt(x), fmt(h.y[i]), fmt(s.y[i])]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nSafety-margin reduction islands (harmonic): t_clk < Tν/6 or \
         |t_clk/Tν − n| < 1/6;\nsingle event: no benefit once t_clk > Tν/2.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;

    fn result() -> ExperimentResult {
        run(&RunCtx::new(PaperParams::default()), 4.0, 401)
    }

    #[test]
    fn analytic_and_empirical_agree() {
        let r = result();
        let h = r.series_named("Harmonic HoDV").unwrap();
        let eh = r.series_named("Harmonic (empirical)").unwrap();
        for k in 0..h.len() {
            assert!(
                (h.y[k] - eh.y[k]).abs() < 0.02,
                "x={}: analytic {} vs empirical {}",
                h.x[k],
                h.y[k],
                eh.y[k]
            );
        }
        let s = r.series_named("Single event HoDV").unwrap();
        let es = r.series_named("Single event (empirical)").unwrap();
        for k in 0..s.len() {
            assert!(
                (s.y[k] - es.y[k]).abs() < 0.02,
                "x={}: analytic {} vs empirical {}",
                s.x[k],
                s.y[k],
                es.y[k]
            );
        }
    }

    /// The chunked, parallel empirical curves equal the one-call curves to
    /// the bit, for grids that are and are not a multiple of the chunk.
    #[test]
    fn chunked_empirical_curves_equal_the_one_call_curves() {
        let h_wave = Harmonic::new(1.0, 1.0, 0.0);
        let s_wave = SingleEvent::new(1.0, 1.0, 10.0);
        for n in [1, DELAY_CHUNK, 2 * DELAY_CHUNK + 5] {
            let x: Vec<f64> = (0..n).map(|k| 4.0 * k as f64 / n as f64).collect();
            let (h, s) = empirical_curves(&x, &CancelToken::never());
            let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            let whole_h = analysis::empirical_worst_case_curve(&h_wave, &x, 0.0, 10.0, 0.002);
            let whole_s = analysis::empirical_worst_case_curve(&s_wave, &x, 0.0, 30.0, 0.002);
            assert_eq!(bits(&h), bits(&whole_h), "harmonic, {n} delays");
            assert_eq!(bits(&s), bits(&whole_s), "single event, {n} delays");
        }
    }

    #[test]
    fn paper_shape_harmonic_peaks_at_two_and_islands_at_integers() {
        let r = result();
        let h = r.series_named("Harmonic HoDV").unwrap();
        assert!((h.nearest(0.5).unwrap() - 2.0).abs() < 0.01);
        assert!((h.nearest(1.5).unwrap() - 2.0).abs() < 0.01);
        assert!(h.nearest(1.0).unwrap() < 0.02);
        assert!(h.nearest(2.0).unwrap() < 0.02);
        assert!(h.nearest(3.0).unwrap() < 0.02);
    }

    #[test]
    fn paper_shape_single_event_saturates_at_one() {
        let r = result();
        let s = r.series_named("Single event HoDV").unwrap();
        assert!((s.nearest(0.25).unwrap() - 0.5).abs() < 0.01);
        assert!((s.nearest(0.5).unwrap() - 1.0).abs() < 0.01);
        for x in [0.75, 1.0, 2.0, 4.0] {
            assert!((s.nearest(x).unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn render_mentions_boundaries() {
        let r = result();
        let text = render(&r);
        assert!(text.contains("Tν/6"));
        assert!(text.contains("Tν/2"));
        assert!(text.contains("Harmonic HoDV"));
    }
}
