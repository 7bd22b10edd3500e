//! Fig. 9 — relative adaptive period under a static RO↔TDC mismatch `μ`
//! combined with a HoDV: nine panels over
//! `t_clk ∈ {0.75c, c, 1.25c} × T_e ∈ {25c, 37.5c, 50c}`, sweeping
//! `μ/c ∈ [−0.2, 0.2]`.
//!
//! Baseline accounting (paper §IV-B): the free RO's length is set at design
//! time, so its safety margin must cover the *whole* `μ/c` range — one
//! shared margin, the worst over the sweep — while the closed-loop schemes
//! and the fixed clock are margined per operating point.
//!
//! Paper observations the tests assert: the IIR RO is the best option on
//! almost any situation; only for the fastest perturbation (`T_e = 25c`)
//! does TEAtime surpass it, and the free RO wins only at strongly negative
//! mismatch.

use clock_telemetry::Event;

use crate::render::{fmt, Table};
use crate::results::{ExperimentResult, Series};
use crate::runner::{
    cached_map, summaries_compute, summary_key, Codec, OperatingPoint, RunCtx, RunSummary,
};
use crate::sweep::linear_grid;
use adaptive_clock::system::Scheme;

/// The grid of CDN delays, in multiples of `c`.
pub const T_CLK_GRID: [f64; 3] = [0.75, 1.0, 1.25];
/// The grid of HoDV periods, in multiples of `c`.
pub const TE_GRID: [f64; 3] = [25.0, 37.5, 50.0];

/// The number of μ points of a full (not `--quick`) run.
pub const MU_POINTS: usize = 9;

/// Cost of one step of a shared open-loop run, in steps of a per-μ run:
/// `(SHARED_STEP_BASE + SHARED_STEP_PER_LANE · lanes) / SHARED_STEP_UNIT`.
/// Measured on a 2-vCPU Xeon VM, release build, best of 300 interleaved
/// runs of a free-RO Fig. 9 point (5 200 samples, `t_clk = c`,
/// `T_e = 37.5c`): a per-μ run took 261 µs, a one-lane shared run 263 µs
/// and a nine-lane one 650 µs: 0.81 of a step plus ~0.19 per lane (the
/// fixed clock's lanes cost the same ~8.5 ns per sample).
const SHARED_STEP_BASE: u64 = 81;
const SHARED_STEP_PER_LANE: u64 = 19;
const SHARED_STEP_UNIT: u64 = 100;

/// The four schemes every panel runs at each μ, in dispatch order.
pub(crate) fn panel_schemes() -> [Scheme; 4] {
    [
        Scheme::FreeRo { extra_length: 0 },
        Scheme::TeaTime,
        Scheme::iir_paper(),
        Scheme::Fixed,
    ]
}

/// Run one panel `(t_clk/c, T_e/c)` over a μ sweep of `points` values —
/// the one-panel case of the flat plan [`run`] dispatches.
///
/// The result cache is consulted per `(scheme, μ)` grid point: hits
/// short-circuit before a worker is occupied, misses run cold and backfill
/// the cache. With a disabled cache this *is* the classic panel — every
/// point computes, in cost-sorted dispatch order, and the resulting series
/// are identical. Every grid point of the panel is reported as a
/// margin-search iteration at coordinate `μ` on `ctx.telemetry`.
pub fn run_panel(
    ctx: &RunCtx,
    t_clk_over_c: f64,
    te_over_c: f64,
    points: usize,
) -> ExperimentResult {
    run_panels(ctx, &[(t_clk_over_c, te_over_c)], points)
        .pop()
        .expect("one panel in, one panel out")
}

/// Run `panels` (each `(t_clk/c, T_e/c)`) as one flat plan: one task per
/// open-loop `(panel, scheme)` covering every μ with one shared run (the
/// free RO's and the fixed clock's edges do not depend on what the sensor
/// reads), and one per closed-loop `(panel, scheme, μ)`, all through a
/// single [`cached_map`] call, so the workers never wait at a panel
/// boundary. Each panel is then assembled from its own tasks.
fn run_panels(ctx: &RunCtx, panels: &[(f64, f64)], points: usize) -> Vec<ExperimentResult> {
    let mus = linear_grid(-0.2, 0.2, points);
    let schemes = panel_schemes();
    struct Task<'a> {
        panel: usize,
        scheme: &'a Scheme,
        point: OperatingPoint,
        mus: &'a [f64],
    }
    let mut tasks = Vec::new();
    for (panel, &(t_clk_over_c, te_over_c)) in panels.iter().enumerate() {
        let point = OperatingPoint::new(t_clk_over_c, te_over_c);
        for scheme in &schemes {
            let groups: Vec<&[f64]> = if scheme.is_open_loop() {
                vec![&mus]
            } else {
                mus.iter().map(std::slice::from_ref).collect()
            };
            tasks.extend(groups.into_iter().map(|mus| Task {
                panel,
                scheme,
                point,
                mus,
            }));
        }
    }
    let summaries = cached_map(
        ctx,
        &tasks,
        Codec::SUMMARY,
        |t| {
            t.mus
                .iter()
                .map(|&mu| summary_key(&ctx.params, t.scheme, t.point.with_mu(mu)))
                .collect()
        },
        // The cost of `summaries_compute`, in per-μ run steps.
        |t| {
            let samples = ctx.params.samples_for(t.point.te_over_c) as u64;
            let lanes = t.mus.len() as u64;
            if t.scheme.is_open_loop() {
                samples * (SHARED_STEP_BASE + SHARED_STEP_PER_LANE * lanes) / SHARED_STEP_UNIT
            } else {
                samples * lanes
            }
        },
        |t| summaries_compute(ctx, t.scheme, t.point, t.mus),
    );
    let mut runs = vec![Vec::new(); panels.len()];
    let labels = tasks
        .iter()
        .flat_map(|t| t.mus.iter().map(move |&mu| (t, mu)));
    for ((t, mu), summary) in labels.zip(summaries) {
        runs[t.panel].push((t.scheme.label(), mu, summary));
    }
    panels
        .iter()
        .zip(&runs)
        .map(|(&(t_clk_over_c, te_over_c), runs)| {
            assemble_panel(ctx, t_clk_over_c, te_over_c, &mus, runs)
        })
        .collect()
}

/// Turn a panel's complete `(scheme, μ) → run summary` grid into the three
/// Fig. 9 series, applying the shared free-RO design margin and emitting
/// margin-search telemetry.
fn assemble_panel(
    ctx: &RunCtx,
    t_clk_over_c: f64,
    te_over_c: f64,
    mus: &[f64],
    runs: &[(&'static str, f64, RunSummary)],
) -> ExperimentResult {
    let get = |label: &str, mu: f64| {
        runs.iter()
            .find(|(l, m, _)| *l == label && *m == mu)
            .map(|(_, _, r)| r)
            .expect("every (scheme, mu) pair was run")
    };

    // Free RO: one design margin covering the whole μ range.
    let free_margin = mus
        .iter()
        .map(|&mu| get("Free RO", mu).required_margin())
        .fold(0.0, f64::max);

    let mut result = ExperimentResult::new(
        format!("fig9-tclk{t_clk_over_c}c-te{te_over_c}c"),
        format!(
            "Relative adaptive period vs μ/c at t_clk = {t_clk_over_c}c, Te = {te_over_c}c \
             (c = {}, HoDV amplitude 0.2c; free-RO margin fixed over the μ range)",
            ctx.params.setpoint
        ),
    );
    for label in ["Free RO", "TEAtime RO", "IIR RO"] {
        let ys: Vec<f64> = mus
            .iter()
            .map(|&mu| {
                let fixed = get("Fixed clock", mu);
                let adaptive = get(label, mu);
                if label == "Free RO" {
                    adaptive.relative_with_margin(free_margin, fixed)
                } else {
                    adaptive.relative_to(fixed)
                }
            })
            .collect();
        if ctx.telemetry.is_enabled() {
            for (&mu, &y) in mus.iter().zip(&ys) {
                if y.is_finite() {
                    ctx.telemetry.emit(
                        mu,
                        Event::MarginSearchIteration {
                            experiment: result.id.clone(),
                            scheme: label.to_owned(),
                            x: mu,
                            value: y,
                        },
                    );
                }
            }
        }
        result = result.with_series(Series::new(label, mus.to_vec(), ys));
    }
    result
}

/// Run the full 3×3 grid as one flat plan, panels in `T_e`-major order.
pub fn run(ctx: &RunCtx, points: usize) -> Vec<ExperimentResult> {
    let panels: Vec<(f64, f64)> = TE_GRID
        .iter()
        .flat_map(|&te| T_CLK_GRID.iter().map(move |&t_clk| (t_clk, te)))
        .collect();
    run_panels(ctx, &panels, points)
}

/// Render a panel as a table over μ/c.
pub fn render(result: &ExperimentResult) -> String {
    let mut headers = vec!["μ/c".to_owned()];
    headers.extend(result.series.iter().map(|s| s.label.clone()));
    let mut t = Table::new(headers);
    if let Some(first) = result.series.first() {
        for (i, &mu) in first.x.iter().enumerate() {
            let mut row = vec![fmt(mu)];
            row.extend(result.series.iter().map(|s| fmt(s.y[i])));
            t.row(row);
        }
    }
    format!("Fig. 9 panel — {}\n\n{}", result.description, t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SweepCache;
    use crate::config::PaperParams;
    use crate::runner::summarize_scheme;
    use clock_telemetry::Telemetry;

    fn ctx() -> RunCtx {
        RunCtx::new(PaperParams::default())
    }

    fn mean_of(result: &ExperimentResult, label: &str) -> f64 {
        let s = result.series_named(label).unwrap();
        s.y.iter().sum::<f64>() / s.y.len() as f64
    }

    #[test]
    fn flat_run_equals_per_panel_runs_bit_for_bit() {
        let flat = run(&ctx(), 5);
        assert_eq!(flat.len(), TE_GRID.len() * T_CLK_GRID.len());
        let mut panels = flat.iter();
        for &te in &TE_GRID {
            for &t_clk in &T_CLK_GRID {
                let alone = run_panel(&ctx(), t_clk, te, 5);
                let from_flat = panels.next().expect("one result per panel");
                assert_eq!(from_flat.id, alone.id);
                assert_eq!(from_flat.series.len(), alone.series.len());
                for (a, b) in from_flat.series.iter().zip(&alone.series) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.x, b.x);
                    let bits = |s: &Series| s.y.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{} {}", alone.id, a.label);
                }
            }
        }
    }

    #[test]
    fn panel_has_three_series_over_mu_range() {
        let r = run_panel(&ctx(), 1.0, 37.5, 5);
        assert_eq!(r.series.len(), 3);
        for s in &r.series {
            assert_eq!(s.len(), 5);
            assert_eq!(s.x[0], -0.2);
            assert_eq!(s.x[4], 0.2);
        }
    }

    #[test]
    fn iir_beats_free_ro_on_average_at_mid_frequency() {
        // Paper: "On almost any situation the IIR RO is the best option."
        for &t_clk in &T_CLK_GRID {
            let r = run_panel(&ctx(), t_clk, 50.0, 5);
            let iir = mean_of(&r, "IIR RO");
            let free = mean_of(&r, "Free RO");
            assert!(
                iir < free + 0.01,
                "t_clk={t_clk}c Te=50c: IIR {iir} vs free {free}"
            );
        }
    }

    #[test]
    fn free_ro_ratio_improves_toward_negative_mu() {
        // The free RO's fixed margin makes its numerator μ-independent
        // while the fixed-clock denominator grows as μ/c → −0.2, so its
        // curve must fall toward negative mismatch (why the paper sees the
        // free RO win for μ/c < −0.1 at high frequency).
        let r = run_panel(&ctx(), 1.0, 25.0, 5);
        let s = r.series_named("Free RO").unwrap();
        let at_neg = s.nearest(-0.2).unwrap();
        let at_pos = s.nearest(0.2).unwrap();
        assert!(
            at_neg < at_pos,
            "free RO: {at_neg} at μ=-0.2c vs {at_pos} at +0.2c"
        );
    }

    #[test]
    fn iir_curve_is_flat_across_mismatch() {
        // The closed loop cancels static μ, so its needed period barely
        // depends on μ; the residual slope comes from the fixed-clock
        // denominator.
        let params = PaperParams::default();
        let r = run_panel(&RunCtx::new(params), 1.0, 50.0, 5);
        let s = r.series_named("IIR RO").unwrap();
        let needed_spread: Vec<f64> =
            s.x.iter()
                .zip(&s.y)
                .map(|(&mu, &ratio)| {
                    // reconstruct the numerator (needed adaptive period)
                    let c = params.setpoint as f64;
                    let fixed_needed = c + 12.8 - mu * c; // analytic fixed baseline
                    ratio * fixed_needed
                })
                .collect();
        let lo = needed_spread.iter().cloned().fold(f64::MAX, f64::min);
        let hi = needed_spread.iter().cloned().fold(f64::MIN, f64::max);
        // The loop holds τ at c: the needed period shifts by -μ·c (it must
        // physically stretch the RO), so spread ≈ 0.4c... unless we compare
        // *compensation*: needed - (c - μc) should be flat.
        let compensated: Vec<f64> = needed_spread
            .iter()
            .zip(&s.x)
            .map(|(&n, &mu)| n + mu * params.setpoint as f64)
            .collect();
        let clo = compensated.iter().cloned().fold(f64::MAX, f64::min);
        let chi = compensated.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            chi - clo < 3.0,
            "IIR compensated period must be flat: spread {} (raw {lo}..{hi})",
            chi - clo
        );
    }

    #[test]
    fn cached_panel_is_bit_identical_and_hits_on_rerun() {
        let cache = SweepCache::in_memory(&Telemetry::disabled());
        let cached_ctx = ctx().with_cache(cache.clone());
        let uncached = run_panel(&ctx(), 1.0, 37.5, 5);
        let cold = run_panel(&cached_ctx, 1.0, 37.5, 5);
        let warm = run_panel(&cached_ctx, 1.0, 37.5, 5);
        for reference in [&cold, &warm] {
            assert_eq!(reference.series.len(), uncached.series.len());
            for (a, b) in uncached.series.iter().zip(&reference.series) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.x, b.x);
                assert_eq!(a.y, b.y, "{}: cached series must be bit-identical", a.label);
            }
        }
        let stats = cache.stats().expect("cache enabled");
        // 4 schemes x 5 mu points: all misses on the cold pass, all hits on
        // the warm pass.
        assert_eq!(stats.misses, 20, "cold pass misses");
        assert_eq!(stats.hits, 20, "warm pass hits");
    }

    /// A cache holding one `(open-loop scheme, μ)` key, here with a
    /// stale value: the shared task still computes, overwrites that key
    /// and writes every other, and the panel has the uncached bits.
    #[test]
    fn partly_cached_open_loop_task_recomputes_and_writes_every_key() {
        let params = PaperParams::default();
        let panel = OperatingPoint::new(1.0, 37.5);
        let mus = linear_grid(-0.2, 0.2, 5);
        let uncached = run_panel(&ctx(), 1.0, 37.5, 5);

        let cache = SweepCache::in_memory(&Telemetry::disabled());
        let free_ro = Scheme::FreeRo { extra_length: 0 };
        let stale_at = panel.with_mu(mus[2]);
        let stale = RunSummary::from_values(&[64.0, 1.0, 64.0, 99.0, 99.0, 64.0]).unwrap();
        cache.put_f64s(summary_key(&params, &free_ro, stale_at), &stale.to_values());
        let mixed = run_panel(&ctx().with_cache(cache.clone()), 1.0, 37.5, 5);
        for (a, b) in uncached.series.iter().zip(&mixed.series) {
            assert_eq!(a.label, b.label);
            let bits = |s: &Series| s.y.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{}", a.label);
        }
        let stats = cache.stats().expect("cache enabled");
        assert_eq!((stats.hits, stats.misses), (1, 19), "every key probed once");

        let written = |scheme: &Scheme, mu: f64| {
            cache
                .get_f64s(
                    summary_key(&params, scheme, panel.with_mu(mu)),
                    RunSummary::FIELDS,
                )
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        for scheme in panel_schemes() {
            for &mu in &mus {
                let want = summarize_scheme(&ctx(), scheme.clone(), panel.with_mu(mu))
                    .to_values()
                    .map(f64::to_bits)
                    .to_vec();
                assert_eq!(
                    written(&scheme, mu),
                    Some(want),
                    "{} at μ {mu}",
                    scheme.label()
                );
            }
        }
    }

    /// With telemetry on, a panel's engine counters total what one
    /// separate run per `(scheme, μ)` totals, shared runs included.
    #[test]
    fn shared_panel_counts_what_per_mu_runs_count() {
        let panel = OperatingPoint::new(0.75, 25.0);
        let shared = Telemetry::enabled();
        run_panel(&ctx().with_telemetry(shared.clone()), 0.75, 25.0, 5);
        let per_mu = Telemetry::enabled();
        let per_mu_ctx = ctx().with_telemetry(per_mu.clone());
        for scheme in panel_schemes() {
            for mu in linear_grid(-0.2, 0.2, 5) {
                summarize_scheme(&per_mu_ctx, scheme.clone(), panel.with_mu(mu));
            }
        }
        let (a, b) = (shared.snapshot(), per_mu.snapshot());
        for name in [
            "core.samples",
            "core.timing_violations",
            "core.controller_steps",
            "core.ro_saturations",
            "core.sensor_dropouts",
        ] {
            assert_eq!(a.counter(name), b.counter(name), "{name}");
        }
        assert_eq!(
            a.counter("core.samples"),
            Some(20 * PaperParams::default().samples_for(25.0) as u64)
        );
        assert!(a.counter("core.timing_violations").unwrap_or(0) > 0);
    }

    #[test]
    fn render_tables_all_mu_rows() {
        let r = run_panel(&ctx(), 0.75, 25.0, 5);
        let text = render(&r);
        assert!(text.contains("μ/c"));
        assert!(text.contains("-0.2"));
        assert!(text.contains("IIR RO"));
    }
}
