//! Shared machinery for running scheme comparisons at one operating point:
//! the [`RunCtx`] every experiment threads through its pipeline, the
//! compact per-run summary the result cache stores instead of the full
//! trace, and the declarative [`SweepSpec`] pipeline Fig.-8-style panels
//! are built from.

use adaptive_clock::event::{SummarySink, TraceSink};
pub use adaptive_clock::system::RunSummary;
use adaptive_clock::system::{Scheme, System, SystemBuilder};
use adaptive_clock::RunTrace;
use clock_rescache::Key;
use clock_telemetry::{Event, Telemetry};
use variation::sources::Harmonic;

use crate::cache::{CacheKeyExt as _, SweepCache};
use crate::config::PaperParams;
use crate::results::{ExperimentResult, Series};
use crate::sweep::{parallel_map_planned, CancelToken, Plan};

/// The shared context one experiment invocation threads through the whole
/// pipeline: the paper parameters plus the cache and telemetry handles
/// every grid point consults. One `RunCtx` replaces the
/// `(params, cache, telemetry)` triplet the per-experiment
/// `*_observed`/`*_cached` entry-point ladders used to thread separately —
/// a plain [`RunCtx::new`] context *is* the classic uninstrumented,
/// uncached run.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Paper parameters of the run.
    pub params: PaperParams,
    /// Result cache consulted per grid point (disabled by default).
    pub cache: SweepCache,
    /// Instrumentation handle (disabled by default).
    pub telemetry: Telemetry,
    /// Cooperative cancellation token consulted once per grid point
    /// (never fires by default). The experiment service arms this with
    /// the job's cancel flag and wall-clock deadline.
    pub cancel: CancelToken,
}

impl RunCtx {
    /// A context with the given parameters and no cache or instrumentation.
    pub fn new(params: PaperParams) -> Self {
        RunCtx {
            params,
            cache: SweepCache::disabled(),
            telemetry: Telemetry::disabled(),
            cancel: CancelToken::never(),
        }
    }

    /// Attach a result cache.
    #[must_use]
    pub fn with_cache(mut self, cache: SweepCache) -> Self {
        self.cache = cache;
        self
    }

    /// Attach an instrumentation handle.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attach a cancellation token. Sweeps consult it at every grid
    /// point (probe and compute), so a fired token stops an experiment
    /// within one point's wall time.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The same context with instrumentation stripped — for fixed-clock
    /// baseline runs, whose engine events must not be doubled into the
    /// adaptive runs' stream. The cache stays attached.
    #[must_use]
    pub fn unobserved(&self) -> RunCtx {
        RunCtx {
            telemetry: Telemetry::disabled(),
            ..self.clone()
        }
    }
}

/// One operating point of the paper's evaluation: CDN delay and HoDV
/// period, both as multiples of `c`, plus a static RO↔TDC mismatch as a
/// fraction of `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// `t_clk / c`.
    pub t_clk_over_c: f64,
    /// `T_e / c` (HoDV period in nominal clock periods).
    pub te_over_c: f64,
    /// `μ / c`.
    pub mu_over_c: f64,
}

impl OperatingPoint {
    /// A mismatch-free point.
    pub fn new(t_clk_over_c: f64, te_over_c: f64) -> Self {
        OperatingPoint {
            t_clk_over_c,
            te_over_c,
            mu_over_c: 0.0,
        }
    }

    /// Same point with a mismatch.
    #[must_use]
    pub fn with_mu(mut self, mu_over_c: f64) -> Self {
        self.mu_over_c = mu_over_c;
        self
    }
}

/// The three adaptive schemes the paper compares (legend order of Fig. 8).
pub fn adaptive_schemes() -> Vec<Scheme> {
    vec![
        Scheme::iir_paper(),
        Scheme::TeaTime,
        Scheme::FreeRo { extra_length: 0 },
    ]
}

/// The validated system, HoDV waveform and sample budget of `scheme` at
/// the operating point, with `ctx.telemetry` attached to the event loop.
fn system_at(ctx: &RunCtx, scheme: Scheme, point: OperatingPoint) -> (System, Harmonic, usize) {
    let c = ctx.params.setpoint;
    let hodv = Harmonic::new(ctx.params.amplitude(), point.te_over_c * c as f64, 0.0);
    let system = SystemBuilder::new(c)
        .cdn_delay(point.t_clk_over_c * c as f64)
        .scheme(scheme)
        .single_sensor_mu(point.mu_over_c * c as f64)
        .telemetry(ctx.telemetry.clone())
        .build()
        .expect("paper operating points are valid configurations");
    (system, hodv, ctx.params.samples_for(point.te_over_c))
}

/// Run `scheme` at the operating point and return the post-warm-up trace
/// (the warm-up is stepped but never recorded).
/// The underlying event loop reports its counters and
/// violation/saturation/update events through `ctx.telemetry`.
pub fn run_scheme(ctx: &RunCtx, scheme: Scheme, point: OperatingPoint) -> RunTrace {
    let (system, hodv, samples) = system_at(ctx, scheme, point);
    system.run_with(&hodv, samples, TraceSink::with_warmup(ctx.params.warmup))
}

/// [`run_scheme`] folded straight into its [`RunSummary`] by a
/// [`SummarySink`], without recording the trace: bit-identical to
/// `RunSummary::of(&run_scheme(ctx, scheme, point))`, with the same
/// telemetry.
fn summarize_scheme(ctx: &RunCtx, scheme: Scheme, point: OperatingPoint) -> RunSummary {
    let (system, hodv, samples) = system_at(ctx, scheme, point);
    system.run_with(&hodv, samples, SummarySink::with_warmup(ctx.params.warmup))
}

/// The content key of one `(params, scheme, operating point)` standard run
/// (full warm-up, classic measurement window). The sample and warm-up
/// budgets are hashed explicitly even though they derive from `params`, so
/// a future budget-policy change cannot silently alias old records.
pub fn summary_key(params: &PaperParams, scheme: &Scheme, point: OperatingPoint) -> Key {
    crate::cache::key("run-summary")
        .params(params)
        .scheme(scheme)
        .point(point)
        .u64("budget.samples", params.samples_for(point.te_over_c) as u64)
        .u64("budget.warmup", params.warmup as u64)
        .finish()
}

/// A standard run's summary from `ctx.cache`, if it holds one.
fn cached_summary(ctx: &RunCtx, scheme: &Scheme, point: OperatingPoint) -> Option<RunSummary> {
    ctx.cache
        .get_f64s(summary_key(&ctx.params, scheme, point), RunSummary::FIELDS)
        .and_then(|v| RunSummary::from_values(&v))
}

/// Probe `ctx.cache` for a standard run's summary: `Ready` on a hit,
/// `Compute` with the point's simulated-step budget (the scheduler's cost
/// hint) on a miss.
pub fn summary_probe(ctx: &RunCtx, scheme: &Scheme, point: OperatingPoint) -> Plan<RunSummary> {
    match cached_summary(ctx, scheme, point) {
        Some(summary) => Plan::Ready(summary),
        None => Plan::Compute(ctx.params.samples_for(point.te_over_c) as u64),
    }
}

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

/// Probe `ctx.cache` for every `(scheme, μ)` point of a μ sweep at
/// `point` (its own μ is ignored): `Ready` only when all of them hit,
/// else `Compute` with the cost of [`summaries_compute`] in per-μ run
/// steps. Every key is probed (no short-circuit), so the cache's hit and
/// miss counts stay per grid point.
pub fn summaries_probe(
    ctx: &RunCtx,
    scheme: &Scheme,
    point: OperatingPoint,
    mus: &[f64],
) -> Plan<Vec<RunSummary>> {
    let hits: Vec<Option<RunSummary>> = mus
        .iter()
        .map(|&mu| cached_summary(ctx, scheme, point.with_mu(mu)))
        .collect();
    if let Some(summaries) = hits.into_iter().collect() {
        return Plan::Ready(summaries);
    }
    let samples = ctx.params.samples_for(point.te_over_c) as u64;
    let lanes = mus.len() as u64;
    Plan::Compute(if scheme.is_open_loop() {
        samples * (SHARED_STEP_BASE + SHARED_STEP_PER_LANE * lanes) / SHARED_STEP_UNIT
    } else {
        samples * lanes
    })
}

/// The summaries of `scheme` at `point` for every μ of `mus`, each
/// bit-identical to [`summary_compute`] at that μ, and backfill every
/// `(scheme, μ)` key. An open-loop scheme ([`Scheme::is_open_loop`]) makes
/// one shared run for all of them ([`System::run_offsets`]); a closed-loop
/// one runs each μ.
pub fn summaries_compute(
    ctx: &RunCtx,
    scheme: &Scheme,
    point: OperatingPoint,
    mus: &[f64],
) -> Vec<RunSummary> {
    let summaries: Vec<RunSummary> = if scheme.is_open_loop() {
        let (system, hodv, samples) = system_at(ctx, scheme.clone(), point);
        let c = ctx.params.setpoint as f64;
        let offsets: Vec<f64> = mus.iter().map(|&mu| mu * c).collect();
        system
            .run_offsets(&hodv, samples, &offsets, || {
                SummarySink::with_warmup(ctx.params.warmup)
            })
            .expect("an open-loop scheme with one sensor shares its run")
    } else {
        mus.iter()
            .map(|&mu| summarize_scheme(ctx, scheme.clone(), point.with_mu(mu)))
            .collect()
    };
    for (&mu, summary) in mus.iter().zip(&summaries) {
        ctx.cache.put_f64s(
            summary_key(&ctx.params, scheme, point.with_mu(mu)),
            &summary.to_values(),
        );
    }
    summaries
}

/// Run the point for real, summarize, and backfill the cache.
pub fn summary_compute(ctx: &RunCtx, scheme: &Scheme, point: OperatingPoint) -> RunSummary {
    let summary = summarize_scheme(ctx, scheme.clone(), point);
    ctx.cache.put_f64s(
        summary_key(&ctx.params, scheme, point),
        &summary.to_values(),
    );
    summary
}

/// The relative adaptive period `⟨T_clk⟩/T_fixed` of `scheme` at the
/// operating point, with the fixed-clock baseline run under the identical
/// waveform and mismatch. Instrumentation is attached to the adaptive run
/// only (the baseline stays unobserved so events are not doubled).
pub fn relative_period(ctx: &RunCtx, scheme: Scheme, point: OperatingPoint) -> f64 {
    let adaptive = summarize_scheme(ctx, scheme, point);
    let fixed = summarize_scheme(&ctx.unobserved(), Scheme::Fixed, point);
    adaptive.relative_to(&fixed)
}

/// The declarative description of one Fig.-8-style sweep panel: a grid of
/// x values, the adaptive scheme line-up, and the operating point each x
/// maps to. [`run_sweep`] turns a spec into an [`ExperimentResult`] with
/// one series per scheme, each y the relative adaptive period against the
/// shared per-point fixed-clock baseline.
pub struct SweepSpec<'a, F: Fn(f64) -> OperatingPoint + Sync> {
    /// Result id — also the `experiment` field of the margin-search events
    /// the sweep emits.
    pub id: &'a str,
    /// Human-readable result description.
    pub description: String,
    /// The sweep grid (the produced series' x values).
    pub grid: Vec<f64>,
    /// The adaptive schemes swept, in legend order.
    pub schemes: Vec<Scheme>,
    /// The operating point a grid value maps to.
    pub point_at: F,
}

/// Run a declarative sweep as one flat plan: the fixed-clock baselines
/// (one per grid point, shared by every scheme — the baseline depends only
/// on the operating point, not on the scheme under test) and every
/// scheme's points go through a single longest-job-first dispatch, so no
/// worker waits at a stage boundary. Baselines run on the unobserved
/// context so adaptive-run telemetry is not doubled. Every grid point of
/// every scheme is then reported, in line-up order, as a margin-search
/// iteration on `ctx.telemetry` (cache hits report too — the iteration
/// happened, it just cost nothing).
pub fn run_sweep<F>(ctx: &RunCtx, spec: &SweepSpec<'_, F>) -> ExperimentResult
where
    F: Fn(f64) -> OperatingPoint + Sync,
{
    let mut sweep_scope = ctx.telemetry.scope("sweep");
    sweep_scope.attr("experiment", spec.id);
    sweep_scope.attr("points", spec.grid.len());
    let xs = &spec.grid;
    let n = xs.len();
    // Line-up row 0 is the baseline; row k + 1 is `spec.schemes[k]`.
    let baseline_ctx = ctx.unobserved();
    let fixed_scheme = Scheme::Fixed;
    let lineup: Vec<(&RunCtx, &Scheme)> = std::iter::once((&baseline_ctx, &fixed_scheme))
        .chain(spec.schemes.iter().map(|scheme| (ctx, scheme)))
        .collect();
    let tasks: Vec<(usize, f64)> = (0..lineup.len())
        .flat_map(|row| xs.iter().map(move |&x| (row, x)))
        .collect();
    let summaries = {
        // The stage span goes to the *observed* handle: its wall time is
        // real even though the baselines' engine events are dropped.
        let mut stage_scope = ctx.telemetry.scope("sweep.stage");
        stage_scope.attr("schemes", lineup.len());
        parallel_map_planned(
            &tasks,
            |&(row, x)| {
                ctx.cancel.check();
                let (run_ctx, scheme) = lineup[row];
                summary_probe(run_ctx, scheme, (spec.point_at)(x))
            },
            |&(row, x)| {
                ctx.cancel.check();
                let (run_ctx, scheme) = lineup[row];
                summary_compute(run_ctx, scheme, (spec.point_at)(x))
            },
            &ctx.telemetry,
        )
    };
    let fixed = &summaries[..n];
    let mut result = ExperimentResult::new(spec.id, spec.description.clone());
    for (k, scheme) in spec.schemes.iter().enumerate() {
        let ys: Vec<f64> = summaries[(k + 1) * n..(k + 2) * n]
            .iter()
            .zip(fixed)
            .map(|(adaptive, baseline)| adaptive.relative_to(baseline))
            .collect();
        if ctx.telemetry.is_enabled() {
            for (&x, &y) in xs.iter().zip(&ys) {
                if y.is_finite() {
                    ctx.telemetry.emit(
                        x,
                        Event::MarginSearchIteration {
                            experiment: spec.id.to_owned(),
                            scheme: scheme.label().to_owned(),
                            x,
                            value: y,
                        },
                    );
                }
            }
        }
        result = result.with_series(Series::new(scheme.label(), xs.clone(), ys));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operating_point_builders() {
        let p = OperatingPoint::new(1.0, 25.0).with_mu(-0.2);
        assert_eq!(p.t_clk_over_c, 1.0);
        assert_eq!(p.te_over_c, 25.0);
        assert_eq!(p.mu_over_c, -0.2);
    }

    #[test]
    fn scheme_lineup_matches_paper() {
        let labels: Vec<&str> = adaptive_schemes().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["IIR RO", "TEAtime RO", "Free RO"]);
    }

    #[test]
    fn ctx_builders_attach_handles_and_unobserved_strips_telemetry() {
        let ctx = RunCtx::new(PaperParams::default())
            .with_cache(SweepCache::in_memory(&Telemetry::disabled()))
            .with_telemetry(Telemetry::enabled());
        assert!(ctx.cache.is_enabled());
        assert!(ctx.telemetry.is_enabled());
        let baseline = ctx.unobserved();
        assert!(baseline.cache.is_enabled(), "cache must stay attached");
        assert!(!baseline.telemetry.is_enabled());
    }

    #[test]
    fn fixed_baseline_margin_equals_hodv_amplitude() {
        let ctx = RunCtx::new(PaperParams::default());
        let run = run_scheme(&ctx, Scheme::Fixed, OperatingPoint::new(1.0, 50.0));
        let m = RunSummary::of(&run).required_margin();
        // Fixed clock is fully exposed: needs the whole 0.2c = 12.8 plus
        // the TDC floor quantization (≤ 1 stage).
        assert!((m - 12.8).abs() < 1.2, "fixed margin {m}");
    }

    /// A point's post-warm-up trace (recorded once, warm-up never stored)
    /// is the full run with the warm-up skipped, and its traceless summary
    /// is that trace summarized: every sample and every summary field bit
    /// for bit, for every scheme, at friendly and hostile points.
    #[test]
    fn point_runs_equal_the_skipped_full_trace() {
        let ctx = RunCtx::new(PaperParams::default());
        for scheme in [
            Scheme::Fixed,
            Scheme::FreeRo { extra_length: 0 },
            Scheme::TeaTime,
            Scheme::iir_paper(),
        ] {
            for point in [
                OperatingPoint::new(1.0, 50.0),
                OperatingPoint::new(0.75, 25.0).with_mu(-0.2),
                OperatingPoint::new(1.25, 37.5).with_mu(0.15),
            ] {
                let (system, hodv, samples) = system_at(&ctx, scheme.clone(), point);
                let skipped = system.run(&hodv, samples).skip(ctx.params.warmup);
                let what = format!("{} at {point:?}", scheme.label());
                assert_eq!(run_scheme(&ctx, scheme.clone(), point), skipped, "{what}");
                let bits = |s: RunSummary| s.to_values().map(f64::to_bits);
                assert_eq!(
                    bits(summarize_scheme(&ctx, scheme.clone(), point)),
                    bits(RunSummary::of(&skipped)),
                    "{what}"
                );
            }
        }
    }

    fn small_spec() -> SweepSpec<'static, fn(f64) -> OperatingPoint> {
        SweepSpec {
            id: "one-plan",
            description: String::new(),
            grid: vec![0.5, 1.0, 3.0],
            schemes: adaptive_schemes(),
            point_at: |x| OperatingPoint::new(x, 40.0),
        }
    }

    #[test]
    fn one_plan_sweep_equals_per_stage_summaries_bit_for_bit() {
        let ctx = RunCtx::new(PaperParams::default());
        let spec = small_spec();
        let swept = run_sweep(&ctx, &spec);
        let fixed: Vec<RunSummary> = spec
            .grid
            .iter()
            .map(|&x| summary_compute(&ctx.unobserved(), &Scheme::Fixed, (spec.point_at)(x)))
            .collect();
        assert_eq!(swept.series.len(), spec.schemes.len());
        for (series, scheme) in swept.series.iter().zip(&spec.schemes) {
            assert_eq!(series.label, scheme.label());
            assert_eq!(series.x, spec.grid);
            for ((&x, &y), baseline) in series.x.iter().zip(&series.y).zip(&fixed) {
                let direct =
                    summary_compute(&ctx, scheme, (spec.point_at)(x)).relative_to(baseline);
                assert_eq!(y.to_bits(), direct.to_bits(), "{} at x = {x}", series.label);
            }
        }
    }

    #[test]
    fn one_plan_sweep_nests_workers_under_one_stage_span() {
        let telemetry = Telemetry::enabled();
        telemetry.enable_tracing();
        let ctx = RunCtx::new(PaperParams::default()).with_telemetry(telemetry.clone());
        run_sweep(&ctx, &small_spec());
        let spans = telemetry.trace_spans();
        let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let (sweep, stage) = (named("sweep"), named("sweep.stage"));
        assert_eq!((sweep.len(), stage.len()), (1, 1), "one stage per plan");
        assert_eq!(stage[0].parent, sweep[0].id);
        // Workers exist only on a multi-core host; the probe always runs.
        let dispatched = [named("sweep.probe"), named("sweep.worker")].concat();
        assert!(!dispatched.is_empty());
        for span in dispatched {
            assert_eq!(span.parent, stage[0].id, "{} outside the stage", span.name);
        }
    }

    #[test]
    fn relative_period_sane_at_friendly_point() {
        let ctx = RunCtx::new(PaperParams::default());
        let r = relative_period(&ctx, Scheme::iir_paper(), OperatingPoint::new(1.0, 50.0));
        assert!(r > 0.7 && r < 1.1, "relative period {r}");
    }
}
