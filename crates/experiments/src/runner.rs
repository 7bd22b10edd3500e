//! Shared machinery for running scheme comparisons at one operating point:
//! the [`RunCtx`] every experiment threads through its pipeline, the
//! compact per-run summary the result cache stores instead of the full
//! trace, and the declarative [`SweepSpec`] pipeline Fig.-8-style panels
//! are built from.

use adaptive_clock::system::{Scheme, SystemBuilder};
use adaptive_clock::RunTrace;
use clock_metrics::margin;
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

/// Run `scheme` at the operating point and return the post-warm-up trace.
/// The underlying event loop reports its counters and
/// violation/saturation/update events through `ctx.telemetry`.
pub fn run_scheme(ctx: &RunCtx, scheme: Scheme, point: OperatingPoint) -> RunTrace {
    let c = ctx.params.setpoint;
    let hodv = Harmonic::new(ctx.params.amplitude(), point.te_over_c * c as f64, 0.0);
    let system = SystemBuilder::new(c)
        .cdn_delay(point.t_clk_over_c * c as f64)
        .scheme(scheme)
        .single_sensor_mu(point.mu_over_c * c as f64)
        .telemetry(ctx.telemetry.clone())
        .build()
        .expect("paper operating points are valid configurations");
    let samples = ctx.params.samples_for(point.te_over_c);
    system.run(&hodv, samples).skip(ctx.params.warmup)
}

/// [`run_scheme`] with a warm start: the RO begins at `initial_length`
/// (when given) and only `warmup` samples are discarded instead of the
/// full `ctx.params.warmup`.
///
/// The measurement window keeps its classic length
/// (`params.samples_for(…) − params.warmup`), so the statistics stay
/// comparable with a cold run; only the discarded transient shrinks. Sweeps
/// seed `initial_length` from [`settled_length`] of a neighbouring grid
/// point, which puts the loop within a few stages of its operating point
/// from sample zero.
pub fn run_scheme_warm(
    ctx: &RunCtx,
    scheme: Scheme,
    point: OperatingPoint,
    initial_length: Option<i64>,
    warmup: usize,
) -> RunTrace {
    let c = ctx.params.setpoint;
    let hodv = Harmonic::new(ctx.params.amplitude(), point.te_over_c * c as f64, 0.0);
    let mut builder = SystemBuilder::new(c)
        .cdn_delay(point.t_clk_over_c * c as f64)
        .scheme(scheme)
        .single_sensor_mu(point.mu_over_c * c as f64)
        .telemetry(ctx.telemetry.clone());
    if let Some(length) = initial_length {
        builder = builder.initial_length(length);
    }
    let system = builder
        .build()
        .expect("paper operating points are valid configurations");
    let window = ctx
        .params
        .samples_for(point.te_over_c)
        .saturating_sub(ctx.params.warmup);
    system.run(&hodv, warmup + window).skip(warmup)
}

/// The RO length a run settled to, read off its last sample — the seed for
/// warm-starting the neighbouring grid point via [`run_scheme_warm`].
pub fn settled_length(run: &RunTrace) -> Option<i64> {
    run.samples().last().map(|s| s.lro.round() as i64)
}

/// Everything the sweep figures read off a post-warm-up run, reduced to
/// six floats so a grid point caches in one small record instead of a
/// multi-thousand-sample trace. Each statistic is computed by the *same*
/// fold as the `RunTrace` methods, so figures assembled from summaries are
/// bit-identical to figures assembled from traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// The set-point the run used.
    pub setpoint: f64,
    /// Recorded (post-warm-up) sample count.
    pub samples: u64,
    /// Mean generated period ([`RunTrace::mean_period`]).
    pub mean_period: f64,
    /// Needed safety margin ([`RunTrace::worst_negative_error`]).
    pub worst_negative_error: f64,
    /// Performance left on the table ([`RunTrace::worst_positive_error`]).
    pub worst_positive_error: f64,
    /// RO length at the last sample (NaN when the run is empty) — the
    /// warm-start seed.
    pub last_lro: f64,
}

impl RunSummary {
    /// Flat-record arity (the cache payload schema).
    pub const FIELDS: usize = 6;

    /// Summarize a run.
    pub fn of(run: &RunTrace) -> Self {
        RunSummary {
            setpoint: run.setpoint(),
            samples: run.len() as u64,
            mean_period: run.mean_period(),
            worst_negative_error: run.worst_negative_error(),
            worst_positive_error: run.worst_positive_error(),
            last_lro: run.samples().last().map_or(f64::NAN, |s| s.lro),
        }
    }

    /// The summary as a flat cache record.
    pub fn to_values(self) -> [f64; Self::FIELDS] {
        [
            self.setpoint,
            self.samples as f64,
            self.mean_period,
            self.worst_negative_error,
            self.worst_positive_error,
            self.last_lro,
        ]
    }

    /// Rebuild from [`RunSummary::to_values`]; `None` on any other arity.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        let [setpoint, samples, mean_period, worst_negative_error, worst_positive_error, last_lro] =
            *values
        else {
            return None;
        };
        Some(RunSummary {
            setpoint,
            samples: samples as u64,
            mean_period,
            worst_negative_error,
            worst_positive_error,
            last_lro,
        })
    }

    /// The minimal error-free margin, `max(0, max_n (c − τ[n]))`.
    pub fn required_margin(&self) -> f64 {
        self.worst_negative_error
    }

    /// Mean period once margined: `⟨T⟩ + m*` (cf.
    /// [`margin::adaptive_needed_period`]).
    pub fn needed_adaptive_period(&self) -> f64 {
        self.mean_period + self.worst_negative_error
    }

    /// Fixed-clock period needed for error-free operation (cf.
    /// [`margin::needed_fixed_period`]).
    pub fn needed_fixed_period(&self) -> f64 {
        self.setpoint + self.worst_negative_error
    }

    /// The paper's figure of merit against a fixed-clock baseline run (cf.
    /// [`margin::relative_adaptive_period`]).
    pub fn relative_to(&self, fixed: &RunSummary) -> f64 {
        self.needed_adaptive_period() / fixed.needed_fixed_period()
    }

    /// Figure of merit under an externally-imposed margin (the free RO's
    /// design margin in Fig. 9).
    pub fn relative_with_margin(&self, margin: f64, fixed: &RunSummary) -> f64 {
        (self.mean_period + margin) / fixed.needed_fixed_period()
    }

    /// The settled RO length, when the run recorded anything.
    pub fn settled_length(&self) -> Option<i64> {
        self.last_lro
            .is_finite()
            .then(|| self.last_lro.round() as i64)
    }
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

/// Probe `ctx.cache` for a standard run's summary: `Ready` on a hit,
/// `Compute` with the point's simulated-step budget (the scheduler's cost
/// hint) on a miss.
pub fn summary_probe(ctx: &RunCtx, scheme: &Scheme, point: OperatingPoint) -> Plan<RunSummary> {
    let key = summary_key(&ctx.params, scheme, point);
    match ctx
        .cache
        .get_f64s(key, RunSummary::FIELDS)
        .and_then(|v| RunSummary::from_values(&v))
    {
        Some(summary) => Plan::Ready(summary),
        None => Plan::Compute(ctx.params.samples_for(point.te_over_c) as u64),
    }
}

/// Run the point for real, summarize, and backfill the cache.
pub fn summary_compute(ctx: &RunCtx, scheme: &Scheme, point: OperatingPoint) -> RunSummary {
    let run = run_scheme(ctx, scheme.clone(), point);
    let summary = RunSummary::of(&run);
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
    let adaptive = run_scheme(ctx, scheme, point);
    let fixed = run_scheme(&ctx.unobserved(), Scheme::Fixed, point);
    margin::relative_adaptive_period(&adaptive, &fixed)
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
        let m = clock_metrics::margin::required_margin(&run);
        // Fixed clock is fully exposed: needs the whole 0.2c = 12.8 plus
        // the TDC floor quantization (≤ 1 stage).
        assert!((m - 12.8).abs() < 1.2, "fixed margin {m}");
    }

    #[test]
    fn warm_run_reproduces_cold_statistics_with_quarter_warmup() {
        let ctx = RunCtx::new(PaperParams::default());
        let point = OperatingPoint::new(1.0, 50.0);
        let cold = run_scheme(&ctx, Scheme::iir_paper(), point);
        let seed = settled_length(&cold).expect("cold run has samples");
        let warm = run_scheme_warm(
            &ctx,
            Scheme::iir_paper(),
            point,
            Some(seed),
            ctx.params.warmup / 4,
        );
        assert_eq!(warm.len(), cold.len(), "window length must be preserved");
        assert!(
            (warm.mean_period() - cold.mean_period()).abs() < 0.5,
            "warm mean {} vs cold {}",
            warm.mean_period(),
            cold.mean_period()
        );
        let dm = (margin::required_margin(&warm) - margin::required_margin(&cold)).abs();
        assert!(dm < 1.5, "margins differ by {dm}");
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
