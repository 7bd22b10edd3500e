//! Shared machinery for running scheme comparisons at one operating point:
//! the [`RunCtx`] every experiment threads through its pipeline, the
//! compact per-run summary the result cache stores instead of the full
//! trace, `cached_map` (the one probe, compute and write-back protocol
//! of every cached grid), and the declarative [`SweepSpec`] pipeline
//! Fig.-8-style panels are built from.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

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
use crate::sweep::{parallel_map, CancelToken, SweepPanics};

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
    /// Cooperative cancellation token (never fires by default), checked
    /// by `cached_map` before each cached task's probe and by the sweep
    /// before each item it computes. The experiment service arms this with
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

    /// Attach a cancellation token. `cached_map` checks it before each
    /// task's probe and the sweep before each item it computes, so a fired
    /// token stops a cached grid, fig2 or ext-stability within one item's
    /// wall time. ext-lock, worked-examples and constraints take no
    /// context and run to their end.
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
pub(crate) fn summarize_scheme(ctx: &RunCtx, scheme: Scheme, point: OperatingPoint) -> RunSummary {
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

/// The summaries of `scheme` at `point` for every μ of `mus`, each
/// bit-identical to a run of that μ alone. An open-loop scheme
/// ([`Scheme::is_open_loop`]) makes one shared run for all of them
/// ([`System::run_offsets`]); a closed-loop one runs each μ.
pub(crate) fn summaries_compute(
    ctx: &RunCtx,
    scheme: &Scheme,
    point: OperatingPoint,
    mus: &[f64],
) -> Vec<RunSummary> {
    if scheme.is_open_loop() {
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
    }
}

/// How one kind of cached record travels through [`SweepCache`] as a flat
/// `f64` payload.
pub(crate) struct Codec<T, R> {
    /// The payload length, or `None` when it depends on the data. A record
    /// of any other length is a miss, and the recompute overwrites it.
    pub arity: Option<usize>,
    /// The payload of a record.
    pub encode: fn(&R) -> Vec<f64>,
    /// The record a payload of the right length holds for a task.
    pub decode: fn(&T, Vec<f64>) -> R,
}

impl<T> Codec<T, f64> {
    /// One `f64` per record.
    pub const SCALAR: Self = Codec {
        arity: Some(1),
        encode: |&y| vec![y],
        decode: |_, v| v[0],
    };
}

impl<T> Codec<T, RunSummary> {
    /// One [`RunSummary`] per record, in its `to_values` layout.
    pub const SUMMARY: Self = Codec {
        arity: Some(RunSummary::FIELDS),
        encode: |s| s.to_values().to_vec(),
        decode: |_, v| RunSummary::from_values(&v).expect("the arity is checked"),
    };
}

/// Map `compute` over `tasks` through `ctx.cache`: the one probe, compute
/// and write-back protocol of every cached grid.
///
/// A task owns the records `keys(task)` names. The probe, on the calling
/// thread under the `sweep.probe` span, looks up every key of every task
/// (no short-circuit, so the cache's hit and miss counts stay per record)
/// and settles a task only when all of its keys hit. The tasks it missed
/// go to [`parallel_map`] with the cost hint `cost(task)`;
/// `compute(task)` returns one record per key, and every key is written
/// back. `ctx.cancel` is checked before each probe and, by the sweep,
/// before each compute, so a fired token unwinds with
/// [`SweepCancelled`](crate::sweep::SweepCancelled) within one task. A
/// compute that panics is contained as the sweep contains it, and the
/// [`SweepPanics`] payload names it by its index in `tasks`.
///
/// Returns the records of every task, in task order and then key order.
pub(crate) fn cached_map<T, R>(
    ctx: &RunCtx,
    tasks: &[T],
    codec: Codec<T, R>,
    keys: impl Fn(&T) -> Vec<Key> + Sync,
    cost: impl Fn(&T) -> u64,
    compute: impl Fn(&T) -> Vec<R> + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let mut records: Vec<Option<Vec<R>>> = Vec::with_capacity(tasks.len());
    let mut missed: Vec<usize> = Vec::new();
    {
        let mut probe_scope = ctx.telemetry.scope("sweep.probe");
        for (i, task) in tasks.iter().enumerate() {
            ctx.cancel.check();
            let hits: Vec<Option<R>> = keys(task)
                .into_iter()
                .map(|key| {
                    match codec.arity {
                        Some(n) => ctx.cache.get_f64s(key, n),
                        None => ctx.cache.get_f64s_any(key),
                    }
                    .map(|values| (codec.decode)(task, values))
                })
                .collect();
            let settled: Option<Vec<R>> = hits.into_iter().collect();
            if settled.is_none() {
                missed.push(i);
            }
            records.push(settled);
        }
        probe_scope.attr("items", tasks.len());
        probe_scope.attr("ready", tasks.len() - missed.len());
    }
    let run = |&i: &usize| {
        let task = &tasks[i];
        let records = compute(task);
        let keys = keys(task);
        assert_eq!(records.len(), keys.len(), "one record per cache key");
        for (key, record) in keys.into_iter().zip(&records) {
            ctx.cache.put_f64s(key, &(codec.encode)(record));
        }
        records
    };
    let cost = |&i: &usize| cost(&tasks[i]);
    let sweep = || parallel_map(&missed, cost, run, &ctx.telemetry, &ctx.cancel);
    // The sweep numbers a failed item among the misses; name its task.
    let computed = match catch_unwind(AssertUnwindSafe(sweep)) {
        Ok(computed) => computed,
        Err(payload) => match payload.downcast::<SweepPanics>() {
            Ok(mut panics) => {
                for (i, _) in &mut panics.items {
                    *i = missed[*i];
                }
                resume_unwind(panics)
            }
            Err(payload) => resume_unwind(payload),
        },
    };
    for (i, task_records) in missed.into_iter().zip(computed) {
        records[i] = Some(task_records);
    }
    records.into_iter().flatten().flatten().collect()
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
        cached_map(
            ctx,
            &tasks,
            Codec::SUMMARY,
            |&(row, x)| vec![summary_key(&ctx.params, lineup[row].1, (spec.point_at)(x))],
            |&(_, x)| ctx.params.samples_for((spec.point_at)(x).te_over_c) as u64,
            |&(row, x)| {
                let (run_ctx, scheme) = lineup[row];
                vec![summarize_scheme(
                    run_ctx,
                    scheme.clone(),
                    (spec.point_at)(x),
                )]
            },
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
    use crate::sweep::{CancelReason, SweepCancelled};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

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
            .map(|&x| summarize_scheme(&ctx.unobserved(), Scheme::Fixed, (spec.point_at)(x)))
            .collect();
        assert_eq!(swept.series.len(), spec.schemes.len());
        for (series, scheme) in swept.series.iter().zip(&spec.schemes) {
            assert_eq!(series.label, scheme.label());
            assert_eq!(series.x, spec.grid);
            for ((&x, &y), baseline) in series.x.iter().zip(&series.y).zip(&fixed) {
                let direct = summarize_scheme(&ctx, scheme.clone(), (spec.point_at)(x))
                    .relative_to(baseline);
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

    /// Key `k` of toy task `task`.
    fn toy_key(task: u64, k: u64) -> Key {
        crate::cache::key("toy")
            .u64("task", task)
            .u64("k", k)
            .finish()
    }

    /// Toy task `t` owns `t + 1` keys and computes `10 t + k` for key `k`;
    /// `calls` counts the computes.
    fn toy_map(ctx: &RunCtx, tasks: &[u64], calls: &AtomicUsize) -> Vec<f64> {
        cached_map(
            ctx,
            tasks,
            Codec::SCALAR,
            |&t| (0..=t).map(|k| toy_key(t, k)).collect(),
            |&t| t + 1,
            |&t| {
                calls.fetch_add(1, Ordering::Relaxed);
                (0..=t).map(|k| (10 * t + k) as f64).collect()
            },
        )
    }

    /// A context on a fresh in-memory cache, and the cache's telemetry.
    fn memory_ctx() -> (RunCtx, SweepCache, Telemetry) {
        let telemetry = Telemetry::enabled();
        let cache = SweepCache::in_memory(&telemetry);
        let ctx = RunCtx::new(PaperParams::default()).with_cache(cache.clone());
        (ctx, cache, telemetry)
    }

    /// A cache's `(cache.hits, cache.misses)` counters.
    fn counts(telemetry: &Telemetry) -> (u64, u64) {
        let snap = telemetry.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        (count("cache.hits"), count("cache.misses"))
    }

    #[test]
    fn cached_map_settles_an_all_hit_task_without_computing() {
        let (ctx, cache, telemetry) = memory_ctx();
        for k in 0..3 {
            cache.put_f64s(toy_key(2, k), &[-(k as f64)]);
        }
        let calls = AtomicUsize::new(0);
        assert_eq!(toy_map(&ctx, &[2], &calls), [0.0, -1.0, -2.0]);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(counts(&telemetry), (3, 0));
    }

    /// One stale key of three: the task computes, every key is rewritten,
    /// and each of the six keys of three tasks is probed exactly once.
    #[test]
    fn cached_map_recomputes_a_partly_hit_task_and_rewrites_every_key() {
        let (ctx, cache, telemetry) = memory_ctx();
        cache.put_f64s(toy_key(2, 1), &[99.0]);
        cache.put_f64s(toy_key(0, 0), &[7.0]);
        let calls = AtomicUsize::new(0);
        let records = toy_map(&ctx, &[0, 1, 2], &calls);
        assert_eq!(records, [7.0, 10.0, 11.0, 20.0, 21.0, 22.0]);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "tasks 1 and 2 compute");
        let (hits, misses) = counts(&telemetry);
        assert_eq!((hits, misses), (2, 4));
        assert_eq!(hits + misses, 6, "one probe per key");
        for (t, k, want) in [
            (1, 0, 10.0),
            (1, 1, 11.0),
            (2, 0, 20.0),
            (2, 1, 21.0),
            (2, 2, 22.0),
        ] {
            assert_eq!(cache.get_f64s(toy_key(t, k), 1), Some(vec![want]));
        }
    }

    #[test]
    fn cached_map_counts_a_wrong_arity_record_as_a_miss_and_overwrites_it() {
        let (ctx, cache, telemetry) = memory_ctx();
        cache.put_f64s(toy_key(0, 0), &[1.0, 2.0]);
        let calls = AtomicUsize::new(0);
        assert_eq!(toy_map(&ctx, &[0], &calls), [0.0]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(counts(&telemetry), (0, 1));
        let stats = ctx.cache.stats().expect("an in-memory store");
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "the store counts the same miss"
        );
        assert_eq!(cache.get_f64s(toy_key(0, 0), 1), Some(vec![0.0]));
    }

    /// A panicking compute is contained, and the payload names the task by
    /// its index in the grid, not by its place among the probe's misses.
    #[test]
    fn cached_map_names_a_panicking_task_by_its_grid_index() {
        let (ctx, cache, _) = memory_ctx();
        cache.put_f64s(toy_key(0, 0), &[7.0]);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cached_map(
                &ctx,
                &[0u64, 1, 2],
                Codec::SCALAR,
                |&t| vec![toy_key(t, 0)],
                |_| 1,
                |&t| {
                    assert_ne!(t, 2, "task 2 fails");
                    vec![t as f64]
                },
            )
        }))
        .expect_err("a panicking task must re-panic");
        let panics = payload
            .downcast_ref::<SweepPanics>()
            .expect("payload must be SweepPanics");
        let failed: Vec<usize> = panics.items.iter().map(|&(i, _)| i).collect();
        assert_eq!(failed, [2]);
        assert_eq!(cache.get_f64s(toy_key(1, 0), 1), Some(vec![1.0]));
    }

    /// A fired token stops a task at its probe, even one the cache would
    /// settle, and a token that fires after the probe stops the task
    /// before its compute; nothing is computed or written either way.
    #[test]
    fn cached_map_checks_the_token_before_each_probe_and_compute() {
        for fired_before_probe in [true, false] {
            let (ctx, cache, telemetry) = memory_ctx();
            if fired_before_probe {
                cache.put_f64s(toy_key(0, 0), &[5.0]);
            }
            let written = telemetry.snapshot().counter("cache.bytes_written");
            let flag = Arc::new(AtomicBool::new(fired_before_probe));
            let ctx = ctx.with_cancel(CancelToken::new(Arc::clone(&flag), None));
            let calls = AtomicUsize::new(0);
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                cached_map(
                    &ctx,
                    &[0u64],
                    Codec::SCALAR,
                    |&t| vec![toy_key(t, 0)],
                    |_| {
                        flag.store(true, Ordering::Relaxed);
                        1
                    },
                    |_| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        vec![1.0]
                    },
                )
            }))
            .expect_err("a fired token unwinds");
            assert_eq!(
                payload.downcast_ref::<SweepCancelled>(),
                Some(&SweepCancelled(CancelReason::Cancelled))
            );
            assert_eq!(calls.load(Ordering::Relaxed), 0);
            let probed = if fired_before_probe { (0, 0) } else { (0, 1) };
            assert_eq!(counts(&telemetry), probed);
            let snap = telemetry.snapshot();
            assert_eq!(snap.counter("cache.bytes_written"), written);
        }
    }

    #[test]
    fn relative_period_sane_at_friendly_point() {
        let ctx = RunCtx::new(PaperParams::default());
        let r = relative_period(&ctx, Scheme::iir_paper(), OperatingPoint::new(1.0, 50.0));
        assert!(r > 0.7 && r < 1.1, "relative period {r}");
    }
}
