//! Machine-readable performance benchmarks for the simulation engines.
//!
//! [`run`] times one table of cases, each reported as steps/second and
//! wall milliseconds; a case that names a `baseline` row also reports its
//! speedup over it:
//!
//! - **batched vs sequential discrete loops** (`loop-*`, `lanes-*`) — a
//!   bank of Fig. 4 recurrences advanced one [`DiscreteLoop`] at a time
//!   versus all lanes through the blocked [`BatchLoop`] engine, at
//!   B ∈ {16 (the `loop-*` bank), 4, 16, 64, 256} lanes, plus the
//!   same bank in 16-lane ranges over the sweep worker pool at 64+ lanes;
//! - **cold vs warm result cache** (`fig9-*`) — a Fig. 9 panel through
//!   [`fig9::run_panel`] with a [`RunCtx`] cache attached, against an
//!   empty and a fully-populated on-disk store;
//! - **FIFO vs longest-job-first dispatch** (`sweep-*`) — a synthetic
//!   sweep with a few heavy items parked at the end of the grid;
//! - **traced vs traceless** (`summaries-*`, `mc-panel-*`) — the blocked
//!   engine into a [`SummarySink`] against the recycled trace on the same
//!   bank, and the traceless [`McPanel`] against one `System` event-loop
//!   run per sampled instance (the `runner::run_scheme` shape);
//! - **domain-bank scaling** (`domains-*`) — N uniform IIR clock domains
//!   at N ∈ {16, 64, 256}: one `DiscreteLoop` per domain versus the same
//!   domains as one bank behind the traceless summary path;
//! - **telemetry cost** (`telemetry-*`) — one Fig. 7 operating point run
//!   with an enabled [`Telemetry`] handle against a disabled one.
//!
//! Adding a case is adding one row to [`run`]'s table. `repro bench --json
//! BENCH.json` writes the whole report as JSON, so CI and the committed
//! `BENCH_*.json` trajectory files can track the numbers across revisions.

use std::fmt;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use adaptive_clock::batch::{BatchLoop, BatchTrace, SummarySink, TraceSink};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::system::{Scheme as SystemScheme, SystemBuilder};
use adaptive_clock::tdc::Quantization;
use clock_telemetry::Telemetry;
use variation::process::ProcessSpec;
use variation::sources::Harmonic;

use crate::cache::SweepCache;
use crate::config::PaperParams;
use crate::fig9;
use crate::montecarlo::{McPanel, Scheme as McScheme};
use crate::render::Table;
use crate::runner::{run_scheme, OperatingPoint, RunCtx, RunSummary};
use crate::sweep::{lane_ranges, parallel_map, CancelToken};

/// One timed benchmark case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Case id (`"loop-batched"`, `"fig9-warm-cache"`, …).
    pub name: String,
    /// What was run, in words.
    pub detail: String,
    /// Simulated steps (or samples) the timing covers.
    pub steps: u64,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// `steps / wall seconds`.
    pub steps_per_sec: f64,
    /// Name of the baseline entry this one is compared against.
    pub baseline: Option<String>,
    /// `baseline wall_ms / this wall_ms` (> 1 means this case is faster).
    pub speedup: Option<f64>,
}

/// A full benchmark run. The `workers`/`engine_rev`/`git_rev` fields make
/// a written `BENCH_*.json` self-describing for [`compare`]: a baseline
/// taken on different hardware or a different engine generation is still
/// loadable, and the header shows what it was taken against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// True when the reduced `--quick` workloads were used (CI smoke mode).
    pub quick: bool,
    /// Set-point the workloads were built for.
    pub setpoint: i64,
    /// Sweep worker pool size when the report was taken.
    pub workers: u64,
    /// The engine fingerprint (crate version + `ENGINE_REV`s) the numbers
    /// belong to.
    pub engine_rev: String,
    /// Short git revision of the working tree, when git was available.
    pub git_rev: Option<String>,
    /// The timed cases.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Look up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Serialize to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (practically unreachable for these
    /// plain-data types).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a report back from [`BenchReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Load a report from a JSON file (a committed `BENCH_*.json`).
    ///
    /// # Errors
    ///
    /// Returns a readable message for an unreadable file or a bad payload.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }
}

/// Short git revision of the working tree, when a git binary and repo are
/// reachable from the current directory.
pub fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_owned();
    (!rev.is_empty()).then_some(rev)
}

/// One lane of a benchmark bank: CDN depth `M`, controller, quantization.
type Spec = (usize, Controller, Quantization);

/// Lane `k` of a mixed-scheme bank at CDN depth `m`: the integer IIR,
/// float IIR, TEAtime and free controllers cycle with `k`.
fn lane(c: i64, k: usize, m: usize) -> Spec {
    let iir = IirConfig::paper();
    let (ctrl, q) = match k % 4 {
        0 => (Controller::int_iir(&iir, c), Quantization::Floor),
        1 => (Controller::float_iir(&iir, c as f64), Quantization::None),
        2 => (Ok(Controller::teatime(c, 1.0)), Quantization::Floor),
        _ => (Ok(Controller::free(c)), Quantization::Floor),
    };
    (m, ctrl.expect("paper config"), q)
}

/// The `loop-*` bank: the four controllers at each CDN depth `M = 0, 1, 2, 0`.
fn lane_specs(c: i64) -> Vec<Spec> {
    (0..16).map(|k| lane(c, k, k / 4 % 3)).collect()
}

/// The mixed bank over a lane range at depth `M = k mod 3`, so a dispatcher
/// chunk can rebuild exactly its share of the bank.
fn scaling_specs(c: i64, lanes: Range<usize>) -> Vec<Spec> {
    lanes.map(|k| lane(c, k, k % 3)).collect()
}

/// Wall milliseconds of `f`, its result dropped inside the timing.
fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Repetitions per row, the least disturbed reported: best-of-7 missed the
/// minimum of memory-heavy rows, whose per-rep spread is right-skewed.
const REPS: usize = 15;

/// One timed repetition of a row, returning its wall milliseconds.
type Rep<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// One row of the bench table. `setup` builds the row's bank, inputs or
/// cache directory just before the row is timed and returns its timed
/// repetition; `baseline` names the earlier row its speedup is taken over.
struct Row<'a> {
    name: String,
    baseline: Option<String>,
    detail: String,
    steps: u64,
    setup: Box<dyn FnOnce() -> Rep<'a> + 'a>,
}

impl<'a> Row<'a> {
    fn new(name: &str, detail: &str, steps: u64, setup: impl FnOnce() -> Rep<'a> + 'a) -> Self {
        Row {
            name: name.to_owned(),
            baseline: None,
            detail: detail.to_owned(),
            steps,
            setup: Box::new(setup),
        }
    }

    /// Take this row's speedup over the earlier row `baseline`.
    fn against(mut self, baseline: &str) -> Self {
        self.baseline = Some(baseline.to_owned());
        self
    }
}

fn best_ms(reps: usize, mut run_once: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| run_once()).fold(f64::INFINITY, f64::min)
}

/// A repetition that times `f` and nothing else.
fn timed<'a, T>(mut f: impl FnMut() -> T + 'a) -> Rep<'a> {
    Box::new(move || time_ms(&mut f))
}

/// The lanes of `specs()` run one [`DiscreteLoop`] at a time, the specs
/// built inside the timing as a per-loop caller builds them.
fn sequential<'a>(specs: impl Fn() -> Vec<Spec> + 'a, input: LoopInputs<'a>, n: usize) -> Rep<'a> {
    timed(move || {
        for (m, ctrl, q) in specs() {
            black_box(DiscreteLoop::new(m, ctrl, q).run(&input, n));
        }
    })
}

/// Where a [`blocked`] bank's periods go.
enum Drain {
    Trace,
    TraceSummarized,
    Summary,
}

/// The lanes of `specs` as one [`BatchLoop`], `reset` before each rep.
/// Traces are recycled between reps (`TraceSink::recycling`), as the heap
/// already reuses the sequential baselines' per-lane allocations: a fresh
/// multi-MB trace per rep would time the allocator's page faults.
fn blocked<'a>(specs: Vec<Spec>, input: LoopInputs<'a>, n: usize, drain: Drain) -> Rep<'a> {
    let inputs = vec![input; specs.len()];
    let mut bank = BatchLoop::new();
    for (m, ctrl, q) in specs {
        bank.push(m, ctrl, q);
    }
    let mut spare = BatchTrace::default();
    Box::new(move || {
        bank.reset();
        if matches!(drain, Drain::Summary) {
            return time_ms(|| bank.run(&inputs, n, SummarySink::default()));
        }
        let mut out = BatchTrace::default();
        let sink = TraceSink::recycling(std::mem::take(&mut spare));
        let ms = time_ms(|| {
            out = bank.run(&inputs, n, sink);
            if matches!(drain, Drain::TraceSummarized) {
                black_box(out.summarize(&inputs));
            }
            black_box(&out);
        });
        spare = out;
        ms
    })
}

/// Run the full benchmark suite. `quick` shrinks every workload by roughly
/// an order of magnitude for CI smoke runs; the comparisons stay the same.
pub fn run(params: &PaperParams, quick: bool) -> BenchReport {
    let pick = |quick_size: usize, full_size: usize| if quick { quick_size } else { full_size };
    let (c, workers) = (params.setpoint, crate::sweep::pool_size());
    let off = &Telemetry::disabled();
    let never = &CancelToken::never();
    let (cs, zero) = (&constant(c as f64), &constant(0.0));
    let amp = params.amplitude();
    let e_fn = &move |n: i64| amp * (std::f64::consts::TAU * n as f64 / 37.5).sin();
    // Every lane shares the input closures, as sweep workloads do, so the
    // blocked engine's closure deduplication is exercised at every width.
    let shared = move || LoopInputs {
        setpoint: cs,
        homogeneous: e_fn,
        heterogeneous: zero,
    };
    let input = shared();
    // What the rows borrow is declared before the table, so it outlives it.
    let pid = std::process::id();
    let cache_root = &std::env::temp_dir().join(format!("repro-bench-cache-{pid}"));
    let heavy = pick(1_000_000, 4_000_000) as u64;
    let light = heavy / 16;
    let costs = &[vec![light; 44], vec![heavy; 4]].concat();
    let panel = &McPanel {
        spec: ProcessSpec::paper(),
        seed: 0x0BE5_0BE5,
        instances: pick(256, 1024),
        steps: 2_000,
        warmup: 500,
        chunk: 128,
        sensors: 4,
        setpoint: c,
        m: 1,
        amplitude: params.amplitude(),
        te_periods: 200.0,
    };
    let mut rows = Vec::new();

    let n = pick(20_000, 200_000);
    let (steps, what) = (16 * n as u64, format!("16 Fig. 4 lanes x {n} periods"));
    let detail = format!("{what}, one DiscreteLoop at a time");
    let setup = move || sequential(move || lane_specs(c), input, n);
    rows.push(Row::new("loop-sequential", &detail, steps, setup));
    let setup = move || blocked(lane_specs(c), input, n, Drain::Trace);
    let detail = format!("{what} in SoA lock-step");
    rows.push(Row::new("loop-batched", &detail, steps, setup).against("loop-sequential"));

    // A Fig. 9 panel through the result cache: every grid point a miss (a
    // fresh cold store per rep) vs every point a hit (a store populated
    // once, reopened per rep so hits pay the disk read + decode).
    let (t_clk, te, points) = (1.0, 37.5, pick(5, 9));
    let open = move |dir: &std::path::Path| {
        let cache = SweepCache::persistent(dir, off).expect("temp cache dir");
        RunCtx::new(*params).with_cache(cache)
    };
    let fig9_panel = move |ctx: &RunCtx| fig9::run_panel(ctx, t_clk, te, points);
    let steps = 4 * points as u64 * params.samples_for(te) as u64;
    let detail = format!(
        "Fig. 9 panel (t_clk = {t_clk}c, Te = {te}c, {points} mu points) \
         against an empty result cache (every point computes + writes)"
    );
    let mut rep = 0u32;
    let setup = move || -> Rep<'_> {
        Box::new(move || {
            rep += 1;
            let dir = cache_root.join(format!("cold-{rep}"));
            let ctx = open(&dir);
            let ms = time_ms(|| fig9_panel(&ctx));
            let _ = std::fs::remove_dir_all(&dir);
            ms
        })
    };
    rows.push(Row::new("fig9-cold-cache", &detail, steps, setup));
    let detail = "same panel against the populated cache (every point a hit)";
    let setup = move || -> Rep<'_> {
        let dir = cache_root.join("warm");
        black_box(fig9_panel(&open(&dir)));
        Box::new(move || {
            let ctx = open(&dir);
            time_ms(|| fig9_panel(&ctx))
        })
    };
    rows.push(Row::new("fig9-warm-cache", detail, steps, setup).against("fig9-cold-cache"));

    // Dispatch policy on an unbalanced sweep: the heavy items are parked at
    // the *end* of the grid, where submission-order (FIFO) dispatch strands
    // them on a late worker while longest-job-first starts them at once.
    let spin = |&iters: &u64| black_box((0..iters).fold(0f64, |acc, k| acc + (k as f64).sqrt()));
    let steps = costs.iter().sum();
    let detail = format!(
        "48-item sweep, 4 heavy tail items ({heavy} vs {light} spin iterations), \
         submission-order dispatch, {workers} workers"
    );
    // A uniform cost hint lets the stable sort keep the submission order
    // intact: chunked FIFO.
    let setup = move || timed(move || parallel_map(costs, |_| 1, spin, off, never));
    rows.push(Row::new("sweep-fifo", &detail, steps, setup));
    let detail = format!(
        "same sweep, longest-job-first dispatch from per-item cost hints, {workers} workers"
    );
    let setup = move || timed(move || parallel_map(costs, |&it| it, spin, off, never));
    rows.push(Row::new("sweep-ljf", &detail, steps, setup).against("sweep-fifo"));

    // Lane-count scaling on the mixed-scheme bank, and at 64+ lanes the
    // same bank in 16-lane chunks over the sweep worker pool. The chunked
    // row has no baseline on purpose: its ratio to the one-thread engine
    // depends on the host's core count, so a gate on it would compare
    // machines, not code.
    let n = pick(2_000, 25_000);
    for b in [4usize, 16, 64, 256] {
        let (seq, steps) = (format!("lanes-{b:03}-sequential"), (b * n) as u64);
        let detail = format!("{b} mixed-scheme lanes x {n} periods, one DiscreteLoop at a time");
        let setup = move || sequential(move || scaling_specs(c, 0..b), input, n);
        rows.push(Row::new(&seq, &detail, steps, setup));
        let detail = format!("{b} lanes x {n} periods on the blocked lane-block engine");
        let setup = move || blocked(scaling_specs(c, 0..b), input, n, Drain::Trace);
        rows.push(Row::new(&format!("lanes-{b:03}-blocked"), &detail, steps, setup).against(&seq));
        if b >= 64 {
            let detail = format!(
                "{b} lanes x {n} periods, blocked engine in 16-lane chunks across {workers} workers"
            );
            let chunk = move |lanes: &Range<usize>| {
                let inputs: Vec<_> = lanes.clone().map(|_| shared()).collect();
                let mut part = BatchLoop::new();
                for (m, ctrl, q) in scaling_specs(c, lanes.clone()) {
                    part.push(m, ctrl, q);
                }
                part.run(&inputs, n, TraceSink::default())
            };
            let width = |r: &Range<usize>| r.len() as u64;
            let chunks = move || parallel_map(&lane_ranges(b, 16), width, chunk, off, never);
            let setup = move || timed(move || BatchTrace::concat(&chunks()));
            let dispatch = format!("lanes-{b:03}-dispatch");
            rows.push(Row::new(&dispatch, &detail, steps, setup));
        }
    }

    // The traceless summary path against the traced one on the same bank.
    // Quick keeps the horizon long enough that the trace still streams
    // past cache; a cache-resident trace would compress the ratio.
    let n = pick(6_000, 12_000);
    let steps = 256 * n as u64;
    let detail = format!(
        "256 mixed-scheme lanes x {n} periods through the blocked engine, \
         trace recycled between reps, then summarized"
    );
    let setup = move || blocked(scaling_specs(c, 0..256), input, n, Drain::TraceSummarized);
    rows.push(Row::new("summaries-traced", &detail, steps, setup));
    let detail = "same bank into a summary sink: blocks fold straight into 6-word \
                  lane summaries, no trace ever materialized";
    let setup = move || blocked(scaling_specs(c, 0..256), input, n, Drain::Summary);
    rows.push(Row::new("summaries-traceless", detail, steps, setup).against("summaries-traced"));

    // The Monte Carlo panel: sampled process instances, margins folded over
    // the post-lock-in window, against one `System` event-loop run per
    // instance (the `runner::run_scheme` shape). The free-running panel is
    // the headline because its controller arithmetic is negligible on
    // *both* sides, so the ratio isolates the engine. Quick trims
    // instances, not steps: per-run setup amortizes over the horizon.
    let (instances, periods) = (panel.instances, panel.steps);
    let steps = (instances * periods) as u64;
    let detail = format!(
        "{instances}-instance Monte Carlo margin panel x {periods} periods, one scalar \
         System event-loop run per instance (the pre-batch per-point harness), \
         trace materialized then summarized"
    );
    let setup = move || {
        let offsets = panel.sensed_offsets();
        let wave = Harmonic::new(panel.amplitude, panel.te_periods * c as f64, 0.0);
        timed(move || {
            for &o in &offsets {
                let run = SystemBuilder::new(c)
                    .cdn_delay(c as f64)
                    .scheme(SystemScheme::FreeRo { extra_length: 0 })
                    .single_sensor_mu(o)
                    .build()
                    .expect("bench system configuration is valid")
                    .run(&wave, periods);
                black_box(RunSummary::of(&run.skip(panel.warmup)));
            }
        })
    };
    rows.push(Row::new("mc-panel-naive", &detail, steps, setup));
    let detail = "same panel through McPanel::summaries: instances batched into \
                  128-lane chunks on the traceless static-mu block path";
    let setup = move || timed(move || panel.summaries(McScheme::Free, off));
    rows.push(Row::new("mc-panel-traceless", detail, steps, setup).against("mc-panel-naive"));

    // Domain-bank scaling: N uniform IIR domains as N DiscreteLoops (one
    // loop object per domain, each with its own trace) vs one bank through
    // the traceless summary path, the shape the mesh and yield layers build.
    let n = pick(2_000, 25_000);
    for d in [16usize, 64, 256] {
        let (per, steps) = (format!("domains-{d:03}-perloop"), (d * n) as u64);
        let uniform = move || (0..d).map(|_| lane(c, 0, 1)).collect::<Vec<_>>();
        let detail = format!(
            "{d} uniform IIR domains x {n} periods, one DiscreteLoop \
             object per domain, each trace materialized"
        );
        let setup = move || sequential(uniform, input, n);
        rows.push(Row::new(&per, &detail, steps, setup));
        let detail = format!(
            "{d} domains x {n} periods as one DomainBank through the traceless summary path"
        );
        let setup = move || blocked(uniform(), input, n, Drain::Summary);
        rows.push(Row::new(&format!("domains-{d:03}-bank"), &detail, steps, setup).against(&per));
    }

    // Telemetry cost on one Fig. 7 point (IIR, t_clk = c, Te = 37.5c): the
    // point with an enabled handle against the same point with a disabled
    // one. The speedup is enabled wall over disabled wall, so a disabled
    // handle that cost more than an enabled one would read below 1.
    let point = OperatingPoint::new(1.0, 37.5);
    let steps = params.samples_for(point.te_over_c) as u64;
    let fig7_point = move |telemetry: Telemetry| {
        let ctx = RunCtx::new(*params).with_telemetry(telemetry);
        timed(move || run_scheme(&ctx, SystemScheme::iir_paper(), point))
    };
    let detail = "Fig. 7 point (IIR, t_clk = c, Te = 37.5c), telemetry enabled";
    let setup = move || fig7_point(Telemetry::enabled());
    rows.push(Row::new("telemetry-enabled", detail, steps, setup));
    let detail = "same point, telemetry disabled";
    let setup = move || fig7_point(Telemetry::disabled());
    rows.push(Row::new("telemetry-disabled", detail, steps, setup).against("telemetry-enabled"));

    // One loop times every row; a speedup is its baseline's wall over its own.
    let mut entries: Vec<BenchEntry> = Vec::with_capacity(rows.len());
    for r in rows {
        let wall_ms = best_ms(REPS, (r.setup)());
        let base = entries
            .iter()
            .find(|e| Some(&e.name) == r.baseline.as_ref());
        entries.push(BenchEntry {
            name: r.name,
            detail: r.detail,
            steps: r.steps,
            wall_ms,
            steps_per_sec: r.steps as f64 / (wall_ms / 1e3).max(1e-12),
            baseline: r.baseline,
            speedup: base.map(|b| b.wall_ms / wall_ms.max(1e-12)),
        });
    }
    let _ = std::fs::remove_dir_all(cache_root);
    BenchReport {
        quick,
        setpoint: params.setpoint,
        workers: workers as u64,
        engine_rev: crate::cache::engine_fingerprint(),
        git_rev: git_revision(),
        entries,
    }
}

/// One benchmark case matched between a current run and a stored baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareEntry {
    /// Case name (`BenchEntry::name`).
    pub name: String,
    /// Speedup recorded in the baseline report.
    pub baseline_speedup: f64,
    /// Speedup measured now.
    pub current_speedup: f64,
    /// Relative change: `(current - baseline) / baseline`. Negative means
    /// the optimisation bought less than it used to.
    pub delta_frac: f64,
    /// True when the loss exceeds the noise threshold.
    pub regressed: bool,
}

/// Outcome of [`compare`]: per-entry deltas plus bookkeeping on cases that
/// could not be matched up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Noise threshold the verdicts were computed with.
    pub noise: f64,
    /// Matched cases, in baseline order.
    pub entries: Vec<CompareEntry>,
    /// Baseline cases with a speedup that the current run does not have.
    pub missing: Vec<String>,
}

impl CompareReport {
    /// True when any matched entry regressed or a baseline case vanished.
    pub fn regressed(&self) -> bool {
        !self.missing.is_empty() || self.entries.iter().any(|e| e.regressed)
    }
}

/// Default relative-loss threshold below which a speedup change is treated
/// as timer noise. Calibrated against quick-vs-full runs of the committed
/// workloads, whose speedup ratios wander by roughly ±8%; 25% keeps a wide
/// guard band on loaded CI machines while still catching a pairing whose
/// optimisation genuinely stopped working.
pub const DEFAULT_COMPARE_NOISE: f64 = 0.25;

/// Why [`compare`] refused to compare two reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompareError {
    /// The baseline was taken with a different sweep worker pool than the
    /// current run. The parallel cases (dispatch policy, lane chunks)
    /// scale with the pool, so their speedups would compare machines, not
    /// code.
    WorkerMismatch {
        /// Worker pool size recorded in the baseline.
        baseline: u64,
        /// Worker pool size of the current run.
        current: u64,
    },
    /// One report ran the `--quick` workloads and the other the full ones.
    /// Quick runs shrink the workloads, and the parallel cases' ratios
    /// shrink with them (a quick sweep is over before the helper threads
    /// have all started), so the speedups would compare workload sizes.
    ModeMismatch {
        /// `quick` flag of the baseline.
        baseline: bool,
        /// `quick` flag of the current run.
        current: bool,
    },
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::WorkerMismatch { baseline, current } => write!(
                f,
                "baseline was taken with {baseline} sweep workers but this run used \
                 {current}; rerun with --threads {baseline} to compare"
            ),
            CompareError::ModeMismatch { baseline, current } => {
                let mode = |quick: bool| if quick { "--quick" } else { "full" };
                write!(
                    f,
                    "baseline is a {} bench but this run is {}; compare like with like",
                    mode(*baseline),
                    mode(*current)
                )
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Whether a run in mode `quick` on a pool of `workers` sweep workers can
/// be compared against `baseline`. Both are known before the run starts,
/// so the CLI checks this first and refuses without timing anything.
///
/// # Errors
///
/// [`CompareError::ModeMismatch`] when one side is `--quick` and the other
/// is not. [`CompareError::WorkerMismatch`] when the worker pool sizes
/// differ.
pub fn check_comparable(
    baseline: &BenchReport,
    quick: bool,
    workers: u64,
) -> Result<(), CompareError> {
    if baseline.quick != quick {
        return Err(CompareError::ModeMismatch {
            baseline: baseline.quick,
            current: quick,
        });
    }
    if baseline.workers != workers {
        return Err(CompareError::WorkerMismatch {
            baseline: baseline.workers,
            current: workers,
        });
    }
    Ok(())
}

/// Compare the optimisation speedups of `current` against a stored
/// `baseline`. Raw wall times are deliberately ignored — they track host
/// speed, not code quality — so only the dimensionless optimised-vs-naive
/// ratios are held to account. An entry regresses when its speedup drops
/// by more than `noise` relative to the baseline.
///
/// # Errors
///
/// Whatever [`check_comparable`] refuses for `current`'s mode and pool.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    noise: f64,
) -> Result<CompareReport, CompareError> {
    check_comparable(baseline, current.quick, current.workers)?;
    let mut entries = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.entries {
        let Some(baseline_speedup) = base.speedup else {
            continue;
        };
        match current.entry(&base.name).and_then(|e| e.speedup) {
            Some(current_speedup) => {
                let delta_frac = (current_speedup - baseline_speedup) / baseline_speedup;
                entries.push(CompareEntry {
                    name: base.name.clone(),
                    baseline_speedup,
                    current_speedup,
                    delta_frac,
                    regressed: delta_frac < -noise,
                });
            }
            None => missing.push(base.name.clone()),
        }
    }
    Ok(CompareReport {
        noise,
        entries,
        missing,
    })
}

/// Render a [`CompareReport`] as an ASCII table with a verdict line.
pub fn render_compare(report: &CompareReport, baseline: &BenchReport) -> String {
    let mut out = String::new();
    let git = baseline.git_rev.as_deref().unwrap_or("?");
    out.push_str(&format!(
        "baseline: {} @ git {git}, {} workers\n",
        baseline.engine_rev, baseline.workers
    ));
    let mut t = Table::new(vec![
        "case".to_owned(),
        "baseline x".to_owned(),
        "current x".to_owned(),
        "delta".to_owned(),
        "verdict".to_owned(),
    ]);
    for e in &report.entries {
        t.row(vec![
            e.name.clone(),
            format!("{:.2}", e.baseline_speedup),
            format!("{:.2}", e.current_speedup),
            format!("{:+.1}%", e.delta_frac * 100.0),
            if e.regressed { "REGRESSED" } else { "ok" }.to_owned(),
        ]);
    }
    out.push_str(&t.render());
    for name in &report.missing {
        out.push_str(&format!(
            "missing: baseline case `{name}` not in current run\n"
        ));
    }
    out.push_str(&format!(
        "verdict: {} (noise threshold {:.0}%)\n",
        if report.regressed() {
            "REGRESSION"
        } else {
            "no regression"
        },
        report.noise * 100.0
    ));
    out
}

/// Render a report as an ASCII table.
pub fn render(report: &BenchReport) -> String {
    let mut t = Table::new(vec![
        "case".to_owned(),
        "steps".to_owned(),
        "wall ms".to_owned(),
        "steps/s".to_owned(),
        "speedup".to_owned(),
    ]);
    for e in &report.entries {
        t.row(vec![
            e.name.clone(),
            e.steps.to_string(),
            format!("{:.1}", e.wall_ms),
            format!("{:.3e}", e.steps_per_sec),
            e.speedup
                .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}x")),
        ]);
    }
    let mode = if report.quick { " (quick)" } else { "" };
    format!(
        "Engine benchmarks{mode} — c = {}\n\n{}\nspeedup is baseline wall time over case wall time \
         (loops: sequential/batched; fig9: cold/warm cache).\n",
        report.setpoint,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_complete_and_serializable() {
        let params = PaperParams::default();
        let report = run(&params, true);
        assert!(report.quick);
        for name in [
            "loop-sequential",
            "loop-batched",
            "fig9-cold-cache",
            "fig9-warm-cache",
            "sweep-fifo",
            "sweep-ljf",
            "lanes-004-sequential",
            "lanes-004-blocked",
            "lanes-016-sequential",
            "lanes-016-blocked",
            "lanes-064-sequential",
            "lanes-064-blocked",
            "lanes-064-dispatch",
            "lanes-256-sequential",
            "lanes-256-blocked",
            "lanes-256-dispatch",
            "summaries-traced",
            "summaries-traceless",
            "mc-panel-naive",
            "mc-panel-traceless",
            "domains-016-perloop",
            "domains-016-bank",
            "domains-064-perloop",
            "domains-064-bank",
            "domains-256-perloop",
            "domains-256-bank",
            "telemetry-enabled",
            "telemetry-disabled",
        ] {
            let e = report.entry(name).unwrap_or_else(|| panic!("entry {name}"));
            assert!(e.steps > 0, "{name}: no steps");
            assert!(e.steps_per_sec > 0.0, "{name}: zero rate");
        }
        let warm_cache = report.entry("fig9-warm-cache").unwrap().speedup;
        assert!(
            warm_cache.is_some_and(|s| s > 1.0),
            "warm cache not faster: {warm_cache:?}"
        );
        assert!(report.entry("sweep-ljf").unwrap().speedup.is_some());
        for (fast, base) in [
            ("summaries-traceless", "summaries-traced"),
            ("mc-panel-traceless", "mc-panel-naive"),
            ("telemetry-disabled", "telemetry-enabled"),
        ] {
            let e = report.entry(fast).unwrap();
            assert_eq!(e.baseline.as_deref(), Some(base), "{fast} baseline");
            assert!(e.speedup.is_some(), "{fast} must be gated");
        }
        for lanes in ["004", "016", "064", "256"] {
            let blocked = report.entry(&format!("lanes-{lanes}-blocked")).unwrap();
            assert_eq!(
                blocked.baseline.as_deref(),
                Some(format!("lanes-{lanes}-sequential").as_str())
            );
            assert!(blocked.speedup.is_some(), "blocked {lanes} must be gated");
        }
        for domains in ["016", "064", "256"] {
            let bank = report.entry(&format!("domains-{domains}-bank")).unwrap();
            assert_eq!(
                bank.baseline.as_deref(),
                Some(format!("domains-{domains}-perloop").as_str())
            );
            assert!(bank.speedup.is_some(), "bank {domains} must be gated");
        }
        // Dispatch timings deliberately carry no speedup: the ratio would
        // compare host core counts, not code (see the section 4 comment).
        assert!(report
            .entry("lanes-064-dispatch")
            .unwrap()
            .speedup
            .is_none());
        assert!(report
            .entry("lanes-256-dispatch")
            .unwrap()
            .speedup
            .is_none());
        // The table's pairing: every baseline is an earlier entry, every
        // speedup is that entry's wall time over this one's, and entries
        // without a baseline carry no speedup.
        for (i, e) in report.entries.iter().enumerate() {
            let base = e.baseline.as_ref().map(|b| {
                report.entries[..i]
                    .iter()
                    .find(|earlier| &earlier.name == b)
                    .unwrap_or_else(|| panic!("{}: baseline {b} is not an earlier entry", e.name))
            });
            assert_eq!(
                e.speedup,
                base.map(|b| b.wall_ms / e.wall_ms.max(1e-12)),
                "{}: speedup must pair with its baseline",
                e.name
            );
        }
        let json = report.to_json().expect("plain data serializes");
        let back: BenchReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
        let text = render(&report);
        assert!(text.contains("loop-batched"));
        assert!(text.contains("fig9-warm-cache"));
        assert_eq!(report.engine_rev, crate::cache::engine_fingerprint());
        assert!(report.workers >= 1, "worker pool size must be recorded");
    }

    fn committed(name: &str) -> BenchReport {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        BenchReport::load(&path).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The committed baseline still loads.
    #[test]
    fn committed_baselines_still_load() {
        let report = committed("BENCH_8.json");
        assert!(!report.entries.is_empty(), "BENCH_8.json has no entries");
    }

    /// The headline speedups the README claims hold in the baseline the
    /// regression gate compares against.
    #[test]
    fn committed_baseline_meets_headline_floors() {
        let report = committed("BENCH_8.json");
        let speedup = |name: &str| {
            report
                .entry(name)
                .and_then(|e| e.speedup)
                .unwrap_or_else(|| panic!("{name} has no speedup"))
        };
        let mut floors = vec![
            ("summaries-traceless".to_owned(), 2.0),
            ("mc-panel-traceless".to_owned(), 8.0),
        ];
        for n in ["016", "064", "256"] {
            floors.push((format!("domains-{n}-bank"), 2.0));
        }
        for (name, floor) in floors {
            let got = speedup(&name);
            assert!(
                got >= floor,
                "{name} speedup {got} below the {floor}x claim"
            );
        }
    }

    fn speedup_report(pairs: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            quick: false,
            setpoint: 40,
            workers: 4,
            engine_rev: "test-engine".to_owned(),
            git_rev: None,
            entries: pairs
                .iter()
                .map(|&(name, speedup)| BenchEntry {
                    name: name.to_owned(),
                    detail: String::new(),
                    steps: 1,
                    wall_ms: 1.0,
                    steps_per_sec: 1000.0,
                    baseline: Some("base".to_owned()),
                    speedup: Some(speedup),
                })
                .collect(),
        }
    }

    #[test]
    fn compare_flags_only_losses_beyond_noise() {
        let baseline = speedup_report(&[("a", 2.0), ("b", 3.0), ("c", 1.5)]);
        // a: tiny wobble, b: catastrophic loss, c: improvement.
        let current = speedup_report(&[("a", 1.9), ("b", 1.0), ("c", 2.0)]);
        let cmp = compare(&current, &baseline, DEFAULT_COMPARE_NOISE).expect("same pool");
        assert!(cmp.regressed());
        let by_name = |n: &str| cmp.entries.iter().find(|e| e.name == n).unwrap();
        assert!(!by_name("a").regressed, "5% wobble is noise");
        assert!(by_name("b").regressed, "3.0x -> 1.0x is a regression");
        assert!(!by_name("c").regressed, "improvements never regress");
        let text = render_compare(&cmp, &baseline);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("test-engine"));
    }

    #[test]
    fn compare_passes_identical_reports_and_catches_missing_cases() {
        let baseline = speedup_report(&[("a", 2.0), ("b", 3.0)]);
        let same = compare(&baseline, &baseline, DEFAULT_COMPARE_NOISE).expect("same pool");
        assert!(!same.regressed(), "a report never regresses against itself");
        let current = speedup_report(&[("a", 2.0)]);
        let cmp = compare(&current, &baseline, DEFAULT_COMPARE_NOISE).expect("same pool");
        assert_eq!(cmp.missing, vec!["b".to_owned()]);
        assert!(cmp.regressed(), "a vanished case counts as a regression");
    }

    /// A baseline taken with a different worker pool is refused with both
    /// counts named, not compared.
    #[test]
    fn compare_refuses_a_baseline_from_another_worker_pool() {
        let baseline = speedup_report(&[("a", 2.0)]);
        let mut current = speedup_report(&[("a", 2.0)]);
        current.workers = 2;
        let err = compare(&current, &baseline, DEFAULT_COMPARE_NOISE)
            .expect_err("4-worker baseline vs 2-worker run");
        assert_eq!(
            err,
            CompareError::WorkerMismatch {
                baseline: 4,
                current: 2
            }
        );
        let text = err.to_string();
        assert!(
            text.contains("4 sweep workers") && text.contains("used 2"),
            "{text}"
        );
        assert!(text.contains("--threads 4"), "{text}");
    }

    /// A `--quick` run is refused against a full baseline, with both modes
    /// named; quick against quick compares.
    #[test]
    fn compare_refuses_a_quick_run_against_a_full_baseline() {
        let baseline = speedup_report(&[("a", 2.0)]);
        let current = BenchReport {
            quick: true,
            ..baseline.clone()
        };
        let err = compare(&current, &baseline, DEFAULT_COMPARE_NOISE)
            .expect_err("quick run vs full baseline");
        assert_eq!(
            err,
            CompareError::ModeMismatch {
                baseline: false,
                current: true
            }
        );
        let text = err.to_string();
        assert!(
            text.contains("baseline is a full bench") && text.contains("this run is --quick"),
            "{text}"
        );
        assert!(compare(&current, &current, DEFAULT_COMPARE_NOISE).is_ok());
    }
}
