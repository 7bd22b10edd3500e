//! Monte Carlo statistical timing on the traceless lane-block path.
//!
//! A Monte Carlo *panel* samples thousands of process instances from a
//! seeded [`ProcessSpec`], maps each instance to one **lane** of the
//! blocked batch engine (its sampled static mismatch entering through
//! the heterogeneous input, exactly where the paper's distributed TDC
//! sensors would observe it), and steps all instances at once through
//! [`BatchLoop::run`] into a [`SummarySink`] — the summary-only path that never
//! materializes a `BatchTrace`. Per-instance results come back as
//! [`RunSummary`] values and fold into streaming statistics:
//! mean/σ via [`Welford`], quantiles via the telemetry
//! [`QuantileSketch`] whose deterministic `merge` recombines per-chunk
//! sketches in lane order, so the panel's numbers are identical for any
//! chunk size and any `REPRO_THREADS` worker count.
//!
//! Everything is a pure function of `(spec, seed, instance)`: the
//! sampler carries no RNG state, so panels are reproducible, cacheable
//! (the `ext-yield` experiment keys its cache on the distribution spec
//! + seed + engine fingerprint), and embarrassingly parallel.
//!
//! [`naive_summaries`](McPanel::naive_summaries) keeps the honest
//! parity reference alive: one scalar [`DiscreteLoop`] per instance,
//! full trace materialized, then summarized through the same
//! [`Fold`](adaptive_clock::system::Fold). Its summaries are
//! **bit-identical** to the traceless path (the tests below pin this),
//! which is what makes the two *the same computation*, faster.

use std::ops::Range;

use adaptive_clock::batch::{BatchInputs, BatchLoop, SummarySink};
use adaptive_clock::controller::{Controller, IirConfig};
use adaptive_clock::loopsim::{constant, DiscreteLoop, LoopInputs};
use adaptive_clock::system::RunSummary;
use adaptive_clock::tdc::Quantization;
use clock_telemetry::{QuantileSketch, Telemetry};
use variation::process::ProcessSpec;
use variation::spatial::Position;

use crate::sweep::{lane_ranges, parallel_map, CancelToken};

/// Control schemes a Monte Carlo panel sweeps (the closed-loop line-up
/// of the paper plus the free-running strawman).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's integer IIR controller.
    IntIir,
    /// The TEAtime bang-bang baseline.
    TeaTime,
    /// No feedback at all.
    Free,
}

/// Every scheme, in table order.
pub const SCHEMES: [Scheme; 3] = [Scheme::IntIir, Scheme::TeaTime, Scheme::Free];

impl Scheme {
    /// Table / cache-key label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::IntIir => "IIR RO",
            Scheme::TeaTime => "TEAtime RO",
            Scheme::Free => "Free RO",
        }
    }

    /// Build the lane controller for a set-point.
    pub fn controller(&self, setpoint: i64) -> Controller {
        match self {
            Scheme::IntIir => Controller::int_iir(&IirConfig::paper(), setpoint)
                .expect("paper IIR gains are a valid configuration"),
            Scheme::TeaTime => Controller::teatime(setpoint, 1.0),
            Scheme::Free => Controller::free(setpoint),
        }
    }
}

/// One Monte Carlo panel: a process distribution, a seed, and the
/// workload every sampled instance runs.
#[derive(Debug, Clone, PartialEq)]
pub struct McPanel {
    /// Process distribution instances are drawn from.
    pub spec: ProcessSpec,
    /// Master seed; `(spec, seed, instance)` fully determines a draw.
    pub seed: u64,
    /// Sampled process instances (= lanes in the batch).
    pub instances: usize,
    /// Periods each instance is stepped.
    pub steps: usize,
    /// Lock-in periods excluded from the margin folds (instances are
    /// stepped from period 0; statistics cover `warmup..steps`).
    pub warmup: usize,
    /// Lanes per dispatch chunk (one chunk = one `BatchLoop` on one
    /// worker).
    pub chunk: usize,
    /// TDC sensor grid size; the loop observes the mean sampled offset
    /// over these sites.
    pub sensors: usize,
    /// Set-point `c` in stages.
    pub setpoint: i64,
    /// Clock-distribution delay `m` in periods.
    pub m: usize,
    /// Background HoDV amplitude in stages.
    pub amplitude: f64,
    /// Background HoDV period in clock periods.
    pub te_periods: f64,
}

impl McPanel {
    /// What each instance's sensors observe: the mean sampled static
    /// offset over the sensor grid, per instance. Pure in
    /// `(spec, seed)`, so any chunking sees identical values.
    pub fn sensed_offsets(&self) -> Vec<f64> {
        let sampler = self.spec.sampler(self.seed);
        let sites = Position::grid(self.sensors);
        (0..self.instances as u64)
            .map(|i| sampler.sensed_offset(i, &sites))
            .collect()
    }

    fn hodv(&self) -> impl Fn(i64) -> f64 + Sync + '_ {
        let (amp, te) = (self.amplitude, self.te_periods);
        move |n: i64| amp * (std::f64::consts::TAU * n as f64 / te).sin()
    }

    /// Run the panel through the traceless chunked path: per-instance
    /// [`RunSummary`] values in instance order, bit-identical for any
    /// chunk size or worker count (and to
    /// [`naive_summaries`](Self::naive_summaries)).
    ///
    /// Counters `mc.samples`, `mc.batches` and `mc.summary_lane_steps`
    /// account the work; the block kernels land on the
    /// `engine.batch.summaries` span under `--profile`.
    pub fn summaries(&self, scheme: Scheme, telemetry: &Telemetry) -> Vec<RunSummary> {
        let offsets = self.sensed_offsets();
        let setpoint = constant(self.setpoint as f64);
        let hodv = self.hodv();
        let run = |r: &Range<usize>| {
            let mut batch = BatchLoop::new().with_telemetry(telemetry.clone());
            for _ in r.clone() {
                batch.push(
                    self.m,
                    scheme.controller(self.setpoint),
                    Quantization::Floor,
                );
            }
            // The sampled offsets are step-invariant, so they ride the
            // static-μ fast path: no per-lane closure, no μ ring traffic,
            // bit-identical to per-lane `constant(offset)` closures.
            let inputs = BatchInputs::StaticMu {
                setpoint: &setpoint,
                homogeneous: &hodv,
                mu: &offsets[r.clone()],
            };
            batch.run(inputs, self.steps, SummarySink::with_warmup(self.warmup))
        };
        let ranges = lane_ranges(self.instances, self.chunk.max(1));
        let parts = {
            let mut dispatch = telemetry.scope("batch.dispatch");
            dispatch.attr("lanes", self.instances);
            dispatch.attr("chunks", ranges.len());
            let never = CancelToken::never();
            parallel_map(&ranges, |r| r.len() as u64, run, telemetry, &never)
        };
        let out: Vec<RunSummary> = {
            let _recombine = telemetry.scope("batch.recombine");
            parts.into_iter().flatten().collect()
        };
        telemetry.counter("mc.samples").add(self.instances as u64);
        telemetry
            .counter("mc.batches")
            .add(self.instances.div_ceil(self.chunk.max(1)) as u64);
        telemetry
            .counter("mc.summary_lane_steps")
            .add((self.instances * self.steps) as u64);
        out
    }

    /// The naive per-instance parity reference: one scalar
    /// [`DiscreteLoop`] per instance, its full one-lane trace
    /// materialized, then folded by
    /// [`BatchTrace::summarize_after`](adaptive_clock::batch::BatchTrace::summarize_after)
    /// — bit-identical to [`summaries`](Self::summaries), as the tests
    /// pin. This path exists to anchor the bit-parity claim.
    pub fn naive_summaries(&self, scheme: Scheme) -> Vec<RunSummary> {
        let offsets = self.sensed_offsets();
        let setpoint = constant(self.setpoint as f64);
        let hodv = self.hodv();
        offsets
            .iter()
            .map(|&off| {
                let mu = constant(off);
                let inputs = LoopInputs {
                    setpoint: &setpoint,
                    homogeneous: &hodv,
                    heterogeneous: &mu,
                };
                let trace = DiscreteLoop::new(
                    self.m,
                    scheme.controller(self.setpoint),
                    Quantization::Floor,
                )
                .run(&inputs, self.steps);
                trace.summarize_after(std::slice::from_ref(&inputs), self.warmup)[0]
            })
            .collect()
    }
}

/// Welford's online mean/variance accumulator with Chan's parallel
/// merge — the streaming first two moments of a Monte Carlo statistic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Merge another accumulator (Chan et al.'s pairwise update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64 / n as f64);
        self.mean += d * (other.n as f64 / n as f64);
        self.n = n;
    }

    /// Samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 while empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn sigma(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.m2 / (self.n - 1) as f64).sqrt()
    }
}

/// Streaming panel statistics over per-instance summaries: required
/// safety margin and mean period first moments plus a margin quantile
/// sketch.
#[derive(Debug, Clone)]
pub struct McStats {
    /// Instances folded in.
    pub samples: u64,
    /// Required safety margin (`worst_negative_error`) moments.
    pub margin: Welford,
    /// Mean adapted period moments.
    pub period: Welford,
    /// Margin quantiles (deterministically mergeable).
    pub margin_sketch: QuantileSketch,
}

impl Default for McStats {
    fn default() -> Self {
        Self::new()
    }
}

impl McStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        McStats {
            samples: 0,
            margin: Welford::new(),
            period: Welford::new(),
            margin_sketch: QuantileSketch::new(),
        }
    }

    /// Fold a slice of per-instance summaries (in instance order).
    pub fn push_all(&mut self, summaries: &[RunSummary]) {
        for s in summaries {
            self.samples += 1;
            self.margin.push(s.required_margin());
            self.period.push(s.mean_period);
            self.margin_sketch.record(s.required_margin());
        }
    }

    /// Merge chunk statistics (in chunk order for bit-stable moments;
    /// the sketch merge is order-invariant either way).
    pub fn merge(&mut self, other: &McStats) {
        self.samples += other.samples;
        self.margin.merge(&other.margin);
        self.period.merge(&other.period);
        self.margin_sketch.merge(&other.margin_sketch);
    }

    /// Timing yield at deployed margin `m`: the fraction of instances
    /// whose required margin is at most `m`, over the sketch's retained
    /// population (exact while the panel fits the sketch capacity).
    pub fn yield_at(&self, summaries: &[RunSummary], m: f64) -> f64 {
        if summaries.is_empty() {
            return 1.0;
        }
        summaries
            .iter()
            .filter(|s| s.required_margin() <= m)
            .count() as f64
            / summaries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::set_threads;

    fn panel() -> McPanel {
        McPanel {
            spec: ProcessSpec::paper(),
            seed: 0x000C_1A05,
            instances: 37,
            steps: 120,
            warmup: 30,
            chunk: 8,
            sensors: 4,
            setpoint: 64,
            m: 1,
            amplitude: 12.8,
            te_periods: 200.0,
        }
    }

    #[test]
    fn traceless_panel_is_bit_identical_to_naive_per_instance_baseline() {
        let p = panel();
        let t = Telemetry::disabled();
        for scheme in SCHEMES {
            let fast = p.summaries(scheme, &t);
            let naive = p.naive_summaries(scheme);
            assert_eq!(fast.len(), p.instances);
            let bits = |s: &[RunSummary]| -> Vec<_> {
                s.iter().map(|x| x.to_values().map(f64::to_bits)).collect()
            };
            assert_eq!(bits(&fast), bits(&naive), "{}", scheme.label());
        }
    }

    #[test]
    fn panel_is_invariant_under_chunking_and_workers() {
        let t = Telemetry::disabled();
        let mut base = panel();
        let want = base.summaries(Scheme::IntIir, &t);
        for chunk in [1, 5, 37, 64] {
            for workers in [Some(1), Some(3)] {
                base.chunk = chunk;
                set_threads(workers);
                let got = base.summaries(Scheme::IntIir, &t);
                set_threads(None);
                assert_eq!(got, want, "chunk={chunk} workers={workers:?}");
            }
        }
    }

    #[test]
    fn counters_account_samples_batches_and_lane_steps() {
        let t = Telemetry::enabled();
        t.enable_tracing();
        let p = panel();
        let _ = p.summaries(Scheme::Free, &t);
        let snap = t.snapshot();
        assert_eq!(snap.counter("mc.samples"), Some(37));
        assert_eq!(snap.counter("mc.batches"), Some(5));
        assert_eq!(snap.counter("mc.summary_lane_steps"), Some(37 * 120));
        let spans = t.trace_spans();
        for name in ["batch.dispatch", "batch.recombine"] {
            assert!(spans.iter().any(|s| s.name == name), "{name} span missing");
        }
        // The chunk engines run on the panel's telemetry: one summary span
        // per chunk, and every lane-step on the engine's own counter.
        let runs = spans
            .iter()
            .filter(|s| s.name == "engine.batch.summaries")
            .count();
        assert_eq!(runs, 5, "one engine.batch.summaries span per chunk");
        assert_eq!(snap.counter("batch.controller_steps"), Some(37 * 120));
    }

    /// The panel's lane ranges dispatch under one `batch.dispatch` span
    /// naming the lanes and chunks, with the sweep's workers inside it.
    #[test]
    fn summaries_record_the_dispatch_span_around_the_sweep() {
        let t = Telemetry::enabled();
        t.enable_tracing();
        let _ = panel().summaries(Scheme::IntIir, &t);
        let spans = t.trace_spans();
        let dispatch: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "batch.dispatch")
            .collect();
        assert_eq!(dispatch.len(), 1);
        let attr = |k: &str| {
            let found = dispatch[0].attrs.iter().find(|(n, _)| n == k);
            found.map(|(_, v)| v.as_str())
        };
        assert_eq!((attr("lanes"), attr("chunks")), (Some("37"), Some("5")));
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "sweep.worker").collect();
        assert!(!workers.is_empty());
        for worker in workers {
            assert_eq!(
                worker.parent, dispatch[0].id,
                "a worker outside the dispatch"
            );
        }
    }

    #[test]
    fn welford_merge_matches_sequential_fold() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 97) as f64 / 9.7).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut merged = Welford::new();
        for chunk in xs.chunks(111) {
            let mut part = Welford::new();
            chunk.iter().for_each(|&x| part.push(x));
            merged.merge(&part);
        }
        assert_eq!(whole.count(), merged.count());
        assert!((whole.mean() - merged.mean()).abs() < 1e-12);
        assert!((whole.sigma() - merged.sigma()).abs() < 1e-12);
    }

    #[test]
    fn stats_chunk_merge_is_deterministic() {
        let p = panel();
        let t = Telemetry::disabled();
        let summaries = p.summaries(Scheme::IntIir, &t);
        let fold = |chunk: usize| {
            let mut acc = McStats::new();
            for part in summaries.chunks(chunk) {
                let mut s = McStats::new();
                s.push_all(part);
                acc.merge(&s);
            }
            (
                acc.samples,
                acc.margin_sketch.quantile(0.5),
                acc.margin_sketch.quantile(0.99),
            )
        };
        // Quantiles come from the order-invariant sketch merge, so any
        // equal-chunk recombination answers identically; a whole-panel
        // fold agrees because nothing compacts at this size.
        let mut whole = McStats::new();
        whole.push_all(&summaries);
        assert_eq!(fold(8), fold(37));
        assert_eq!(fold(8).1, whole.margin_sketch.quantile(0.5));
        assert_eq!(whole.samples, p.instances as u64);
        assert!(whole.margin.sigma() > 0.0, "process spread must show up");
    }

    #[test]
    fn sampled_instances_actually_differ() {
        let p = panel();
        let offsets = p.sensed_offsets();
        let spread = offsets.iter().cloned().fold(f64::MIN, f64::max)
            - offsets.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.5, "spread {spread}");
        let t = Telemetry::disabled();
        let s = p.summaries(Scheme::IntIir, &t);
        let margins: Vec<f64> = s.iter().map(|x| x.required_margin()).collect();
        assert!(margins.iter().any(|&m| m != margins[0]));
    }
}
