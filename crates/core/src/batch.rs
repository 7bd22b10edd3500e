//! Batched multi-lane execution of the Fig. 4 discrete loop.
//!
//! [`loopsim::DiscreteLoop`] advances one operating point at a time and
//! calls through `&dyn Fn(i64) -> f64` input closures on every period.
//! Sweeps, however, run the *same* recurrence over many independent
//! (seed, μ, T_e, scheme) points. [`BatchLoop`] runs `B` such lanes
//! together in a structure-of-arrays layout:
//!
//! * input closures are **deduplicated by identity and sampled once per
//!   row**, a tile of [`Sink::TILE`] periods at a time, into one
//!   contiguous column per closure, so a sweep whose lanes share a
//!   variation source pays for each closure row once, not once per lane;
//! * clean lanes are packed into fixed-width **lane blocks** of
//!   [`BLOCK_WIDTH`] and stepped by straight-line SoA kernels (the
//!   private `blocked` submodule) that mirror the shared
//!   [`Controller`] arithmetic bit for bit. The loop nest is
//!   block-major: each block steps through a whole tile of periods,
//!   holding its controller state, `l_RO` history and summary folds
//!   itself, before the next block starts;
//!   faulted/hardened lanes and block tails stay on the per-lane scalar
//!   path, so every lane — blocked or not — is **bit-identical** to the
//!   `DiscreteLoop` it replaces (asserted by the differential tests below
//!   and by the `batch_blocked_differential` proptest suite);
//! * recorded signals land in flat `[n·B + lane]` arrays
//!   ([`BatchTrace`]); [`BatchTrace::lane`] cuts out the one-lane trace a
//!   `DiscreteLoop` run of that lane records;
//! * summary consumers (margin sweeps, Monte Carlo panels) can skip the
//!   trace entirely: [`BatchLoop::run`] with a [`SummarySink`] streams the
//!   same block loop into one [`RunSummary`] per lane through the shared
//!   [`Fold`], bit-identical to summarizing a materialized trace but
//!   without the trace-store bandwidth or allocation.
//!
//! [`loopsim::DiscreteLoop`]: crate::loopsim::DiscreteLoop

use clock_faults::FaultSchedule;
use clock_telemetry::Telemetry;

use crate::bank::DomainBank;
use crate::controller::Controller;
use crate::loopsim::LoopInputs;
use crate::resilience::Resilience;
use crate::system::{Fold, RunSummary};
use crate::tdc::Quantization;

mod blocked;

pub use blocked::{Sink, SummarySink, TraceSink, BLOCK_WIDTH};

/// The inputs of a batched run: how each lane's `c`, `e` and `μ`
/// sequences are supplied to [`BatchLoop::run`].
#[derive(Clone, Copy)]
pub enum BatchInputs<'a> {
    /// One [`LoopInputs`] per lane, lane `i` driven by entry `i`.
    PerLane(&'a [LoopInputs<'a>]),
    /// The Monte Carlo panel shape: every lane shares one `setpoint` and
    /// one `homogeneous` closure, and lane `k`'s heterogeneous mismatch is
    /// the **step-invariant** constant `mu[k]` (a sampled process
    /// offset), passed as data instead of a closure.
    ///
    /// Equivalent per-lane `constant(mu[k])` closures produce the same
    /// bits — the engine adds the identical f64 in the identical
    /// association order — but cost one indirect call plus one row store
    /// per lane per period, because per-lane closures are all distinct and
    /// cannot deduplicate. For a thousands-of-lanes sample panel that
    /// overhead is the difference the `mc-panel-*` benchmark pair tracks.
    StaticMu {
        /// Set-point sequence `c[n]`, shared by every lane.
        setpoint: &'a (dyn Fn(i64) -> f64 + 'a),
        /// Homogeneous variation `e[n]`, shared by every lane.
        homogeneous: &'a (dyn Fn(i64) -> f64 + 'a),
        /// Static heterogeneous offset `μ` per lane.
        mu: &'a [f64],
    },
}

impl BatchInputs<'_> {
    /// Number of lanes the inputs drive.
    pub(crate) fn lanes(&self) -> usize {
        match self {
            BatchInputs::PerLane(li) => li.len(),
            BatchInputs::StaticMu { mu, .. } => mu.len(),
        }
    }

    /// Lane `lane`'s set-point `c[n]`.
    fn setpoint(&self, lane: usize, n: i64) -> f64 {
        match self {
            BatchInputs::PerLane(li) => (li[lane].setpoint)(n),
            BatchInputs::StaticMu { setpoint, .. } => setpoint(n),
        }
    }

    /// One [`RunSummary`] per lane from its [`Fold`] and last `l_RO`. A
    /// lane has no single set-point field, so the summary reads the
    /// lane's `c[steps − 1]` (the pre-start `c[−1]` for a zero-step run).
    pub(crate) fn summaries(
        &self,
        steps: usize,
        samples: usize,
        lanes: impl Iterator<Item = (Fold, f64)>,
    ) -> Vec<RunSummary> {
        lanes
            .enumerate()
            .map(|(k, (fold, last_lro))| {
                fold.finish(self.setpoint(k, steps as i64 - 1), samples as u64, last_lro)
            })
            .collect()
    }
}

impl<'a> From<&'a [LoopInputs<'a>]> for BatchInputs<'a> {
    fn from(inputs: &'a [LoopInputs<'a>]) -> Self {
        BatchInputs::PerLane(inputs)
    }
}

impl<'a> From<&'a Vec<LoopInputs<'a>>> for BatchInputs<'a> {
    fn from(inputs: &'a Vec<LoopInputs<'a>>) -> Self {
        BatchInputs::PerLane(inputs)
    }
}

impl<'a, const N: usize> From<&'a [LoopInputs<'a>; N]> for BatchInputs<'a> {
    fn from(inputs: &'a [LoopInputs<'a>; N]) -> Self {
        BatchInputs::PerLane(inputs)
    }
}

/// Flat recordings of a batched run, laid out `[n · lanes + lane]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchTrace {
    lanes: usize,
    steps: usize,
    /// TDC readings `τ[n]`, one slab of `lanes` values per period.
    pub tau: Vec<f64>,
    /// Adaptation errors `δ[n]`.
    pub delta: Vec<f64>,
    /// RO lengths `l_RO[n]`.
    pub lro: Vec<f64>,
}

impl BatchTrace {
    /// Number of lanes recorded.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of periods recorded per lane.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// An empty one-lane trace with room for `steps` periods, filled by
    /// [`push`](Self::push) — what a `DiscreteLoop` run or one mesh
    /// domain records.
    pub fn single_lane(steps: usize) -> BatchTrace {
        BatchTrace {
            lanes: 1,
            steps: 0,
            tau: Vec::with_capacity(steps),
            delta: Vec::with_capacity(steps),
            lro: Vec::with_capacity(steps),
        }
    }

    /// Append one period to a one-lane trace.
    #[inline]
    pub fn push(&mut self, tau: f64, delta: f64, lro: f64) {
        debug_assert_eq!(self.lanes, 1, "push appends to a one-lane trace");
        self.tau.push(tau);
        self.delta.push(delta);
        self.lro.push(lro);
        self.steps += 1;
    }

    /// Cut one lane out into a one-lane trace — identical to what a
    /// `DiscreteLoop` run of that operating point records.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= self.lanes()`.
    pub fn lane(&self, lane: usize) -> BatchTrace {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let mut out = BatchTrace::single_lane(self.steps);
        for n in 0..self.steps {
            let k = n * self.lanes + lane;
            out.push(self.tau[k], self.delta[k], self.lro[k]);
        }
        out
    }

    /// Recombine lane-chunk traces into one trace whose lane order is the
    /// concatenation of the parts' lanes — the deterministic merge the
    /// multi-threaded lane-chunk dispatcher relies on: because every lane
    /// of a batch is independent, running `[0..k)` and `[k..B)` in
    /// separate [`BatchLoop`]s and concatenating is bit-identical to one
    /// `B`-lane run.
    ///
    /// Parts with zero lanes are allowed and contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics when the parts disagree on the step count.
    pub fn concat(parts: &[BatchTrace]) -> BatchTrace {
        let steps = parts.iter().find(|p| p.lanes > 0).map_or(0, |p| p.steps);
        assert!(
            parts.iter().all(|p| p.lanes == 0 || p.steps == steps),
            "lane-chunk traces disagree on step count"
        );
        let lanes: usize = parts.iter().map(|p| p.lanes).sum();
        let mut out = BatchTrace {
            lanes,
            steps,
            tau: Vec::with_capacity(steps * lanes),
            delta: Vec::with_capacity(steps * lanes),
            lro: Vec::with_capacity(steps * lanes),
        };
        for n in 0..steps {
            for p in parts {
                let row = n * p.lanes;
                out.tau.extend_from_slice(&p.tau[row..row + p.lanes]);
                out.delta.extend_from_slice(&p.delta[row..row + p.lanes]);
                out.lro.extend_from_slice(&p.lro[row..row + p.lanes]);
            }
        }
        out
    }

    /// Fold every lane into its [`RunSummary`] — the trace-then-summarize
    /// reference for a [`SummarySink`] run. `inputs` are the ones the run
    /// was given; they supply each lane's set-point (see
    /// [`RunSummary::setpoint`]).
    ///
    /// `δ[n] = c[n] − τ[n]` is already recorded, so each period pushes
    /// `δ`, `−δ` and `l_RO[n]` into the lane's [`Fold`], in step order.
    /// The traceless path pushes the same values inline, which is what
    /// makes the two bit-identical.
    pub fn summarize<'a>(&self, inputs: impl Into<BatchInputs<'a>>) -> Vec<RunSummary> {
        self.summarize_after(inputs, 0)
    }

    /// Like [`summarize`](Self::summarize), but fold only the periods
    /// from `warmup` on — the post-lock window a margin study scores
    /// (cold-start transients excluded), mirroring
    /// [`SummarySink::with_warmup`] on the traceless path.
    /// `last_lro` still reports the final period regardless of the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics when the inputs do not drive exactly this trace's lanes, or
    /// when `warmup >= steps` on a non-empty trace (an empty measurement
    /// window has no statistics).
    pub fn summarize_after<'a>(
        &self,
        inputs: impl Into<BatchInputs<'a>>,
        warmup: usize,
    ) -> Vec<RunSummary> {
        let inputs = inputs.into();
        assert_eq!(inputs.lanes(), self.lanes, "one input per lane required");
        let window = if self.steps == 0 {
            0..0
        } else {
            assert!(
                warmup < self.steps,
                "warmup ({warmup}) must leave at least one measured period of {}",
                self.steps
            );
            warmup..self.steps
        };
        let lanes = (0..self.lanes).map(|lane| {
            let mut fold = Fold::new();
            for n in window.clone() {
                let k = n * self.lanes + lane;
                fold.push(self.delta[k], -self.delta[k], self.lro[k]);
            }
            let last = self.steps.checked_sub(1);
            let last = last.map_or(f64::NAN, |n| self.lro[n * self.lanes + lane]);
            (fold, last)
        });
        inputs.summaries(self.steps, window.len(), lanes)
    }
}

/// A batch of independent Fig. 4 loops advanced together.
///
/// # Example
///
/// Two mismatch amplitudes of the paper loop in one batch:
///
/// ```
/// use adaptive_clock::batch::{BatchLoop, TraceSink};
/// use adaptive_clock::controller::{Controller, IirConfig};
/// use adaptive_clock::loopsim::{constant, step_at, LoopInputs};
/// use adaptive_clock::tdc::Quantization;
///
/// # fn main() -> Result<(), adaptive_clock::Error> {
/// let mut batch = BatchLoop::new();
/// for _ in 0..2 {
///     let ctrl = Controller::int_iir(&IirConfig::paper(), 64)?;
///     batch.push(1, ctrl, Quantization::Floor);
/// }
/// let c = constant(64.0);
/// let zero = constant(0.0);
/// let mu_a = step_at(10, -8.0);
/// let mu_b = step_at(10, 5.0);
/// let inputs = [
///     LoopInputs { setpoint: &c, homogeneous: &zero, heterogeneous: &mu_a },
///     LoopInputs { setpoint: &c, homogeneous: &zero, heterogeneous: &mu_b },
/// ];
/// let tr = batch.run(&inputs, 400, TraceSink::default());
/// assert!(tr.lane(0).delta[399].abs() <= 1.0);
/// assert!(tr.lane(1).delta[399].abs() <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BatchLoop {
    pub(crate) bank: DomainBank,
    telemetry: Telemetry,
}

impl BatchLoop {
    /// An empty batch.
    pub fn new() -> Self {
        BatchLoop {
            bank: DomainBank::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an instrumentation handle (counts controller steps across
    /// all lanes under `batch.controller_steps`, plus the block-engine
    /// shape under `batch.blocks` / `batch.scalar_tail_lanes`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying domain bank.
    pub fn bank(&self) -> &DomainBank {
        &self.bank
    }

    /// Mutable access to the underlying domain bank.
    pub fn bank_mut(&mut self) -> &mut DomainBank {
        &mut self.bank
    }

    /// Append a lane with CDN delay `m` whole periods; returns its index.
    pub fn push(&mut self, m: usize, controller: Controller, quantization: Quantization) -> usize {
        self.bank.push(m, controller, quantization)
    }

    /// Append a lane with a fault schedule and hardening configuration.
    /// An empty schedule plus [`Resilience::default`] keeps the lane on
    /// the engine's original (fault-free) arithmetic, exactly like
    /// [`push`](Self::push).
    pub fn push_with(
        &mut self,
        m: usize,
        controller: Controller,
        quantization: Quantization,
        faults: FaultSchedule,
        resilience: Resilience,
    ) -> usize {
        self.bank
            .push_with(m, controller, quantization, faults, resilience)
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.bank.is_empty()
    }

    /// Reset every lane's controller to its initial state.
    pub fn reset(&mut self) {
        self.bank.reset();
    }

    /// Run `steps` periods of every lane through the lane-block engine
    /// and hand every period to `sink`: a [`TraceSink`] returns the full
    /// [`BatchTrace`], a [`SummarySink`] one [`RunSummary`] per lane
    /// without materializing a trace. Clean lanes advance in
    /// [`BLOCK_WIDTH`]-wide SoA blocks, faulted/hardened lanes and block
    /// tails on the per-lane scalar path, every lane bit-identical to its
    /// scalar [`DiscreteLoop`](crate::loopsim::DiscreteLoop) twin, and the
    /// controller state advances identically whichever sink is used.
    ///
    /// `inputs` is a [`BatchInputs`]: a slice of [`LoopInputs`] (one per
    /// lane) converts directly. The input closures are deduplicated by
    /// reference identity and sampled once per unique closure per sequence
    /// row (a tile of rows at a time, before the lanes step through the
    /// tile), so they must be pure functions of the row index — how many
    /// times and in which order a closure is invoked is unspecified.
    /// Every closure the engines accept already satisfies this; the scalar
    /// loop relies on it too (it re-samples rows freely).
    ///
    /// Telemetry: the run lands under an `engine.batch` span (traced) or
    /// `engine.batch.summaries` (traceless); lane-step and block-shape
    /// counters are shared.
    ///
    /// # Panics
    ///
    /// Panics when the inputs do not supply exactly one lane's worth per
    /// lane, or when a [`SummarySink`]'s warmup leaves no measured period
    /// of a non-empty run.
    pub fn run<'a, S: Sink>(
        &mut self,
        inputs: impl Into<BatchInputs<'a>>,
        steps: usize,
        sink: S,
    ) -> S::Output {
        sink.drive(self, inputs.into(), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime};
    use crate::loopsim::{constant, step_at, DiscreteLoop};

    fn reference(
        m: usize,
        controller: Controller,
        q: Quantization,
        inputs: &LoopInputs<'_>,
        steps: usize,
    ) -> BatchTrace {
        DiscreteLoop::new(m, controller, q).run(inputs, steps)
    }

    /// The lockstep scalar reference: every lane of `bank` advanced one
    /// period at a time through [`DomainBank::runner`], the stepping path
    /// the mesh uses.
    fn lockstep(bank: &mut DomainBank, inputs: &[LoopInputs<'_>], steps: usize) -> Vec<BatchTrace> {
        let mm: Vec<i64> = (0..bank.len()).map(|d| bank.m(d) as i64 + 2).collect();
        let mut out = vec![BatchTrace::single_lane(steps); bank.len()];
        let mut runner = bank.runner();
        for n in 0..steps as i64 {
            for (d, li) in inputs.iter().enumerate() {
                let i = n - mm[d];
                let s = runner.step(
                    d,
                    n,
                    (li.setpoint)(n),
                    (li.homogeneous)(i),
                    (li.homogeneous)(n - 1),
                    (li.heterogeneous)(i),
                );
                out[d].push(s.tau, s.delta, s.lro);
            }
        }
        out
    }

    /// Every field of every summary as raw bits, so NaN `last_lro`s and
    /// signed zeros compare exactly.
    fn summary_bits(s: &[RunSummary]) -> Vec<[u64; RunSummary::FIELDS]> {
        s.iter().map(|x| x.to_values().map(f64::to_bits)).collect()
    }

    #[test]
    fn single_lane_matches_discrete_loop_int_iir() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let zero = constant(0.0);
        let mu = step_at(20, -9.0);
        let inputs = LoopInputs {
            setpoint: &c,
            homogeneous: &zero,
            heterogeneous: &mu,
        };
        let want = reference(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap().into(),
            Quantization::Floor,
            &inputs,
            500,
        );
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            Controller::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        let got = batch.run(std::slice::from_ref(&inputs), 500, TraceSink::default());
        assert_eq!(got.lane(0), want);
    }

    #[test]
    fn mixed_lanes_match_their_discrete_loops_bitwise() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 6.0 * (std::f64::consts::TAU * n as f64 / 300.0).sin();
        let mu = step_at(40, 7.0);
        let inputs = LoopInputs {
            setpoint: &c,
            homogeneous: &e,
            heterogeneous: &mu,
        };
        let steps = 800;
        let cases: Vec<(
            usize,
            crate::controller::Controller,
            Controller,
            Quantization,
        )> = vec![
            (
                0,
                IntIirControl::new(cfg.clone(), 64).unwrap().into(),
                Controller::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            ),
            (
                2,
                FloatIir::from_config(&cfg, 64.0).unwrap().into(),
                Controller::float_iir(&cfg, 64.0).unwrap(),
                Quantization::None,
            ),
            (
                1,
                TeaTime::new(64).into(),
                Controller::teatime(64, 1.0),
                Quantization::Floor,
            ),
            (
                3,
                FreeRunning::new(64).into(),
                Controller::free(64),
                Quantization::Nearest,
            ),
        ];
        let mut batch = BatchLoop::new();
        let mut wants = Vec::new();
        let mut lane_inputs = Vec::new();
        for (m, scalar, lane, q) in cases {
            wants.push(reference(m, scalar, q, &inputs, steps));
            batch.push(m, lane, q);
            lane_inputs.push(LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            });
        }
        let got = batch.run(&lane_inputs, steps, TraceSink::default());
        assert_eq!(got.lanes(), 4);
        assert_eq!(got.steps(), steps);
        for (k, want) in wants.iter().enumerate() {
            assert_eq!(&got.lane(k), want, "lane {k} diverged");
        }
    }

    /// A recycling trace sink must return the same bits as a fresh run no
    /// matter what the spare trace held, and must actually reuse a
    /// big-enough donor allocation instead of reallocating.
    #[test]
    fn recycled_run_is_bit_identical_and_reuses_buffers() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 4.0 * (std::f64::consts::TAU * n as f64 / 55.0).sin();
        let zero = constant(0.0);
        let mut batch = BatchLoop::new();
        for m in 0..5 {
            batch.push(
                m % 3,
                Controller::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
        }
        let inputs: Vec<LoopInputs<'_>> = (0..5)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let fresh = batch.run(&inputs, 300, TraceSink::default());

        // Donor larger than needed: buffers must be reused in place.
        batch.reset();
        let big = BatchTrace {
            tau: vec![f64::NAN; 4000],
            delta: vec![f64::NAN; 4000],
            lro: vec![f64::NAN; 4000],
            ..BatchTrace::default()
        };
        let big_ptr = big.tau.as_ptr();
        let recycled = batch.run(&inputs, 300, TraceSink::recycling(big));
        assert_eq!(recycled, fresh, "recycled run diverged from fresh run");
        assert_eq!(
            recycled.tau.as_ptr(),
            big_ptr,
            "large donor buffer was not reused"
        );

        // Donor smaller than needed: must grow, still identical.
        batch.reset();
        let small = batch.run(&inputs, 10, TraceSink::recycling(BatchTrace::default()));
        batch.reset();
        let regrown = batch.run(&inputs, 300, TraceSink::recycling(small));
        assert_eq!(regrown, fresh);
    }

    /// Equal-size rerun recycling the previous output: none of the three
    /// buffers may silently reallocate (the steady-state contract the
    /// docs promise and debug builds assert).
    #[test]
    fn equal_size_recycled_rerun_reuses_every_buffer() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 4.0 * (std::f64::consts::TAU * n as f64 / 55.0).sin();
        let zero = constant(0.0);
        let mut batch = BatchLoop::new();
        for m in 0..6 {
            batch.push(
                m % 3,
                Controller::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
        }
        let inputs: Vec<LoopInputs<'_>> = (0..6)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let first = batch.run(&inputs, 250, TraceSink::default());
        let ptrs = [
            first.tau.as_ptr() as usize,
            first.delta.as_ptr() as usize,
            first.lro.as_ptr() as usize,
        ];
        batch.reset();
        let second = batch.run(&inputs, 250, TraceSink::recycling(first));
        assert_eq!(
            [
                second.tau.as_ptr() as usize,
                second.delta.as_ptr() as usize,
                second.lro.as_ptr() as usize,
            ],
            ptrs,
            "equal-size rerun reallocated a recycled buffer"
        );
        batch.reset();
        assert_eq!(second, batch.run(&inputs, 250, TraceSink::default()));
    }

    type Seq = Box<dyn Fn(i64) -> f64>;

    /// A bank with two full blocks, a scalar tail, TEAtime and Free
    /// lanes and a faulted hardened lane.
    fn summary_bank() -> BatchLoop {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let schedule = FaultSchedule::random(17, FaultClass::TdcDropout, 5.0, 700, 3);
        let mut b = BatchLoop::new();
        for k in 0..2 * BLOCK_WIDTH + 1 {
            b.push(
                k % 3,
                Controller::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
        }
        b.push(1, Controller::teatime(64, 1.0), Quantization::Floor);
        b.push(2, Controller::free(64), Quantization::Floor);
        b.push_with(
            1,
            Controller::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
            schedule,
            Resilience::hardened(64.0),
        );
        b
    }

    fn per_lane<'a>(
        c: &'a dyn Fn(i64) -> f64,
        e: &'a dyn Fn(i64) -> f64,
        mus: &'a [Seq],
    ) -> Vec<LoopInputs<'a>> {
        mus.iter()
            .map(|mu| LoopInputs {
                setpoint: c,
                homogeneous: e,
                heterogeneous: mu.as_ref(),
            })
            .collect()
    }

    /// Runs `form` for two legs on a traced and a traceless copy of
    /// `build()`: the traceless summaries must equal trace-then-summarize
    /// bit for bit on both legs, so controller state advanced identically
    /// too. Returns the first leg's trace as raw bits and its summaries.
    fn assert_traceless_matches_traced(
        at: &str,
        build: &dyn Fn() -> BatchLoop,
        form: BatchInputs<'_>,
        steps: usize,
        warmup: usize,
    ) -> (Vec<u64>, Vec<RunSummary>) {
        let (mut traced, mut traceless) = (build(), build());
        let mut first = None;
        for leg in 0..2 {
            let trace = traced.run(form, steps, TraceSink::default());
            let want = trace.summarize_after(form, warmup);
            let got = traceless.run(form, steps, SummarySink::with_warmup(warmup));
            assert_eq!(got.len(), traced.len(), "{at}");
            assert_eq!(summary_bits(&got), summary_bits(&want), "{at} leg {leg}");
            if leg == 0 {
                let bits = [&trace.tau, &trace.delta, &trace.lro]
                    .iter()
                    .flat_map(|v| v.iter().map(|x| x.to_bits()))
                    .collect();
                first = Some((bits, got));
            }
        }
        first.unwrap()
    }

    /// The traceless path must produce the same bits as running the
    /// traced engine and summarizing after the fact — across blocked
    /// lanes, scalar tails, faulted and hardened lanes, with and without
    /// a warmup window.
    #[test]
    fn traceless_summaries_match_trace_then_summarize_bitwise() {
        let c = constant(64.0);
        let e = |n: i64| 6.5 * (std::f64::consts::TAU * n as f64 / 110.0).sin();
        let lanes = summary_bank().len();
        let mus: Vec<Seq> = (0..lanes)
            .map(|k| Box::new(step_at(20 + k as i64, k as f64 - 4.0)) as Seq)
            .collect();
        let inputs = per_lane(&c, &e, &mus);
        for steps in [0usize, 700] {
            for warmup in [0usize, 150] {
                let at = format!("steps {steps} warmup {warmup}");
                assert_traceless_matches_traced(
                    &at,
                    &summary_bank,
                    (&inputs).into(),
                    steps,
                    warmup,
                );
            }
        }
    }

    /// The static-μ input form must produce the same bits as per-lane
    /// `constant(μ)` closures through the general path — across blocked
    /// lanes, scalar tails, a faulted lane, and a warmup window.
    #[test]
    fn static_mu_summaries_match_constant_closures_bitwise() {
        let c = constant(64.0);
        let e = |n: i64| 9.0 * (std::f64::consts::TAU * n as f64 / 140.0).sin();
        let lanes = summary_bank().len();
        let mus: Vec<f64> = (0..lanes).map(|k| 0.37 * k as f64 - 5.1).collect();
        let constants: Vec<Seq> = mus.iter().map(|&m| Box::new(constant(m)) as Seq).collect();
        let closures = per_lane(&c, &e, &constants);
        let statics = BatchInputs::StaticMu {
            setpoint: &c,
            homogeneous: &e,
            mu: &mus,
        };
        for steps in [0usize, 700] {
            for warmup in [0usize, 150] {
                let at = format!("steps {steps} warmup {warmup}");
                let (want_trace, want) = assert_traceless_matches_traced(
                    &at,
                    &summary_bank,
                    (&closures).into(),
                    steps,
                    warmup,
                );
                let (got_trace, got) =
                    assert_traceless_matches_traced(&at, &summary_bank, statics, steps, warmup);
                assert_eq!(got_trace, want_trace, "{at}: trace");
                assert_eq!(summary_bits(&got), summary_bits(&want), "{at}: summaries");
            }
        }
    }

    /// Empty batches summarize to nothing, and zero steps give every lane
    /// an empty summary, in both input forms. A lane's summary reads its
    /// set-point at the last period, `c[steps − 1]`: the pre-start `c[−1]`
    /// for a zero-step run.
    #[test]
    fn summaries_of_empty_batches_and_zero_steps() {
        let c = constant(64.0);
        let zero = constant(0.0);
        let empty_mu = BatchInputs::StaticMu {
            setpoint: &c,
            homogeneous: &zero,
            mu: &[],
        };
        for form in [BatchInputs::PerLane(&[]), empty_mu] {
            for steps in [0usize, 100] {
                let at = format!("empty batch, steps {steps}");
                let (trace, got) =
                    assert_traceless_matches_traced(&at, &BatchLoop::new, form, steps, 0);
                assert!(trace.is_empty() && got.is_empty(), "{at}");
            }
        }
        // c[−1] = 63, c[0..99] = 64, c[99] = 65.
        let c = |n: i64| match n {
            ..=-1 => 63.0,
            99 => 65.0,
            _ => 64.0,
        };
        let lanes = summary_bank().len();
        let mus = vec![0.0; lanes];
        let zeros: Vec<Seq> = mus.iter().map(|&m| Box::new(constant(m)) as Seq).collect();
        let closures = per_lane(&c, &zero, &zeros);
        let statics = BatchInputs::StaticMu {
            setpoint: &c,
            homogeneous: &zero,
            mu: &mus,
        };
        for form in [(&closures).into(), statics] {
            for warmup in [0usize, 50, 150] {
                let at = format!("zero steps, warmup {warmup}");
                let (_, s) = assert_traceless_matches_traced(&at, &summary_bank, form, 0, warmup);
                assert_eq!(s.len(), lanes, "{at}");
                assert!(
                    s.iter().all(|x| x.setpoint == 63.0
                        && x.samples == 0
                        && x.mean_period == 0.0
                        && x.required_margin() == 0.0
                        && x.last_lro.is_nan()),
                    "{at}"
                );
                if warmup < 100 {
                    let at = format!("100 steps, warmup {warmup}");
                    let (_, s) =
                        assert_traceless_matches_traced(&at, &summary_bank, form, 100, warmup);
                    assert!(
                        s.iter()
                            .all(|x| x.setpoint == 65.0 && x.samples == 100 - warmup as u64),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn summaries_run_lands_on_its_own_span_and_shares_lane_counters() {
        let t = Telemetry::enabled();
        t.enable_tracing();
        let mut batch = BatchLoop::new().with_telemetry(t.clone());
        for _ in 0..BLOCK_WIDTH + 1 {
            batch.push(1, Controller::free(64), Quantization::None);
        }
        let c = constant(64.0);
        let zero = constant(0.0);
        let inputs: Vec<LoopInputs<'_>> = (0..BLOCK_WIDTH + 1)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &zero,
                heterogeneous: &zero,
            })
            .collect();
        let _ = batch.run(&inputs, 40, SummarySink::default());
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("batch.controller_steps"),
            Some(((BLOCK_WIDTH + 1) * 40) as u64)
        );
        assert!(t
            .trace_spans()
            .iter()
            .any(|s| s.name == "engine.batch.summaries"));
    }

    /// Enough same-scheme lanes to fill whole blocks *and* leave a tail:
    /// every one must match its scalar twin and the lockstep bank runner.
    #[test]
    fn full_blocks_and_tail_match_scalar_engines_bitwise() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 5.5 * (std::f64::consts::TAU * n as f64 / 90.0).sin();
        let steps = 600;
        // 2 full int-IIR blocks + 3-lane tail, plus a teatime block tail.
        let lanes = 2 * BLOCK_WIDTH + 3;
        let mut batch = BatchLoop::new();
        let mut mus: Vec<Box<dyn Fn(i64) -> f64>> = Vec::new();
        for k in 0..lanes {
            batch.push(
                k % 3,
                Controller::int_iir(&cfg, 64).unwrap(),
                Quantization::Floor,
            );
            mus.push(Box::new(step_at(10 + k as i64, k as f64 - 6.0)));
        }
        for k in 0..3 {
            batch.push(1, Controller::teatime(64, 1.0), Quantization::Floor);
            mus.push(Box::new(step_at(15, 2.0 * k as f64)));
        }
        let mut bank = batch.bank().clone();
        let inputs: Vec<LoopInputs<'_>> = mus
            .iter()
            .map(|mu| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: mu.as_ref(),
            })
            .collect();
        let got = batch.run(&inputs, steps, TraceSink::default());
        let want = lockstep(&mut bank, &inputs, steps);
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(
                got.lane(k),
                want[k],
                "lane {k} diverged from the bank runner"
            );
            let m = if k < lanes { k % 3 } else { 1 };
            let ctrl = if k < lanes {
                IntIirControl::new(cfg.clone(), 64).unwrap().into()
            } else {
                Controller::teatime(64, 1.0)
            };
            let twin = reference(m, ctrl, Quantization::Floor, input, steps);
            assert_eq!(got.lane(k), twin, "lane {k} diverged from its twin");
        }
    }

    #[test]
    fn reset_reruns_identically() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let zero = constant(0.0);
        let mu = step_at(5, 3.0);
        let inputs = [LoopInputs {
            setpoint: &c,
            homogeneous: &zero,
            heterogeneous: &mu,
        }];
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            Controller::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        let first = batch.run(&inputs, 200, TraceSink::default());
        batch.reset();
        let second = batch.run(&inputs, 200, TraceSink::default());
        assert_eq!(first, second);
    }

    /// Back-to-back runs without a reset must continue from the blocked
    /// engine's written-back controller state exactly like the bank
    /// runner does from its in-place state.
    #[test]
    fn controller_state_write_back_chains_runs() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 4.0 * (std::f64::consts::TAU * n as f64 / 70.0).sin();
        let zero = constant(0.0);
        let lanes = BLOCK_WIDTH + 1;
        let mut batch = BatchLoop::new();
        for _ in 0..lanes {
            batch.push(
                1,
                Controller::float_iir(&cfg, 64.0).unwrap(),
                Quantization::None,
            );
        }
        let mut bank = batch.bank().clone();
        let inputs: Vec<LoopInputs<'_>> = (0..lanes)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let _ = batch.run(&inputs, 150, TraceSink::default());
        let _ = lockstep(&mut bank, &inputs, 150);
        // Second leg: must pick up where the first left off, bit for bit.
        let got = batch.run(&inputs, 150, TraceSink::default());
        let want = lockstep(&mut bank, &inputs, 150);
        for (k, w) in want.iter().enumerate() {
            assert_eq!(&got.lane(k), w, "lane {k}");
        }
    }

    #[test]
    fn faulted_lanes_match_faulted_discrete_loops_bitwise() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 8.0 * (std::f64::consts::TAU * n as f64 / 200.0).sin();
        let zero = constant(0.0);
        let steps = 3000;
        for class in FaultClass::ALL {
            let schedule = FaultSchedule::random(41, class, 4.0, steps as u64, 3);
            assert!(!schedule.is_empty(), "{}", class.label());
            for resilience in [Resilience::default(), Resilience::hardened(64.0)] {
                let inputs = LoopInputs {
                    setpoint: &c,
                    homogeneous: &e,
                    heterogeneous: &zero,
                };
                let want = DiscreteLoop::new(
                    1,
                    IntIirControl::new(cfg.clone(), 64).unwrap(),
                    Quantization::Floor,
                )
                .with_faults(schedule.clone())
                .with_resilience(resilience)
                .run(&inputs, steps);
                let mut batch = BatchLoop::new();
                batch.push_with(
                    1,
                    Controller::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                    schedule.clone(),
                    resilience,
                );
                let got = batch.run(std::slice::from_ref(&inputs), steps, TraceSink::default());
                let got = got.lane(0);
                for k in 0..steps {
                    assert_eq!(
                        got.tau[k].to_bits(),
                        want.tau[k].to_bits(),
                        "{} res={} k={k}",
                        class.label(),
                        resilience.canonical_id()
                    );
                    assert_eq!(got.lro[k].to_bits(), want.lro[k].to_bits());
                }
            }
        }
    }

    /// A faulted lane sandwiched between clean blockable lanes must not
    /// perturb them (and vice versa): the blocked engine pulls it onto the
    /// scalar path while the neighbours stay blocked.
    #[test]
    fn faulted_lane_between_blocked_lanes_stays_isolated() {
        use crate::resilience::Resilience;
        use clock_faults::{FaultClass, FaultSchedule};

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 7.0 * (std::f64::consts::TAU * n as f64 / 130.0).sin();
        let zero = constant(0.0);
        let steps = 1200;
        let schedule = FaultSchedule::random(9, FaultClass::ClockGlitch, 6.0, steps as u64, 3);
        let mut batch = BatchLoop::new();
        let total = BLOCK_WIDTH + 3;
        let faulted_at = BLOCK_WIDTH / 2;
        for k in 0..total {
            if k == faulted_at {
                batch.push_with(
                    1,
                    Controller::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                    schedule.clone(),
                    Resilience::hardened(64.0),
                );
            } else {
                batch.push(
                    1,
                    Controller::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                );
            }
        }
        let inputs: Vec<LoopInputs<'_>> = (0..total)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &zero,
            })
            .collect();
        let got = batch.run(&inputs, steps, TraceSink::default());
        let clean_twin = reference(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap().into(),
            Quantization::Floor,
            &inputs[0],
            steps,
        );
        let faulted_twin = DiscreteLoop::new(
            1,
            IntIirControl::new(cfg.clone(), 64).unwrap(),
            Quantization::Floor,
        )
        .with_faults(schedule)
        .with_resilience(Resilience::hardened(64.0))
        .run(&inputs[faulted_at], steps);
        for k in 0..total {
            let want = if k == faulted_at {
                &faulted_twin
            } else {
                &clean_twin
            };
            assert_eq!(&got.lane(k), want, "lane {k} diverged");
        }
    }

    #[test]
    fn empty_schedule_and_default_resilience_stay_bit_identical_to_plain_push() {
        use crate::resilience::Resilience;
        use clock_faults::FaultSchedule;

        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 5.0 * (std::f64::consts::TAU * n as f64 / 120.0).sin();
        let mu = step_at(30, -6.0);
        let inputs = [
            LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            },
            LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: &mu,
            },
        ];
        let mut batch = BatchLoop::new();
        batch.push(
            1,
            Controller::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
        );
        batch.push_with(
            1,
            Controller::int_iir(&cfg, 64).unwrap(),
            Quantization::Floor,
            FaultSchedule::new(3),
            Resilience::default(),
        );
        let tr = batch.run(&inputs, 600, TraceSink::default());
        assert_eq!(tr.lane(0), tr.lane(1));
    }

    #[test]
    fn concat_recombines_lane_chunks_exactly() {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 3.0 * (std::f64::consts::TAU * n as f64 / 55.0).sin();
        let steps = 300;
        let total = 11usize;
        let build = |range: std::ops::Range<usize>| {
            let mut b = BatchLoop::new();
            let mus: Vec<Box<dyn Fn(i64) -> f64>> = range
                .clone()
                .map(|k| Box::new(step_at(8, k as f64)) as Box<dyn Fn(i64) -> f64>)
                .collect();
            for k in range {
                let (m, q) = (k % 3, Quantization::Floor);
                b.push(m, Controller::int_iir(&cfg, 64).unwrap(), q);
            }
            let inputs: Vec<LoopInputs<'_>> = mus
                .iter()
                .map(|mu| LoopInputs {
                    setpoint: &c,
                    homogeneous: &e,
                    heterogeneous: mu.as_ref(),
                })
                .collect();
            b.run(&inputs, steps, TraceSink::default())
        };
        let whole = build(0..total);
        let parts = [build(0..4), build(4..9), build(9..total)];
        let merged = BatchTrace::concat(&parts);
        assert_eq!(merged, whole);
        assert_eq!(merged.lanes(), total);
        assert_eq!(merged.steps(), steps);
    }

    #[test]
    fn telemetry_counts_lane_steps_and_block_shape() {
        let t = Telemetry::enabled();
        let mut batch = BatchLoop::new().with_telemetry(t.clone());
        // One full free-running block + a 3-lane tail.
        for _ in 0..BLOCK_WIDTH + 3 {
            batch.push(1, Controller::free(64), Quantization::None);
        }
        let c = constant(64.0);
        let zero = constant(0.0);
        let inputs: Vec<LoopInputs<'_>> = (0..BLOCK_WIDTH + 3)
            .map(|_| LoopInputs {
                setpoint: &c,
                homogeneous: &zero,
                heterogeneous: &zero,
            })
            .collect();
        let _ = batch.run(&inputs, 50, TraceSink::default());
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("batch.controller_steps"),
            Some(((BLOCK_WIDTH + 3) * 50) as u64)
        );
        assert_eq!(snap.counter("batch.blocks"), Some(1));
        assert_eq!(snap.counter("batch.scalar_tail_lanes"), Some(3));
    }
}
