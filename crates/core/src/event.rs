//! Event-driven simulation engine with a continuous-time CDN.
//!
//! The discrete loop of [`crate::loopsim`] fixes the CDN delay at a whole
//! number of periods. Physically, though, the CDN is a fixed *time* delay
//! `t_clk`, so its depth in periods varies with the instantaneous clock
//! period — `M[n] = t_clk / T_clk[n]`, as the paper's Fig. 4 caption
//! states. This engine tracks absolute clock-edge times:
//!
//! 1. the generator emits edge `k` at `t_k` and the next at
//!    `t_{k+1} = t_k + T_gen(t_k)` where `T_gen` comes from the RO model
//!    (or a constant for the fixed-clock baseline);
//! 2. the period between delivered edges `k` and `k+1` is measured by the
//!    TDC bank at `t_meas = t_{k+1} + t_clk`, producing the worst reading
//!    `τ_k` under the local conditions *at measurement time*;
//! 3. the control block turns `δ_k = c − τ_k` into a new RO length that
//!    becomes effective at the first generation edge after
//!    `t_meas + T_k` (one further period of control/register latency,
//!    mirroring the `z⁻¹` blocks of the discrete model).
//!
//! For a constant period `T` and `t_clk = M·T` this reduces exactly to the
//! discrete loop (cross-validated in the tests).
//!
//! [`EventLoop::run`] hands every measured period to a [`Sink`], as
//! [`crate::batch::BatchLoop::run`] does: a [`TraceSink`] records a
//! [`RunTrace`] (optionally skipping a warm-up without storing it), a
//! [`SummarySink`] folds the run into a [`RunSummary`] without recording
//! it. One loop body serves both, so the two are bit-identical. The same
//! body also runs one sink per sensor for
//! [`System::run_offsets`](crate::system::System::run_offsets): an
//! open-loop scheme's edges and `e(t)` are computed once for several
//! static mismatches.

use std::collections::VecDeque;

use clock_telemetry::{Counter, Event as TelemetryEvent, Telemetry};
use variation::rng::{SplitMix64, PHI};
use variation::sources::Waveform;

use crate::cdn::Cdn;
use crate::controller::Controller;
use crate::error::Error;
use crate::ro::{RingOscillator, RoBounds};
use crate::system::{Fold, RunSummary, RunTrace};
use crate::tdc::{worst_of, SensorBank, Tdc};

/// Cycle-to-cycle period jitter of the generator (RO phase noise).
///
/// Jitter is *unpredictable* by construction, so no control loop can adapt
/// to it — it sets a margin floor that adaptation cannot reclaim. Samples
/// are a pure function of `(seed, edge index)` (a hash feeding an
/// Irwin–Hall approximate Gaussian), so runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodJitter {
    /// Standard deviation of the per-edge period perturbation (stages).
    pub sigma: f64,
    /// Seed decorrelating different runs.
    pub seed: u64,
}

impl PeriodJitter {
    /// Jitter with the given sigma and seed.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidNoise`] if `sigma` is negative or non-finite.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, Error> {
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(Error::InvalidNoise { sigma });
        }
        Ok(PeriodJitter { sigma, seed })
    }

    /// The jitter sample for generation edge `k` (zero-mean, ≈ Gaussian,
    /// bounded by `±6σ`).
    pub fn sample(&self, k: u64) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        // splitmix64 stream seeded per edge
        self.sigma * SplitMix64::new(self.seed ^ k.wrapping_mul(PHI)).normal()
    }
}

/// What generates the raw clock period.
pub enum Generator {
    /// A ring oscillator: the period tracks local variation.
    Ro(RingOscillator),
    /// A fixed (PLL-style) source: the period ignores variation.
    Fixed {
        /// The constant generated period, in stage units.
        period: f64,
    },
}

impl std::fmt::Debug for Generator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Generator::Ro(ro) => f.debug_tuple("Ro").field(ro).finish(),
            Generator::Fixed { period } => f.debug_struct("Fixed").field("period", period).finish(),
        }
    }
}

/// One recorded delivered-period sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Measurement completion time (stage units).
    pub time: f64,
    /// Generated period of this cycle.
    pub period: f64,
    /// Worst TDC reading.
    pub tau: f64,
    /// Adaptation error `c − τ`.
    pub delta: f64,
    /// RO length in effect when the cycle was generated.
    pub lro: f64,
}

/// The event-driven closed loop.
pub struct EventLoop {
    setpoint: f64,
    generator: Generator,
    cdn: Cdn,
    sensors: SensorBank,
    controller: Option<Controller>,
    jitter: Option<PeriodJitter>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("setpoint", &self.setpoint)
            .field("generator", &self.generator)
            .field("cdn", &self.cdn)
            .field("controlled", &self.controller.is_some())
            .finish()
    }
}

struct PendingMeasurement {
    t_meas: f64,
    period: f64,
    lro: f64,
}

struct PendingUpdate {
    effective_at: f64,
    length: f64,
}

impl EventLoop {
    /// Assemble a loop. Pass `controller: None` for uncontrolled schemes
    /// (free-running RO or fixed clock).
    pub fn new(
        setpoint: i64,
        generator: Generator,
        cdn: Cdn,
        sensors: SensorBank,
        controller: Option<Controller>,
    ) -> Self {
        EventLoop {
            setpoint: setpoint as f64,
            generator,
            cdn,
            sensors,
            controller,
            jitter: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach cycle-to-cycle period jitter to the generator.
    #[must_use]
    pub fn with_jitter(mut self, jitter: PeriodJitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Attach an instrumentation handle. A disabled handle (the default)
    /// keeps the run path free of any recording work.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn generated_period<W: Waveform + ?Sized>(&self, e: &W, t: f64) -> f64 {
        match &self.generator {
            Generator::Ro(ro) => ro.period_at(e, t),
            Generator::Fixed { period } => *period,
        }
    }

    fn ro_bounds(&self) -> Option<RoBounds> {
        match &self.generator {
            Generator::Ro(ro) => Some(ro.bounds()),
            Generator::Fixed { .. } => None,
        }
    }

    /// The worst (lowest) reading of `sensors` for measurement `m`, with
    /// `e_t = e(m.t_meas)`. An observed run reads sensor by sensor:
    /// non-finite readings are excluded from the worst-case reduction and
    /// reported as dropouts (`reduce(f64::min)` skips NaN the same way, so
    /// the resulting τ is unchanged).
    fn worst_reading(
        &self,
        sensors: &[Tdc],
        m: &PendingMeasurement,
        e_t: f64,
        observed: bool,
        c_dropouts: &Counter,
    ) -> f64 {
        if !observed {
            return worst_of(sensors, m.period, e_t, m.t_meas)
                .expect("sensor bank validated non-empty at build time");
        }
        let mut worst = f64::NAN;
        for (idx, s) in sensors.iter().enumerate() {
            let r = s.read(m.period, e_t, m.t_meas);
            if r.is_finite() {
                worst = if worst.is_nan() { r } else { worst.min(r) };
            } else {
                c_dropouts.inc();
                self.telemetry.emit(
                    m.t_meas,
                    TelemetryEvent::SensorDropout { sensor: idx as u64 },
                );
            }
        }
        assert!(
            !sensors.is_empty(),
            "sensor bank validated non-empty at build time"
        );
        worst
    }

    /// Simulate until `n_samples` delivered periods have been measured,
    /// under homogeneous variation `e`, and hand every measured period to
    /// `sink`: a [`TraceSink`] returns the recorded [`RunTrace`], a
    /// [`SummarySink`] the folded [`RunSummary`]. Per-sensor heterogeneous
    /// variation lives inside the [`SensorBank`].
    ///
    /// The loop body is shared by every sink, so the loop state — and with
    /// it every sample, counter and telemetry event — advances identically
    /// whichever sink is used; only the destination of the samples differs.
    pub fn run<W: Waveform + ?Sized, S: Sink>(
        &mut self,
        e: &W,
        n_samples: usize,
        mut sink: S,
    ) -> S::Output {
        let mut run_scope = self.telemetry.scope("engine.core");
        run_scope.attr("samples", n_samples);
        let observed = self.telemetry.is_enabled();
        let c_samples = self.telemetry.counter("core.samples");
        let c_steps = self.telemetry.counter("core.controller_steps");
        let c_violations = self.telemetry.counter("core.timing_violations");
        let c_saturations = self.telemetry.counter("core.ro_saturations");
        let c_dropouts = self.telemetry.counter("core.sensor_dropouts");
        let lanes = sink.lanes();
        assert!(
            lanes == 1 || lanes == self.sensors.len(),
            "a multi-lane sink takes one lane per sensor"
        );
        sink.begin(self.setpoint, n_samples);
        let mut recorded = 0usize;
        let mut meas: VecDeque<PendingMeasurement> = VecDeque::new();
        let mut updates: VecDeque<PendingUpdate> = VecDeque::new();
        let bounds = self.ro_bounds();
        let mut t = 0.0f64;
        // Hard cap on generated edges so a mis-tuned loop cannot spin
        // forever waiting for measurements.
        let max_edges = n_samples * 8 + 1024;
        for edge in 0..max_edges as u64 {
            if recorded >= n_samples {
                break;
            }
            // 1. Process measurements completed by now.
            while meas
                .front()
                .is_some_and(|m| m.t_meas <= t && recorded < n_samples)
            {
                let m = meas.pop_front().expect("front checked");
                // One evaluation of `e` serves every sensor and every lane.
                let e_t = e.value(m.t_meas);
                let mut delta = f64::NAN;
                for lane in 0..lanes {
                    let sensors = match lanes {
                        1 => self.sensors.as_slice(),
                        _ => &self.sensors.as_slice()[lane..=lane],
                    };
                    let tau = self.worst_reading(sensors, &m, e_t, observed, &c_dropouts);
                    delta = self.setpoint - tau;
                    c_samples.inc();
                    if delta > 0.0 {
                        c_violations.inc();
                        if observed && tau.is_finite() {
                            self.telemetry.emit(
                                m.t_meas,
                                TelemetryEvent::TimingViolation {
                                    tau,
                                    setpoint: self.setpoint,
                                    margin: delta,
                                },
                            );
                        }
                    }
                    sink.lane_sample(
                        lane,
                        recorded,
                        &Sample {
                            time: m.t_meas,
                            period: m.period,
                            tau,
                            delta,
                            lro: m.lro,
                        },
                    );
                }
                recorded += 1;
                // Several lanes share one controller only when it does not
                // read τ (`System::run_offsets`); it steps once here, and
                // the step counters count one step per lane, as separate
                // per-lane runs would.
                if let Some(ctrl) = self.controller.as_mut() {
                    let requested = ctrl.step(delta);
                    c_steps.add(lanes as u64);
                    let mut next = requested;
                    if let Some(b) = bounds {
                        let rounded = requested.round() as i64;
                        let clamped = b.clamp(rounded);
                        if clamped != rounded {
                            c_saturations.add(lanes as u64);
                            if observed && requested.is_finite() {
                                self.telemetry.emit(
                                    m.t_meas,
                                    TelemetryEvent::RoSaturation {
                                        requested,
                                        clamped: clamped as f64,
                                    },
                                );
                            }
                        }
                        next = clamped as f64;
                    }
                    if observed && next != m.lro && next.is_finite() && delta.is_finite() {
                        self.telemetry.emit(
                            m.t_meas,
                            TelemetryEvent::ControllerUpdate {
                                delta,
                                length: next,
                            },
                        );
                    }
                    updates.push_back(PendingUpdate {
                        effective_at: m.t_meas + m.period,
                        length: next,
                    });
                }
            }
            // 2. Apply control updates that have propagated back.
            while updates.front().is_some_and(|u| u.effective_at <= t) {
                let u = updates.pop_front().expect("front checked");
                if let Generator::Ro(ro) = &mut self.generator {
                    ro.set_length(u.length.round() as i64);
                }
            }
            // 3. Emit the next clock edge.
            let lro_now = match &self.generator {
                Generator::Ro(ro) => ro.length() as f64,
                Generator::Fixed { period } => *period,
            };
            let mut period = self.generated_period(e, t);
            if let Some(j) = self.jitter {
                period = (period + j.sample(edge)).max(1.0);
            }
            let t_next = t + period;
            meas.push_back(PendingMeasurement {
                t_meas: self.cdn.delivery_time(t_next),
                period,
                lro: lro_now,
            });
            t = t_next;
        }
        sink.finish()
    }
}

pub(crate) mod sealed {
    /// Seals [`Sink`](super::Sink): the engine hooks are an internal
    /// protocol, so only the sinks defined in this crate exist.
    pub trait Sealed {}
}

/// Where an [`EventLoop::run`] sends each measured period, and what the run
/// returns. The loop body is generic over the sink, so a recorded and a
/// folded run share one code path — every sample, and therefore every
/// recorded or summarized bit, is common by construction; only the
/// destination differs.
///
/// The trait is sealed: [`TraceSink`], [`SummarySink`] and the pipeline
/// scorer ([`crate::pipeline::PipelineSink`]) are the only sinks. The
/// `#[doc(hidden)]` methods are the engine's side of the protocol and are
/// not meant to be called directly.
pub trait Sink: sealed::Sealed {
    /// What [`EventLoop::run`] returns with this sink.
    type Output;

    /// How many lanes the sink takes: 1 for a sink of the bank's worst
    /// reading, or one lane per sensor, each fed by that sensor alone.
    #[doc(hidden)]
    fn lanes(&self) -> usize {
        1
    }

    /// Prepare for a run of up to `n_samples` periods against `setpoint`.
    /// Called once per run, before the first sample.
    #[doc(hidden)]
    fn begin(&mut self, setpoint: f64, n_samples: usize);

    /// Consume measured period number `index` (0-based, in order).
    #[doc(hidden)]
    fn sample(&mut self, index: usize, sample: &Sample);

    /// Consume measured period number `index` of `lane`; a one-lane sink
    /// has only lane 0.
    #[doc(hidden)]
    #[inline]
    fn lane_sample(&mut self, _lane: usize, index: usize, sample: &Sample) {
        self.sample(index, sample);
    }

    /// Hand back the run's result.
    #[doc(hidden)]
    fn finish(self) -> Self::Output;
}

/// The recording sink: keeps every period from `warmup` on in a
/// [`RunTrace`]. The warm-up periods are stepped but never stored, so a
/// post-warm-up trace is recorded once instead of being recorded in full
/// and then copied by [`RunTrace::skip`] (which it equals exactly).
#[derive(Debug, Default)]
pub struct TraceSink {
    warmup: usize,
    setpoint: f64,
    samples: Vec<Sample>,
}

impl TraceSink {
    /// A trace sink that records only the periods from `warmup` on.
    pub fn with_warmup(warmup: usize) -> TraceSink {
        TraceSink {
            warmup,
            ..TraceSink::default()
        }
    }
}

impl sealed::Sealed for TraceSink {}

impl Sink for TraceSink {
    type Output = RunTrace;

    fn begin(&mut self, setpoint: f64, n_samples: usize) {
        self.setpoint = setpoint;
        self.samples = Vec::with_capacity(n_samples.saturating_sub(self.warmup));
    }

    #[inline]
    fn sample(&mut self, index: usize, sample: &Sample) {
        if index >= self.warmup {
            self.samples.push(*sample);
        }
    }

    fn finish(self) -> RunTrace {
        RunTrace::from_samples(self.setpoint, self.samples)
    }
}

/// The traceless sink: folds each period from `warmup` on into the six
/// [`RunSummary`] fields and drops it — no trace allocation, no per-period
/// store, for consumers that read a handful of numbers per run (margin
/// sweeps, figures of merit).
///
/// Each period goes through the same [`Fold`] push as [`RunSummary::of`],
/// with the same `c − τ` and `τ − c`, so the result is bit-identical to
/// [`RunSummary::of`] the trace a [`TraceSink`] with the same warm-up
/// records. A warm-up at or past the run's length leaves an empty summary
/// (zero samples, zero statistics, NaN `last_lro`), exactly the summary of
/// an empty trace.
#[derive(Debug)]
pub struct SummarySink {
    warmup: usize,
    setpoint: f64,
    samples: u64,
    fold: Fold,
    last_lro: f64,
}

impl SummarySink {
    /// A summary sink that folds only the periods from `warmup` on.
    pub fn with_warmup(warmup: usize) -> SummarySink {
        SummarySink {
            warmup,
            setpoint: 0.0,
            samples: 0,
            fold: Fold::new(),
            last_lro: f64::NAN,
        }
    }
}

impl sealed::Sealed for SummarySink {}

impl Sink for SummarySink {
    type Output = RunSummary;

    fn begin(&mut self, setpoint: f64, _n_samples: usize) {
        self.setpoint = setpoint;
    }

    #[inline]
    fn sample(&mut self, index: usize, sample: &Sample) {
        if index < self.warmup {
            return;
        }
        self.samples += 1;
        let c = self.setpoint;
        self.fold
            .push(c - sample.tau, sample.tau - c, sample.period);
        self.last_lro = sample.lro;
    }

    fn finish(self) -> RunSummary {
        self.fold.finish(self.setpoint, self.samples, self.last_lro)
    }
}

/// One sink per sensor: lane `i` gets only sensor `i`'s readings. The run
/// steps the loop once for all lanes, so only
/// [`System::run_offsets`](crate::system::System::run_offsets) builds it,
/// for schemes whose controller does not read τ — there each lane equals
/// a separate run with that sensor alone, bit for bit.
pub(crate) struct Lanes<S>(pub(crate) Vec<S>);

impl<S> sealed::Sealed for Lanes<S> {}

impl<S: Sink> Sink for Lanes<S> {
    type Output = Vec<S::Output>;

    fn lanes(&self) -> usize {
        self.0.len()
    }

    fn begin(&mut self, setpoint: f64, n_samples: usize) {
        for sink in &mut self.0 {
            sink.begin(setpoint, n_samples);
        }
    }

    fn sample(&mut self, index: usize, sample: &Sample) {
        self.lane_sample(0, index, sample);
    }

    #[inline]
    fn lane_sample(&mut self, lane: usize, index: usize, sample: &Sample) {
        self.0[lane].sample(index, sample);
    }

    fn finish(self) -> Vec<S::Output> {
        self.0.into_iter().map(Sink::finish).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{FloatIir, IirConfig};
    use crate::loopsim::{constant, DiscreteLoop, LoopInputs};
    use crate::tdc::{Quantization, Tdc};
    use variation::sources::{ConstantOffset, Harmonic, NoVariation, SingleEvent};

    /// Every sample of a run, through the recording sink.
    fn record<W: Waveform>(el: &mut EventLoop, e: &W, n: usize) -> Vec<Sample> {
        el.run(e, n, TraceSink::default()).samples().to_vec()
    }

    fn ideal_sensors() -> SensorBank {
        SensorBank::new().with(Tdc::ideal(Quantization::None))
    }

    fn ro(c: i64) -> Generator {
        Generator::Ro(RingOscillator::new(c, RoBounds::around(c)).unwrap())
    }

    #[test]
    fn quiescent_loop_stays_at_setpoint() {
        let mut el = EventLoop::new(
            64,
            ro(64),
            Cdn::new(64.0).unwrap(),
            ideal_sensors(),
            Some(
                FloatIir::from_config(&IirConfig::paper(), 64.0)
                    .unwrap()
                    .into(),
            ),
        );
        let samples = record(&mut el, &NoVariation, 200);
        assert_eq!(samples.len(), 200);
        for s in &samples {
            assert!((s.tau - 64.0).abs() < 1e-9, "τ = {}", s.tau);
            assert!(s.delta.abs() < 1e-9);
            assert_eq!(s.period, 64.0);
        }
        // time advances by one period per sample
        assert!((samples[10].time - samples[9].time - 64.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_clock_fully_exposed_to_variation() {
        let mut el = EventLoop::new(
            64,
            Generator::Fixed { period: 64.0 },
            Cdn::new(64.0).unwrap(),
            ideal_sensors(),
            None,
        );
        let amp = 12.8;
        let e = Harmonic::new(amp, 64.0 * 50.0, 0.0);
        let samples = record(&mut el, &e, 4000);
        let worst = samples.iter().map(|s| -s.delta).fold(f64::MAX, f64::min);
        let best = samples.iter().map(|s| -s.delta).fold(f64::MIN, f64::max);
        // τ - c swings the full ±amp
        assert!(worst < -0.95 * amp, "min(τ-c) = {worst}");
        assert!(best > 0.95 * amp, "max(τ-c) = {best}");
    }

    #[test]
    fn free_ro_tracks_slow_variation() {
        let mut el = EventLoop::new(64, ro(64), Cdn::new(64.0).unwrap(), ideal_sensors(), None);
        let amp = 12.8;
        // slow variation: Te = 200c
        let e = Harmonic::new(amp, 64.0 * 200.0, 0.0);
        let samples = record(&mut el, &e, 4000);
        let worst = samples.iter().map(|s| s.delta.abs()).fold(0.0f64, f64::max);
        // Eq. 2 with t_clk/Te = 1/200 plus the ~2-period pipeline skew:
        // mismatch ≈ 2·amp·sin(π·3/200) ≈ 1.2; far below the raw amplitude.
        assert!(worst < 2.0, "worst |δ| = {worst}");
        assert!(worst > 0.05, "some residual mismatch must remain");
    }

    #[test]
    fn free_ro_fails_fast_variation_as_eq2_predicts() {
        // At t_clk = Te/2 the induced mismatch doubles the perturbation.
        let c = 64.0;
        let te = 4.0 * c; // fast variation
        let t_clk = 2.0 * c; // = Te/2
        let mut el = EventLoop::new(64, ro(64), Cdn::new(t_clk).unwrap(), ideal_sensors(), None);
        let amp = 6.4;
        let e = Harmonic::new(amp, te, 0.0);
        let samples = record(&mut el, &e, 6000);
        let worst = samples
            .iter()
            .skip(100)
            .map(|s| s.delta.abs())
            .fold(0.0f64, f64::max);
        // Eq. 2 with the effective loop skew T + t_clk = 3c over Te = 4c:
        // 2·amp·|sin(3π/4)| ≈ 1.41·amp — well above the raw amplitude.
        assert!(
            worst > 1.2 * amp,
            "worst |δ| = {worst}, expected ≈ {}",
            1.41 * amp
        );
    }

    #[test]
    fn iir_loop_compensates_static_mismatch() {
        let sensors =
            SensorBank::new().with(Tdc::new(ConstantOffset::new(-10.0), Quantization::None));
        let mut el = EventLoop::new(
            64,
            ro(64),
            Cdn::new(64.0).unwrap(),
            sensors,
            Some(
                FloatIir::from_config(&IirConfig::paper(), 64.0)
                    .unwrap()
                    .into(),
            ),
        );
        let samples = record(&mut el, &NoVariation, 1500);
        let tail = &samples[1200..];
        for s in tail {
            assert!(s.delta.abs() < 0.5, "δ = {} at t = {}", s.delta, s.time);
        }
        // The RO stretched to cover the mismatch.
        let lro_tail = tail.last().unwrap().lro;
        assert!(
            (lro_tail - 74.0).abs() < 1.5,
            "l_RO settled at {lro_tail}, expected ≈ 74"
        );
    }

    #[test]
    fn worst_of_n_sensors_drives_the_loop() {
        let sensors = SensorBank::new()
            .with(Tdc::new(ConstantOffset::new(0.0), Quantization::None))
            .with(Tdc::new(ConstantOffset::new(-6.0), Quantization::None))
            .with(Tdc::new(ConstantOffset::new(3.0), Quantization::None));
        let mut el = EventLoop::new(
            64,
            ro(64),
            Cdn::new(32.0).unwrap(),
            sensors,
            Some(
                FloatIir::from_config(&IirConfig::paper(), 64.0)
                    .unwrap()
                    .into(),
            ),
        );
        let samples = record(&mut el, &NoVariation, 1500);
        // Loop nulls the WORST sensor: lro -> 70 so that τ_worst = 64.
        let s = samples.last().unwrap();
        assert!((s.lro - 70.0).abs() < 1.5, "l_RO = {}", s.lro);
        assert!(s.delta.abs() < 0.5);
    }

    #[test]
    fn matches_discrete_loop_when_period_locked() {
        // Uncontrolled free RO + integer t_clk multiples: the event engine
        // must agree with the discrete fixed-M loop sample-for-sample.
        let c = 64i64;
        let m = 2usize;
        let te = 37.5 * c as f64;
        // Use a LOW amplitude so the period stays ≈ c and the continuous
        // mapping M = t_clk/T is effectively constant.
        let small_amp = 0.5;
        let mut el = EventLoop::new(
            c,
            ro(c),
            Cdn::new(m as f64 * c as f64).unwrap(),
            ideal_sensors(),
            None,
        );
        let e_wave = Harmonic::new(small_amp, te, 0.0);
        let ev = record(&mut el, &e_wave, 400);

        let mut dl = DiscreteLoop::new(
            m,
            crate::controller::FreeRunning::new(c),
            Quantization::None,
        );
        let cseq = constant(c as f64);
        let zero = constant(0.0);
        // Discrete model samples e at integer periods: e[n] = e(n·c).
        // The event engine samples at slightly drifting times because the
        // period wobbles by ±0.5 stages; tolerance accounts for that.
        let e_seq = move |n: i64| Harmonic::new(small_amp, te, 0.0).value(n as f64 * c as f64);
        let tr = dl.run(
            &LoopInputs {
                setpoint: &cseq,
                homogeneous: &e_seq,
                heterogeneous: &zero,
            },
            400,
        );
        // The event engine's sampling clock drifts slightly (the period
        // wobbles by ±0.5 stages), so compare error *envelopes* rather than
        // demanding sample-exact alignment.
        let worst_ev = ev.iter().map(|s| s.delta.abs()).fold(0.0f64, f64::max);
        let worst_dl = tr.delta.iter().map(|d| d.abs()).fold(0.0f64, f64::max);
        assert!(
            (worst_ev - worst_dl).abs() < 0.1 * worst_dl.max(0.05),
            "event {worst_ev} vs discrete {worst_dl}"
        );
    }

    #[test]
    fn jitter_samples_are_deterministic_and_calibrated() {
        let j = PeriodJitter::new(2.0, 99).unwrap();
        let j2 = PeriodJitter::new(2.0, 99).unwrap();
        let other = PeriodJitter::new(2.0, 100).unwrap();
        let n = 20_000u64;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut differs = false;
        for k in 0..n {
            let v = j.sample(k);
            assert_eq!(v, j2.sample(k), "same seed must reproduce");
            if (v - other.sample(k)).abs() > 1e-12 {
                differs = true;
            }
            sum += v;
            sum2 += v * v;
        }
        assert!(differs, "different seeds must differ");
        let mean = sum / n as f64;
        let std = (sum2 / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.05, "jitter mean {mean}");
        assert!((std - 2.0).abs() < 0.1, "jitter std {std}");
        assert_eq!(PeriodJitter::new(0.0, 1).unwrap().sample(123), 0.0);
    }

    #[test]
    fn jitter_rejects_bad_sigma() {
        for sigma in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(
                PeriodJitter::new(sigma, 0).is_err(),
                "sigma {sigma} must be rejected"
            );
        }
    }

    #[test]
    fn jitter_sets_margin_floor_no_loop_can_reclaim() {
        // Quiet environment, jittery RO: the IIR loop cannot predict the
        // jitter, so the margin floor scales with sigma.
        let margin_for = |sigma: f64| -> f64 {
            let mut el = EventLoop::new(
                64,
                ro(64),
                Cdn::new(64.0).unwrap(),
                ideal_sensors(),
                Some(
                    FloatIir::from_config(&IirConfig::paper(), 64.0)
                        .unwrap()
                        .into(),
                ),
            )
            .with_jitter(PeriodJitter::new(sigma, 7).unwrap());
            let samples = record(&mut el, &NoVariation, 4000);
            samples
                .iter()
                .skip(500)
                .map(|s| 64.0 - s.tau)
                .fold(0.0f64, f64::max)
        };
        let m0 = margin_for(0.0);
        let m1 = margin_for(1.0);
        let m3 = margin_for(3.0);
        assert!(m0 < 0.01, "no jitter, no margin: {m0}");
        assert!(m1 > 2.0, "σ=1 worst-case margin should be a few σ: {m1}");
        assert!(
            m3 > 2.0 * m1 * 0.8,
            "margin must scale with σ: {m1} -> {m3}"
        );
    }

    #[test]
    fn single_event_droop_with_short_cdn_is_attenuated() {
        // Eq. 3: for t_clk << Tν the free RO sees only 2ν0·t_clk/Tν.
        let c = 64i64;
        let droop = SingleEvent::new(12.8, 6400.0, 32_000.0);
        let mut short = EventLoop::new(c, ro(c), Cdn::new(6.4).unwrap(), ideal_sensors(), None);
        let s1 = record(&mut short, &droop, 2000);
        let worst_short = s1.iter().map(|s| s.delta.abs()).fold(0.0f64, f64::max);
        let mut long = EventLoop::new(c, ro(c), Cdn::new(6400.0).unwrap(), ideal_sensors(), None);
        let s2 = record(&mut long, &droop, 2000);
        let worst_long = s2.iter().map(|s| s.delta.abs()).fold(0.0f64, f64::max);
        assert!(
            worst_short < 0.3 * worst_long,
            "short-CDN worst {worst_short} vs long-CDN worst {worst_long}"
        );
        // long CDN: no attenuation at all (≈ the full droop amplitude)
        assert!(worst_long > 0.9 * 12.8);
    }
}
