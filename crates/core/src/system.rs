//! High-level system assembly: pick a clock generation scheme, a CDN delay
//! and a sensor layout; run it under a variation waveform.
//!
//! This is the crate's main entry point. A [`SystemBuilder`] validates the
//! configuration once; the resulting [`System`] can be run any number of
//! times (each [`System::run`] starts from a pristine equilibrium state, so
//! parameter sweeps are independent and reproducible).

use std::sync::Arc;

use clock_telemetry::Telemetry;
use variation::sources::Waveform;

use crate::cdn::Cdn;
use crate::controller::{FloatIir, FreeRunning, IirConfig, IntIirControl, TeaTime};
use crate::error::Error;
use crate::event::{EventLoop, Generator, Lanes, PeriodJitter, Sample, Sink, TraceSink};
use crate::ro::{Coupling, RingOscillator, RoBounds};
use crate::tdc::{Quantization, SensorBank, Tdc};

/// The clock generation schemes evaluated in the paper's §IV.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Scheme {
    /// Fixed-period (PLL-style) clock — the baseline.
    Fixed,
    /// Free-running ring oscillator with a design-time extra length (its
    /// safety margin, in stages).
    FreeRo {
        /// Extra stages added to the set-point at design time.
        extra_length: i64,
    },
    /// TEAtime sign-increment control.
    TeaTime,
    /// The paper's integer power-of-two IIR control block.
    Iir(IirConfig),
    /// The IIR control block in exact `f64` arithmetic (linear reference).
    IirFloat(IirConfig),
}

impl Scheme {
    /// The paper's IIR scheme with its published gains.
    pub fn iir_paper() -> Self {
        Scheme::Iir(IirConfig::paper())
    }

    /// Short display label, matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Fixed => "Fixed clock",
            Scheme::FreeRo { .. } => "Free RO",
            Scheme::TeaTime => "TEAtime RO",
            Scheme::Iir(_) => "IIR RO",
            Scheme::IirFloat(_) => "IIR RO (float)",
        }
    }

    /// Whether no controller reads τ (the fixed clock and the free RO): the
    /// edges, the periods and `e` at every measurement are then the same
    /// whatever the sensors read, so one run serves several static
    /// mismatches ([`System::run_offsets`]).
    pub fn is_open_loop(&self) -> bool {
        matches!(self, Scheme::Fixed | Scheme::FreeRo { .. })
    }

    /// A canonical, stable serialization of the scheme and every parameter
    /// that affects its arithmetic. Result caches hash this string, so its
    /// format is a compatibility contract: changing it (or the numeric
    /// behaviour behind a given id) must invalidate old cache entries,
    /// which is exactly what a changed string does.
    pub fn canonical_id(&self) -> String {
        match self {
            Scheme::Fixed => "fixed".to_owned(),
            Scheme::FreeRo { extra_length } => format!("free-ro/extra={extra_length}"),
            Scheme::TeaTime => "teatime".to_owned(),
            Scheme::Iir(cfg) => format!("iir/{}", cfg.canonical_id()),
            Scheme::IirFloat(cfg) => format!("iir-float/{}", cfg.canonical_id()),
        }
    }
}

/// Per-sensor specification: a static mismatch offset `μ` plus an optional
/// dynamic mismatch waveform.
#[derive(Clone, Default)]
pub struct SensorSpec {
    /// Static mismatch between this sensor's stages and the RO's stages.
    pub offset: f64,
    /// Additional time-varying local mismatch.
    pub dynamic: Option<Arc<dyn Waveform + Send + Sync>>,
    /// Measurement noise as `(sigma, seed)`, if any.
    pub noise: Option<(f64, u64)>,
}

impl std::fmt::Debug for SensorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorSpec")
            .field("offset", &self.offset)
            .field("has_dynamic", &self.dynamic.is_some())
            .field("noise", &self.noise)
            .finish()
    }
}

impl SensorSpec {
    /// A sensor with only a static offset.
    pub fn offset(offset: f64) -> Self {
        SensorSpec {
            offset,
            dynamic: None,
            noise: None,
        }
    }

    /// Add measurement noise to this sensor.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise = Some((sigma, seed));
        self
    }

    /// An ideal sensor (no mismatch).
    pub fn ideal() -> Self {
        SensorSpec::default()
    }
}

/// Waveform adapter combining a sensor's static offset and dynamic part.
struct SensorMu {
    offset: f64,
    dynamic: Option<Arc<dyn Waveform + Send + Sync>>,
}

impl Waveform for SensorMu {
    fn value(&self, t: f64) -> f64 {
        self.offset + self.dynamic.as_ref().map_or(0.0, |d| d.value(t))
    }
    fn amplitude_bound(&self) -> f64 {
        self.offset.abs() + self.dynamic.as_ref().map_or(0.0, |d| d.amplitude_bound())
    }
}

/// Builder for a validated [`System`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    setpoint: i64,
    t_clk: f64,
    scheme: Scheme,
    bounds: Option<RoBounds>,
    quantization: Quantization,
    sensors: Vec<SensorSpec>,
    jitter: Option<(f64, u64)>,
    coupling: Coupling,
    initial_length: Option<i64>,
    telemetry: Telemetry,
}

impl SystemBuilder {
    /// Start building a system with set-point `c` (stages).
    pub fn new(setpoint: i64) -> Self {
        SystemBuilder {
            setpoint,
            t_clk: setpoint.max(0) as f64,
            scheme: Scheme::iir_paper(),
            bounds: None,
            quantization: Quantization::Floor,
            sensors: vec![SensorSpec::ideal()],
            jitter: None,
            coupling: Coupling::Additive,
            initial_length: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an instrumentation handle; every run of the built system
    /// reports counters and structured events through it. The default
    /// (disabled) handle records nothing.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Clock-distribution delay `t_clk` in stage units (default: `c`, one
    /// nominal period).
    #[must_use]
    pub fn cdn_delay(mut self, t_clk: f64) -> Self {
        self.t_clk = t_clk;
        self
    }

    /// Clock generation scheme (default: the paper's IIR).
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Ring-oscillator length bounds (default: [`RoBounds::around`] the
    /// set-point).
    #[must_use]
    pub fn ro_bounds(mut self, bounds: RoBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// TDC quantization mode (default: floor, i.e. completed stages).
    #[must_use]
    pub fn quantization(mut self, q: Quantization) -> Self {
        self.quantization = q;
        self
    }

    /// Replace the sensor layout (default: one ideal sensor).
    #[must_use]
    pub fn sensors(mut self, sensors: Vec<SensorSpec>) -> Self {
        self.sensors = sensors;
        self
    }

    /// Convenience: one sensor with a static mismatch `μ`.
    #[must_use]
    pub fn single_sensor_mu(self, mu: f64) -> Self {
        self.sensors(vec![SensorSpec::offset(mu)])
    }

    /// Start the RO and the controller from a non-equilibrium length
    /// (default: the set-point, i.e. released-from-reset equilibrium).
    /// Use for cold-start / lock-time studies.
    #[must_use]
    pub fn initial_length(mut self, length: i64) -> Self {
        self.initial_length = Some(length);
        self
    }

    /// Select the variation coupling model for both the RO and the TDCs
    /// (default: additive, the paper's Fig. 4 model).
    #[must_use]
    pub fn coupling(mut self, coupling: Coupling) -> Self {
        self.coupling = coupling;
        self
    }

    /// Add cycle-to-cycle generator period jitter (RO phase noise) of the
    /// given standard deviation, seeded for reproducibility. The sigma is
    /// validated in [`build`](Self::build).
    #[must_use]
    pub fn jitter(mut self, sigma: f64, seed: u64) -> Self {
        self.jitter = Some((sigma, seed));
        self
    }

    /// Validate and produce the system.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSetPoint`], [`Error::InvalidCdnDelay`],
    /// [`Error::InvalidRoBounds`], [`Error::NoSensors`],
    /// [`Error::InvalidNoise`], or an IIR configuration error.
    pub fn build(self) -> Result<System, Error> {
        if self.setpoint <= 0 {
            return Err(Error::InvalidSetPoint {
                value: self.setpoint,
            });
        }
        let cdn = Cdn::new(self.t_clk)?;
        let bounds = match self.bounds {
            Some(b) => {
                // The free RO's design length must also fit the bounds.
                let design_len = match self.scheme {
                    Scheme::FreeRo { extra_length } => self.setpoint + extra_length.max(0),
                    _ => self.setpoint,
                };
                b.validate(self.setpoint)?;
                b.validate(design_len)?;
                b
            }
            None => {
                let design_len = match self.scheme {
                    Scheme::FreeRo { extra_length } => self.setpoint + extra_length.max(0),
                    _ => self.setpoint,
                };
                RoBounds::around(design_len.max(self.setpoint))
            }
        };
        if self.sensors.is_empty() {
            return Err(Error::NoSensors);
        }
        // Validate IIR configs eagerly.
        match &self.scheme {
            Scheme::Iir(cfg) | Scheme::IirFloat(cfg) => cfg.validate()?,
            _ => {}
        }
        if let Some(init) = self.initial_length {
            if init < bounds.min || init > bounds.max {
                return Err(Error::InvalidRoBounds {
                    min: bounds.min,
                    max: bounds.max,
                    setpoint: init,
                });
            }
        }
        // Every noise sigma is validated here, once, so the run path can
        // construct sensors infallibly.
        let jitter = match self.jitter {
            Some((sigma, seed)) => Some(PeriodJitter::new(sigma, seed)?),
            None => None,
        };
        for spec in &self.sensors {
            if let Some((sigma, _)) = spec.noise {
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(Error::InvalidNoise { sigma });
                }
            }
        }
        Ok(System {
            setpoint: self.setpoint,
            cdn,
            scheme: self.scheme,
            bounds,
            quantization: self.quantization,
            sensors: self.sensors,
            jitter,
            coupling: self.coupling,
            initial_length: self.initial_length,
            telemetry: self.telemetry,
        })
    }
}

/// A validated, runnable adaptive (or fixed) clock system.
#[derive(Debug, Clone)]
pub struct System {
    setpoint: i64,
    cdn: Cdn,
    scheme: Scheme,
    bounds: RoBounds,
    quantization: Quantization,
    sensors: Vec<SensorSpec>,
    jitter: Option<PeriodJitter>,
    coupling: Coupling,
    initial_length: Option<i64>,
    telemetry: Telemetry,
}

impl System {
    /// The set-point `c`.
    pub fn setpoint(&self) -> i64 {
        self.setpoint
    }

    /// The CDN delay in stage units.
    pub fn cdn_delay(&self) -> f64 {
        self.cdn.delay()
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    fn sensor_bank(&self, sensors: &[SensorSpec]) -> SensorBank {
        sensors
            .iter()
            .map(|s| {
                let tdc = Tdc::new(
                    SensorMu {
                        offset: s.offset,
                        dynamic: s.dynamic.clone(),
                    },
                    self.quantization,
                )
                .with_coupling(self.coupling);
                match s.noise {
                    Some((sigma, seed)) => tdc
                        .with_noise(sigma, seed)
                        .expect("sigma validated in SystemBuilder::build"),
                    None => tdc,
                }
            })
            .collect()
    }

    fn event_loop(&self, sensors: &[SensorSpec]) -> EventLoop {
        let c = self.setpoint;
        let start = self.initial_length.unwrap_or(c);
        let (generator, controller): (Generator, Option<crate::controller::Controller>) =
            match &self.scheme {
                Scheme::Fixed => (Generator::Fixed { period: c as f64 }, None),
                Scheme::FreeRo { extra_length } => {
                    let len = self.bounds.clamp(c + extra_length);
                    (
                        Generator::Ro(
                            RingOscillator::new(len, self.bounds)
                                .expect("bounds validated at build time")
                                .with_coupling(self.coupling),
                        ),
                        Some(FreeRunning::new(len).into()),
                    )
                }
                Scheme::TeaTime => (
                    Generator::Ro(
                        RingOscillator::new(start, self.bounds)
                            .expect("bounds validated at build time")
                            .with_coupling(self.coupling),
                    ),
                    Some(TeaTime::new(start).into()),
                ),
                Scheme::Iir(cfg) => (
                    Generator::Ro(
                        RingOscillator::new(start, self.bounds)
                            .expect("bounds validated at build time")
                            .with_coupling(self.coupling),
                    ),
                    Some(
                        IntIirControl::new(cfg.clone(), start)
                            .expect("config validated at build time")
                            .into(),
                    ),
                ),
                Scheme::IirFloat(cfg) => (
                    Generator::Ro(
                        RingOscillator::new(start, self.bounds)
                            .expect("bounds validated at build time")
                            .with_coupling(self.coupling),
                    ),
                    Some(
                        FloatIir::from_config(cfg, start as f64)
                            .expect("config validated at build time")
                            .into(),
                    ),
                ),
            };
        let el = EventLoop::new(
            c,
            generator,
            self.cdn,
            self.sensor_bank(sensors),
            controller,
        )
        .with_telemetry(self.telemetry.clone());
        match self.jitter {
            Some(j) => el.with_jitter(j),
            None => el,
        }
    }

    /// Run the system from equilibrium for `n_samples` delivered periods
    /// under homogeneous variation `e`, recording every period.
    pub fn run<W: Waveform + ?Sized>(&self, e: &W, n_samples: usize) -> RunTrace {
        self.run_with(e, n_samples, TraceSink::default())
    }

    /// [`run`](Self::run) into an explicit [`Sink`]: a
    /// [`TraceSink::with_warmup`] records only the post-warm-up periods, a
    /// [`SummarySink`](crate::event::SummarySink) folds the run into a
    /// [`RunSummary`] without recording it.
    pub fn run_with<W: Waveform + ?Sized, S: Sink>(
        &self,
        e: &W,
        n_samples: usize,
        sink: S,
    ) -> S::Output {
        self.event_loop(&self.sensors).run(e, n_samples, sink)
    }

    /// One run for several static mismatches of the system's one sensor:
    /// element `i` equals [`run_with`](Self::run_with) into `sink()` of
    /// this system with the sensor's offset set to `offsets[i]`, bit for
    /// bit. The edges and `e` are computed once for every offset, so this
    /// costs one run plus a small per-offset reading and fold, not
    /// `offsets.len()` runs.
    ///
    /// # Errors
    ///
    /// [`Error::ClosedLoop`] if the scheme's controller reads τ (see
    /// [`Scheme::is_open_loop`]); [`Error::NotOneSensor`] unless the system
    /// has exactly one sensor.
    pub fn run_offsets<W: Waveform + ?Sized, S: Sink>(
        &self,
        e: &W,
        n_samples: usize,
        offsets: &[f64],
        sink: impl Fn() -> S,
    ) -> Result<Vec<S::Output>, Error> {
        if !self.scheme.is_open_loop() {
            return Err(Error::ClosedLoop {
                scheme: self.scheme.label(),
            });
        }
        let [spec] = self.sensors.as_slice() else {
            return Err(Error::NotOneSensor {
                sensors: self.sensors.len(),
            });
        };
        if offsets.is_empty() {
            return Ok(Vec::new());
        }
        let lanes: Vec<SensorSpec> = offsets
            .iter()
            .map(|&offset| SensorSpec {
                offset,
                ..spec.clone()
            })
            .collect();
        let sinks = Lanes(offsets.iter().map(|_| sink()).collect());
        Ok(self.event_loop(&lanes).run(e, n_samples, sinks))
    }
}

/// Recorded run of a [`System`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    setpoint: f64,
    samples: Vec<Sample>,
}

impl RunTrace {
    /// Construct from raw samples (mainly for tests and adapters).
    pub fn from_samples(setpoint: f64, samples: Vec<Sample>) -> Self {
        RunTrace { setpoint, samples }
    }

    /// The set-point the run used.
    pub fn setpoint(&self) -> f64 {
        self.setpoint
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drop the first `n` samples (warm-up transient). This copies the
    /// rest; a run that never needs its warm-up can skip recording it with
    /// [`TraceSink::with_warmup`] instead (same samples, no copy).
    #[must_use]
    pub fn skip(&self, n: usize) -> RunTrace {
        RunTrace {
            setpoint: self.setpoint,
            samples: self.samples.get(n..).unwrap_or_default().to_vec(),
        }
    }

    /// Keep samples with index in `[start, end)`.
    #[must_use]
    pub fn window(&self, start: usize, end: usize) -> RunTrace {
        let end = end.min(self.samples.len());
        let start = start.min(end);
        RunTrace {
            setpoint: self.setpoint,
            samples: self.samples[start..end].to_vec(),
        }
    }

    /// The timing-error series `τ − c` (the paper's Fig. 7 y-axis).
    pub fn timing_errors(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.tau - self.setpoint).collect()
    }

    /// Number of timing violations (`τ < c − margin`).
    pub fn violations(&self, margin: f64) -> usize {
        self.samples
            .iter()
            .filter(|s| s.tau < self.setpoint - margin)
            .count()
    }
}

/// Everything a figure reads off a run, reduced to six floats so a grid
/// point caches in one small record instead of a multi-thousand-sample
/// trace. Every engine produces it through the one [`Fold`]: the event
/// engine by [`RunSummary::of`] a recorded trace or inline in a
/// [`SummarySink`](crate::event::SummarySink) run, the lane engine per
/// lane in a [`batch::SummarySink`](crate::batch::SummarySink) run or by
/// [`BatchTrace::summarize`](crate::batch::BatchTrace::summarize). So a
/// figure assembled from summaries is bit-identical to one assembled from
/// traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// The set-point the run used. A lane-engine run reads it off the
    /// lane's set-point sequence at its last period, `c[steps − 1]`
    /// (the pre-start value `c[−1]` for a zero-step run).
    pub setpoint: f64,
    /// Recorded (post-warm-up) sample count.
    pub samples: u64,
    /// Mean generated period `Σ T[n] / samples` (`0.0` when empty).
    pub mean_period: f64,
    /// Worst negative timing error `max(0, max_n (c − τ[n]))` — "equal,
    /// in absolute value, to the needed safety margin" (paper §IV-A).
    pub worst_negative_error: f64,
    /// Worst positive timing error `max(0, max_n (τ[n] − c))` —
    /// performance left on the table.
    pub worst_positive_error: f64,
    /// RO length at the last sample (NaN when the run is empty).
    pub last_lro: f64,
}

/// The one per-period fold behind every [`RunSummary`]: `max` from `+0.0`
/// over the negative and the positive timing error, and a period-ordered
/// sum of periods from `−0.0` (the neutral element, as `Sum for f64`
/// uses), then [`finish`](Self::finish) divides by the sample count.
///
/// [`push`](Self::push) takes both errors as the caller computes them,
/// because the engines differ in the sign of zero. The event engine
/// passes `c − τ` and `τ − c`; the lane engine passes the recorded
/// `δ = c − τ` and `−δ`. When `τ == c` exactly, as in every locked
/// quantized loop, `τ − c` is `+0.0` but `−δ` is `−0.0`, and `f64::max`
/// does not specify which zero wins a tie. Both engines give `+0.0`, and
/// the `summary_fold` test suite pins it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    worst_negative: f64,
    worst_positive: f64,
    period_sum: f64,
}

impl Default for Fold {
    fn default() -> Self {
        Fold::new()
    }
}

impl Fold {
    /// The empty fold.
    pub const fn new() -> Fold {
        Fold {
            worst_negative: 0.0,
            worst_positive: 0.0,
            period_sum: -0.0,
        }
    }

    /// Fold in one period: its negative error `c − τ`, its positive error
    /// (`τ − c`, or `−δ`) and its period (or `l_RO`).
    #[inline]
    pub fn push(&mut self, negative: f64, positive: f64, period: f64) {
        self.worst_negative = self.worst_negative.max(negative);
        self.worst_positive = self.worst_positive.max(positive);
        self.period_sum += period;
    }

    /// The summary of `samples` pushed periods.
    pub fn finish(self, setpoint: f64, samples: u64, last_lro: f64) -> RunSummary {
        RunSummary {
            setpoint,
            samples,
            mean_period: if samples == 0 {
                0.0
            } else {
                self.period_sum / samples as f64
            },
            worst_negative_error: self.worst_negative,
            worst_positive_error: self.worst_positive,
            last_lro,
        }
    }
}

impl RunSummary {
    /// Flat-record arity (the cache payload schema).
    pub const FIELDS: usize = 6;

    /// Summarize a recorded run.
    pub fn of(run: &RunTrace) -> Self {
        let c = run.setpoint;
        let mut fold = Fold::new();
        for s in &run.samples {
            fold.push(c - s.tau, s.tau - c, s.period);
        }
        let last_lro = run.samples.last().map_or(f64::NAN, |s| s.lro);
        fold.finish(c, run.len() as u64, last_lro)
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

    /// Mean period once margined: `⟨T⟩ + m*`.
    pub fn needed_adaptive_period(&self) -> f64 {
        self.mean_period + self.worst_negative_error
    }

    /// Fixed-clock period needed for error-free operation: `c + m*`.
    pub fn needed_fixed_period(&self) -> f64 {
        self.setpoint + self.worst_negative_error
    }

    /// The paper's figure of merit `⟨T_clk⟩ / T_fixed` against a
    /// fixed-clock baseline run.
    pub fn relative_to(&self, fixed: &RunSummary) -> f64 {
        self.needed_adaptive_period() / fixed.needed_fixed_period()
    }

    /// Figure of merit under an externally-imposed margin (the free RO's
    /// design margin in Fig. 9).
    pub fn relative_with_margin(&self, margin: f64, fixed: &RunSummary) -> f64 {
        (self.mean_period + margin) / fixed.needed_fixed_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use variation::sources::{Harmonic, NoVariation};

    #[test]
    fn builder_validates() {
        assert!(matches!(
            SystemBuilder::new(0).build(),
            Err(Error::InvalidSetPoint { .. })
        ));
        assert!(matches!(
            SystemBuilder::new(64).cdn_delay(-1.0).build(),
            Err(Error::InvalidCdnDelay { .. })
        ));
        assert!(matches!(
            SystemBuilder::new(64).sensors(vec![]).build(),
            Err(Error::NoSensors)
        ));
        assert!(matches!(
            SystemBuilder::new(64).jitter(-0.5, 1).build(),
            Err(Error::InvalidNoise { .. })
        ));
        assert!(matches!(
            SystemBuilder::new(64)
                .sensors(vec![SensorSpec::ideal().with_noise(f64::NAN, 1)])
                .build(),
            Err(Error::InvalidNoise { .. })
        ));
        assert!(SystemBuilder::new(64).build().is_ok());
    }

    #[test]
    fn builder_rejects_bad_iir() {
        let bad = IirConfig {
            kexp_exp: 3,
            k_star_exp: -3,
            tap_exps: vec![1, 0],
        };
        assert!(SystemBuilder::new(64)
            .scheme(Scheme::Iir(bad))
            .build()
            .is_err());
    }

    #[test]
    fn scheme_labels_match_paper_legends() {
        assert_eq!(Scheme::Fixed.label(), "Fixed clock");
        assert_eq!(Scheme::FreeRo { extra_length: 0 }.label(), "Free RO");
        assert_eq!(Scheme::TeaTime.label(), "TEAtime RO");
        assert_eq!(Scheme::iir_paper().label(), "IIR RO");
        assert!(Scheme::Fixed.is_open_loop());
        assert!(Scheme::FreeRo { extra_length: 3 }.is_open_loop());
        assert!(!Scheme::TeaTime.is_open_loop());
        assert!(!Scheme::iir_paper().is_open_loop());
        assert!(!Scheme::IirFloat(IirConfig::paper()).is_open_loop());
    }

    #[test]
    fn quiescent_run_is_clean_for_all_schemes() {
        for scheme in [
            Scheme::Fixed,
            Scheme::FreeRo { extra_length: 0 },
            Scheme::TeaTime,
            Scheme::iir_paper(),
        ] {
            let sys = SystemBuilder::new(64)
                .scheme(scheme.clone())
                .build()
                .unwrap();
            let run = sys.run(&NoVariation, 300);
            assert_eq!(run.len(), 300);
            // TEAtime dithers ±1 around the target; others are exact.
            let bound = if matches!(scheme, Scheme::TeaTime) {
                1.5
            } else {
                1e-9
            };
            assert!(
                RunSummary::of(&run).worst_negative_error <= bound,
                "{}: {}",
                scheme.label(),
                RunSummary::of(&run).worst_negative_error
            );
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let sys = SystemBuilder::new(64).build().unwrap();
        let e = Harmonic::new(12.8, 64.0 * 37.5, 0.0);
        let a = sys.run(&e, 500);
        let b = sys.run(&e, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn free_ro_margin_shifts_readings() {
        let sys = SystemBuilder::new(64)
            .scheme(Scheme::FreeRo { extra_length: 10 })
            .build()
            .unwrap();
        let run = sys.run(&NoVariation, 100);
        // longer RO -> τ = 74 -> timing error +10
        assert!((RunSummary::of(&run).worst_positive_error - 10.0).abs() < 1e-9);
        assert_eq!(run.violations(0.0), 0);
        assert!((RunSummary::of(&run).mean_period - 74.0).abs() < 1e-9);
    }

    #[test]
    fn trace_window_and_skip() {
        let sys = SystemBuilder::new(64).build().unwrap();
        let run = sys.run(&NoVariation, 100);
        assert_eq!(run.skip(90).len(), 10);
        assert_eq!(run.window(10, 20).len(), 10);
        assert_eq!(run.skip(1000).len(), 0);
        assert!(run.skip(1000).is_empty());
        assert_eq!(run.timing_errors().len(), 100);
    }

    #[test]
    fn adaptive_beats_fixed_for_slow_hodv() {
        // Headline behaviour: under a slow HoDV the IIR RO needs a much
        // smaller margin than the fixed clock.
        let c = 64i64;
        let e = Harmonic::new(0.2 * c as f64, 50.0 * c as f64, 0.0);
        let fixed = SystemBuilder::new(c)
            .scheme(Scheme::Fixed)
            .build()
            .unwrap()
            .run(&e, 4000);
        let iir = SystemBuilder::new(c)
            .scheme(Scheme::iir_paper())
            .build()
            .unwrap()
            .run(&e, 4000);
        let m_fixed = RunSummary::of(&fixed).worst_negative_error;
        let m_iir = RunSummary::of(&iir).worst_negative_error;
        assert!(
            m_iir < 0.6 * m_fixed,
            "IIR margin {m_iir} vs fixed {m_fixed}"
        );
    }

    #[test]
    fn mismatch_hurts_free_ro_not_iir() {
        let c = 64i64;
        let mu = -0.15 * c as f64;
        let free = SystemBuilder::new(c)
            .scheme(Scheme::FreeRo { extra_length: 0 })
            .single_sensor_mu(mu)
            .build()
            .unwrap()
            .run(&NoVariation, 2000);
        let iir = SystemBuilder::new(c)
            .scheme(Scheme::iir_paper())
            .single_sensor_mu(mu)
            .build()
            .unwrap()
            .run(&NoVariation, 2000);
        // Free RO: persistent error = |μ|. IIR: compensated after transient.
        assert!(RunSummary::of(&free).worst_negative_error > 0.9 * mu.abs());
        assert!(RunSummary::of(&iir.skip(500)).worst_negative_error <= 1.0);
    }

    #[test]
    fn canonical_ids_are_stable_and_distinct() {
        // These strings feed result-cache keys: they must never drift for a
        // given configuration, and distinct configurations must differ.
        assert_eq!(Scheme::Fixed.canonical_id(), "fixed");
        assert_eq!(
            Scheme::FreeRo { extra_length: 13 }.canonical_id(),
            "free-ro/extra=13"
        );
        assert_eq!(Scheme::TeaTime.canonical_id(), "teatime");
        assert_eq!(
            Scheme::iir_paper().canonical_id(),
            "iir/kexp=3/kstar=-2/taps=1,0,-1,-2,-3,-3"
        );
        assert_eq!(
            Scheme::IirFloat(IirConfig::paper()).canonical_id(),
            "iir-float/kexp=3/kstar=-2/taps=1,0,-1,-2,-3,-3"
        );
        let mut other = IirConfig::paper();
        other.tap_exps[0] = 2;
        assert_ne!(
            Scheme::Iir(other).canonical_id(),
            Scheme::iir_paper().canonical_id()
        );
    }

    /// The summary of a run recording `taus` and `periods` at `setpoint`.
    fn summary_of(setpoint: f64, taus: &[f64], periods: &[f64]) -> RunSummary {
        let samples: Vec<Sample> = taus
            .iter()
            .zip(periods)
            .enumerate()
            .map(|(k, (&tau, &period))| Sample {
                time: k as f64,
                period,
                tau,
                delta: setpoint - tau,
                lro: period,
            })
            .collect();
        RunSummary::of(&RunTrace::from_samples(setpoint, samples))
    }

    #[test]
    fn margin_is_worst_negative_excursion() {
        let r = summary_of(64.0, &[64.0, 60.0, 66.0, 62.0], &[64.0; 4]);
        assert_eq!(r.required_margin(), 4.0);
    }

    #[test]
    fn margin_zero_when_always_above_setpoint() {
        let r = summary_of(64.0, &[64.0, 65.0, 70.0], &[64.0; 3]);
        assert_eq!(r.required_margin(), 0.0);
    }

    #[test]
    fn needed_period_adds_margin_to_mean() {
        let r = summary_of(64.0, &[60.0, 64.0], &[64.0, 66.0]);
        assert_eq!(r.needed_adaptive_period(), 65.0 + 4.0);
    }

    #[test]
    fn fixed_needed_period_uses_setpoint_not_mean() {
        // fixed run at nominal c: τ dips by 12.8 under a 20% HoDV
        let r = summary_of(64.0, &[51.2, 76.8, 64.0], &[64.0; 3]);
        assert!((r.needed_fixed_period() - 76.8).abs() < 1e-12);
    }

    #[test]
    fn relative_period_below_one_when_adaptive_wins() {
        let adaptive = summary_of(64.0, &[63.0, 65.0], &[64.0, 64.0]);
        let fixed = summary_of(64.0, &[51.2, 76.8], &[64.0, 64.0]);
        let r = adaptive.relative_to(&fixed);
        assert!((r - 65.0 / 76.8).abs() < 1e-12);
        assert!(r < 1.0);
    }

    #[test]
    fn external_margin_variant() {
        let adaptive = summary_of(64.0, &[64.0, 64.0], &[64.0, 64.0]);
        let fixed = summary_of(64.0, &[54.0, 64.0], &[64.0, 64.0]);
        let r = adaptive.relative_with_margin(10.0, &fixed);
        assert!((r - 74.0 / 74.0).abs() < 1e-12);
    }
}
