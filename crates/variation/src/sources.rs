//! Time-domain waveform generators for dynamic variations.
//!
//! A [`Waveform`] maps continuous time (in nominal stage delays) to a delay
//! variation (also in stage units): `ν(t)` in the paper's notation. Positive
//! values mean *slower* gates (more delay).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic delay-variation waveform `ν(t)`.
///
/// Implementors must be pure functions of `t` so that simulators may sample
/// them in any order (the event-driven engine does not advance uniformly).
pub trait Waveform {
    /// The variation at time `t` (stage units).
    fn value(&self, t: f64) -> f64;

    /// A bound `B ≥ sup_t |ν(t)|`, used for sizing worst-case safety
    /// margins. Implementations should return the tightest known bound.
    fn amplitude_bound(&self) -> f64;
}

impl<W: Waveform + ?Sized> Waveform for &W {
    fn value(&self, t: f64) -> f64 {
        (**self).value(t)
    }
    fn amplitude_bound(&self) -> f64 {
        (**self).amplitude_bound()
    }
}

impl<W: Waveform + ?Sized> Waveform for Box<W> {
    fn value(&self, t: f64) -> f64 {
        (**self).value(t)
    }
    fn amplitude_bound(&self) -> f64 {
        (**self).amplitude_bound()
    }
}

/// The zero waveform (no variation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoVariation;

impl Waveform for NoVariation {
    fn value(&self, _t: f64) -> f64 {
        0.0
    }
    fn amplitude_bound(&self) -> f64 {
        0.0
    }
}

/// A constant (static) offset — e.g. a die-to-die process shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantOffset {
    /// The offset value (stage units).
    pub offset: f64,
}

impl ConstantOffset {
    /// A static variation of the given size.
    pub fn new(offset: f64) -> Self {
        ConstantOffset { offset }
    }
}

impl Waveform for ConstantOffset {
    fn value(&self, _t: f64) -> f64 {
        self.offset
    }
    fn amplitude_bound(&self) -> f64 {
        self.offset.abs()
    }
}

/// Periodic homogeneous dynamic variation
/// `ν(t) = ν₀ sin(2π t / T_ν + φ)` (paper §II-A.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harmonic {
    amplitude: f64,
    period: f64,
    phase: f64,
}

impl Harmonic {
    /// A sinusoidal variation of amplitude `ν₀`, period `T_ν` and phase `φ`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive.
    pub fn new(amplitude: f64, period: f64, phase: f64) -> Self {
        assert!(period > 0.0, "harmonic period must be positive");
        Harmonic {
            amplitude,
            period,
            phase,
        }
    }

    /// The variation period `T_ν`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The amplitude `ν₀`.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }
}

impl Waveform for Harmonic {
    fn value(&self, t: f64) -> f64 {
        self.amplitude * (std::f64::consts::TAU * t / self.period + self.phase).sin()
    }
    fn amplitude_bound(&self) -> f64 {
        self.amplitude.abs()
    }
}

/// Single-event homogeneous dynamic variation: a triangular droop of
/// duration `T_ν` and peak `ν₀` (paper §II-A.2, "a fast voltage drop along
/// the whole die, assuming a triangular shape").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleEvent {
    amplitude: f64,
    duration: f64,
    start: f64,
}

impl SingleEvent {
    /// A triangular event peaking at `amplitude`, lasting `duration`,
    /// beginning at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive.
    pub fn new(amplitude: f64, duration: f64, start: f64) -> Self {
        assert!(duration > 0.0, "event duration must be positive");
        SingleEvent {
            amplitude,
            duration,
            start,
        }
    }

    /// Event duration `T_ν`.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Event start time.
    pub fn start(&self) -> f64 {
        self.start
    }
}

impl Waveform for SingleEvent {
    fn value(&self, t: f64) -> f64 {
        let x = (t - self.start) / self.duration;
        if !(0.0..=1.0).contains(&x) {
            0.0
        } else {
            self.amplitude * (1.0 - (2.0 * x - 1.0).abs())
        }
    }
    fn amplitude_bound(&self) -> f64 {
        self.amplitude.abs()
    }
}

/// A step change at a given time (e.g. a workload-induced supply shift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVariation {
    /// Value before `at`.
    pub before: f64,
    /// Value at and after `at`.
    pub after: f64,
    /// Switching time.
    pub at: f64,
}

impl StepVariation {
    /// A step from `before` to `after` at time `at`.
    pub fn new(before: f64, after: f64, at: f64) -> Self {
        StepVariation { before, after, at }
    }
}

impl Waveform for StepVariation {
    fn value(&self, t: f64) -> f64 {
        if t >= self.at {
            self.after
        } else {
            self.before
        }
    }
    fn amplitude_bound(&self) -> f64 {
        self.before.abs().max(self.after.abs())
    }
}

/// A slow linear drift, clamped at `limit` — a first-order aging model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingDrift {
    rate: f64,
    limit: f64,
}

impl AgingDrift {
    /// Drift at `rate` (stage units per time unit) saturating at `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` and `limit` have different signs (the drift would
    /// never reach its limit).
    pub fn new(rate: f64, limit: f64) -> Self {
        assert!(
            rate * limit >= 0.0,
            "drift rate and limit must share a sign"
        );
        AgingDrift { rate, limit }
    }
}

impl Waveform for AgingDrift {
    fn value(&self, t: f64) -> f64 {
        let v = self.rate * t.max(0.0);
        if self.limit >= 0.0 {
            v.min(self.limit)
        } else {
            v.max(self.limit)
        }
    }
    fn amplitude_bound(&self) -> f64 {
        self.limit.abs()
    }
}

/// Band-limited noise: a seeded random walk smoothed by a single-pole
/// filter, pre-generated on a uniform grid and linearly interpolated.
///
/// Models supply noise with energy concentrated below a corner frequency.
/// Fully deterministic given the seed.
#[derive(Debug, Clone)]
pub struct FilteredNoise {
    samples: Vec<f64>,
    dt: f64,
    bound: f64,
}

impl FilteredNoise {
    /// Generate noise over `[0, duration]` on a grid of spacing `dt`,
    /// low-pass filtered with smoothing factor `alpha ∈ (0, 1]` (smaller =
    /// smoother), scaled to peak amplitude `amplitude`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `duration <= 0` or `alpha` outside `(0, 1]`.
    pub fn new(seed: u64, amplitude: f64, alpha: f64, duration: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "grid spacing must be positive");
        assert!(duration > 0.0, "duration must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        let n = (duration / dt).ceil() as usize + 2;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut state = 0.0f64;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let white: f64 = rng.gen_range(-1.0..1.0);
            state += alpha * (white - state);
            samples.push(state);
        }
        let peak = samples
            .iter()
            .map(|s| s.abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        for s in &mut samples {
            *s *= amplitude / peak;
        }
        FilteredNoise {
            samples,
            dt,
            bound: amplitude.abs(),
        }
    }
}

impl Waveform for FilteredNoise {
    fn value(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.samples[0];
        }
        let x = t / self.dt;
        let i = x.floor() as usize;
        if i + 1 >= self.samples.len() {
            return *self.samples.last().expect("samples nonempty");
        }
        let frac = x - i as f64;
        self.samples[i] + frac * (self.samples[i + 1] - self.samples[i])
    }
    fn amplitude_bound(&self) -> f64 {
        self.bound
    }
}

/// Sum of component waveforms.
#[derive(Default)]
pub struct Composite {
    parts: Vec<Box<dyn Waveform + Send + Sync>>,
}

impl std::fmt::Debug for Composite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composite")
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl Composite {
    /// An empty composite (equal to [`NoVariation`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a component; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, w: impl Waveform + Send + Sync + 'static) -> Self {
        self.parts.push(Box::new(w));
        self
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no components are present.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Waveform for Composite {
    fn value(&self, t: f64) -> f64 {
        self.parts.iter().map(|p| p.value(t)).sum()
    }
    fn amplitude_bound(&self) -> f64 {
        self.parts.iter().map(|p| p.amplitude_bound()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_matches_definition() {
        let h = Harmonic::new(2.0, 8.0, 0.0);
        assert!((h.value(0.0)).abs() < 1e-12);
        assert!((h.value(2.0) - 2.0).abs() < 1e-12);
        assert!((h.value(6.0) + 2.0).abs() < 1e-12);
        assert_eq!(h.amplitude_bound(), 2.0);
        assert_eq!(h.period(), 8.0);
    }

    #[test]
    fn single_event_triangle() {
        let e = SingleEvent::new(4.0, 10.0, 100.0);
        assert_eq!(e.value(99.0), 0.0);
        assert_eq!(e.value(100.0), 0.0);
        assert!((e.value(105.0) - 4.0).abs() < 1e-12);
        assert!((e.value(102.5) - 2.0).abs() < 1e-12);
        assert_eq!(e.value(111.0), 0.0);
    }

    #[test]
    fn step_and_constant() {
        let s = StepVariation::new(-1.0, 3.0, 5.0);
        assert_eq!(s.value(4.9), -1.0);
        assert_eq!(s.value(5.0), 3.0);
        assert_eq!(s.amplitude_bound(), 3.0);
        let c = ConstantOffset::new(-2.0);
        assert_eq!(c.value(123.0), -2.0);
        assert_eq!(c.amplitude_bound(), 2.0);
    }

    #[test]
    fn aging_saturates() {
        let a = AgingDrift::new(0.1, 5.0);
        assert_eq!(a.value(-10.0), 0.0);
        assert!((a.value(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(a.value(1000.0), 5.0);
        let neg = AgingDrift::new(-0.1, -5.0);
        assert_eq!(neg.value(1000.0), -5.0);
    }

    #[test]
    #[should_panic(expected = "share a sign")]
    fn aging_rejects_mixed_signs() {
        let _ = AgingDrift::new(0.1, -5.0);
    }

    #[test]
    fn filtered_noise_is_deterministic_and_bounded() {
        let n1 = FilteredNoise::new(42, 3.0, 0.2, 100.0, 1.0);
        let n2 = FilteredNoise::new(42, 3.0, 0.2, 100.0, 1.0);
        let n3 = FilteredNoise::new(43, 3.0, 0.2, 100.0, 1.0);
        let mut differs = false;
        let mut peak = 0.0f64;
        for k in 0..200 {
            let t = k as f64 * 0.5;
            assert_eq!(n1.value(t), n2.value(t));
            if (n1.value(t) - n3.value(t)).abs() > 1e-9 {
                differs = true;
            }
            peak = peak.max(n1.value(t).abs());
            assert!(n1.value(t).abs() <= 3.0 + 1e-9);
        }
        assert!(differs, "different seeds must differ");
        assert!(peak > 1.0, "noise should actually move");
    }

    #[test]
    fn filtered_noise_interpolates_and_clamps_ends() {
        let n = FilteredNoise::new(7, 1.0, 0.5, 10.0, 1.0);
        let mid = n.value(3.5);
        let a = n.value(3.0);
        let b = n.value(4.0);
        assert!((mid - 0.5 * (a + b)).abs() < 1e-12);
        // beyond the grid: clamps to endpoints rather than panicking
        let _ = n.value(-5.0);
        let _ = n.value(1e6);
    }

    #[test]
    fn composite_sums_components() {
        let c = Composite::new()
            .with(ConstantOffset::new(1.0))
            .with(Harmonic::new(2.0, 8.0, 0.0));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!((c.value(2.0) - 3.0).abs() < 1e-12);
        assert_eq!(c.amplitude_bound(), 3.0);
        assert_eq!(Composite::new().value(5.0), 0.0);
    }

    #[test]
    fn waveform_is_object_safe_and_ref_forwarded() {
        let h = Harmonic::new(1.0, 4.0, 0.0);
        let via_ref: &dyn Waveform = &h;
        assert_eq!(via_ref.value(1.0), h.value(1.0));
        let boxed: Box<dyn Waveform> = Box::new(h);
        assert_eq!(boxed.value(1.0), h.value(1.0));
        assert_eq!(boxed.amplitude_bound(), 1.0);
    }
}
