//! Time-domain waveform generators for dynamic variations.
//!
//! A [`Waveform`] maps continuous time (in nominal stage delays) to a delay
//! variation (also in stage units): `ν(t)` in the paper's notation. Positive
//! values mean *slower* gates (more delay).

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
        let c = ConstantOffset::new(-2.0);
        assert_eq!(c.value(123.0), -2.0);
        assert_eq!(c.amplitude_bound(), 2.0);
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
