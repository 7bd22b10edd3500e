//! Time-to-digital converter (TDC) sensor model.
//!
//! Following Drake et al. (the paper's ref. \[7\]), a TDC outputs, every clock
//! cycle, the number of gate stages an alternating signal crossed during the
//! last delivered period. In the additive stage-unit model a local delay
//! variation of `v` stages (positive = slower gates) reduces the reading:
//!
//! ```text
//! τ = Q( T' − e(t_meas) + μ(t_meas) )
//! ```
//!
//! where `T'` is the delivered period, `e` the homogeneous variation, `μ`
//! the sensor's mismatch relative to the RO stages (positive `μ` = sensor
//! reads more stages than the RO would), and `Q` the count quantization.
//! The sign convention matches the paper's Fig. 4, where RO- and TDC-side
//! perturbations enter with opposite signs so that a variation common to
//! both cancels.

use variation::sources::Waveform;

use crate::error::Error;
use crate::noise::{hash_gauss, time_key};
use crate::ro::Coupling;

/// How a TDC quantizes its stage count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// Count completed stages (round toward −∞). The physical behaviour.
    #[default]
    Floor,
    /// Round to nearest (an idealized TDC with half-stage resolution).
    Nearest,
    /// No quantization: return the exact real-valued reading. Used by the
    /// cross-validation tests against the linear z-domain model.
    None,
}

impl Quantization {
    /// Apply the quantization to a raw reading.
    #[inline]
    pub fn apply(self, raw: f64) -> f64 {
        match self {
            Quantization::Floor => raw.floor(),
            Quantization::Nearest => raw.round(),
            Quantization::None => raw,
        }
    }
}

/// One TDC sensor with its local mismatch waveform `μ(t)`.
pub struct Tdc {
    mu: Box<dyn Waveform + Send + Sync>,
    quantization: Quantization,
    coupling: Coupling,
    noise: Option<(f64, u64)>,
}

impl std::fmt::Debug for Tdc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tdc")
            .field("quantization", &self.quantization)
            .finish_non_exhaustive()
    }
}

impl Tdc {
    /// A sensor with the given mismatch waveform.
    pub fn new(mu: impl Waveform + Send + Sync + 'static, quantization: Quantization) -> Self {
        Tdc {
            mu: Box::new(mu),
            quantization,
            coupling: Coupling::Additive,
            noise: None,
        }
    }

    /// Add zero-mean measurement noise of the given standard deviation
    /// (stage units), seeded for reproducibility. Models TDC sampling
    /// uncertainty beyond the count quantization.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidNoise`] if `sigma` is negative or non-finite.
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Result<Self, Error> {
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(Error::InvalidNoise { sigma });
        }
        self.noise = Some((sigma, seed));
        Ok(self)
    }

    /// Use a different variation coupling (default: additive, matching the
    /// paper's Fig. 4 model; must match the RO's coupling for common-mode
    /// cancellation to hold).
    #[must_use]
    pub fn with_coupling(mut self, coupling: Coupling) -> Self {
        self.coupling = coupling;
        self
    }

    /// An ideal sensor (no mismatch) with the given quantization.
    pub fn ideal(quantization: Quantization) -> Self {
        Tdc::new(variation::sources::NoVariation, quantization)
    }

    /// The reading `τ` for a delivered period `period` measured at time `t`
    /// under homogeneous variation `e`.
    pub fn measure<W: Waveform + ?Sized>(&self, period: f64, e: &W, t: f64) -> f64 {
        self.read(period, e.value(t), t)
    }

    /// [`measure`](Self::measure) with the homogeneous variation already
    /// evaluated, `e_t = e(t)`, so sensors read at the same time share one
    /// evaluation of `e`.
    pub(crate) fn read(&self, period: f64, e_t: f64, t: f64) -> f64 {
        let raw = self.coupling.stages(period, e_t) + self.mu.value(t);
        let noisy = match self.noise {
            Some((sigma, seed)) if sigma > 0.0 => raw + sigma * hash_gauss(seed, time_key(t)),
            _ => raw,
        };
        self.quantization.apply(noisy)
    }
}

/// A bank of TDCs; the control loop consumes the *worst* (lowest) reading,
/// per the paper's §III.
#[derive(Debug, Default)]
pub struct SensorBank {
    sensors: Vec<Tdc>,
}

impl SensorBank {
    /// An empty bank (invalid for control; add sensors before use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sensor; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, tdc: Tdc) -> Self {
        self.sensors.push(tdc);
        self
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// True when no sensors are present.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// The sensors in the bank, in insertion order.
    pub(crate) fn as_slice(&self) -> &[Tdc] {
        &self.sensors
    }

    /// The worst (minimum) reading, or `None` if the bank is empty.
    pub fn worst<W: Waveform + ?Sized>(&self, period: f64, e: &W, t: f64) -> Option<f64> {
        worst_of(&self.sensors, period, e.value(t), t)
    }
}

/// The worst (minimum) reading of `sensors` with `e_t = e(t)` already
/// evaluated, or `None` if there are none.
pub(crate) fn worst_of(sensors: &[Tdc], period: f64, e_t: f64, t: f64) -> Option<f64> {
    match sensors {
        [only] => Some(only.read(period, e_t, t)),
        _ => sensors
            .iter()
            .map(|s| s.read(period, e_t, t))
            .reduce(f64::min),
    }
}

impl FromIterator<Tdc> for SensorBank {
    fn from_iter<T: IntoIterator<Item = Tdc>>(iter: T) -> Self {
        SensorBank {
            sensors: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use variation::sources::{ConstantOffset, Harmonic, NoVariation};

    #[test]
    fn quantization_modes() {
        assert_eq!(Quantization::Floor.apply(63.9), 63.0);
        assert_eq!(Quantization::Nearest.apply(63.9), 64.0);
        assert_eq!(Quantization::None.apply(63.9), 63.9);
        assert_eq!(Quantization::Floor.apply(-1.5), -2.0);
    }

    #[test]
    fn ideal_sensor_reads_period_minus_variation() {
        let tdc = Tdc::ideal(Quantization::None);
        assert_eq!(tdc.measure(64.0, &NoVariation, 0.0), 64.0);
        // slower gates -> fewer stages crossed
        assert_eq!(tdc.measure(64.0, &ConstantOffset::new(12.8), 0.0), 51.2);
        // faster gates -> more stages crossed
        assert_eq!(tdc.measure(64.0, &ConstantOffset::new(-6.4), 0.0), 70.4);
    }

    #[test]
    fn common_mode_cancellation() {
        // The reading of an undistorted period generated under the same
        // variation equals the RO length: RO adds e, TDC subtracts e.
        let e = Harmonic::new(12.8, 1000.0, 0.3);
        let tdc = Tdc::ideal(Quantization::None);
        let t = 123.0;
        let period = 64.0 + e.value(t); // generated *now*, measured *now*
        assert!((tdc.measure(period, &e, t) - 64.0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_raises_reading() {
        let tdc = Tdc::new(ConstantOffset::new(3.0), Quantization::None);
        assert_eq!(tdc.measure(64.0, &NoVariation, 0.0), 67.0);
    }

    #[test]
    fn floor_quantization_counts_completed_stages() {
        let tdc = Tdc::ideal(Quantization::Floor);
        assert_eq!(tdc.measure(64.7, &NoVariation, 0.0), 64.0);
    }

    #[test]
    fn bank_takes_worst_reading() {
        let bank = SensorBank::new()
            .with(Tdc::new(ConstantOffset::new(0.0), Quantization::None))
            .with(Tdc::new(ConstantOffset::new(-5.0), Quantization::None))
            .with(Tdc::new(ConstantOffset::new(2.0), Quantization::None));
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.worst(64.0, &NoVariation, 0.0), Some(59.0));
    }

    #[test]
    fn empty_bank_has_no_reading() {
        let bank = SensorBank::new();
        assert!(bank.is_empty());
        assert_eq!(bank.worst(64.0, &NoVariation, 0.0), None);
    }

    #[test]
    fn measurement_noise_is_deterministic_and_scaled() {
        let a = Tdc::ideal(Quantization::None).with_noise(2.0, 5).unwrap();
        let b = Tdc::ideal(Quantization::None).with_noise(2.0, 5).unwrap();
        let c = Tdc::ideal(Quantization::None).with_noise(2.0, 6).unwrap();
        let mut spread = 0.0f64;
        let mut differs = false;
        for k in 0..500 {
            let t = k as f64 * 64.0;
            let va = a.measure(64.0, &NoVariation, t);
            assert_eq!(va, b.measure(64.0, &NoVariation, t));
            if (va - c.measure(64.0, &NoVariation, t)).abs() > 1e-12 {
                differs = true;
            }
            spread = spread.max((va - 64.0).abs());
        }
        assert!(differs, "seeds must decorrelate");
        assert!(spread > 3.0 && spread < 13.0, "spread {spread} vs σ=2");
        // zero sigma is a no-op
        let z = Tdc::ideal(Quantization::None).with_noise(0.0, 5).unwrap();
        assert_eq!(z.measure(64.0, &NoVariation, 1.0), 64.0);
    }

    #[test]
    fn invalid_noise_sigma_is_a_typed_error() {
        for sigma in [-1.0, f64::NAN, f64::INFINITY] {
            let err = Tdc::ideal(Quantization::None).with_noise(sigma, 0);
            assert!(err.is_err(), "sigma {sigma} must be rejected");
        }
    }

    #[test]
    fn multiplicative_coupling_common_mode_cancels_exactly() {
        use crate::ro::Coupling;
        let coupling = Coupling::Multiplicative { c_ref: 64 };
        let tdc = Tdc::ideal(Quantization::None).with_coupling(coupling);
        let e = ConstantOffset::new(12.8); // 20% slower gates
                                           // a 64-stage RO under the same coupling generates:
        let period = coupling.period(64.0, 12.8);
        assert!((period - 76.8).abs() < 1e-12);
        // the TDC converts back to exactly 64 stages
        assert!((tdc.measure(period, &e, 0.0) - 64.0).abs() < 1e-12);
    }

    #[test]
    fn couplings_agree_to_first_order_at_reference_length() {
        use crate::ro::Coupling;
        let mul = Coupling::Multiplicative { c_ref: 64 };
        for e in [-12.8f64, -3.0, 0.0, 5.0, 12.8] {
            let pa = Coupling::Additive.period(64.0, e);
            let pm = mul.period(64.0, e);
            assert!((pa - pm).abs() < 1e-9, "at c_ref the models coincide");
            // away from c_ref they differ by (l/c_ref - 1)·e
            let pa80 = Coupling::Additive.period(80.0, e);
            let pm80 = mul.period(80.0, e);
            assert!((pm80 - pa80 - (80.0 / 64.0 - 1.0) * e).abs() < 1e-9);
        }
    }

    #[test]
    fn bank_from_iterator() {
        let bank: SensorBank = (0..4)
            .map(|i| Tdc::new(ConstantOffset::new(i as f64), Quantization::None))
            .collect();
        assert_eq!(bank.len(), 4);
        assert_eq!(bank.worst(10.0, &NoVariation, 0.0), Some(10.0));
    }
}
