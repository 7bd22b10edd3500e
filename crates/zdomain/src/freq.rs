//! Frequency response of discrete transfer functions.

use crate::complex::Complex;
use crate::transfer::TransferFunction;

/// Frequency response samples of a transfer function evaluated on the unit
/// circle, `H(e^{jω})` for `ω ∈ [0, π]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyResponse {
    omegas: Vec<f64>,
    values: Vec<Complex>,
}

impl FrequencyResponse {
    /// Sample `h` at `n` evenly spaced frequencies from DC to Nyquist
    /// (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn sample(h: &TransferFunction, n: usize) -> Self {
        assert!(n >= 2, "need at least two frequency points");
        let omegas: Vec<f64> = (0..n)
            .map(|k| std::f64::consts::PI * k as f64 / (n - 1) as f64)
            .collect();
        let values = omegas
            .iter()
            .map(|&w| h.eval(Complex::unit_circle(w)))
            .collect();
        FrequencyResponse { omegas, values }
    }

    /// Sample `h` at arbitrary angular frequencies (radians/sample).
    pub fn at(h: &TransferFunction, omegas: &[f64]) -> Self {
        let values = omegas
            .iter()
            .map(|&w| h.eval(Complex::unit_circle(w)))
            .collect();
        FrequencyResponse {
            omegas: omegas.to_vec(),
            values,
        }
    }

    /// The angular frequencies (radians/sample).
    pub fn omegas(&self) -> &[f64] {
        &self.omegas
    }

    /// Complex response values.
    pub fn values(&self) -> &[Complex] {
        &self.values
    }

    /// Magnitude response `|H|`.
    pub fn magnitudes(&self) -> Vec<f64> {
        self.values.iter().map(|v| v.abs()).collect()
    }

    /// Phase response in radians.
    pub fn phases(&self) -> Vec<f64> {
        self.values.iter().map(|v| v.arg()).collect()
    }

    /// Peak magnitude over the sampled band and the frequency at which it
    /// occurs, or `None` if empty.
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.omegas
            .iter()
            .zip(self.values.iter())
            .map(|(&w, v)| (w, v.abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(w, m)| (m, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Polynomial;

    fn tf(num: &[f64], den: &[f64]) -> TransferFunction {
        TransferFunction::new(Polynomial::new(num.to_vec()), Polynomial::new(den.to_vec())).unwrap()
    }

    #[test]
    fn delay_has_flat_magnitude() {
        let h = TransferFunction::delay(4);
        let fr = FrequencyResponse::sample(&h, 33);
        for m in fr.magnitudes() {
            assert!((m - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn one_pole_lowpass_shape() {
        // H = 0.5 / (1 - 0.5 z^-1): DC gain 1, decreasing magnitude
        let h = tf(&[0.5], &[1.0, -0.5]);
        let fr = FrequencyResponse::sample(&h, 64);
        let mags = fr.magnitudes();
        assert!((mags[0] - 1.0).abs() < 1e-12);
        for w in mags.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "magnitude must be non-increasing");
        }
        // Nyquist gain = 0.5/1.5
        assert!((mags[63] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peak_found_at_resonance() {
        // resonant pole pair near w ~ 1.0
        let r: f64 = 0.95;
        let w0: f64 = 1.0;
        let den = Polynomial::new(vec![1.0, -2.0 * r * w0.cos(), r * r]);
        let h = TransferFunction::new(Polynomial::one(), den).unwrap();
        let fr = FrequencyResponse::sample(&h, 512);
        let (peak_mag, peak_w) = fr.peak().unwrap();
        assert!((peak_w - w0).abs() < 0.05, "peak at {peak_w}");
        assert!(peak_mag > 5.0);
    }

    #[test]
    fn custom_frequency_grid() {
        let h = TransferFunction::constant(2.0);
        let fr = FrequencyResponse::at(&h, &[0.1, 0.2]);
        assert_eq!(fr.omegas(), &[0.1, 0.2]);
        assert_eq!(fr.values().len(), 2);
    }
}
