//! Classical loop margins and sensitivity analysis of the adaptive-clock
//! control loop.
//!
//! The loop's *sensitivity function* is exactly the paper's `H_δ(z)`
//! (Eq. 5): it maps perturbations to residual timing error. Its magnitude
//! on the unit circle therefore *predicts* the time-domain figures:
//!
//! * `|H_δ(e^{jω})| < 1` — the loop attenuates perturbations of that
//!   frequency (the sub-1 region of the paper's Fig. 8 lower panel);
//! * `|H_δ(e^{jω})| > 1` — the loop *amplifies* them (the above-1 hump at
//!   `T_e/c ≈ 2–10`), a consequence of Bode's sensitivity integral: the
//!   attenuation bought at low frequency must be paid back somewhere.
//!
//! Gain/phase margins of the open loop `L(z) = H(z)·z^{−M−2}` quantify how
//! far the loop is from instability as the CDN delay `M` grows — the
//! z-domain version of the paper's clock-domain-size warning.

use crate::complex::Complex;
use crate::transfer::TransferFunction;

/// Classical stability margins of an open-loop transfer function under
/// unit negative feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopMargins {
    /// Gain margin (linear factor; > 1 means stable headroom), with the
    /// phase-crossover frequency (rad/sample). `None` when the phase never
    /// crosses −180° in `(0, π)`.
    pub gain_margin: Option<(f64, f64)>,
    /// Phase margin in degrees, with the gain-crossover frequency.
    /// `None` when the magnitude never crosses 1.
    pub phase_margin_deg: Option<(f64, f64)>,
}

/// Compute gain/phase margins of `open_loop` by dense unit-circle sampling
/// (`n` points) with linear interpolation at the crossings.
///
/// # Panics
///
/// Panics if `n < 16`.
pub fn loop_margins(open_loop: &TransferFunction, n: usize) -> LoopMargins {
    assert!(n >= 16, "need a reasonable frequency grid");
    // Avoid ω = 0 exactly (integrating loops have |L| → ∞ there) but
    // include ω = π, where real-coefficient loops often attain −180°.
    let omegas: Vec<f64> = (1..=n)
        .map(|k| std::f64::consts::PI * k as f64 / n as f64)
        .collect();
    let values: Vec<Complex> = omegas
        .iter()
        .map(|&w| open_loop.eval(Complex::unit_circle(w)))
        .collect();
    let mags: Vec<f64> = values.iter().map(|v| v.abs()).collect();
    // Unwrapped phase, in radians.
    let mut phases: Vec<f64> = values.iter().map(|v| v.arg()).collect();
    for k in 1..phases.len() {
        let mut d = phases[k] - phases[k - 1];
        while d > std::f64::consts::PI {
            d -= std::f64::consts::TAU;
        }
        while d < -std::f64::consts::PI {
            d += std::f64::consts::TAU;
        }
        phases[k] = phases[k - 1] + d;
    }

    // Phase crossover: phase passes -π (mod 2π) — search unwrapped phase
    // for crossings of −π − 2πk for small k. Loops whose phase only
    // *touches* −π at the Nyquist endpoint (e.g. a pure delayed gain)
    // count as crossing there.
    let mut gain_margin = None;
    'outer: for kk in 0..4 {
        let target = -std::f64::consts::PI - kk as f64 * std::f64::consts::TAU;
        for k in 1..phases.len() {
            let (a, b) = (phases[k - 1] - target, phases[k] - target);
            if a == 0.0 || a * b < 0.0 || (k == phases.len() - 1 && b.abs() < 1e-6) {
                let t = if (a - b).abs() < 1e-30 {
                    1.0
                } else {
                    a / (a - b)
                };
                let t = t.clamp(0.0, 1.0);
                let w = omegas[k - 1] + t * (omegas[k] - omegas[k - 1]);
                let m = mags[k - 1] + t * (mags[k] - mags[k - 1]);
                if m > 0.0 {
                    gain_margin = Some((1.0 / m, w));
                    break 'outer;
                }
            }
        }
    }

    // Gain crossover: |L| passes 1.
    let mut phase_margin_deg = None;
    for k in 1..mags.len() {
        let (a, b) = (mags[k - 1] - 1.0, mags[k] - 1.0);
        if a == 0.0 || a * b < 0.0 {
            let t = a / (a - b);
            let w = omegas[k - 1] + t * (omegas[k] - omegas[k - 1]);
            let ph = phases[k - 1] + t * (phases[k] - phases[k - 1]);
            let pm = 180.0 + ph.to_degrees();
            phase_margin_deg = Some((pm, w));
            break;
        }
    }

    LoopMargins {
        gain_margin,
        phase_margin_deg,
    }
}

/// Peak sensitivity `max_ω |H_δ(e^{jω})|` over `(0, π]` and the frequency
/// where it occurs. The classical `M_s` robustness measure: the paper's
/// "worst perturbation frequency".
pub fn sensitivity_peak(error_tf: &TransferFunction, n: usize) -> (f64, f64) {
    assert!(n >= 16, "need a reasonable frequency grid");
    (1..=n)
        .map(|k| {
            let w = std::f64::consts::PI * k as f64 / n as f64;
            (error_tf.eval(Complex::unit_circle(w)).abs(), w)
        })
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite magnitudes"))
        .expect("non-empty grid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closedloop;
    use crate::iir_paper_filter;
    use crate::poly::Polynomial;

    /// `|H_δ(e^{jω})|` at angular frequency `ω` (rad/sample).
    fn magnitude_at(error_tf: &TransferFunction, omega: f64) -> f64 {
        error_tf.eval(Complex::unit_circle(omega)).abs()
    }

    /// `|H_δ|` at a perturbation of period `te_periods` clock periods
    /// (`ω = 2π / T_e`).
    fn at_period(error_tf: &TransferFunction, te_periods: f64) -> f64 {
        magnitude_at(error_tf, std::f64::consts::TAU / te_periods)
    }

    fn open_loop(m: usize) -> TransferFunction {
        iir_paper_filter().series(&TransferFunction::delay(m + 2))
    }

    #[test]
    fn margins_shrink_as_cdn_delay_grows() {
        let pm = |m: usize| {
            loop_margins(&open_loop(m), 4096)
                .phase_margin_deg
                .expect("loop crosses unity gain")
                .0
        };
        let pm1 = pm(1);
        let pm4 = pm(4);
        let pm8 = pm(8);
        assert!(pm1 > pm4 && pm4 > pm8, "{pm1} > {pm4} > {pm8} expected");
        assert!(pm1 > 0.0, "stable loop must have positive phase margin");
    }

    #[test]
    fn phase_margin_sign_matches_stability_boundary() {
        // From the closed-loop analysis the boundary is M = 10.
        let pm_stable = loop_margins(&open_loop(10), 8192)
            .phase_margin_deg
            .expect("crossing exists")
            .0;
        let pm_unstable = loop_margins(&open_loop(11), 8192)
            .phase_margin_deg
            .expect("crossing exists")
            .0;
        assert!(
            pm_stable > 0.0 && pm_unstable < 0.0,
            "phase margin must change sign at the boundary: {pm_stable} / {pm_unstable}"
        );
    }

    #[test]
    fn gain_margin_exists_and_exceeds_one_when_stable() {
        let gm = loop_margins(&open_loop(1), 8192)
            .gain_margin
            .expect("phase crosses -180 for a delayed loop")
            .0;
        assert!(gm > 1.0, "stable loop gain margin {gm}");
    }

    #[test]
    fn sensitivity_small_at_low_frequency_humped_in_middle() {
        let hd = closedloop::error_transfer(&iir_paper_filter(), 1);
        // At Te = 1000 periods: strong attenuation.
        let low = at_period(&hd, 1000.0);
        assert!(low < 0.1, "low-frequency sensitivity {low}");
        // Peak above 1 somewhere (Bode integral waterbed).
        let (peak, w_peak) = sensitivity_peak(&hd, 4096);
        assert!(peak > 1.0, "sensitivity peak {peak}");
        assert!(w_peak > 0.0 && w_peak <= std::f64::consts::PI);
        // At DC-adjacent frequency the integrator kills the error entirely.
        let near_dc = magnitude_at(&hd, 1e-4);
        assert!(near_dc < 1e-3, "near-DC sensitivity {near_dc}");
    }

    #[test]
    fn sensitivity_predicts_amplification_band() {
        // The Fig. 8 lower hump: around Te ≈ 10–20 periods the loop
        // amplifies (peak ≈ 1.42 at Te ≈ 13.7); by Te = 50 it attenuates.
        let hd = closedloop::error_transfer(&iir_paper_filter(), 1);
        assert!(at_period(&hd, 10.0) > 1.0);
        assert!(at_period(&hd, 15.0) > 1.3);
        assert!(at_period(&hd, 50.0) < 1.0);
        let (_, w_peak) = sensitivity_peak(&hd, 4096);
        let te_peak = std::f64::consts::TAU / w_peak;
        assert!(
            (10.0..20.0).contains(&te_peak),
            "peak at Te = {te_peak} periods"
        );
    }

    #[test]
    fn unity_loop_has_textbook_margins() {
        // L = 0.5·z⁻¹: |L| never reaches 1 -> no phase margin entry; phase
        // reaches -180° at ω = π with |L| = 0.5 -> gain margin 2.
        let l = TransferFunction::new(Polynomial::new(vec![0.0, 0.5]), Polynomial::one()).unwrap();
        let m = loop_margins(&l, 4096);
        assert!(m.phase_margin_deg.is_none());
        let (gm, w) = m.gain_margin.expect("phase crossover at Nyquist");
        assert!((gm - 2.0).abs() < 0.01, "gain margin {gm}");
        assert!((w - std::f64::consts::PI).abs() < 0.01);
    }
}
