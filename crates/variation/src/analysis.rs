//! Mismatch theory of the paper's §II: the clock-distribution delay turns a
//! homogeneous dynamic variation into an *induced heterogeneous* mismatch
//! between the ring oscillator and the critical paths.
//!
//! * Eq. (1): `Δν(t, t_clk) = ν(t) − ν(t − t_clk)`
//! * Eq. (2): worst case for a harmonic HoDV:
//!   `Δν_wc = 2ν₀ |sin(π t_clk / T_ν)|`
//! * Eq. (3): worst case for a triangular single event:
//!   `Δν_wc = 2ν₀ t_clk/T_ν` for `t_clk/T_ν ≤ 1/2`, else `ν₀`.

use crate::sources::Waveform;

/// Eq. (1): the mismatch induced at time `t` by a CDN delay `t_clk` under
/// the waveform `ν`.
pub fn induced_mismatch<W: Waveform + ?Sized>(nu: &W, t: f64, t_clk: f64) -> f64 {
    nu.value(t) - nu.value(t - t_clk)
}

/// Eq. (2): worst-case induced mismatch for a harmonic HoDV of amplitude
/// `nu0` and period `t_nu`, given CDN delay `t_clk`.
///
/// # Panics
///
/// Panics if `t_nu <= 0`.
pub fn harmonic_worst_case(nu0: f64, t_clk: f64, t_nu: f64) -> f64 {
    assert!(t_nu > 0.0, "variation period must be positive");
    2.0 * nu0.abs() * (std::f64::consts::PI * t_clk / t_nu).sin().abs()
}

/// Eq. (3): worst-case induced mismatch for a triangular single-event HoDV
/// of amplitude `nu0` and duration `t_nu`, given CDN delay `t_clk`.
///
/// # Panics
///
/// Panics if `t_nu <= 0` or `t_clk < 0`.
pub fn single_event_worst_case(nu0: f64, t_clk: f64, t_nu: f64) -> f64 {
    assert!(t_nu > 0.0, "event duration must be positive");
    assert!(t_clk >= 0.0, "CDN delay cannot be negative");
    let ratio = t_clk / t_nu;
    if ratio <= 0.5 {
        2.0 * nu0.abs() * ratio
    } else {
        nu0.abs()
    }
}

/// Empirical worst case of Eq. (1): sweep `t` over `[t_start, t_end]` with
/// step `dt` and return `max |Δν(t, t_clk)|` — the one-delay case of
/// [`empirical_worst_case_curve`].
///
/// # Panics
///
/// Panics if `dt <= 0` or the interval is empty.
pub fn empirical_worst_case<W: Waveform + ?Sized>(
    nu: &W,
    t_clk: f64,
    t_start: f64,
    t_end: f64,
    dt: f64,
) -> f64 {
    empirical_worst_case_curve(nu, &[t_clk], t_start, t_end, dt)[0]
}

/// [`empirical_worst_case`] for every delay in `t_clks` over one shared
/// time grid: `ν(t)` is evaluated once per grid time and reused for every
/// delay, and each delay folds its maxima in grid order, so entry `j` is
/// bit-identical to `empirical_worst_case(nu, t_clks[j], …)` computed alone.
///
/// # Panics
///
/// Panics if `dt <= 0` or the interval is empty.
pub fn empirical_worst_case_curve<W: Waveform + ?Sized>(
    nu: &W,
    t_clks: &[f64],
    t_start: f64,
    t_end: f64,
    dt: f64,
) -> Vec<f64> {
    assert!(dt > 0.0, "sweep step must be positive");
    assert!(t_end > t_start, "sweep interval must be non-empty");
    let n = ((t_end - t_start) / dt).ceil() as usize;
    let mut worst = vec![0.0f64; t_clks.len()];
    for k in 0..=n {
        let t = t_start + k as f64 * dt;
        let now = nu.value(t);
        for (w, &t_clk) in worst.iter_mut().zip(t_clks) {
            *w = w.max((now - nu.value(t - t_clk)).abs());
        }
    }
    worst
}

/// Whether a harmonic HoDV mismatch is *reduced* by the adaptive clock,
/// i.e. the worst induced mismatch stays below the bare variation amplitude
/// `ν₀`. Per the paper this holds in the islands
/// `t_clk < T_ν/6` or `(n − 1/6) T_ν < t_clk < (n + 1/6) T_ν`, `n ≥ 1`.
pub fn harmonic_reduces_margin(t_clk: f64, t_nu: f64) -> bool {
    harmonic_worst_case(1.0, t_clk, t_nu) < 1.0
}

/// The paper's island boundaries written explicitly: true iff
/// `t_clk/T_ν` lies within `1/6` of an integer.
pub fn harmonic_island_condition(t_clk: f64, t_nu: f64) -> bool {
    assert!(t_nu > 0.0, "variation period must be positive");
    let x = (t_clk / t_nu).abs();
    let frac_dist = (x - x.round()).abs();
    frac_dist < 1.0 / 6.0
}

/// One point of the paper's Fig. 2: normalized worst-case mismatch
/// `Δν/ν₀` for both HoDV shapes at abscissa `x = t_clk/T_ν`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    /// The abscissa `t_clk / T_ν`.
    pub x: f64,
    /// Harmonic curve value `2|sin(πx)|`.
    pub harmonic: f64,
    /// Single-event curve value `min(2x, 1)`.
    pub single_event: f64,
}

/// Sample Fig. 2 over `x ∈ [0, x_max]` with `n` points (inclusive ends).
///
/// # Panics
///
/// Panics if `n < 2` or `x_max <= 0`.
pub fn fig2_series(x_max: f64, n: usize) -> Vec<Fig2Point> {
    assert!(n >= 2, "need at least two points");
    assert!(x_max > 0.0, "x_max must be positive");
    (0..n)
        .map(|k| {
            let x = x_max * k as f64 / (n - 1) as f64;
            Fig2Point {
                x,
                harmonic: harmonic_worst_case(1.0, x, 1.0),
                single_event: single_event_worst_case(1.0, x, 1.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{Harmonic, SingleEvent};
    use proptest::prelude::*;

    #[test]
    fn eq1_matches_direct_subtraction() {
        let h = Harmonic::new(1.5, 10.0, 0.3);
        let d = induced_mismatch(&h, 7.0, 2.0);
        assert!((d - (h.value(7.0) - h.value(5.0))).abs() < 1e-12);
    }

    #[test]
    fn eq2_zero_mismatch_islands() {
        // At t_clk equal to integer multiples of the period, mismatch is 0.
        for n in 0..4 {
            let wc = harmonic_worst_case(1.0, n as f64 * 5.0, 5.0);
            assert!(wc.abs() < 1e-12, "n={n}: {wc}");
        }
        // At half-period, mismatch peaks at 2ν₀.
        assert!((harmonic_worst_case(3.0, 2.5, 5.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_boundary_at_one_sixth() {
        // At exactly t_clk = T/6 the worst mismatch equals ν₀.
        let wc = harmonic_worst_case(1.0, 1.0 / 6.0, 1.0);
        assert!((wc - 1.0).abs() < 1e-12);
        assert!(harmonic_reduces_margin(0.16, 1.0));
        assert!(!harmonic_reduces_margin(0.17, 1.0));
        // ... and around n=1: (1 ± 1/6)
        assert!(harmonic_reduces_margin(0.9, 1.0));
        assert!(!harmonic_reduces_margin(0.75, 1.0));
    }

    #[test]
    fn island_condition_equals_margin_reduction() {
        for k in 0..400 {
            let x = k as f64 * 0.01 + 0.001;
            assert_eq!(
                harmonic_island_condition(x, 1.0),
                harmonic_reduces_margin(x, 1.0),
                "x = {x}"
            );
        }
    }

    #[test]
    fn eq3_linear_then_saturated() {
        assert_eq!(single_event_worst_case(2.0, 0.0, 8.0), 0.0);
        assert!((single_event_worst_case(2.0, 2.0, 8.0) - 1.0).abs() < 1e-12);
        assert!((single_event_worst_case(2.0, 4.0, 8.0) - 2.0).abs() < 1e-12);
        // saturation past half the duration
        assert!((single_event_worst_case(2.0, 6.0, 8.0) - 2.0).abs() < 1e-12);
        assert!((single_event_worst_case(2.0, 100.0, 8.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_harmonic_matches_eq2() {
        let nu0 = 1.7;
        let t_nu = 40.0;
        let h = Harmonic::new(nu0, t_nu, 0.0);
        for &t_clk in &[1.0, 5.0, 10.0, 20.0, 35.0, 60.0] {
            let analytic = harmonic_worst_case(nu0, t_clk, t_nu);
            let empirical = empirical_worst_case(&h, t_clk, 0.0, 400.0, 0.05);
            assert!(
                (analytic - empirical).abs() < 0.01 * nu0,
                "t_clk={t_clk}: analytic {analytic}, empirical {empirical}"
            );
        }
    }

    #[test]
    fn empirical_single_event_matches_eq3() {
        let nu0 = 2.0;
        let t_nu = 50.0;
        let e = SingleEvent::new(nu0, t_nu, 100.0);
        for &t_clk in &[2.0, 10.0, 25.0, 40.0, 80.0] {
            let analytic = single_event_worst_case(nu0, t_clk, t_nu);
            let empirical = empirical_worst_case(&e, t_clk, 0.0, 400.0, 0.05);
            assert!(
                (analytic - empirical).abs() < 0.02 * nu0,
                "t_clk={t_clk}: analytic {analytic}, empirical {empirical}"
            );
        }
    }

    /// The per-delay scan the shared-grid curve replaces.
    fn scan_worst_case<W: Waveform + ?Sized>(
        nu: &W,
        t_clk: f64,
        t_start: f64,
        t_end: f64,
        dt: f64,
    ) -> f64 {
        let n = ((t_end - t_start) / dt).ceil() as usize;
        (0..=n)
            .map(|k| induced_mismatch(nu, t_start + k as f64 * dt, t_clk).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn curve_equals_per_delay_worst_case_bit_for_bit() {
        let h = Harmonic::new(1.3, 7.0, 0.4);
        let e = SingleEvent::new(-2.0, 5.0, 3.0);
        let t_clks: Vec<f64> = (0..37).map(|j| j as f64 * 0.37).collect();
        for (t_start, t_end, dt) in [(0.0, 20.0, 0.01), (-3.0, 11.5, 0.07)] {
            let curve_h = empirical_worst_case_curve(&h, &t_clks, t_start, t_end, dt);
            let curve_e = empirical_worst_case_curve(&e, &t_clks, t_start, t_end, dt);
            for (j, &t_clk) in t_clks.iter().enumerate() {
                for (curve, wave) in [(&curve_h, &h as &dyn Waveform), (&curve_e, &e)] {
                    let one = empirical_worst_case(wave, t_clk, t_start, t_end, dt);
                    let scan = scan_worst_case(wave, t_clk, t_start, t_end, dt);
                    assert_eq!(curve[j].to_bits(), one.to_bits(), "t_clk={t_clk}");
                    assert_eq!(curve[j].to_bits(), scan.to_bits(), "t_clk={t_clk}");
                }
            }
        }
        assert!(empirical_worst_case_curve(&h, &[], 0.0, 1.0, 0.1).is_empty());
    }

    #[test]
    fn fig2_series_shape() {
        let pts = fig2_series(4.0, 401);
        assert_eq!(pts.len(), 401);
        // harmonic peaks at 2, single event saturates at 1
        let hmax = pts.iter().map(|p| p.harmonic).fold(0.0, f64::max);
        let smax = pts.iter().map(|p| p.single_event).fold(0.0, f64::max);
        assert!((hmax - 2.0).abs() < 1e-6);
        assert!((smax - 1.0).abs() < 1e-12);
        // zero-mismatch islands at integer x for the harmonic curve
        for p in pts.iter().filter(|p| (p.x - p.x.round()).abs() < 1e-9) {
            assert!(p.harmonic.abs() < 1e-9, "x={} h={}", p.x, p.harmonic);
        }
        // single-event curve never decreases
        for w in pts.windows(2) {
            assert!(w[1].single_event >= w[0].single_event - 1e-12);
        }
    }

    proptest! {
        /// Eq. (2) is an upper bound on Eq. (1) for all t.
        #[test]
        fn harmonic_bound_holds(
            t in 0.0f64..1000.0,
            t_clk in 0.0f64..100.0,
            period in 1.0f64..200.0,
            phase in 0.0f64..std::f64::consts::TAU,
        ) {
            let h = Harmonic::new(1.0, period, phase);
            let d = induced_mismatch(&h, t, t_clk).abs();
            let wc = harmonic_worst_case(1.0, t_clk, period);
            prop_assert!(d <= wc + 1e-9, "d={d}, wc={wc}");
        }

        /// Eq. (3) is an upper bound on Eq. (1) for the triangular event.
        #[test]
        fn single_event_bound_holds(
            t in -50.0f64..1050.0,
            t_clk in 0.0f64..500.0,
            duration in 1.0f64..300.0,
        ) {
            let e = SingleEvent::new(1.0, duration, 100.0);
            let d = induced_mismatch(&e, t, t_clk).abs();
            let wc = single_event_worst_case(1.0, t_clk, duration);
            prop_assert!(d <= wc + 1e-9, "d={d}, wc={wc}");
        }
    }
}
