//! Safety-margin accounting and the relative adaptive period.
//!
//! # The shift property
//!
//! Every scheme in the paper responds to a set-point (or design-length, or
//! fixed-period) increase of `m` stages by shifting its whole `τ` and
//! period trajectories up by exactly `m`:
//!
//! * **fixed clock** — `τ = T_fixed − e + μ` is affine in `T_fixed`;
//! * **free RO** — `τ = l_RO + Δe + μ` is affine in the design length;
//! * **IIR / TEAtime RO** — the loop regulates `τ` to the set-point; both
//!   the linear filter and the sign nonlinearity commute with a constant
//!   offset of (set-point, τ, l_RO) as long as the integer arithmetic is
//!   offset by whole stages.
//!
//! Hence the *minimal error-free margin* is read off a single nominal run:
//! `m* = max(0, max_n (c − τ[n]))`, the mean period of the margined system
//! is `⟨T⟩ + m*`, and no per-point search is needed. Those figures of merit
//! are `adaptive_clock::RunSummary`'s `required_margin`,
//! `needed_adaptive_period`, `needed_fixed_period`, `relative_to` and
//! `relative_with_margin`, read off `RunSummary::of` a recorded run. The integration tests re-verify the property by actually
//! re-running shifted systems.
//!
//! For sweeps that probe margins empirically (or validate the shift
//! property point by point), [`minimal_margin`] provides a bracketing
//! search that can be warm-started from a neighbouring grid point's
//! result, cutting the probe count along smooth sweeps.

/// Outcome of a [`minimal_margin`] search: the smallest passing margin and
/// the number of predicate evaluations it took to find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarginSearch {
    /// The smallest non-negative integer margin for which the predicate
    /// holds.
    pub margin: i64,
    /// How many times the predicate was evaluated. Sweeps warm-started from
    /// a neighbouring grid point's result report `probes` savings through
    /// telemetry.
    pub probes: u32,
}

/// Find the smallest non-negative integer margin `m` such that `ok(m)` is
/// true, assuming `ok` is monotone (once true, true for every larger
/// margin).
///
/// The search exponentially brackets the transition outward from
/// `warm_start` (or from 0 when cold) and then bisects the bracket, so a
/// warm start taken from the neighbouring point of a smooth sweep costs
/// `O(log Δ)` probes in the distance `Δ` between the two results instead of
/// `O(log m)` from scratch.
///
/// ```
/// use clock_metrics::margin::minimal_margin;
///
/// let cold = minimal_margin(|m| m >= 13, None);
/// assert_eq!(cold.margin, 13);
/// let warm = minimal_margin(|m| m >= 13, Some(12));
/// assert_eq!(warm.margin, 13);
/// assert!(warm.probes < cold.probes);
/// ```
pub fn minimal_margin(mut ok: impl FnMut(i64) -> bool, warm_start: Option<i64>) -> MarginSearch {
    let mut probes = 0u32;
    let mut probe = |m: i64, probes: &mut u32| {
        *probes += 1;
        ok(m)
    };
    let start = warm_start.unwrap_or(0).max(0);
    // Bracket the transition: end with ok(hi) true and ok(lo) false, lo < hi.
    let mut lo;
    let mut hi;
    if probe(start, &mut probes) {
        if start == 0 {
            return MarginSearch { margin: 0, probes };
        }
        // Walk down in doubling steps until the predicate fails.
        hi = start;
        let mut step = 1i64;
        loop {
            let cand = (hi - step).max(0);
            if probe(cand, &mut probes) {
                hi = cand;
                if cand == 0 {
                    return MarginSearch { margin: 0, probes };
                }
                step = step.saturating_mul(2);
            } else {
                lo = cand;
                break;
            }
        }
    } else {
        // Walk up in doubling steps until the predicate holds.
        lo = start;
        let mut step = 1i64;
        loop {
            let cand = start.saturating_add(step);
            if probe(cand, &mut probes) {
                hi = cand;
                break;
            }
            lo = cand;
            step = step.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid, &mut probes) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    MarginSearch { margin: hi, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_clock::event::Sample;
    use adaptive_clock::{RunSummary, RunTrace};

    /// The summary of a run recording `taus` and `periods` at `setpoint`.
    fn trace(setpoint: f64, taus: &[f64], periods: &[f64]) -> RunSummary {
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
        let r = trace(64.0, &[64.0, 60.0, 66.0, 62.0], &[64.0; 4]);
        assert_eq!(r.required_margin(), 4.0);
    }

    #[test]
    fn margin_zero_when_always_above_setpoint() {
        let r = trace(64.0, &[64.0, 65.0, 70.0], &[64.0; 3]);
        assert_eq!(r.required_margin(), 0.0);
    }

    #[test]
    fn needed_period_adds_margin_to_mean() {
        let r = trace(64.0, &[60.0, 64.0], &[64.0, 66.0]);
        assert_eq!(r.needed_adaptive_period(), 65.0 + 4.0);
    }

    #[test]
    fn fixed_needed_period_uses_setpoint_not_mean() {
        // fixed run at nominal c: τ dips by 12.8 under a 20% HoDV
        let r = trace(64.0, &[51.2, 76.8, 64.0], &[64.0; 3]);
        assert!((r.needed_fixed_period() - 76.8).abs() < 1e-12);
    }

    #[test]
    fn relative_period_below_one_when_adaptive_wins() {
        let adaptive = trace(64.0, &[63.0, 65.0], &[64.0, 64.0]);
        let fixed = trace(64.0, &[51.2, 76.8], &[64.0, 64.0]);
        let r = adaptive.relative_to(&fixed);
        assert!((r - 65.0 / 76.8).abs() < 1e-12);
        assert!(r < 1.0);
    }

    #[test]
    fn minimal_margin_finds_threshold_cold() {
        for threshold in [0i64, 1, 2, 7, 13, 100, 1000] {
            let r = minimal_margin(|m| m >= threshold, None);
            assert_eq!(r.margin, threshold, "threshold {threshold}");
        }
    }

    #[test]
    fn minimal_margin_warm_start_saves_probes() {
        let cold = minimal_margin(|m| m >= 137, None);
        assert_eq!(cold.margin, 137);
        // A neighbouring sweep point's result is close to the answer.
        for warm_start in [135i64, 136, 137, 138, 140] {
            let warm = minimal_margin(|m| m >= 137, Some(warm_start));
            assert_eq!(warm.margin, 137, "warm from {warm_start}");
            assert!(
                warm.probes < cold.probes,
                "warm from {warm_start}: {} vs cold {}",
                warm.probes,
                cold.probes
            );
        }
    }

    #[test]
    fn minimal_margin_exact_warm_start_is_cheapest() {
        let exact = minimal_margin(|m| m >= 42, Some(42));
        assert_eq!(exact.margin, 42);
        // probe(42)=true, probe(41)=false: the bracket is immediate.
        assert_eq!(exact.probes, 2);
    }

    #[test]
    fn minimal_margin_handles_zero_and_negative_warm_start() {
        let r = minimal_margin(|m| m >= 0, Some(-5));
        assert_eq!(r.margin, 0);
        assert_eq!(r.probes, 1);
        let r = minimal_margin(|m| m >= 9, Some(0));
        assert_eq!(r.margin, 9);
    }

    #[test]
    fn minimal_margin_counts_runs_as_probes() {
        // The intended use: each probe re-runs a margined system.
        let mut runs = 0u32;
        let r = minimal_margin(
            |m| {
                runs += 1;
                m >= 5
            },
            None,
        );
        assert_eq!(r.margin, 5);
        assert_eq!(r.probes, runs);
    }

    #[test]
    fn external_margin_variant() {
        let adaptive = trace(64.0, &[64.0, 64.0], &[64.0, 64.0]);
        let fixed = trace(64.0, &[54.0, 64.0], &[64.0, 64.0]);
        let r = adaptive.relative_with_margin(10.0, &fixed);
        assert!((r - 74.0 / 74.0).abs() < 1e-12);
    }
}
