//! Bootstrap confidence intervals for metrics aggregated over stochastic
//! seeds (the broadband-noise experiments report these).

use serde::{Deserialize, Serialize};
use variation::rng::SplitMix64;

/// A bootstrap percentile confidence interval for the mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The confidence level used (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether a value lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }

    /// Interval half-width.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Percentile-bootstrap confidence interval for the mean of `values`.
///
/// # Panics
///
/// Panics if `values` is empty, `resamples == 0`, or `level` outside
/// `(0, 1)`.
pub fn bootstrap_mean_ci(
    values: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> ConfidenceInterval {
    assert!(!values.is_empty(), "need at least one observation");
    assert!(resamples > 0, "need at least one resample");
    assert!((0.0..1.0).contains(&level) && level > 0.0, "level in (0,1)");
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let mut rng = SplitMix64::new(seed.wrapping_add(0x1234_5678));
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let s: f64 = (0..n)
            .map(|_| values[(rng.next() % n as u64) as usize])
            .sum();
        means.push(s / n as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let alpha = (1.0 - level) / 2.0;
    let idx =
        |p: f64| -> usize { ((p * (resamples - 1) as f64).round() as usize).min(resamples - 1) };
    ConfidenceInterval {
        mean,
        lo: means[idx(alpha)],
        hi: means[idx(1.0 - alpha)],
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_the_mean() {
        let values: Vec<f64> = (0..50).map(|k| (k % 7) as f64).collect();
        let ci = bootstrap_mean_ci(&values, 0.95, 2000, 42);
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!(ci.contains(ci.mean));
        assert!(ci.half_width() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let values = [1.0, 2.0, 3.0, 4.0, 10.0];
        let a = bootstrap_mean_ci(&values, 0.9, 500, 7);
        let b = bootstrap_mean_ci(&values, 0.9, 500, 7);
        assert_eq!(a, b);
        // (different seeds may legitimately snap to the same percentile
        // values on small samples, so only same-seed equality is asserted)
    }

    #[test]
    fn tighter_data_gives_tighter_interval() {
        let tight: Vec<f64> = (0..40).map(|k| 5.0 + 0.01 * (k % 3) as f64).collect();
        let wide: Vec<f64> = (0..40).map(|k| 5.0 + 2.0 * (k % 3) as f64).collect();
        let ct = bootstrap_mean_ci(&tight, 0.95, 1000, 1);
        let cw = bootstrap_mean_ci(&wide, 0.95, 1000, 1);
        assert!(ct.half_width() < cw.half_width());
    }

    #[test]
    fn constant_data_gives_degenerate_interval() {
        let ci = bootstrap_mean_ci(&[3.0; 10], 0.99, 200, 0);
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.mean, 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_rejected() {
        let _ = bootstrap_mean_ci(&[], 0.95, 100, 0);
    }

    #[test]
    fn coverage_sanity() {
        // For normal-ish data the 95% CI for the mean should contain the
        // true mean in most of repeated trials. Build trials from disjoint
        // slices of a deterministic pseudo-random stream.
        let mut rng = SplitMix64::new(99);
        let mut hits = 0;
        let trials = 60;
        for t in 0..trials {
            let values: Vec<f64> = (0..30)
                .map(|_| {
                    // Irwin-Hall(4) centered: mean 0
                    let s: f64 = (0..4).map(|_| rng.unit()).sum();
                    s - 2.0
                })
                .collect();
            let ci = bootstrap_mean_ci(&values, 0.95, 400, t as u64);
            if ci.contains(0.0) {
                hits += 1;
            }
        }
        assert!(hits >= 48, "coverage {hits}/{trials} too low");
    }
}
