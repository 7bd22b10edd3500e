//! Descriptive statistics over recorded signals.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample set.
///
/// # Example
///
/// ```
/// use clock_metrics::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0]).expect("non-empty");
/// assert_eq!(s.mean, 2.0);
/// assert_eq!(s.range(), 2.0);
/// assert!(Summary::of(&[]).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarize a slice. Returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let pct = |p: f64| -> f64 {
            // linear interpolation between closest ranks
            let idx = p * (n - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            sorted[lo] + frac * (sorted[hi] - sorted[lo])
        };
        Some(Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p05: pct(0.05),
            p50: pct(0.50),
            p95: pct(0.95),
        })
    }

    /// Peak-to-peak range.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.range(), 4.0);
        assert!((s.std - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_and_singleton() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p05, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::of(&[0.0, 10.0]).unwrap();
        assert!((s.p05 - 0.5).abs() < 1e-12);
        assert!((s.p95 - 9.5).abs() < 1e-12);
        assert!((s.p50 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_order_invariant() {
        let a = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }
}
