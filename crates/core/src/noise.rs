//! Deterministic noise primitives shared by the jitter and sensor-noise
//! models: pure functions of `(seed, key)`, so simulations stay exactly
//! reproducible and waveforms may be sampled in any order.

use variation::rng::{SplitMix64, PHI};

/// A standard-normal-ish sample (Irwin–Hall with n = 12, bounded ±6) that
/// is a pure function of `(seed, key)`: the stream starts one φ step past
/// the per-edge jitter stream of the same seed and key.
///
/// Inlined into `Tdc::read`, so the read stays one out-of-line call from
/// the event loop's worst-reading scan; left to the inliner, the read
/// itself inlines into the scan, and `repro --no-cache fig9` and
/// `ext-faults` ran 2–4% slower on a 2-vCPU Xeon VM with sensor noise
/// off.
#[inline]
pub fn hash_gauss(seed: u64, key: u64) -> f64 {
    SplitMix64::new((seed ^ key.wrapping_mul(PHI)).wrapping_add(PHI)).normal()
}

/// A key derived from a measurement time: quantizes `t` to 2⁻²⁰ stage
/// units so numerically identical times map to identical keys.
pub fn time_key(t: f64) -> u64 {
    (t * (1u64 << 20) as f64).round() as i64 as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_is_deterministic() {
        assert_eq!(hash_gauss(1, 42), hash_gauss(1, 42));
        assert_ne!(hash_gauss(1, 42), hash_gauss(2, 42));
        assert_ne!(hash_gauss(1, 42), hash_gauss(1, 43));
    }

    #[test]
    fn gauss_is_calibrated() {
        let n = 20_000u64;
        let (mut sum, mut sum2) = (0.0f64, 0.0f64);
        for k in 0..n {
            let v = hash_gauss(7, k);
            sum += v;
            sum2 += v * v;
        }
        let mean = sum / n as f64;
        let std = (sum2 / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((std - 1.0).abs() < 0.05, "std {std}");
    }

    #[test]
    fn time_key_distinguishes_close_times() {
        assert_ne!(time_key(64.0), time_key(64.001));
        assert_eq!(time_key(64.0), time_key(64.0));
        // negative times do not panic
        let _ = time_key(-5.0);
    }
}
