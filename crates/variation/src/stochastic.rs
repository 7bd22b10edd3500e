//! Stochastic variation processes beyond filtered noise: SSN burst trains
//! and an Ornstein–Uhlenbeck temperature model. Both are pre-sampled on a
//! grid at construction from a seed, so [`Waveform::value`] stays a pure
//! function of time (the simulators may sample in any order).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::sources::{SingleEvent, Waveform};

/// Simultaneous-switching-noise model: a Poisson-ish train of triangular
/// droop events (each shaped like the paper's single-event HoDV) with
/// randomized amplitudes and durations.
#[derive(Debug, Clone)]
pub struct SsnBursts {
    /// The bursts, sorted by start time.
    events: Vec<SingleEvent>,
    /// The longest burst duration (0 for an empty train).
    max_duration: f64,
}

/// Configuration for [`SsnBursts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsnConfig {
    /// Mean inter-arrival time between bursts (stage units).
    pub mean_gap: f64,
    /// Peak amplitude range `[lo, hi]` (stage units).
    pub amplitude: (f64, f64),
    /// Duration range `[lo, hi]` (stage units).
    pub duration: (f64, f64),
    /// Horizon to populate (stage units).
    pub horizon: f64,
}

impl SsnBursts {
    /// Generate a deterministic burst train from a seed.
    ///
    /// The bursts come out sorted by start time (arrivals accumulate
    /// positive gaps); [`Waveform::value`] relies on that order to look up
    /// only the bursts that can reach `t`.
    ///
    /// # Panics
    ///
    /// Panics if any range is inverted, or `mean_gap`/`horizon` are not
    /// positive.
    pub fn new(seed: u64, config: SsnConfig) -> Self {
        assert!(config.mean_gap > 0.0, "mean gap must be positive");
        assert!(config.horizon > 0.0, "horizon must be positive");
        assert!(
            config.amplitude.0 <= config.amplitude.1,
            "amplitude range inverted"
        );
        assert!(
            config.duration.0 <= config.duration.1 && config.duration.0 > 0.0,
            "duration range invalid"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        while t < config.horizon {
            // exponential inter-arrival via inverse transform
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -config.mean_gap * u.ln();
            if t >= config.horizon {
                break;
            }
            let amp = if config.amplitude.0 == config.amplitude.1 {
                config.amplitude.0
            } else {
                rng.gen_range(config.amplitude.0..config.amplitude.1)
            };
            let dur = if config.duration.0 == config.duration.1 {
                config.duration.0
            } else {
                rng.gen_range(config.duration.0..config.duration.1)
            };
            events.push(SingleEvent::new(amp, dur, t));
        }
        debug_assert!(
            events.windows(2).all(|w| w[0].start() <= w[1].start()),
            "burst starts must be sorted"
        );
        let max_duration = events.iter().map(SingleEvent::duration).fold(0.0, f64::max);
        SsnBursts {
            events,
            max_duration,
        }
    }

    /// Number of bursts generated within the horizon.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no bursts were generated.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Waveform for SsnBursts {
    fn value(&self, t: f64) -> f64 {
        // A burst is non-zero only while `0 ≤ (t − start)/duration ≤ 1`,
        // so only starts in `[t − max_duration, t]` can reach `t`. The
        // window is widened to twice the longest duration so rounding in
        // that quotient cannot drop a burst at its very end.
        let lo = self
            .events
            .partition_point(|e| e.start() < t - 2.0 * self.max_duration);
        let hi = self.events.partition_point(|e| e.start() <= t);
        // Bursts may overlap: sum their contributions in start order, the
        // order of a full scan.
        let sum: f64 = self.events[lo..hi].iter().map(|e| e.value(t)).sum();
        // Each skipped burst would add +0.0, which only matters to a
        // `-0.0` sum (the empty-sum value): add it once to keep the bits.
        if hi - lo < self.events.len() {
            sum + 0.0
        } else {
            sum
        }
    }
    fn amplitude_bound(&self) -> f64 {
        // overlapping bursts can stack; bound by the sum of the two largest
        // is enough in practice, but stay strictly conservative:
        self.events.iter().map(|e| e.amplitude_bound()).sum()
    }
}

/// Ornstein–Uhlenbeck temperature drift: mean-reverting noise with time
/// constant `tau` and stationary standard deviation `sigma`, sampled on a
/// grid and linearly interpolated.
#[derive(Debug, Clone)]
pub struct OuProcess {
    samples: Vec<f64>,
    dt: f64,
    sigma: f64,
}

impl OuProcess {
    /// Generate an OU path over `[0, horizon]` with grid spacing `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `tau`, `sigma`, `dt` or `horizon` are not positive.
    pub fn new(seed: u64, sigma: f64, tau: f64, horizon: f64, dt: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(tau > 0.0, "time constant must be positive");
        assert!(dt > 0.0, "grid spacing must be positive");
        assert!(horizon > 0.0, "horizon must be positive");
        let n = (horizon / dt).ceil() as usize + 2;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let alpha = (-dt / tau).exp();
        let noise_scale = sigma * (1.0 - alpha * alpha).sqrt();
        let mut x = 0.0f64;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(x);
            // sum of 12 uniforms ≈ standard normal (Irwin–Hall)
            let z: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
            x = alpha * x + noise_scale * z;
        }
        OuProcess { samples, dt, sigma }
    }

    /// The stationary standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Waveform for OuProcess {
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
        // OU is unbounded in theory; report the realized path bound.
        self.samples.iter().map(|s| s.abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SsnConfig {
        SsnConfig {
            mean_gap: 500.0,
            amplitude: (2.0, 8.0),
            duration: (50.0, 200.0),
            horizon: 50_000.0,
        }
    }

    #[test]
    fn ssn_is_deterministic_per_seed() {
        let a = SsnBursts::new(7, cfg());
        let b = SsnBursts::new(7, cfg());
        let c = SsnBursts::new(8, cfg());
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for k in 0..200 {
            let t = k as f64 * 177.0;
            assert_eq!(a.value(t), b.value(t));
        }
        assert_ne!(a.len(), 0);
        let differs = (0..200).any(|k| {
            let t = k as f64 * 177.0;
            (a.value(t) - c.value(t)).abs() > 1e-12
        });
        assert!(differs);
    }

    #[test]
    fn ssn_burst_count_tracks_rate() {
        let bursts = SsnBursts::new(42, cfg());
        // horizon / mean_gap = 100 expected arrivals; allow wide slack
        assert!(
            (50..200).contains(&bursts.len()),
            "got {} bursts",
            bursts.len()
        );
    }

    #[test]
    fn ssn_zero_between_bursts_possible() {
        let sparse = SsnBursts::new(
            1,
            SsnConfig {
                mean_gap: 10_000.0,
                horizon: 30_000.0,
                ..cfg()
            },
        );
        // with very sparse bursts, most sampled times are exactly 0
        let zeros = (0..300)
            .filter(|k| sparse.value(*k as f64 * 100.0) == 0.0)
            .count();
        assert!(zeros > 150, "only {zeros} zero samples");
    }

    /// The full scan the windowed lookup replaces.
    fn full_scan(bursts: &SsnBursts, t: f64) -> f64 {
        bursts.events.iter().map(|e| e.value(t)).sum()
    }

    #[test]
    fn windowed_value_matches_full_scan_bit_for_bit() {
        let configs = [
            // the ext-noise shape: sparse, rarely overlapping
            cfg(),
            // dense and heavily overlapping
            SsnConfig {
                mean_gap: 20.0,
                duration: (50.0, 400.0),
                horizon: 5_000.0,
                ..cfg()
            },
            // negative droops, so edge samples are -0.0
            SsnConfig {
                amplitude: (-8.0, -2.0),
                duration: (100.0, 100.0),
                horizon: 5_000.0,
                ..cfg()
            },
            // usually empty: the first arrival lands past the horizon
            SsnConfig {
                mean_gap: 1e9,
                horizon: 10.0,
                ..cfg()
            },
        ];
        let mut empty_trains = 0;
        for config in configs {
            for seed in 0..24 {
                let bursts = SsnBursts::new(seed, config);
                empty_trains += usize::from(bursts.is_empty());
                let h = config.horizon;
                let mut ts = vec![-1e300, -h, -1.0, -0.0, 0.0, h, h + 1.0, 3.0 * h, 1e300];
                ts.extend((0..=400).map(|k| f64::from(k) * h / 400.0));
                for e in &bursts.events {
                    let (start, end) = (e.start(), e.start() + e.duration());
                    ts.extend([start, start.next_down(), start.next_up()]);
                    ts.extend([end, end.next_down(), end.next_up()]);
                    ts.push(start + 0.5 * e.duration());
                }
                for t in ts {
                    assert_eq!(
                        bursts.value(t).to_bits(),
                        full_scan(&bursts, t).to_bits(),
                        "seed {seed}, t = {t}, {config:?}"
                    );
                }
            }
        }
        assert!(empty_trains > 0, "no empty train was exercised");
    }

    #[test]
    fn windowed_value_keeps_the_sign_of_zero() {
        let empty = SsnBursts::new(
            0,
            SsnConfig {
                mean_gap: 1e12,
                horizon: 1.0,
                ..cfg()
            },
        );
        assert!(empty.is_empty());
        // an empty f64 sum is -0.0
        assert_eq!(empty.value(0.5).to_bits(), (-0.0f64).to_bits());
        let train = SsnBursts::new(7, cfg());
        // far from every burst, the skipped bursts' +0.0 terms win
        assert_eq!(train.value(-1.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn ou_is_mean_reverting_and_scaled() {
        let ou = OuProcess::new(3, 2.0, 1000.0, 200_000.0, 10.0);
        let vals: Vec<f64> = (0..10_000).map(|k| ou.value(k as f64 * 20.0)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.5, "OU mean {mean} should hover near 0");
        let std = var.sqrt();
        assert!(
            (1.0..3.5).contains(&std),
            "OU std {std} should be near sigma = 2"
        );
        assert!(ou.amplitude_bound() >= std);
        assert_eq!(ou.sigma(), 2.0);
    }

    #[test]
    fn ou_deterministic_and_interpolated() {
        let a = OuProcess::new(9, 1.0, 500.0, 10_000.0, 10.0);
        let b = OuProcess::new(9, 1.0, 500.0, 10_000.0, 10.0);
        assert_eq!(a.value(123.4), b.value(123.4));
        let mid = a.value(15.0);
        let lo = a.value(10.0);
        let hi = a.value(20.0);
        assert!((mid - 0.5 * (lo + hi)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn ou_rejects_bad_sigma() {
        let _ = OuProcess::new(0, 0.0, 1.0, 1.0, 0.5);
    }
}
