//! Process-variation distributions for Monte Carlo statistical timing.
//!
//! Static (t = 0) process variation decomposes, per the classic SSTA
//! split, into three zero-mean Gaussian components:
//!
//! * **global** (die-to-die): one draw shared by every site of an
//!   instance — a whole chip being fast or slow;
//! * **spatially correlated** (within-die, correlated): a draw per
//!   correlation cell of side [`ProcessSpec::correlation_length`], so
//!   nearby sites move together;
//! * **local** (within-die, independent): a draw per site — random
//!   device-to-device mismatch.
//!
//! A [`ProcessSpec`] holds the three sigmas (in the paper's *stage
//! delay* units) plus the correlation length; [`ProcessSpec::sampler`]
//! binds it to a seed and yields a [`ProcessSampler`] whose draws are a
//! pure function of `(seed, instance, site)` — no RNG state is carried,
//! so instances can be evaluated in any order, in parallel, or
//! re-evaluated, and always produce identical offsets. That purity is
//! what makes Monte Carlo panels cacheable and chunk-parallel merges
//! deterministic.
//!
//! Normal deviates come from a splitmix64-hashed Irwin–Hall(12) sum
//! (sum of 12 uniforms minus 6 — the same idiom the spatial field uses
//! per site), which is deterministic, allocation-free, and accurate to
//! well past the ±3σ range a yield panel cares about.

use serde::{Deserialize, Serialize};

use crate::rng::SplitMix64;
use crate::spatial::Position;

/// The three-component Gaussian process model sampled per instance.
///
/// All sigmas are in stage-delay units (one unit = one nominal gate
/// delay, matching the rest of the crate). Zero sigmas switch the
/// corresponding component off exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessSpec {
    /// Die-to-die sigma: one shared draw per instance.
    pub global_sigma: f64,
    /// Site-independent within-die sigma (device mismatch).
    pub local_sigma: f64,
    /// Spatially-correlated within-die sigma.
    pub spatial_sigma: f64,
    /// Side of a correlation cell in die units (`(0, 1]`); sites in the
    /// same cell share the spatially-correlated draw.
    pub correlation_length: f64,
}

impl ProcessSpec {
    /// A paper-flavoured default: most variance die-to-die, a smaller
    /// correlated within-die term over quarter-die cells, and a small
    /// local mismatch floor.
    pub fn paper() -> Self {
        ProcessSpec {
            global_sigma: 2.0,
            local_sigma: 0.5,
            spatial_sigma: 1.0,
            correlation_length: 0.25,
        }
    }

    /// The spec with every sigma scaled by `s` (correlation length
    /// unchanged) — sigma-scale sweeps for yield surfaces.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Self {
        ProcessSpec {
            global_sigma: self.global_sigma * s,
            local_sigma: self.local_sigma * s,
            spatial_sigma: self.spatial_sigma * s,
            correlation_length: self.correlation_length,
        }
    }

    /// A canonical textual identity for cache keys: every parameter at
    /// full `f64` precision (hex bits), so two specs share an id iff
    /// they sample identically.
    pub fn canonical_id(&self) -> String {
        format!(
            "process:g{:016x}:l{:016x}:s{:016x}:c{:016x}",
            self.global_sigma.to_bits(),
            self.local_sigma.to_bits(),
            self.spatial_sigma.to_bits(),
            self.correlation_length.to_bits(),
        )
    }

    /// Bind the spec to a seed, yielding the pure per-instance sampler.
    pub fn sampler(&self, seed: u64) -> ProcessSampler {
        ProcessSampler { spec: *self, seed }
    }
}

/// A [`ProcessSpec`] bound to a seed: a pure function from
/// `(instance, site)` to a static delay offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessSampler {
    spec: ProcessSpec,
    seed: u64,
}

/// A standard-normal deviate keyed by a hash state.
fn standard_normal(state: u64) -> f64 {
    SplitMix64::new(state).normal()
}

impl ProcessSampler {
    /// The sampled static offset (in stage-delay units) of `instance`
    /// at `site`: global + spatially-correlated + local components.
    ///
    /// Pure in `(instance, site)` for a fixed sampler, so evaluation
    /// order never matters.
    pub fn offset(&self, instance: u64, site: Position) -> f64 {
        let spec = &self.spec;
        let base = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(instance.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut v = 0.0;
        if spec.global_sigma != 0.0 {
            v += spec.global_sigma * standard_normal(base ^ 0x0000_0000_6D1E_6D1E);
        }
        if spec.spatial_sigma != 0.0 {
            // Quantize the site into its correlation cell so every site
            // in the cell shares the draw.
            let cell = spec.correlation_length.max(1e-9);
            let cx = (site.x / cell).floor() as i64 as u64;
            let cy = (site.y / cell).floor() as i64 as u64;
            let cell_key = base
                .wrapping_add(cx.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(cy.wrapping_mul(0x94D0_49BB_1331_11EB));
            v += spec.spatial_sigma * standard_normal(cell_key ^ 0x0000_0000_5A71_A715);
        }
        if spec.local_sigma != 0.0 {
            // Quantize the exact site (1e-6 die units) so float identity
            // noise cannot split a site into two draws.
            let qx = (site.x * 1e6).round() as i64 as u64;
            let qy = (site.y * 1e6).round() as i64 as u64;
            let site_key = base
                .wrapping_add(qx.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(qy.wrapping_mul(0x94D0_49BB_1331_11EB));
            v += spec.local_sigma * standard_normal(site_key ^ 0x0000_0000_10CA_10CA);
        }
        v
    }

    /// What the paper's distributed TDC sensors *observe* of this
    /// instance: the mean sampled offset over the sensor grid — the
    /// static heterogeneous mismatch the closed loop absorbs into its
    /// ring-oscillator period.
    pub fn sensed_offset(&self, instance: u64, sites: &[Position]) -> f64 {
        if sites.is_empty() {
            return 0.0;
        }
        sites.iter().map(|&p| self.offset(instance, p)).sum::<f64>() / sites.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_pure_and_seeded() {
        let spec = ProcessSpec::paper();
        let a = spec.sampler(7);
        let b = spec.sampler(7);
        let c = spec.sampler(8);
        let p = Position::new(0.3, 0.6);
        assert_eq!(a.offset(5, p).to_bits(), b.offset(5, p).to_bits());
        assert_ne!(a.offset(5, p).to_bits(), c.offset(5, p).to_bits());
        assert_ne!(a.offset(5, p), a.offset(6, p), "instances differ");
    }

    #[test]
    fn evaluation_order_never_matters() {
        let s = ProcessSpec::paper().sampler(11);
        let sites = Position::grid(9);
        let forward: Vec<f64> = (0..64u64).map(|i| s.sensed_offset(i, &sites)).collect();
        let mut backward: Vec<f64> = (0..64u64)
            .rev()
            .map(|i| s.sensed_offset(i, &sites))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn zero_sigma_components_vanish() {
        let spec = ProcessSpec {
            global_sigma: 0.0,
            local_sigma: 0.0,
            spatial_sigma: 0.0,
            correlation_length: 0.25,
        };
        let s = spec.sampler(3);
        for i in 0..8u64 {
            assert_eq!(s.offset(i, Position::new(0.2, 0.9)), 0.0);
        }
    }

    #[test]
    fn global_component_is_shared_across_sites() {
        let spec = ProcessSpec {
            global_sigma: 1.5,
            local_sigma: 0.0,
            spatial_sigma: 0.0,
            correlation_length: 0.25,
        };
        let s = spec.sampler(21);
        let a = s.offset(4, Position::new(0.1, 0.1));
        let b = s.offset(4, Position::new(0.9, 0.8));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn spatial_component_correlates_within_cells() {
        let spec = ProcessSpec {
            global_sigma: 0.0,
            local_sigma: 0.0,
            spatial_sigma: 1.0,
            correlation_length: 0.5,
        };
        let s = spec.sampler(9);
        // Same cell (both in [0, 0.5) × [0, 0.5)) → identical draw.
        let a = s.offset(2, Position::new(0.1, 0.1));
        let b = s.offset(2, Position::new(0.4, 0.3));
        assert_eq!(a.to_bits(), b.to_bits());
        // A different cell draws independently (almost surely distinct).
        let c = s.offset(2, Position::new(0.9, 0.9));
        assert_ne!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn distribution_moments_are_roughly_right() {
        let spec = ProcessSpec {
            global_sigma: 2.0,
            local_sigma: 0.0,
            spatial_sigma: 0.0,
            correlation_length: 0.25,
        };
        let s = spec.sampler(0x000C_1A05);
        let p = Position::new(0.5, 0.5);
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n).map(|i| s.offset(i, p)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sigma {}", var.sqrt());
    }

    #[test]
    fn canonical_id_distinguishes_specs() {
        let a = ProcessSpec::paper();
        let b = a.scaled(2.0);
        assert_ne!(a.canonical_id(), b.canonical_id());
        assert_eq!(a.canonical_id(), ProcessSpec::paper().canonical_id());
        assert_eq!(a.scaled(1.0).canonical_id(), a.canonical_id());
    }

    #[test]
    fn sensed_offset_averages_the_grid() {
        let s = ProcessSpec::paper().sampler(5);
        let sites = Position::grid(4);
        let mean = sites.iter().map(|&p| s.offset(3, p)).sum::<f64>() / 4.0;
        assert_eq!(s.sensed_offset(3, &sites).to_bits(), mean.to_bits());
        assert_eq!(s.sensed_offset(3, &[]), 0.0);
    }
}
