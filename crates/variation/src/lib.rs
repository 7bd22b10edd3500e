//! `variation` — models of PVTA (process, voltage, temperature, aging)
//! variability for adaptive-clock studies.
//!
//! The SOCC 2012 paper classifies variability sources along two axes
//! (its Table I): **time** (static vs dynamic) and **space** (homogeneous
//! vs heterogeneous across the die). This crate provides:
//!
//! * [`taxonomy`] — the Table I classification as data;
//! * [`sources`] — time-domain waveform generators for dynamic variations
//!   (harmonic, single-event triangular droop, constant offset, sums);
//! * [`analysis`] — the paper's Eq. (1)–(3): the mismatch a clock
//!   distribution delay induces between the ring oscillator and a critical
//!   path under a homogeneous dynamic variation, in closed form and
//!   empirically;
//! * [`spatial`] — per-sensor heterogeneous variation fields (gradients,
//!   hotspots, seeded within-die randomness);
//! * [`process`] — per-instance Gaussian process distributions
//!   (die-to-die, spatially-correlated, local) sampled by a pure seeded
//!   function for Monte Carlo statistical timing;
//! * [`rng`] — the workspace's one reproducible random stream
//!   (splitmix64 and its Irwin–Hall normal).
//!
//! All delays and amplitudes follow the paper's convention of being
//! expressed in *number of stages* (one unit = one nominal gate delay).
//!
//! # Example
//!
//! The worst-case induced mismatch of Eq. (2) matches an empirical sweep of
//! the waveform:
//!
//! ```
//! use variation::sources::{Harmonic, Waveform};
//! use variation::analysis;
//!
//! let hodv = Harmonic::new(12.8, 1600.0, 0.0); // 0.2c amplitude, Te = 25c for c = 64
//! let tclk = 64.0;
//! let analytic = analysis::harmonic_worst_case(12.8, tclk, 1600.0);
//! let empirical = analysis::empirical_worst_case(&hodv, tclk, 0.0, 16_000.0, 0.25);
//! assert!((analytic - empirical).abs() < 0.05 * analytic.max(1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod process;
pub mod recorded;
pub mod rng;
pub mod sources;
pub mod spatial;
pub mod stochastic;
pub mod taxonomy;

pub use sources::Waveform;
