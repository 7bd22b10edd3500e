//! `adaptive-clock` — self-adaptive clock generation based on a controlled
//! ring oscillator.
//!
//! This crate is a from-scratch reproduction of the system proposed in
//! *"Variation tolerant self-adaptive clock generation architecture based on
//! a ring oscillator"* (Pérez-Puigdemont, Calomarde, Moll — SOCC 2012).
//!
//! # The architecture
//!
//! A **ring oscillator** (RO) generates the clock. Its period, expressed in
//! *number of stages* (one unit = one nominal gate delay), tracks the PVTA
//! variations at the RO's location. **Time-to-digital converters** (TDCs)
//! disseminated over the clock domain measure, each delivered period, how
//! many gate stages a signal traversed — the reading `τ`. A **control
//! block** compares the worst (lowest) reading against a set-point `c` and
//! adjusts the RO length `l_RO` to null the error `δ = c − τ`. The clock
//! reaches the sensors through a **clock distribution network** (CDN) with
//! delay `t_clk`, which makes the loop see its own actions only
//! `M = t_clk / T_clk` periods later.
//!
//! Four clock generation schemes are provided, exactly the paper's §IV
//! line-up:
//!
//! * [`controller::IntIirControl`] — the integer, power-of-two-gain IIR
//!   filter of the paper's Fig. 5 / Eq. (9);
//! * [`controller::TeaTime`] — Uht's TEAtime sign-increment control
//!   (paper Fig. 6);
//! * [`controller::FreeRunning`] — an uncontrolled RO of fixed length;
//! * a fixed clock (PLL-style), the baseline every figure normalizes
//!   against.
//!
//! # The engines
//!
//! Per-domain loop state (controller, CDN depth, faults, hardening,
//! variation) lives in one place — the [`bank::DomainBank`] — and the
//! engines are stepping strategies over it: the scalar [`loopsim`] loop
//! and the mesh drive a one-period-at-a-time [`bank::BankRunner`], while
//! the [`batch`] engine advances a whole bank per period with SoA lane
//! blocks as its internal layout. All strategies share one step body, so
//! they are bit-identical on the same domain.
//!
//! * [`loopsim`] — the paper-faithful discrete-time loop of its Fig. 4 with
//!   a *fixed* integer CDN delay `M`; its responses match the z-domain
//!   transfer functions of Eq. (4)–(5) sample-for-sample (see the
//!   cross-validation tests), which is what makes the rest of the tower
//!   trustworthy.
//! * [`event`] — an event-driven engine that tracks absolute clock-edge
//!   times, so the CDN delay in *periods* varies with the instantaneous
//!   period (`M[n] = t_clk / T_clk[n]`, as the paper requires) and
//!   fractional delays like `t_clk = 0.75c` are exact. All figure
//!   reproductions run on this engine.
//! * [`dtmodel`] — the same Fig. 4 loop assembled as a [`dtsim`]
//!   block-diagram, demonstrating (and cross-checking) the Simulink-
//!   substitute substrate.
//!
//! # Quickstart
//!
//! ```
//! use adaptive_clock::system::{RunSummary, Scheme, SystemBuilder};
//! use variation::sources::Harmonic;
//!
//! # fn main() -> Result<(), adaptive_clock::Error> {
//! let c = 64;
//! let system = SystemBuilder::new(c)
//!     .cdn_delay(c as f64)          // t_clk = one nominal period
//!     .scheme(Scheme::iir_paper())
//!     .build()?;
//! // 20% homogeneous dynamic variation with period 50c
//! let hodv = Harmonic::new(0.2 * c as f64, 50.0 * c as f64, 0.0);
//! let run = system.run(&hodv, 2000);
//! let worst = RunSummary::of(&run).worst_negative_error;
//! assert!(worst < 0.2 * c as f64, "adaptation must beat the raw variation");
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide, not forbidden: the lane-block engine's
// trace appends use x86-64 non-temporal store intrinsics (no safe stable
// wrapper exists), carved out with item-level `allow(unsafe_code)` and a
// SAFETY argument at the single site in `batch::blocked`. Everything
// else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod batch;
pub mod cdn;
pub mod controller;
pub mod dtmodel;
mod error;
pub mod event;
pub mod loopsim;
pub mod noise;
pub mod pipeline;
pub mod resilience;
pub mod ro;
pub mod setpoint;
pub mod system;
pub mod tdc;

pub use error::Error;
pub use system::{RunSummary, RunTrace, Scheme, SystemBuilder};

/// Numeric-behaviour revision of the simulation engines in this crate.
///
/// Result caches mix this into their content keys. Bump it whenever a
/// change alters the *numbers* an identical configuration produces (loop
/// arithmetic, quantization, equilibrium start state, warm-up semantics,
/// …) so every previously cached result becomes a clean miss. Pure
/// refactors, speed-ups and new APIs must NOT bump it — that would throw
/// away a still-valid cache.
pub const ENGINE_REV: u32 = 1;
