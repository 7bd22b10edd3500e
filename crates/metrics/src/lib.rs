//! `clock-metrics` — figures of merit for adaptive clock generation.
//!
//! The paper evaluates clock generation schemes by two quantities:
//!
//! * the **timing error** `τ − c` (Fig. 7) and its most negative excursion,
//!   which "is equal, in absolute value, to the needed safety margin";
//! * the **relative adaptive period** `⟨T_clk⟩ / T_fixed` (Figs. 8–9): the
//!   mean period of the adaptive clock *operated with just enough margin to
//!   be error-free*, normalized by the fixed-clock period that would be
//!   needed for the same guarantee.
//!
//! The margin accounting exploits a structural property of every scheme in
//! the paper (see [`margin`]): adding `m` stages to the set-point (or to
//! the free-RO length, or to the fixed period) shifts the whole `τ` and
//! period trajectories by exactly `+m`. The minimal error-free margin is
//! therefore `max(0, max_n (c − τ[n]))` of a single run at the nominal
//! set-point — no search loop is needed, and the tests verify the shift
//! property explicitly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod boundary;
pub mod margin;
pub mod resilience;
pub mod settling;
pub mod stats;
pub mod worked;

pub use boundary::{metastability_risk, BoundaryMonitor, BoundaryReport};
pub use resilience::{violation_report, ViolationReport};
pub use stats::{Histogram, Summary};
