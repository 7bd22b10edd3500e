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
//! the paper, the *shift property*: adding `m` stages to the set-point (or
//! to the free-RO length, or to the fixed period) shifts the whole `τ` and
//! period trajectories by exactly `+m`:
//!
//! * **fixed clock** — `τ = T_fixed − e + μ` is affine in `T_fixed`;
//! * **free RO** — `τ = l_RO + Δe + μ` is affine in the design length;
//! * **IIR / TEAtime RO** — the loop regulates `τ` to the set-point; both
//!   the linear filter and the sign nonlinearity commute with a constant
//!   offset of (set-point, τ, l_RO) as long as the integer arithmetic is
//!   offset by whole stages.
//!
//! The minimal error-free margin is therefore `max(0, max_n (c − τ[n]))`
//! of a single run at the nominal set-point, and no search loop is needed.
//! `adaptive_clock::RunSummary` reads that margin and the figures of merit
//! built on it off one run; the integration tests verify the shift
//! property by re-running shifted systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod boundary;
pub mod resilience;
pub mod settling;
pub mod stats;
pub mod worked;

pub use boundary::{BoundaryMonitor, BoundaryReport};
pub use resilience::{violation_report, ViolationReport};
pub use stats::Summary;
