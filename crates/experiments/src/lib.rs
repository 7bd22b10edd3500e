//! `experiments` — the reproduction harness for every table and figure of
//! the SOCC 2012 adaptive-clock paper.
//!
//! Each module regenerates one artifact and prints the same rows/series the
//! paper reports:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — variability taxonomy |
//! | [`fig2`] | Fig. 2 — worst-case induced mismatch vs `t_clk/T_ν` |
//! | [`fig7`] | Fig. 7 — timing-error traces for the four schemes |
//! | [`fig8`] | Fig. 8 — relative adaptive period vs CDN delay / HoDV period |
//! | [`fig9`] | Fig. 9 — relative adaptive period vs RO↔TDC mismatch |
//! | [`worked`] | §IV worked examples (60 % / 70 % SM reduction) |
//! | [`constraints`] | §III-A constraints and the closed-loop stability bound |
//!
//! Beyond the paper's own artifacts, four extension experiments quantify
//! what the paper only sketches:
//!
//! | Module | Extension |
//! |---|---|
//! | [`ext_sensitivity`] | z-domain prediction of the adaptation error envelope |
//! | [`ext_throughput`] | Razor-style pipeline throughput vs operated set-point |
//! | [`ext_noise`] | broadband (OU + SSN burst) robustness |
//! | [`ext_stability`] | clock-domain-size stability map across gain sets |
//! | [`ext_lock`] | cold-start lock time vs the modal-analysis prediction |
//! | [`ext_coupling`] | additive (paper) vs multiplicative variation coupling |
//! | [`ext_faults`] | chaos sweep: fault class × rate × scheme violation/MTTR table |
//! | [`ext_yield`] | Monte Carlo timing-yield vs safety-margin surfaces per scheme |
//! | [`ext_mesh`] | GALS clock-mesh scenarios: domain failure, Byzantine neighbour, power event |
//!
//! The `repro` binary dispatches on experiment id:
//! `cargo run -p experiments --bin repro -- fig8`. It can also run as a
//! resident experiment service (`repro serve` / `submit` / `jobs` /
//! `cancel`): the [`service`] module plugs the registry into
//! `clock-serve`'s supervised job runtime, sharing one persistent result
//! cache across submissions.
//!
//! Results are returned as structured [`results`] values (serializable) and
//! rendered to text with [`render`], so EXPERIMENTS.md entries can be
//! regenerated and diffed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod config;
pub mod constraints;
pub mod ext_coupling;
pub mod ext_faults;
pub mod ext_lock;
pub mod ext_mesh;
pub mod ext_noise;
pub mod ext_sensitivity;
pub mod ext_stability;
pub mod ext_throughput;
pub mod ext_yield;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod montecarlo;
pub mod registry;
pub mod render;
pub mod results;
pub mod runner;
pub mod service;
pub mod sweep;
pub mod table1;
pub mod worked;
