//! `clock-serve` — the fault-contained experiment service: a
//! dependency-free HTTP/1.1+JSON server over `std::net` that runs
//! registry experiments as supervised jobs.
//!
//! The crate is deliberately experiments-agnostic: it defines the
//! [`JobExecutor`] trait and everything around it (parsing, queueing,
//! supervision, journaling, draining), while the `experiments` crate
//! implements the executor on top of its registry and result cache. That
//! keeps the dependency arrow acyclic (`experiments → clock-serve`) and
//! makes every service mechanism testable with toy executors.
//!
//! | Module | Provides |
//! |---|---|
//! | [`http`] | hand-rolled, capped, non-panicking HTTP/1.1 parser + chunked responses |
//! | [`job`] | specs, lifecycle states, records, handles, the [`JobExecutor`] trait |
//! | [`journal`] | append-only write-ahead job log, compacted at startup, with corruption-tolerant replay |
//! | [`server`] | event-driven accept and tails, reused handler threads, bounded queue, worker pool, routes, backpressure, graceful drain |
//! | [`client`] | minimal blocking client + retrying submit with jittered backoff |
//!
//! See the repository README ("Experiment service") for the endpoint and
//! lifecycle reference.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod journal;
pub mod server;

pub use job::{JobExecutor, JobHandle, JobOutcome, JobRecord, JobSpec, JobState};
pub use journal::Journal;
pub use server::{install_termination_handler, DrainReport, Server, ServerConfig, ShutdownHandle};
