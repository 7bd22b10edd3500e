//! The block library the reproduction's diagrams are built from.
//!
//! All blocks operate on scalar `f64` signals. Blocks whose output does not
//! depend on the current step's input (sources and delays) report
//! `direct_feedthrough() == false` and may be used to break feedback loops.

mod arith;
mod custom;
mod delay;
mod sinks;
mod sources;

pub use arith::{Gain, Sum};
pub use custom::StatefulFnBlock;
pub use delay::{DelayN, TappedDelayLine, UnitDelay};
pub use sinks::Probe;
pub use sources::{Constant, FunctionSource};
