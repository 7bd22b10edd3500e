//! Cooperative cancellation of every leaf that sweeps.
//!
//! A served job whose client cancels it, or whose deadline passes, must
//! stop computing. Every cached grid runs through `runner::cached_map`,
//! which checks the job's token before each task's probe, and every sweep
//! checks it before each item it computes, so with a token that has
//! already fired each leaf must unwind with a `SweepCancelled` payload
//! before it computes or stores anything. The uncached sweeps (fig2,
//! ext-stability) take the token through their `RunCtx` too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use clock_telemetry::Telemetry;
use experiments::cache::SweepCache;
use experiments::config::PaperParams;
use experiments::runner::RunCtx;
use experiments::sweep::{install_quiet_cancel_hook, CancelReason, CancelToken, SweepCancelled};
use experiments::{
    ext_coupling, ext_faults, ext_mesh, ext_noise, ext_sensitivity, ext_stability, ext_throughput,
    ext_yield, fig2, fig7, fig8, fig9,
};

/// One leaf run, its output dropped.
type Leaf = fn(&RunCtx);

/// Every cached leaf at its `--quick` budget.
const LEAVES: [(&str, Leaf); 11] = [
    ("fig7", |ctx| drop(fig7::run(ctx))),
    ("fig8-upper", |ctx| drop(fig8::run_upper(ctx, 9))),
    ("fig8-lower", |ctx| drop(fig8::run_lower(ctx, 9))),
    ("fig9", |ctx| drop(fig9::run(ctx, 5))),
    ("ext-sensitivity", |ctx| drop(ext_sensitivity::run(ctx, 7))),
    ("ext-throughput", |ctx| drop(ext_throughput::run(ctx, 8))),
    ("ext-noise", |ctx| drop(ext_noise::run(ctx, &[1, 2]))),
    ("ext-coupling", |ctx| drop(ext_coupling::run(ctx))),
    ("ext-faults", |ctx| drop(ext_faults::run(ctx, true))),
    ("ext-mesh", |ctx| drop(ext_mesh::run(ctx, true))),
    ("ext-yield", |ctx| drop(ext_yield::run(ctx, true))),
];

/// Every uncached leaf that sweeps, at its registry budget.
const UNCACHED: [(&str, Leaf); 2] = [
    ("fig2", |ctx| drop(fig2::run(ctx, 4.0, 401))),
    ("ext-stability", |ctx| drop(ext_stability::run(ctx, 300))),
];

/// How `leaf` ends under a fired token, if not as it should.
fn cancel_fault(leaf: Leaf) -> Option<String> {
    let telemetry = Telemetry::enabled();
    let fired = CancelToken::new(Arc::new(AtomicBool::new(true)), None);
    let ctx = RunCtx::new(PaperParams::default())
        .with_cache(SweepCache::in_memory(&telemetry))
        .with_telemetry(telemetry.clone())
        .with_cancel(fired);
    let Err(payload) = catch_unwind(AssertUnwindSafe(|| leaf(&ctx))) else {
        return Some("ran to completion".to_owned());
    };
    if payload.downcast_ref::<SweepCancelled>() != Some(&SweepCancelled(CancelReason::Cancelled)) {
        return Some("unwound with another payload".to_owned());
    }
    let snap = telemetry.snapshot();
    let wrote = snap.counter("cache.bytes_written");
    let ran = snap.counter("core.samples");
    (wrote.map(|bytes| format!("wrote {bytes} record bytes")))
        .or_else(|| ran.map(|samples| format!("ran {samples} engine samples")))
}

/// The faults of `leaves` under a fired token, one line per leaf.
fn cancel_faults(leaves: &[(&str, Leaf)]) -> Vec<String> {
    install_quiet_cancel_hook();
    leaves
        .iter()
        .filter_map(|&(id, leaf)| cancel_fault(leaf).map(|fault| format!("{id}: {fault}")))
        .collect()
}

#[test]
fn every_cached_leaf_unwinds_on_a_fired_token_and_writes_nothing() {
    let faults = cancel_faults(&LEAVES);
    assert!(faults.is_empty(), "{faults:#?}");
}

#[test]
fn uncached_sweep_leaves_unwind_on_a_fired_token() {
    let faults = cancel_faults(&UNCACHED);
    assert!(faults.is_empty(), "{faults:#?}");
}
