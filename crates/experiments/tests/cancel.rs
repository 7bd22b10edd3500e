//! Cooperative cancellation of every cached leaf.
//!
//! A served job whose client cancels it, or whose deadline passes, must
//! stop computing. Every cached grid runs through `runner::cached_map`,
//! which checks the job's token before each task's probe and compute, so
//! with a token that has already fired each leaf must unwind with a
//! `SweepCancelled` payload before it computes or stores anything.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use clock_telemetry::Telemetry;
use experiments::cache::SweepCache;
use experiments::config::PaperParams;
use experiments::runner::RunCtx;
use experiments::sweep::{install_quiet_cancel_hook, CancelReason, CancelToken, SweepCancelled};
use experiments::{
    ext_coupling, ext_faults, ext_mesh, ext_noise, ext_sensitivity, ext_throughput, ext_yield,
    fig7, fig8, fig9,
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

#[test]
fn every_cached_leaf_unwinds_on_a_fired_token_and_writes_nothing() {
    install_quiet_cancel_hook();
    let faults: Vec<String> = LEAVES
        .iter()
        .filter_map(|&(id, leaf)| cancel_fault(leaf).map(|fault| format!("{id}: {fault}")))
        .collect();
    assert!(faults.is_empty(), "{faults:#?}");
}
