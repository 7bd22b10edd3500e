//! The fixed-width lane-block engine behind [`BatchLoop::run`], and the
//! two [`Sink`]s a run can feed.
//!
//! Clean lanes of a batch are grouped by control scheme and packed into
//! [`BLOCK_WIDTH`]-wide structure-of-arrays blocks (`[f64; W]` /
//! `[i64; W]` columns). Each period then advances a block with
//! straight-line kernels — TDC sample, error computation, controller
//! update, period write-back — whose per-lane arithmetic is a verbatim
//! transcription of the shared [`Controller`] step bodies, so a blocked
//! lane produces the same bit pattern as its scalar
//! [`DiscreteLoop`](crate::loopsim::DiscreteLoop) twin:
//!
//! * integer shifts ([`shift`]) are exact, so the Fig. 5 integer IIR
//!   cannot diverge;
//! * the float IIR accumulates `δ + Σ wᵢ·kᵢ` in the same tap order per
//!   lane, and f64 addition/multiplication give one correctly-rounded
//!   result regardless of which lanes sit alongside in the block;
//! * TEAtime keeps the exact two-sided sign branch (which LLVM
//!   if-converts inside the fixed-width loop) rather than an add-of-zero
//!   select, so `±0.0`/NaN payloads cannot leak in;
//! * the IIR delay lines are stepped by head rotation over the same
//!   window the scalar `rotate_right(1)` maintains.
//!
//! Divergent control flow is handled by *exclusion*, not by masking
//! inside the block: lanes with a live fault schedule or hardening
//! config, and group tails that do not fill a block, run on the per-lane
//! scalar path (the same `FaultPath` call sequence as the scalar
//! engines). What remains inside a block is branch-free except for
//! if-converted selects, which is what lets the kernels autovectorize on
//! a stable toolchain without `std::simd`.
//!
//! Input closures are deduplicated by reference identity
//! ([`std::ptr::eq`] on the fat pointer: same closure object *and* same
//! vtable) and sampled once per unique closure per sequence row. Sweeps
//! whose lanes share a variation source — the common case — pay for each
//! `sin` row once instead of once per lane; closures that merely look
//! alike are conservatively kept separate.

use crate::controller::kernel::shift;
use crate::controller::Controller;
use crate::resilience::FaultPath;
use crate::tdc::Quantization;

use super::{BatchInputs, BatchLoop, BatchTrace};
use crate::system::{Fold, RunSummary};

/// Lane-block width `W`: how many lanes one SoA block advances per
/// period. Four f64 columns are two 128-bit register rows at the SSE2
/// baseline (one row with AVX), and a width of four lets the common
/// mixed-scheme banks — which split `B` lanes into four same-scheme
/// groups of `B/4` — form full blocks from 16 lanes up; tails shorter
/// than `W` fall back to the scalar path rather than stepping masked-off
/// ghost lanes.
pub const BLOCK_WIDTH: usize = 4;

const W: usize = BLOCK_WIDTH;

/// Scheme key for grouping blockable lanes: lanes in one block must share
/// a kernel shape (same law, same delay-line length) and TDC quantization
/// so the block body is uniform straight-line code.
#[derive(PartialEq, Eq)]
enum GroupKey {
    IntIir { taps: usize },
    FloatIir { taps: usize },
    TeaTime,
    Free,
}

fn group_key(c: &Controller) -> GroupKey {
    match c {
        Controller::IntIir(k) => GroupKey::IntIir {
            taps: k.state().len(),
        },
        Controller::FloatIir(k) => GroupKey::FloatIir {
            taps: k.state().len(),
        },
        Controller::TeaTime(_) => GroupKey::TeaTime,
        Controller::Free(_) => GroupKey::Free,
    }
}

/// SoA controller state of one block: the `Controller` arithmetic with
/// the lane index innermost. `state[t][j]` is delay word `t` of lane
/// column `j`, most recent first relative to `head` — `head` rotation
/// replaces the scalar `rotate_right(1)` (the scalar window
/// `s[0..T]` is always `state[(head+t) % T]` here, so stepping
/// `head ← head−1; state[head] ← w_new` is the same delay line without
/// moving `T·W` words every period).
enum Kernel {
    IntIir {
        kexp: [i32; W],
        kstar: [i32; W],
        taps: Vec<[i32; W]>,
        state: Vec<[i64; W]>,
        head: usize,
        /// All columns share one `(kexp, k*, taps)` exponent set — the
        /// shape of every Monte Carlo panel and of any batch built from a
        /// single config. When set, `step` reads each exponent once per
        /// tap row instead of per column, so the shift direction check
        /// hoists out of the inner loops and the tap accumulation runs
        /// branch-free. Same `shift` arithmetic, bit-identical output.
        uniform: bool,
    },
    FloatIir {
        kstar: [f64; W],
        taps: Vec<[f64; W]>,
        state: Vec<[f64; W]>,
        head: usize,
    },
    TeaTime {
        step: [f64; W],
        length: [f64; W],
    },
    Free {
        length: [f64; W],
    },
}

/// `(head + t) mod t_len` for `head < t_len` and `t < t_len`: the sum is
/// below `2·t_len`, so one conditional subtract replaces the `%` — which
/// would otherwise be a hardware divide by a runtime divisor in the
/// innermost kernel loop, several times per block per period.
#[inline]
fn wrap(sum: usize, t_len: usize) -> usize {
    if sum >= t_len {
        sum - t_len
    } else {
        sum
    }
}

impl Kernel {
    /// Advance every lane column one period: consume `δ[n]` per lane,
    /// produce the unclamped `l_RO[n+1]`. Each arm mirrors the matching
    /// [`Controller::step`] body bit for bit.
    #[inline]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        match self {
            Kernel::IntIir {
                kexp,
                kstar,
                taps,
                state,
                head,
                uniform,
            } => {
                let t_len = state.len();
                let mut acc = [0i64; W];
                if *uniform {
                    // One exponent set for the whole block: every shift
                    // direction is decided once per tap row, not once per
                    // column, and the inner loops are straight shift+add.
                    let ke = kexp[0];
                    for j in 0..W {
                        acc[j] = (delta[j].round() as i64) << ke;
                    }
                    for (t, te) in taps.iter().enumerate() {
                        let row = &state[wrap(*head + t, t_len)];
                        let e = te[0];
                        if e >= 0 {
                            for j in 0..W {
                                acc[j] += row[j] << e;
                            }
                        } else {
                            let s = -e;
                            for j in 0..W {
                                acc[j] += row[j] >> s;
                            }
                        }
                    }
                    *head = wrap(*head + t_len - 1, t_len);
                    let row = &mut state[*head];
                    let ks = kstar[0];
                    if ks >= 0 {
                        for j in 0..W {
                            let w_new = acc[j] << ks;
                            row[j] = w_new;
                            next[j] = (w_new >> ke) as f64;
                        }
                    } else {
                        let s = -ks;
                        for j in 0..W {
                            let w_new = acc[j] >> s;
                            row[j] = w_new;
                            next[j] = (w_new >> ke) as f64;
                        }
                    }
                } else {
                    for j in 0..W {
                        acc[j] = shift(delta[j].round() as i64, kexp[j]);
                    }
                    for (t, te) in taps.iter().enumerate() {
                        let row = &state[wrap(*head + t, t_len)];
                        for j in 0..W {
                            acc[j] += shift(row[j], te[j]);
                        }
                    }
                    *head = wrap(*head + t_len - 1, t_len);
                    let row = &mut state[*head];
                    for j in 0..W {
                        let w_new = shift(acc[j], kstar[j]);
                        row[j] = w_new;
                        next[j] = shift(w_new, -kexp[j]) as f64;
                    }
                }
            }
            Kernel::FloatIir {
                kstar,
                taps,
                state,
                head,
            } => {
                let t_len = state.len();
                let mut acc = *delta;
                for (t, te) in taps.iter().enumerate() {
                    let row = &state[wrap(*head + t, t_len)];
                    for j in 0..W {
                        acc[j] += row[j] * te[j];
                    }
                }
                *head = wrap(*head + t_len - 1, t_len);
                let row = &mut state[*head];
                for j in 0..W {
                    let w_new = acc[j] * kstar[j];
                    row[j] = w_new;
                    next[j] = w_new;
                }
            }
            Kernel::TeaTime { step, length } => {
                for j in 0..W {
                    // Exact scalar branch form (not `length += select`):
                    // adding a signed zero could alter the sign of a ±0.0
                    // length and addition with a NaN δ must leave the
                    // length word untouched, exactly as the branch does.
                    if delta[j] > 0.0 {
                        length[j] += step[j];
                    } else if delta[j] < 0.0 {
                        length[j] -= step[j];
                    }
                    next[j] = length[j];
                }
            }
            Kernel::Free { length } => {
                next.copy_from_slice(length);
            }
        }
    }
}

/// One packed block: `W` same-scheme lanes with their per-lane loop
/// parameters in column order.
struct Block {
    /// Batch lane index per column (scatter target in the flat trace).
    lane: [usize; W],
    /// Loop delay `mm = m + 2` per column.
    mm: [i64; W],
    /// Unique-closure index per column, per input role.
    h_idx: [usize; W],
    mu_idx: [usize; W],
    sp_idx: [usize; W],
    /// Static per-column heterogeneous offset (the `static_mu` mode);
    /// zeros — and never read — in closure mode.
    mu_c: [f64; W],
    /// TDC quantization, uniform across the block (part of the group key).
    quant: Quantization,
    /// `l_RO[n]` of the period being generated, per column.
    cur: [f64; W],
    /// Block-local `l_RO` history ring: row `n mod hist.len()` holds
    /// `l_RO[n]`. The gather reads `hist[(n − mm) & mask]` instead of the
    /// flat trace — a few cache-hot rows instead of a streamed megabyte
    /// vector, no pre-start branch (every row is prefilled with the lane's
    /// initial length, which is exactly what `l_RO[i]`, `i < 0`, means).
    /// `hist.len()` is the power-of-two global ring depth ≥ every `mm`, and
    /// each period gathers before it writes, so row `n` can never clobber a
    /// row the block still reads.
    hist: Vec<[f64; W]>,
    kernel: Kernel,
}

impl Block {
    /// Pack `W` lanes (indices `members`, all sharing a group key) into
    /// column order, lifting each lane's controller state into the SoA
    /// kernel.
    fn pack(
        batch: &BatchLoop,
        members: &[usize],
        h_idx: &[usize],
        mu_idx: &[usize],
        sp_idx: &[usize],
        static_mu: Option<&[f64]>,
        hist_rows: usize,
    ) -> Block {
        debug_assert_eq!(members.len(), W);
        let mut lane = [0usize; W];
        let mut mm = [0i64; W];
        let mut init = [0.0f64; W];
        let mut h = [0usize; W];
        let mut mu = [0usize; W];
        let mut sp = [0usize; W];
        let mut mu_c = [0.0f64; W];
        let mut cur = [0.0f64; W];
        for (j, &k) in members.iter().enumerate() {
            let l = &batch.bank.domains[k];
            lane[j] = k;
            mm[j] = (l.m + 2) as i64;
            init[j] = l.initial_length;
            h[j] = h_idx[k];
            mu[j] = mu_idx[k];
            sp[j] = sp_idx[k];
            if let Some(ms) = static_mu {
                mu_c[j] = ms[k];
            }
            cur[j] = l.controller.length();
        }
        let kernel = match &batch.bank.domains[members[0]].controller {
            Controller::IntIir(c0) => {
                let t_len = c0.state().len();
                let mut kexp = [0i32; W];
                let mut kstar = [0i32; W];
                let mut taps = vec![[0i32; W]; t_len];
                let mut state = vec![[0i64; W]; t_len];
                for (j, &k) in members.iter().enumerate() {
                    let Controller::IntIir(c) = &batch.bank.domains[k].controller else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    kexp[j] = c.config().kexp_exp as i32;
                    kstar[j] = c.config().k_star_exp;
                    for t in 0..t_len {
                        taps[t][j] = c.config().tap_exps[t];
                        state[t][j] = c.state()[t];
                    }
                }
                let uniform = kexp.iter().all(|&e| e == kexp[0])
                    && kstar.iter().all(|&e| e == kstar[0])
                    && taps.iter().all(|row| row.iter().all(|&e| e == row[0]));
                Kernel::IntIir {
                    kexp,
                    kstar,
                    taps,
                    state,
                    head: 0,
                    uniform,
                }
            }
            Controller::FloatIir(c0) => {
                let t_len = c0.state().len();
                let mut kstar = [0.0f64; W];
                let mut taps = vec![[0.0f64; W]; t_len];
                let mut state = vec![[0.0f64; W]; t_len];
                for (j, &k) in members.iter().enumerate() {
                    let Controller::FloatIir(c) = &batch.bank.domains[k].controller else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    kstar[j] = c.k_star();
                    for t in 0..t_len {
                        taps[t][j] = c.taps()[t];
                        state[t][j] = c.state()[t];
                    }
                }
                Kernel::FloatIir {
                    kstar,
                    taps,
                    state,
                    head: 0,
                }
            }
            Controller::TeaTime(_) => {
                let mut step = [0.0f64; W];
                let mut length = [0.0f64; W];
                for (j, &k) in members.iter().enumerate() {
                    let Controller::TeaTime(c) = &batch.bank.domains[k].controller else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    step[j] = c.step_size();
                    length[j] = c.length();
                }
                Kernel::TeaTime { step, length }
            }
            Controller::Free(_) => {
                let mut length = [0.0f64; W];
                for (j, &k) in members.iter().enumerate() {
                    length[j] = batch.bank.domains[k].controller.length();
                }
                Kernel::Free { length }
            }
        };
        Block {
            lane,
            mm,
            h_idx: h,
            mu_idx: mu,
            sp_idx: sp,
            mu_c,
            quant: batch.bank.domains[members[0]].quantization,
            cur,
            hist: vec![init; hist_rows],
            kernel,
        }
    }

    /// Write column `j`'s kernel state back into the lane's controller so
    /// `BatchLoop` state after a blocked run is indistinguishable from a
    /// scalar run (chained runs, `length()` queries, later resets).
    fn store_lane(&self, j: usize, ctrl: &mut Controller) {
        match (&self.kernel, ctrl) {
            (Kernel::IntIir { state, head, .. }, Controller::IntIir(c)) => {
                let t_len = state.len();
                for (t, s) in c.state_mut().iter_mut().enumerate() {
                    *s = state[(*head + t) % t_len][j];
                }
            }
            (Kernel::FloatIir { state, head, .. }, Controller::FloatIir(c)) => {
                let t_len = state.len();
                for (t, s) in c.state_mut().iter_mut().enumerate() {
                    *s = state[(*head + t) % t_len][j];
                }
            }
            (Kernel::TeaTime { length, .. }, Controller::TeaTime(c)) => {
                c.set_length(length[j]);
            }
            (Kernel::Free { .. }, Controller::Free(_)) => {}
            _ => unreachable!("block kernel / lane controller scheme mismatch"),
        }
    }
}

/// Append `row` onto `v` (capacity already reserved for the whole run),
/// with non-temporal stores when `stream` is set.
///
/// The trace is written exactly once and read back only after the run,
/// but a normal store still *reads* each fresh cache line first
/// (read-for-ownership) — so a cacheable trace costs double its size in
/// DRAM traffic and evicts the hot kernel state on its way through the
/// hierarchy. `_mm_stream_pd` writes around the cache through
/// write-combining buffers instead; the appends are perfectly
/// sequential, so consecutive rows merge into full-line bursts. Stores
/// move bit patterns verbatim, so the trace is bit-identical either
/// way. Off x86-64, or when the row geometry breaks 16-byte store
/// alignment, this is a plain `extend_from_slice`.
#[allow(unsafe_code)]
#[inline]
fn append_row(v: &mut Vec<f64>, row: &[f64], stream: bool) {
    #[cfg(target_arch = "x86_64")]
    if stream {
        // The run reserved capacity for every row up front, rows have the
        // batch's even lane count and the base is 16-byte aligned (the
        // sink's `begin` checks both before setting `stream`). The sink's
        // hooks are public, so the conditions the stores rely on are
        // checked here, where they are used.
        let len = v.len();
        assert!(
            row.len().is_multiple_of(2)
                && row.len() <= v.capacity() - len
                && (v.as_ptr() as usize + len * 8).is_multiple_of(16),
            "streamed trace row outside its reserved, aligned capacity"
        );
        // SAFETY: the assert above guarantees the destination
        // `[len, len + row.len())` lies inside the allocation, starts on
        // a 16-byte boundary and is covered by whole 2-lane stores, so
        // every element up to the new length is written.
        unsafe {
            use core::arch::x86_64::{_mm_loadu_pd, _mm_stream_pd};
            let dst = v.as_mut_ptr().add(len);
            let mut i = 0;
            while i + 2 <= row.len() {
                _mm_stream_pd(dst.add(i), _mm_loadu_pd(row.as_ptr().add(i)));
                i += 2;
            }
            v.set_len(len + row.len());
        }
        return;
    }
    let _ = stream;
    v.extend_from_slice(row);
}

/// Deduplicate input closures by fat-pointer identity. Returns the unique
/// closures in first-seen order plus a per-lane index into them.
///
/// [`std::ptr::eq`] compares data pointer *and* vtable: two references to
/// the same closure object always dedup, while a false positive would
/// require the same address and the same vtable — i.e. behaviorally the
/// same function. A missed match (e.g. the same generic closure
/// instantiated twice) merely forfeits sharing; correctness never depends
/// on deduplication because unique closures are sampled identically.
fn dedup<'a>(
    fns: impl Iterator<Item = &'a dyn Fn(i64) -> f64>,
) -> (Vec<&'a dyn Fn(i64) -> f64>, Vec<usize>) {
    let mut uniq: Vec<&'a dyn Fn(i64) -> f64> = Vec::new();
    let mut idx = Vec::new();
    for f in fns {
        match uniq.iter().position(|&u| std::ptr::eq(u, f)) {
            Some(p) => idx.push(p),
            None => {
                idx.push(uniq.len());
                uniq.push(f);
            }
        }
    }
    (uniq, idx)
}

mod sealed {
    /// Seals [`Sink`](super::Sink): the engine hooks are an internal
    /// protocol, so only the sinks defined here exist.
    pub trait Sealed {}
}

/// Where a [`BatchLoop::run`] sends each period's per-lane samples, and
/// what the run returns. The engine body is generic over the sink, so the
/// traced and traceless modes share one gather/kernel/scatter code path —
/// the per-lane arithmetic, and therefore every recorded or summarized
/// bit, is common by construction; only the destination differs.
///
/// The trait is sealed: [`TraceSink`] and [`SummarySink`] are the only
/// sinks. The `#[doc(hidden)]` methods are the engine's side of the
/// protocol and are not meant to be called directly.
pub trait Sink: sealed::Sealed {
    /// What [`BatchLoop::run`] returns with this sink.
    type Output;

    /// Whether the sink reads the `tau` staging row. When `false`
    /// (the summary sink — it folds `δ`, not `τ`), the engine
    /// body skips the per-lane τ scatter stores entirely; the `tau` slice
    /// the sink receives then holds stale rows and must not be read.
    const NEEDS_TAU: bool;

    /// Whether the sink consumes whole lane-indexed staging rows via
    /// `row`. When `false` the engine never writes the staging rows at
    /// all: blocks hand their `W` columns straight to `block` and scalar
    /// lanes to `lane`, saving one scattered store plus one re-load per
    /// lane per period. Per-lane fold results are unchanged either way —
    /// every lane is still visited exactly once per period, in period
    /// order, and the folds are per-lane accumulators.
    const PER_ROW: bool;

    /// Telemetry span the run lands under.
    #[doc(hidden)]
    const SPAN: &'static str;

    /// Prepare for a run of `lanes` lanes × `steps` periods. Called once
    /// per run, also when the run is empty.
    #[doc(hidden)]
    fn begin(&mut self, lanes: usize, steps: usize);

    /// Consume period `n`'s staging rows (lane-indexed, length `B`).
    /// Called only when `PER_ROW` is `true`.
    #[doc(hidden)]
    fn row(&mut self, n: usize, steps: usize, tau: &[f64], delta: &[f64], lro: &[f64]) {
        let _ = (n, steps, tau, delta, lro);
    }

    /// Consume one block's columns for period `n` (`lane[j]` maps column
    /// `j` to its batch lane index). Called only when `PER_ROW` is
    /// `false`.
    #[doc(hidden)]
    fn block(
        &mut self,
        n: usize,
        steps: usize,
        lane: &[usize; W],
        delta: &[f64; W],
        lro: &[f64; W],
    ) {
        let _ = (n, steps, lane, delta, lro);
    }

    /// Consume one scalar-path lane's period-`n` sample. Called only
    /// when `PER_ROW` is `false`.
    #[doc(hidden)]
    fn lane(&mut self, n: usize, steps: usize, k: usize, delta: f64, lro: f64) {
        let _ = (n, steps, k, delta, lro);
    }

    /// Hand back the run's result (`inputs` are the run's inputs).
    #[doc(hidden)]
    fn finish(self, inputs: BatchInputs<'_>, steps: usize) -> Self::Output;

    /// Run the engine into this sink. Each sink implements it without
    /// generics, so the engine body is compiled once per sink in this
    /// crate, with the sink's hooks inlined into its hot loop, instead of
    /// in every crate that calls [`BatchLoop::run`].
    #[doc(hidden)]
    fn drive(self, batch: &mut BatchLoop, inputs: BatchInputs<'_>, steps: usize) -> Self::Output;
}

/// The traced sink: records every period into a flat [`BatchTrace`],
/// appending rows with non-temporal stores when the row geometry allows.
///
/// A full-length multi-lane trace is tens of megabytes — above the
/// allocator's mmap threshold — so repeated runs with a fresh trace pay
/// the whole page-fault + zeroing + unmap cycle per run even though the
/// engine overwrites every element anyway.
/// [`recycling`](Self::recycling) a previous trace
/// (`trace = batch.run(inputs, steps, TraceSink::recycling(trace))`) makes
/// repeated runs steady-state.
///
/// The reuse contract, precisely: each of the spare trace's three buffers
/// is cleared (length 0, **capacity kept**) and written in place whenever
/// its capacity already covers the run's `steps · lanes` elements —
/// equal-size reruns never touch the allocator, which debug builds
/// assert. A buffer only reallocates when a previous run was smaller than
/// this one. The spare's *contents* and its recorded lane/step counts are
/// irrelevant (any trace works, including `BatchTrace::default()`, which
/// is what [`TraceSink::default`] holds); the returned trace is
/// bit-identical either way.
///
/// Callers that only need per-lane statistics should prefer
/// [`SummarySink`], which skips the trace — and with it this whole
/// recycling dance — entirely.
#[derive(Debug, Default)]
pub struct TraceSink {
    trace: BatchTrace,
    stream: bool,
}

impl TraceSink {
    /// A trace sink that writes into `spare`'s buffers (see the type docs).
    pub fn recycling(spare: BatchTrace) -> TraceSink {
        TraceSink {
            trace: spare,
            stream: false,
        }
    }
}

impl sealed::Sealed for TraceSink {}

impl Sink for TraceSink {
    type Output = BatchTrace;
    const NEEDS_TAU: bool = true;
    const PER_ROW: bool = true;
    const SPAN: &'static str = "engine.batch";

    fn begin(&mut self, lanes: usize, steps: usize) {
        // The trace is appended one row per period from small staging
        // buffers (see `run_impl`): blocks scatter by lane index into the
        // cache-resident row, and the row is then memcpy'd onto the flat
        // arrays. Appending instead of preallocating `vec![0.0; steps·b]`
        // skips a full zero-init pass over a trace that every lane
        // overwrites anyway — at long horizons that pass alone streams
        // megabytes through the cache hierarchy twice.
        let len = steps * lanes;
        let t = &mut self.trace;
        t.lanes = lanes;
        t.steps = steps;
        let bufs = [&mut t.tau, &mut t.delta, &mut t.lro];
        for v in bufs {
            v.clear();
            #[cfg(debug_assertions)]
            let (cap, before) = (v.capacity(), v.as_ptr() as usize);
            v.reserve(len);
            // The recycling contract: a donor buffer whose capacity
            // already covers the run is written in place, never
            // reallocated (equal-size reruns must not touch the allocator).
            #[cfg(debug_assertions)]
            debug_assert!(
                cap < len || before == v.as_ptr() as usize,
                "recycled trace buffer with sufficient capacity ({cap} >= {len}) was reallocated"
            );
        }
        // Streaming eligibility: an even lane count keeps every row start
        // on a 16-byte boundary once the base is aligned. Nothing reads the
        // trace back during the run — scalar-path lanes gather
        // `l_RO[n−mm]` from their own history ring in `run_impl` — so all
        // three arrays stream.
        self.stream = cfg!(target_arch = "x86_64")
            && lanes.is_multiple_of(2)
            && [&t.tau, &t.delta, &t.lro]
                .iter()
                .all(|v| (v.as_ptr() as usize).is_multiple_of(16));
    }

    #[inline]
    fn row(&mut self, _n: usize, _steps: usize, tau: &[f64], delta: &[f64], lro: &[f64]) {
        append_row(&mut self.trace.tau, tau, self.stream);
        append_row(&mut self.trace.delta, delta, self.stream);
        append_row(&mut self.trace.lro, lro, self.stream);
    }

    fn drive(self, batch: &mut BatchLoop, inputs: BatchInputs<'_>, steps: usize) -> BatchTrace {
        run(batch, inputs, steps, self)
    }

    fn finish(self, _inputs: BatchInputs<'_>, _steps: usize) -> BatchTrace {
        // Non-temporal stores are weakly ordered: fence once so the trace
        // is globally visible before it can cross a thread boundary (the
        // lane dispatcher hands chunk traces to a recombining thread).
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        if self.stream {
            // SAFETY: `sfence` is available on every x86-64 CPU.
            unsafe { core::arch::x86_64::_mm_sfence() }
        }
        self.trace
    }
}

/// The traceless sink: folds each period into one [`Fold`] per lane and
/// drops it — no trace allocation, no ~24 B per lane-step of store
/// bandwidth, the compulsory cost floor of the traced path for consumers
/// that only read a handful of numbers per lane (margin sweeps, Monte
/// Carlo sample panels).
///
/// Each lane pushes `δ`, `−δ` and `l_RO` per period, exactly what
/// [`BatchTrace::summarize`] pushes from a materialized trace, so the
/// [`RunSummary`]s are bit-identical to
/// `run(inputs, steps, TraceSink::default()).summarize_after(inputs, warmup)`
/// for every lane, and the controller state advances exactly as a traced
/// run would leave it. Periods before the warmup are stepped but not
/// folded: every lane still lives through its lock-in transient, while the
/// statistics cover the post-warmup window (the paper's measurement
/// methodology).
///
/// # Panics
///
/// A run panics when `warmup >= steps` on a non-empty run (an empty
/// measurement window has no statistics).
#[derive(Debug, Default)]
pub struct SummarySink {
    warmup: usize,
    folds: Vec<Fold>,
    last: Vec<f64>,
}

impl SummarySink {
    /// A summary sink that folds only the periods from `warmup` on.
    pub fn with_warmup(warmup: usize) -> SummarySink {
        SummarySink {
            warmup,
            ..SummarySink::default()
        }
    }
}

impl sealed::Sealed for SummarySink {}

impl Sink for SummarySink {
    type Output = Vec<RunSummary>;
    const NEEDS_TAU: bool = false;
    const PER_ROW: bool = false;
    const SPAN: &'static str = "engine.batch.summaries";

    fn begin(&mut self, lanes: usize, steps: usize) {
        let warmup = self.warmup;
        assert!(
            steps == 0 || warmup < steps,
            "warmup ({warmup}) must leave at least one measured period of {steps}"
        );
        self.folds = vec![Fold::new(); lanes];
        self.last = vec![f64::NAN; lanes];
    }

    #[inline]
    fn block(
        &mut self,
        n: usize,
        steps: usize,
        lane: &[usize; W],
        delta: &[f64; W],
        lro: &[f64; W],
    ) {
        if n >= self.warmup {
            for j in 0..W {
                self.folds[lane[j]].push(delta[j], -delta[j], lro[j]);
            }
        }
        if n + 1 == steps {
            for j in 0..W {
                self.last[lane[j]] = lro[j];
            }
        }
    }

    #[inline]
    fn lane(&mut self, n: usize, steps: usize, k: usize, delta: f64, lro: f64) {
        if n >= self.warmup {
            self.folds[k].push(delta, -delta, lro);
        }
        if n + 1 == steps {
            self.last[k] = lro;
        }
    }

    fn drive(
        self,
        batch: &mut BatchLoop,
        inputs: BatchInputs<'_>,
        steps: usize,
    ) -> Vec<RunSummary> {
        run(batch, inputs, steps, self)
    }

    fn finish(self, inputs: BatchInputs<'_>, steps: usize) -> Vec<RunSummary> {
        let samples = if steps == 0 { 0 } else { steps - self.warmup };
        inputs.summaries(steps, samples, self.folds.into_iter().zip(self.last))
    }
}

/// The blocked engine behind [`BatchLoop::run`]: checks the input shape,
/// opens the sink's span, and runs the shared body on a non-empty batch.
fn run<S: Sink>(
    batch: &mut BatchLoop,
    inputs: BatchInputs<'_>,
    steps: usize,
    mut sink: S,
) -> S::Output {
    let b = batch.bank.domains.len();
    assert_eq!(inputs.lanes(), b, "one input per lane required");
    let mut run_scope = batch.telemetry.scope(S::SPAN);
    run_scope.attr("steps", steps);
    run_scope.attr("lanes", b);
    sink.begin(b, steps);
    if b > 0 && steps > 0 {
        run_impl(batch, inputs, steps, &mut sink);
    }
    sink.finish(inputs, steps)
}

/// The shared engine body: input dedup and ring-buffering, lane
/// partition, the per-period gather → kernel → scatter loop, controller
/// state write-back and telemetry — generic over the [`Sink`] receiving
/// each period's samples.
///
/// [`BatchInputs::StaticMu`] holds one **step-invariant** heterogeneous
/// offset per lane: no μ closure is sampled, no μ ring is kept, and the
/// gather adds the per-lane constant directly — deleting one indirect
/// call and one ring store per lane per period for workloads (Monte Carlo
/// sample panels) whose per-lane mismatch is a sampled constant. Because
/// `μ[n − mm] = μ` for every row, adding the same f64 the equivalent
/// `constant(μ)` closure would have produced, in the same association
/// order, keeps the run bit-identical to the closure form.
fn run_impl<S: Sink>(batch: &mut BatchLoop, inputs: BatchInputs<'_>, steps: usize, sink: &mut S) {
    let b = batch.bank.domains.len();
    debug_assert!(b > 0 && steps > 0, "empty cases are handled by the caller");

    // --- Input plumbing: dedup closures, then ring-buffer their rows. ---
    let (h_uniq, h_idx, mu_uniq, mu_idx, sp_uniq, sp_idx, static_mu) = match inputs {
        BatchInputs::PerLane(li) => {
            let (h_uniq, h_idx) = dedup(li.iter().map(|li| li.homogeneous));
            let (mu_uniq, mu_idx) = dedup(li.iter().map(|li| li.heterogeneous));
            let (sp_uniq, sp_idx) = dedup(li.iter().map(|li| li.setpoint));
            (h_uniq, h_idx, mu_uniq, mu_idx, sp_uniq, sp_idx, None)
        }
        // Static μ: every lane shares one setpoint and one homogeneous
        // closure, and there are no μ closures to dedup or ring-buffer.
        // The per-lane μ index vector still exists (blocks capture it) but
        // indexes into nothing; the gather reads the block-resident
        // constants instead.
        BatchInputs::StaticMu {
            setpoint,
            homogeneous,
            mu,
        } => (
            vec![homogeneous],
            vec![0usize; b],
            Vec::new(),
            vec![0usize; b],
            vec![setpoint],
            vec![0usize; b],
            Some(mu),
        ),
    };
    let (nh, nmu, nsp) = (h_uniq.len(), mu_uniq.len(), sp_uniq.len());

    let mm: Vec<i64> = batch
        .bank
        .domains
        .iter()
        .map(|l| (l.m + 2) as i64)
        .collect();
    let max_off = mm.iter().copied().max().expect("at least one lane");
    // Rows are unique-closure-interleaved: the recurrence only reads rows
    // n−mm (mm ≤ max_off) and n−1, so a handful of rows stay
    // cache-resident. Row n−1 overwrites row n−1−ring_rows, which nothing
    // can read any more, and mm ≥ 2 keeps it clear of every lane's n−mm
    // row. The row count is rounded up to a power of two so the slot
    // computation — two of them per lane per period — is a mask, not a
    // division (`r & (2^k − 1)` equals `r.rem_euclid(2^k)` for any sign).
    let ring_rows = (max_off as usize).next_power_of_two() as i64;
    let mut e_ring = vec![0.0f64; ring_rows as usize * nh];
    let mut mu_ring = vec![0.0f64; ring_rows as usize * nmu];
    let hslot = move |r: i64| (r & (ring_rows - 1)) as usize * nh;
    let mslot = move |r: i64| (r & (ring_rows - 1)) as usize * nmu;
    for r in -max_off..=-2 {
        for (u, f) in h_uniq.iter().enumerate() {
            e_ring[hslot(r) + u] = f(r);
        }
        for (u, f) in mu_uniq.iter().enumerate() {
            mu_ring[mslot(r) + u] = f(r);
        }
    }
    let mut sp_vals = vec![0.0f64; nsp];

    // --- Partition lanes: faulted/hardened → scalar path; clean lanes
    // grouped by scheme into W-wide blocks, remainders → scalar path. ---
    let mut paths: Vec<Option<FaultPath>> = batch
        .bank
        .domains
        .iter()
        .map(crate::bank::fault_path)
        .collect();
    let mut scalar: Vec<usize> = Vec::new();
    let mut groups: Vec<((GroupKey, Quantization), Vec<usize>)> = Vec::new();
    for (k, lane) in batch.bank.domains.iter().enumerate() {
        if paths[k].is_some() {
            scalar.push(k);
            continue;
        }
        let key = (group_key(&lane.controller), lane.quantization);
        match groups.iter_mut().find(|(g, _)| *g == key) {
            Some((_, members)) => members.push(k),
            None => groups.push((key, vec![k])),
        }
    }
    let mut blocks: Vec<Block> = Vec::new();
    for (_, members) in &groups {
        let mut chunks = members.chunks_exact(W);
        for chunk in &mut chunks {
            blocks.push(Block::pack(
                batch,
                chunk,
                &h_idx,
                &mu_idx,
                &sp_idx,
                static_mu,
                ring_rows as usize,
            ));
        }
        scalar.extend_from_slice(chunks.remainder());
    }
    // Scalar lanes in batch order. Lanes are independent, so any order
    // would produce the same bits — keeping batch order just makes the
    // fallback path read like the scalar engine it reproduces.
    scalar.sort_unstable();

    let mut block_scope = batch.telemetry.scope("engine.batch.blocked");
    block_scope.attr("blocks", blocks.len());
    block_scope.attr("scalar_lanes", scalar.len());

    // Scalar-path lanes keep their own `l_RO` history ring — one column
    // per scalar lane, mirroring the block-local rings: row
    // `n mod ring_rows` holds `l_RO[n]`, every row is prefilled with the
    // lane's initial length (which is exactly what `l_RO[i]`, `i < 0`,
    // means), and each period gathers its `n − mm` row before writing row
    // `n`, so a row is never clobbered while still readable. This is what
    // frees the engine from reading the trace back during a run: the
    // summary sink has no trace at all, and the traced sink can stream
    // all three arrays around the cache.
    let ns = scalar.len();
    let mut sring = vec![0.0f64; ring_rows as usize * ns];
    for (s_pos, &k) in scalar.iter().enumerate() {
        let init = batch.bank.domains[k].initial_length;
        for row in 0..ring_rows as usize {
            sring[row * ns + s_pos] = init;
        }
    }
    let sslot = move |r: i64| (r & (ring_rows - 1)) as usize * ns;

    let mut row_tau = vec![0.0f64; b];
    let mut row_delta = vec![0.0f64; b];
    let mut row_lro = vec![0.0f64; b];
    let mut cur: Vec<f64> = batch
        .bank
        .domains
        .iter()
        .map(|l| l.controller.length())
        .collect();

    for n in 0..steps as i64 {
        let base_n1_h = hslot(n - 1);
        let base_n1_mu = mslot(n - 1);
        for (u, f) in h_uniq.iter().enumerate() {
            e_ring[base_n1_h + u] = f(n - 1);
        }
        for (u, f) in mu_uniq.iter().enumerate() {
            mu_ring[base_n1_mu + u] = f(n - 1);
        }
        for (u, f) in sp_uniq.iter().enumerate() {
            sp_vals[u] = f(n);
        }
        for blk in &mut blocks {
            // Gather: l_RO[n−mm] from the block-local history ring
            // (pre-start rows are prefilled with the initial length).
            // Split into the shared part and the μ add so the static-μ
            // mode branches once per block, not per lane — the
            // association order ((l_RO + e[n−mm]) − e[n−1]) + μ[n−mm] is
            // the scalar engines', identical in both arms.
            let mut raw = [0.0f64; W];
            let hist_mask = blk.hist.len() - 1;
            for j in 0..W {
                let i = n - blk.mm[j];
                let lro_past = blk.hist[(i & hist_mask as i64) as usize][j];
                raw[j] =
                    lro_past + e_ring[hslot(i) + blk.h_idx[j]] - e_ring[base_n1_h + blk.h_idx[j]];
            }
            if static_mu.is_some() {
                for (r, m) in raw.iter_mut().zip(&blk.mu_c) {
                    *r += m;
                }
            } else {
                for j in 0..W {
                    raw[j] += mu_ring[mslot(n - blk.mm[j]) + blk.mu_idx[j]];
                }
            }
            let quant = blk.quant;
            let mut tau = [0.0f64; W];
            let mut delta = [0.0f64; W];
            for j in 0..W {
                tau[j] = quant.apply(raw[j]);
                delta[j] = sp_vals[blk.sp_idx[j]] - tau[j];
            }
            let mut next = [0.0f64; W];
            blk.kernel.step(&delta, &mut next);
            // Record l_RO[n] in the history ring, hand the period's
            // columns to the sink, and roll the period forward. Row sinks
            // get a lane-indexed staging scatter; direct sinks fold off
            // the block registers with no staging round trip.
            let lro = blk.cur;
            blk.hist[(n & hist_mask as i64) as usize] = lro;
            blk.cur = next;
            if S::PER_ROW {
                for j in 0..W {
                    let k = blk.lane[j];
                    if S::NEEDS_TAU {
                        row_tau[k] = tau[j];
                    }
                    row_delta[k] = delta[j];
                    row_lro[k] = lro[j];
                }
            } else {
                sink.block(n as usize, steps, &blk.lane, &delta, &lro);
            }
        }

        for (s_pos, &k) in scalar.iter().enumerate() {
            let lane = &mut batch.bank.domains[k];
            let i = n - mm[k];
            let lro_past = sring[sslot(i) + s_pos];
            let e_nmm = e_ring[hslot(i) + h_idx[k]];
            let e_n1 = e_ring[base_n1_h + h_idx[k]];
            let mu_nmm = match static_mu {
                Some(ms) => ms[k],
                None => mu_ring[mslot(i) + mu_idx[k]],
            };
            let sp = sp_vals[sp_idx[k]];
            let (tau, delta, next) = crate::bank::step_domain(
                lane.quantization,
                &mut lane.controller,
                paths[k].as_mut(),
                n,
                i,
                lro_past,
                e_nmm,
                e_n1,
                mu_nmm,
                sp,
            );
            if S::PER_ROW {
                if S::NEEDS_TAU {
                    row_tau[k] = tau;
                }
                row_delta[k] = delta;
                row_lro[k] = cur[k];
            } else {
                sink.lane(n as usize, steps, k, delta, cur[k]);
            }
            sring[sslot(n) + s_pos] = cur[k];
            cur[k] = next;
        }

        if S::PER_ROW {
            sink.row(n as usize, steps, &row_tau, &row_delta, &row_lro);
        }
    }

    // Write the block kernels' final state back into the lane controllers.
    for blk in &blocks {
        for j in 0..W {
            blk.store_lane(j, &mut batch.bank.domains[blk.lane[j]].controller);
        }
    }

    batch.bank.note_steps(steps as u64);
    batch
        .telemetry
        .counter("batch.controller_steps")
        .add((steps * b) as u64);
    batch
        .telemetry
        .counter("batch.blocks")
        .add(blocks.len() as u64);
    batch
        .telemetry
        .counter("batch.scalar_tail_lanes")
        .add(scalar.len() as u64);
    let (injected, relocks) = paths.iter().flatten().fold((0u64, 0u64), |(i, r), fp| {
        (
            i + fp.schedule().injected_before(steps as u64),
            r + fp.relocks(),
        )
    });
    if injected > 0 {
        batch.telemetry.counter("faults.injected").add(injected);
    }
    if relocks > 0 {
        batch.telemetry.counter("controller.relocks").add(relocks);
    }
}
