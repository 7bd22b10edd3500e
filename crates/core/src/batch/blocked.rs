//! The fixed-width lane-block engine behind [`BatchLoop::run`], and the
//! two [`Sink`]s a run can feed.
//!
//! Clean lanes of a batch are grouped by control scheme and packed into
//! [`BLOCK_WIDTH`]-wide structure-of-arrays blocks (`[f64; W]` /
//! `[i64; W]` columns). A block advances with straight-line kernels —
//! TDC sample, error computation, controller update, period write-back —
//! whose per-lane arithmetic is a verbatim transcription of the shared
//! [`Controller`] step bodies, so a blocked lane produces the same bit
//! pattern as its scalar [`DiscreteLoop`](crate::loopsim::DiscreteLoop)
//! twin:
//!
//! * integer shifts are exact, so the Fig. 5 integer IIR cannot diverge;
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
//! The loop nest is *block-major*: the run is cut into tiles of
//! [`Sink::TILE`] periods, and within a tile each block — then each
//! scalar-path lane — steps through every period of the tile before the
//! next one starts. A block keeps its controller state, its `l_RO`
//! history ring and its summary [`Fold`]s in itself for the whole run, so
//! a summary run's hot loop touches one block's few cache lines and
//! nothing lane-indexed (a traced run adds its tile's staging rows). The
//! kernel `match` sits outside the period loop: every scheme gets its own
//! monomorphic loop over the one shared period body.
//!
//! Input closures are deduplicated by reference identity
//! ([`std::ptr::eq`] on the fat pointer: same closure object *and* same
//! vtable) and sampled once per unique closure per sequence row, a tile
//! of rows at a time into one contiguous column per closure. Sweeps
//! whose lanes share a variation source — the common case — pay for each
//! `sin` row once instead of once per lane; closures that merely look
//! alike are conservatively kept separate.

use std::ops::Range;

use crate::controller::{Controller, IirConfig};
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
/// so the block body is uniform straight-line code. Integer-IIR lanes
/// also share their exponents, so every shift direction in a block is
/// decided once per exponent, not per column.
#[derive(PartialEq, Eq)]
enum GroupKey {
    IntIir(IirConfig),
    FloatIir { taps: usize },
    TeaTime,
    Free,
}

fn group_key(c: &Controller) -> GroupKey {
    match c {
        Controller::IntIir(k) => GroupKey::IntIir(k.config().clone()),
        Controller::FloatIir(k) => GroupKey::FloatIir {
            taps: k.state().len(),
        },
        Controller::TeaTime(_) => GroupKey::TeaTime,
        Controller::Free(_) => GroupKey::Free,
    }
}

/// Push `w_new` onto a mirrored delay line (see [`IntIir`]) whose window
/// starts at `head`.
#[inline(always)]
fn push_delay<T: Copy>(state: &mut [[T; W]], head: &mut usize, w_new: [T; W]) {
    let t_len = state.len() / 2;
    *head = if *head == 0 { t_len - 1 } else { *head - 1 };
    state[*head] = w_new;
    state[*head + t_len] = w_new;
}

/// SoA integer-IIR state of one block: the `Controller` arithmetic with
/// the lane index innermost, every column on the block's one `cfg`.
/// `state` is a mirrored delay line of `2·T` rows: row `i` and row `i + T`
/// always hold the same word, and the scalar window `s[0..T]` (most recent
/// first) of column `j` is `state[head + t][j]`. Stepping
/// `head ← head − 1 (mod T)` and writing `w_new` to rows `head` and
/// `head + T` is the scalar `rotate_right(1)` without moving `T·W` words
/// every period, and the window is one contiguous slice, so the tap loop
/// needs no wrap-around.
struct IntIir {
    cfg: IirConfig,
    state: Vec<[i64; W]>,
    head: usize,
}

impl IntIir {
    /// Advance every column one period: consume `δ[n]`, produce the
    /// unclamped `l_RO[n+1]`, bit for bit [`Controller::step`] (whose
    /// `shift` is `<<` for a non-negative exponent and `>>` for a
    /// negative one).
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        let ke = self.cfg.kexp_exp;
        let mut acc = delta.map(|d| (d.round() as i64) << ke);
        for (row, &e) in self.state[self.head..].iter().zip(&self.cfg.tap_exps) {
            if e >= 0 {
                for j in 0..W {
                    acc[j] += row[j] << e;
                }
            } else {
                for j in 0..W {
                    acc[j] += row[j] >> -e;
                }
            }
        }
        let ks = self.cfg.k_star_exp;
        let w_new = if ks >= 0 {
            acc.map(|a| a << ks)
        } else {
            acc.map(|a| a >> -ks)
        };
        for j in 0..W {
            next[j] = (w_new[j] >> ke) as f64;
        }
        push_delay(&mut self.state, &mut self.head, w_new);
    }
}

/// SoA float-IIR state of one block, delay line as in [`IntIir`].
struct FloatIir {
    kstar: [f64; W],
    taps: Vec<[f64; W]>,
    state: Vec<[f64; W]>,
    head: usize,
}

impl FloatIir {
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        let mut acc = *delta;
        for (row, te) in self.state[self.head..].iter().zip(&self.taps) {
            for j in 0..W {
                acc[j] += row[j] * te[j];
            }
        }
        for j in 0..W {
            next[j] = acc[j] * self.kstar[j];
        }
        push_delay(&mut self.state, &mut self.head, *next);
    }
}

/// SoA TEAtime state of one block.
#[derive(Clone, Copy)]
struct TeaTime {
    step: [f64; W],
    length: [f64; W],
}

impl TeaTime {
    #[inline(always)]
    fn step(&mut self, delta: &[f64; W], next: &mut [f64; W]) {
        for j in 0..W {
            // Exact scalar branch form (not `length += select`): adding a
            // signed zero could alter the sign of a ±0.0 length and
            // addition with a NaN δ must leave the length word untouched,
            // exactly as the branch does.
            if delta[j] > 0.0 {
                self.length[j] += self.step[j];
            } else if delta[j] < 0.0 {
                self.length[j] -= self.step[j];
            }
            next[j] = self.length[j];
        }
    }
}

/// The controller state of one block, one variant per [`GroupKey`]
/// scheme. A free-running block carries its constant lengths.
enum Kernel {
    IntIir(IntIir),
    FloatIir(FloatIir),
    TeaTime(TeaTime),
    Free([f64; W]),
}

/// Where one block's columns read their inputs and write their samples:
/// fixed for the whole run.
struct Columns {
    /// Batch lane index per column (the sink's lane index).
    lane: [usize; W],
    /// Loop delay `mm = m + 2` per column.
    mm: [usize; W],
    /// Per input stream (`e[n−mm]`, `e[n−1]`, `μ[n−mm]`, `c[n]`), each
    /// column's offset of tile row 0 in [`Inputs::rows`]; period `n0 + t`
    /// reads offset `+ t`.
    off: [[usize; W]; 4],
    /// Static per-column heterogeneous offset (the `static_mu` mode);
    /// zeros — and never read — in closure mode.
    mu_c: [f64; W],
    /// TDC quantization, uniform across the block (part of the group key).
    quant: Quantization,
}

/// One packed block: `W` same-scheme lanes, their input wiring, and
/// everything they carry from one tile to the next.
struct Block {
    cols: Columns,
    /// `l_RO[n]` of the period being generated, per column.
    cur: [f64; W],
    /// Block-local `l_RO` history ring: row `n mod hist.len()` holds
    /// `l_RO[n]`. The gather reads `hist[(n − mm) & mask]` — a few
    /// cache-hot rows, no pre-start branch (every row is prefilled with
    /// the lane's initial length, which is exactly what `l_RO[i]`,
    /// `i < 0`, means). `hist.len()` is the power-of-two global ring depth
    /// ≥ every `mm`, and each period gathers before it writes, so row `n`
    /// can never clobber a row the block still reads.
    hist: Vec<[f64; W]>,
    /// Per-column summary folds (unused by the traced sink).
    folds: [Fold; W],
    kernel: Kernel,
}

impl Block {
    /// Pack `W` lanes (indices `members`, all sharing a group key) into
    /// column order, lifting each lane's controller state into the SoA
    /// kernel.
    fn pack(batch: &BatchLoop, members: &[usize], inputs: &Inputs<'_>, hist_rows: usize) -> Block {
        debug_assert_eq!(members.len(), W);
        let mut cols = Columns {
            lane: [0; W],
            mm: [0; W],
            off: [[0; W]; 4],
            mu_c: [0.0; W],
            quant: batch.bank.domains[members[0]].quantization,
        };
        let mut init = [0.0f64; W];
        let mut cur = [0.0f64; W];
        for (j, &k) in members.iter().enumerate() {
            let l = &batch.bank.domains[k];
            cols.lane[j] = k;
            let (mm, off) = inputs.lanes[k];
            cols.mm[j] = mm;
            for (o, lane_o) in cols.off.iter_mut().zip(off) {
                o[j] = lane_o;
            }
            if let Some(ms) = inputs.static_mu {
                cols.mu_c[j] = ms[k];
            }
            init[j] = l.initial_length;
            cur[j] = l.controller.length();
        }
        let lanes = || members.iter().map(|&k| &batch.bank.domains[k].controller);
        let kernel = match &batch.bank.domains[members[0]].controller {
            Controller::IntIir(c0) => {
                let t_len = c0.state().len();
                let mut state = vec![[0; W]; 2 * t_len];
                for (j, c) in lanes().enumerate() {
                    let Controller::IntIir(c) = c else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    for (t, &w) in c.state().iter().enumerate() {
                        state[t][j] = w;
                        state[t + t_len][j] = w;
                    }
                }
                Kernel::IntIir(IntIir {
                    cfg: c0.config().clone(),
                    state,
                    head: 0,
                })
            }
            Controller::FloatIir(c0) => {
                let t_len = c0.state().len();
                let mut k = FloatIir {
                    kstar: [0.0; W],
                    taps: vec![[0.0; W]; t_len],
                    state: vec![[0.0; W]; 2 * t_len],
                    head: 0,
                };
                for (j, c) in lanes().enumerate() {
                    let Controller::FloatIir(c) = c else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    k.kstar[j] = c.k_star();
                    for t in 0..t_len {
                        k.taps[t][j] = c.taps()[t];
                        k.state[t][j] = c.state()[t];
                        k.state[t + t_len][j] = c.state()[t];
                    }
                }
                Kernel::FloatIir(k)
            }
            Controller::TeaTime(_) => {
                let mut k = TeaTime {
                    step: [0.0; W],
                    length: [0.0; W],
                };
                for (j, c) in lanes().enumerate() {
                    let Controller::TeaTime(c) = c else {
                        unreachable!("group key guarantees a uniform scheme");
                    };
                    k.step[j] = c.step_size();
                    k.length[j] = c.length();
                }
                Kernel::TeaTime(k)
            }
            Controller::Free(_) => Kernel::Free(cur),
        };
        Block {
            cols,
            cur,
            hist: vec![init; hist_rows],
            folds: [Fold::new(); W],
            kernel,
        }
    }

    /// Step every column through the tile's `periods`, handing each one to
    /// `sink`. The kernel `match` is outside the period loop, so each
    /// scheme runs its own monomorphic copy of [`period_loop`].
    fn run_tile<S: Sink>(&mut self, inputs: &Inputs<'_>, periods: Range<usize>, sink: &mut S) {
        let Block {
            cols,
            cur,
            hist,
            folds,
            kernel,
        } = self;
        let mut state = (*cur, &mut hist[..], *folds);
        macro_rules! each_period {
            (|$d:pat_param, $next:ident| $step:expr) => {
                period_loop(
                    cols,
                    &mut state,
                    inputs,
                    periods,
                    sink,
                    #[inline(always)]
                    |$d: &[f64; W], $next: &mut [f64; W]| $step,
                )
            };
        }
        match kernel {
            Kernel::IntIir(k) => each_period!(|d, next| k.step(d, next)),
            Kernel::FloatIir(k) => each_period!(|d, next| k.step(d, next)),
            Kernel::TeaTime(k) => {
                let mut local = *k;
                each_period!(|d, next| local.step(d, next));
                *k = local;
            }
            Kernel::Free(length) => {
                let length = *length;
                each_period!(|_, next| *next = length)
            }
        }
        (*cur, _, *folds) = state;
    }

    /// Write column `j`'s kernel state back into the lane's controller so
    /// `BatchLoop` state after a blocked run is indistinguishable from a
    /// scalar run (chained runs, `length()` queries, later resets).
    fn store_lane(&self, j: usize, ctrl: &mut Controller) {
        match (&self.kernel, ctrl) {
            (Kernel::IntIir(k), Controller::IntIir(c)) => {
                for (s, row) in c.state_mut().iter_mut().zip(&k.state[k.head..]) {
                    *s = row[j];
                }
            }
            (Kernel::FloatIir(k), Controller::FloatIir(c)) => {
                for (s, row) in c.state_mut().iter_mut().zip(&k.state[k.head..]) {
                    *s = row[j];
                }
            }
            (Kernel::TeaTime(k), Controller::TeaTime(c)) => c.set_length(k.length[j]),
            (Kernel::Free(_), Controller::Free(_)) => {}
            _ => unreachable!("block kernel / lane controller scheme mismatch"),
        }
    }
}

/// The period body every block runs, once per period of the tile: gather
/// `l_RO[n−mm]` and the input rows, quantize, form `δ`, `step` the kernel,
/// record `l_RO[n]` in the history ring and hand the period's columns to
/// the sink.
///
/// The gather keeps the scalar engines' association order
/// `((l_RO + e[n−mm]) − e[n−1]) + μ[n−mm]`; in the static-μ mode `μ` is
/// the column constant, the same f64 a `constant(μ)` closure returns, so
/// both forms are bit-identical.
#[inline(always)]
fn period_loop<'a, S: Sink>(
    cols: &Columns,
    (cur, hist, folds): &mut ([f64; W], &mut [[f64; W]], [Fold; W]),
    inputs: &'a Inputs<'_>,
    tile: Range<usize>,
    sink: &mut S,
    mut step: impl FnMut(&[f64; W], &mut [f64; W]),
) {
    let mask = hist.len() - 1;
    let static_mu = inputs.static_mu.is_some();
    // Each column's input streams cut to the tile, so the row reads need
    // no bounds checks inside the loop.
    let len = tile.len();
    let col = |rows: &'a [f64], off: &[usize; W]| -> [&'a [f64]; W] {
        std::array::from_fn(|j| &rows[off[j]..][..len])
    };
    let [e, mu, c] = &inputs.rows;
    let (e_nmm, e_n1, sp) = (
        col(e, &cols.off[0]),
        col(e, &cols.off[1]),
        col(c, &cols.off[3]),
    );
    let mu = if static_mu {
        [&[][..]; W]
    } else {
        col(mu, &cols.off[2])
    };
    for (t, n) in tile.enumerate() {
        let mut raw = [0.0f64; W];
        for j in 0..W {
            let lro_past = hist[n.wrapping_sub(cols.mm[j]) & mask][j];
            raw[j] = lro_past + e_nmm[j][t] - e_n1[j][t];
        }
        if static_mu {
            for (r, m) in raw.iter_mut().zip(&cols.mu_c) {
                *r += m;
            }
        } else {
            for j in 0..W {
                raw[j] += mu[j][t];
            }
        }
        let mut tau = [0.0f64; W];
        let mut delta = [0.0f64; W];
        for j in 0..W {
            tau[j] = cols.quant.apply(raw[j]);
            delta[j] = sp[j][t] - tau[j];
        }
        let mut next = [0.0f64; W];
        step(&delta, &mut next);
        hist[n & mask] = *cur;
        for j in 0..W {
            sink.put(&mut folds[j], n, t, cols.lane[j], tau[j], delta[j], cur[j]);
        }
        *cur = next;
    }
}

/// One scalar-path lane: a faulted or hardened lane, or a group tail,
/// stepped through [`crate::bank::step_domain`] like the scalar engines,
/// with what it carries from one tile to the next.
struct ScalarLane {
    k: usize,
    cur: f64,
    /// `l_RO` history ring, as in [`Block::hist`].
    hist: Vec<f64>,
    fold: Fold,
    path: Option<FaultPath>,
}

impl ScalarLane {
    fn run_tile<S: Sink>(
        &mut self,
        batch: &mut BatchLoop,
        inputs: &Inputs<'_>,
        tile: Range<usize>,
        sink: &mut S,
    ) {
        let lane = &mut batch.bank.domains[self.k];
        let mask = self.hist.len() - 1;
        let (mm, [e_nmm, e_n1, mu_nmm, sp]) = inputs.lanes[self.k];
        let [e, mu, c] = &inputs.rows;
        let static_mu = inputs.static_mu.map(|ms| ms[self.k]);
        for (t, n) in tile.enumerate() {
            let (tau, delta, next) = crate::bank::step_domain(
                lane.quantization,
                &mut lane.controller,
                self.path.as_mut(),
                n as i64,
                n as i64 - mm as i64,
                self.hist[n.wrapping_sub(mm) & mask],
                e[e_nmm + t],
                e[e_n1 + t],
                static_mu.unwrap_or_else(|| mu[mu_nmm + t]),
                c[sp + t],
            );
            sink.put(&mut self.fold, n, t, self.k, tau, delta, self.cur);
            self.hist[n & mask] = self.cur;
            self.cur = next;
        }
    }
}

/// The run's deduplicated input closures and one tile's rows of them,
/// sampled once per unique closure per row.
///
/// The recurrence at period `n` reads `e`/`μ` rows `n − mm`
/// (`mm ≤ max_off`) and `n − 1`, and set-point row `n`. So for the tile
/// `n0..n1` each `e`/`μ` closure gets a column of rows
/// `n0 − max_off .. n1 − 1` (`tile + max_off − 1` rows, row `r` at
/// `r − n0 + max_off`), and each set-point closure a column of rows
/// `n0..n1`. A column is contiguous, so a block walking its periods reads
/// each input as one sequential stream.
struct Inputs<'a> {
    /// Unique closures of the `e`, `μ` (none in the static-μ mode) and
    /// `c` inputs, and their rows, one column per closure.
    fns: [Vec<&'a dyn Fn(i64) -> f64>; 3],
    rows: [Vec<f64>; 3],
    /// Per lane: `mm`, and the offsets of its `e[n−mm]`, `e[n−1]`,
    /// `μ[n−mm]` and `c[n]` at tile row 0.
    lanes: Vec<(usize, [usize; 4])>,
    static_mu: Option<&'a [f64]>,
    max_off: usize,
    /// Periods per tile (every tile but the last).
    tile: usize,
}

/// How many input rows (f64s) a run stages at once, over all its unique
/// closures: 1 MiB. A run whose closures are too many for tiles of
/// `max_tile` rows each runs shorter tiles, down to [`TraceSink::TILE`].
const STAGED_ROWS: usize = 1 << 17;

impl<'a> Inputs<'a> {
    /// Deduplicate the run's closures, pick the tile height (`max_tile`,
    /// or less when the closures' columns would exceed [`STAGED_ROWS`])
    /// and size the tile's columns.
    fn new(batch: &BatchLoop, inputs: BatchInputs<'a>, max_tile: usize) -> Inputs<'a> {
        let b = batch.bank.domains.len();
        let ((e, e_idx), (mu, mu_idx), (c, c_idx), static_mu) = match inputs {
            BatchInputs::PerLane(li) => (
                dedup(li.iter().map(|li| li.homogeneous)),
                dedup(li.iter().map(|li| li.heterogeneous)),
                dedup(li.iter().map(|li| li.setpoint)),
                None,
            ),
            // Static μ: every lane shares one setpoint and one homogeneous
            // closure, and there are no μ closures to sample. The per-lane
            // μ offset still exists but is never read; the gather reads
            // the lane's constant instead.
            BatchInputs::StaticMu {
                setpoint,
                homogeneous,
                mu,
            } => (
                (vec![homogeneous], vec![0; b]),
                (Vec::new(), vec![0; b]),
                (vec![setpoint], vec![0; b]),
                Some(mu),
            ),
        };
        let mm = |k: usize| batch.bank.domains[k].m + 2;
        let max_off = (0..b).map(mm).max().expect("at least one lane");
        let closures = e.len() + mu.len() + c.len();
        let tile = max_tile.min((STAGED_ROWS / closures).max(TraceSink::TILE));
        let stride = tile + max_off - 1;
        let lanes = (0..b)
            .map(|k| {
                let lead = max_off - mm(k);
                let off = [
                    e_idx[k] * stride + lead,
                    e_idx[k] * stride + max_off - 1,
                    mu_idx[k] * stride + lead,
                    c_idx[k] * tile,
                ];
                (mm(k), off)
            })
            .collect();
        Inputs {
            rows: [e.len() * stride, mu.len() * stride, c.len() * tile].map(|n| vec![0.0; n]),
            fns: [e, mu, c],
            lanes,
            static_mu,
            max_off,
            tile,
        }
    }

    /// Sample the rows of tile `n0..n1`. Every tile but the last is
    /// `tile` periods long, so the `max_off − 1` rows an `e`/`μ` column
    /// shares with the previous tile sit at `tile..` and move to its front
    /// instead of being sampled again.
    fn fill(&mut self, n0: usize, n1: usize) {
        for (s, (fns, rows)) in self.fns.iter().zip(&mut self.rows).enumerate() {
            // Rows `n0 − lead .. n1 − trail` of every column.
            let (lead, trail) = if s == 2 { (0, 0) } else { (self.max_off, 1) };
            let kept = if n0 == 0 { 0 } else { lead - trail };
            let first = n0 as i64 - lead as i64;
            for (col, f) in rows.chunks_exact_mut(self.tile + lead - trail).zip(fns) {
                col.copy_within(self.tile..self.tile + kept, 0);
                let fresh = first + kept as i64..(n1 - trail) as i64;
                for (slot, r) in col[kept..].iter_mut().zip(fresh) {
                    *slot = f(r);
                }
            }
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
/// traced and traceless modes share one loop nest and one per-lane
/// arithmetic body — every recorded or summarized bit is common by
/// construction; only the destination differs.
///
/// The trait is sealed: [`TraceSink`] and [`SummarySink`] are the only
/// sinks. The `#[doc(hidden)]` methods are the engine's side of the
/// protocol and are not meant to be called directly.
pub trait Sink: sealed::Sealed {
    /// What [`BatchLoop::run`] returns with this sink.
    type Output;

    /// Periods per tile: every block, then every scalar-path lane, steps
    /// this many periods before the engine hands the tile to the sink and
    /// moves on (the last tile may be shorter).
    const TILE: usize;

    /// Telemetry span the run lands under.
    #[doc(hidden)]
    const SPAN: &'static str;

    /// Prepare for a run of `lanes` lanes × `steps` periods. Called once
    /// per run, also when the run is empty.
    #[doc(hidden)]
    fn begin(&mut self, lanes: usize, steps: usize);

    /// Take lane `k`'s period-`n` sample, row `t` of the current tile.
    /// `fold` is the lane's running summary, which the engine keeps with
    /// the lane for the whole run.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        fold: &mut Fold,
        n: usize,
        t: usize,
        k: usize,
        tau: f64,
        delta: f64,
        lro: f64,
    );

    /// Every lane has stepped the current tile's `rows` periods.
    #[doc(hidden)]
    fn end_tile(&mut self, rows: usize) {
        let _ = rows;
    }

    /// Lane `k` finished a non-empty run with `fold` and last `l_RO`.
    #[doc(hidden)]
    fn end_lane(&mut self, k: usize, fold: Fold, last: f64) {
        let _ = (k, fold, last);
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
    /// Lane-indexed `[t · lanes + k]` staging rows of the current tile:
    /// `τ`, `δ` and `l_RO`.
    stage: [Vec<f64>; 3],
}

impl TraceSink {
    /// A trace sink that writes into `spare`'s buffers (see the type docs).
    pub fn recycling(spare: BatchTrace) -> TraceSink {
        TraceSink {
            trace: spare,
            ..TraceSink::default()
        }
    }
}

impl sealed::Sealed for TraceSink {}

impl Sink for TraceSink {
    type Output = BatchTrace;
    /// Short enough that a tile's `16 · B` staging rows — 96 KiB for the
    /// 256-lane benchmark bank — stay cache-resident until they are
    /// appended.
    const TILE: usize = 16;
    const SPAN: &'static str = "engine.batch";

    fn begin(&mut self, lanes: usize, steps: usize) {
        // Blocks scatter each period by lane index into the cache-resident
        // staging rows, and a finished tile is appended onto the flat
        // arrays in one go. Appending instead of preallocating
        // `vec![0.0; steps·b]` skips a full zero-init pass over a trace
        // that every lane overwrites anyway — at long horizons that pass
        // alone streams megabytes through the cache hierarchy twice.
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
        // trace back during the run — every lane gathers `l_RO[n−mm]` from
        // its own history ring in the engine — so all three arrays stream.
        self.stream = cfg!(target_arch = "x86_64")
            && lanes.is_multiple_of(2)
            && [&t.tau, &t.delta, &t.lro]
                .iter()
                .all(|v| (v.as_ptr() as usize).is_multiple_of(16));
        self.stage = std::array::from_fn(|_| vec![0.0; Self::TILE.min(steps) * lanes]);
    }

    #[inline(always)]
    fn put(&mut self, _: &mut Fold, _: usize, t: usize, k: usize, tau: f64, delta: f64, lro: f64) {
        let i = t * self.trace.lanes + k;
        self.stage[0][i] = tau;
        self.stage[1][i] = delta;
        self.stage[2][i] = lro;
    }

    fn end_tile(&mut self, rows: usize) {
        let len = rows * self.trace.lanes;
        let t = &mut self.trace;
        for (v, stage) in [&mut t.tau, &mut t.delta, &mut t.lro]
            .into_iter()
            .zip(&self.stage)
        {
            append_row(v, &stage[..len], self.stream);
        }
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
    /// A summary stages nothing per lane, only the tile's input rows —
    /// `TILE` f64s per unique closure, 64 KiB — so a tile covers a whole
    /// Monte Carlo panel's 8 000 periods, and a block walks its lanes'
    /// entire run in one go. A run with more than 16 unique closures
    /// (say, one μ closure per lane) runs shorter tiles, so that its
    /// staged rows stay within 1 MiB.
    const TILE: usize = 8192;
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

    #[inline(always)]
    fn put(&mut self, fold: &mut Fold, n: usize, _: usize, _: usize, _: f64, delta: f64, lro: f64) {
        if n >= self.warmup {
            fold.push(delta, -delta, lro);
        }
    }

    fn end_lane(&mut self, k: usize, fold: Fold, last: f64) {
        self.folds[k] = fold;
        self.last[k] = last;
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

/// The shared engine body: input dedup, lane partition, the block-major
/// tile loop, controller state write-back and telemetry — generic over
/// the [`Sink`] receiving each period's samples.
///
/// Loop order: for each tile of [`Sink::TILE`] periods (fewer when the
/// run has many unique closures, see [`Inputs::new`]), sample the
/// tile's input rows ([`Inputs::fill`]), step every block through the
/// whole tile ([`Block::run_tile`]), then every scalar-path lane
/// ([`ScalarLane::run_tile`]), and let the sink take the tile
/// ([`Sink::end_tile`]: the traced sink appends its staging rows). Lanes
/// are independent, so the order in which lanes visit periods changes no
/// bit: each lane still steps its periods in order, reading only its own
/// history and the shared inputs.
///
/// Folds live with the lanes: a block's `W` [`Fold`]s and a scalar lane's
/// one stay in the block or lane for the whole run and reach the sink
/// once, with the lane's last `l_RO`, at the end ([`Sink::end_lane`]).
///
/// [`BatchInputs::StaticMu`] holds one **step-invariant** heterogeneous
/// offset per lane: no μ closure is sampled and the gather adds the
/// per-lane constant directly — deleting one indirect call and one row
/// store per lane per period for workloads (Monte Carlo sample panels)
/// whose per-lane mismatch is a sampled constant. Because
/// `μ[n − mm] = μ` for every row, adding the same f64 the equivalent
/// `constant(μ)` closure would have produced, in the same association
/// order, keeps the run bit-identical to the closure form.
fn run_impl<S: Sink>(batch: &mut BatchLoop, inputs: BatchInputs<'_>, steps: usize, sink: &mut S) {
    let b = batch.bank.domains.len();
    debug_assert!(b > 0 && steps > 0, "empty cases are handled by the caller");

    let mut inputs = Inputs::new(batch, inputs, S::TILE.min(steps));
    let tile = inputs.tile;
    // The `l_RO` history rings are rounded up to a power of two so the
    // slot computation is a mask, not a division (`r & (2^k − 1)` equals
    // `r.rem_euclid(2^k)` for any sign, also through `wrapping_sub`).
    let ring_rows = inputs.max_off.next_power_of_two();

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
            blocks.push(Block::pack(batch, chunk, &inputs, ring_rows));
        }
        scalar.extend_from_slice(chunks.remainder());
    }
    // Scalar lanes in batch order. Lanes are independent, so any order
    // would produce the same bits — keeping batch order just makes the
    // fallback path read like the scalar engine it reproduces.
    scalar.sort_unstable();
    let mut scalars: Vec<ScalarLane> = scalar
        .iter()
        .map(|&k| {
            let l = &batch.bank.domains[k];
            ScalarLane {
                k,
                cur: l.controller.length(),
                hist: vec![l.initial_length; ring_rows],
                fold: Fold::new(),
                path: paths[k].take(),
            }
        })
        .collect();

    let mut block_scope = batch.telemetry.scope("engine.batch.blocked");
    block_scope.attr("blocks", blocks.len());
    block_scope.attr("scalar_lanes", scalars.len());

    for n0 in (0..steps).step_by(tile) {
        let n1 = (n0 + tile).min(steps);
        inputs.fill(n0, n1);
        for blk in &mut blocks {
            blk.run_tile(&inputs, n0..n1, sink);
        }
        for lane in &mut scalars {
            lane.run_tile(batch, &inputs, n0..n1, sink);
        }
        sink.end_tile(n1 - n0);
    }

    // Hand every lane's fold and last `l_RO` to the sink, and write the
    // block kernels' final state back into the lane controllers.
    let last = (steps - 1) & (ring_rows - 1);
    for blk in &blocks {
        for j in 0..W {
            let k = blk.cols.lane[j];
            blk.store_lane(j, &mut batch.bank.domains[k].controller);
            sink.end_lane(k, blk.folds[j], blk.hist[last][j]);
        }
    }
    for lane in &scalars {
        sink.end_lane(lane.k, lane.fold, lane.hist[last]);
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
        .add(scalars.len() as u64);
    let paths = scalars.iter().filter_map(|l| l.path.as_ref());
    let (injected, relocks) = paths.fold((0u64, 0u64), |(i, r), fp| {
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
