//! Parallel parameter sweeps over std scoped threads: one cost-modelled
//! longest-job-first map, an optional live progress line on stderr, and a
//! worker-count override.
//!
//! # Scheduling
//!
//! [`parallel_map`] is the one entry point. Each item carries a cost hint
//! (a grid point's simulated-step budget, a lane range's width; a uniform
//! hint when the items cost alike), and items are dispatched
//! **longest-job-first**, so the heavy points start while the cheap ones
//! fill the tail and no worker is left holding a giant job at the end of
//! the sweep. Workers claim items in small index chunks off a shared
//! atomic cursor; the calling thread is worker 0 and runs the same claim
//! loop as the helpers it spawns, so a one-worker sweep is the same loop
//! with no helper. Output order is always the input order, whatever order
//! items complete in, and every completion ticks the progress line.
//!
//! A sweep never sees a cache: `runner::cached_map`, which every cached
//! grid runs through, probes its keys first (under the `sweep.probe` span)
//! and hands only the tasks it missed to [`parallel_map`]. The progress
//! line therefore counts dispatched items only; a cache hit took no time,
//! and counting it would inflate the rate and shorten the ETA.
//!
//! # Panic containment
//!
//! A panic inside one item's compute does not abort the whole sweep: each
//! item runs under `catch_unwind`, every *other* item still completes (and
//! writes its cache records back), and only then does the sweep re-panic
//! with a [`SweepPanics`] payload naming every failed item. The
//! `repro serve` job supervisor catches that payload and marks the one job
//! failed while the server keeps serving.
//!
//! # Cooperative cancellation
//!
//! A [`CancelToken`] (threaded through `RunCtx`) makes long sweeps
//! abandonable: [`parallel_map`] checks it before each item (and
//! `runner::cached_map` before each task's probe), and a fired token
//! unwinds with a [`SweepCancelled`] payload that the sweep propagates
//! immediately (no further items are claimed) and the job supervisor maps
//! to a `cancelled`/`timeout` terminal state.

use std::io::{IsTerminal as _, Write as _};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use clock_telemetry::Telemetry;

/// Process-wide switch for the live sweep progress line (off by default;
/// the `repro` CLI turns it on for `--progress`).
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Process-wide worker-count override (0 = automatic).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Enable or disable the live progress line printed by [`parallel_map`].
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether the live progress line is currently enabled.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Override the sweep worker count (`repro --threads N` /
/// `REPRO_THREADS`). `None` (or `Some(0)`) restores the automatic choice,
/// `available_parallelism`. The effective count is always additionally
/// clamped to the number of pending items.
pub fn set_threads(n: Option<usize>) {
    THREADS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The current worker-count override, when one is set.
pub fn thread_override() -> Option<usize> {
    match THREADS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// The sweep worker pool size: the [`set_threads`] override when one is
/// set, otherwise `available_parallelism`. A sweep runs at most this many
/// workers (fewer when it has fewer pending items), the calling thread
/// being one of them.
pub(crate) fn pool_size() -> usize {
    thread_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Workers to run, the calling thread included, for `pending`
/// dispatchable items.
fn worker_count(pending: usize) -> usize {
    pool_size().min(pending).max(1)
}

/// Format one progress line: completed points, rate and ETA after `secs`
/// seconds of sweeping. Pure, so it is unit-testable; [`parallel_map`]
/// prefixes it with `\r` on stderr.
pub fn progress_line(done: usize, total: usize, secs: f64) -> String {
    let pct = 100.0 * done as f64 / total.max(1) as f64;
    let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    let eta = if rate > 0.0 && done < total {
        (total - done) as f64 / rate
    } else {
        0.0
    };
    format!("sweep {done}/{total} ({pct:.0}%) | {rate:.1} points/s | ETA {eta:.0}s")
}

/// Whether the carriage-return live line may be used: only on a real
/// terminal. Piped/redirected stderr (CI logs) would otherwise accumulate
/// one `\r`-separated copy per update.
pub fn live_line_allowed() -> bool {
    std::io::stderr().is_terminal()
}

/// Stderr progress reporter, rate-limited so the sweep itself stays cheap.
/// On a TTY it redraws one line in place; on anything else it stays silent
/// until completion and then prints a single summary line.
struct ProgressMeter {
    total: usize,
    done: usize,
    live: bool,
    started: Instant,
    last_print: Option<Instant>,
}

impl ProgressMeter {
    fn new(total: usize) -> Option<Self> {
        progress_enabled().then(|| ProgressMeter {
            total,
            done: 0,
            live: live_line_allowed(),
            started: Instant::now(),
            last_print: None,
        })
    }

    fn tick(&mut self) {
        self.done += 1;
        let finished = self.done == self.total;
        let secs = self.started.elapsed().as_secs_f64();
        if !self.live {
            if finished {
                eprintln!("{}", progress_line(self.done, self.total, secs));
            }
            return;
        }
        let now = Instant::now();
        let due = self
            .last_print
            .is_none_or(|t| now.duration_since(t).as_millis() >= 100);
        if due || finished {
            self.last_print = Some(now);
            eprint!("\r{}", progress_line(self.done, self.total, secs));
            if finished {
                eprintln!();
            }
            let _ = std::io::stderr().flush();
        }
    }
}

/// How many items a worker claims per cursor bump: enough to amortize the
/// atomic traffic on big sweeps, small enough that a heavy chunk cannot
/// leave the other workers idle at the tail.
fn dispatch_chunk(n: usize, workers: usize) -> usize {
    (n / (workers * 8)).clamp(1, 32)
}

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// An explicit cancellation request (client cancel, shutdown drain).
    Cancelled,
    /// The job's wall-clock deadline passed.
    DeadlineExceeded,
}

#[derive(Debug)]
struct CancelInner {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

/// A cooperative cancellation token. The default token never fires, and
/// checking it is a single `Option` branch, so it can be threaded through
/// every run context at zero cost. A live token fires when its shared flag
/// is raised (client cancellation) or its wall-clock deadline passes
/// (per-job timeout); [`CancelToken::check`] then unwinds with a
/// [`SweepCancelled`] payload that [`parallel_map`] propagates
/// immediately and a job supervisor downcasts back to the reason.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// The inert token (same as `CancelToken::default()`): never fires.
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A live token observing `flag`, with an optional wall-clock
    /// deadline. The flag is shared: raising it from any thread cancels
    /// every holder of this token.
    pub fn new(flag: Arc<AtomicBool>, deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Some(Arc::new(CancelInner { flag, deadline })),
        }
    }

    /// Why the token has fired, if it has.
    pub fn cancelled(&self) -> Option<CancelReason> {
        let inner = self.inner.as_ref()?;
        if inner.flag.load(Ordering::Relaxed) {
            return Some(CancelReason::Cancelled);
        }
        if inner.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CancelReason::DeadlineExceeded);
        }
        None
    }

    /// Unwind with a [`SweepCancelled`] payload when the token has fired.
    /// Call between units of work (grid points, iterations); the panic is
    /// the cooperative exit path, caught by the job supervisor.
    pub fn check(&self) {
        if let Some(reason) = self.cancelled() {
            std::panic::panic_any(SweepCancelled(reason));
        }
    }
}

/// The panic payload of a cooperative cancellation — downcast it from
/// `catch_unwind` to distinguish "cancelled/timed out" from a real crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCancelled(pub CancelReason);

impl std::fmt::Display for SweepCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            CancelReason::Cancelled => write!(f, "sweep cancelled"),
            CancelReason::DeadlineExceeded => write!(f, "sweep deadline exceeded"),
        }
    }
}

/// The panic payload a contained sweep re-raises after every surviving
/// item has completed: one `(input index, panic message)` pair per failed
/// item, input-ordered. The index is into the items the sweep was given
/// (`runner::cached_map` maps it back to the grid's task index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanics {
    /// `(item index, panic message)` for every item whose compute
    /// panicked.
    pub items: Vec<(usize, String)>,
}

impl std::fmt::Display for SweepPanics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} sweep item(s) panicked:", self.items.len())?;
        for (i, msg) in &self.items {
            write!(f, " [{i}] {msg};")?;
        }
        Ok(())
    }
}

/// Render a caught panic payload as a message (panics carry `String` or
/// `&str` in practice; anything else gets a stable placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<SweepCancelled>() {
        c.to_string()
    } else if let Some(p) = payload.downcast_ref::<SweepPanics>() {
        p.to_string()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Silence the default panic hook for cooperative [`SweepCancelled`]
/// unwinds. Cancellation is routine control flow for long-lived hosts
/// (the experiment service cancels jobs on request and on deadline);
/// without this, every cancel spews a backtrace to stderr. All other
/// panics still reach the previously installed hook. Idempotent enough
/// for practice: installs once per process.
pub fn install_quiet_cancel_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<SweepCancelled>() {
                previous(info);
            }
        }));
    });
}

/// Map `f` over `items` on the sweep worker pool, preserving order, with
/// longest-job-first dispatch by `cost(item)` (see the module docs).
///
/// `cancel` is checked before each item. When the sweep runs multi-worker
/// and `telemetry` is enabled, the drain tail — wall time between the
/// moment the last item is claimed and the moment every result has
/// arrived — is accumulated onto the `sweep.tail_ms` counter. A scheduler
/// that balances well keeps the tail close to one average item; one that
/// strands a heavy job at the end shows it here.
///
/// # Panics
///
/// A panic inside `f` is contained per item: every other item still runs
/// to completion (so cache write-backs survive), and the sweep then
/// re-panics with a [`SweepPanics`] payload listing `(index, message)` for
/// each failed item. A [`SweepCancelled`] payload (a fired `cancel`, or a
/// token `f` checks itself) is special: it aborts the dispatch promptly —
/// no further items are claimed — and propagates unchanged.
pub fn parallel_map<T, R>(
    items: &[T],
    cost: impl Fn(&T) -> u64,
    f: impl Fn(&T) -> R + Sync,
    telemetry: &Telemetry,
    cancel: &CancelToken,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // Longest job first; the sort is stable, so equal costs keep sweep
    // order and a uniform-cost sweep dispatches as a chunked FIFO.
    let order: Vec<usize> = {
        let _schedule_scope = telemetry.scope("sweep.schedule");
        let mut costed: Vec<(usize, u64)> = items.iter().map(&cost).enumerate().collect();
        costed.sort_by_key(|&(_, cost)| std::cmp::Reverse(cost));
        costed.into_iter().map(|(i, _)| i).collect()
    };
    let mut meter = ProgressMeter::new(n);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut errors: Vec<(usize, String)> = Vec::new();
    let workers = worker_count(n);
    let chunk = dispatch_chunk(n, workers);
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    // Micros from `started` at which the queue drained (every item
    // claimed); what remains after that instant is the scheduling tail.
    let drained_at_us = AtomicU64::new(u64::MAX);
    // Raised when a worker catches a cancellation: no further chunks are
    // claimed, and the payload (stashed once) propagates after the scope.
    let abort = AtomicBool::new(false);
    let cancel_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    // Spawned workers run on their own threads, so the thread-local span
    // nesting breaks there: capture the enclosing span here and parent
    // each worker's span explicitly.
    let dispatch_parent = telemetry.current_span();
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    // One claim loop, run by `workers − 1` spawned threads and by the
    // calling thread as worker 0, so a sweep adds one thread fewer than it
    // has workers (every thread that allocates can cost the process a
    // malloc arena) and a one-worker sweep adds none. `between` runs after
    // each of the worker's items.
    let claim =
        |w: usize, tx: &mpsc::Sender<(usize, Result<R, String>)>, between: &mut dyn FnMut()| {
            let mut worker_scope = telemetry.scope_under(dispatch_parent, "sweep.worker");
            worker_scope.attr("worker", w);
            let mut claimed = 0usize;
            'claim: loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    let _ = drained_at_us.compare_exchange(
                        u64::MAX,
                        started.elapsed().as_micros() as u64,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    break;
                }
                let end = (start + chunk).min(n);
                claimed += end - start;
                for &i in &order[start..end] {
                    let run = || {
                        cancel.check();
                        f(&items[i])
                    };
                    let result = match catch_unwind(AssertUnwindSafe(run)) {
                        Ok(r) => Ok(r),
                        Err(payload) if payload.is::<SweepCancelled>() => {
                            let mut slot = cancel_slot.lock().expect("cancel slot lock");
                            slot.get_or_insert(payload);
                            abort.store(true, Ordering::Relaxed);
                            break 'claim;
                        }
                        Err(payload) => Err(panic_message(&*payload)),
                    };
                    tx.send((i, result)).expect("receiver outlives workers");
                    between();
                }
            }
            worker_scope.attr("items", claimed);
        };
    std::thread::scope(|scope| {
        for w in 1..workers {
            let tx = tx.clone();
            let claim = &claim;
            scope.spawn(move || claim(w, &tx, &mut || {}));
        }
        // The calling thread is also the single collector and owns the
        // progress line, so ticks are serialized without extra locking; it
        // drains finished results between its own items.
        let mut collect = |(i, r): (usize, Result<R, String>)| {
            match r {
                Ok(r) => out[i] = Some(r),
                Err(msg) => errors.push((i, msg)),
            }
            if let Some(m) = meter.as_mut() {
                m.tick();
            }
        };
        claim(0, &tx, &mut || {
            while let Ok(done) = rx.try_recv() {
                collect(done);
            }
        });
        drop(tx);
        for done in rx.iter() {
            collect(done);
        }
    });
    if workers > 1 && telemetry.is_enabled() {
        let drained = drained_at_us.load(Ordering::Relaxed);
        if drained != u64::MAX {
            let total = started.elapsed().as_micros() as u64;
            let tail_ms = total.saturating_sub(drained) / 1000;
            telemetry.counter("sweep.tail_ms").add(tail_ms);
        }
    }
    // A cancellation propagates first, then the aggregated per-item
    // panics; results are collected only when every item completed.
    if let Some(payload) = cancel_slot.into_inner().expect("cancel slot lock") {
        resume_unwind(payload);
    }
    if !errors.is_empty() {
        errors.sort_by_key(|&(i, _)| i);
        std::panic::panic_any(SweepPanics { items: errors });
    }
    out.into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect()
}

/// Split `lanes` lanes into contiguous `chunk`-wide ranges (the last may
/// be shorter), for a lane-parallel [`parallel_map`] costed by range width.
/// Lanes never interact, so the parts recombined in lane order equal one
/// run over every lane, for any chunk width and worker count.
///
/// # Panics
///
/// Panics when `chunk == 0`.
pub fn lane_ranges(lanes: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk width must be positive");
    (0..lanes)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(lanes))
        .collect()
}

/// A logarithmically spaced grid of `n` points from `lo` to `hi`
/// (inclusive).
///
/// # Panics
///
/// Panics if `n < 2` or the bounds are not positive and increasing.
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two grid points");
    assert!(lo > 0.0 && hi > lo, "log grid needs 0 < lo < hi");
    let (la, lb) = (lo.ln(), hi.ln());
    (0..n)
        .map(|k| (la + (lb - la) * k as f64 / (n - 1) as f64).exp())
        .collect()
}

/// A linearly spaced grid of `n` points from `lo` to `hi` (inclusive).
///
/// # Panics
///
/// Panics if `n < 2` or `hi <= lo`.
pub fn linear_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two grid points");
    assert!(hi > lo, "grid needs lo < hi");
    (0..n)
        .map(|k| lo + (hi - lo) * k as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_clock::batch::{BatchLoop, BatchTrace, Sink, SummarySink, TraceSink};
    use adaptive_clock::controller::{Controller, IirConfig};
    use adaptive_clock::loopsim::{constant, step_at, LoopInputs};
    use adaptive_clock::system::RunSummary;
    use adaptive_clock::tdc::Quantization;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// `f` over `items` at a uniform cost, untraced and uncancellable.
    fn uniform<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        parallel_map(
            items,
            |_| 1,
            f,
            &Telemetry::disabled(),
            &CancelToken::never(),
        )
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = uniform(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(uniform(&empty, |&x| x).is_empty());
        assert_eq!(uniform(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_map_uneven_work() {
        let items: Vec<u64> = (0..40).collect();
        let out = uniform(&items, |&x| {
            // make later items much cheaper than early ones
            let spins = if x < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn dispatch_chunk_bounds() {
        // Tiny sweeps: one item per claim, never zero.
        assert_eq!(dispatch_chunk(1, 8), 1);
        assert_eq!(dispatch_chunk(10, 8), 1);
        // Big sweeps amortize, but the claim size is capped.
        assert_eq!(dispatch_chunk(1_000, 4), 31);
        assert_eq!(dispatch_chunk(1_000_000, 4), 32);
    }

    #[test]
    fn parallel_map_pathological_load_stress() {
        // An adversarial cost profile across chunk boundaries: a few
        // items are ~5 orders of magnitude heavier than the rest, placed
        // both at the front, mid-sweep, and on the final index, plus a
        // pseudo-random light load everywhere else. Order and completeness
        // must survive chunked dispatch.
        let n = 513usize;
        let items: Vec<u64> = (0..n as u64).collect();
        let heavy = [0u64, 1, 255, 256, 511, 512];
        let out = uniform(&items, |&x| {
            let spins = if heavy.contains(&x) {
                400_000
            } else {
                // splitmix-style scramble for an uneven light tail
                (x.wrapping_mul(0x9E3779B97F4A7C15) >> 56) + 1
            };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        assert_eq!(out.len(), n);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64, "index {i} out of order");
        }
    }

    #[test]
    fn planned_preserves_order_under_uneven_costs() {
        // Heavy items scattered through the sweep with honest cost hints:
        // LJF reorders execution, the output must still be input-ordered.
        let n = 257usize;
        let items: Vec<u64> = (0..n as u64).collect();
        let cost_of = |x: u64| {
            if x.is_multiple_of(17) {
                300_000u64
            } else {
                50 + x % 7
            }
        };
        let out = parallel_map(
            &items,
            |&x| cost_of(x),
            |&x| {
                let mut acc = x;
                for _ in 0..cost_of(x) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (x, acc)
            },
            &Telemetry::disabled(),
            &CancelToken::never(),
        );
        assert_eq!(out.len(), n);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64, "index {i} out of order under LJF");
        }
    }

    #[test]
    fn panicking_item_is_contained_and_other_items_complete() {
        let items: Vec<u64> = (0..64).collect();
        let completed = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            uniform(&items, |&x| {
                if x == 13 || x == 40 {
                    panic!("item {x} exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }))
        .expect_err("a sweep with panicking items must re-panic");
        let panics = payload
            .downcast_ref::<SweepPanics>()
            .expect("payload must be SweepPanics");
        let indices: Vec<usize> = panics.items.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![13, 40], "input-ordered failed indices");
        assert!(panics.items[0].1.contains("item 13 exploded"));
        assert_eq!(
            completed.load(Ordering::Relaxed),
            62,
            "every surviving item must still run"
        );
    }

    #[test]
    fn fired_cancel_token_propagates_and_stops_claiming() {
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::new(Arc::clone(&flag), None);
        let items: Vec<u64> = (0..256).collect();
        let started = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(
                &items,
                |_| 1,
                |&x| {
                    if started.fetch_add(1, Ordering::Relaxed) == 5 {
                        flag.store(true, Ordering::Relaxed);
                    }
                    x
                },
                &Telemetry::disabled(),
                &token,
            )
        }))
        .expect_err("a fired token must unwind the sweep");
        let cancelled = payload
            .downcast_ref::<SweepCancelled>()
            .expect("payload must be SweepCancelled");
        assert_eq!(cancelled.0, CancelReason::Cancelled);
        assert!(
            started.load(Ordering::Relaxed) < items.len(),
            "cancellation must abort the dispatch before the tail"
        );
        // A token that fired before the sweep stops it before its first item.
        let before = started.load(Ordering::Relaxed);
        let rerun = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(
                &items,
                |_| 1,
                |&x| started.fetch_add(1, Ordering::Relaxed) + x as usize,
                &Telemetry::disabled(),
                &token,
            )
        }));
        assert!(rerun.is_err(), "a fired token must unwind the sweep");
        assert_eq!(started.load(Ordering::Relaxed), before, "no item may run");
    }

    #[test]
    fn deadline_token_reports_timeout_reason() {
        let token = CancelToken::new(
            Arc::new(AtomicBool::new(false)),
            Some(Instant::now() - std::time::Duration::from_millis(1)),
        );
        assert_eq!(token.cancelled(), Some(CancelReason::DeadlineExceeded));
        let payload = catch_unwind(AssertUnwindSafe(|| token.check()))
            .expect_err("expired deadline must fire");
        assert_eq!(
            payload.downcast_ref::<SweepCancelled>(),
            Some(&SweepCancelled(CancelReason::DeadlineExceeded))
        );
    }

    #[test]
    fn never_token_is_inert() {
        let token = CancelToken::never();
        assert_eq!(token.cancelled(), None);
        token.check();
        assert_eq!(CancelToken::default().cancelled(), None);
    }

    #[test]
    fn panic_message_renders_known_payload_shapes() {
        let str_payload = catch_unwind(|| panic!("plain literal")).unwrap_err();
        assert_eq!(panic_message(&*str_payload), "plain literal");
        let string_payload = catch_unwind(|| panic!("value {}", 42)).unwrap_err();
        assert_eq!(panic_message(&*string_payload), "value 42");
        let cancel: Box<dyn std::any::Any + Send> =
            Box::new(SweepCancelled(CancelReason::DeadlineExceeded));
        assert_eq!(panic_message(&*cancel), "sweep deadline exceeded");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(panic_message(&*opaque), "non-string panic payload");
    }

    /// Tests that touch the process-global worker override take this lock
    /// so they cannot observe each other's settings.
    static THREAD_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn planned_dispatches_heaviest_first() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        // Record execution order with a single worker: with LJF, the
        // highest-cost item must run first and the lowest last.
        set_threads(Some(1));
        let items: Vec<u64> = (0..8).collect();
        let log = Mutex::new(Vec::new());
        let _ = parallel_map(
            &items,
            |&x| x + 1,
            |&x| {
                log.lock().unwrap().push(x);
                x
            },
            &Telemetry::disabled(),
            &CancelToken::never(),
        );
        set_threads(None);
        let ran = log.into_inner().unwrap();
        let expected: Vec<u64> = (0..8).rev().collect();
        assert_eq!(ran, expected, "single worker must run jobs longest-first");
    }

    #[test]
    fn thread_override_round_trips_and_sweeps_stay_correct() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        assert_eq!(thread_override(), None);
        set_threads(Some(2));
        assert_eq!(thread_override(), Some(2));
        let items: Vec<u64> = (0..50).collect();
        let out = uniform(&items, |&x| x + 7);
        set_threads(None);
        assert_eq!(thread_override(), None);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 7);
        }
    }

    /// A two-worker sweep runs on the calling thread plus one spawned
    /// thread: the caller claims items too, so a sweep adds one thread
    /// fewer than it has workers.
    #[test]
    fn calling_thread_is_one_of_the_workers() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_threads(Some(2));
        let caller = std::thread::current().id();
        // Items 0 and 1 meet at a barrier (one item per claim at this
        // size), so two distinct threads each hold one of them.
        let barrier = std::sync::Barrier::new(2);
        let items: Vec<u64> = (0..16).collect();
        let ran_on = uniform(&items, |&x| {
            if x < 2 {
                barrier.wait();
            }
            std::thread::current().id()
        });
        set_threads(None);
        let threads: std::collections::HashSet<_> = ran_on.iter().copied().collect();
        assert_eq!(threads.len(), 2, "two workers run on two threads");
        assert!(threads.contains(&caller), "the calling thread is a worker");
    }

    /// A one-worker sweep is the same claim loop, run by the calling
    /// thread alone: one `sweep.worker` span holding every item, no helper
    /// thread, and no drain tail to record.
    #[test]
    fn one_worker_sweep_is_the_claim_loop_on_the_calling_thread() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_threads(Some(1));
        let telemetry = Telemetry::enabled();
        telemetry.enable_tracing();
        let items: Vec<u64> = (0..40).collect();
        let ran_on = parallel_map(
            &items,
            |_| 1,
            |_| std::thread::current().id(),
            &telemetry,
            &CancelToken::never(),
        );
        set_threads(None);
        let caller = std::thread::current().id();
        assert!(ran_on.iter().all(|&id| id == caller));
        let spans = telemetry.trace_spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "sweep.worker").collect();
        assert_eq!(workers.len(), 1);
        let attr = |k: &str| {
            let found = workers[0].attrs.iter().find(|(n, _)| n == k);
            found.map(|(_, v)| v.as_str())
        };
        assert_eq!((attr("worker"), attr("items")), (Some("0"), Some("40")));
        assert_eq!(telemetry.snapshot().counter("sweep.tail_ms"), None);
    }

    #[test]
    fn tail_telemetry_recorded_on_parallel_sweeps() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        // Force at least 2 workers so the parallel path runs.
        set_threads(Some(2));
        let telemetry = Telemetry::enabled();
        let items: Vec<u64> = (0..64).collect();
        let _ = parallel_map(
            &items,
            |_| 1,
            |&x| {
                let mut acc = x;
                for _ in 0..10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            },
            &telemetry,
            &CancelToken::never(),
        );
        set_threads(None);
        // The counter exists (possibly 0 ms on a fast machine).
        assert!(
            telemetry.snapshot().counter("sweep.tail_ms").is_some(),
            "parallel sweeps must record their drain tail"
        );
    }

    #[test]
    fn log_grid_endpoints_and_monotonicity() {
        let g = log_grid(0.1, 10.0, 21);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[20] - 10.0).abs() < 1e-9);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
        // geometric: ratio constant
        let r0 = g[1] / g[0];
        let r1 = g[11] / g[10];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn progress_line_rate_and_eta() {
        // 20 of 80 points in 10 s -> 2 points/s -> 30 s to go.
        let line = progress_line(20, 80, 10.0);
        assert_eq!(line, "sweep 20/80 (25%) | 2.0 points/s | ETA 30s");
        // completion: no ETA left
        assert_eq!(
            progress_line(80, 80, 40.0),
            "sweep 80/80 (100%) | 2.0 points/s | ETA 0s"
        );
        // degenerate inputs must not divide by zero
        assert_eq!(
            progress_line(0, 0, 0.0),
            "sweep 0/0 (0%) | 0.0 points/s | ETA 0s"
        );
    }

    #[test]
    fn progress_toggle_round_trips() {
        assert!(!progress_enabled());
        set_progress(true);
        assert!(progress_enabled());
        set_progress(false);
        assert!(!progress_enabled());
    }

    #[test]
    fn live_line_denied_off_terminal() {
        // Test harnesses pipe stderr, so the carriage-return line must be
        // off here — exactly the CI situation the suppression targets.
        assert!(!live_line_allowed());
    }

    /// Run lanes `r` of a reference 23-lane mixed-scheme workload into
    /// `sink`.
    fn run_range<S: Sink>(r: Range<usize>, steps: usize, sink: S) -> S::Output {
        let cfg = IirConfig::paper();
        let c = constant(64.0);
        let e = |n: i64| 6.0 * (std::f64::consts::TAU * n as f64 / 80.0).sin();
        let mut batch = BatchLoop::new();
        let mus: Vec<Box<dyn Fn(i64) -> f64>> = r
            .clone()
            .map(|k| Box::new(step_at(12, k as f64 - 5.0)) as Box<dyn Fn(i64) -> f64>)
            .collect();
        for k in r {
            match k % 3 {
                0 => batch.push(
                    k % 2,
                    Controller::int_iir(&cfg, 64).unwrap(),
                    Quantization::Floor,
                ),
                1 => batch.push(
                    1,
                    Controller::float_iir(&cfg, 64.0).unwrap(),
                    Quantization::None,
                ),
                _ => batch.push(0, Controller::teatime(64, 1.0), Quantization::Floor),
            };
        }
        let inputs: Vec<LoopInputs<'_>> = mus
            .iter()
            .map(|mu| LoopInputs {
                setpoint: &c,
                homogeneous: &e,
                heterogeneous: mu.as_ref(),
            })
            .collect();
        batch.run(&inputs, steps, sink)
    }

    /// Lanes `0..lanes` in `chunk`-wide ranges on the sweep pool, costed
    /// by range width, as the lane-parallel callers dispatch them.
    fn map_lanes<S: Sink>(
        lanes: usize,
        chunk: usize,
        steps: usize,
        sink: fn() -> S,
    ) -> Vec<S::Output>
    where
        S::Output: Send,
    {
        let ranges = lane_ranges(lanes, chunk);
        parallel_map(
            &ranges,
            |r| r.len() as u64,
            |r| run_range(r.clone(), steps, sink()),
            &Telemetry::disabled(),
            &CancelToken::never(),
        )
    }

    #[test]
    fn dispatch_is_bit_identical_for_any_chunking_and_worker_count() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        let (lanes, steps) = (23usize, 250usize);
        let whole = run_range(0..lanes, steps, TraceSink::default());
        for chunk in [1, 4, 7, 23, 64] {
            for workers in [None, Some(1), Some(3)] {
                set_threads(workers);
                let parts = map_lanes(lanes, chunk, steps, TraceSink::default);
                set_threads(None);
                assert_eq!(parts.len(), lanes.div_ceil(chunk));
                assert_eq!(
                    BatchTrace::concat(&parts),
                    whole,
                    "chunk={chunk} workers={workers:?} diverged from the single run"
                );
            }
        }
    }

    #[test]
    fn summary_dispatch_is_bit_identical_for_any_chunking_and_worker_count() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        let (lanes, steps) = (23usize, 250usize);
        let whole = run_range(0..lanes, steps, SummarySink::default());
        let c = constant(64.0);
        let inputs = vec![
            LoopInputs {
                setpoint: &c,
                ..LoopInputs::zero()
            };
            lanes
        ];
        assert_eq!(
            whole,
            run_range(0..lanes, steps, TraceSink::default()).summarize(&inputs)
        );
        for chunk in [1, 4, 7, 23, 64] {
            for workers in [None, Some(1), Some(3)] {
                set_threads(workers);
                let parts = map_lanes(lanes, chunk, steps, SummarySink::default);
                set_threads(None);
                let got: Vec<RunSummary> = parts.into_iter().flatten().collect();
                assert_eq!(
                    got, whole,
                    "chunk={chunk} workers={workers:?} diverged from the single run"
                );
            }
        }
    }

    #[test]
    fn zero_lanes_is_an_empty_trace() {
        assert!(lane_ranges(0, 8).is_empty());
        let parts = map_lanes(0, 8, 10, TraceSink::default);
        assert!(parts.is_empty());
        assert_eq!(BatchTrace::concat(&parts).lanes(), 0);
    }

    #[test]
    fn lane_ranges_cover_every_lane_once_in_order() {
        assert_eq!(lane_ranges(9, 4), [0..4, 4..8, 8..9]);
        assert_eq!(lane_ranges(8, 4), [0..4, 4..8]);
        assert_eq!(lane_ranges(3, 64), [Range { start: 0, end: 3 }]);
    }

    #[test]
    #[should_panic(expected = "chunk width must be positive")]
    fn lane_ranges_reject_a_zero_chunk() {
        let _ = lane_ranges(4, 0);
    }

    #[test]
    fn linear_grid_endpoints() {
        let g = linear_grid(-0.2, 0.2, 9);
        assert!((g[0] + 0.2).abs() < 1e-12);
        assert!((g[8] - 0.2).abs() < 1e-12);
        assert!((g[4]).abs() < 1e-12);
    }
}
