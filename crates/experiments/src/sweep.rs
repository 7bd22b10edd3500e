//! Parallel parameter sweeps over std scoped threads: a cost-modelled
//! longest-job-first scheduler with cache short-circuiting, an optional
//! live progress line on stderr, and a worker-count override.
//!
//! # Scheduling
//!
//! [`parallel_map`] hands items out in small index chunks claimed off a
//! shared atomic cursor — fine when per-item cost is roughly uniform.
//! [`parallel_map_planned`] generalizes it: a *probe* runs first,
//! sequentially, over every item and either short-circuits it with a ready
//! result (a cache hit — no worker is ever occupied by it) or returns a
//! cost hint (the point's simulated-step budget). Pending items are then
//! dispatched **longest-job-first**, so the heavy points start while the
//! cheap ones fill the tail and no worker is left holding a giant job at
//! the end of the sweep. Output order is always the input order, whatever
//! order items complete in, and completions (ready or computed) drive the
//! same progress line.
//!
//! # Panic containment
//!
//! A panic inside one grid point's compute no longer aborts the whole
//! sweep: each item runs under `catch_unwind`, every *other* pending item
//! still completes (and backfills the cache), and only then does the sweep
//! re-panic with a [`SweepPanics`] payload naming every failed item. The
//! `repro serve` job supervisor catches that payload and marks the one job
//! failed while the server keeps serving.
//!
//! # Cooperative cancellation
//!
//! A [`CancelToken`] (threaded through `RunCtx`) makes long sweeps
//! abandonable: `runner::cached_map`, which every cached grid runs
//! through, checks the token before each task's probe and compute, and a
//! fired token unwinds with a [`SweepCancelled`] payload that the sweep
//! propagates immediately (no further items are claimed) and the job
//! supervisor maps to a `cancelled`/`timeout` terminal state.

use std::io::{IsTerminal as _, Write as _};
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
/// [`SweepCancelled`] payload that `parallel_map_planned` propagates
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
/// item, input-ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanics {
    /// `(item index, panic message)` for every item whose probe or
    /// compute panicked.
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

fn is_cancel(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<SweepCancelled>()
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

/// The probe's verdict on one sweep item, before any worker is involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan<R> {
    /// The result is already known (a cache hit): short-circuit it into
    /// the output without occupying a worker.
    Ready(R),
    /// The item must be computed; the payload is a relative cost hint
    /// (typically the point's simulated-step budget) driving
    /// longest-job-first dispatch. The absolute scale is irrelevant.
    Compute(u64),
}

/// Map `f` over `items` in parallel, preserving order, with a probe pass
/// and cost-modelled longest-job-first dispatch (see the module docs).
///
/// When the sweep runs multi-worker and `telemetry` is enabled, the drain
/// tail — wall time between the moment the last pending item is claimed
/// and the moment every result has arrived — is accumulated onto the
/// `sweep.tail_ms` counter. A scheduler that balances well keeps the tail
/// close to one average item; one that strands a heavy job at the end
/// shows it here.
///
/// # Panics
///
/// A panic inside `probe` or `f` is contained per item: every other
/// pending item still runs to completion (so cache backfills survive),
/// and the sweep then re-panics with a [`SweepPanics`] payload listing
/// `(index, message)` for each failed item. A [`SweepCancelled`] payload
/// (a fired [`CancelToken`]) is special: it aborts the dispatch promptly —
/// no further items are claimed — and propagates unchanged.
pub fn parallel_map_planned<T, R, F, P>(
    items: &[T],
    probe: P,
    f: F,
    telemetry: &Telemetry,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    P: FnMut(&T) -> Plan<R>,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let mut probe = probe;
    let mut meter = ProgressMeter::new(n);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // Per-item panics collected across the probe pass and the dispatch.
    let mut errors: Vec<(usize, String)> = Vec::new();
    // Probe pass: ready results land immediately, misses queue with costs.
    let mut pending: Vec<(usize, u64)> = Vec::new();
    {
        let mut probe_scope = telemetry.scope("sweep.probe");
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| probe(item))) {
                Ok(Plan::Ready(r)) => {
                    out[i] = Some(r);
                    if let Some(m) = meter.as_mut() {
                        m.tick();
                    }
                }
                Ok(Plan::Compute(cost)) => pending.push((i, cost)),
                Err(payload) if is_cancel(&*payload) => resume_unwind(payload),
                Err(payload) => errors.push((i, panic_message(&*payload))),
            }
        }
        probe_scope.attr("items", n);
        probe_scope.attr("ready", n - pending.len());
    }
    // Longest job first; the sort is stable, so equal costs keep sweep
    // order and a uniform-cost sweep dispatches exactly like the classic
    // chunked FIFO.
    let order: Vec<usize> = {
        let _schedule_scope = telemetry.scope("sweep.schedule");
        pending.sort_by_key(|&(_, cost)| std::cmp::Reverse(cost));
        pending.iter().map(|&(i, _)| i).collect()
    };
    let p = order.len();
    if p == 0 {
        return finish_sweep(out, errors, None);
    }
    let workers = worker_count(p);
    if workers <= 1 {
        let mut cancel_payload = None;
        for &i in &order {
            match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => out[i] = Some(r),
                Err(payload) if is_cancel(&*payload) => {
                    cancel_payload = Some(payload);
                    break;
                }
                Err(payload) => errors.push((i, panic_message(&*payload))),
            }
            if let Some(m) = meter.as_mut() {
                m.tick();
            }
        }
        return finish_sweep(out, errors, cancel_payload);
    }
    let chunk = dispatch_chunk(p, workers);
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
    // malloc arena). `between` runs after each of the worker's items.
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
                if start >= p {
                    let _ = drained_at_us.compare_exchange(
                        u64::MAX,
                        started.elapsed().as_micros() as u64,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    break;
                }
                let end = (start + chunk).min(p);
                claimed += end - start;
                for &i in &order[start..end] {
                    let result = match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => Ok(r),
                        Err(payload) if is_cancel(&*payload) => {
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
    if telemetry.is_enabled() {
        let drained = drained_at_us.load(Ordering::Relaxed);
        if drained != u64::MAX {
            let total = started.elapsed().as_micros() as u64;
            let tail_ms = total.saturating_sub(drained) / 1000;
            telemetry.counter("sweep.tail_ms").add(tail_ms);
        }
    }
    finish_sweep(
        out,
        errors,
        cancel_slot.into_inner().expect("cancel slot lock"),
    )
}

/// Resolve a contained sweep: propagate a pending cancellation payload
/// first, then aggregated per-item panics, and only collect results when
/// everything actually completed.
fn finish_sweep<R>(
    out: Vec<Option<R>>,
    mut errors: Vec<(usize, String)>,
    cancel_payload: Option<Box<dyn std::any::Any + Send>>,
) -> Vec<R> {
    if let Some(payload) = cancel_payload {
        resume_unwind(payload);
    }
    if !errors.is_empty() {
        errors.sort_by_key(|&(i, _)| i);
        std::panic::panic_any(SweepPanics { items: errors });
    }
    collect_all(out)
}

fn collect_all<R>(out: Vec<Option<R>>) -> Vec<R> {
    out.into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect()
}

/// Map `f` over `items` in parallel, preserving order — the uniform-cost
/// special case of [`parallel_map_planned`] (no cache probe, chunked
/// dispatch in sweep order).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_planned(items, |_| Plan::Compute(1), f, &Telemetry::disabled())
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_map_uneven_work() {
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map(&items, |&x| {
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
        let out = parallel_map(&items, |&x| {
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
        let out = parallel_map_planned(
            &items,
            |&x| Plan::Compute(cost_of(x)),
            |&x| {
                let mut acc = x;
                for _ in 0..cost_of(x) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (x, acc)
            },
            &Telemetry::disabled(),
        );
        assert_eq!(out.len(), n);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64, "index {i} out of order under LJF");
        }
    }

    #[test]
    fn planned_ready_items_never_reach_a_worker() {
        let items: Vec<u64> = (0..100).collect();
        let computed = AtomicUsize::new(0);
        let out = parallel_map_planned(
            &items,
            |&x| {
                if x % 2 == 0 {
                    Plan::Ready(x * 10) // "cache hit"
                } else {
                    Plan::Compute(1)
                }
            },
            |&x| {
                computed.fetch_add(1, Ordering::Relaxed);
                x * 10
            },
            &Telemetry::disabled(),
        );
        assert_eq!(computed.load(Ordering::Relaxed), 50);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 10);
        }
    }

    #[test]
    fn planned_all_ready_completes_without_workers() {
        let items: Vec<u64> = (0..10).collect();
        let out = parallel_map_planned(
            &items,
            |&x| Plan::Ready(x + 1),
            |_| unreachable!("no pending items"),
            &Telemetry::disabled(),
        );
        assert_eq!(out, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn panicking_item_is_contained_and_other_items_complete() {
        let items: Vec<u64> = (0..64).collect();
        let completed = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_planned(
                &items,
                |_| Plan::Compute(1),
                |&x| {
                    if x == 13 || x == 40 {
                        panic!("item {x} exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    x
                },
                &Telemetry::disabled(),
            )
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
    fn probe_panic_is_contained_too() {
        let items: Vec<u64> = (0..8).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_planned(
                &items,
                |&x| {
                    if x == 3 {
                        panic!("bad probe");
                    }
                    Plan::Ready(x)
                },
                |&x| x,
                &Telemetry::disabled(),
            )
        }))
        .expect_err("probe panic must surface");
        let panics = payload
            .downcast_ref::<SweepPanics>()
            .expect("payload must be SweepPanics");
        assert_eq!(panics.items.len(), 1);
        assert_eq!(panics.items[0].0, 3);
    }

    #[test]
    fn fired_cancel_token_propagates_and_stops_claiming() {
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::new(Arc::clone(&flag), None);
        let items: Vec<u64> = (0..256).collect();
        let started = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_planned(
                &items,
                |_| Plan::Compute(1),
                |&x| {
                    let n = started.fetch_add(1, Ordering::Relaxed);
                    if n == 5 {
                        flag.store(true, Ordering::Relaxed);
                    }
                    token.check();
                    x
                },
                &Telemetry::disabled(),
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
        let _ = parallel_map_planned(
            &items,
            |&x| Plan::Compute(x + 1),
            |&x| {
                log.lock().unwrap().push(x);
                x
            },
            &Telemetry::disabled(),
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
        let out = parallel_map(&items, |&x| x + 7);
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
        let ran_on = parallel_map(&items, |&x| {
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

    #[test]
    fn tail_telemetry_recorded_on_parallel_sweeps() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        // Force at least 2 workers so the parallel path runs.
        set_threads(Some(2));
        let telemetry = Telemetry::enabled();
        let items: Vec<u64> = (0..64).collect();
        let _ = parallel_map_planned(
            &items,
            |_| Plan::Compute(1),
            |&x| {
                let mut acc = x;
                for _ in 0..10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            },
            &telemetry,
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

    #[test]
    fn linear_grid_endpoints() {
        let g = linear_grid(-0.2, 0.2, 9);
        assert!((g[0] + 0.2).abs() < 1e-12);
        assert!((g[8] - 0.2).abs() < 1e-12);
        assert!((g[4]).abs() < 1e-12);
    }
}
