//! The experiment service itself: bounded job queue, supervised worker
//! pool, single-flight dedup, journal persistence, graceful drain and the
//! HTTP routes tying them together.
//!
//! # Robustness posture
//!
//! The server assumes arbitrary inputs and arbitrary prior state, in the
//! same spirit the paper's adaptive loop assumes arbitrary variation:
//!
//! * every job runs under `catch_unwind` twice — once inside the executor
//!   (which maps cooperative cancellation), once here as a backstop — so
//!   a panicking experiment marks *that job* `failed` and nothing else;
//! * the queue is bounded; a full queue answers `429` with `Retry-After`
//!   instead of growing without limit;
//! * every state transition is appended to the journal *before* it
//!   becomes visible (write-ahead), so a `kill -9` never yields work the
//!   journal does not know about, and a restart marks in-flight jobs
//!   `interrupted` instead of losing them;
//! * connections carry read timeouts, so a slowloris client costs one
//!   thread for seconds, not forever;
//! * `SIGTERM` (or `POST /shutdown`) drains: queued jobs are cancelled,
//!   running jobs get a grace window, then their cancel flags are raised,
//!   then the process leaves — a hard deadline on top of cooperation.
//!
//! # Waking on events
//!
//! Apart from the 50 ms signal relay, nothing here sleeps a fixed tick,
//! as the paper's clock reacts to each period's reading instead of
//! waiting out a worst-case margin:
//!
//! * the accept loop blocks in `accept`; [`ShutdownHandle::trigger`]
//!   wakes it with one loopback connect;
//! * workers wait on the queue's condvar; event tails and the drain wait
//!   on a second condvar that every job-state transition notifies. A
//!   tail also wakes every 25 ms while its job runs, to forward the
//!   events the executor spools meanwhile;
//! * a connection goes to an idle handler thread when there is one, and
//!   a new handler is spawned only when all are busy. There is no upper
//!   bound: an event stream holds its handler for the whole job;
//! * each transition appends one journal line, whatever the number of
//!   jobs served; the whole record set is written once, by the startup
//!   compaction.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use clock_telemetry::{prometheus_text, Gauge, Histogram, Telemetry};

use crate::http::{self, ChunkedWriter, Request};
use crate::job::{JobExecutor, JobHandle, JobOutcome, JobRecord, JobSpec, JobState};
use crate::journal::Journal;

/// How long a connection may stall between bytes before 408.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest gap between two spool reads of a running job's event tail
/// (state changes wake the tail at once), and the pause after a failed
/// `accept`.
const POLL: Duration = Duration::from_millis(25);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Job worker threads.
    pub workers: usize,
    /// Bounded queue depth; submits beyond it are shed with 429.
    pub queue_capacity: usize,
    /// Journal and per-job event spools live here.
    pub data_dir: PathBuf,
    /// Default per-job deadline when a spec does not set one (0 = none).
    pub default_timeout_ms: u64,
    /// Grace window for the shutdown drain, applied twice: once waiting
    /// for running jobs to finish on their own, once after raising their
    /// cancel flags.
    pub drain_grace_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            data_dir: PathBuf::from(".repro-serve"),
            default_timeout_ms: 0,
            drain_grace_ms: 5_000,
        }
    }
}

/// How the server came down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight job reached a terminal state before the
    /// hard deadline (false means stragglers were abandoned to process
    /// exit and will replay as `interrupted`).
    pub drained: bool,
    /// Jobs cancelled out of the queue by the drain.
    pub cancelled_queued: usize,
}

/// A job that is queued or running.
struct Live {
    cancel: Arc<AtomicBool>,
    /// When the submit was accepted.
    accepted: Instant,
}

/// A job as the server keeps it: the fields of a [`JobRecord`], each
/// string shared with every other job that has the same one. Served jobs
/// repeat a few specs and details, so the history, which grows with every
/// job served, costs a few words per job instead of three heap strings.
struct Job {
    id: u64,
    experiment: Arc<str>,
    quick: bool,
    timeout_ms: u64,
    state: JobState,
    detail: Arc<str>,
    dedupe_key: Arc<str>,
    deduped: bool,
}

impl Job {
    fn spec(&self) -> JobSpec {
        JobSpec {
            experiment: self.experiment.to_string(),
            quick: self.quick,
            timeout_ms: self.timeout_ms,
        }
    }

    fn record(&self) -> JobRecord {
        JobRecord {
            id: self.id,
            spec: self.spec(),
            state: self.state,
            detail: self.detail.to_string(),
            dedupe_key: self.dedupe_key.to_string(),
            deduped: self.deduped,
        }
    }
}

/// Every distinct string of the job history, stored once.
#[derive(Default)]
struct Strings(HashSet<Arc<str>>);

impl Strings {
    fn share(&mut self, s: &str) -> Arc<str> {
        if let Some(known) = self.0.get(s) {
            return Arc::clone(known);
        }
        let new: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&new));
        new
    }

    fn job(&mut self, r: &JobRecord) -> Job {
        Job {
            id: r.id,
            experiment: self.share(&r.spec.experiment),
            quick: r.spec.quick,
            timeout_ms: r.spec.timeout_ms,
            state: r.state,
            detail: self.share(&r.detail),
            dedupe_key: self.share(&r.dedupe_key),
            deduped: r.deduped,
        }
    }
}

struct State {
    /// Every job ever accepted, in id order (ids only grow), so a binary
    /// search finds one without a map's per-node overhead.
    jobs: Vec<Job>,
    strings: Strings,
    queue: VecDeque<u64>,
    next_id: u64,
    /// Every non-terminal job.
    live: HashMap<u64, Live>,
    /// Single-flight index: dedupe key → the non-terminal job holding it.
    in_flight: HashMap<Arc<str>, u64>,
}

impl State {
    fn index(&self, id: u64) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id).ok()
    }

    fn job(&self, id: u64) -> Option<&Job> {
        self.index(id).map(|i| &self.jobs[i])
    }
}

/// Connection handler threads: how many exist, how many wait for a
/// stream, and the streams handed to waiting ones.
#[derive(Default)]
struct Handlers {
    threads: usize,
    idle: usize,
    ready: VecDeque<TcpStream>,
}

/// Handles resolved once at bind, so hot paths skip the registry lookup.
struct Meters {
    queue_wait_ms: Histogram,
    run_ms: Histogram,
    e2e_ms: Histogram,
    handler_threads: Gauge,
    handlers_idle: Gauge,
}

impl Meters {
    fn new(t: &Telemetry) -> Meters {
        let ms = |name| t.histogram(name, 0.0, 10_000.0, 100);
        Meters {
            queue_wait_ms: ms("serve.queue_wait_ms"),
            run_ms: ms("serve.run_ms"),
            e2e_ms: ms("serve.e2e_ms"),
            handler_threads: t.gauge("serve.handler_threads"),
            handlers_idle: t.gauge("serve.handlers_idle"),
        }
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Shared {
    state: Mutex<State>,
    /// Queue pushes and shutdown: wakes workers.
    work: Condvar,
    /// Job-state transitions and shutdown: wakes event tails and the
    /// drain.
    changed: Condvar,
    handlers: Mutex<Handlers>,
    /// A stream was handed over, or shutdown: wakes idle handlers.
    handed: Condvar,
    journal: Journal,
    config: ServerConfig,
    executor: Arc<dyn JobExecutor>,
    telemetry: Telemetry,
    meters: Meters,
    shutdown: AtomicBool,
    /// Where a loopback connect reaches the listener.
    wake_addr: SocketAddr,
}

impl Shared {
    fn spool_path(&self, id: u64) -> PathBuf {
        self.config.data_dir.join(format!("job-{id}.events.jsonl"))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("state lock")
    }

    /// Append a job's record to the journal. Called under the state lock
    /// after the record changed, so the line is written before any other
    /// thread can see the change (write-ahead). Failures degrade (warn +
    /// keep serving) rather than kill the server: the journal is a
    /// recovery aid, not a correctness dependency for live traffic.
    fn journal(&self, job: &JobRecord) {
        if let Err(e) = self.journal.append(job) {
            self.telemetry.counter("serve.journal_errors").inc();
            eprintln!(
                "serve: warning: cannot append to job journal {}: {e}",
                self.journal.path().display()
            );
        }
    }

    /// Move a live job to a terminal state under the state lock: journal
    /// it, retire its cancel flag and single-flight entry, record its
    /// end-to-end latency and wake the waiters.
    fn retire(&self, st: &mut State, id: u64, state: JobState, detail: String) {
        let Some(live) = st.live.remove(&id) else {
            return;
        };
        if let Some(i) = st.index(id) {
            let detail = st.strings.share(&detail);
            let job = &mut st.jobs[i];
            job.state = state;
            job.detail = detail;
            self.journal(&job.record());
            if st.in_flight.get(&job.dedupe_key) == Some(&id) {
                st.in_flight.remove(&job.dedupe_key);
            }
        }
        self.meters.e2e_ms.record(millis(live.accepted.elapsed()));
        self.changed.notify_all();
    }

    fn finish_job(&self, id: u64, state: JobState, detail: String) {
        self.retire(&mut self.lock(), id, state, detail);
        let counter = match state {
            JobState::Completed => "serve.jobs_completed",
            JobState::Failed => "serve.jobs_failed",
            JobState::TimedOut => "serve.jobs_timed_out",
            _ => "serve.jobs_cancelled",
        };
        self.telemetry.counter(counter).inc();
    }

    /// Raise the shutdown flag and wake everything that waits: workers,
    /// tails, the drain, idle handlers and the blocking `accept`.
    fn trigger(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Taking each lock first means no waiter sits between its flag
        // check and its wait, so none misses the notification.
        drop(self.lock());
        self.work.notify_all();
        self.changed.notify_all();
        drop(self.handlers.lock().expect("handler lock"));
        self.handed.notify_all();
        let _ = TcpStream::connect_timeout(&self.wake_addr, READ_TIMEOUT);
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Starts the graceful drain of [`Server::run`] from any thread: the
/// signal relay, a route, a test.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Raise the shutdown flag, notify every condvar and wake the
    /// blocking `accept` with one loopback connect. Idempotent.
    pub fn trigger(&self) {
        self.shared.trigger();
    }
}

/// The bound, journal-replayed, worker-staffed service. [`Server::run`]
/// blocks on the accept loop until shutdown, then drains.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    workers: Vec<std::thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Bind the listener, replay the journal (marking in-flight jobs of a
    /// previous life `interrupted`), compact it, and start the worker
    /// pool.
    pub fn bind(
        config: ServerConfig,
        executor: Arc<dyn JobExecutor>,
        telemetry: Telemetry,
    ) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.data_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let journal = Journal::new(config.data_dir.join("journal.json"));
        let recovered = journal.load();
        if recovered.interrupted > 0 {
            eprintln!(
                "serve: journal replay marked {} in-flight job(s) interrupted",
                recovered.interrupted
            );
            telemetry
                .counter("serve.jobs_interrupted")
                .add(recovered.interrupted as u64);
        }
        // Compact the log into one snapshot, which also makes the
        // interrupted marks durable before serving.
        if let Err(e) = journal.persist(recovered.next_id, &recovered.jobs) {
            telemetry.counter("serve.journal_errors").inc();
            eprintln!(
                "serve: warning: cannot compact job journal {}: {e}",
                journal.path().display()
            );
        }
        let mut strings = Strings::default();
        let state = State {
            jobs: recovered.jobs.iter().map(|r| strings.job(r)).collect(),
            strings,
            queue: VecDeque::new(),
            next_id: recovered.next_id,
            live: HashMap::new(),
            in_flight: HashMap::new(),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            changed: Condvar::new(),
            handlers: Mutex::new(Handlers::default()),
            handed: Condvar::new(),
            journal,
            config,
            executor,
            meters: Meters::new(&telemetry),
            telemetry,
            shutdown: AtomicBool::new(false),
            wake_addr: loopback(local_addr),
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            listener,
            workers,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The drain trigger: call [`ShutdownHandle::trigger`] (from the
    /// signal relay, a test, anywhere) and [`Server::run`] starts its
    /// graceful drain.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown is triggered, then drain and return.
    pub fn run(self) -> DrainReport {
        for conn in self.listener.incoming() {
            if self.shared.is_shutting_down() {
                break; // most likely the trigger's wake-up connect
            }
            match conn {
                Ok(stream) => dispatch(&self.shared, stream),
                // Out of descriptors or the like: let a handler finish
                // (or the trigger fire) before trying again.
                Err(_) => {
                    let st = self.shared.lock();
                    let _ = self.shared.changed.wait_timeout(st, POLL);
                }
            }
        }
        drop(self.listener);
        let report = drain(&self.shared);
        if report.drained {
            for w in self.workers {
                let _ = w.join();
            }
        }
        // Undrained workers are abandoned to process exit — the hard
        // deadline. Their jobs replay as interrupted next start.
        report
    }
}

/// The address a local connect reaches `bound` at: itself, or loopback
/// when bound to the unspecified address.
fn loopback(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Hand `stream` to an idle handler, or spawn a new handler when all are
/// busy.
fn dispatch(shared: &Arc<Shared>, stream: TcpStream) {
    let mut pool = shared.handlers.lock().expect("handler lock");
    if pool.idle > 0 {
        pool.idle -= 1;
        pool.ready.push_back(stream);
        shared.meters.handlers_idle.set(pool.idle as f64);
        drop(pool);
        shared.handed.notify_one();
        return;
    }
    pool.threads += 1;
    shared.meters.handler_threads.set(pool.threads as f64);
    drop(pool);
    let worker = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("serve-conn".to_owned())
        .spawn(move || handler_loop(&worker, stream));
    if spawned.is_err() {
        // No thread to be had: the stream was dropped with the closure,
        // so the client sees a closed connection, not a hang.
        let mut pool = shared.handlers.lock().expect("handler lock");
        pool.threads -= 1;
        shared.meters.handler_threads.set(pool.threads as f64);
    }
}

/// One handler thread: serve a connection, then wait for the next one
/// until shutdown.
fn handler_loop(shared: &Shared, mut stream: TcpStream) {
    loop {
        handle_connection(shared, &mut stream);
        let mut pool = shared.handlers.lock().expect("handler lock");
        pool.idle += 1;
        shared.meters.handlers_idle.set(pool.idle as f64);
        drop(pool);
        // Close only once idle, so the client's next connection finds
        // this handler waiting.
        drop(stream);
        let mut pool = shared.handlers.lock().expect("handler lock");
        stream = loop {
            // A handed-over stream was counted out of `idle` already.
            if let Some(next) = pool.ready.pop_front() {
                break next;
            }
            if shared.is_shutting_down() {
                pool.idle -= 1;
                pool.threads -= 1;
                shared.meters.handlers_idle.set(pool.idle as f64);
                shared.meters.handler_threads.set(pool.threads as f64);
                return;
            }
            pool = shared.handed.wait(pool).expect("handler lock");
        };
    }
}

/// Cancel every queued job, give running jobs a grace window, raise their
/// cancel flags, give them one more window, then give up.
fn drain(shared: &Shared) -> DrainReport {
    let cancelled_queued = {
        let mut st = shared.lock();
        let ids: Vec<u64> = st.queue.drain(..).collect();
        for &id in &ids {
            shared.retire(
                &mut st,
                id,
                JobState::Cancelled,
                "server shutting down".to_owned(),
            );
        }
        ids.len()
    };
    shared
        .telemetry
        .counter("serve.jobs_cancelled")
        .add(cancelled_queued as u64);
    let grace = Duration::from_millis(shared.config.drain_grace_ms);
    let mut drained = wait_idle(shared, Instant::now() + grace);
    if !drained {
        // Grace expired: cancel what is left and wait once more.
        for live in shared.lock().live.values() {
            live.cancel.store(true, Ordering::SeqCst);
        }
        drained = wait_idle(shared, Instant::now() + grace);
    }
    DrainReport {
        drained,
        cancelled_queued,
    }
}

/// Wait until no job is in flight or `until` passes; true when none is.
fn wait_idle(shared: &Shared, until: Instant) -> bool {
    let mut st = shared.lock();
    while !st.live.is_empty() {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        st = shared.changed.wait_timeout(st, left).expect("state lock").0;
    }
    true
}

/// One worker: claim queued jobs, run them supervised, record outcomes.
fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut st = shared.lock();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let i = st.index(id);
                    let State { jobs, live, .. } = &mut *st;
                    if let (Some(i), Some(live)) = (i, live.get(&id)) {
                        let job = &mut jobs[i];
                        job.state = JobState::Running;
                        shared.journal(&job.record());
                        shared
                            .meters
                            .queue_wait_ms
                            .record(millis(live.accepted.elapsed()));
                        let claim = (id, job.spec(), Arc::clone(&live.cancel));
                        shared.changed.notify_all();
                        break Some(claim);
                    }
                    continue; // cancelled while queued; nothing to run
                }
                if shared.is_shutting_down() {
                    break None;
                }
                st = shared.work.wait(st).expect("state lock");
            }
        };
        let Some((id, spec, flag)) = claimed else {
            return;
        };
        let timeout_ms = if spec.timeout_ms > 0 {
            spec.timeout_ms
        } else {
            shared.config.default_timeout_ms
        };
        let started = Instant::now();
        let deadline = (timeout_ms > 0).then(|| started + Duration::from_millis(timeout_ms));
        let handle = JobHandle::new(id, flag, deadline, shared.spool_path(id));
        // Supervision backstop: the executor already contains its own
        // panics, but even a broken executor must only fail this job.
        let outcome = catch_unwind(AssertUnwindSafe(|| shared.executor.run(&spec, &handle)))
            .unwrap_or_else(|payload| JobOutcome::Failed {
                error: payload_message(&*payload),
            });
        shared.meters.run_ms.record(millis(started.elapsed()));
        let (state, detail) = match outcome {
            JobOutcome::Completed { detail } => (JobState::Completed, detail),
            JobOutcome::Failed { error } => (JobState::Failed, error),
            JobOutcome::Cancelled => (JobState::Cancelled, "cancelled by request".to_owned()),
            JobOutcome::TimedOut => (
                JobState::TimedOut,
                format!("deadline of {timeout_ms} ms exceeded"),
            ),
        };
        shared.finish_job(id, state, detail);
    }
}

/// A string as a JSON string literal (quotes + escapes).
fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Best-effort panic payload rendering (local copy — the serve crate is
/// experiments-agnostic, so it cannot use the sweep module's helper).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    shared.telemetry.counter("serve.requests").inc();
    match http::parse_request(&mut reader) {
        Ok(request) => route(shared, &request, stream),
        Err(e) => {
            shared.telemetry.counter("serve.malformed").inc();
            if let Some((status, reason, detail)) = e.status() {
                let body = format!("{{\"error\":{}}}\n", json_str(detail));
                let _ = http::write_json(stream, status, reason, &[], &body);
            }
        }
    }
}

/// Split a target into non-empty path segments (query string dropped).
fn segments(target: &str) -> Vec<&str> {
    let path = target.split('?').next().unwrap_or("");
    path.split('/').filter(|s| !s.is_empty()).collect()
}

fn route(shared: &Shared, request: &Request, w: &mut TcpStream) {
    let segs = segments(&request.target);
    match (request.method.as_str(), segs.as_slice()) {
        ("GET", ["health"]) => {
            let _ = http::write_json(w, 200, "OK", &[], "{\"status\":\"ok\"}\n");
        }
        ("GET", ["metrics"]) => {
            let text = prometheus_text(&shared.telemetry.snapshot());
            let _ = http::write_response(
                w,
                200,
                "OK",
                &[],
                "text/plain; version=0.0.4",
                text.as_bytes(),
            );
        }
        ("POST", ["submit"]) => submit(shared, request, w),
        ("GET", ["jobs"]) => {
            let jobs: Vec<JobRecord> = shared.lock().jobs.iter().map(Job::record).collect();
            let body = serde_json::to_string(&jobs).expect("plain data serializes");
            let _ = http::write_json(w, 200, "OK", &[], &body);
        }
        ("GET", ["jobs", id]) => match lookup(shared, id) {
            Some(job) => {
                let body = serde_json::to_string(&job).expect("plain data serializes");
                let _ = http::write_json(w, 200, "OK", &[], &body);
            }
            None => not_found(w),
        },
        ("POST", ["jobs", id, "cancel"]) => cancel(shared, id, w),
        ("GET", ["jobs", id, "events"]) => stream_events(shared, id, w),
        ("POST", ["shutdown"]) => {
            // Answer first: the drain may end the process at once.
            let _ = http::write_json(w, 200, "OK", &[], "{\"draining\":true}\n");
            shared.trigger();
        }
        _ => not_found(w),
    }
}

fn not_found(w: &mut TcpStream) {
    let _ = http::write_json(w, 404, "Not Found", &[], "{\"error\":\"no such route\"}\n");
}

fn lookup(shared: &Shared, id: &str) -> Option<JobRecord> {
    let id: u64 = id.parse().ok()?;
    shared.lock().job(id).map(Job::record)
}

fn submit_response(id: u64, state: JobState, deduped: bool) -> String {
    format!(
        "{{\"job\":{id},\"state\":\"{}\",\"deduped\":{deduped},\"events\":\"/jobs/{id}/events\"}}\n",
        state.label(),
    )
}

fn submit(shared: &Shared, request: &Request, w: &mut TcpStream) {
    let body = String::from_utf8_lossy(&request.body);
    let spec = match JobSpec::from_submit_json(&body) {
        Ok(s) => s,
        Err(e) => {
            shared.telemetry.counter("serve.malformed").inc();
            let body = format!("{{\"error\":{}}}\n", json_str(&e));
            let _ = http::write_json(w, 400, "Bad Request", &[], &body);
            return;
        }
    };
    if let Err(e) = shared.executor.validate(&spec) {
        let body = format!("{{\"error\":{}}}\n", json_str(&e));
        let _ = http::write_json(w, 400, "Bad Request", &[], &body);
        return;
    }
    let dedupe_key = shared.executor.dedupe_key(&spec);
    let mut st = shared.lock();
    // Checked under the lock, so no submit slips in behind the drain.
    if shared.is_shutting_down() {
        drop(st);
        let _ = http::write_json(
            w,
            503,
            "Service Unavailable",
            &[],
            "{\"error\":\"server is draining\"}\n",
        );
        return;
    }
    // Single-flight: an identical spec already queued or running answers
    // with that job instead of doing the work twice.
    if let Some(&existing) = st.in_flight.get(dedupe_key.as_str()) {
        if let Some(i) = st.index(existing) {
            let job = &mut st.jobs[i];
            job.deduped = true;
            let body = submit_response(job.id, job.state, true);
            drop(st);
            shared.telemetry.counter("serve.deduped").inc();
            let _ = http::write_json(w, 200, "OK", &[], &body);
            return;
        }
    }
    if st.queue.len() >= shared.config.queue_capacity {
        drop(st);
        shared.telemetry.counter("serve.shed").inc();
        let _ = http::write_json(
            w,
            429,
            "Too Many Requests",
            &["Retry-After: 1"],
            "{\"error\":\"job queue full, retry later\"}\n",
        );
        return;
    }
    let id = st.next_id;
    st.next_id += 1;
    let job = JobRecord {
        id,
        spec,
        state: JobState::Queued,
        detail: String::new(),
        dedupe_key,
        deduped: false,
    };
    let body = submit_response(id, JobState::Queued, false);
    // Write-ahead: journal the queued job before any worker can see it.
    shared.journal(&job);
    let job = st.strings.job(&job);
    st.in_flight.insert(Arc::clone(&job.dedupe_key), id);
    st.jobs.push(job);
    st.live.insert(
        id,
        Live {
            cancel: Arc::new(AtomicBool::new(false)),
            accepted: Instant::now(),
        },
    );
    st.queue.push_back(id);
    drop(st);
    shared.telemetry.counter("serve.submitted").inc();
    shared.work.notify_one();
    let _ = http::write_json(w, 202, "Accepted", &[], &body);
}

fn cancel(shared: &Shared, id: &str, w: &mut TcpStream) {
    let Ok(id) = id.parse::<u64>() else {
        not_found(w);
        return;
    };
    let mut st = shared.lock();
    let Some(state) = st.job(id).map(|j| j.state) else {
        drop(st);
        not_found(w);
        return;
    };
    match state {
        JobState::Queued => {
            st.queue.retain(|&q| q != id);
            shared.retire(
                &mut st,
                id,
                JobState::Cancelled,
                "cancelled before start".to_owned(),
            );
            drop(st);
            shared.telemetry.counter("serve.jobs_cancelled").inc();
            let _ = http::write_json(w, 200, "OK", &[], "{\"state\":\"cancelled\"}\n");
        }
        JobState::Running => {
            if let Some(live) = st.live.get(&id) {
                live.cancel.store(true, Ordering::SeqCst);
            }
            drop(st);
            let _ = http::write_json(
                w,
                200,
                "OK",
                &[],
                "{\"state\":\"running\",\"cancel_requested\":true}\n",
            );
        }
        terminal => {
            drop(st);
            let body = format!("{{\"state\":\"{}\"}}\n", terminal.label());
            let _ = http::write_json(w, 200, "OK", &[], &body);
        }
    }
}

/// Tail a job's JSONL event spool over a chunked response until the job
/// reaches a terminal state, then append one final status line. A client
/// that disconnects mid-stream just ends the tail (write errors are the
/// signal); the job itself is unaffected.
fn stream_events(shared: &Shared, id: &str, w: &mut TcpStream) {
    let Ok(id) = id.parse::<u64>() else {
        not_found(w);
        return;
    };
    if lookup_state(shared, id).is_none() {
        not_found(w);
        return;
    }
    let Ok(mut chunked) = ChunkedWriter::start(&mut *w, "application/jsonl") else {
        return;
    };
    let path = shared.spool_path(id);
    let mut offset = 0u64;
    while let Some(state) = lookup_state(shared, id) {
        // The state is read before the spool: a terminal job has written
        // its last event, so an empty read then means the tail is done.
        let chunk = read_from(&path, offset);
        if !chunk.is_empty() {
            offset += chunk.len() as u64;
            if chunked.write_chunk(&chunk).is_err() {
                return; // client went away; nothing more to do
            }
        } else if state.is_terminal() {
            let line = format!("{{\"job\":{id},\"state\":\"{}\"}}\n", state.label());
            let _ = chunked.write_chunk(line.as_bytes());
            break;
        } else {
            wait_for_change(shared, id, state);
        }
    }
    let _ = chunked.finish();
}

/// Block until job `id` leaves `seen`, or for at most [`POLL`] so events
/// the executor spools meanwhile are forwarded.
fn wait_for_change(shared: &Shared, id: u64, seen: JobState) {
    let st = shared.lock();
    // Re-checked under the lock: a transition between the caller's read
    // and this wait would otherwise go unseen until the timeout.
    if st.job(id).map(|j| j.state) == Some(seen) {
        let _ = shared.changed.wait_timeout(st, POLL);
    }
}

fn lookup_state(shared: &Shared, id: u64) -> Option<JobState> {
    shared.lock().job(id).map(|j| j.state)
}

/// Read everything after `offset` (empty on any error — a not-yet-created
/// spool reads as empty, not as a failure).
fn read_from(path: &std::path::Path, offset: u64) -> Vec<u8> {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut f) = std::fs::File::open(path) else {
        return Vec::new();
    };
    if f.seek(SeekFrom::Start(offset)).is_err() {
        return Vec::new();
    }
    let mut buf = Vec::new();
    let _ = f.take(256 * 1024).read_to_end(&mut buf);
    buf
}

/// SIGTERM/SIGINT wiring: a C signal handler raises one relay atomic, and
/// a watcher thread polls it every 50 ms and calls
/// [`ShutdownHandle::trigger`] (the handler itself may only touch an
/// atomic). Unix only; a no-op elsewhere (tests use `/shutdown`).
#[cfg(unix)]
pub fn install_termination_handler(shutdown: ShutdownHandle) {
    use std::sync::OnceLock;
    static RELAY: AtomicBool = AtomicBool::new(false);
    static WATCHER: OnceLock<()> = OnceLock::new();

    extern "C" fn on_signal(_sig: i32) {
        // Only the store below is allowed here: atomics are
        // async-signal-safe, Mutex/alloc are not.
        RELAY.store(true, Ordering::SeqCst);
    }

    #[allow(unsafe_code)]
    fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: libc `signal` with a handler that only touches a static
        // atomic; both signal numbers are the POSIX constants for the
        // platforms this builds on (linux, macOS).
        unsafe {
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        }
    }

    install();
    WATCHER.get_or_init(|| {
        std::thread::spawn(move || loop {
            if RELAY.load(Ordering::SeqCst) {
                shutdown.trigger();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    });
}

/// Non-unix stub: signals are not wired; `/shutdown` still works.
#[cfg(not(unix))]
pub fn install_termination_handler(_shutdown: ShutdownHandle) {}
