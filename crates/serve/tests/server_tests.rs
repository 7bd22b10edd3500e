//! In-process integration tests for the experiment service: a real
//! listener on a loopback port, a toy [`JobExecutor`] whose behaviour is
//! scripted per experiment name, and the bundled HTTP client.
//!
//! The toy executor understands five job names:
//! - `ok` — completes immediately,
//! - `boom` — panics (supervision must contain it),
//! - `slow` — sleeps in 10 ms slices until cancelled/deadlined,
//! - `gated` — spools one event line every 10 ms until the server's
//!   [`Gate`] opens, then completes,
//! - anything else — fails validation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use clock_serve::{
    client, DrainReport, JobExecutor, JobHandle, JobOutcome, JobRecord, JobSpec, JobState, Journal,
    Server, ServerConfig, ShutdownHandle,
};
use clock_telemetry::Telemetry;

/// A barrier the `gated` toy job waits on.
#[derive(Clone, Default)]
struct Gate {
    open: Arc<Mutex<bool>>,
    opened: Arc<Condvar>,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.opened.notify_all();
    }

    /// Wait up to `timeout` for the gate; true once it is open.
    fn wait(&self, timeout: Duration) -> bool {
        let open = self.open.lock().expect("gate lock");
        let (open, _) = self
            .opened
            .wait_timeout_while(open, timeout, |open| !*open)
            .expect("gate lock");
        *open
    }
}

#[derive(Default)]
struct ToyExecutor {
    gate: Gate,
}

impl JobExecutor for ToyExecutor {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        match spec.experiment.as_str() {
            "ok" | "boom" | "slow" | "gated" => Ok(()),
            other => Err(format!("unknown toy job '{other}'")),
        }
    }

    fn dedupe_key(&self, spec: &JobSpec) -> String {
        format!("toy:{}:{}", spec.experiment, spec.quick)
    }

    fn run(&self, spec: &JobSpec, handle: &JobHandle) -> JobOutcome {
        match spec.experiment.as_str() {
            "ok" => JobOutcome::Completed {
                detail: "toy ok".to_owned(),
            },
            "boom" => panic!("toy boom"),
            "slow" => {
                let started = Instant::now();
                while started.elapsed() < Duration::from_secs(20) {
                    if handle.is_cancelled() {
                        return JobOutcome::Cancelled;
                    }
                    if handle.deadline().is_some_and(|d| Instant::now() >= d) {
                        return JobOutcome::TimedOut;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                JobOutcome::Completed {
                    detail: "toy slow ran to completion".to_owned(),
                }
            }
            "gated" => {
                let mut spool = std::fs::File::create(&handle.events_path).expect("spool");
                let started = Instant::now();
                while started.elapsed() < Duration::from_secs(20) {
                    if handle.is_cancelled() {
                        return JobOutcome::Cancelled;
                    }
                    let _ = spool.write_all(b"{\"toy\":\"waiting\"}\n");
                    if self.gate.wait(Duration::from_millis(10)) {
                        return JobOutcome::Completed {
                            detail: "toy gate opened".to_owned(),
                        };
                    }
                }
                JobOutcome::Failed {
                    error: "toy gate never opened".to_owned(),
                }
            }
            other => unreachable!("validate admits only toy jobs, got {other}"),
        }
    }
}

struct TestServer {
    addr: String,
    shutdown: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<DrainReport>>,
    gate: Gate,
    dir: PathBuf,
    keep_dir: bool,
}

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve-test-{tag}-{}", std::process::id()))
}

impl TestServer {
    fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
        let dir = test_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        TestServer::start_in(dir, tweak)
    }

    /// Start over whatever `dir` already holds.
    fn start_in(dir: PathBuf, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
        let mut config = ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        };
        tweak(&mut config);
        let executor = ToyExecutor::default();
        let gate = executor.gate.clone();
        let server = Server::bind(config, Arc::new(executor), Telemetry::enabled())
            .expect("bind test server");
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            shutdown,
            thread: Some(thread),
            gate,
            dir,
            keep_dir: false,
        }
    }

    fn stop(&mut self) -> DrainReport {
        self.shutdown.trigger();
        self.thread
            .take()
            .expect("server still running")
            .join()
            .expect("server thread joins")
    }

    fn get(&self, path: &str) -> String {
        let resp = client::request(&self.addr, "GET", path, None).expect("GET request");
        assert_eq!(resp.status, 200, "GET {path}: {}", resp.body);
        resp.body
    }

    /// One `name value` sample of GET /metrics (`name` as exposed).
    fn metric(&self, name: &str) -> f64 {
        let text = self.get("/metrics");
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no sample '{name}' in:\n{text}"))
            .parse()
            .expect("numeric sample")
    }

    /// POST /submit and hand back (status, body).
    fn submit(&self, body: &str) -> (u16, String) {
        let resp =
            client::request(&self.addr, "POST", "/submit", Some(body)).expect("submit request");
        (resp.status, resp.body)
    }

    fn job_state(&self, id: u64) -> String {
        let resp = client::request(&self.addr, "GET", &format!("/jobs/{id}"), None)
            .expect("job status request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        field_str(&resp.body, "state")
    }

    fn wait_for_state(&self, id: u64, want: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = self.job_state(id);
            if got == want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} stuck in '{got}', wanted '{want}'"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop();
        }
        if !self.keep_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Pull a `"key":"value"` or `"key":value` scalar out of a flat JSON body
/// (enough for the fixed shapes these tests assert on).
fn field_str(json: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let rest = json.split(&pat).nth(1).unwrap_or_else(|| {
        panic!("no key '{key}' in {json}");
    });
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().unwrap_or_default().to_owned()
    } else {
        rest.split(&[',', '}', ']'][..])
            .next()
            .unwrap_or_default()
            .trim()
            .to_owned()
    }
}

fn job_id(body: &str) -> u64 {
    field_str(body, "job").parse().expect("job id")
}

#[test]
fn submit_runs_to_completed_and_health_always_answers() {
    let server = TestServer::start("ok", |_| {});
    let health = client::request(&server.addr, "GET", "/health", None).expect("health");
    assert_eq!(health.status, 200);
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "completed");
}

#[test]
fn panicking_job_is_contained_and_server_keeps_serving() {
    let server = TestServer::start("boom", |_| {});
    let (status, body) = server.submit(r#"{"experiment":"boom"}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    server.wait_for_state(id, "failed");
    let resp = client::request(&server.addr, "GET", &format!("/jobs/{id}"), None).expect("status");
    assert!(resp.body.contains("toy boom"), "{}", resp.body);
    // The worker survived the panic: a follow-up job still runs.
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "completed");
}

#[test]
fn duplicate_submit_is_single_flighted() {
    let server = TestServer::start("dedup", |_| {});
    let (s1, b1) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s1, 202, "{b1}");
    let (s2, b2) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s2, 200, "dedup answers 200, got {s2}: {b2}");
    assert_eq!(job_id(&b1), job_id(&b2), "same in-flight job");
    assert_eq!(field_str(&b2, "deduped"), "true", "{b2}");
    // Different work is NOT deduped against it.
    let (s3, b3) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    assert_eq!(s3, 202, "{b3}");
    assert_ne!(job_id(&b1), job_id(&b3));
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let server = TestServer::start("shed", |c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let (s1, b1) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s1, 202, "{b1}");
    // Occupy the single queue slot with distinct work (quick differs).
    let (s2, b2) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    assert_eq!(s2, 202, "{b2}");
    // Third distinct submission finds the queue full.
    let resp = client::request(
        &server.addr,
        "POST",
        "/submit",
        Some(r#"{"experiment":"ok"}"#),
    )
    .expect("shed submit");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(
        resp.header("retry-after").is_some(),
        "429 must carry Retry-After"
    );
}

#[test]
fn cancel_running_and_queued_jobs() {
    let server = TestServer::start("cancel", |c| {
        c.workers = 1;
        c.queue_capacity = 8;
    });
    let (_, running) = server.submit(r#"{"experiment":"slow"}"#);
    let running_id = job_id(&running);
    server.wait_for_state(running_id, "running");
    let (_, queued) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    let queued_id = job_id(&queued);
    // Queued job cancels instantly, without ever running.
    let resp = client::request(
        &server.addr,
        "POST",
        &format!("/jobs/{queued_id}/cancel"),
        None,
    )
    .expect("cancel queued");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(server.job_state(queued_id), "cancelled");
    // Running job gets the flag and unwinds cooperatively.
    let started = Instant::now();
    let resp = client::request(
        &server.addr,
        "POST",
        &format!("/jobs/{running_id}/cancel"),
        None,
    )
    .expect("cancel running");
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.wait_for_state(running_id, "cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cooperative cancel must not wait out the 20 s job"
    );
}

#[test]
fn deadline_times_job_out() {
    let server = TestServer::start("deadline", |c| {
        c.default_timeout_ms = 150;
    });
    let (status, body) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "timed-out");
}

#[test]
fn per_job_timeout_overrides_default() {
    let server = TestServer::start("timeout-override", |c| {
        c.default_timeout_ms = 600_000;
    });
    let (status, body) = server.submit(r#"{"experiment":"slow","timeout_ms":150}"#);
    assert_eq!(status, 202, "{body}");
    server.wait_for_state(job_id(&body), "timed-out");
}

#[test]
fn malformed_and_unknown_submissions_are_4xx() {
    let server = TestServer::start("malformed", |_| {});
    let (status, _) = server.submit("this is not json");
    assert_eq!(status, 400);
    let (status, body) = server.submit(r#"{"experiment":"no-such-toy"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("no-such-toy"), "{body}");
    let resp = client::request(&server.addr, "GET", "/no/such/route", None).expect("404 route");
    assert_eq!(resp.status, 404);
}

#[test]
fn event_stream_ends_with_terminal_state_line() {
    let server = TestServer::start("events", |_| {});
    let (status, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    // The stream blocks until the job is terminal, then closes.
    let resp = client::request(&server.addr, "GET", &format!("/jobs/{id}/events"), None)
        .expect("event stream");
    assert_eq!(resp.status, 200);
    let last = resp.body.lines().last().expect("stream has a final line");
    assert_eq!(field_str(last, "state"), "completed", "{last}");
}

#[test]
fn drain_cancels_queued_and_finishes_running() {
    let mut server = TestServer::start("drain", |c| {
        c.workers = 1;
        c.queue_capacity = 8;
        c.drain_grace_ms = 3_000;
    });
    let (_, running) = server.submit(r#"{"experiment":"slow"}"#);
    let running_id = job_id(&running);
    server.wait_for_state(running_id, "running");
    let (_, queued) = server.submit(r#"{"experiment":"slow","quick":true}"#);
    let queued_id = job_id(&queued);
    let report = server.stop();
    assert!(report.drained, "cooperative jobs drain inside the grace");
    assert_eq!(report.cancelled_queued, 1, "the queued job was shed");
    // The journal replays both jobs in terminal states, nothing in flight.
    let replay = Journal::new(server.dir.join("journal.json")).load();
    assert_eq!(replay.interrupted, 0, "{:?}", replay.jobs);
    for id in [running_id, queued_id] {
        let job = replay.jobs.iter().find(|j| j.id == id);
        let job = job.unwrap_or_else(|| panic!("job {id} missing from journal"));
        assert!(job.state.is_terminal(), "job {id} left {:?}", job.state);
    }
    assert!(replay.jobs.iter().all(|j| j.state.is_terminal()));
}

#[test]
fn restart_replays_journal_without_duplicating_completed_work() {
    let dir;
    let completed_id;
    {
        let mut server = TestServer::start("replay", |_| {});
        dir = server.dir.clone();
        let (_, body) = server.submit(r#"{"experiment":"ok"}"#);
        completed_id = job_id(&body);
        server.wait_for_state(completed_id, "completed");
        let report = server.stop();
        assert!(report.drained);
        // Keep the data dir for the second life.
        server.keep_dir = true;
    }
    let server2 = TestServer::start_in(dir, |_| {});
    let body = server2.get(&format!("/jobs/{completed_id}"));
    assert_eq!(field_str(&body, "state"), "completed");
    // New ids never collide with replayed history.
    let (status, body) = server2.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(status, 202, "{body}");
    assert!(job_id(&body) > completed_id);
}

#[test]
fn corrupt_journal_is_set_aside_and_server_starts_fresh() {
    let dir = test_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("journal.json"), b"{\"version\":1,\"jobs\":[tru").expect("corrupt");
    let server = TestServer::start_in(dir, |_| {});
    assert_eq!(
        server.get("/jobs").trim(),
        "[]",
        "fresh start after corruption"
    );
    assert!(
        server.dir.join("journal.corrupt").exists(),
        "corrupt journal preserved for forensics"
    );
}

#[test]
fn backoff_delay_grows_and_caps() {
    let base = Duration::from_millis(100);
    let early = client::backoff_delay(base, 0);
    assert!(early >= Duration::from_millis(50) && early <= base);
    let late = client::backoff_delay(base, 20);
    assert!(late <= Duration::from_secs(5), "cap holds: {late:?}");
    assert!(
        late >= Duration::from_millis(2_500),
        "jitter floor: {late:?}"
    );
}

/// Bind a server over a fresh `tag` dir and run it on a thread that
/// reports its drain through a channel, so a test can bound the join.
fn spawn_run(tag: &str) -> (ShutdownHandle, mpsc::Receiver<DrainReport>, PathBuf) {
    let dir = test_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        data_dir: dir.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind(
        config,
        Arc::new(ToyExecutor::default()),
        Telemetry::enabled(),
    )
    .expect("bind");
    let handle = server.shutdown_handle();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    (handle, rx, dir)
}

#[test]
fn trigger_ends_an_idle_run() {
    let (handle, done, dir) = spawn_run("trigger");
    handle.trigger();
    let report = done
        .recv_timeout(Duration::from_secs(5))
        .expect("run returns within 5 s of trigger()");
    assert!(report.drained);
    assert_eq!(report.cancelled_queued, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_relay_reaches_trigger() {
    let (handle, done, dir) = spawn_run("sigterm");
    clock_serve::install_termination_handler(handle);
    // The handler is installed: SIGTERM now raises the relay instead of
    // ending this test process.
    let sent = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success());
    let report = done
        .recv_timeout(Duration::from_secs(5))
        .expect("SIGTERM drains the server within 5 s");
    assert!(report.drained);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_tail_returns_the_terminal_line_once_the_gate_opens() {
    let server = TestServer::start("gated-tail", |_| {});
    let (status, body) = server.submit(r#"{"experiment":"gated"}"#);
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);
    let (tx, rx) = mpsc::channel();
    let addr = server.addr.clone();
    std::thread::spawn(move || {
        let _ = tx.send(client::request(
            &addr,
            "GET",
            &format!("/jobs/{id}/events"),
            None,
        ));
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the tail must not end while the job waits"
    );
    server.gate.open();
    let resp = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("tail ends within 5 s of the gate opening")
        .expect("event stream");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"toy\":\"waiting\""), "{}", resp.body);
    let last = resp.body.lines().last().expect("stream has a final line");
    assert_eq!(field_str(last, "state"), "completed", "{last}");
}

#[test]
fn client_disconnecting_mid_stream_frees_its_handler() {
    let server = TestServer::start("disconnect", |_| {});
    let (_, body) = server.submit(r#"{"experiment":"gated"}"#);
    let id = job_id(&body);
    server.wait_for_state(id, "running");
    {
        let mut stream = TcpStream::connect(&server.addr).expect("connect");
        write!(
            stream,
            "GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("send");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while !line.contains("waiting") {
            line.clear();
            assert!(reader.read_line(&mut line).expect("read stream") > 0);
        }
    } // the client goes away while the job still runs
    let deadline = Instant::now() + Duration::from_secs(5);
    // Only the handler answering /metrics itself is busy once the tail
    // noticed the disconnect.
    while server.metric("serve_handlers_idle") != server.metric("serve_handler_threads") - 1.0 {
        assert!(
            Instant::now() < deadline,
            "the tail's handler was not freed within 5 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.job_state(id),
        "running",
        "freed before the job ended"
    );
    server.gate.open();
    server.wait_for_state(id, "completed");
}

#[test]
fn sequential_requests_neither_poll_nor_spawn_a_thread_each() {
    let server = TestServer::start("no-poll", |_| {});
    server.get("/health"); // warm up: the first handler thread
    let started = Instant::now();
    for _ in 0..20 {
        server.get("/health");
    }
    let took = started.elapsed();
    // A 25 ms poll tick per request would need >= 500 ms.
    assert!(
        took < Duration::from_millis(250),
        "20 round trips took {took:?}"
    );
    let threads = server.metric("serve_handler_threads");
    assert!(
        threads <= 3.0,
        "{threads} handler threads for sequential requests"
    );
}

#[test]
fn single_flight_covers_queued_and_running_jobs_then_lets_go() {
    let server = TestServer::start("single-flight", |c| {
        c.workers = 1;
    });
    let (s, running) = server.submit(r#"{"experiment":"gated"}"#);
    assert_eq!(s, 202, "{running}");
    let running_id = job_id(&running);
    server.wait_for_state(running_id, "running");
    let (s, queued) = server.submit(r#"{"experiment":"slow"}"#);
    assert_eq!(s, 202, "{queued}");
    let queued_id = job_id(&queued);
    assert_eq!(server.job_state(queued_id), "queued");
    for (spec, id) in [
        (r#"{"experiment":"gated"}"#, running_id),
        (r#"{"experiment":"slow","timeout_ms":5}"#, queued_id),
    ] {
        let (s, body) = server.submit(spec);
        assert_eq!(s, 200, "{spec} is a copy: {body}");
        assert_eq!(job_id(&body), id, "{spec}");
    }
    let resp = client::request(
        &server.addr,
        "POST",
        &format!("/jobs/{queued_id}/cancel"),
        None,
    )
    .expect("cancel");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let (s, body) = server.submit(r#"{"experiment":"slow","timeout_ms":50}"#);
    assert_eq!(s, 202, "a cancelled job dedupes nothing: {body}");
    server.gate.open();
    server.wait_for_state(running_id, "completed");
    let (s, body) = server.submit(r#"{"experiment":"gated"}"#);
    assert_eq!(s, 202, "a finished job dedupes nothing: {body}");
    assert!(job_id(&body) > queued_id);
}

fn toy_record(id: u64, experiment: &str, state: JobState) -> JobRecord {
    JobRecord {
        id,
        spec: JobSpec {
            experiment: experiment.to_owned(),
            quick: false,
            timeout_ms: 0,
        },
        state,
        detail: String::new(),
        dedupe_key: format!("toy:{experiment}:false"),
        deduped: false,
    }
}

#[test]
fn replayed_interrupted_jobs_dedupe_nothing() {
    let dir = test_dir("replay-dedupe");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::new(dir.join("journal.json"));
    journal.persist(1, &[]).expect("snapshot");
    journal
        .append(&toy_record(1, "gated", JobState::Running))
        .expect("append");
    let server = TestServer::start_in(dir, |_| {});
    assert_eq!(server.job_state(1), "interrupted");
    let (s, body) = server.submit(r#"{"experiment":"gated"}"#);
    assert_eq!(s, 202, "{body}");
    assert_eq!(job_id(&body), 2);
    server.gate.open();
}

#[test]
fn startup_compacts_the_journal_and_transitions_append_one_line_each() {
    let dir = test_dir("compact");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("journal.json");
    let journal = Journal::new(&path);
    journal.persist(1, &[]).expect("snapshot");
    for id in 1..=5 {
        for state in [JobState::Queued, JobState::Running, JobState::Completed] {
            journal
                .append(&toy_record(id, "ok", state))
                .expect("append");
        }
    }
    journal
        .append(&toy_record(6, "slow", JobState::Queued))
        .expect("append");
    let server = TestServer::start_in(dir, |_| {});
    let lines = || {
        std::fs::read_to_string(&path)
            .expect("journal")
            .lines()
            .count()
    };
    assert_eq!(lines(), 1, "startup leaves one snapshot line");
    assert_eq!(server.job_state(5), "completed");
    assert_eq!(server.job_state(6), "interrupted");
    let (_, body) = server.submit(r#"{"experiment":"ok"}"#);
    assert_eq!(job_id(&body), 7);
    server.wait_for_state(7, "completed");
    assert_eq!(lines(), 4, "queued, running and completed: one line each");
}

#[test]
fn metrics_report_latency_quantiles() {
    let server = TestServer::start("latency", |_| {});
    for _ in 0..3 {
        let (_, body) = server.submit(r#"{"experiment":"ok"}"#);
        server.wait_for_state(job_id(&body), "completed");
    }
    for name in ["serve_queue_wait_ms", "serve_run_ms", "serve_e2e_ms"] {
        assert_eq!(server.metric(&format!("{name}_count")), 3.0, "{name}");
        let p50 = server.metric(&format!("{name}{{quantile=\"0.5\"}}"));
        assert!(p50.is_finite() && p50 >= 0.0, "{name} p50 {p50}");
    }
}
