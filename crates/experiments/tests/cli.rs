//! End-to-end tests for the `repro` binary: discovery flags, error
//! handling for unknown ids, and the full telemetry capture flow
//! (`--telemetry` JSONL parse-back, `--progress`, summary table).

use std::path::PathBuf;
use std::process::{Command, Output};

use clock_telemetry::{Event, EventRecord};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_jsonl(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-cli-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn list_prints_every_id_and_succeeds() {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "--list must exit 0");
    let text = stdout(&out);
    for id in [
        "table1",
        "fig2",
        "fig7",
        "fig8",
        "fig9",
        "worked-examples",
        "constraints",
        "ext-sensitivity",
        "ext-throughput",
        "ext-noise",
        "ext-stability",
        "ext-lock",
        "ext-coupling",
        "ext-faults",
        "all",
        "extensions",
        "everything",
    ] {
        assert!(text.contains(id), "--list output missing `{id}`:\n{text}");
    }
}

/// The ids `--list` advertises and the ids the registry can dispatch are
/// the same set — the table cannot drift from the dispatcher because both
/// read [`experiments::registry::REGISTRY`], and this test pins the CLI
/// surface to it.
#[test]
fn list_ids_equal_dispatchable_ids() {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "--list must exit 0");
    let text = stdout(&out);
    let listed: std::collections::BTreeSet<String> = text
        .lines()
        .skip(1) // "experiments:" header
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_owned)
        .collect();
    let dispatchable: std::collections::BTreeSet<String> = experiments::registry::REGISTRY
        .iter()
        .map(|def| def.id.to_owned())
        .collect();
    assert_eq!(
        listed, dispatchable,
        "--list ids and registry ids must be identical"
    );
}

#[test]
fn unknown_experiment_fails_and_lists_valid_ids() {
    let out = repro(&["frobnicate"]);
    assert!(!out.status.success(), "unknown id must exit non-zero");
    let err = stderr(&out);
    assert!(
        err.contains("unknown experiment 'frobnicate'"),
        "stderr should name the bad id:\n{err}"
    );
    for id in ["fig7", "ext-lock", "everything"] {
        assert!(
            err.contains(id),
            "stderr should list valid id `{id}`:\n{err}"
        );
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = repro(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: repro"));
}

#[test]
fn telemetry_flag_requires_a_value() {
    let out = repro(&["fig7", "--telemetry"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--telemetry needs a value"));
}

#[test]
fn fig7_telemetry_capture_round_trips() {
    let path = tmp_jsonl("fig7");
    let out = repro(&["fig7", "--telemetry", path.to_str().unwrap(), "--progress"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Live progress line on stderr and a summary table on stdout.
    assert!(
        stderr(&out).contains("sweep "),
        "progress line expected on stderr"
    );
    let text = stdout(&out);
    assert!(
        text.contains("telemetry summary"),
        "missing summary:\n{text}"
    );
    assert!(text.contains("core.samples"));
    assert!(text.contains("TimingViolation"));
    assert!(text.contains("ControllerUpdate"));

    // Every JSONL line parses back through serde into an EventRecord and
    // the sink preserves the sequence order exactly.
    let raw = std::fs::read_to_string(&path).expect("telemetry sink written");
    std::fs::remove_file(&path).ok();
    let records: Vec<EventRecord> = raw
        .lines()
        .map(|line| serde_json::from_str(line).expect("valid JSONL event record"))
        .collect();
    assert!(!records.is_empty(), "fig7 must emit events");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "JSONL order must match sequence numbers");
        assert!(r.time.is_finite(), "event timestamps are finite");
    }
    let has = |pred: fn(&Event) -> bool| records.iter().any(|r| pred(&r.event));
    assert!(
        has(|e| matches!(e, Event::TimingViolation { .. })),
        "fig7 drives the loop through violations"
    );
    assert!(
        has(|e| matches!(e, Event::ControllerUpdate { .. })),
        "fig7 drives controller updates"
    );
    assert!(
        has(|e| matches!(e, Event::MarginSearchIteration { .. })),
        "fig7 reports per-scheme margins"
    );
    for r in &records {
        if let Event::TimingViolation {
            tau,
            setpoint,
            margin,
        } = &r.event
        {
            assert!(tau.is_finite() && margin.is_finite());
            assert!(*margin > 0.0, "violations only fire for positive margin");
            assert_eq!(*setpoint, 64.0, "paper set-point");
        }
    }
}

#[test]
fn threads_flag_rejects_non_positive_values() {
    for bad in ["0", "bogus"] {
        let out = repro(&["--threads", bad, "fig2"]);
        assert!(!out.status.success(), "--threads {bad} must fail");
        assert!(
            stderr(&out).contains("positive integer"),
            "stderr should explain --threads {bad}:\n{}",
            stderr(&out)
        );
    }
}

#[test]
fn threads_flag_accepts_explicit_worker_count() {
    let out = repro(&["--threads", "2", "fig2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

/// Strip the run-dependent cache summary line, leaving the figure output.
fn without_cache_line(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("cache:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn cache_round_trip_hits_fully_and_reproduces_output() {
    let dir = std::env::temp_dir().join(format!("repro-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let cold = repro(&["--quick", "--cache", dir_s, "fig9"]);
    assert!(cold.status.success(), "stderr: {}", stderr(&cold));
    let cold_text = stdout(&cold);
    assert!(
        cold_text.contains("cache: 0 hits"),
        "cold run must miss everything:\n{cold_text}"
    );

    let warm = repro(&["--quick", "--cache", dir_s, "fig9"]);
    assert!(warm.status.success(), "stderr: {}", stderr(&warm));
    let warm_text = stdout(&warm);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        warm_text.contains("0 misses (100% hit rate)"),
        "warm run must hit everything:\n{warm_text}"
    );
    assert_eq!(
        without_cache_line(&cold_text),
        without_cache_line(&warm_text),
        "warm figures must be bit-identical to cold"
    );
}

#[test]
fn no_cache_flag_overrides_the_environment_default() {
    let dir = std::env::temp_dir().join(format!("repro-cli-nocache-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--no-cache", "fig9"])
        .env("REPRO_CACHE", &dir)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        !stdout(&out).contains("cache:"),
        "--no-cache must print no cache summary"
    );
    assert!(!dir.exists(), "--no-cache must not create the cache dir");
}

#[test]
fn json_mode_is_machine_readable() {
    let out = repro(&["--json", "fig2"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let parsed: experiments::results::ExperimentResult =
        serde_json::from_str(text.trim()).expect("--json emits an ExperimentResult document");
    assert_eq!(parsed.id, "fig2");
    assert!(!parsed.series.is_empty());
}

/// An unopenable `--telemetry` sink must degrade to in-memory telemetry —
/// warn, count the failure, and still run the experiment to success —
/// instead of aborting the run it was meant to observe.
#[test]
fn unopenable_telemetry_sink_degrades_not_aborts() {
    let out = repro(&["fig2", "--telemetry", "/nonexistent-dir/deeper/sink.jsonl"]);
    assert!(
        out.status.success(),
        "a bad sink must not abort the run; stderr: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("in-memory telemetry only"),
        "the degrade must be announced:\n{}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("telemetry.open_failures"),
        "the failure counter must appear in the summary:\n{text}"
    );
    assert!(
        !text.contains("telemetry events written to"),
        "no sink file was written:\n{text}"
    );
}

/// `--profile` must print an attribution tree whose span totals account
/// for (almost) the whole measured wall time — the acceptance bar is 95%.
#[test]
fn profile_attribution_covers_the_wall_clock() {
    let out = repro(&["fig9", "--quick", "--profile"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let header = text
        .lines()
        .find(|l| l.starts_with("profile: wall"))
        .unwrap_or_else(|| panic!("profile header missing:\n{text}"));
    // "profile: wall 166.05 ms, attributed 166.04 ms (100.0%)"
    let pct: f64 = header
        .rsplit_once('(')
        .and_then(|(_, tail)| tail.strip_suffix("%)"))
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("unparseable profile header: {header}"));
    assert!(
        pct >= 95.0,
        "attributed self time must cover >= 95% of wall, got {pct}%: {header}"
    );
    assert!(text.contains("engine.core"), "engine spans in the tree");
    assert!(
        text.contains("p50") && text.contains("p99"),
        "quantile columns present:\n{text}"
    );
}

/// `--trace` must write a Chrome-trace-format document that a JSON parser
/// accepts, with complete (`ph == "X"`) events, for an analytic leaf
/// (`fig2`) and for a sweep whose spans come from the worker pool
/// (`fig9 --quick`).
#[test]
fn trace_flag_writes_chrome_trace_json() {
    for args in [&["fig2"][..], &["fig9", "--quick"]] {
        let path = std::env::temp_dir().join(format!(
            "repro-cli-trace-{}-{}.json",
            args[0],
            std::process::id()
        ));
        let out = repro(&[args, &["--trace", path.to_str().unwrap()]].concat());
        assert!(out.status.success(), "{args:?} stderr: {}", stderr(&out));
        assert!(
            stdout(&out).contains("chrome trace written to"),
            "{args:?}: trace destination must be announced"
        );
        let raw = std::fs::read_to_string(&path).expect("trace file written");
        std::fs::remove_file(&path).ok();
        let doc: serde::Value = serde_json::from_str(&raw).expect("trace is valid JSON");
        let events = doc
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array present");
        assert!(
            !events.is_empty(),
            "{args:?}: the root span is always recorded"
        );
        for ev in events {
            let ph = ev
                .as_object()
                .and_then(|f| f.iter().find(|(k, _)| k == "ph"))
                .map(|(_, v)| v.clone());
            assert_eq!(
                ph,
                Some(serde::Value::Str("X".to_owned())),
                "{args:?}: complete events only:\n{raw}"
            );
        }
    }
}

/// `repro metrics <id>` appends a Prometheus-style exposition of the
/// run's counters and histograms.
#[test]
fn metrics_mode_appends_prometheus_exposition() {
    let out = repro(&["metrics", "fig2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("telemetry_events_total"),
        "exposition missing:\n{text}"
    );
}

/// The whole regression gate end to end, with deterministic verdicts, in
/// two timed runs. Run 1 compares against an easy baseline made from the
/// committed `BENCH_8.json` (its row names are those of a quick run) marked
/// as a quick two-worker report, with every speedup cut to a twentieth: in
/// a debug build the blocked lanes' speedups fall to about a sixth of the
/// release ones, and the current run must still clear every row by a wide
/// margin, so the compare must pass. Run 2 compares against run 1's own
/// report with one speedup inflated ×50 (equivalent to this revision
/// having synthetically slowed that case), so the compare must fail with a
/// non-zero exit. Doctoring, rather than comparing two live timings, keeps
/// the test immune to load swings on a busy test host; the committed
/// `BENCH_8.json` itself is covered by CI's release-mode `bench-compare`
/// job and by the compare unit tests.
#[test]
fn bench_compare_gates_on_speedup_regressions() {
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!("repro-cli-{tag}-{}.json", std::process::id()))
    };
    let write = |tag: &str, report: &experiments::bench::BenchReport| {
        let path = tmp(tag);
        std::fs::write(&path, report.to_json().expect("serializes")).expect("written");
        path
    };

    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    let mut easy = experiments::bench::BenchReport::load(committed).expect("BENCH_8.json loads");
    easy.quick = true;
    easy.workers = 2;
    for e in &mut easy.entries {
        e.speedup = e.speedup.map(|s| s * 0.05);
    }
    let easy_path = write("easy", &easy);
    let fresh = tmp("bench");
    let fresh_s = fresh.to_str().unwrap();
    let ok = repro(&[
        "--threads",
        "2",
        "bench",
        "--quick",
        "--json",
        fresh_s,
        "--compare",
        easy_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&easy_path).ok();
    assert!(
        ok.status.success(),
        "a clearly-beaten baseline must pass; stdout: {}\nstderr: {}",
        stdout(&ok),
        stderr(&ok)
    );
    assert!(stdout(&ok).contains("verdict: no regression"));

    // The written report is self-describing.
    let report = experiments::bench::BenchReport::load(&fresh).expect("fresh report loads");
    std::fs::remove_file(&fresh).ok();
    assert_eq!(report.workers, 2);
    assert!(report.engine_rev.contains("core-r"));

    let mut bad_baseline = report;
    let entry = bad_baseline
        .entries
        .iter_mut()
        .find(|e| e.name == "loop-batched")
        .expect("batched entry present");
    entry.speedup = Some(entry.speedup.unwrap_or(1.0) * 50.0);
    let bad_path = write("doctored", &bad_baseline);
    let bad = repro(&[
        "--threads",
        "2",
        "bench",
        "--quick",
        "--compare",
        bad_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&bad_path).ok();
    assert!(
        !bad.status.success(),
        "a regressed speedup must exit non-zero; stdout: {}",
        stdout(&bad)
    );
    assert!(stdout(&bad).contains("REGRESSED"));
    assert!(stderr(&bad).contains("regressed"));
}

/// A baseline of the other mode is refused before the timed run: the
/// committed full-mode `BENCH_8.json` against `--quick` exits 1 naming both
/// modes, and no bench table is printed.
#[test]
fn bench_compare_refuses_other_mode_before_timing() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    let out = repro(&["--threads", "2", "bench", "--quick", "--compare", baseline]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("baseline is a full bench but this run is --quick"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).is_empty(),
        "no bench table may be printed: {}",
        stdout(&out)
    );
}
