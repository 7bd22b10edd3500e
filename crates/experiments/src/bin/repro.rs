//! `repro` — regenerate any table or figure of the paper from the command
//! line.
//!
//! ```text
//! repro table1 | fig2 | fig7 | fig8 | fig9 | worked-examples | constraints | all
//! repro --list                    # enumerate every experiment id
//! repro --json <id>               # machine-readable series instead of text
//! repro --c 128 --amp 0.1 fig8    # override the paper's c = 64 / 0.2c
//! repro --telemetry out.jsonl fig7   # capture structured events as JSONL
//! repro --progress fig9           # live sweep progress line on stderr
//! repro --cache .repro-cache fig9 # content-addressed result cache (reruns hit)
//! repro --threads 4 fig8          # cap the sweep worker pool
//! repro fig9 --quick --profile    # wall-time attribution tree after the run
//! repro fig9 --trace t.json       # Chrome-trace-format span export
//! repro --threads 2 bench --compare BENCH_8.json  # fail on speedup regression
//! repro metrics fig7              # Prometheus-style exposition after the run
//! repro serve --addr 127.0.0.1:7077  # long-running experiment service
//! repro submit fig8 --quick --watch  # submit a job, stream its events
//! repro jobs                      # job table of the running service
//! repro cancel 3                  # cancel a queued/running job
//! ```
//!
//! `REPRO_CACHE` and `REPRO_THREADS` provide environment defaults for
//! `--cache` and `--threads`; `--no-cache` overrides both spellings.
//!
//! The binary owns only flag parsing and the shared-handle plumbing; the
//! experiment ids, descriptions and dispatch all live in
//! [`experiments::registry`], so `--list`, id validation and the bundles
//! can never drift apart.

use std::process::ExitCode;
use std::sync::Arc;

use clock_serve::{client, install_termination_handler, JobRecord, Server, ServerConfig};
use clock_telemetry::{build_profile, prometheus_text, render_profile, Telemetry};
use experiments::cache::SweepCache;
use experiments::config::PaperParams;
use experiments::registry::{self, Invocation};
use experiments::render::Table;
use experiments::runner::RunCtx;
use experiments::service::RegistryExecutor;
use experiments::sweep;

fn usage() -> &'static str {
    "usage: repro [--json [out.json]] [--quick] [--progress] [--telemetry <out.jsonl>] \
     [--cache <dir> | --no-cache] [--threads <n>] [--c <stages>] [--amp <frac>] \
     [--profile] [--trace <out.json>] [metrics] <experiment>\n\
     paper artifacts: table1, fig2, fig7, fig8, fig9, worked-examples, constraints\n\
     benchmarks:      bench (batched vs sequential lanes, cold vs warm cache, sweep dispatch,\n\
                      traceless summaries and Monte Carlo, domain bank;\n\
                      --quick shrinks the workloads, --json <file> writes the report,\n\
                      --compare <baseline.json> fails on speedup regression against a\n\
                      baseline of the same mode and worker pool, --noise <frac>\n\
                      widens/narrows the regression threshold)\n\
     extensions:      ext-sensitivity, ext-throughput, ext-noise, ext-stability, ext-lock, ext-coupling\n\
     chaos:           ext-faults (fault class × rate × scheme; standalone — not part of the bundles)\n\
     monte carlo:     ext-yield (seeded process panels -> margin quantiles + timing yield vs deployed\n\
                      margin, per scheme; standalone — not part of the bundles)\n\
     clock mesh:      ext-mesh (GALS meshes under domain failure, Byzantine neighbour and power\n\
                      events; standalone — not part of the bundles)\n\
     bundles:         all (paper artifacts), extensions, everything\n\
     discovery:       --list prints every id with a description and step budget\n\
     caching:         --cache <dir> reuses grid-point results across runs (env: REPRO_CACHE;\n\
                      --no-cache disables); --threads <n> caps the sweep workers (env: REPRO_THREADS)\n\
     observability:   --profile prints a wall-time attribution tree with p50/p90/p99 per span;\n\
                      --trace <out.json> writes Chrome-trace-format spans (chrome://tracing, Perfetto);\n\
                      `repro metrics <id>` appends a Prometheus-style metrics exposition\n\
     service:         `repro serve [--addr a:p] [--serve-dir d] [--workers n] [--queue n]\n\
                      [--timeout-ms n] [--drain-ms n]` runs the experiment service;\n\
                      `repro submit <id> [--quick] [--timeout-ms n] [--watch]`,\n\
                      `repro jobs`, `repro cancel <job-id>` talk to it (addr:\n\
                      --addr or REPRO_SERVE_ADDR, default 127.0.0.1:7077)\n"
}

fn experiment_list() -> String {
    let mut out = String::from("experiments:\n");
    for def in registry::REGISTRY {
        out.push_str(&format!(
            "  {:<16} {:>12}  {}\n",
            def.id, def.steps, def.description
        ));
    }
    out
}

/// Consume a boolean switch: report whether `flag` appears in `args`, and
/// strip every occurrence.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let present = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    present
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", experiment_list());
        return ExitCode::SUCCESS;
    }
    // Service subcommands are mode prefixes with their own flag sets.
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(args.split_off(1)),
        Some("submit") => return submit_main(args.split_off(1)),
        Some("jobs") => return jobs_main(args.split_off(1)),
        Some("cancel") => return cancel_main(args.split_off(1)),
        _ => {}
    }
    let mut json = false;
    let mut json_path: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--json") {
        json = true;
        // `--json` optionally takes an output path; experiment ids never
        // end in ".json", so that suffix disambiguates.
        if args.get(i + 1).is_some_and(|v| v.ends_with(".json")) {
            json_path = Some(args.remove(i + 1));
        }
        args.remove(i);
    }
    let quick = take_switch(&mut args, "--quick");
    let progress = take_switch(&mut args, "--progress");
    sweep::set_progress(progress);
    let threads = match take_flag_value(&mut args, "--threads") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let threads = threads.or_else(|| std::env::var("REPRO_THREADS").ok());
    match threads.as_deref().map(str::parse::<usize>) {
        None => sweep::set_threads(None),
        Some(Ok(n)) if n >= 1 => sweep::set_threads(Some(n)),
        Some(_) => {
            eprintln!(
                "error: --threads / REPRO_THREADS must be a positive integer, got {}",
                threads.as_deref().unwrap_or("")
            );
            return ExitCode::FAILURE;
        }
    }
    let no_cache = take_switch(&mut args, "--no-cache");
    let cache_dir = match take_flag_value(&mut args, "--cache") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let cache_dir = if no_cache {
        None
    } else {
        cache_dir.or_else(|| std::env::var("REPRO_CACHE").ok().filter(|v| !v.is_empty()))
    };
    let telemetry_path = match take_flag_value(&mut args, "--telemetry") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let profile = take_switch(&mut args, "--profile");
    let trace_path = match take_flag_value(&mut args, "--trace") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let compare_path = match take_flag_value(&mut args, "--compare") {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let noise = match take_flag_value(&mut args, "--noise") {
        Ok(None) => experiments::bench::DEFAULT_COMPARE_NOISE,
        Ok(Some(raw)) => match raw.parse::<f64>() {
            Ok(n) if (0.0..1.0).contains(&n) => n,
            _ => {
                eprintln!("error: --noise must be a fraction in [0, 1), got {raw}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // `repro metrics <id>` is a mode prefix, not a flag: run the experiment,
    // then print the Prometheus-style exposition of everything it recorded.
    let metrics = args.first().is_some_and(|a| a == "metrics");
    if metrics {
        args.remove(0);
    }
    // A sink-open failure degrades to in-memory telemetry (observability
    // must never abort the run it observes); the degrade is visible both
    // here and in the `telemetry.open_failures` counter.
    let telemetry = match &telemetry_path {
        Some(path) => {
            let t = Telemetry::to_jsonl_or_degraded(path);
            if !t.has_file_sink() {
                eprintln!(
                    "warning: cannot open telemetry sink {path}; \
                     continuing with in-memory telemetry only"
                );
            }
            t
        }
        None if profile || trace_path.is_some() || metrics => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    if profile || trace_path.is_some() {
        telemetry.enable_tracing();
    }
    let cache = match &cache_dir {
        // degrade to no-cache on open failure: caching accelerates a run,
        // it must never abort one
        Some(dir) => SweepCache::persistent_or_disabled(dir, &telemetry),
        None => SweepCache::disabled(),
    };
    let mut params = PaperParams::default();
    if let Some(err) = apply_overrides(&mut args, &mut params) {
        eprintln!("error: {err}");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    let Some(which) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if registry::find(which).is_none() {
        eprintln!("error: unknown experiment '{which}'");
        eprint!("{}", experiment_list());
        return ExitCode::FAILURE;
    }
    let ctx = RunCtx::new(params)
        .with_cache(cache.clone())
        .with_telemetry(telemetry.clone());
    let inv = Invocation {
        ctx: &ctx,
        quick,
        json,
        json_path: json_path.as_deref(),
        compare: compare_path.as_deref(),
        noise,
    };
    // The root span covers the whole dispatch, so the attribution tree's
    // totals are measured against the same clock as `wall_ms`.
    let run_start = std::time::Instant::now();
    let root_scope = telemetry.scope(which);
    let ok = registry::run(which, &inv);
    drop(root_scope);
    let wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
    if let Some(stats) = cache.stats() {
        let dir = cache_dir.as_deref().unwrap_or("<memory>");
        println!(
            "cache: {} hits, {} misses ({:.0}% hit rate), {} bytes written, \
             {} corrupt records skipped [{dir}]",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.bytes_written,
            stats.corrupt_skipped,
        );
    }
    if profile {
        let spans = telemetry.trace_spans();
        let tree = build_profile(&spans);
        println!("{}", render_profile(&tree, wall_ms));
    }
    if let Some(path) = &trace_path {
        match telemetry.write_chrome_trace(path) {
            Ok(()) => println!("chrome trace written to {path} (chrome://tracing, Perfetto)"),
            Err(e) => {
                eprintln!("error: cannot write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if telemetry.is_enabled() {
        if let Err(e) = telemetry.flush() {
            eprintln!("error: telemetry sink: {e}");
            return ExitCode::FAILURE;
        }
        if telemetry_path.is_some() {
            println!("{}", telemetry_summary(&telemetry));
        }
        if telemetry.has_file_sink() {
            if let Some(path) = &telemetry_path {
                println!("telemetry events written to {path}");
            }
        }
    }
    if metrics {
        print!("{}", prometheus_text(&telemetry.snapshot()));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        // The failing leaf already printed a specific error; repeating the
        // whole usage text would bury it (and `--compare` regressions rely
        // on a clean non-zero exit).
        ExitCode::FAILURE
    }
}

/// The service address `submit`/`jobs`/`cancel` talk to: `--addr`, then
/// `REPRO_SERVE_ADDR`, then the default port.
fn client_addr(args: &mut Vec<String>) -> Result<String, String> {
    Ok(take_flag_value(args, "--addr")?
        .or_else(|| {
            std::env::var("REPRO_SERVE_ADDR")
                .ok()
                .filter(|v| !v.is_empty())
        })
        .unwrap_or_else(|| "127.0.0.1:7077".to_owned()))
}

/// `repro serve`: run the experiment service until SIGTERM/SIGINT or
/// `POST /shutdown`, then drain.
fn serve_main(mut args: Vec<String>) -> ExitCode {
    let parse = |v: Option<String>, what: &str| -> Result<Option<u64>, String> {
        match v {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("{what} must be a non-negative integer, got {raw}")),
        }
    };
    let result = (|| -> Result<(ServerConfig, PaperParams, Option<String>), String> {
        let mut config = ServerConfig::default();
        if let Some(addr) = take_flag_value(&mut args, "--addr")? {
            config.addr = addr;
        }
        if let Some(dir) = take_flag_value(&mut args, "--serve-dir")? {
            config.data_dir = dir.into();
        }
        if let Some(n) = parse(take_flag_value(&mut args, "--workers")?, "--workers")? {
            config.workers = (n as usize).max(1);
        }
        if let Some(n) = parse(take_flag_value(&mut args, "--queue")?, "--queue")? {
            config.queue_capacity = (n as usize).max(1);
        }
        if let Some(n) = parse(take_flag_value(&mut args, "--timeout-ms")?, "--timeout-ms")? {
            config.default_timeout_ms = n;
        }
        if let Some(n) = parse(take_flag_value(&mut args, "--drain-ms")?, "--drain-ms")? {
            config.drain_grace_ms = n;
        }
        let no_cache = take_switch(&mut args, "--no-cache");
        let cache_dir = take_flag_value(&mut args, "--cache")?;
        let mut params = PaperParams::default();
        if let Some(err) = apply_overrides(&mut args, &mut params) {
            return Err(err);
        }
        if let Some(stray) = args.first() {
            return Err(format!("serve does not take '{stray}'"));
        }
        let cache_dir =
            if no_cache {
                None
            } else {
                // The service's whole point is cross-submission reuse, so the
                // cache defaults to persistent under the data dir.
                Some(cache_dir.unwrap_or_else(|| {
                    config.data_dir.join("cache").to_string_lossy().into_owned()
                }))
            };
        Ok((config, params, cache_dir))
    })();
    let (config, params, cache_dir) = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Always-on telemetry: the service exposes it at GET /metrics.
    let telemetry = Telemetry::enabled();
    let cache = match &cache_dir {
        Some(dir) => SweepCache::persistent_or_disabled(dir, &telemetry),
        None => SweepCache::disabled(),
    };
    let executor = Arc::new(RegistryExecutor::new(params, cache));
    let server = match Server::bind(config, executor, telemetry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_termination_handler(server.shutdown_handle());
    experiments::sweep::install_quiet_cancel_hook();
    // The parseable line tests and scripts discover the bound port from.
    println!("serve: listening on http://{}", server.local_addr());
    let report = server.run();
    println!(
        "serve: drained={} cancelled_queued={}",
        report.drained, report.cancelled_queued
    );
    if report.drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro submit <id>`: submit a job (with retry/backoff against
/// backpressure), optionally tail its event stream.
fn submit_main(mut args: Vec<String>) -> ExitCode {
    let run = (|| -> Result<ExitCode, String> {
        let addr = client_addr(&mut args)?;
        let quick = take_switch(&mut args, "--quick");
        let watch = take_switch(&mut args, "--watch");
        let timeout_ms = match take_flag_value(&mut args, "--timeout-ms")? {
            None => 0u64,
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--timeout-ms must be an integer, got {raw}"))?,
        };
        let Some(experiment) = args.first().cloned() else {
            return Err("submit needs an experiment id".to_owned());
        };
        let body = format!(
            "{{\"experiment\":\"{experiment}\",\"quick\":{quick},\"timeout_ms\":{timeout_ms}}}"
        );
        let resp =
            client::submit_with_retry(&addr, &body, 5, std::time::Duration::from_millis(200))?;
        if resp.status >= 400 {
            return Err(format!(
                "submit rejected ({}): {}",
                resp.status,
                resp.body.trim()
            ));
        }
        print!("{}", resp.body);
        if watch {
            let job_id = resp
                .body
                .split("\"job\":")
                .nth(1)
                .and_then(|s| s.split(&[',', '}'][..]).next())
                .and_then(|s| s.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("cannot find job id in {}", resp.body.trim()))?;
            let events = client::request(&addr, "GET", &format!("/jobs/{job_id}/events"), None)?;
            print!("{}", events.body);
        }
        Ok(ExitCode::SUCCESS)
    })();
    run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// `repro jobs`: the service's job table.
fn jobs_main(mut args: Vec<String>) -> ExitCode {
    let run = (|| -> Result<ExitCode, String> {
        let addr = client_addr(&mut args)?;
        let resp = client::request(&addr, "GET", "/jobs", None)?;
        if resp.status != 200 {
            return Err(format!(
                "jobs failed ({}): {}",
                resp.status,
                resp.body.trim()
            ));
        }
        let jobs: Vec<JobRecord> =
            serde_json::from_str(&resp.body).map_err(|e| format!("bad /jobs payload: {e}"))?;
        let mut table = Table::new(vec![
            "job".to_owned(),
            "experiment".to_owned(),
            "state".to_owned(),
            "detail".to_owned(),
        ]);
        for j in &jobs {
            let mut experiment = j.spec.experiment.clone();
            if j.spec.quick {
                experiment.push_str(" (quick)");
            }
            table.row(vec![
                j.id.to_string(),
                experiment,
                j.state.label().to_owned(),
                j.detail.clone(),
            ]);
        }
        print!("{}", table.render());
        Ok(ExitCode::SUCCESS)
    })();
    run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// `repro cancel <job-id>`.
fn cancel_main(mut args: Vec<String>) -> ExitCode {
    let run = (|| -> Result<ExitCode, String> {
        let addr = client_addr(&mut args)?;
        let Some(id) = args.first() else {
            return Err("cancel needs a job id".to_owned());
        };
        let resp = client::request(&addr, "POST", &format!("/jobs/{id}/cancel"), None)?;
        if resp.status != 200 {
            return Err(format!(
                "cancel failed ({}): {}",
                resp.status,
                resp.body.trim()
            ));
        }
        print!("{}", resp.body);
        Ok(ExitCode::SUCCESS)
    })();
    run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Pull `<flag> <value>` out of `args`, returning the value.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args[i + 1].clone();
            args.drain(i..=i + 1);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

/// Pull `--c`/`--amp` overrides out of `args`; returns an error message on
/// malformed input.
fn apply_overrides(args: &mut Vec<String>, params: &mut PaperParams) -> Option<String> {
    let mut take = |flag: &str| -> Result<Option<f64>, String> {
        match take_flag_value(args, flag) {
            Ok(None) => Ok(None),
            Ok(Some(raw)) => raw.parse().map(Some).map_err(|e| format!("{flag}: {e}")),
            Err(e) => Err(e),
        }
    };
    match take("--c") {
        Ok(Some(c)) if c >= 4.0 => params.setpoint = c as i64,
        Ok(Some(c)) => return Some(format!("--c must be at least 4, got {c}")),
        Ok(None) => {}
        Err(e) => return Some(e),
    }
    match take("--amp") {
        Ok(Some(a)) if (0.0..1.0).contains(&a) => params.amplitude_frac = a,
        Ok(Some(a)) => return Some(format!("--amp must be in [0, 1), got {a}")),
        Ok(None) => {}
        Err(e) => return Some(e),
    }
    None
}

/// End-of-run summary of everything the telemetry handle recorded,
/// rendered with the same ASCII tables the experiments use.
fn telemetry_summary(telemetry: &Telemetry) -> String {
    let snap = telemetry.snapshot();
    let mut out = String::from("telemetry summary\n");
    let mut counters = Table::new(vec!["counter".to_owned(), "value".to_owned()]);
    for (name, value) in &snap.counters {
        counters.row(vec![name.clone(), value.to_string()]);
    }
    out.push_str(&counters.render());
    let mut events = Table::new(vec!["event kind".to_owned(), "count".to_owned()]);
    for (kind, count) in &snap.events_by_kind {
        events.row(vec![kind.clone(), count.to_string()]);
    }
    events.row(vec!["total".to_owned(), snap.events_total.to_string()]);
    out.push('\n');
    out.push_str(&events.render());
    out
}
