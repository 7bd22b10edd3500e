//! `clock-telemetry` — workspace-wide instrumentation for the adaptive
//! clock reproduction.
//!
//! One [`Telemetry`] handle is threaded through the simulation engines and
//! experiment harnesses. It is either **disabled** (the default —
//! every operation is a branch on a `None` and nothing is allocated,
//! recorded, or locked) or **enabled**, in which case it carries:
//!
//! * a registry of named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s (lock-free on the hot path — handles are resolved
//!   once and update atomics);
//! * a structured [`Event`] log — timing violations, RO length
//!   saturations, controller updates, sensor dropouts, margin-search
//!   iterations — drained to a bounded in-memory ring buffer and,
//!   optionally, to a JSONL file sink;
//! * a [`Snapshot`] for end-of-run summaries.
//!
//! The handle is `Clone` (cheap `Arc` clone) and `Send + Sync`, so one
//! telemetry instance can observe parallel sweeps.
//!
//! ```
//! use clock_telemetry::{Event, Telemetry};
//!
//! let t = Telemetry::enabled();
//! let violations = t.counter("core.timing_violations");
//! violations.inc();
//! t.emit(12.5, Event::TimingViolation { tau: 63.0, setpoint: 64.0, margin: 1.0 });
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("core.timing_violations"), Some(1));
//! assert_eq!(snap.events_total, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod expose;
pub mod profile;
pub mod registry;
pub mod sketch;
pub mod trace;

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

pub use event::{Event, EventRecord};
pub use expose::prometheus_text;
pub use profile::{build_profile, render_profile, Profile, ProfileNode};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Snapshot};
pub use sketch::QuantileSketch;
pub use trace::{SpanRecord, TraceScope, NO_PARENT};

use event::EventLog;
use registry::Registry;
use trace::TraceBuf;

/// Default capacity of the in-memory event ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct Inner {
    registry: Registry,
    log: Mutex<EventLog>,
    trace: OnceLock<TraceBuf>,
}

/// The instrumentation handle. Cheap to clone and pass around; a disabled
/// handle makes every operation a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle (same as `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default ring-buffer sink and no file
    /// sink.
    pub fn enabled() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle with a ring buffer of the given capacity.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                log: Mutex::new(EventLog::new(capacity, None)),
                trace: OnceLock::new(),
            })),
        }
    }

    /// An enabled handle that additionally appends every event as one
    /// JSON line to the file at `path` (truncating an existing file).
    ///
    /// # Errors
    ///
    /// Propagates the error from creating the file.
    pub fn to_jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                log: Mutex::new(EventLog::new(
                    DEFAULT_RING_CAPACITY,
                    Some(std::io::BufWriter::new(file)),
                )),
                trace: OnceLock::new(),
            })),
        })
    }

    /// Like [`Telemetry::to_jsonl`], but an unopenable sink **degrades**
    /// instead of failing: the handle comes back enabled with the ring
    /// buffer only, and the `telemetry.open_failures` counter records
    /// the degradation (mirroring the result cache's
    /// `persistent_or_disabled`). The run proceeds either way.
    pub fn to_jsonl_or_degraded(path: impl AsRef<Path>) -> Self {
        match Self::to_jsonl(path) {
            Ok(t) => t,
            Err(_) => {
                let t = Self::enabled();
                t.counter("telemetry.open_failures").inc();
                t
            }
        }
    }

    /// Whether events are being mirrored to a JSONL file sink.
    pub fn has_file_sink(&self) -> bool {
        match &self.inner {
            Some(i) => i.log.lock().expect("event log lock").has_sink(),
            None => false,
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve (creating on first use) the counter named `name`. The
    /// returned handle updates an atomic directly — resolve once outside
    /// hot loops.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// Resolve (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Resolve (creating on first use) a histogram with `buckets` equal
    /// bins spanning `[lo, hi)` plus under/overflow bins. Bounds are fixed
    /// by the first resolution of each name.
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, buckets: usize) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name, lo, hi, buckets),
            None => Histogram::noop(),
        }
    }

    /// Turn on hierarchical span tracing for this handle (idempotent;
    /// the first call fixes the trace epoch). Until this is called,
    /// [`Telemetry::scope`] hands out inert guards, so instrumentation
    /// in hot paths costs one branch when profiling is off.
    pub fn enable_tracing(&self) {
        if let Some(i) = &self.inner {
            let _ = i.trace.get_or_init(TraceBuf::new);
        }
    }

    /// Whether [`enable_tracing`](Telemetry::enable_tracing) has been
    /// called on an enabled handle.
    pub fn tracing_enabled(&self) -> bool {
        self.trace_buf().is_some()
    }

    pub(crate) fn trace_buf(&self) -> Option<&TraceBuf> {
        self.inner.as_ref().and_then(|i| i.trace.get())
    }

    /// Open a trace span named `name`. Its parent is the innermost span
    /// of this handle still live **on this thread** (spans opened on
    /// other threads need [`Telemetry::scope_under`]). The span ends —
    /// and is recorded + emitted as an [`Event::Span`] — when the guard
    /// drops.
    pub fn scope(&self, name: &str) -> TraceScope {
        if self.tracing_enabled() {
            TraceScope::open(self, name, None)
        } else {
            TraceScope::noop()
        }
    }

    /// Open a trace span with an explicit parent id — the cross-thread
    /// variant: capture [`Telemetry::current_span`] (or
    /// [`TraceScope::id`]) before spawning and pass it here from the
    /// worker thread.
    pub fn scope_under(&self, parent: u64, name: &str) -> TraceScope {
        if self.tracing_enabled() {
            TraceScope::open(self, name, Some(parent))
        } else {
            TraceScope::noop()
        }
    }

    /// Id of the innermost live span on this thread ([`NO_PARENT`] when
    /// none, or when tracing is off).
    pub fn current_span(&self) -> u64 {
        self.trace_buf().map_or(NO_PARENT, trace::current_on_thread)
    }

    /// Every finished span so far, sorted by start time (empty when
    /// tracing is off).
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.trace_buf().map_or_else(Vec::new, TraceBuf::finished)
    }

    /// The finished spans rendered as a Chrome trace-event JSON document
    /// (load in `chrome://tracing` or Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        trace::chrome_trace_json(&self.trace_spans())
    }

    /// Write the Chrome trace-event document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-write error.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Record a structured event at domain time `time` (simulation time
    /// for engine events, the sweep coordinate for search events).
    pub fn emit(&self, time: f64, event: Event) {
        if let Some(i) = &self.inner {
            i.log.lock().expect("event log lock").emit(time, event);
        }
    }

    /// The most recent events still held by the ring buffer (oldest
    /// first).
    pub fn recent_events(&self) -> Vec<EventRecord> {
        match &self.inner {
            Some(i) => i.log.lock().expect("event log lock").recent(),
            None => Vec::new(),
        }
    }

    /// A point-in-time copy of every metric and the event accounting.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(i) => {
                let mut snap = i.registry.snapshot();
                let log = i.log.lock().expect("event log lock");
                snap.events_total = log.total();
                snap.events_by_kind = log.counts_by_kind();
                snap
            }
            None => Snapshot::default(),
        }
    }

    /// Flush the JSONL sink, if any, and surface any write error that
    /// occurred since the last flush.
    ///
    /// # Errors
    ///
    /// Returns the first sticky I/O error from the JSONL sink.
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(i) => i.log.lock().expect("event log lock").flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("x").inc();
        t.gauge("y").set(1.5);
        t.histogram("h", 0.0, 1.0, 4).record(0.5);
        t.emit(0.0, Event::SensorDropout { sensor: 0 });
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.events_total, 0);
        assert!(t.recent_events().is_empty());
        assert!(t.flush().is_ok());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let t = Telemetry::enabled();
        let c1 = t.counter("steps");
        let c2 = t.clone().counter("steps");
        c1.add(3);
        c2.inc();
        assert_eq!(t.snapshot().counter("steps"), Some(4));
    }

    #[test]
    fn gauge_keeps_last_value() {
        let t = Telemetry::enabled();
        let g = t.gauge("margin");
        g.set(2.5);
        g.set(-1.25);
        let snap = t.snapshot();
        let (_, v) = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "margin")
            .expect("gauge present");
        assert_eq!(*v, -1.25);
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        let t = Telemetry::enabled();
        let h = t.histogram("delta", 0.0, 4.0, 4);
        for v in [-1.0, 0.5, 1.5, 1.6, 3.9, 100.0] {
            h.record(v);
        }
        let snap = t.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.underflow, 1);
        assert_eq!(hs.overflow, 1);
        assert_eq!(hs.buckets, vec![1, 2, 0, 1]);
        assert_eq!(hs.count, 6);
    }

    #[test]
    fn histogram_drops_non_finite_samples() {
        let t = Telemetry::enabled();
        let h = t.histogram("delta", 0.0, 4.0, 4);
        h.record(1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        let snap = t.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.dropped, 3, "NaN and both infinities are dropped");
        assert_eq!(hs.count, 1, "dropped samples never reach the bins");
        assert_eq!(hs.underflow, 0, "-inf must not clamp into underflow");
        assert_eq!(hs.overflow, 0, "+inf must not clamp into overflow");
        assert_eq!(hs.max, Some(1.0), "quantiles see only finite samples");
    }

    #[test]
    fn histogram_clamps_out_of_range_to_edge_bins() {
        let t = Telemetry::enabled();
        let h = t.histogram("delta", 0.0, 4.0, 4);
        h.record(-1e18);
        h.record(-0.001);
        h.record(4.0); // hi itself is exclusive
        h.record(1e18);
        let snap = t.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.underflow, 2);
        assert_eq!(hs.overflow, 2);
        assert_eq!(hs.buckets, vec![0, 0, 0, 0]);
        assert_eq!(hs.count, 4, "clamped samples still count");
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        let t = Telemetry::enabled();
        let _ = t.histogram("bad", 0.0, 1.0, 0);
    }

    #[test]
    fn histogram_quantiles_track_the_stream() {
        let t = Telemetry::enabled();
        let h = t.histogram("lat", 0.0, 200.0, 10);
        for k in 1..=100 {
            h.record(f64::from(k));
        }
        let snap = t.snapshot();
        let hs = &snap.histograms[0];
        let p50 = hs.p50.expect("non-empty stream has a median");
        let p99 = hs.p99.expect("non-empty stream has a p99");
        assert!((45.0..=55.0).contains(&p50), "p50 ≈ 50, got {p50}");
        assert!(p99 >= 95.0, "p99 near the top, got {p99}");
        assert_eq!(hs.max, Some(100.0), "max is exact");
    }

    #[test]
    fn unopenable_sink_degrades_instead_of_failing() {
        let t = Telemetry::to_jsonl_or_degraded("/nonexistent-dir/deeper/sink.jsonl");
        assert!(t.is_enabled(), "degraded handle still records metrics");
        assert!(!t.has_file_sink());
        t.counter("work").inc();
        let snap = t.snapshot();
        assert_eq!(snap.counter("telemetry.open_failures"), Some(1));
        assert_eq!(snap.counter("work"), Some(1));
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let t = Telemetry::with_ring_capacity(3);
        for k in 0..5u64 {
            t.emit(k as f64, Event::SensorDropout { sensor: k });
        }
        let recent = t.recent_events();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 2);
        assert_eq!(recent[2].seq, 4);
        assert_eq!(t.snapshot().events_total, 5);
    }

    #[test]
    fn events_count_by_kind() {
        let t = Telemetry::enabled();
        t.emit(
            0.0,
            Event::TimingViolation {
                tau: 63.0,
                setpoint: 64.0,
                margin: 1.0,
            },
        );
        t.emit(
            1.0,
            Event::TimingViolation {
                tau: 62.0,
                setpoint: 64.0,
                margin: 2.0,
            },
        );
        t.emit(
            2.0,
            Event::ControllerUpdate {
                delta: 1.0,
                length: 65.0,
            },
        );
        let snap = t.snapshot();
        assert_eq!(snap.event_count("TimingViolation"), 2);
        assert_eq!(snap.event_count("ControllerUpdate"), 1);
        assert_eq!(snap.event_count("RoSaturation"), 0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_records() {
        let path = std::env::temp_dir().join("clock-telemetry-test-sink.jsonl");
        let t = Telemetry::to_jsonl(&path).expect("temp file");
        t.emit(
            1.0,
            Event::RoSaturation {
                requested: 80.2,
                clamped: 76.0,
            },
        );
        t.emit(2.0, Event::SensorDropout { sensor: 1 });
        t.flush().expect("flush");
        let body = std::fs::read_to_string(&path).expect("read back");
        let records: Vec<EventRecord> = body
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL line"))
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert!(matches!(records[0].event, Event::RoSaturation { .. }));
        let _ = std::fs::remove_file(&path);
    }

    /// Dropping the last handle without an explicit flush must still land
    /// every buffered event on disk — the last events of a run are exactly
    /// the ones a crash-analysis needs, and a `BufWriter` silently dropped
    /// mid-buffer used to lose them.
    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path = std::env::temp_dir().join(format!(
            "clock-telemetry-drop-sink-{}.jsonl",
            std::process::id()
        ));
        {
            let t = Telemetry::to_jsonl(&path).expect("temp file");
            for k in 0..32u64 {
                t.emit(k as f64, Event::SensorDropout { sensor: k });
            }
            // no flush: the drop path owns persistence
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            body.lines().count(),
            32,
            "all events must survive an unflushed drop"
        );
        for line in body.lines() {
            let _: EventRecord = serde_json::from_str(line).expect("complete JSONL line");
        }
        let _ = std::fs::remove_file(&path);
    }
}
