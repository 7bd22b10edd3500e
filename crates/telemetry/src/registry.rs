//! Named metric registry: counters, gauges and fixed-bucket histograms.
//!
//! Resolution (name → handle) takes a registry lock; the handles
//! themselves are `Arc`ed atomics, so the hot path — `inc`, `add`,
//! `set`, `record` — is lock-free. Resolve handles once per region, not
//! per iteration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sketch::QuantileSketch;

/// A monotonically increasing `u64` metric.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    pub(crate) fn noop() -> Self {
        Counter { cell: None }
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Counter { cell: Some(cell) }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins `f64` metric (stored as bit pattern in an atomic).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    pub(crate) fn noop() -> Self {
        Gauge { cell: None }
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Gauge { cell: Some(cell) }
    }

    /// Overwrite the gauge with `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

struct HistogramCore {
    lo: f64,
    hi: f64,
    buckets: Vec<AtomicU64>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    dropped: AtomicU64,
    sketch: Mutex<QuantileSketch>,
}

/// A fixed-bucket histogram: `buckets` equal bins over `[lo, hi)` plus
/// explicit underflow/overflow edge bins, backed by a
/// [`QuantileSketch`] for p50/p90/p99/max. Out-of-range samples clamp to
/// the edge bins; non-finite samples (NaN/±inf) are **dropped** — they
/// count under [`HistogramSnapshot::dropped`] and never contaminate the
/// bins or the quantiles.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    pub(crate) fn noop() -> Self {
        Histogram { core: None }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        let Some(core) = &self.core else { return };
        if !v.is_finite() {
            core.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if v >= core.hi {
            core.overflow.fetch_add(1, Ordering::Relaxed);
        } else if v < core.lo {
            core.underflow.fetch_add(1, Ordering::Relaxed);
        } else {
            let frac = (v - core.lo) / (core.hi - core.lo);
            let idx = ((frac * core.buckets.len() as f64) as usize).min(core.buckets.len() - 1);
            core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
        core.sketch.lock().expect("histogram sketch lock").record(v);
    }
}

/// Point-in-time copy of a histogram's bins and quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Per-bin sample counts (equal bins over the configured range).
    pub buckets: Vec<u64>,
    /// Samples below the range (clamped to the lower edge bin).
    pub underflow: u64,
    /// Samples at/above the range (clamped to the upper edge bin).
    pub overflow: u64,
    /// Finite samples recorded (bins + underflow + overflow).
    pub count: u64,
    /// Non-finite samples dropped (excluded from `count` and quantiles).
    pub dropped: u64,
    /// Median from the quantile sketch (`None` while empty).
    pub p50: Option<f64>,
    /// 90th percentile from the quantile sketch.
    pub p90: Option<f64>,
    /// 99th percentile from the quantile sketch.
    pub p99: Option<f64>,
    /// Exact maximum of the stream.
    pub max: Option<f64>,
}

/// Point-in-time copy of every metric plus event-log accounting, filled
/// in by [`Telemetry::snapshot`](crate::Telemetry::snapshot).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Total events emitted (including those evicted from the ring).
    pub events_total: u64,
    /// `(kind, count)` per event kind, sorted by kind.
    pub events_by_kind: Vec<(String, u64)>,
}

impl Snapshot {
    /// Value of the counter `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Number of events of the given kind (0 if none were emitted).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.events_by_kind
            .iter()
            .find(|(n, _)| n == kind)
            .map_or(0, |(_, v)| *v)
    }
}

pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter registry lock");
        let cell = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter::live(Arc::clone(cell))
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge registry lock");
        let cell = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits())));
        Gauge::live(Arc::clone(cell))
    }

    pub(crate) fn histogram(&self, name: &str, lo: f64, hi: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo,
            "histogram needs lo < hi"
        );
        let mut map = self.histograms.lock().expect("histogram registry lock");
        let core = map.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(HistogramCore {
                lo,
                hi,
                buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
                underflow: AtomicU64::new(0),
                overflow: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                sketch: Mutex::new(QuantileSketch::new()),
            })
        });
        Histogram {
            core: Some(Arc::clone(core)),
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry lock")
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry lock")
            .iter()
            .map(|(n, c)| (n.clone(), f64::from_bits(c.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry lock")
            .iter()
            .map(|(n, core)| {
                let buckets: Vec<u64> = core
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let underflow = core.underflow.load(Ordering::Relaxed);
                let overflow = core.overflow.load(Ordering::Relaxed);
                let count = buckets.iter().sum::<u64>() + underflow + overflow;
                let sketch = core.sketch.lock().expect("histogram sketch lock");
                HistogramSnapshot {
                    name: n.clone(),
                    buckets,
                    underflow,
                    overflow,
                    count,
                    dropped: core.dropped.load(Ordering::Relaxed),
                    p50: sketch.quantile(0.5),
                    p90: sketch.quantile(0.9),
                    p99: sketch.quantile(0.99),
                    max: sketch.max(),
                }
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            events_total: 0,
            events_by_kind: Vec::new(),
        }
    }
}
