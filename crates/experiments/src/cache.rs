//! The experiments-side view of the result cache: engine fingerprinting,
//! canonical key building for paper configurations, and the [`SweepCache`]
//! handle the sweeps consult per grid point.
//!
//! # What makes a key
//!
//! A cached result is only reusable if *every* input that can change the
//! numbers is part of its address. Keys therefore hash, in order:
//!
//! 1. the **engine fingerprint** ([`engine_fingerprint`]) — crate version
//!    plus the numeric-behaviour revisions of both simulation engines
//!    (`adaptive_clock::ENGINE_REV`, `dtsim::ENGINE_REV`). Bumping a
//!    revision retires every previously cached result at once;
//! 2. a **record kind** naming the payload schema (`"run-summary"`,
//!    `"fig7-errors"`, …);
//! 3. the full [`PaperParams`], the [`Scheme`] in its canonical
//!    serialization, the [`OperatingPoint`], and the explicit
//!    sample/warm-up budgets.
//!
//! The golden test in `tests/cache_keys.rs` pins one known tuple to its
//! hex digest, so any silent drift of the canonical encoding fails CI
//! instead of silently splitting (or worse, colliding) cache generations.
//!
//! # Counters
//!
//! Every lookup and store is mirrored onto the telemetry counters
//! `cache.hits`, `cache.misses` and `cache.bytes_written`, and the repro
//! CLI prints a hit/miss summary at end of run from [`SweepCache::stats`].

use std::path::Path;
use std::sync::Arc;

use adaptive_clock::system::Scheme;
use clock_rescache::{payload, Key, KeyHasher, Store, StoreStats};
use clock_telemetry::Telemetry;

use crate::config::PaperParams;
use crate::runner::OperatingPoint;

/// The engine fingerprint every cache key is namespaced under.
pub fn engine_fingerprint() -> String {
    format!(
        "adaptive-clock-repro/{}+core-r{}+dtsim-r{}",
        env!("CARGO_PKG_VERSION"),
        adaptive_clock::ENGINE_REV,
        dtsim::ENGINE_REV
    )
}

/// Start a canonical key for this engine generation.
pub fn key(kind: &str) -> KeyHasher {
    KeyHasher::new(&engine_fingerprint()).str("kind", kind)
}

/// Canonical-encoding extensions for the paper's configuration types.
pub trait CacheKeyExt: Sized {
    /// Hash every [`PaperParams`] field.
    #[must_use]
    fn params(self, params: &PaperParams) -> Self;
    /// Hash the scheme's canonical serialization.
    #[must_use]
    fn scheme(self, scheme: &Scheme) -> Self;
    /// Hash an operating point.
    #[must_use]
    fn point(self, point: OperatingPoint) -> Self;
}

impl CacheKeyExt for KeyHasher {
    fn params(self, params: &PaperParams) -> Self {
        self.i64("params.setpoint", params.setpoint)
            .f64("params.amplitude_frac", params.amplitude_frac)
            .u64("params.warmup", params.warmup as u64)
            .u64("params.min_samples", params.min_samples as u64)
            .u64("params.cycles", params.cycles as u64)
    }

    fn scheme(self, scheme: &Scheme) -> Self {
        self.str("scheme", &scheme.canonical_id())
    }

    fn point(self, point: OperatingPoint) -> Self {
        self.f64("point.t_clk_over_c", point.t_clk_over_c)
            .f64("point.te_over_c", point.te_over_c)
            .f64("point.mu_over_c", point.mu_over_c)
    }
}

/// The cache handle sweeps consult per grid point. A disabled handle turns
/// every lookup into a compute and every store into a no-op, so call sites
/// need no branching. Cloning shares the underlying store.
#[derive(Clone, Default)]
pub struct SweepCache {
    store: Option<Arc<Store>>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCache")
            .field("enabled", &self.is_enabled())
            .field("dir", &self.store.as_ref().and_then(|s| s.dir()))
            .finish()
    }
}

impl SweepCache {
    /// The no-op handle (same as `SweepCache::default()`).
    pub fn disabled() -> Self {
        SweepCache::default()
    }

    /// A persistent cache rooted at `dir`; hits/misses/bytes are mirrored
    /// onto `telemetry` counters.
    ///
    /// # Errors
    ///
    /// Fails only when the root directory cannot be created.
    pub fn persistent(dir: impl AsRef<Path>, telemetry: &Telemetry) -> std::io::Result<Self> {
        Ok(SweepCache {
            store: Some(Arc::new(Store::open(dir.as_ref())?)),
            telemetry: telemetry.clone(),
        })
    }

    /// [`persistent`](Self::persistent), degraded to no-cache on failure.
    ///
    /// A result cache is an accelerator, not a correctness dependency: a
    /// read-only filesystem or a bad path should cost cache reuse, never
    /// the run. Open failures are reported on stderr and counted under the
    /// `cache.open_failures` telemetry counter, and the returned handle
    /// turns every lookup into a compute.
    pub fn persistent_or_disabled(dir: impl AsRef<Path>, telemetry: &Telemetry) -> Self {
        let dir = dir.as_ref();
        match SweepCache::persistent(dir, telemetry) {
            Ok(cache) => cache,
            Err(e) => {
                telemetry.counter("cache.open_failures").inc();
                eprintln!(
                    "warning: cannot open result cache {}: {e}; continuing without a cache",
                    dir.display()
                );
                SweepCache::disabled()
            }
        }
    }

    /// A memory-only cache (deduplicates repeated points within one
    /// process; nothing survives it).
    pub fn in_memory(telemetry: &Telemetry) -> Self {
        SweepCache {
            store: Some(Arc::new(Store::in_memory())),
            telemetry: telemetry.clone(),
        }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// The same underlying store with a different telemetry handle — how
    /// the experiment service gives every job its own hit/miss counters
    /// while all jobs share one persistent cache.
    #[must_use]
    pub fn rebind_telemetry(&self, telemetry: &Telemetry) -> SweepCache {
        SweepCache {
            store: self.store.clone(),
            telemetry: telemetry.clone(),
        }
    }

    /// Look up a flat float record. `expect_len` guards the payload schema:
    /// a record of any other arity (a stale or foreign payload) is treated
    /// as a miss and will be overwritten by the recompute.
    pub fn get_f64s(&self, key: Key, expect_len: usize) -> Option<Vec<f64>> {
        self.lookup(key, Some(expect_len))
    }

    /// Look up a flat float record whose arity is data-dependent (windowed
    /// trace series); the caller owns schema validation.
    pub fn get_f64s_any(&self, key: Key) -> Option<Vec<f64>> {
        self.lookup(key, None)
    }

    /// The one lookup body: a record that is absent, undecodable or of the
    /// wrong arity counts as a miss, on the store's stats and on the
    /// telemetry counters alike.
    fn lookup(&self, key: Key, expect_len: Option<usize>) -> Option<Vec<f64>> {
        let store = self.store.as_ref()?;
        let _scope = self.telemetry.scope("cache.get");
        let decoded = store.get_with(key, |bytes| {
            payload::decode_f64s(&bytes)
                .filter(|values| expect_len.is_none_or(|n| values.len() == n))
        });
        match &decoded {
            Some(_) => self.telemetry.counter("cache.hits").inc(),
            None => self.telemetry.counter("cache.misses").inc(),
        }
        decoded
    }

    /// Store a flat float record.
    pub fn put_f64s(&self, key: Key, values: &[f64]) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let _scope = self.telemetry.scope("cache.put");
        let bytes = payload::encode_f64s(values);
        self.telemetry
            .counter("cache.bytes_written")
            .add(bytes.len() as u64 + clock_rescache::record::HEADER_LEN as u64);
        store.put(key, &bytes);
    }

    /// Traffic counters of the underlying store, when enabled.
    pub fn stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_both_engine_revisions() {
        let fp = engine_fingerprint();
        assert!(fp.contains("core-r"), "{fp}");
        assert!(fp.contains("dtsim-r"), "{fp}");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = SweepCache::disabled();
        let k = key("test").u64("x", 1).finish();
        assert!(!cache.is_enabled());
        assert!(cache.get_f64s(k, 1).is_none());
        cache.put_f64s(k, &[1.0]);
        assert!(cache.get_f64s(k, 1).is_none());
        assert!(cache.stats().is_none());
    }

    #[test]
    fn memory_cache_round_trips_and_counts() {
        let telemetry = Telemetry::enabled();
        let cache = SweepCache::in_memory(&telemetry);
        let k = key("test").u64("x", 2).finish();
        assert!(cache.get_f64s(k, 2).is_none());
        cache.put_f64s(k, &[1.5, -2.5]);
        assert_eq!(cache.get_f64s(k, 2), Some(vec![1.5, -2.5]));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert!(snap.counter("cache.bytes_written").unwrap_or(0) > 0);
    }

    #[test]
    fn unopenable_store_degrades_to_no_cache_and_counts() {
        let telemetry = Telemetry::enabled();
        // a path *under a regular file* can never become a directory
        let file = std::env::temp_dir().join(format!("cache-degrade-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let cache = SweepCache::persistent_or_disabled(file.join("store"), &telemetry);
        assert!(
            !cache.is_enabled(),
            "open failure must yield a no-op handle"
        );
        let k = key("test").u64("x", 9).finish();
        cache.put_f64s(k, &[1.0]);
        assert!(cache.get_f64s(k, 1).is_none(), "disabled handle never hits");
        assert_eq!(telemetry.snapshot().counter("cache.open_failures"), Some(1));
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn arity_mismatch_is_a_miss() {
        let cache = SweepCache::in_memory(&Telemetry::disabled());
        let k = key("test").u64("x", 3).finish();
        cache.put_f64s(k, &[1.0, 2.0, 3.0]);
        assert!(cache.get_f64s(k, 2).is_none(), "wrong arity must miss");
        assert!(cache.get_f64s(k, 3).is_some());
    }

    #[test]
    fn distinct_configurations_get_distinct_keys() {
        let params = PaperParams::default();
        let base = key("run-summary")
            .params(&params)
            .scheme(&Scheme::iir_paper())
            .point(OperatingPoint::new(1.0, 50.0))
            .finish();
        let other_scheme = key("run-summary")
            .params(&params)
            .scheme(&Scheme::TeaTime)
            .point(OperatingPoint::new(1.0, 50.0))
            .finish();
        let other_point = key("run-summary")
            .params(&params)
            .scheme(&Scheme::iir_paper())
            .point(OperatingPoint::new(1.0, 50.0).with_mu(0.1))
            .finish();
        let mut tweaked = params;
        tweaked.warmup += 1;
        let other_params = key("run-summary")
            .params(&tweaked)
            .scheme(&Scheme::iir_paper())
            .point(OperatingPoint::new(1.0, 50.0))
            .finish();
        let keys = [base, other_scheme, other_point, other_params];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(i == j, a == b, "keys {i} vs {j}");
            }
        }
    }
}
