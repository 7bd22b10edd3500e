//! The sharded, content-addressed result store.
//!
//! One record per key, at `dir/<first-2-hex>/<remaining-30-hex>.rec`.
//! Writes go through a temp file in the shard directory followed by a
//! rename, so a concurrent reader (or a crash) can never observe a
//! half-written record — at worst it sees the old record or none. Reads
//! fill a process-local in-memory map, so a sweep that revisits a key pays
//! the disk once.
//!
//! The store never propagates I/O or decode failures to a sweep: a bad
//! record is counted, skipped (and best-effort deleted so it repairs
//! itself), and reported as a miss; a failed write is counted and the
//! result simply stays uncached.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::key::Key;
use crate::record;

/// Extension of record files.
const RECORD_EXT: &str = "rec";

/// Monotonic counters describing one store's traffic.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_written: AtomicU64,
    corrupt_skipped: AtomicU64,
    write_errors: AtomicU64,
}

/// A point-in-time copy of a store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Record bytes written to disk (header + payload).
    pub bytes_written: u64,
    /// Records skipped because they failed validation.
    pub corrupt_skipped: u64,
    /// Writes that failed at the filesystem level.
    pub write_errors: u64,
}

impl StoreStats {
    /// Hit rate in `[0, 1]`; zero traffic counts as 0.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The content-addressed store: optional disk backing plus an in-memory
/// read-through layer. Cheap to clone behind an [`Arc`]; all methods take
/// `&self` and are safe to call from sweep worker threads.
#[derive(Debug)]
pub struct Store {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<Key, Arc<[u8]>>>,
    counters: Counters,
    tmp_seq: AtomicU64,
}

impl Store {
    /// Open (creating if needed) a persistent store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails only when the root directory cannot be created — after that,
    /// every individual record failure is tolerated silently.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store {
            dir: Some(dir),
            mem: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// A memory-only store (nothing survives the process; useful for tests
    /// and for deduplicating repeated points inside one run).
    pub fn in_memory() -> Self {
        Store {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The disk root, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn record_path(&self, key: Key) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let (shard, stem) = key.shard_parts();
        Some(dir.join(shard).join(format!("{stem}.{RECORD_EXT}")))
    }

    /// Look up a payload. Consults the in-memory layer first, then disk;
    /// every outcome is counted.
    pub fn get(&self, key: Key) -> Option<Arc<[u8]>> {
        self.get_with(key, Some)
    }

    /// Look up a payload and let `accept` judge it: the lookup counts as a
    /// hit only when the payload is found *and* `accept` turns it into a
    /// value, so a payload the caller cannot use (a stale schema, the
    /// wrong length) counts as the miss the caller treats it as.
    pub fn get_with<T>(&self, key: Key, accept: impl FnOnce(Arc<[u8]>) -> Option<T>) -> Option<T> {
        let found = self.fetch(key).and_then(accept);
        let counter = match found {
            Some(_) => &self.counters.hits,
            None => &self.counters.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The payload under `key`, from memory or else from disk (a bad
    /// record is counted, deleted and reported as absent).
    fn fetch(&self, key: Key) -> Option<Arc<[u8]>> {
        if let Some(hit) = self.mem.lock().expect("cache map lock").get(&key) {
            return Some(Arc::clone(hit));
        }
        let path = self.record_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        match record::decode(key, &bytes) {
            Ok(payload) => {
                let payload: Arc<[u8]> = payload.into();
                self.mem
                    .lock()
                    .expect("cache map lock")
                    .insert(key, Arc::clone(&payload));
                Some(payload)
            }
            Err(_) => {
                // Self-repair: drop the bad record so the next run rewrites
                // it; failure to delete is itself tolerated.
                let _ = std::fs::remove_file(&path);
                self.counters
                    .corrupt_skipped
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a payload under `key`: into memory always, and to disk (temp
    /// file + rename) when persistent. Never fails; filesystem errors are
    /// counted on [`StoreStats::write_errors`].
    pub fn put(&self, key: Key, payload: &[u8]) {
        let shared: Arc<[u8]> = payload.to_vec().into();
        self.mem.lock().expect("cache map lock").insert(key, shared);
        let Some(path) = self.record_path(key) else {
            return;
        };
        let bytes = record::encode(key, payload);
        match self.write_atomic(&path, &bytes) {
            Ok(()) => {
                self.counters
                    .bytes_written
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let shard_dir = path.parent().expect("record paths have a shard parent");
        std::fs::create_dir_all(shard_dir)?;
        // Temp names are unique per (process, sequence), so parallel
        // writers in this or another process never collide mid-write.
        let tmp = shard_dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            corrupt_skipped: self.counters.corrupt_skipped.load(Ordering::Relaxed),
            write_errors: self.counters.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyHasher;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rescache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Key {
        KeyHasher::new("store-test").u64("n", n).finish()
    }

    #[test]
    fn memory_store_round_trips() {
        let store = Store::in_memory();
        assert!(store.get(key(1)).is_none());
        store.put(key(1), b"payload");
        assert_eq!(store.get(key(1)).as_deref(), Some(b"payload".as_ref()));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.bytes_written), (1, 1, 0));
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = Store::open(&dir).unwrap();
            store.put(key(2), b"persisted");
            assert!(store.stats().bytes_written > 0);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(key(2)).as_deref(), Some(b"persisted".as_ref()));
        assert_eq!(store.stats().hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_is_skipped_and_removed() {
        let dir = tmp_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        store.put(key(3), b"will be damaged");
        let path = store.record_path(key(3)).unwrap();
        // Flip one payload byte on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh store (cold memory layer) must treat it as a miss...
        let fresh = Store::open(&dir).unwrap();
        assert!(fresh.get(key(3)).is_none());
        let s = fresh.stats();
        assert_eq!((s.misses, s.corrupt_skipped), (1, 1));
        // ...and the bad record is gone, so a re-put repairs the cache.
        assert!(!path.exists());
        fresh.put(key(3), b"repaired");
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.get(key(3)).as_deref(), Some(b"repaired".as_ref()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_record_is_a_miss_not_a_panic() {
        let dir = tmp_dir("truncated");
        let store = Store::open(&dir).unwrap();
        store.put(key(4), b"0123456789");
        let path = store.record_path(key(4)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let fresh = Store::open(&dir).unwrap();
        assert!(fresh.get(key(4)).is_none());
        assert_eq!(fresh.stats().corrupt_skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_writers_and_readers_are_consistent() {
        let dir = tmp_dir("parallel");
        let store = Arc::new(Store::open(&dir).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let k = key(t * 100 + i);
                        store.put(k, format!("value-{t}-{i}").as_bytes());
                        assert_eq!(
                            store.get(k).as_deref(),
                            Some(format!("value-{t}-{i}").as_bytes())
                        );
                    }
                });
            }
        });
        // Everything is re-readable from a cold store.
        let fresh = Store::open(&dir).unwrap();
        for t in 0..4u64 {
            for i in 0..25u64 {
                assert_eq!(
                    fresh.get(key(t * 100 + i)).as_deref(),
                    Some(format!("value-{t}-{i}").as_bytes())
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_payload_the_caller_refuses_counts_as_a_miss() {
        let store = Store::in_memory();
        store.put(key(7), b"abc");
        assert_eq!(
            store.get_with(key(7), |p| (p.len() == 2).then_some(())),
            None
        );
        assert_eq!(store.get_with(key(7), |p| Some(p.len())), Some(3));
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn hit_rate_accounting() {
        let store = Store::in_memory();
        assert_eq!(store.stats().hit_rate(), 0.0);
        store.put(key(5), b"x");
        store.get(key(5));
        store.get(key(6));
        assert!((store.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
