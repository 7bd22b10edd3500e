//! The write-ahead job journal: an append-only log with one JSON line
//! per job state transition, compacted into a snapshot at startup.
//!
//! The first line is a snapshot, `{"version":2,"next_id":N,"jobs":[…]}`;
//! every later line is one [`JobRecord`] as it stood after a transition.
//! A v1 journal, the whole-file snapshot of older builds, is exactly such
//! a first line, so it loads unchanged. Appending one line costs the same
//! whatever the number of jobs served.
//!
//! Write-ahead means a transition is appended *before* it becomes visible
//! (the server appends under its state lock), so a job is journaled as
//! `Queued` before any worker can see it and a crash can never run work
//! the journal does not know about. Nothing is fsynced: an append is one
//! `write`, durable against a process crash, not a power cut. On restart,
//! [`Journal::load`] folds the lines (the last line per id wins) and
//! marks every non-terminal job `Interrupted`: completed work is kept
//! (never re-run — resubmitting the same spec is answered by the result
//! cache), and half-done work is visible as such instead of silently
//! vanishing. The server then compacts the folded state back into a
//! one-line snapshot with [`Journal::persist`] (temp + rename, the
//! rescache discipline) before it serves.
//!
//! Corruption tolerance matches rescache: a garbled first line (a crash
//! mid-rename on an exotic filesystem, a stray editor) is set aside as
//! `journal.corrupt` and the journal reads as empty; a torn last line (a
//! crash mid-append) ends the replay there. The service must start from
//! arbitrary on-disk state.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::job::{JobRecord, JobState};

/// The journal's first line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Snapshot {
    /// Schema version: 1 is a bare snapshot, 2 may be followed by
    /// appended records.
    version: u64,
    /// The next job id to assign.
    next_id: u64,
    /// Every job record, id-ordered.
    jobs: Vec<JobRecord>,
}

/// Append-only job log at a fixed path.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    seq: AtomicU64,
    /// The open append handle; `None` until the first append after
    /// construction or after [`Journal::persist`] replaced the file.
    log: Mutex<Option<File>>,
}

/// What [`Journal::load`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The next job id to assign (1 on a fresh journal).
    pub next_id: u64,
    /// Replayed records, id-ordered, with every non-terminal state marked
    /// [`JobState::Interrupted`].
    pub jobs: Vec<JobRecord>,
    /// How many jobs were marked interrupted during replay.
    pub interrupted: usize,
}

impl Recovered {
    fn empty() -> Recovered {
        Recovered {
            next_id: 1,
            jobs: Vec::new(),
            interrupted: 0,
        }
    }
}

impl Journal {
    /// A journal at `path` (nothing is read or written yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal {
            path: path.into(),
            seq: AtomicU64::new(0),
            log: Mutex::new(None),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replay the log: the snapshot line, then every appended record, the
    /// last line per id winning. A missing file yields an empty journal
    /// (`next_id` 1), and so does a corrupt first line, which is renamed
    /// to `*.corrupt`; replay stops at the first later line that does not
    /// parse (a torn append). Jobs left `Queued`/`Running` by a dead
    /// server come back `Interrupted` with the reason in `detail`.
    pub fn load(&self) -> Recovered {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return Recovered::empty();
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let Some(first) = lines.next() else {
            return Recovered::empty();
        };
        let Some(first) = parse_first(first) else {
            // Start fresh, but keep the evidence aside instead of
            // overwriting it.
            let _ = std::fs::rename(&self.path, self.path.with_extension("corrupt"));
            return Recovered::empty();
        };
        let mut jobs: BTreeMap<u64, JobRecord> =
            first.jobs.into_iter().map(|j| (j.id, j)).collect();
        for line in lines {
            let Ok(job) = serde_json::from_str::<JobRecord>(line) else {
                break;
            };
            jobs.insert(job.id, job);
        }
        let mut interrupted = 0;
        let mut jobs: Vec<JobRecord> = jobs.into_values().collect();
        for job in &mut jobs {
            if !job.state.is_terminal() {
                job.state = JobState::Interrupted;
                job.detail = "server stopped while the job was in flight".to_owned();
                interrupted += 1;
            }
        }
        let max_id = jobs.last().map_or(0, |j| j.id);
        Recovered {
            next_id: first.next_id.max(max_id + 1).max(1),
            jobs,
            interrupted,
        }
    }

    /// Append one record as it stands after a transition: one line, one
    /// `write`. Errors are returned, not panicked: the server degrades to
    /// journal-less operation (and says so) rather than dying on a full
    /// disk.
    pub fn append(&self, job: &JobRecord) -> std::io::Result<()> {
        let mut line =
            serde_json::to_string(job).map_err(|e| std::io::Error::other(e.to_string()))?;
        line.push('\n');
        let mut log = self.log.lock().expect("journal log lock");
        if log.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            *log = Some(file);
        }
        log.as_mut()
            .expect("opened above")
            .write_all(line.as_bytes())
    }

    /// Atomically replace the log with a one-line snapshot of the full
    /// record set (temp + rename): the startup compaction. Later appends
    /// go to the new file.
    pub fn persist(&self, next_id: u64, jobs: &[JobRecord]) -> std::io::Result<()> {
        let snapshot = Snapshot {
            version: 2,
            next_id,
            jobs: jobs.to_vec(),
        };
        let mut text =
            serde_json::to_string(&snapshot).map_err(|e| std::io::Error::other(e.to_string()))?;
        text.push('\n');
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Unique temp name (pid + per-journal sequence) so concurrent
        // persists never collide, then the atomic rename.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .path
            .with_extension(format!("tmp-{}-{seq}", std::process::id()));
        std::fs::write(&tmp, text)?;
        let renamed = std::fs::rename(&tmp, &self.path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        *self.log.lock().expect("journal log lock") = None;
        renamed
    }
}

/// The first line: a snapshot, or a record when the log was appended to
/// without a snapshot before it.
fn parse_first(line: &str) -> Option<Snapshot> {
    serde_json::from_str::<Snapshot>(line).ok().or_else(|| {
        let job = serde_json::from_str::<JobRecord>(line).ok()?;
        Some(Snapshot {
            version: 2,
            next_id: job.id + 1,
            jobs: vec![job],
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn record(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id,
            spec: JobSpec {
                experiment: "fig8".to_owned(),
                quick: true,
                timeout_ms: 0,
            },
            state,
            detail: String::new(),
            dedupe_key: format!("key-{id}"),
            deduped: false,
        }
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn missing_journal_is_empty() {
        let j = Journal::new(tmp_path("missing").join("journal.json"));
        let r = j.load();
        assert_eq!(r.next_id, 1);
        assert!(r.jobs.is_empty());
    }

    #[test]
    fn round_trip_marks_inflight_interrupted() {
        let dir = tmp_path("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("journal.json"));
        let jobs = vec![
            record(1, JobState::Completed),
            record(2, JobState::Running),
            record(3, JobState::Queued),
            record(4, JobState::Cancelled),
        ];
        j.persist(5, &jobs).expect("persist");
        let r = j.load();
        assert_eq!(r.next_id, 5);
        assert_eq!(r.interrupted, 2);
        assert_eq!(r.jobs[0].state, JobState::Completed);
        assert_eq!(r.jobs[1].state, JobState::Interrupted);
        assert_eq!(r.jobs[2].state, JobState::Interrupted);
        assert_eq!(r.jobs[3].state, JobState::Cancelled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_starts_fresh_and_keeps_evidence() {
        let dir = tmp_path("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.json");
        let good = serde_json::to_string(&record(1, JobState::Completed)).expect("json");
        let text = format!("{{\"version\":1,\"next_id\":9,\"jo\n{good}\n");
        std::fs::write(&path, text).expect("write");
        let j = Journal::new(&path);
        let r = j.load();
        assert_eq!(r.next_id, 1);
        assert!(r.jobs.is_empty());
        assert!(
            path.with_extension("corrupt").exists(),
            "corrupt snapshot must be kept aside"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_fold_last_write_per_id() {
        let dir = tmp_path("fold");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("journal.json"));
        j.persist(1, &[]).expect("persist");
        for (id, state) in [
            (1, JobState::Queued),
            (2, JobState::Queued),
            (1, JobState::Running),
            (1, JobState::Completed),
            (2, JobState::Cancelled),
        ] {
            j.append(&record(id, state)).expect("append");
        }
        let r = j.load();
        assert_eq!(r.interrupted, 0);
        assert_eq!(
            r.jobs,
            vec![
                record(1, JobState::Completed),
                record(2, JobState::Cancelled)
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_id_is_monotone_across_appends() {
        let dir = tmp_path("monotone");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("journal.json"));
        j.persist(4, &[record(3, JobState::Completed)])
            .expect("persist");
        let mut last = j.load().next_id;
        assert_eq!(last, 4);
        for id in 4..9 {
            j.append(&record(id, JobState::Queued)).expect("append");
            let next = j.load().next_id;
            assert!(next > last, "next_id {next} after {last}");
            assert_eq!(next, id + 1);
            last = next;
        }
        // An append without any snapshot before it still replays.
        let bare = Journal::new(dir.join("bare.json"));
        bare.append(&record(5, JobState::Completed))
            .expect("append");
        let r = bare.load();
        assert_eq!((r.next_id, r.jobs.len()), (6, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_last_line_ends_the_replay() {
        let dir = tmp_path("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.json");
        let j = Journal::new(&path);
        j.persist(1, &[]).expect("persist");
        j.append(&record(1, JobState::Queued)).expect("append");
        j.append(&record(1, JobState::Running)).expect("append");
        let whole = serde_json::to_string(&record(1, JobState::Completed)).expect("json");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(&whole[..whole.len() / 2]);
        std::fs::write(&path, text).expect("tear");
        let r = j.load();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(
            r.jobs[0].state,
            JobState::Interrupted,
            "the torn line is ignored"
        );
        assert_eq!(r.next_id, 2);
        assert!(path.exists(), "a torn tail is not corruption");
        assert!(!path.with_extension("corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_snapshot_still_loads() {
        let dir = tmp_path("v1");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.json");
        // What the whole-snapshot journal wrote: one line, no newline.
        let v1 = format!(
            "{{\"version\":1,\"next_id\":6,\"jobs\":[{},{}]}}",
            serde_json::to_string(&record(2, JobState::Completed)).expect("json"),
            serde_json::to_string(&record(5, JobState::Running)).expect("json"),
        );
        std::fs::write(&path, v1).expect("write v1");
        let j = Journal::new(&path);
        let r = j.load();
        assert_eq!(r.next_id, 6);
        assert_eq!(r.interrupted, 1);
        assert_eq!(r.jobs[0], record(2, JobState::Completed));
        assert_eq!(r.jobs[1].state, JobState::Interrupted);
        // Compaction rewrites it as a v2 snapshot that appends can follow.
        j.persist(r.next_id, &r.jobs).expect("compact");
        j.append(&record(6, JobState::Queued)).expect("append");
        let again = j.load();
        assert_eq!(again.jobs.len(), 3);
        assert_eq!(again.next_id, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_leaves_one_snapshot_line_with_the_same_state() {
        let dir = tmp_path("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.json");
        let j = Journal::new(&path);
        j.persist(1, &[]).expect("persist");
        for id in 1..=20 {
            j.append(&record(id, JobState::Queued)).expect("append");
            j.append(&record(id, JobState::Completed)).expect("append");
        }
        let before = j.load();
        j.persist(before.next_id, &before.jobs).expect("compact");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 1, "{text}");
        let after = j.load();
        assert_eq!(after.jobs, before.jobs);
        assert_eq!(after.next_id, 21);
        // The append handle follows the rename to the new file.
        j.append(&record(21, JobState::Queued)).expect("append");
        assert_eq!(j.load().jobs.len(), 21);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_id_never_collides_with_replayed_ids() {
        let dir = tmp_path("nextid");
        let _ = std::fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("journal.json"));
        // A snapshot whose next_id lags its own records (e.g. written by
        // an older build with a bug) must still come back collision-free.
        j.persist(2, &[record(7, JobState::Completed)])
            .expect("persist");
        let r = j.load();
        assert_eq!(r.next_id, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
