//! Durable on-disk store: job records, flow checkpoints, run artifacts.
//!
//! Layout under the store root:
//!
//! ```text
//! jobs/job-0000000007.rdpjob      versioned record (RDPSNAP, checksummed)
//! jobs/job-0000000007.ckpt        latest FlowCheckpoint of a running job
//! jobs/job-0000000007.run/        run-dir artifacts when capture is on
//! jobs/*.corrupt                  quarantined unreadable files
//! ```
//!
//! Every write is atomic: bytes land in a `.tmp` sibling, are fsynced,
//! and are renamed into place — a `kill -9` at any instant leaves either
//! the old file, the new file, or a dead `.tmp` that recovery deletes.
//! The queue is implicit: [`Store::scan`] loads records in ascending id
//! order, requeues `running` jobs (the crash evidence), quarantines
//! anything unreadable, and never panics on hostile bytes.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rdp_core::FlowCheckpoint;
use rdp_guard::RdpError;
use rdp_obs::{export_jsonl, export_metrics_json, Collector};

use crate::job::{JobRecord, JobState};

/// Extension of durable job records.
const RECORD_EXT: &str = "rdpjob";
/// Extension of persisted flow checkpoints.
const CKPT_EXT: &str = "ckpt";

/// What [`Store::scan`] found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Records loaded successfully.
    pub recovered: usize,
    /// `running` records demoted back to `queued` (killed mid-job).
    pub requeued_running: usize,
    /// File names renamed to `*.corrupt` (unreadable record/checkpoint).
    pub quarantined: Vec<String>,
    /// Leftover `.tmp` files deleted (torn writes).
    pub cleaned_tmp: usize,
}

impl RecoveryReport {
    /// One-line human summary for server startup logs.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} job(s): {} requeued from running, {} quarantined, {} torn tmp file(s) removed",
            self.recovered,
            self.requeued_running,
            self.quarantined.len(),
            self.cleaned_tmp
        )
    }
}

/// Writes `bytes` to `path` atomically (tmp + fsync + rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RdpError> {
    write_atomic_impl(path, bytes, true)
}

/// Atomic write *without* the fsync: tmp + rename only.
///
/// After a crash the renamed file may hold stale or torn bytes (the
/// rename can reach disk before the data), so this is only for files
/// whose readers verify a checksum and degrade gracefully on mismatch —
/// the per-iteration checkpoint/accounting hot path, where a lost write
/// costs re-computation, never correctness. Authoritative state
/// transitions (submit, claim, settle) use [`write_atomic`].
pub fn write_atomic_relaxed(path: &Path, bytes: &[u8]) -> Result<(), RdpError> {
    write_atomic_impl(path, bytes, false)
}

fn write_atomic_impl(path: &Path, bytes: &[u8], sync: bool) -> Result<(), RdpError> {
    let tmp = tmp_sibling(path);
    let io = |what: &str, e: std::io::Error| {
        RdpError::checkpoint(format!("{what} {}: {e}", path.display()))
    };
    {
        let mut f = File::create(&tmp).map_err(|e| io("create", e))?;
        f.write_all(bytes).map_err(|e| io("write", e))?;
        if sync {
            f.sync_all().map_err(|e| io("sync", e))?;
        }
    }
    fs::rename(&tmp, path).map_err(|e| io("rename", e))
}

/// Writes a run directory for `rdp report` / `rdp diff`: `obs` exported
/// as `trace.jsonl` and `metrics.json`, each atomically, so a kill
/// mid-write leaves at worst a `.tmp` leftover that `rdp report` flags as
/// a partial run. The one run-dir writer: the CLI, a capturing job,
/// `rdp matrix` and the service-session export all use it.
pub fn write_run_dir(dir: &Path, obs: &Collector) -> Result<(), RdpError> {
    fs::create_dir_all(dir)
        .map_err(|e| RdpError::checkpoint(format!("create {}: {e}", dir.display())))?;
    write_atomic(&dir.join("trace.jsonl"), export_jsonl(obs).as_bytes())?;
    write_atomic(
        &dir.join("metrics.json"),
        export_metrics_json(obs).as_bytes(),
    )
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The durable store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    jobs: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: &Path) -> Result<Store, RdpError> {
        let jobs = root.join("jobs");
        fs::create_dir_all(&jobs)
            .map_err(|e| RdpError::checkpoint(format!("create {}: {e}", jobs.display())))?;
        Ok(Store { jobs })
    }

    /// Path of a job's record file.
    pub fn record_path(&self, id: u64) -> PathBuf {
        self.jobs.join(format!("job-{id:010}.{RECORD_EXT}"))
    }

    /// Path of a job's checkpoint file.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.jobs.join(format!("job-{id:010}.{CKPT_EXT}"))
    }

    /// Path of a job's run-dir (artifacts for `rdp report` / `rdp diff`).
    pub fn run_dir(&self, id: u64) -> PathBuf {
        self.jobs.join(format!("job-{id:010}.run"))
    }

    /// Persists a record atomically.
    pub fn persist_record(&self, rec: &JobRecord) -> Result<(), RdpError> {
        write_atomic(&self.record_path(rec.id), &rec.to_bytes())
    }

    /// Persists a flow checkpoint atomically. Checkpoints skip the
    /// fsync: they are written once per routability iteration, and a
    /// checkpoint lost (or torn) in a crash only means the job restarts
    /// fresh — [`Store::load_checkpoint`] checksums every read and the
    /// flow is deterministic, so the final result is bitwise-identical
    /// either way.
    pub fn persist_checkpoint(&self, id: u64, bytes: &[u8]) -> Result<(), RdpError> {
        write_atomic_relaxed(&self.checkpoint_path(id), bytes)
    }

    /// Persists a record atomically without the fsync — only for the
    /// per-checkpoint `consumed_ms` accounting rewrite of a `running`
    /// record, where a write lost in a crash merely under-counts the
    /// wall-clock budget by one checkpoint interval.
    pub fn persist_record_relaxed(&self, rec: &JobRecord) -> Result<(), RdpError> {
        write_atomic_relaxed(&self.record_path(rec.id), &rec.to_bytes())
    }

    /// Loads a job's checkpoint. `Ok(None)` when none exists; a corrupt
    /// checkpoint is a typed error (callers quarantine and start fresh).
    pub fn load_checkpoint(&self, id: u64) -> Result<Option<FlowCheckpoint>, RdpError> {
        let path = self.checkpoint_path(id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(RdpError::checkpoint(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        };
        FlowCheckpoint::from_bytes(&bytes).map(Some)
    }

    /// Removes a job's checkpoint (job finished or retries from scratch).
    pub fn remove_checkpoint(&self, id: u64) {
        let _ = fs::remove_file(self.checkpoint_path(id));
    }

    /// Renames an unreadable file to `<name>.corrupt` so it stops
    /// poisoning recovery but remains available for forensics. Returns
    /// the file name that was quarantined.
    pub fn quarantine(&self, path: &Path) -> String {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let mut os = path.as_os_str().to_os_string();
        os.push(".corrupt");
        let _ = fs::rename(path, PathBuf::from(os));
        name
    }

    /// Scans the store: loads every record in ascending id order,
    /// requeues `running` jobs, deletes torn `.tmp` files, quarantines
    /// unreadable records and checkpoints. Never panics on hostile bytes.
    pub fn scan(&self) -> Result<(BTreeMap<u64, JobRecord>, RecoveryReport), RdpError> {
        let mut report = RecoveryReport::default();
        let mut records = BTreeMap::new();
        let entries = fs::read_dir(&self.jobs)
            .map_err(|e| RdpError::checkpoint(format!("read {}: {e}", self.jobs.display())))?;
        let mut record_files: Vec<PathBuf> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // A torn write: the rename never happened, the real file
                // (if any) is intact. Safe to delete.
                let _ = fs::remove_file(&path);
                report.cleaned_tmp += 1;
            } else if name.ends_with(&format!(".{RECORD_EXT}")) {
                record_files.push(path);
            }
        }
        record_files.sort();
        for path in record_files {
            let rec = fs::read(&path)
                .map_err(|e| RdpError::checkpoint(format!("read {}: {e}", path.display())))
                .and_then(|bytes| JobRecord::from_bytes(&bytes));
            let mut rec = match rec {
                Ok(rec) => rec,
                Err(_) => {
                    report.quarantined.push(self.quarantine(&path));
                    continue;
                }
            };
            if rec.state == JobState::Running {
                // The server died mid-job. Requeue; a persisted checkpoint
                // resumes the flow bitwise, a missing one restarts it —
                // both produce the uninterrupted run's exact results.
                rec.state = JobState::Queued;
                report.requeued_running += 1;
                self.persist_record(&rec)?;
            }
            report.recovered += 1;
            records.insert(rec.id, rec);
        }
        // Validate checkpoints of queued jobs up front so a corrupt one is
        // quarantined once at startup instead of failing the job later.
        let ids: Vec<u64> = records
            .values()
            .filter(|r| r.state == JobState::Queued)
            .map(|r| r.id)
            .collect();
        for id in ids {
            if let Err(_e) = self.load_checkpoint(id) {
                let path = self.checkpoint_path(id);
                report.quarantined.push(self.quarantine(&path));
            }
        }
        Ok((records, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use rdp_guard::SnapshotWriter;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdp-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(id: u64) -> JobRecord {
        JobRecord::queued(
            id,
            JobSpec {
                input: "fft_1".into(),
                ..JobSpec::default()
            },
        )
    }

    #[test]
    fn scan_orders_requeues_and_cleans() {
        let root = tmp_root("scan");
        let store = Store::open(&root).unwrap();
        let mut running = rec(2);
        running.state = JobState::Running;
        store.persist_record(&rec(10)).unwrap();
        store.persist_record(&running).unwrap();
        store.persist_record(&rec(1)).unwrap();
        // A torn write and a stray tmp checkpoint.
        fs::write(store.jobs.join("job-0000000009.rdpjob.tmp"), b"torn").unwrap();
        fs::write(store.jobs.join("job-0000000002.ckpt.tmp"), b"torn").unwrap();

        let (records, report) = store.scan().unwrap();
        assert_eq!(records.keys().copied().collect::<Vec<_>>(), vec![1, 2, 10]);
        assert_eq!(records[&2].state, JobState::Queued);
        assert_eq!(report.recovered, 3);
        assert_eq!(report.requeued_running, 1);
        assert_eq!(report.cleaned_tmp, 2);
        assert!(report.quarantined.is_empty());
        // The requeue was persisted, not just in-memory.
        let again = JobRecord::from_bytes(&fs::read(store.record_path(2)).unwrap()).unwrap();
        assert_eq!(again.state, JobState::Queued);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_record_and_checkpoint_are_quarantined() {
        let root = tmp_root("corrupt");
        let store = Store::open(&root).unwrap();
        store.persist_record(&rec(1)).unwrap();
        let mut bytes = rec(2).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(store.record_path(2), &bytes).unwrap();
        store.persist_checkpoint(1, b"garbage-checkpoint").unwrap();

        // Intact files from builds with older formats, each laid out as
        // that build wrote it: version-2 (jobs 3, 4) and version-3 (jobs
        // 5, 6) records and checkpoints. None may be misread as the
        // current version. The layouts differ only in the record's flag
        // and override words and the version-2 checkpoint's predictor.
        for (version, record_words, predictor) in [(2, 15, true), (3, 9, false)] {
            let id = 2 * version as u64 - 1;
            let mut w = SnapshotWriter::new(version);
            w.put_u64(id);
            for _ in 0..3 {
                w.put_u64(0); // state: queued, attempt, consumed_ms
            }
            w.put_str("fft_1");
            w.put_str("ours");
            // fast, capture, (v2: incremental,) max_retries; deadline and
            // iteration overrides absent; (v2: predict off, its four
            // overrides absent;) no error; no result.
            for _ in 0..record_words {
                w.put_u64(0);
            }
            fs::write(store.record_path(id), w.finish()).unwrap();

            store.persist_record(&rec(id + 1)).unwrap();
            let mut w = SnapshotWriter::new(version);
            w.put_u64(1); // next_route_iter
            w.put_u64(0); // gp_iterations
            w.put_points(&[]); // positions
            w.put_points(&[]); // session positions
            for _ in 0..3 {
                w.put_f64(1.0); // lambda1, last_overflow, gamma_boost
            }
            w.put_u64(0); // steps_done
            for _ in 0..4 {
                w.put_f64s(&[]); // inflation r, effective, delta_r, c_prev
            }
            w.put_f64(0.0); // inflation mean_prev
            w.put_u64(0); // inflation t
            w.put_f64(f64::INFINITY); // best_penalty
            for _ in 0..5 {
                w.put_u64(0); // stale, no best, empty log, no warnings, rollbacks
            }
            if predictor {
                w.put_u64(0); // no predictor
            }
            store.persist_checkpoint(id + 1, &w.finish()).unwrap();
        }

        let (records, report) = store.scan().unwrap();
        assert_eq!(records.keys().copied().collect::<Vec<_>>(), vec![1, 4, 6]);
        assert_eq!(report.quarantined.len(), 6, "{report:?}");
        for id in [2, 3, 5] {
            assert!(store
                .jobs
                .join(format!("job-{id:010}.rdpjob.corrupt"))
                .exists());
        }
        // The quarantined checkpoints no longer block their jobs.
        for id in [1, 4, 6] {
            assert!(store.load_checkpoint(id).unwrap().is_none());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let root = tmp_root("atomic");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("file.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!tmp_sibling(&path).exists());
        let _ = fs::remove_dir_all(&root);
    }
}
