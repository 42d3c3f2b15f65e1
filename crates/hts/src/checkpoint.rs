//! Campaign durability: a crash-safe checkpoint manifest.
//!
//! The paper's pipeline was "tailored for fault tolerance" (§4.2) because
//! at Lassen scale node deaths and broken pipes are routine. The
//! [`scheduler`](crate::scheduler) already reschedules failed *jobs*; this
//! module makes the *driver* itself restartable. Every terminal job event
//! (completed or abandoned) is journaled to an append-only manifest file,
//! and [`resume_campaign`](crate::scheduler::resume_campaign) replays the
//! journal to skip finished work, producing a result set bit-identical to
//! an uninterrupted run.
//!
//! ## Manifest format
//!
//! ```text
//! [magic "DFCP" | version u32]
//! repeated entries:
//!   [payload_len u32][fnv1a64(payload) u64][payload bytes (JSON ManifestEntry)]
//! ```
//!
//! Crash-safety contract:
//!
//! * every entry is `sync_data`ed before [`CheckpointWriter::append`]
//!   returns, so a journaled job survives a driver kill at any later point;
//! * a driver killed *mid-append* leaves a torn tail — on load the first
//!   frame that is truncated or fails its checksum ends the parse, the
//!   tail is dropped, and reopening for append truncates the file back to
//!   the last good entry so new entries stay parseable;
//! * a manifest whose header is unreadable is rejected with
//!   [`CheckpointError::Corrupt`], never a panic.
//!
//! Completed entries do not journal the records themselves — those already
//! live in the job's (atomically written) rank `.dfh5` files. A
//! [`JobSummary`] records the file list, record count, fault log and
//! timing; [`reconstruct_output`] reads the rank files back and re-derives
//! the exact allgather record order, so a restored [`JobOutput`] is
//! bit-identical to the one the crashed run held in memory.
//!
//! Journaled specs carry their [`TaskClass`](crate::job::TaskClass) tag,
//! so a heterogeneous campaign resumes each job onto the lane (and the
//! class-scaled fault stream) it originally ran under. Manifests written
//! before task classes existed have no `class` key; those specs decode as
//! `Dock` — the only class such campaigns ran — and resume bit-identically.

use crate::h5lite::{read_file, H5Error, ScoreRecord};
use crate::job::{JobConfig, JobOutput, JobSpec, JobTiming};
use dftensor::hash::fnv1a64;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DFCP";
const VERSION: u32 = 1;
/// Upper bound on one entry's payload; anything larger is treated as a
/// torn/corrupt frame rather than an allocation request.
const MAX_ENTRY_BYTES: usize = 64 << 20;

/// Errors from checkpoint I/O and restore.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The manifest header or an entry body is unreadable.
    Corrupt(String),
    /// A journaled job's rank files no longer match the journal.
    Restore(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "checkpoint manifest corrupt: {m}"),
            CheckpointError::Restore(m) => write!(f, "checkpoint restore failed: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// What a completed job left behind, sufficient to rebuild its
/// [`JobOutput`] from disk without re-running it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSummary {
    /// Total gathered records (across all rank files).
    pub records: usize,
    /// The job's rank output files, as written (already renamed into
    /// place atomically, so their presence implies they are complete).
    pub files: Vec<PathBuf>,
    /// Faults the job logged while running.
    pub faults: Vec<crate::fault::FaultEvent>,
    /// Rank-file writes that were re-issued after a broken pipe.
    pub write_retries: usize,
    /// Wall-clock phase breakdown of the original run.
    pub timing: JobTiming,
}

/// Active-learning epoch state journaled by
/// [`run_active_campaign`](crate::active::run_active_campaign) after each
/// retrain + hot-swap. The expensive state (docking labels) lives in the
/// same manifest's job entries; this entry pins the *cheap but
/// order-sensitive* state — which compounds the epoch selected and the
/// exact weights it published — so a resumed campaign can recompute the
/// epoch and assert bit-identity instead of silently diverging.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochState {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Surrogate-registry generation published by this epoch's hot-swap.
    pub generation: u64,
    /// `dfsurrogate::snapshot_hash` of the weights that epoch published.
    pub snapshot_hash: u64,
    /// Size of the cumulative labeled pool after this epoch's docking.
    pub labeled: u64,
    /// Compound indices this epoch routed into the dock stage, ascending.
    pub docked: Vec<u64>,
}

/// One journaled terminal job event (or epoch marker).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ManifestEntry {
    /// The job finished; its records are on disk in `summary.files`.
    Completed {
        /// The job's spec as executed.
        spec: JobSpec,
        /// Where its output landed and what it contained.
        summary: JobSummary,
    },
    /// The job exhausted its attempts (spec carries the final attempt).
    Abandoned {
        /// The abandoned job's final-attempt spec.
        spec: JobSpec,
    },
    /// An active-learning epoch finished retraining and hot-swapped its
    /// surrogate; not a job event (`job_id()` is `None`).
    Epoch {
        /// The epoch's published state.
        state: EpochState,
    },
}

impl ManifestEntry {
    /// The job this entry journals, or `None` for non-job entries
    /// (epoch markers).
    pub fn job_id(&self) -> Option<u64> {
        match self {
            ManifestEntry::Completed { spec, .. } | ManifestEntry::Abandoned { spec } => {
                Some(spec.job_id)
            }
            ManifestEntry::Epoch { .. } => None,
        }
    }
}

/// A manifest parsed back from disk.
#[derive(Debug)]
pub struct LoadedManifest {
    /// Every intact journaled entry, in write order.
    pub entries: Vec<ManifestEntry>,
    /// Byte offset of the end of the last good entry (header included).
    pub valid_len: u64,
    /// Torn-tail bytes dropped after `valid_len` (0 for a clean file).
    pub dropped_bytes: u64,
}

/// Parses a manifest, dropping any torn tail. Fails only if the header
/// itself is unreadable or an intact frame carries a payload that does
/// not decode (real corruption, not a crash artifact).
pub fn load_manifest(path: impl AsRef<Path>) -> Result<LoadedManifest, CheckpointError> {
    let mut raw = Vec::new();
    std::fs::File::open(&path)?.read_to_end(&mut raw)?;
    if raw.len() < 8 {
        return Err(CheckpointError::Corrupt("file shorter than header".into()));
    }
    if &raw[..4] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::Corrupt(format!("unsupported version {version}")));
    }
    let mut entries = Vec::new();
    let mut pos = 8usize;
    // Frame header: payload length + checksum. Anything short of a
    // full, checksum-valid frame is a torn tail from a mid-append
    // crash: stop parsing and drop it.
    while let Some(frame) = raw.get(pos..pos + 12) {
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
        if len > MAX_ENTRY_BYTES {
            break;
        }
        let Some(payload) = raw.get(pos + 12..pos + 12 + len) else { break };
        if fnv1a64(payload) != sum {
            break;
        }
        // The frame is intact, so a payload that fails to decode is real
        // corruption (or a format skew), not a torn write.
        let text = std::str::from_utf8(payload)
            .map_err(|_| CheckpointError::Corrupt("entry payload not utf8".into()))?;
        let entry: ManifestEntry = serde_json::from_str(text)
            .map_err(|e| CheckpointError::Corrupt(format!("entry does not decode: {e}")))?;
        entries.push(entry);
        pos += 12 + len;
    }
    Ok(LoadedManifest { entries, valid_len: pos as u64, dropped_bytes: (raw.len() - pos) as u64 })
}

/// Appends terminal job events to a manifest, fsyncing each entry.
pub struct CheckpointWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Creates a fresh manifest (truncating any existing file) and syncs
    /// the header.
    pub fn create(path: impl AsRef<Path>) -> Result<CheckpointWriter, CheckpointError> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.sync_all()?;
        Ok(CheckpointWriter { file, path: path.as_ref().to_path_buf() })
    }

    /// Opens an existing manifest for append (creating it if absent),
    /// returning the journaled entries. A torn tail is truncated away so
    /// subsequent appends remain parseable.
    pub fn open_or_create(
        path: impl AsRef<Path>,
    ) -> Result<(CheckpointWriter, LoadedManifest), CheckpointError> {
        let path = path.as_ref();
        if !path.exists() {
            let w = Self::create(path)?;
            return Ok((w, LoadedManifest { entries: Vec::new(), valid_len: 8, dropped_bytes: 0 }));
        }
        let loaded = load_manifest(path)?;
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        if loaded.dropped_bytes > 0 {
            dftrace::counter_add("hts.checkpoint_torn_tails", 1);
            file.set_len(loaded.valid_len)?;
            file.sync_all()?;
        }
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok((CheckpointWriter { file, path: path.to_path_buf() }, loaded))
    }

    /// Manifest location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Journals one entry and fsyncs it. On return the entry is durable:
    /// a driver crash at any later point will replay it on resume.
    pub fn append(&mut self, entry: &ManifestEntry) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(entry)
            .map_err(|e| CheckpointError::Corrupt(format!("entry does not encode: {e}")))?;
        let payload = payload.as_bytes();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // One write_all per frame keeps the torn-tail window to a single
        // frame; sync_data makes the entry durable before the scheduler
        // publishes the job as done.
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        dftrace::counter_add("hts.checkpoint_appends", 1);
        Ok(())
    }
}

/// Summarizes a completed job for the journal.
pub fn summarize(out: &JobOutput) -> JobSummary {
    JobSummary {
        records: out.records.len(),
        files: out.files.clone(),
        faults: out.faults.clone(),
        write_retries: out.write_retries,
        timing: out.timing,
    }
}

/// Rebuilds a completed job's [`JobOutput`] from its journaled summary
/// and on-disk rank files.
///
/// The rank files jointly hold every gathered record exactly once
/// (partitioned by `compound_index % num_ranks`), but in file order, not
/// the allgather order the live run returned. The allgather concatenates
/// rank contributions in rank order, and rank `r` scores compounds
/// `first + r, first + r + num_ranks, …` ascending — so sorting by
/// `((index - first) % num_ranks, index, pose_rank)` re-derives the exact
/// live ordering and the restored output is bit-identical.
///
/// Fails (so the caller can fall back to re-running the job) if any rank
/// file is missing/corrupt or the record count disagrees with the journal.
pub fn reconstruct_output(
    cfg: &JobConfig,
    spec: &JobSpec,
    summary: &JobSummary,
) -> Result<JobOutput, CheckpointError> {
    let mut records: Vec<ScoreRecord> = Vec::with_capacity(summary.records);
    for path in &summary.files {
        let chunks = read_file(path).map_err(|e| match e {
            H5Error::Io(e) => CheckpointError::Restore(format!("{}: {e}", path.display())),
            H5Error::Corrupt(m) => CheckpointError::Restore(format!("{}: {m}", path.display())),
        })?;
        for (_, mut chunk) in chunks {
            records.append(&mut chunk);
        }
    }
    if records.len() != summary.records {
        return Err(CheckpointError::Restore(format!(
            "job {}: rank files hold {} records, journal says {}",
            spec.job_id,
            records.len(),
            summary.records
        )));
    }
    let num_ranks = cfg.num_ranks().max(1) as u64;
    records.sort_by_key(|r| {
        let lane = r.compound.index.wrapping_sub(spec.first_compound) % num_ranks;
        (lane, r.compound.index, r.pose_rank)
    });
    Ok(JobOutput {
        job_id: spec.job_id,
        records,
        files: summary.files.clone(),
        faults: summary.faults.clone(),
        timing: summary.timing,
        write_retries: summary.write_retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use dfchem::genmol::Library;
    use dfchem::pocket::TargetSite;
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dfckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn spec(job_id: u64) -> JobSpec {
        JobSpec {
            job_id,
            target: TargetSite::Spike1,
            library: Library::EnamineVirtual,
            first_compound: job_id * 8,
            num_compounds: 8,
            campaign_seed: 4,
            class: crate::job::TaskClass::Dock,
            attempt: 0,
        }
    }

    fn entry(job_id: u64) -> ManifestEntry {
        ManifestEntry::Completed {
            spec: spec(job_id),
            summary: JobSummary {
                records: 3,
                files: vec![PathBuf::from(format!("/tmp/job{job_id}.dfh5"))],
                faults: vec![FaultEvent::BadMetadata { compound_index: 1 }],
                write_retries: 0,
                timing: JobTiming {
                    startup: Duration::from_millis(1),
                    evaluate: Duration::from_millis(2),
                    output: Duration::from_millis(3),
                    poses_evaluated: 3,
                },
            },
        }
    }

    #[test]
    fn entries_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("manifest.dfcp");
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&ManifestEntry::Abandoned { spec: spec(1) }).unwrap();
        w.append(&entry(2)).unwrap();
        drop(w);
        let loaded = load_manifest(&path).unwrap();
        assert_eq!(loaded.dropped_bytes, 0);
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(
            loaded.entries.iter().map(ManifestEntry::job_id).collect::<Vec<_>>(),
            vec![Some(0), Some(1), Some(2)]
        );
        assert!(matches!(loaded.entries[1], ManifestEntry::Abandoned { .. }));
        match &loaded.entries[0] {
            ManifestEntry::Completed { spec, summary } => {
                assert_eq!(spec.job_id, 0);
                assert_eq!(summary.records, 3);
                assert_eq!(summary.faults.len(), 1);
            }
            other => panic!("unexpected entry {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// Epoch markers journal beside job entries, round-trip exactly, and
    /// are invisible to job-id indexing (the scheduler's resume path).
    #[test]
    fn epoch_entries_round_trip_and_carry_no_job_id() {
        let dir = tmpdir("epoch");
        let path = dir.join("manifest.dfcp");
        let state = EpochState {
            epoch: 1,
            generation: 2,
            snapshot_hash: 0xDEAD_BEEF_CAFE_F00D,
            labeled: 40,
            docked: vec![3, 7, 19],
        };
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&ManifestEntry::Epoch { state: state.clone() }).unwrap();
        w.append(&entry(1)).unwrap();
        drop(w);
        let loaded = load_manifest(&path).unwrap();
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(loaded.entries[1].job_id(), None);
        match &loaded.entries[1] {
            ManifestEntry::Epoch { state: s } => assert_eq!(*s, state),
            other => panic!("unexpected entry {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// A manifest entry journaled before task classes existed has no
    /// `class` key; its spec must decode as `Dock`, keeping pre-class
    /// manifests resumable bit for bit.
    #[test]
    fn pre_class_manifest_entries_decode_as_dock() {
        use crate::job::TaskClass;
        let modern = serde_json::to_string(&ManifestEntry::Abandoned { spec: spec(7) }).unwrap();
        assert!(modern.contains("\"class\""), "modern entries journal the class tag: {modern}");
        // Strip the class key the way an old driver simply never wrote it.
        let legacy = modern.replace("\"class\":\"dock\",", "");
        assert!(!legacy.contains("class"), "stripped: {legacy}");
        let entry: ManifestEntry = serde_json::from_str(&legacy).unwrap();
        match entry {
            ManifestEntry::Abandoned { spec } => {
                assert_eq!(spec.class, TaskClass::Dock);
                assert_eq!(spec.job_id, 7);
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_dropped_on_load_and_truncated_on_reopen() {
        let dir = tmpdir("torn");
        let path = dir.join("manifest.dfcp");
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&entry(1)).unwrap();
        drop(w);
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Crash mid-append: a frame header promising more bytes than were
        // written.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&500u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"partial payl");
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load_manifest(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2, "good prefix survives");
        assert_eq!(loaded.valid_len, good_len);
        assert!(loaded.dropped_bytes > 0);

        // Reopen-for-append truncates the torn bytes and new entries are
        // readable.
        let (mut w, reloaded) = CheckpointWriter::open_or_create(&path).unwrap();
        assert_eq!(reloaded.entries.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        w.append(&entry(2)).unwrap();
        drop(w);
        let final_load = load_manifest(&path).unwrap();
        assert_eq!(final_load.entries.len(), 3);
        assert_eq!(final_load.dropped_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checksum_mismatch_ends_the_parse() {
        let dir = tmpdir("sum");
        let path = dir.join("manifest.dfcp");
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.append(&entry(0)).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len() as usize;
        w.append(&entry(1)).unwrap();
        drop(w);
        // Flip a payload byte of the second entry.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[good_len + 14] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_manifest(&path).unwrap();
        assert_eq!(loaded.entries.len(), 1, "entry after the flip is dropped");
        assert_eq!(loaded.valid_len as usize, good_len);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_header_is_an_error_not_a_panic() {
        let dir = tmpdir("hdr");
        let bad_magic = dir.join("bad.dfcp");
        std::fs::write(&bad_magic, b"NOPE0000rest").unwrap();
        assert!(matches!(load_manifest(&bad_magic), Err(CheckpointError::Corrupt(_))));
        let short = dir.join("short.dfcp");
        std::fs::write(&short, b"DF").unwrap();
        assert!(matches!(load_manifest(&short), Err(CheckpointError::Corrupt(_))));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_or_create_starts_empty_manifests() {
        let dir = tmpdir("fresh");
        let path = dir.join("manifest.dfcp");
        let (w, loaded) = CheckpointWriter::open_or_create(&path).unwrap();
        assert!(loaded.entries.is_empty());
        drop(w);
        assert!(load_manifest(&path).unwrap().entries.is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn giant_frame_length_is_treated_as_torn_not_allocated() {
        let dir = tmpdir("giant");
        let path = dir.join("manifest.dfcp");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_manifest(&path).unwrap();
        assert!(loaded.entries.is_empty());
        assert!(loaded.dropped_bytes > 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
