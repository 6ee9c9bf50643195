//! The durable-ingest handle: the write-ahead log plus background
//! checkpointing, attached to a [`crate::SharedEngine`] by
//! [`crate::EngineBuilder::data_dir`].
//!
//! Layout of a data directory:
//!
//! ```text
//! <dir>/wal.log                      the delta log (patternkb_wal::log)
//! <dir>/checkpoint-<version>.pkbc    graph+index snapshots (newest 2 kept)
//! ```
//!
//! The contract the serving layer builds on: **an ingest is acknowledged
//! only after a group-commit fsync covers its delta record, and a delta
//! that never became durable is never visible to readers.** The write
//! path appends the serialized delta *before* the engine pointer swap;
//! the swap happens only after [`Wal::sync`] returns. On an fsync failure
//! the log poisons itself, so the not-yet-published engine states are
//! abandoned rather than served.
//!
//! Checkpointing runs on a background thread: once the log passes the
//! size or record-count threshold, the current engine is frozen into a
//! `checkpoint-<version>.pkbc` file and the log is atomically truncated
//! to the records past that version ([`Wal::rotate`]) — keeping boot cost
//! `O(checkpoint + tail)` instead of `O(history)`.

use crate::engine::SearchEngine;
use patternkb_graph::mutate::{GraphDelta, PagerankMode};
use patternkb_graph::snapshot::{invalid_data, SnapshotError};
use patternkb_wal::checkpoint::{self, Checkpoint};
use patternkb_wal::{FsyncStats, Ticket, Wal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// File name of the delta log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// How many checkpoint files [`Durability`] keeps (the newest N); an
/// older one is the fallback if the newest is damaged on disk.
pub const CHECKPOINTS_KEPT: usize = 2;

/// Checkpoint thresholds for [`crate::EngineBuilder::data_dir`] boots.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Checkpoint once the log exceeds this many bytes.
    pub checkpoint_bytes: u64,
    /// Checkpoint once the log holds this many records.
    pub checkpoint_records: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_bytes: 64 << 20,
            checkpoint_records: 4096,
        }
    }
}

/// Serialize one ingest for the log: a [`PagerankMode`] byte followed by
/// the [`GraphDelta`] codec bytes.
pub fn encode_payload(mode: PagerankMode, delta: &GraphDelta) -> Vec<u8> {
    let mode = match mode {
        PagerankMode::Frozen => 0u8,
        PagerankMode::Recompute => 1u8,
    };
    let mut buf = Vec::with_capacity(1 + 64);
    buf.push(mode);
    buf.extend_from_slice(&delta.encode());
    buf
}

/// Inverse of [`encode_payload`].
pub fn decode_payload(payload: &[u8]) -> Result<(PagerankMode, GraphDelta), SnapshotError> {
    let (&mode, rest) = payload
        .split_first()
        .ok_or(SnapshotError::Truncated { offset: 0 })?;
    let mode = match mode {
        0 => PagerankMode::Frozen,
        1 => PagerankMode::Recompute,
        _ => return Err(SnapshotError::BadReference { offset: 0 }),
    };
    Ok((mode, GraphDelta::decode(rest)?))
}

/// One consistent reading of the durability counters, for `/metrics`.
#[derive(Clone, Debug)]
pub struct DurabilityMetrics {
    /// Records appended to the log over this process's lifetime.
    pub appended_total: u64,
    /// Current log size in bytes (shrinks when a checkpoint rotates it).
    pub log_bytes: u64,
    /// Records currently in the log.
    pub log_records: u64,
    /// Fsync latency histogram.
    pub fsync: FsyncStats,
    /// Checkpoints completed since boot.
    pub checkpoints_total: u64,
    /// Checkpoint attempts that failed since boot.
    pub checkpoint_failures: u64,
    /// Time since the last completed checkpoint, if any.
    pub last_checkpoint_age: Option<std::time::Duration>,
}

struct CheckpointQueue {
    /// Engine state waiting to be checkpointed (latest wins).
    pending: Option<Arc<SearchEngine>>,
    shutdown: bool,
}

/// The durability handle owned by a [`crate::SharedEngine`] booted with
/// [`crate::EngineBuilder::data_dir`]: the open [`Wal`] plus the
/// background checkpointer.
pub struct Durability {
    wal: Arc<Wal>,
    dir: PathBuf,
    options: DurabilityOptions,
    queue: Arc<(Mutex<CheckpointQueue>, Condvar)>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    checkpoints_total: Arc<AtomicU64>,
    checkpoint_failures: Arc<AtomicU64>,
    last_checkpoint: Arc<Mutex<Option<Instant>>>,
}

impl Durability {
    /// Wrap an opened log. `dir` is where checkpoints are written.
    pub fn new(wal: Wal, dir: PathBuf, options: DurabilityOptions) -> Self {
        let wal = Arc::new(wal);
        let queue = Arc::new((
            Mutex::new(CheckpointQueue {
                pending: None,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let checkpoints_total = Arc::new(AtomicU64::new(0));
        let checkpoint_failures = Arc::new(AtomicU64::new(0));
        let last_checkpoint = Arc::new(Mutex::new(None));

        let worker = {
            let wal = Arc::clone(&wal);
            let dir = dir.clone();
            let queue = Arc::clone(&queue);
            let totals = Arc::clone(&checkpoints_total);
            let failures = Arc::clone(&checkpoint_failures);
            let last = Arc::clone(&last_checkpoint);
            std::thread::Builder::new()
                .name("wal-checkpointer".into())
                .spawn(move || loop {
                    let engine = {
                        let (lock, cv) = &*queue;
                        let mut q = lock.lock().expect("checkpoint queue lock");
                        loop {
                            if let Some(e) = q.pending.take() {
                                break e;
                            }
                            if q.shutdown {
                                return;
                            }
                            q = cv.wait(q).expect("checkpoint queue lock poisoned");
                        }
                    };
                    match write_checkpoint(&wal, &dir, &engine) {
                        Ok(_) => {
                            totals.fetch_add(1, Ordering::Relaxed);
                            *last.lock().expect("last checkpoint lock") = Some(Instant::now());
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("spawn wal-checkpointer")
        };

        Durability {
            wal,
            dir,
            options,
            queue,
            worker: Mutex::new(Some(worker)),
            checkpoints_total,
            checkpoint_failures,
            last_checkpoint,
        }
    }

    /// The data directory this handle persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying log (tests use [`Wal::poison`] through this to
    /// inject durability failures).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Append one compiled ingest to the log (not yet durable).
    pub fn append(
        &self,
        version: u64,
        mode: PagerankMode,
        delta: &GraphDelta,
    ) -> std::io::Result<Ticket> {
        self.wal.append(version, &encode_payload(mode, delta))
    }

    /// Block until an fsync covering the record behind `ticket` returned.
    pub fn sync(&self, ticket: Ticket) -> std::io::Result<()> {
        self.wal.sync(ticket)
    }

    /// Hand `engine` to the background checkpointer if the log has grown
    /// past either threshold. Non-blocking; a later, newer state replaces
    /// a queued one that has not started yet.
    pub fn maybe_checkpoint(&self, engine: &Arc<SearchEngine>) {
        if self.wal.log_bytes() < self.options.checkpoint_bytes
            && self.wal.log_records() < self.options.checkpoint_records
        {
            return;
        }
        let (lock, cv) = &*self.queue;
        let mut q = lock.lock().expect("checkpoint queue lock");
        q.pending = Some(Arc::clone(engine));
        cv.notify_one();
    }

    /// Checkpoint `engine` right now, synchronously (the
    /// `POST /admin/checkpoint` route). Returns the checkpoint file path.
    pub fn checkpoint_now(&self, engine: &SearchEngine) -> std::io::Result<PathBuf> {
        let path = write_checkpoint(&self.wal, &self.dir, engine)?;
        self.checkpoints_total.fetch_add(1, Ordering::Relaxed);
        *self.last_checkpoint.lock().expect("last checkpoint lock") = Some(Instant::now());
        Ok(path)
    }

    /// Snapshot of every counter the serving layer exports.
    pub fn metrics(&self) -> DurabilityMetrics {
        DurabilityMetrics {
            appended_total: self.wal.appended_total(),
            log_bytes: self.wal.log_bytes(),
            log_records: self.wal.log_records(),
            fsync: self.wal.fsync_stats(),
            checkpoints_total: self.checkpoints_total.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            last_checkpoint_age: self
                .last_checkpoint
                .lock()
                .expect("last checkpoint lock")
                .map(|t| t.elapsed()),
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        {
            let (lock, cv) = &*self.queue;
            let mut q = lock.lock().expect("checkpoint queue lock");
            q.shutdown = true;
            cv.notify_all();
        }
        if let Some(h) = self.worker.lock().expect("worker lock").take() {
            h.join().ok();
        }
    }
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Durability {{ dir: {:?} }}", self.dir)
    }
}

/// Replay log records onto `engine` in order, skipping ones already
/// covered by its version and stopping at the first record that does not
/// follow — a version gap, an undecodable payload, or a delta the engine
/// rejects. Returns the byte offset such a record starts at (the caller
/// truncates the log there); `None` when everything replayed.
pub(crate) fn replay_records(
    engine: &mut SearchEngine,
    records: &[patternkb_wal::Record],
) -> Option<u64> {
    for rec in records {
        if rec.version <= engine.version() {
            continue;
        }
        if rec.version != engine.version() + 1 {
            return Some(rec.offset);
        }
        let Ok((mode, delta)) = decode_payload(&rec.payload) else {
            return Some(rec.offset);
        };
        if engine.apply_delta(&delta, mode).is_err() {
            return Some(rec.offset);
        }
    }
    None
}

/// Freeze `engine` into a checkpoint file, rotate the log past it, and
/// prune old checkpoints. Every word is decoded first: a damaged stream
/// in the image the index was opened from fails the checkpoint with
/// `InvalidData`, naming the checkpoint file and the damage's byte
/// offset, before anything is written or rotated.
fn write_checkpoint(wal: &Wal, dir: &Path, engine: &SearchEngine) -> std::io::Result<PathBuf> {
    let idx = engine.index();
    idx.prepare_words(&idx.word_ids())
        .map_err(|e| invalid_data(&checkpoint::path(dir, engine.version()), e))?;
    let cp = Checkpoint {
        version: engine.version(),
        graph: patternkb_graph::snapshot::encode(engine.graph()),
        // A boot *opens* the index blob (lexicon parse only) in place
        // in the file's buffer instead of decoding it.
        index: patternkb_index::storage::encode_v5(idx),
    };
    let path = checkpoint::write(dir, &cp)?;
    wal.rotate(cp.version)?;
    checkpoint::prune(dir, CHECKPOINTS_KEPT)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_codec_roundtrips_both_modes() {
        let (g, _) = patternkb_datagen::figure1();
        let comp = g.type_by_text("Company").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(&g);
        let v = d.add_node(comp, "payload vendor").unwrap();
        d.add_text_edge(v, rev, "US$ 3 million").unwrap();
        for mode in [PagerankMode::Frozen, PagerankMode::Recompute] {
            let bytes = encode_payload(mode, &d);
            let (mode2, d2) = decode_payload(&bytes).unwrap();
            assert_eq!(mode, mode2);
            assert_eq!(d.encode(), d2.encode());
        }
        assert!(decode_payload(&[]).is_err());
        assert!(decode_payload(&[7, 1, 2, 3]).is_err(), "unknown mode byte");
    }

    #[test]
    fn the_record_threshold_checkpoints_in_the_background() {
        use crate::{EngineBuilder, SearchRequest};
        let dir = std::env::temp_dir().join(format!(
            "patternkb_checkpoint_threshold_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let boot = || {
            EngineBuilder::new()
                .graph(patternkb_datagen::figure1().0)
                .threads(1)
                .data_dir(&dir)
                .checkpoint_records(3)
                .build_shared()
                .unwrap()
        };
        let shared = boot();
        for step in 0..4 {
            shared
                .ingest_with(PagerankMode::Frozen, |snap| {
                    let company = snap.graph().type_by_text("Company").unwrap();
                    let mut d = GraphDelta::new(snap.graph());
                    d.add_node(company, &format!("threshold vendor {step}"))?;
                    Ok::<_, patternkb_graph::mutate::DeltaError>(d)
                })
                .unwrap();
        }
        let durability = shared.durability().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while durability.metrics().checkpoints_total == 0 {
            assert!(Instant::now() < deadline, "no checkpoint within 30 s");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(durability.metrics().log_records < 4, "the log was rotated");
        assert!(std::fs::read_dir(&dir).unwrap().any(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.starts_with("checkpoint-") && name.ends_with(".pkbc")
        }));
        let request = SearchRequest::text("threshold vendor").k(100);
        let before = shared.respond(&request).unwrap();
        assert_eq!(before.top().unwrap().num_trees, 4);
        drop(shared);

        let rebooted = boot();
        assert_eq!(rebooted.version(), 4);
        let after = rebooted.respond(&request).unwrap();
        assert_eq!(before.patterns.len(), after.patterns.len());
        for (x, y) in before.patterns.iter().zip(&after.patterns) {
            assert_eq!((x.key(), x.score.to_bits()), (y.key(), y.score.to_bits()));
        }
        drop(rebooted);
        std::fs::remove_dir_all(&dir).ok();
    }
}
