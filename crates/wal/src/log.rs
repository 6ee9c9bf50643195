//! The write-ahead log file: record format, the group-commit append
//! path, and torn-tail replay.
//!
//! File layout (little endian):
//!
//! ```text
//! header: magic "PKBW" | u32 format_version (1)
//! record: u64 version | u32 len | u32 crc | len × payload byte
//! ```
//!
//! `version` is the engine version the record produces and must increase
//! strictly within one log; `crc` is the CRC-32 of `version || payload`.
//! A record is *durable* once an `fsync` covering it has returned, and
//! [`Wal::sync`] returns only then: a flusher thread fsyncs whatever has
//! accumulated, so records appended while one fsync is in flight share
//! the next (group commit).

use crate::crc::crc32;
use patternkb_graph::snapshot::{invalid_data, SnapshotError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAGIC: &[u8; 4] = b"PKBW";
const FORMAT_VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: u64 = 16;

/// How long the flusher waits for an append's wakeup before looking
/// again on its own: a lost wakeup still flushes within it.
const FLUSH_IDLE: Duration = Duration::from_millis(5);

/// One decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Engine version this record produces (strictly increasing).
    pub version: u64,
    /// Opaque payload (a serialized delta, as far as this crate cares).
    pub payload: Vec<u8>,
    /// Byte offset of the record header within the log file.
    pub offset: u64,
}

/// What [`replay`] found in a log file.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Every intact record, in file (= version) order.
    pub records: Vec<Record>,
    /// Bytes of valid prefix (header + intact records). Anything past it
    /// is a torn or corrupt tail.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed (a torn append or
    /// corruption; [`Wal::open`] truncates them).
    pub torn: bool,
}

/// Walk the log at `path`, collecting intact records and stopping cleanly
/// at the first torn or corrupt tail record. A missing file is an empty
/// log. Only a *well-formed but alien* header (wrong magic, unknown
/// format version) is an error: that is not our log, and truncating it
/// would destroy someone else's data.
pub fn replay(path: &Path) -> std::io::Result<ReplaySummary> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplaySummary::default()),
        Err(e) => return Err(e),
    };
    if (data.len() as u64) < HEADER_LEN {
        // A crash while creating the file can leave a short header; treat
        // the whole file as a torn tail.
        return Ok(ReplaySummary {
            records: Vec::new(),
            valid_len: 0,
            torn: !data.is_empty(),
        });
    }
    if &data[0..4] != MAGIC {
        return Err(invalid_data(path, SnapshotError::BadMagic));
    }
    let format = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if format != FORMAT_VERSION {
        return Err(invalid_data(path, SnapshotError::BadVersion(format)));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let len = data.len() as u64;
    loop {
        if pos + RECORD_HEADER_LEN > len {
            break;
        }
        let p = pos as usize;
        let version = u64::from_le_bytes(data[p..p + 8].try_into().expect("8 bytes"));
        let payload_len = u32::from_le_bytes(data[p + 8..p + 12].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(data[p + 12..p + 16].try_into().expect("4 bytes"));
        let end = pos + RECORD_HEADER_LEN + payload_len as u64;
        if end > len {
            break;
        }
        let payload = &data[p + 16..end as usize];
        if crc32(&[&data[p..p + 8], payload]) != crc {
            break;
        }
        if records
            .last()
            .is_some_and(|r: &Record| version <= r.version)
        {
            // Versions must increase strictly; a repeat means the tail
            // was scrambled, not appended.
            break;
        }
        records.push(Record {
            version,
            payload: payload.to_vec(),
            offset: pos,
        });
        pos = end;
    }
    Ok(ReplaySummary {
        records,
        valid_len: pos,
        torn: pos < len,
    })
}

/// Opaque receipt for one append; pass it to [`Wal::sync`] to block until
/// the record is durable.
#[derive(Clone, Copy, Debug)]
pub struct Ticket(u64);

/// Histogram bucket upper bounds (seconds) for [`FsyncStats::buckets`].
pub const FSYNC_BOUNDS: [f64; 10] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 1.0,
];

/// Cumulative fsync timings, bucketed for Prometheus exposition.
#[derive(Clone, Debug, Default)]
pub struct FsyncStats {
    /// Number of fsync calls issued.
    pub count: u64,
    /// Total time spent in fsync, microseconds.
    pub total_micros: u64,
    /// Observations at or under each [`FSYNC_BOUNDS`] bound (cumulative,
    /// Prometheus `le` semantics; `count` is the implicit `+Inf`).
    pub buckets: [u64; FSYNC_BOUNDS.len()],
}

/// Configuration for [`Wal::open`]. It has no fields: every log acks by
/// group commit.
#[derive(Clone, Debug, Default)]
pub struct WalOptions;

struct SyncState {
    /// Sequence number of the last record written to the OS file.
    appended: u64,
    /// Sequence number of the last record covered by a completed fsync.
    durable: u64,
    /// Set on the first I/O failure; the log refuses all further appends
    /// (a half-synced file has unknown durable state).
    failed: Option<String>,
    shutdown: bool,
}

struct Inner {
    path: PathBuf,
    /// Append handle. Lock order: `file` may be held while taking
    /// `sync`, never the other way around.
    file: Mutex<File>,
    sync: Mutex<SyncState>,
    /// Wakes callers blocked in [`Wal::sync`].
    durable_cv: Condvar,
    /// Wakes the flusher thread when there is something to fsync.
    flush_cv: Condvar,
    log_bytes: AtomicU64,
    log_records: AtomicU64,
    appended_total: AtomicU64,
    fsync_count: AtomicU64,
    fsync_micros: AtomicU64,
    fsync_buckets: [AtomicU64; FSYNC_BOUNDS.len()],
}

impl Inner {
    fn observe_fsync(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        self.fsync_count.fetch_add(1, Ordering::Relaxed);
        self.fsync_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        for (i, &bound) in FSYNC_BOUNDS.iter().enumerate() {
            if secs <= bound {
                self.fsync_buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Mark the log failed and wake everyone.
    fn poison_locked(&self, state: &mut SyncState, reason: String) {
        if state.failed.is_none() {
            state.failed = Some(reason);
        }
        self.durable_cv.notify_all();
        self.flush_cv.notify_all();
    }

    fn failed_error(reason: &str) -> std::io::Error {
        std::io::Error::other(format!("write-ahead log failed: {reason}"))
    }
}

/// The append side of one write-ahead log file. See the crate docs for
/// the durability model and [`replay`] for recovery.
pub struct Wal {
    inner: Arc<Inner>,
    flusher: Option<JoinHandle<()>>,
}

fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().append(true).open(path)
}

/// Append the file header: `magic | u32 format_version`.
fn put_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
}

/// Append one framed record: `u64 version | u32 len | u32 crc | payload`,
/// the CRC taken over `version || payload`.
fn put_record(buf: &mut Vec<u8>, version: u64, payload: &[u8]) {
    let version = version.to_le_bytes();
    buf.extend_from_slice(&version);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&[&version, payload]).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn fsync_dir(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

impl Wal {
    /// Open (or create) the log at `path`, truncating any torn tail so
    /// appends continue from the last intact record. Returns the log
    /// handle plus what [`replay`] found — the caller replays those
    /// records before appending new ones.
    pub fn open(
        path: impl Into<PathBuf>,
        _options: WalOptions,
    ) -> std::io::Result<(Wal, ReplaySummary)> {
        let path = path.into();
        let summary = replay(&path)?;
        let exists = path.exists();
        if !exists || summary.valid_len < HEADER_LEN {
            // Fresh log (or one whose header itself was torn mid-create).
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            put_header(&mut header);
            let mut f = File::create(&path)?;
            f.write_all(&header)?;
            f.sync_all()?;
            fsync_dir(&path)?;
        } else if summary.torn {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(summary.valid_len)?;
            f.sync_all()?;
        }
        let valid_len = summary.valid_len.max(HEADER_LEN);

        let inner = Arc::new(Inner {
            file: Mutex::new(open_append(&path)?),
            path,
            sync: Mutex::new(SyncState {
                appended: 0,
                durable: 0,
                failed: None,
                shutdown: false,
            }),
            durable_cv: Condvar::new(),
            flush_cv: Condvar::new(),
            log_bytes: AtomicU64::new(valid_len),
            log_records: AtomicU64::new(summary.records.len() as u64),
            appended_total: AtomicU64::new(0),
            fsync_count: AtomicU64::new(0),
            fsync_micros: AtomicU64::new(0),
            fsync_buckets: Default::default(),
        });

        let flusher = Some({
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop(&inner))?
        });

        Ok((Wal { inner, flusher }, summary))
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Append one record (buffered into the OS file, not yet necessarily
    /// durable) and return the ticket to [`Wal::sync`] on. `version` must
    /// exceed every previously appended version.
    pub fn append(&self, version: u64, payload: &[u8]) -> std::io::Result<Ticket> {
        let inner = &*self.inner;
        let mut buf = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        put_record(&mut buf, version, payload);

        let mut file = inner.file.lock().expect("wal file lock");
        {
            let state = inner.sync.lock().expect("wal sync lock");
            if let Some(reason) = &state.failed {
                return Err(Inner::failed_error(reason));
            }
            if state.shutdown {
                return Err(std::io::Error::other("write-ahead log is shut down"));
            }
        }
        if let Err(e) = file.write_all(&buf) {
            let mut state = inner.sync.lock().expect("wal sync lock");
            inner.poison_locked(&mut state, format!("append write failed: {e}"));
            return Err(e);
        }
        inner
            .log_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        inner.log_records.fetch_add(1, Ordering::Relaxed);
        inner.appended_total.fetch_add(1, Ordering::Relaxed);
        let seq = {
            // Still holding the file lock: sequence order = file order.
            let mut state = inner.sync.lock().expect("wal sync lock");
            state.appended += 1;
            state.appended
        };
        drop(file);
        inner.flush_cv.notify_one();
        Ok(Ticket(seq))
    }

    /// Block until an fsync covering the record behind `ticket` has
    /// returned. Concurrent callers are typically released together by
    /// one shared fsync of the flusher thread.
    pub fn sync(&self, ticket: Ticket) -> std::io::Result<()> {
        let inner = &*self.inner;
        let mut state = inner.sync.lock().expect("wal sync lock");
        loop {
            if let Some(reason) = &state.failed {
                return Err(Inner::failed_error(reason));
            }
            if state.durable >= ticket.0 {
                return Ok(());
            }
            if state.shutdown {
                return Err(std::io::Error::other(
                    "write-ahead log shut down before the record became durable",
                ));
            }
            state = inner
                .durable_cv
                .wait(state)
                .expect("wal sync lock poisoned");
        }
    }

    /// [`Wal::append`] + [`Wal::sync`] in one call.
    pub fn append_durable(&self, version: u64, payload: &[u8]) -> std::io::Result<()> {
        let ticket = self.append(version, payload)?;
        self.sync(ticket)
    }

    /// Force the log into the failed state, as after an I/O error: every
    /// subsequent append (and every waiter) gets an error naming
    /// `reason`. Used by tests injecting durability failures and as an
    /// emergency read-only switch.
    pub fn poison(&self, reason: &str) {
        let mut state = self.inner.sync.lock().expect("wal sync lock");
        self.inner.poison_locked(&mut state, reason.to_string());
    }

    /// Atomically truncate the log to the records with `version >
    /// keep_after` (those not covered by the checkpoint at `keep_after`):
    /// writes a fresh log holding only that tail, fsyncs it, and renames
    /// it over the live one. Appends block for the duration.
    pub fn rotate(&self, keep_after: u64) -> std::io::Result<()> {
        let inner = &*self.inner;
        let mut file = inner.file.lock().expect("wal file lock");
        // Make everything durable first: after the rename there is only
        // the new file, which must already hold every acked record.
        file.sync_data()?;
        {
            let mut state = inner.sync.lock().expect("wal sync lock");
            if let Some(reason) = &state.failed {
                return Err(Inner::failed_error(reason));
            }
            state.durable = state.appended;
            inner.durable_cv.notify_all();
        }

        let summary = replay(&inner.path)?;
        let tmp = inner.path.with_extension("log.tmp");
        let mut kept = 0u64;
        {
            let mut out = File::create(&tmp)?;
            let mut buf = Vec::with_capacity(64);
            put_header(&mut buf);
            for r in summary.records.iter().filter(|r| r.version > keep_after) {
                put_record(&mut buf, r.version, &r.payload);
                kept += 1;
            }
            out.write_all(&buf)?;
            out.sync_all()?;
            inner.log_bytes.store(buf.len() as u64, Ordering::Relaxed);
        }
        inner.log_records.store(kept, Ordering::Relaxed);
        std::fs::rename(&tmp, &inner.path)?;
        fsync_dir(&inner.path)?;
        *file = open_append(&inner.path)?;
        Ok(())
    }

    /// Truncate the log file to `offset` bytes (used at boot when a
    /// CRC-valid record still fails to replay — drop it and everything
    /// after it rather than refuse to start).
    pub fn truncate_to(&self, offset: u64) -> std::io::Result<()> {
        let inner = &*self.inner;
        let mut file = inner.file.lock().expect("wal file lock");
        let offset = offset.max(HEADER_LEN);
        {
            let f = OpenOptions::new().write(true).open(&inner.path)?;
            f.set_len(offset)?;
            f.sync_all()?;
        }
        *file = open_append(&inner.path)?;
        let summary = replay(&inner.path)?;
        inner.log_bytes.store(summary.valid_len, Ordering::Relaxed);
        inner
            .log_records
            .store(summary.records.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Current log size in bytes (header included).
    pub fn log_bytes(&self) -> u64 {
        self.inner.log_bytes.load(Ordering::Relaxed)
    }

    /// Records currently in the log (checkpointed ones are rotated out).
    pub fn log_records(&self) -> u64 {
        self.inner.log_records.load(Ordering::Relaxed)
    }

    /// Lifetime appends through this handle (monotonic; survives
    /// rotation).
    pub fn appended_total(&self) -> u64 {
        self.inner.appended_total.load(Ordering::Relaxed)
    }

    /// Cumulative fsync timing histogram.
    pub fn fsync_stats(&self) -> FsyncStats {
        let inner = &*self.inner;
        let mut buckets = [0u64; FSYNC_BOUNDS.len()];
        for (out, b) in buckets.iter_mut().zip(&inner.fsync_buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        FsyncStats {
            count: inner.fsync_count.load(Ordering::Relaxed),
            total_micros: inner.fsync_micros.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut state = self.inner.sync.lock().expect("wal sync lock");
            state.shutdown = true;
            self.inner.flush_cv.notify_all();
            self.inner.durable_cv.notify_all();
        }
        if let Some(h) = self.flusher.take() {
            h.join().ok();
        }
        // Best-effort final flush: a failure stops the flusher early.
        if let Ok(file) = self.inner.file.lock() {
            file.sync_data().ok();
        }
    }
}

fn flusher_loop(inner: &Inner) {
    loop {
        let target = {
            let mut state = inner.sync.lock().expect("wal sync lock");
            loop {
                if state.failed.is_some() {
                    return;
                }
                if state.appended > state.durable {
                    break state.appended;
                }
                if state.shutdown {
                    return;
                }
                let (next, _) = inner
                    .flush_cv
                    .wait_timeout(state, FLUSH_IDLE)
                    .expect("wal sync lock poisoned");
                state = next;
            }
        };
        let file = inner.file.lock().expect("wal file lock");
        let t0 = Instant::now();
        let res = file.sync_data();
        drop(file);
        inner.observe_fsync(t0.elapsed());
        let mut state = inner.sync.lock().expect("wal sync lock");
        match res {
            Ok(()) => {
                state.durable = state.durable.max(target);
                inner.durable_cv.notify_all();
            }
            Err(e) => {
                inner.poison_locked(&mut state, format!("fsync failed: {e}"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("patternkb_wal_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        {
            let (wal, summary) = Wal::open(&path, WalOptions).unwrap();
            assert!(summary.records.is_empty());
            for v in 1..=5u64 {
                wal.append_durable(v, format!("payload {v}").as_bytes())
                    .unwrap();
            }
            assert_eq!(wal.log_records(), 5);
            assert_eq!(wal.appended_total(), 5);
            assert!(wal.fsync_stats().count >= 5);
        }
        let summary = replay(&path).unwrap();
        assert!(!summary.torn);
        assert_eq!(summary.records.len(), 5);
        for (i, r) in summary.records.iter().enumerate() {
            assert_eq!(r.version, i as u64 + 1);
            assert_eq!(r.payload, format!("payload {}", i + 1).into_bytes());
        }
        // Reopen appends after the existing tail.
        let (wal, summary) = Wal::open(&path, WalOptions).unwrap();
        assert_eq!(summary.records.len(), 5);
        wal.append_durable(6, b"six").unwrap();
        drop(wal);
        assert_eq!(replay(&path).unwrap().records.len(), 6);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        {
            let (wal, _) = Wal::open(&path, WalOptions).unwrap();
            wal.append_durable(1, b"first record payload").unwrap();
            wal.append_durable(2, b"second record payload").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the second record: replay keeps only the
        // first, and open truncates the file to it.
        let cut = full.len() - 7;
        std::fs::write(&path, &full[..cut]).unwrap();
        let summary = replay(&path).unwrap();
        assert!(summary.torn);
        assert_eq!(summary.records.len(), 1);

        let (wal, summary) = Wal::open(&path, WalOptions).unwrap();
        assert_eq!(summary.records.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), summary.valid_len);
        // The log keeps working: version continues after the survivor.
        wal.append_durable(2, b"second, take two").unwrap();
        drop(wal);
        let after = replay(&path).unwrap();
        assert!(!after.torn);
        assert_eq!(after.records.len(), 2);
        assert_eq!(after.records[1].payload, b"second, take two");
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_damage() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.log");
        {
            let (wal, _) = Wal::open(&path, WalOptions).unwrap();
            for v in 1..=3u64 {
                wal.append_durable(v, &[v as u8; 32]).unwrap();
            }
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record.
        let second_payload = (HEADER_LEN + (RECORD_HEADER_LEN + 32) + RECORD_HEADER_LEN) as usize;
        data[second_payload] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let summary = replay(&path).unwrap();
        assert!(summary.torn);
        assert_eq!(summary.records.len(), 1, "CRC catches the flip");
    }

    #[test]
    fn alien_file_is_an_error_not_a_truncation() {
        let dir = tmpdir("alien");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"PKBG this is some other file").unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(Wal::open(&path, WalOptions).is_err());
        // The file is untouched.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"PKBG this is some other file"
        );
    }

    #[test]
    fn group_commit_wakes_concurrent_appenders() {
        let dir = tmpdir("group");
        let path = dir.join("wal.log");
        let (wal, _) = Wal::open(&path, WalOptions).unwrap();
        let wal = std::sync::Arc::new(wal);
        // Versions must be strictly increasing in file order, so the
        // counter bump and the append are serialized together (as the
        // engine's writer lock does); the durability waits below still
        // overlap, which is what group commit batches.
        let version = Mutex::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let wal = &wal;
                let version = &version;
                scope.spawn(move || {
                    for _ in 0..25 {
                        let ticket = {
                            let mut v = version.lock().unwrap();
                            *v += 1;
                            wal.append(*v, format!("record {v}").as_bytes()).unwrap()
                        };
                        wal.sync(ticket).unwrap();
                    }
                });
            }
        });
        assert_eq!(wal.appended_total(), 200);
        let stats = wal.fsync_stats();
        assert!(stats.count >= 1);
        drop(wal);
        let summary = replay(&path).unwrap();
        assert_eq!(summary.records.len(), 200);
        assert!(!summary.torn);
    }

    #[test]
    fn rotate_keeps_only_the_tail() {
        let dir = tmpdir("rotate");
        let path = dir.join("wal.log");
        let (wal, _) = Wal::open(&path, WalOptions).unwrap();
        for v in 1..=10u64 {
            wal.append_durable(v, &[0u8; 64]).unwrap();
        }
        let before = wal.log_bytes();
        wal.rotate(7).unwrap();
        assert_eq!(wal.log_records(), 3);
        assert!(wal.log_bytes() < before);
        // Appends continue after rotation.
        wal.append_durable(11, b"post-rotate").unwrap();
        drop(wal);
        let summary = replay(&path).unwrap();
        let versions: Vec<u64> = summary.records.iter().map(|r| r.version).collect();
        assert_eq!(versions, vec![8, 9, 10, 11]);
    }

    /// `open` and `append` frame the header and each record; `rotate`
    /// re-frames the records it keeps. Keeping all of them must rewrite
    /// the same bytes, or the two framings have drifted apart.
    #[test]
    fn rotate_keeping_every_record_rewrites_the_same_bytes() {
        let dir = tmpdir("rotate_same");
        let path = dir.join("wal.log");
        let (wal, _) = Wal::open(&path, WalOptions).unwrap();
        for v in 1..=4u64 {
            wal.append_durable(v, format!("record {v}").as_bytes())
                .unwrap();
        }
        wal.append_durable(9, b"").unwrap();
        let appended = std::fs::read(&path).unwrap();
        wal.rotate(0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), appended);
        assert_eq!(wal.log_bytes(), appended.len() as u64);
        assert_eq!(wal.log_records(), 5);
    }

    #[test]
    fn poison_fails_appends_with_the_reason() {
        let dir = tmpdir("poison");
        let path = dir.join("wal.log");
        let (wal, _) = Wal::open(&path, WalOptions).unwrap();
        wal.append_durable(1, b"fine").unwrap();
        wal.poison("injected by test");
        let err = wal.append(2, b"doomed").unwrap_err();
        assert!(err.to_string().contains("injected by test"), "{err}");
        // Already-durable data is intact.
        drop(wal);
        assert_eq!(replay(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn truncate_to_drops_a_record_and_its_suffix() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.log");
        let (wal, _) = Wal::open(&path, WalOptions).unwrap();
        for v in 1..=3u64 {
            wal.append_durable(v, &[v as u8; 16]).unwrap();
        }
        let summary = replay(&path).unwrap();
        wal.truncate_to(summary.records[1].offset).unwrap();
        assert_eq!(wal.log_records(), 1);
        drop(wal);
        let after = replay(&path).unwrap();
        assert_eq!(after.records.len(), 1);
        assert!(!after.torn);
    }
}
