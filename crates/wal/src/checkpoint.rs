//! Checkpoint files: a frozen graph + index snapshot at one engine
//! version, written beside the log so boot replays only the tail.
//!
//! File layout (little endian):
//!
//! ```text
//! magic "PKBK" | u32 format_version (1)
//! u64 engine_version
//! u64 graph_len  | graph_len bytes  (kgraph snapshot encoding)
//! u64 index_len  | index_len bytes  (pathindex `PKB5` image)
//! u32 crc        (CRC-32 of everything between the header and the crc)
//! ```
//!
//! Writes go through a temp file + `fsync` + `rename` + directory
//! `fsync`, so a crash leaves either the old set of checkpoints or the
//! old set plus one complete new file — never a half-written one that
//! parses. The header and both blobs are streamed to the temp file and
//! checksummed in place, never concatenated first. [`load_latest`]
//! additionally falls back to older checkpoints if the newest fails its
//! CRC (e.g. disk corruption after the fact).
//!
//! A checkpoint is read once: [`CheckpointFile`] keeps the file's bytes
//! and *borrows* both blobs as ranges of them, so a boot decodes the
//! graph from one slice and the index from another (or, on the mapped
//! tier, hands the buffer and the index's range over whole) without
//! copying either blob out.

use crate::crc::crc32;
use patternkb_graph::snapshot::{invalid_data, Reader, SnapshotError};
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PKBK";
const FORMAT_VERSION: u32 = 1;
const SUFFIX: &str = ".pkbc";

/// One engine state to persist: the serialized graph and index at
/// `version`. The payload encodings belong to `patternkb-graph` /
/// `patternkb-pathindex`; this module only frames and checksums them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Engine version the snapshot was taken at. Log records with
    /// versions at or below it are covered and can be rotated away.
    pub version: u64,
    /// `patternkb_graph::snapshot::encode` bytes.
    pub graph: Vec<u8>,
    /// `patternkb_index::storage::encode_v5` bytes (a `PKB5` image).
    pub index: Vec<u8>,
}

/// A checkpoint file read back and verified: the file's bytes, kept
/// whole, with the graph and index blobs borrowed as ranges of them.
#[derive(Debug, PartialEq, Eq)]
pub struct CheckpointFile {
    /// Engine version the snapshot was taken at.
    pub version: u64,
    bytes: Vec<u8>,
    graph: Range<usize>,
    index: Range<usize>,
}

impl CheckpointFile {
    /// Verify one checkpoint file's bytes and locate its blobs, keeping
    /// the bytes.
    pub fn decode(bytes: Vec<u8>) -> Result<CheckpointFile, SnapshotError> {
        let data = &bytes[..];
        let mut r = Reader::new(data);
        let mut magic = [0u8; 4];
        r.take(&mut magic)?;
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let format = r.u32()?;
        if format != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion(format));
        }
        if data.len() < 12 {
            // Header but no room for even the trailing crc.
            return Err(SnapshotError::Truncated { offset: data.len() });
        }
        let body = &data[8..data.len() - 4];
        let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
        if crc32(&[body]) != stored {
            return Err(SnapshotError::BadReference {
                offset: data.len() - 4,
            });
        }
        let version = r.u64()?;
        let graph = blob(&mut r)?;
        let index = blob(&mut r)?;
        if r.remaining() != 4 {
            // Trailing bytes between the index and the crc: not ours.
            return Err(r.bad_reference());
        }
        Ok(CheckpointFile {
            version,
            bytes,
            graph,
            index,
        })
    }

    /// The `patternkb_graph::snapshot::encode` blob.
    pub fn graph(&self) -> &[u8] {
        &self.bytes[self.graph.clone()]
    }

    /// The `PKB5` index blob.
    pub fn index(&self) -> &[u8] {
        &self.bytes[self.index.clone()]
    }

    /// The file's bytes and the index blob's range in them — for a reader
    /// that keeps the index in place (the mapped tier) instead of
    /// copying it out.
    pub fn into_index(self) -> (Vec<u8>, Range<usize>) {
        (self.bytes, self.index)
    }
}

/// Skip one length-prefixed blob, returning its byte range.
fn blob(r: &mut Reader) -> Result<Range<usize>, SnapshotError> {
    let len = r.u64()? as usize;
    r.need(len.saturating_add(4))?; // blob + at least the trailing crc
    let start = r.offset();
    r.bytes(len)?;
    Ok(start..start + len)
}

fn file_name(version: u64) -> String {
    format!("checkpoint-{version:020}{SUFFIX}")
}

fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(SUFFIX)?
        .parse()
        .ok()
}

/// Where [`write()`] puts the checkpoint of `version` in `dir`.
pub fn path(dir: &Path, version: u64) -> PathBuf {
    dir.join(file_name(version))
}

/// Write `checkpoint` into `dir` as `checkpoint-<version>.pkbc`,
/// crash-safely (temp file, `fsync`, `rename`, directory `fsync`).
/// Returns the final path.
pub fn write(dir: &Path, checkpoint: &Checkpoint) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = path(dir, checkpoint.version);
    let tmp = dir.join(format!("{}.tmp", file_name(checkpoint.version)));
    {
        let mut head = [0u8; 24];
        head[..4].copy_from_slice(MAGIC);
        head[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        head[8..16].copy_from_slice(&checkpoint.version.to_le_bytes());
        head[16..].copy_from_slice(&(checkpoint.graph.len() as u64).to_le_bytes());
        let index_len = (checkpoint.index.len() as u64).to_le_bytes();
        // Everything after magic and format version is checksummed.
        let parts: [&[u8]; 4] = [&head, &checkpoint.graph, &index_len, &checkpoint.index];
        let crc = crc32(&[&head[8..], parts[1], parts[2], parts[3]]);
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.write_all(&crc.to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &final_path)?;
    File::open(dir)?.sync_all()?;
    Ok(final_path)
}

/// Checkpoint files in `dir`, sorted by version ascending. Files that
/// merely *look* like checkpoints but have unparseable names are ignored.
pub fn list(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(version) = entry.file_name().to_str().and_then(parse_file_name) {
            out.push((version, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Load the newest checkpoint that decodes cleanly, falling back to older
/// ones if the newest is damaged (and leaving the damaged file in place
/// for inspection). `Ok(None)` when the directory holds no usable
/// checkpoint.
pub fn load_latest(dir: &Path) -> std::io::Result<Option<(CheckpointFile, PathBuf)>> {
    for (_, path) in list(dir)?.into_iter().rev() {
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        match CheckpointFile::decode(data) {
            Ok(cp) => return Ok(Some((cp, path))),
            Err(_) => continue,
        }
    }
    Ok(None)
}

/// Delete all but the newest `keep` checkpoint files; returns how many
/// were removed. Keeping more than one means a corrupt newest checkpoint
/// still leaves a fallback.
pub fn prune(dir: &Path, keep: usize) -> std::io::Result<usize> {
    let files = list(dir)?;
    let mut removed = 0;
    if files.len() > keep {
        for (_, path) in &files[..files.len() - keep] {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Decode the checkpoint at `path`, mapping decode errors to positional
/// `io::Error`s naming the file.
pub fn load(path: &Path) -> std::io::Result<CheckpointFile> {
    CheckpointFile::decode(std::fs::read(path)?).map_err(|e| invalid_data(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("patternkb_ckpt_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(version: u64) -> Checkpoint {
        Checkpoint {
            version,
            graph: format!("graph bytes at v{version}").into_bytes(),
            index: format!("index bytes at v{version}").into_bytes(),
        }
    }

    /// The bytes [`write`] puts on disk for `cp`.
    fn written(name: &str, cp: &Checkpoint) -> Vec<u8> {
        std::fs::read(write(&tmpdir(name), cp).unwrap()).unwrap()
    }

    fn assert_holds(file: &CheckpointFile, cp: &Checkpoint) {
        assert_eq!(file.version, cp.version);
        assert_eq!(file.graph(), &cp.graph[..]);
        assert_eq!(file.index(), &cp.index[..]);
    }

    #[test]
    fn roundtrip_through_disk() {
        let dir = tmpdir("roundtrip");
        let cp = sample(42);
        let path = write(&dir, &cp).unwrap();
        assert!(path.ends_with("checkpoint-00000000000000000042.pkbc"));
        assert_holds(&load(&path).unwrap(), &cp);
        let (latest, latest_path) = load_latest(&dir).unwrap().unwrap();
        assert_holds(&latest, &cp);
        assert_eq!(latest_path, path);
        // The index blob is a range of the file's bytes, not a copy.
        let bytes = std::fs::read(&path).unwrap();
        let (buf, range) = latest.into_index();
        assert_eq!(buf, bytes);
        assert_eq!(&buf[range], &cp.index[..]);
    }

    #[test]
    fn file_bytes_are_pinned() {
        // The framing written by concatenating the whole file in memory
        // first, checksum last: streaming the parts writes the same bytes.
        let cp = Checkpoint {
            version: 0x0102_0304_0506_0708,
            graph: (0..=255u8).cycle().take(1000).collect(),
            index: b"PKB5 and then some".to_vec(),
        };
        let mut expected = b"PKBK".to_vec();
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&cp.version.to_le_bytes());
        expected.extend_from_slice(&(cp.graph.len() as u64).to_le_bytes());
        expected.extend_from_slice(&cp.graph);
        expected.extend_from_slice(&(cp.index.len() as u64).to_le_bytes());
        expected.extend_from_slice(&cp.index);
        let crc = crc32(&[&expected[8..]]);
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(written("pinned", &cp), expected);
        let empty = Checkpoint {
            version: 1,
            graph: Vec::new(),
            index: Vec::new(),
        };
        let bytes = written("pinned_empty", &empty);
        assert_eq!(bytes.len(), 8 + 8 + 8 + 8 + 4);
        assert_holds(&CheckpointFile::decode(bytes).unwrap(), &empty);
    }

    #[test]
    fn load_latest_prefers_newest_and_falls_back_past_corruption() {
        let dir = tmpdir("fallback");
        write(&dir, &sample(5)).unwrap();
        write(&dir, &sample(9)).unwrap();
        let newest = write(&dir, &sample(12)).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().0.version, 12);

        // Damage the newest: fall back to v9.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (cp, _) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(cp.version, 9);
        // The damaged file is left in place for inspection.
        assert!(newest.exists());
    }

    #[test]
    fn decode_rejects_garbage_with_positions() {
        assert_eq!(
            CheckpointFile::decode(b"PK".to_vec()),
            Err(SnapshotError::Truncated { offset: 0 })
        );
        assert_eq!(
            CheckpointFile::decode(b"NOPE\0\0\0\0".to_vec()),
            Err(SnapshotError::BadMagic)
        );
        let good = written("garbage", &sample(7));
        for cut in 0..good.len() {
            assert!(
                CheckpointFile::decode(good[..cut].to_vec()).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Any single-byte flip in the body fails the CRC.
        let mut flipped = good;
        flipped[10] ^= 0x01;
        assert!(matches!(
            CheckpointFile::decode(flipped),
            Err(SnapshotError::BadReference { .. })
        ));
    }

    #[test]
    fn only_the_pkbk_magic_decodes() {
        // The magic sits outside the CRC-covered body, so rewriting it in
        // place leaves an otherwise intact file: the retired `PKBC`
        // checkpoint magic is a typed error that names the file.
        let dir = tmpdir("magic");
        let path = write(&dir, &sample(33)).unwrap();
        let mut old = std::fs::read(&path).unwrap();
        assert_eq!(&old[..4], b"PKBK");
        old[..4].copy_from_slice(b"PKBC");
        assert_eq!(
            CheckpointFile::decode(old.clone()),
            Err(SnapshotError::BadMagic)
        );
        std::fs::write(&path, &old).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("checkpoint-00000000000000000033.pkbc") && msg.contains("bad magic"),
            "{msg}"
        );
        // The only checkpoint in the directory is unreadable: no base.
        assert!(load_latest(&dir).unwrap().is_none());
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = tmpdir("prune");
        for v in [3u64, 8, 15, 21] {
            write(&dir, &sample(v)).unwrap();
        }
        assert_eq!(prune(&dir, 2).unwrap(), 2);
        let left: Vec<u64> = list(&dir).unwrap().into_iter().map(|(v, _)| v).collect();
        assert_eq!(left, vec![15, 21]);
        // Pruning below the current count is a no-op.
        assert_eq!(prune(&dir, 5).unwrap(), 0);
    }

    #[test]
    fn missing_dir_is_empty_not_an_error() {
        let dir = tmpdir("missing").join("nope");
        assert!(list(&dir).unwrap().is_empty());
        assert!(load_latest(&dir).unwrap().is_none());
        assert_eq!(prune(&dir, 1).unwrap(), 0);
    }
}
