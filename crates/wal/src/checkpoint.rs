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
//! parses. [`load_latest`] additionally falls back to older checkpoints
//! if the newest fails its CRC (e.g. disk corruption after the fact).

use crate::crc::crc32;
use patternkb_graph::snapshot::{invalid_data, Reader, SnapshotError};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PKBK";
const FORMAT_VERSION: u32 = 1;
const SUFFIX: &str = ".pkbc";

/// One materialized engine state: the serialized graph and index at
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

impl Checkpoint {
    /// Serialize to the on-disk framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 8 + 16 + self.graph.len() + self.index.len() + 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&(self.graph.len() as u64).to_le_bytes());
        buf.extend_from_slice(&self.graph);
        buf.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        buf.extend_from_slice(&self.index);
        let crc = crc32(&[&buf[8..]]);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode and verify one checkpoint file's bytes.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, SnapshotError> {
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
        let graph = read_blob(&mut r)?;
        let index = read_blob(&mut r)?;
        if r.remaining() != 4 {
            // Trailing bytes between the index and the crc: not ours.
            return Err(r.bad_reference());
        }
        Ok(Checkpoint {
            version,
            graph,
            index,
        })
    }
}

fn read_blob(r: &mut Reader) -> Result<Vec<u8>, SnapshotError> {
    let len = r.u64()? as usize;
    r.need(len.saturating_add(4))?; // blob + at least the trailing crc
    let mut buf = vec![0u8; len];
    r.take(&mut buf)?;
    Ok(buf)
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

/// Write `checkpoint` into `dir` as `checkpoint-<version>.pkbc`,
/// crash-safely (temp file, `fsync`, `rename`, directory `fsync`).
/// Returns the final path.
pub fn write(dir: &Path, checkpoint: &Checkpoint) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = dir.join(file_name(checkpoint.version));
    let tmp = dir.join(format!("{}.tmp", file_name(checkpoint.version)));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&checkpoint.encode())?;
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
pub fn load_latest(dir: &Path) -> std::io::Result<Option<(Checkpoint, PathBuf)>> {
    for (_, path) in list(dir)?.into_iter().rev() {
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        match Checkpoint::decode(&data) {
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
pub fn load(path: &Path) -> std::io::Result<Checkpoint> {
    let data = std::fs::read(path)?;
    Checkpoint::decode(&data).map_err(|e| invalid_data(path, e))
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

    #[test]
    fn roundtrip_through_disk() {
        let dir = tmpdir("roundtrip");
        let cp = sample(42);
        let path = write(&dir, &cp).unwrap();
        assert!(path.ends_with("checkpoint-00000000000000000042.pkbc"));
        assert_eq!(load(&path).unwrap(), cp);
        let (latest, latest_path) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest, cp);
        assert_eq!(latest_path, path);
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
            Checkpoint::decode(b"PK"),
            Err(SnapshotError::Truncated { offset: 0 })
        );
        assert_eq!(
            Checkpoint::decode(b"NOPE\0\0\0\0"),
            Err(SnapshotError::BadMagic)
        );
        let good = sample(7).encode();
        for cut in 0..good.len() {
            assert!(
                Checkpoint::decode(&good[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Any single-byte flip in the body fails the CRC.
        let mut flipped = good.clone();
        flipped[10] ^= 0x01;
        assert!(matches!(
            Checkpoint::decode(&flipped),
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
        assert_eq!(Checkpoint::decode(&old), Err(SnapshotError::BadMagic));
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
