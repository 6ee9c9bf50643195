//! The eager reference decoder for persisted [`PathIndexes`].
//!
//! Figure 6 shows index construction dominating setup cost (hours at the
//! paper's scale), so a production deployment builds once and reloads.
//! There is one persisted image — the `PKB5` container of
//! [`crate::storage`] — and every boot opens it with
//! [`crate::storage::open_region`]: the shards' word stores borrow the
//! bytes (mapped, or read into memory) and decode each word on first
//! touch. [`decode`] / [`load`] here decode every word eagerly into word
//! stores with every list filled and no image kept; they are on no boot
//! path, and stay as the reference the opened image is tested
//! bit-identical against. Images are written by
//! [`crate::storage::encode_v5`] / [`crate::storage::save_v5`].
//!
//! The image stores the pattern interner and, per word, the postings in
//! pattern-first order; the root-first permutation of them is rebuilt on
//! decode (a linear radix transposition by root, far cheaper than the DFS
//! enumeration, and derived data cannot desynchronize). The normative
//! byte-level specification is `docs/FORMATS.md` at the repository root.
//!
//! Decode failures are the workspace-shared
//! [`patternkb_graph::snapshot::SnapshotError`], carrying the byte offset
//! of the damage; [`load`] additionally prefixes the file path. Anything
//! that is not a `PKB5` image is [`SnapshotError::BadMagic`].

use crate::word_index::PathIndexes;
use patternkb_graph::snapshot::invalid_data;

/// Decode failures, shared with the graph snapshot codec so every binary
/// format in the stack reports offsets the same way.
pub use patternkb_graph::snapshot::SnapshotError;

/// Decode a `PKB5` image fully onto the heap (every word decoded
/// eagerly): the reference decoder, on no boot path.
pub fn decode(data: &[u8]) -> Result<PathIndexes, SnapshotError> {
    crate::storage::decode_v5(data)
}

/// Read a `PKB5` image from `path` and [`decode`] it eagerly.
pub fn load(path: &std::path::Path) -> std::io::Result<PathIndexes> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(|e| invalid_data(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_indexes, BuildConfig};
    use crate::pattern::PatternId;
    use crate::storage::{encode_v5, save_v5};
    use patternkb_graph::GraphBuilder;
    use patternkb_text::{SynonymTable, TextIndex};

    fn sample() -> PathIndexes {
        let mut b = GraphBuilder::new();
        let soft = b.add_type("Software");
        let comp = b.add_type("Company");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let sql = b.add_node(soft, "SQL Server");
        let ms = b.add_node(comp, "Microsoft");
        b.add_edge(sql, dev, ms);
        b.add_text_edge(ms, rev, "US$ 77 billion");
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let idx = sample();
        let decoded = decode(&encode_v5(&idx)).expect("decode");
        assert_eq!(decoded.d(), idx.d());
        assert_eq!(decoded.num_shards(), idx.num_shards());
        assert_eq!(decoded.bounds(), idx.bounds());
        assert_eq!(decoded.num_words(), idx.num_words());
        assert_eq!(decoded.num_postings(), idx.num_postings());
        assert_eq!(decoded.patterns().len(), idx.patterns().len());
        for (shard, dshard) in idx.shards().iter().zip(decoded.shards()) {
            for (w, widx) in shard.iter_words() {
                let dw = dshard.word(w).expect("word survives");
                assert_eq!(dw.len(), widx.len());
                assert_eq!(dw.arena(), widx.arena());
                assert_eq!(dw.postings_pattern_first(), widx.postings_pattern_first());
                // Both access orders behave identically.
                assert_eq!(dw.roots(), widx.roots());
                let pats_a: Vec<_> = widx.patterns().collect();
                let pats_b: Vec<_> = dw.patterns().collect();
                assert_eq!(pats_a, pats_b);
            }
        }
        // Pattern keys identical.
        for i in 0..idx.patterns().len() {
            let id = PatternId(i as u32);
            assert_eq!(idx.patterns().key(id), decoded.patterns().key(id));
        }
    }

    #[test]
    fn only_pkb5_images_decode() {
        assert_eq!(
            decode(b"xx").unwrap_err(),
            SnapshotError::Truncated { offset: 2 }
        );
        // The retired raw (`PKBI`) and compressed (`PKBC`) images: a typed
        // error that names the file, never a mis-decode.
        let dir = std::env::temp_dir().join("patternkb_index_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        for magic in [b"PKBI", b"PKBC"] {
            let mut image = magic.to_vec();
            image.extend_from_slice(&2u32.to_le_bytes());
            image.extend_from_slice(&[0u8; 64]);
            assert_eq!(decode(&image).unwrap_err(), SnapshotError::BadMagic);
            let path = dir.join("retired.idx");
            std::fs::write(&path, &image).unwrap();
            let err = load(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("retired.idx") && msg.contains("bad magic"),
                "{msg}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn file_roundtrip() {
        let idx = sample();
        let dir = std::env::temp_dir().join("patternkb_index_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.pkb5");
        save_v5(&idx, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.num_postings(), idx.num_postings());
        std::fs::remove_file(&path).ok();
    }
}
