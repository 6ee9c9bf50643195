//! The word-stream codec of the `PKB5` container ([`crate::storage`]):
//! one word's postings as a compact byte stream.
//!
//! The decoded [`WordPathIndex`] stores every posting as a fixed-width
//! struct (fast, but 12 bytes per posting plus its key columns, the
//! root-first permutation, the node arena and the score table). For large
//! `d` the index grows steeply — the paper's Figure 6 reports 34 GB at
//! `d = 4` — so the persisted image keeps each word's postings in this
//! form and decodes on demand:
//!
//! * the stream leads with the list's score table: each distinct
//!   `(pagerank, sim)` pair once, as raw little-endian `f64`s, in order of
//!   first use in pattern-first order, so an [`encode`] →
//!   [`decode_stream`] round trip is **bit-exact** (asserted by tests);
//! * postings are stored once, in pattern-first order, grouped by pattern;
//! * each posting leads with its root as a varint gap from the previous
//!   root in its group (the first posting's gap is from 0), so the roots
//!   of a group are non-decreasing by construction;
//! * pattern ids are delta-coded varints;
//! * the leading path node is implicit (it equals the root);
//! * a posting's score terms are one varint index into the table.
//!
//! `docs/FORMATS.md` ("word stream") is the normative layout. Decoding
//! validates the stream and reports [`CompressError`] on truncation or
//! corruption instead of panicking.

use crate::pattern::PatternId;
use crate::posting::{KeyedPosting, Posting, ScoreTable, ScoreTerms};
use crate::varint;
use crate::word_index::WordPathIndex;
use patternkb_graph::NodeId;

/// A corrupt or truncated posting stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CompressError {
    /// The stream ended before all declared postings were decoded.
    Truncated,
    /// A decoded value was out of range (a path length of zero or beyond
    /// the supported maximum, a non-finite score, a score index out of
    /// first-use order, a table entry no posting uses, a count that does
    /// not match, trailing bytes).
    Corrupt,
}

/// Lower bound on one posting's bytes in a stream: a one-byte root gap,
/// a one-byte header and a one-byte score index. Every posting count read
/// from a stream is checked against `remaining bytes / MIN_POSTING_BYTES`
/// before anything is allocated for it.
const MIN_POSTING_BYTES: usize = 1 + 1 + 1;

/// Bytes of one score-table entry: two raw `f64`s. The table's length is
/// checked against `remaining bytes / TABLE_ENTRY_BYTES` the same way.
const TABLE_ENTRY_BYTES: usize = 16;

/// Encode all postings of `widx` (pattern-first order) as one word
/// stream. Boxed, i.e. shrunk to fit: the image writer holds every
/// word's stream at once, so the size guess's slack would add up.
///
/// The in-memory table's order is whatever built it, and a refresh may
/// leave entries no posting uses or repeat a pair: the stream's table is
/// re-derived in order of first use, merging entries by value (each used
/// entry is hashed once, never a posting), so a stream depends only on
/// its postings.
pub(crate) fn encode(widx: &WordPathIndex) -> Box<[u8]> {
    let pf = widx.pattern_first();
    let postings = pf.postings();
    let table = widx.score_table();
    let mut bytes: Vec<u8> = Vec::with_capacity(postings.len() * 10);

    // `remap[i]`: the stream index of in-memory entry `i`.
    let mut remap = vec![u32::MAX; table.len()];
    let mut stream_table = ScoreTable::default();
    for p in postings {
        let slot = &mut remap[p.score as usize];
        if *slot == u32::MAX {
            *slot = stream_table.intern(table[p.score as usize]);
        }
    }
    let stream_table = stream_table.into_terms();
    varint::put_u32(&mut bytes, stream_table.len() as u32);
    for terms in &stream_table {
        bytes.extend_from_slice(&terms.pagerank.to_le_bytes());
        bytes.extend_from_slice(&terms.sim.to_le_bytes());
    }

    // A group is the postings of one pattern. Postings are sorted by
    // (pattern, root), so the roots of a group never decrease and every
    // root gap is non-negative.
    varint::put_u32(&mut bytes, pf.num_primary() as u32);
    let mut prev_pat = 0u32;
    for (i, &pat) in pf.primary_keys().iter().enumerate() {
        varint::put_u32(&mut bytes, pat - prev_pat);
        prev_pat = pat;
        let group = pf.group_postings(i);
        varint::put_u32(&mut bytes, group.len() as u32);
        let mut prev_root = 0u32;
        for (p, &root) in group.iter().zip(pf.group_roots(i)) {
            varint::put_u32(&mut bytes, root - prev_root);
            prev_root = root;
            let header = ((p.nodes_len as u32) << 1) | u32::from(p.edge_terminal);
            varint::put_u32(&mut bytes, header);
            let nodes = widx.nodes_of(p);
            debug_assert_eq!(nodes[0], NodeId(root), "paths start at their root");
            for &v in &nodes[1..] {
                varint::put_u32(&mut bytes, v.0);
            }
            varint::put_u32(&mut bytes, remap[p.score as usize]);
        }
    }
    bytes.into_boxed_slice()
}

/// Decode one word's posting stream from a borrowed byte slice — the one
/// stream decoder, shared by the eager reference decode and an opened
/// image's first-touch decode ([`crate::storage`] borrows the stream in
/// place from the container).
///
/// The stream must span `buf` exactly and hold exactly `num_postings`
/// postings: trailing bytes are an error, so a wrong length prefix in the
/// container can never be silently absorbed.
pub(crate) fn decode_stream(buf: &[u8], num_postings: u32) -> Result<WordPathIndex, CompressError> {
    // `num_postings` comes from the container's lexicon: reserve no more
    // than the stream could hold, so a corrupt count cannot drive the
    // allocation. A valid stream always fits the cap, so its postings are
    // still reserved once, up front.
    let mut postings: Vec<KeyedPosting> =
        Vec::with_capacity((num_postings as usize).min(buf.len() / MIN_POSTING_BYTES));
    let mut arena: Vec<NodeId> = Vec::new();
    let mut pos = 0usize;

    let ntable = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)? as usize;
    if ntable > (buf.len() - pos) / TABLE_ENTRY_BYTES {
        return Err(CompressError::Truncated);
    }
    let mut scores = Vec::with_capacity(ntable);
    for entry in buf[pos..pos + ntable * TABLE_ENTRY_BYTES].chunks_exact(TABLE_ENTRY_BYTES) {
        let pagerank = f64::from_le_bytes(entry[..8].try_into().unwrap());
        let sim = f64::from_le_bytes(entry[8..].try_into().unwrap());
        if !pagerank.is_finite() || !sim.is_finite() {
            return Err(CompressError::Corrupt);
        }
        scores.push(ScoreTerms { pagerank, sim });
    }
    pos += ntable * TABLE_ENTRY_BYTES;
    // Entries are numbered in order of first use: a posting's index is one
    // already used or the next unused one.
    let mut used = 0u32;

    let num_groups = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)?;
    let mut pat = 0u32;
    for _ in 0..num_groups {
        let delta = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)?;
        pat = pat.checked_add(delta).ok_or(CompressError::Corrupt)?;
        let count = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)? as usize;
        if count > (buf.len() - pos) / MIN_POSTING_BYTES {
            return Err(CompressError::Truncated);
        }
        let mut root = 0u32;
        for _ in 0..count {
            let gap = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)?;
            root = root.checked_add(gap).ok_or(CompressError::Corrupt)?;
            let header = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)?;
            let edge_terminal = header & 1 == 1;
            let nodes_len = (header >> 1) as usize;
            if nodes_len == 0 || nodes_len > crate::build::MAX_D + 1 {
                return Err(CompressError::Corrupt);
            }
            let start = arena.len() as u32;
            arena.push(NodeId(root));
            for _ in 1..nodes_len {
                let v = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)?;
                arena.push(NodeId(v));
            }
            let score = varint::get_u32(buf, &mut pos).ok_or(CompressError::Truncated)?;
            if score > used || score as usize >= ntable {
                return Err(CompressError::Corrupt);
            }
            used += u32::from(score == used);
            postings.push(KeyedPosting {
                pattern: PatternId(pat),
                root: NodeId(root),
                posting: Posting {
                    nodes_start: start,
                    score,
                    nodes_len: nodes_len as u16,
                    edge_terminal,
                },
            });
        }
    }
    if postings.len() != num_postings as usize || pos != buf.len() || used as usize != ntable {
        return Err(CompressError::Corrupt);
    }
    Ok(WordPathIndex::assemble(None, postings, arena, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_indexes, BuildConfig};
    use crate::pattern::PatternSet;
    use crate::word_index::PathIndexes;
    use patternkb_graph::GraphBuilder;
    use patternkb_text::{SynonymTable, TextIndex};

    fn sample(n: usize, d: usize) -> (PathIndexes, TextIndex) {
        let mut b = GraphBuilder::new();
        let t0 = b.add_type("Device");
        let t1 = b.add_type("Vendor");
        let mk = b.add_attr("maker");
        let rel = b.add_attr("related");
        let names = ["alpha", "beta", "gamma", "delta"];
        let nodes: Vec<_> = (0..n)
            .map(|i| b.add_node(if i % 2 == 0 { t0 } else { t1 }, names[i % names.len()]))
            .collect();
        for i in 0..n {
            b.add_edge(nodes[i], mk, nodes[(i * 5 + 1) % n]);
            b.add_edge(nodes[i], rel, nodes[(i * 3 + 2) % n]);
        }
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        let cfg = BuildConfig {
            d,
            threads: 1,
            shards: 1,
        };
        (build_indexes(&g, &t, &cfg), t)
    }

    fn canon_word(
        idx_pats: &PatternSet,
        widx: &WordPathIndex,
    ) -> Vec<(Vec<u32>, Vec<NodeId>, bool, u64, u64)> {
        let mut v: Vec<_> = widx
            .postings_pattern_first()
            .iter()
            .map(|p| {
                (
                    idx_pats.key(p.pattern).to_vec(),
                    widx.nodes_of(p).to_vec(),
                    p.edge_terminal,
                    widx.score_terms(p).pagerank.to_bits(),
                    widx.score_terms(p).sim.to_bits(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (idx, _) = sample(40, 3);
        for (w, widx) in idx.shards()[0].iter_words() {
            let back = decode_stream(&encode(&widx), widx.len() as u32).expect("decodes");
            assert_eq!(
                canon_word(idx.patterns(), &widx),
                canon_word(idx.patterns(), &back),
                "word {w:?}"
            );
        }
    }

    #[test]
    fn streams_shrink_realistic_lists() {
        let (idx, _) = sample(200, 3);
        let stream_bytes: usize = idx.shards()[0]
            .iter_words()
            .map(|(_, widx)| encode(&widx).len())
            .sum();
        // Per posting, so the bound does not move with the decoded layout:
        // 6.03 measured against 39.5 decoded bytes per posting; a stream
        // carrying raw score terms per posting reads 16.7 here. The bound
        // is 0.15 of the 57.4 decoded bytes per posting the list held
        // while it kept a key per posting and a run directory.
        let per_posting = stream_bytes as f64 / idx.num_postings() as f64;
        assert!(
            per_posting < 8.6,
            "{per_posting:.2} stream bytes per posting ({stream_bytes} bytes, {} decoded)",
            idx.heap_bytes()
        );
    }

    #[test]
    fn truncation_and_wrong_count_detected() {
        let (idx, t) = sample(16, 2);
        let widx = idx.word_in(0, t.lookup_word("alpha").unwrap()).unwrap();
        let full = encode(&widx);
        let n = widx.len() as u32;
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            assert!(decode_stream(&full[..cut], n).is_err(), "cut at {cut}");
        }
        // The lexicon's count must match the stream, whichever way it is
        // off — including far beyond anything the stream could hold.
        for wrong in [0, n - 1, n + 1, u32::MAX] {
            assert_eq!(
                decode_stream(&full, wrong).err(),
                Some(CompressError::Corrupt)
            );
        }
        let mut padded = full.to_vec();
        padded.push(0);
        assert_eq!(
            decode_stream(&padded, n).err(),
            Some(CompressError::Corrupt)
        );
        // A group count the remaining bytes could hold at 2 bytes per
        // posting but not at the true minimum of 3 is refused before any
        // posting is read.
        let mut short = Vec::new();
        varint::put_u32(&mut short, 0); // an empty table
        varint::put_u32(&mut short, 1); // one group
        varint::put_u32(&mut short, 0); // pattern 0
        varint::put_u32(&mut short, 17); // 17 postings
        short.resize(short.len() + 17 * 2, 0);
        assert_eq!(
            decode_stream(&short, 17).err(),
            Some(CompressError::Truncated)
        );
    }

    /// A stream of one group under pattern 0 whose one-node postings
    /// (root gap 0) carry the score indices `scores`, behind a table of
    /// `table`.
    fn stream_with(table: &[(f64, f64)], scores: &[u32]) -> Vec<u8> {
        let mut stream = Vec::new();
        varint::put_u32(&mut stream, table.len() as u32);
        for &(pagerank, sim) in table {
            stream.extend_from_slice(&pagerank.to_le_bytes());
            stream.extend_from_slice(&sim.to_le_bytes());
        }
        varint::put_u32(&mut stream, 1); // one group
        varint::put_u32(&mut stream, 0); // pattern 0
        varint::put_u32(&mut stream, scores.len() as u32);
        for &score in scores {
            varint::put_u32(&mut stream, 0); // root gap
            varint::put_u32(&mut stream, 1 << 1); // a one-node path
            varint::put_u32(&mut stream, score);
        }
        stream
    }

    #[test]
    fn score_indices_follow_first_use() {
        let table = [(0.5, 1.0), (0.25, 0.5), (0.125, 0.5)];
        let widx = decode_stream(&stream_with(&table, &[0, 1, 0, 2, 1]), 5).expect("canonical");
        let pagerank: Vec<f64> = widx
            .postings_pattern_first()
            .iter()
            .map(|p| widx.score_terms(p).pagerank)
            .collect();
        assert_eq!(pagerank, [0.5, 0.25, 0.5, 0.125, 0.25]);
        assert_eq!(
            &encode(&widx)[..],
            &stream_with(&table, &[0, 1, 0, 2, 1])[..]
        );
        for (scores, why) in [
            (&[0, 1, 3][..], "an index past the table"),
            (&[0, 2, 1], "an index skipping ahead of first use"),
            (&[1, 0, 1, 2], "entry 1 used before entry 0"),
            (&[0, 1, 1], "an entry no posting uses"),
        ] {
            assert_eq!(
                decode_stream(&stream_with(&table, scores), scores.len() as u32).err(),
                Some(CompressError::Corrupt),
                "{why}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for entry in [(bad, 0.5), (0.5, bad)] {
                assert_eq!(
                    decode_stream(&stream_with(&[entry], &[0]), 1).err(),
                    Some(CompressError::Corrupt),
                    "a non-finite entry {entry:?}"
                );
            }
        }
    }

    #[test]
    fn a_table_longer_than_the_stream_is_truncated() {
        // Two entries' worth of bytes behind a count of 3, and behind a
        // count no stream could hold: refused before anything is
        // reserved for the table.
        for ntable in [3, u32::MAX] {
            let mut stream = Vec::new();
            varint::put_u32(&mut stream, ntable);
            stream.resize(stream.len() + 2 * TABLE_ENTRY_BYTES, 0);
            assert_eq!(
                decode_stream(&stream, 0).err(),
                Some(CompressError::Truncated),
                "ntable {ntable}"
            );
        }
    }

    #[test]
    fn root_gaps_past_u32_max_are_corrupt() {
        // One group of two postings whose root gaps sum to 2^32.
        let mut stream = Vec::new();
        varint::put_u32(&mut stream, 1); // one table entry
        stream.extend_from_slice(&0.5f64.to_le_bytes());
        stream.extend_from_slice(&0.5f64.to_le_bytes());
        varint::put_u32(&mut stream, 1); // one group
        varint::put_u32(&mut stream, 0); // pattern 0
        varint::put_u32(&mut stream, 2); // 2 postings
        for gap in [u32::MAX, 1] {
            varint::put_u32(&mut stream, gap);
            varint::put_u32(&mut stream, 1 << 1); // a one-node path
            varint::put_u32(&mut stream, 0); // the table's entry
        }
        assert_eq!(
            decode_stream(&stream, 2).err(),
            Some(CompressError::Corrupt)
        );
        // The same stream with a gap of 0 decodes: both roots are u32::MAX.
        let last_gap = stream.len() - (1 + 1 + 1);
        stream[last_gap] = 0;
        let widx = decode_stream(&stream, 2).expect("gaps sum to u32::MAX");
        assert!(widx
            .postings_pattern_first()
            .iter()
            .all(|p| p.root == NodeId(u32::MAX)));
    }

    #[test]
    fn bit_flips_never_panic() {
        let (idx, t) = sample(16, 2);
        let widx = idx.word_in(0, t.lookup_word("alpha").unwrap()).unwrap();
        let full = encode(&widx);
        for byte in 0..full.len() {
            let mut bad = full.to_vec();
            bad[byte] ^= 0xa5;
            // Either an error, or a decode to *different* postings that
            // the checksum-free stream cannot distinguish (a flipped
            // table byte is a valid-but-different float) — never a panic.
            let _ = decode_stream(&bad, widx.len() as u32);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random raw postings: arbitrary pattern ids, roots, path shapes,
        /// and finite scores — a superset of what construction produces.
        fn posting_strategy() -> impl Strategy<Value = (u32, Vec<u32>, bool, f64, f64)> {
            (
                0u32..50, // pattern
                proptest::collection::vec(0u32..10_000, 1..=crate::build::MAX_D + 1),
                proptest::bool::ANY, // edge_terminal
                0.0f64..1.0,         // pagerank
                0.0f64..1.0,         // sim
            )
        }

        proptest! {
            #[test]
            fn roundtrip_arbitrary_postings(
                raw in proptest::collection::vec(posting_strategy(), 0..80)
            ) {
                let mut postings = Vec::new();
                let mut arena = Vec::new();
                let mut scores = Vec::new();
                for (pat, nodes, edge_terminal, pr, sim) in &raw {
                    let start = arena.len() as u32;
                    arena.extend(nodes.iter().map(|&v| NodeId(v)));
                    postings.push(KeyedPosting {
                        pattern: PatternId(*pat),
                        root: NodeId(nodes[0]),
                        posting: Posting {
                            nodes_start: start,
                            score: scores.len() as u32,
                            nodes_len: nodes.len() as u16,
                            edge_terminal: *edge_terminal,
                        },
                    });
                    scores.push(ScoreTerms { pagerank: *pr, sim: *sim });
                }
                let widx = WordPathIndex::new(postings, arena, scores);
                let back = decode_stream(&encode(&widx), widx.len() as u32)
                    .expect("well-formed stream decodes");
                prop_assert_eq!(back.len(), widx.len());
                let project = |w: &WordPathIndex| {
                    let mut v: Vec<(u32, Vec<NodeId>, bool, u64, u64)> = w
                        .postings_pattern_first()
                        .iter()
                        .map(|p| (
                            p.pattern.0,
                            w.nodes_of(p).to_vec(),
                            p.edge_terminal,
                            w.score_terms(p).pagerank.to_bits(),
                            w.score_terms(p).sim.to_bits(),
                        ))
                        .collect();
                    v.sort();
                    v
                };
                prop_assert_eq!(project(&widx), project(&back));
            }
        }
    }
}
