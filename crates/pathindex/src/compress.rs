//! The word-stream codec of the `PKB5` container ([`crate::storage`]):
//! one word's postings as a compact byte stream.
//!
//! The decoded [`WordPathIndex`] stores every posting as a fixed-width
//! struct (fast, but 32 bytes per posting plus the root directory and the
//! node arena). For large `d` the index grows steeply — the paper's
//! Figure 6 reports 34 GB at `d = 4` — so the persisted image keeps each
//! word's postings in this form and decodes on demand:
//!
//! * postings are stored once, in pattern-first order, grouped by pattern;
//! * each posting leads with its root as a varint gap from the previous
//!   root in its group (the first posting's gap is from 0), so the roots
//!   of a group are non-decreasing by construction;
//! * pattern ids are delta-coded varints;
//! * the leading path node is implicit (it equals the root);
//! * the two cached scores stay as raw little-endian `f64`s, so an
//!   [`encode`] → [`decode_stream`] round trip is **bit-exact** (asserted
//!   by tests).
//!
//! `docs/FORMATS.md` ("word stream") is the normative layout. Decoding
//! validates the stream and reports [`CompressError`] on truncation or
//! corruption instead of panicking.

use crate::pattern::PatternId;
use crate::posting::Posting;
use crate::varint;
use crate::word_index::WordPathIndex;
use patternkb_graph::NodeId;

/// A corrupt or truncated posting stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CompressError {
    /// The stream ended before all declared postings were decoded.
    Truncated,
    /// A decoded value was out of range (a path length of zero or beyond
    /// the supported maximum, a non-finite score, a count that does not
    /// match, trailing bytes).
    Corrupt,
}

/// Lower bound on one posting's bytes in a stream: a one-byte root gap
/// and a one-byte header varint, plus the two raw `f64` scores. Every
/// count read from a stream is checked against `remaining bytes /
/// MIN_POSTING_BYTES` before anything is allocated for it.
const MIN_POSTING_BYTES: usize = 1 + 1 + 8 + 8;

/// Encode all postings of `widx` (pattern-first order) as one word
/// stream. Boxed, i.e. shrunk to fit: the image writer holds every
/// word's stream at once, so the size guess's slack would add up.
pub(crate) fn encode(widx: &WordPathIndex) -> Box<[u8]> {
    let postings = widx.postings_pattern_first();
    let mut bytes: Vec<u8> = Vec::with_capacity(postings.len() * 24);

    // A group is a maximal run of one pattern. Postings are sorted by
    // (pattern, root), so the roots of a group never decrease and every
    // root gap is non-negative.
    let same_pattern = |a: &Posting, b: &Posting| a.pattern == b.pattern;
    varint::put_u32(&mut bytes, postings.chunk_by(same_pattern).count() as u32);
    let mut prev_pat = 0u32;
    for group in postings.chunk_by(same_pattern) {
        let pat = group[0].pattern.0;
        varint::put_u32(&mut bytes, pat - prev_pat);
        prev_pat = pat;
        varint::put_u32(&mut bytes, group.len() as u32);
        let mut prev_root = 0u32;
        for p in group {
            varint::put_u32(&mut bytes, p.root.0 - prev_root);
            prev_root = p.root.0;
            let header = ((p.nodes_len as u32) << 1) | u32::from(p.edge_terminal);
            varint::put_u32(&mut bytes, header);
            let nodes = widx.nodes_of(p);
            debug_assert_eq!(nodes[0], p.root, "paths start at their root");
            for &v in &nodes[1..] {
                varint::put_u32(&mut bytes, v.0);
            }
            bytes.extend_from_slice(&p.pagerank.to_le_bytes());
            bytes.extend_from_slice(&p.sim.to_le_bytes());
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
    let mut postings: Vec<Posting> =
        Vec::with_capacity((num_postings as usize).min(buf.len() / MIN_POSTING_BYTES));
    let mut arena: Vec<NodeId> = Vec::new();
    let mut pos = 0usize;

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
            if pos + 16 > buf.len() {
                return Err(CompressError::Truncated);
            }
            let pagerank = f64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
            let sim = f64::from_le_bytes(buf[pos + 8..pos + 16].try_into().unwrap());
            pos += 16;
            if !pagerank.is_finite() || !sim.is_finite() {
                return Err(CompressError::Corrupt);
            }
            postings.push(Posting {
                pattern: PatternId(pat),
                root: NodeId(root),
                nodes_start: start,
                nodes_len: nodes_len as u16,
                edge_terminal,
                pagerank,
                sim,
            });
        }
    }
    if postings.len() != num_postings as usize || pos != buf.len() {
        return Err(CompressError::Corrupt);
    }
    Ok(WordPathIndex::new(postings, arena))
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
                    p.pagerank.to_bits(),
                    p.sim.to_bits(),
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
            let back = decode_stream(&encode(widx), widx.len() as u32).expect("decodes");
            assert_eq!(
                canon_word(idx.patterns(), widx),
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
            .map(|(_, widx)| encode(widx).len())
            .sum();
        let ratio = stream_bytes as f64 / idx.heap_bytes() as f64;
        assert!(
            ratio < 0.6,
            "expected ≥40% savings, got ratio {ratio:.3} ({stream_bytes} vs {} bytes)",
            idx.heap_bytes()
        );
    }

    #[test]
    fn truncation_and_wrong_count_detected() {
        let (idx, t) = sample(16, 2);
        let widx = idx.word(t.lookup_word("alpha").unwrap()).unwrap();
        let full = encode(widx);
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
        // A group count the remaining bytes could hold at 17 bytes per
        // posting but not at the true minimum of 18 is refused before
        // any posting is read.
        let mut short = Vec::new();
        varint::put_u32(&mut short, 1); // one group
        varint::put_u32(&mut short, 0); // pattern 0
        varint::put_u32(&mut short, 17); // 17 postings
        short.resize(short.len() + 17 * 17, 0);
        assert_eq!(
            decode_stream(&short, 17).err(),
            Some(CompressError::Truncated)
        );
    }

    #[test]
    fn root_gaps_past_u32_max_are_corrupt() {
        // One group of two postings whose root gaps sum to 2^32.
        let mut stream = Vec::new();
        varint::put_u32(&mut stream, 1); // one group
        varint::put_u32(&mut stream, 0); // pattern 0
        varint::put_u32(&mut stream, 2); // 2 postings
        for gap in [u32::MAX, 1] {
            varint::put_u32(&mut stream, gap);
            varint::put_u32(&mut stream, 1 << 1); // a one-node path
            stream.extend_from_slice(&0.5f64.to_le_bytes());
            stream.extend_from_slice(&0.5f64.to_le_bytes());
        }
        assert_eq!(
            decode_stream(&stream, 2).err(),
            Some(CompressError::Corrupt)
        );
        // The same stream with a gap of 0 decodes: both roots are u32::MAX.
        let last_gap = stream.len() - (1 + 1 + 16);
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
        let widx = idx.word(t.lookup_word("alpha").unwrap()).unwrap();
        let full = encode(widx);
        for byte in 0..full.len() {
            let mut bad = full.to_vec();
            bad[byte] ^= 0xa5;
            // Either an error, or a decode to *different* postings that
            // the checksum-free stream cannot distinguish (a flipped
            // score byte is a valid-but-different float) — never a panic.
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
                for (pat, nodes, edge_terminal, pr, sim) in &raw {
                    let start = arena.len() as u32;
                    arena.extend(nodes.iter().map(|&v| NodeId(v)));
                    postings.push(Posting {
                        pattern: PatternId(*pat),
                        root: NodeId(nodes[0]),
                        nodes_start: start,
                        nodes_len: nodes.len() as u16,
                        edge_terminal: *edge_terminal,
                        pagerank: *pr,
                        sim: *sim,
                    });
                }
                let widx = WordPathIndex::new(postings, arena);
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
                            p.pagerank.to_bits(),
                            p.sim.to_bits(),
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
