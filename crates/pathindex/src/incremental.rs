//! Incremental maintenance of the path-pattern indexes under graph
//! mutation.
//!
//! Full index construction (Algorithm 1) costs minutes at knowledge-base
//! scale — the paper's Figure 6 reports 502 s for `d = 3` on Wiki — which
//! is far too slow to rerun for every ingested fact. This module refreshes
//! an existing [`PathIndexes`] after a batch of graph mutations by
//! re-enumerating paths only from the **affected roots**.
//!
//! A root's indexed paths can change only if some path from it (in the old
//! *or* new graph, with at most `d` nodes) touches a *dirty* node — an
//! endpoint of an added/removed edge or a brand-new node (see
//! [`patternkb_graph::mutate::GraphDelta::dirty_nodes`]). Equivalently, the
//! root reaches a dirty node within `d − 1` hops, so the affected set is a
//! backward BFS of depth `d − 1` from the dirty set, run on **both** the
//! old graph (covers paths that existed before a removal) and the new one
//! (covers paths created by an addition). Postings rooted outside the
//! affected set are carried over verbatim; affected roots are rebuilt with
//! the same DFS as full construction.
//!
//! Two subtleties:
//!
//! * **Word-id stability.** The text index is rebuilt against the new
//!   graph, and word ids are assigned in interning order — a new type or
//!   attribute that introduces vocabulary shifts every later id. Carried-
//!   over postings are therefore *remapped* through the canonical word
//!   forms (old id → canonical text → new id); text is never removed, so
//!   the remap is total.
//! * **PageRank.** The postings cache `PR(f(w))`. When the mutation was
//!   applied with [`patternkb_graph::mutate::PagerankMode::Recompute`],
//!   every node's score moved, so pass `refresh_pagerank = true` and the
//!   carried-over postings get their cached score re-read from the new
//!   graph (an O(postings) pass, no path enumeration). Under `Frozen`
//!   semantics pass `false` and the old cached scores remain exact.
//!
//! The result is **semantically identical** to a full rebuild on the new
//! graph: same per-word posting multisets, same patterns, same scores
//! (asserted by the equivalence tests below and by property tests). Only
//! internal id assignment (pattern ids, arena layout) may differ, and
//! stale patterns with no remaining postings may linger in the interner —
//! both invisible through the query API.

use crate::build;
use crate::pattern::{PatternId, PatternSet};
use crate::posting::Posting;
use crate::word_index::{PathIndexes, WordPathIndex};
use patternkb_graph::ids::Id;
use patternkb_graph::{traversal, FxHashMap, KnowledgeGraph, NodeId, WordId};
use patternkb_text::TextIndex;

/// Counters describing one [`refresh_indexes`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Roots whose paths were re-enumerated.
    pub affected_roots: usize,
    /// Postings dropped because their root was affected.
    pub postings_dropped: usize,
    /// Postings carried over verbatim (modulo word-id remap and optional
    /// PageRank re-read).
    pub postings_kept: usize,
    /// Fresh postings produced by re-enumerating the affected roots.
    pub postings_added: usize,
    /// Path patterns newly interned by the refresh.
    pub patterns_added: usize,
}

/// Rebuild the path indexes for `new_g` from the indexes of `old_g`,
/// re-enumerating only roots whose `d`-bounded neighbourhood can have
/// changed.
///
/// `dirty` is the seed set of changed nodes (typically
/// [`patternkb_graph::mutate::GraphDelta::dirty_nodes`]). `old_text` /
/// `new_text` are the text indexes of the two graphs (the new one is a
/// cheap full rebuild — tokenization is linear in the text, not in the
/// path count). Set `refresh_pagerank` iff the mutation recomputed
/// PageRank.
pub fn refresh_indexes(
    old: &PathIndexes,
    old_g: &KnowledgeGraph,
    new_g: &KnowledgeGraph,
    old_text: &TextIndex,
    new_text: &TextIndex,
    dirty: &[NodeId],
    refresh_pagerank: bool,
) -> (PathIndexes, RefreshStats) {
    let d = old.d();
    let old_n = old_g.num_nodes();
    let new_n = new_g.num_nodes();
    let mut stats = RefreshStats::default();

    // --- 1. Affected roots: backward BFS depth d−1 on both graphs. ---
    let mask_old = traversal::backward_reach_mask(
        old_g,
        dirty.iter().copied().filter(|v| v.index() < old_n),
        d,
    );
    let mask_new = traversal::backward_reach_mask(new_g, dirty.iter().copied(), d);
    let mut affected = mask_new;
    for (i, &m) in mask_old.iter().enumerate() {
        if m {
            affected[i] = true;
        }
    }
    debug_assert_eq!(affected.len(), new_n);
    let affected_roots: Vec<NodeId> = (0..new_n)
        .filter(|&i| affected[i])
        .map(NodeId::from_usize)
        .collect();
    stats.affected_roots = affected_roots.len();

    // --- 2. Word-id remap old → new through canonical forms. ---
    let remap: FxHashMap<WordId, WordId> = old
        .word_ids()
        .into_iter()
        .map(|w| {
            let canon = old_text.vocab().resolve(w);
            let nw = new_text
                .vocab()
                .lookup_canonical(canon)
                .expect("canonical words survive mutation (text is never removed)");
            (w, nw)
        })
        .collect();

    // --- 3. Carry over postings of unaffected roots, shard by shard
    //        (unaffected roots stay in their owning shard). ---
    let bounds = old.bounds().to_vec();
    let num_shards = old.num_shards();
    let mut patterns: PatternSet = old.patterns().clone();
    let patterns_before = patterns.len();
    let mut acc: Vec<FxHashMap<WordId, (Vec<Posting>, Vec<NodeId>)>> =
        (0..num_shards).map(|_| FxHashMap::default()).collect();
    for (s, shard) in old.shards().iter().enumerate() {
        for (w, widx) in shard.iter_words() {
            let nw = remap[&w];
            let (postings, arena) = acc[s].entry(nw).or_default();
            for p in widx.postings_pattern_first() {
                if affected[p.root.index()] {
                    stats.postings_dropped += 1;
                    continue;
                }
                let nodes = widx.nodes_of(p);
                let start = arena.len() as u32;
                arena.extend_from_slice(nodes);
                let pagerank = if refresh_pagerank {
                    // Matched node: the terminal for node matches, the edge's
                    // source (second-to-last stored node — the leaf is
                    // appended) for edge matches.
                    let matched = if p.edge_terminal {
                        nodes[nodes.len() - 2]
                    } else {
                        *nodes.last().expect("non-empty path")
                    };
                    new_g.pagerank(matched)
                } else {
                    p.pagerank
                };
                postings.push(Posting {
                    pattern: p.pattern,
                    root: p.root,
                    nodes_start: start,
                    nodes_len: p.nodes_len,
                    edge_terminal: p.edge_terminal,
                    pagerank,
                    sim: p.sim,
                });
                stats.postings_kept += 1;
            }
        }
    }

    // --- 4. Re-enumerate the affected roots on the new graph, routing
    //        each fresh posting to the shard owning its root (new nodes
    //        beyond the old bounds land in the last shard). ---
    let out = build::build_roots(new_g, new_text, d, affected_roots.iter().copied());
    let pat_remap: Vec<PatternId> = (0..out.patterns.len())
        .map(|i| patterns.intern_key(out.patterns.key(PatternId(i as u32))))
        .collect();
    for e in out.entries {
        let s = (bounds.partition_point(|&b| b <= e.root.0) - 1).min(num_shards - 1);
        let (postings, arena) = acc[s].entry(e.word).or_default();
        let start = arena.len() as u32;
        arena.extend_from_slice(&e.nodes[..e.nodes_len as usize]);
        postings.push(Posting {
            pattern: pat_remap[e.lpat as usize],
            root: e.root,
            nodes_start: start,
            nodes_len: e.nodes_len as u16,
            edge_terminal: e.edge_terminal,
            pagerank: e.pagerank,
            sim: e.sim,
        });
        stats.postings_added += 1;
    }
    stats.patterns_added = patterns.len() - patterns_before;

    // --- 5. Re-freeze per-word indexes (drops words left empty). ---
    let shards: Vec<crate::word_index::IndexShard> = acc
        .into_iter()
        .map(|per_word| {
            crate::word_index::IndexShard::new(
                per_word
                    .into_iter()
                    .filter(|(_, (postings, _))| !postings.is_empty())
                    .map(|(w, (postings, arena))| (w, WordPathIndex::new(postings, arena)))
                    .collect(),
            )
        })
        .collect();
    (PathIndexes::new(d, patterns, bounds, shards), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_indexes, BuildConfig};
    use patternkb_graph::mutate::{GraphDelta, PagerankMode};
    use patternkb_graph::GraphBuilder;
    use patternkb_text::SynonymTable;

    /// Canonicalize a whole index into a comparable value: per canonical
    /// word text, the sorted multiset of (pattern key, node sequence,
    /// flags, score bits).
    fn canon(
        idx: &PathIndexes,
        text: &TextIndex,
    ) -> Vec<(String, Vec<(Vec<u32>, Vec<NodeId>, bool, u64, u64)>)> {
        let mut acc: std::collections::BTreeMap<
            String,
            Vec<(Vec<u32>, Vec<NodeId>, bool, u64, u64)>,
        > = std::collections::BTreeMap::new();
        for shard in idx.shards() {
            for (w, widx) in shard.iter_words() {
                let rows = acc.entry(text.vocab().resolve(w).to_string()).or_default();
                rows.extend(widx.postings_pattern_first().iter().map(|p| {
                    (
                        idx.patterns().key(p.pattern).to_vec(),
                        widx.nodes_of(p).to_vec(),
                        p.edge_terminal,
                        p.pagerank.to_bits(),
                        p.sim.to_bits(),
                    )
                }));
            }
        }
        acc.into_iter()
            .map(|(word, mut rows)| {
                rows.sort();
                (word, rows)
            })
            .collect()
    }

    fn base_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let soft = b.add_type("Software");
        let comp = b.add_type("Company");
        let model = b.add_type("Model");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let genre = b.add_attr("Genre");
        let sql = b.add_node(soft, "SQL Server");
        let ms = b.add_node(comp, "Microsoft");
        let rdb = b.add_node(model, "Relational database");
        b.add_edge(sql, dev, ms);
        b.add_edge(sql, genre, rdb);
        b.add_text_edge(ms, rev, "US$ 77 billion");
        b.build()
    }

    fn rebuild_and_refresh(
        g: &KnowledgeGraph,
        delta: &GraphDelta,
        mode: PagerankMode,
    ) -> (PathIndexes, PathIndexes, TextIndex, RefreshStats) {
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 1,
        };
        let old_text = TextIndex::build(g, SynonymTable::new());
        let old_idx = build_indexes(g, &old_text, &cfg);

        let g2 = delta.apply(g, mode).expect("delta applies");
        let new_text = TextIndex::build(&g2, SynonymTable::new());
        let full = build_indexes(&g2, &new_text, &cfg);
        let (incr, stats) = refresh_indexes(
            &old_idx,
            g,
            &g2,
            &old_text,
            &new_text,
            &delta.dirty_nodes(),
            mode == PagerankMode::Recompute,
        );
        (full, incr, new_text, stats)
    }

    #[test]
    fn add_entity_matches_full_rebuild() {
        let g = base_graph();
        let comp = g.type_by_text("Company").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(&g);
        let ora = d.add_node(comp, "Oracle Corp").unwrap();
        let soft = g.type_by_text("Software").unwrap();
        let odb = d.add_node(soft, "Oracle DB").unwrap();
        d.add_edge(odb, dev, ora).unwrap();
        d.add_text_edge(ora, rev, "US$ 37 billion").unwrap();
        let (full, incr, text, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Recompute);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
        assert!(stats.postings_added > 0);
    }

    #[test]
    fn remove_edge_matches_full_rebuild() {
        let g = base_graph();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();
        let (full, incr, text, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Recompute);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
        assert!(stats.postings_dropped > 0);
    }

    #[test]
    fn frozen_mode_matches_full_rebuild_on_frozen_graph() {
        let g = base_graph();
        let comp = g.type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(&g);
        let _ = d.add_node(comp, "Oracle Corp").unwrap();
        let (full, incr, text, _) = rebuild_and_refresh(&g, &d, PagerankMode::Frozen);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
    }

    #[test]
    fn new_vocabulary_via_new_attr_remaps_word_ids() {
        // A new attribute whose text interleaves new words before the node
        // words in interning order: exercises the word-id remap.
        let g = base_graph();
        let mut d = GraphDelta::new(&g);
        let acquired = d.add_attr("acquired subsidiary");
        d.add_edge(NodeId(1), acquired, NodeId(0)).unwrap();
        let (full, incr, text, _) = rebuild_and_refresh(&g, &d, PagerankMode::Recompute);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
        // The new attribute's words must be findable.
        let w = text.lookup_word("subsidiary").expect("new word indexed");
        assert!(incr.has_word(w));
    }

    #[test]
    fn empty_delta_keeps_everything() {
        let g = base_graph();
        let d = GraphDelta::new(&g);
        let (full, incr, text, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Frozen);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
        assert_eq!(stats.affected_roots, 0);
        assert_eq!(stats.postings_dropped, 0);
        assert_eq!(stats.postings_added, 0);
        assert_eq!(stats.postings_kept, full.num_postings());
    }

    #[test]
    fn far_away_roots_untouched() {
        // A long chain: mutating the tail must not re-enumerate the head.
        let mut b = GraphBuilder::new();
        let t = b.add_type("Station");
        let next = b.add_attr("next");
        let nodes: Vec<_> = (0..12)
            .map(|i| b.add_node(t, &format!("station {i}")))
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], next, w[1]);
        }
        let g = b.build();
        let mut d = GraphDelta::new(&g);
        let extra = d.add_node(t, "station extra").unwrap();
        d.add_edge(nodes[11], next, extra).unwrap();
        let (full, incr, text, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Frozen);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
        // Only the last d−1 = 2 chain nodes (plus the new one) can reach the
        // dirty set within 2 hops.
        assert!(
            stats.affected_roots <= 4,
            "expected a local refresh, got {} affected roots",
            stats.affected_roots
        );
        assert!(stats.postings_kept > 0);
    }

    #[test]
    fn refreshed_index_recompresses_identically_to_full_rebuild() {
        // A chain long enough that posting lists span several blocks and
        // the adaptive selector has real choices to make. Extending the
        // tail dirties only nearby roots, yet the refreshed index must
        // re-freeze its per-word indexes so that re-encoding re-runs
        // codec selection on the dirtied lists — byte-identical to
        // encoding a from-scratch rebuild of the new graph.
        let mut b = GraphBuilder::new();
        let t = b.add_type("Station");
        let next = b.add_attr("next");
        let nodes: Vec<_> = (0..300)
            .map(|i| b.add_node(t, &format!("station s{i}")))
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], next, w[1]);
        }
        let g = b.build();
        let mut d = GraphDelta::new(&g);
        let extra = d.add_node(t, "station tail").unwrap();
        d.add_edge(nodes[299], next, extra).unwrap();
        let (full, incr, _text, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Recompute);
        assert!(stats.postings_kept > 0 && stats.postings_added > 0);

        assert_eq!(
            crate::storage::encode_v5(&full),
            crate::storage::encode_v5(&incr),
            "refresh must produce an index whose persisted image is \
             byte-identical to a full rebuild's"
        );
    }

    #[test]
    fn chained_deltas_stay_consistent() {
        // Apply three deltas in sequence, refreshing after each; final
        // index must equal a from-scratch build of the final graph.
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 1,
        };
        let mut g = base_graph();
        let mut text = TextIndex::build(&g, SynonymTable::new());
        let mut idx = build_indexes(&g, &text, &cfg);

        for step in 0..3 {
            let comp = g.type_by_text("Company").unwrap();
            let dev = g.attr_by_text("Developer").unwrap();
            let mut d = GraphDelta::new(&g);
            let v = d.add_node(comp, &format!("company {step}")).unwrap();
            d.add_edge(NodeId(0), dev, v).unwrap();
            let g2 = d.apply(&g, PagerankMode::Recompute).unwrap();
            let text2 = TextIndex::build(&g2, SynonymTable::new());
            let (idx2, _) = refresh_indexes(&idx, &g, &g2, &text, &text2, &d.dirty_nodes(), true);
            g = g2;
            text = text2;
            idx = idx2;
        }

        let full = build_indexes(&g, &text, &cfg);
        assert_eq!(canon(&full, &text), canon(&idx, &text));
    }
}
