//! Property test: incremental index refresh is semantically identical to a
//! full rebuild, for arbitrary small graphs and arbitrary mutation batches
//! — one at a time, and as chains of deltas over an already-patched index
//! on either storage tier.

use proptest::prelude::*;

use patternkb_graph::mutate::{GraphDelta, PagerankMode};
use patternkb_graph::{GraphBuilder, KnowledgeGraph, NodeId};
use patternkb_index::storage::{encode_v5, open_bytes};
use patternkb_index::{build_indexes, refresh_indexes, BuildConfig, PathIndexes, StorageBackend};
use patternkb_text::{SynonymTable, TextIndex};

/// A word pool small enough that keywords collide across nodes, exercising
/// multi-root posting lists.
const WORDS: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "omega", "kernel", "driver", "engine",
];
const TYPES: &[&str] = &["Device", "Vendor", "Protocol"];
const ATTRS: &[&str] = &["maker", "speaks", "replaces"];

#[derive(Clone, Debug)]
struct RandomGraph {
    nodes: Vec<(usize, usize)>,        // (type idx, word idx)
    edges: Vec<(usize, usize, usize)>, // (source, attr idx, target)
}

fn graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (2usize..10).prop_flat_map(|n| {
        let nodes = proptest::collection::vec((0..TYPES.len(), 0..WORDS.len()), n);
        let edges = proptest::collection::vec((0..n, 0..ATTRS.len(), 0..n), 0..(2 * n));
        (nodes, edges).prop_map(|(nodes, edges)| RandomGraph { nodes, edges })
    })
}

#[derive(Clone, Debug)]
enum Op {
    /// Add a node of TYPES[t] with text WORDS[w].
    AddNode { t: usize, w: usize },
    /// Add edge between node indices (mod current node count).
    AddEdge { s: usize, a: usize, t: usize },
    /// Remove the i-th existing edge (mod edge count), if any.
    RemoveEdge { i: usize },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..TYPES.len(), 0..WORDS.len()).prop_map(|(t, w)| Op::AddNode { t, w }),
            (0..64usize, 0..ATTRS.len(), 0..64usize).prop_map(|(s, a, t)| Op::AddEdge { s, a, t }),
            (0..64usize).prop_map(|i| Op::RemoveEdge { i }),
        ],
        1..8,
    )
}

fn build_graph(rg: &RandomGraph) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let types: Vec<_> = TYPES.iter().map(|t| b.add_type(t)).collect();
    let attrs: Vec<_> = ATTRS.iter().map(|a| b.add_attr(a)).collect();
    let nodes: Vec<_> = rg
        .nodes
        .iter()
        .map(|&(t, w)| b.add_node(types[t], WORDS[w]))
        .collect();
    for &(s, a, t) in &rg.edges {
        b.add_edge(nodes[s], attrs[a], nodes[t]);
    }
    b.build()
}

/// Apply the op list as a delta, skipping ops the validator rejects (the
/// point here is index equivalence, not delta validation, which has its own
/// unit tests).
fn build_delta(g: &KnowledgeGraph, ops: &[Op]) -> GraphDelta {
    let mut d = GraphDelta::new(g);
    let mut nodes = g.num_nodes();
    let existing: Vec<_> = g.edges().collect();
    let mut removed: Vec<(NodeId, patternkb_graph::AttrId, NodeId)> = Vec::new();
    let mut added: Vec<(NodeId, patternkb_graph::AttrId, NodeId)> = Vec::new();
    for op in ops {
        match *op {
            Op::AddNode { t, w } => {
                let tid = g.type_by_text(TYPES[t]).unwrap();
                d.add_node(tid, WORDS[w]).unwrap();
                nodes += 1;
            }
            Op::AddEdge { s, a, t } => {
                let s = NodeId((s % nodes) as u32);
                let t = NodeId((t % nodes) as u32);
                let a = g.attr_by_text(ATTRS[a]).unwrap();
                let survives = g.has_edge(s, a, t) && !removed.contains(&(s, a, t));
                if !survives && !added.contains(&(s, a, t)) {
                    d.add_edge(s, a, t).unwrap();
                    added.push((s, a, t));
                }
            }
            Op::RemoveEdge { i } => {
                if existing.is_empty() {
                    continue;
                }
                let e = existing[i % existing.len()];
                if !removed.contains(&(e.source, e.attr, e.target))
                    && !added.contains(&(e.source, e.attr, e.target))
                {
                    d.remove_edge(e.source, e.attr, e.target).unwrap();
                    removed.push((e.source, e.attr, e.target));
                }
            }
        }
    }
    d
}

/// Project an index to a canonical, id-free form.
fn canon(
    idx: &PathIndexes,
    text: &TextIndex,
) -> Vec<(String, Vec<(Vec<u32>, Vec<NodeId>, bool, u64, u64)>)> {
    let mut acc: std::collections::BTreeMap<String, Vec<(Vec<u32>, Vec<NodeId>, bool, u64, u64)>> =
        std::collections::BTreeMap::new();
    for shard in idx.shards() {
        for (w, widx) in shard.iter_words() {
            let rows = acc.entry(text.vocab().resolve(w).to_string()).or_default();
            rows.extend(widx.postings_pattern_first().iter().map(|p| {
                (
                    idx.patterns().key(p.pattern).to_vec(),
                    widx.nodes_of(p).to_vec(),
                    p.edge_terminal,
                    widx.score_terms(p).pagerank.to_bits(),
                    widx.score_terms(p).sim.to_bits(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_refresh_equals_full_rebuild(
        rg in graph_strategy(),
        ops in ops_strategy(),
        d in 2usize..5,
        shards in 1usize..4,
        recompute in proptest::bool::ANY,
    ) {
        let cfg = BuildConfig { d, threads: 1, shards };
        let g = build_graph(&rg);
        let old_text = TextIndex::build(&g, SynonymTable::new());
        let old_idx = build_indexes(&g, &old_text, &cfg);

        let delta = build_delta(&g, &ops);
        let mode = if recompute { PagerankMode::Recompute } else { PagerankMode::Frozen };
        let g2 = delta.apply(&g, mode).expect("filtered delta always applies");
        let new_text = TextIndex::build(&g2, SynonymTable::new());

        let full = build_indexes(&g2, &new_text, &cfg);
        let (incr, _) = refresh_indexes(
            &old_idx, &g, &g2, &old_text, &new_text, &delta.dirty_nodes(), recompute,
        );
        prop_assert_eq!(canon(&full, &new_text), canon(&incr, &new_text));
    }

    /// A chain of deltas, each applied on top of the previous refresh's
    /// (patched) result, from a heap base and from a mapped base: both end
    /// canonically equal to a from-scratch build of the final graph and
    /// persist to the same bytes as each other; frozen steps leave the
    /// mapped chain served from its image. The heap chain extends its text index the way the serving
    /// path does, the mapped chain rebuilds it the way a caller holding
    /// only graphs does — `refresh_indexes` accepts either.
    #[test]
    fn chained_refresh_over_patched_index_equals_full_rebuild(
        rg in graph_strategy(),
        steps in proptest::collection::vec((ops_strategy(), (0u8..5).prop_map(|r| r == 0)), 3..5),
        d in 2usize..4,
    ) {
        for shards in [1usize, 2] {
            let cfg = BuildConfig { d, threads: 1, shards };
            let mut g = build_graph(&rg);
            let mut text_a = TextIndex::build(&g, SynonymTable::new());
            let mut text_b = TextIndex::build(&g, SynonymTable::new());
            let mut heap = build_indexes(&g, &text_a, &cfg);
            let mut mapped = open_bytes(encode_v5(&heap)).expect("image opens");
            let mut frozen_so_far = true;

            for (ops, recompute) in &steps {
                let delta = build_delta(&g, ops);
                let mode = if *recompute { PagerankMode::Recompute } else { PagerankMode::Frozen };
                let g2 = delta.apply(&g, mode).expect("filtered delta always applies");
                let next_a = text_a.extended(&g2, &delta);
                let next_b = TextIndex::build(&g2, SynonymTable::new());
                let dirty = delta.dirty_nodes();
                let (h, hs) = refresh_indexes(&heap, &g, &g2, &text_a, &next_a, &dirty, *recompute);
                let (m, ms) = refresh_indexes(&mapped, &g, &g2, &text_b, &next_b, &dirty, *recompute);
                prop_assert_eq!(hs, ms);
                prop_assert_eq!(hs.postings_kept + hs.postings_added, h.num_postings());
                frozen_so_far &= !*recompute;
                if frozen_so_far {
                    prop_assert_eq!(m.storage_backend(), StorageBackend::Heap);
                    prop_assert!(m.resident_bytes() > m.heap_bytes());
                    prop_assert_eq!(h.num_patched_words(), m.num_patched_words());
                }
                (g, text_a, text_b, heap, mapped) = (g2, next_a, next_b, h, m);
            }

            let full = build_indexes(&g, &text_a, &cfg);
            let reference = canon(&full, &text_a);
            prop_assert_eq!(&reference, &canon(&heap, &text_a));
            prop_assert_eq!(&reference, &canon(&mapped, &text_b));
            prop_assert_eq!(full.num_postings(), heap.num_postings());
            prop_assert_eq!(full.num_words(), mapped.num_words());
            let image = encode_v5(&heap);
            prop_assert_eq!(&image, &encode_v5(&mapped));
            // The from-scratch image differs in framing (a refreshed
            // index keeps its shard bounds and its append-only pattern
            // table), so it is compared through a reopen.
            let reopened = open_bytes(image).expect("refreshed image opens");
            prop_assert_eq!(&reference, &canon(&reopened, &text_a));
        }
    }
}
