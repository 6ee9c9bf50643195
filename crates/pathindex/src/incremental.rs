//! Incremental maintenance of the path-pattern indexes under graph
//! mutation: an ingest costs what it changed.
//!
//! Full index construction (Algorithm 1) costs minutes at knowledge-base
//! scale — the paper's Figure 6 reports 502 s for `d = 3` on Wiki — which
//! is far too slow to rerun for every ingested fact. This module derives
//! the [`PathIndexes`] of the mutated graph from the previous version in
//! two steps, both proportional to the delta:
//!
//! * **Affected roots.** A root's indexed paths can change only if some
//!   path from it (in the old *or* new graph, with at most `d` nodes)
//!   touches a *dirty* node — an endpoint of an added/removed edge or a
//!   brand-new node (see
//!   [`patternkb_graph::mutate::GraphDelta::dirty_nodes`]). Equivalently,
//!   the root reaches a dirty node within `d − 1` hops, so the affected
//!   set is a backward BFS of depth `d − 1` from the dirty set, run on
//!   **both** the old graph (covers paths that existed before a removal)
//!   and the new one (covers paths created by an addition), visiting only
//!   what it reaches. Only these roots are re-enumerated, with the same
//!   DFS as full construction.
//! * **Touched words.** The index is a sum of per-word posting lists, and
//!   a write changes only the lists in which an affected root had a
//!   posting (old graph) or gets one (new graph) — found by running that
//!   DFS over the affected roots on both graphs, never by scanning a
//!   list. Each touched `(shard, word)` list is **spliced**, not rebuilt:
//!   an affected root is re-enumerated whole, so every `(pattern, root)`
//!   run of the new list is either wholly kept from the old list (its root
//!   is not affected) or wholly fresh (it is). `WordPathIndex::freeze`
//!   therefore sorts only the fresh postings, copies the kept ones in
//!   stretches between the few edit points, shifts the old root-first
//!   permutation's entries instead of transposing it again, and carries the
//!   per-pattern stats and the memoised type grouping where their input
//!   did not change. The spliced list is recorded in the shard's patch
//!   map; every other list, the storage base under them (heap or mapped
//!   alike) and — unless the delta brings a new path pattern — the
//!   pattern set are shared with the previous version by `Arc`
//!   ([`crate::word_index::IndexShard`]). A mapped index stays mapped:
//!   only the touched words are decoded, and a touched word whose stream
//!   is damaged fails the refresh with its typed error rather than being
//!   spliced as if it had been empty. The refresh hands the touched words
//!   back ([`ChangedWords`]): an answer over none of them is unchanged, so
//!   a result cache keeps it.
//!
//! Two inputs make **every** list differ, so the same splice is then run
//! over all words and the result is a plain heap index with an empty
//! patch map (which is also the compaction of a long patch chain). Both
//! costs are inherent, O(postings):
//!
//! * **The prefix rule broken.** Word ids are assigned in interning order
//!   — types, attributes, nodes — and a delta can only append, so as long
//!   as it adds no type and no attribute the old vocabulary is a prefix
//!   of the new one and every id keeps its meaning (`refresh_indexes`
//!   checks this itself, on the canonical forms). A new type or attribute
//!   that introduces vocabulary shifts every later id; the lists are then
//!   re-keyed through the canonical forms (text is never removed, so the
//!   mapping is total).
//! * **PageRank recomputed.** The lists cache `PR(f(w))`. When the
//!   mutation was applied with
//!   [`patternkb_graph::mutate::PagerankMode::Recompute`], every node's
//!   score moved, so pass `refresh_pagerank = true` and every surviving
//!   posting gets its cached score re-read from the new graph. A list's
//!   score table holds each distinct pair once, and matched nodes that
//!   shared a pair may no longer share it, so the re-read scores every
//!   posting and rebuilds the table rather than rewriting its entries.
//!   Under `Frozen` semantics pass `false` and the old cached scores
//!   remain exact.
//!
//! The result is **semantically identical** to a full rebuild on the new
//! graph: same per-word posting multisets, same patterns, same scores, and
//! — since a word stream depends only on its postings — the same persisted
//! bytes per list (asserted by the equivalence tests below and by property
//! tests). Only pattern-id assignment and arena layout may differ, and
//! stale patterns with no remaining postings may linger in the interner —
//! both invisible through the query API.

use crate::build;
use crate::pattern::{PatternId, PatternSet};
use crate::posting::{KeyedPosting, Posting, ScoreTerms};
use crate::storage::WordStore;
use crate::word_index::{Base, IndexShard, PathIndexes, WordPathIndex};
use patternkb_graph::ids::Id;
use patternkb_graph::snapshot::SnapshotError;
use patternkb_graph::{traversal, FxHashMap, KnowledgeGraph, NodeId, WordId};
use patternkb_text::TextIndex;
use std::sync::Arc;

/// Counters describing one [`refresh_indexes`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Roots whose paths were re-enumerated.
    pub affected_roots: usize,
    /// Postings dropped because their root was affected.
    pub postings_dropped: usize,
    /// Postings of unaffected roots, which the new version still holds
    /// (shared with the old one unless their list was rebuilt).
    pub postings_kept: usize,
    /// Fresh postings produced by re-enumerating the affected roots.
    pub postings_added: usize,
    /// Path patterns newly interned by the refresh.
    pub patterns_added: usize,
    /// `(shard, word)` lists rebuilt; every other list is shared with the
    /// old version.
    pub words_rebuilt: usize,
}

/// Which words' lists one [`try_refresh_indexes`] run replaced. A word
/// outside the set has, on every shard, the very list it had before
/// (shared by `Arc`), under the same word id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChangedWords {
    /// Every list: PageRank was recomputed, or the word ids shifted.
    All,
    /// The words whose list was spliced on at least one shard, as new
    /// word ids, ascending and distinct.
    Only(Vec<WordId>),
}

impl ChangedWords {
    /// Whether the list of any of `words` was replaced.
    pub fn touches(&self, words: impl IntoIterator<Item = WordId>) -> bool {
        match self {
            ChangedWords::All => true,
            ChangedWords::Only(changed) => {
                words.into_iter().any(|w| changed.binary_search(&w).is_ok())
            }
        }
    }
}

/// [`try_refresh_indexes`] for indexes whose streams are known to be
/// sound (built in memory, or just written) — the form the benchmark's
/// probes and the tests call.
///
/// # Panics
/// If a word the delta touches has a damaged snapshot stream.
pub fn refresh_indexes(
    old: &PathIndexes,
    old_g: &KnowledgeGraph,
    new_g: &KnowledgeGraph,
    old_text: &TextIndex,
    new_text: &TextIndex,
    dirty: &[NodeId],
    refresh_pagerank: bool,
) -> (PathIndexes, RefreshStats) {
    let (index, stats, _) = try_refresh_indexes(
        old,
        old_g,
        new_g,
        old_text,
        new_text,
        dirty,
        refresh_pagerank,
    )
    .unwrap_or_else(|e| panic!("a touched word's snapshot stream is damaged: {e}"));
    (index, stats)
}

/// Derive the path indexes of `new_g` from the indexes of `old_g`,
/// re-enumerating only roots whose `d`-bounded neighbourhood can have
/// changed and splicing only the word lists those roots touch.
///
/// `dirty` is the seed set of changed nodes (typically
/// [`patternkb_graph::mutate::GraphDelta::dirty_nodes`]). `old_text` /
/// `new_text` are the text indexes of the two graphs. Set
/// `refresh_pagerank` iff the mutation recomputed PageRank; that, or a
/// `new_text` whose word ids do not extend `old_text`'s, rebuilds every
/// list (see the module docs).
///
/// Besides the new indexes and the work counters, it returns the words
/// whose lists it replaced: a query over none of them has the same
/// answer on both versions.
///
/// A list the refresh must read whose snapshot stream is damaged is the
/// stream's typed error, not an empty list: the refresh never publishes
/// a version that silently lost the old postings.
pub fn try_refresh_indexes(
    old: &PathIndexes,
    old_g: &KnowledgeGraph,
    new_g: &KnowledgeGraph,
    old_text: &TextIndex,
    new_text: &TextIndex,
    dirty: &[NodeId],
    refresh_pagerank: bool,
) -> Result<(PathIndexes, RefreshStats, ChangedWords), SnapshotError> {
    let d = old.d();
    let old_n = old_g.num_nodes();
    let num_shards = old.num_shards();
    let mut stats = RefreshStats::default();

    // --- 1. Affected roots: backward BFS depth d−1 on both graphs. ---
    let mut affected_roots = traversal::backward_reach(
        old_g,
        dirty.iter().copied().filter(|v| v.index() < old_n),
        d,
    );
    affected_roots.extend(traversal::backward_reach(new_g, dirty.iter().copied(), d));
    affected_roots.sort_unstable();
    affected_roots.dedup();
    stats.affected_roots = affected_roots.len();
    let affected: Vec<u32> = affected_roots.iter().map(|v| v.0).collect();

    // --- 2. Re-enumerate the affected roots on the new graph and bucket
    //        the fresh postings per (shard, word); new nodes beyond the
    //        old bounds land in the last shard. The pattern set is shared
    //        unless a fresh pattern is new to it. ---
    let fresh = build::build_roots(new_g, new_text, d, affected_roots.iter().copied());
    let keys = || (0..fresh.patterns.len()).map(|i| fresh.patterns.key(PatternId(i as u32)));
    let known: Option<Vec<PatternId>> = keys().map(|k| old.patterns().get_key(k)).collect();
    let (patterns, pat_remap) = match known {
        Some(remap) => (Arc::clone(old.patterns_shared()), remap),
        None => {
            let mut patterns = PatternSet::clone(old.patterns());
            let remap = keys().map(|k| patterns.intern_key(k)).collect();
            stats.patterns_added = patterns.len() - old.patterns().len();
            (Arc::new(patterns), remap)
        }
    };
    stats.postings_added = fresh.entries.len();
    // Per list: postings, arena, and one score pair per posting, which
    // the splice merges into the list's table.
    type Fresh = (Vec<KeyedPosting>, Vec<NodeId>, Vec<ScoreTerms>);
    let mut fresh_lists: FxHashMap<(usize, WordId), Fresh> = FxHashMap::default();
    for e in fresh.entries {
        let (postings, arena, scores) = fresh_lists
            .entry((old.shard_of_root(e.root), e.word))
            .or_default();
        postings.push(KeyedPosting {
            pattern: pat_remap[e.lpat as usize],
            root: e.root,
            posting: Posting {
                nodes_start: arena.len() as u32,
                score: scores.len() as u32,
                nodes_len: e.nodes_len as u16,
                edge_terminal: e.edge_terminal,
            },
        });
        arena.extend_from_slice(&e.nodes[..e.nodes_len as usize]);
        scores.push(e.terms);
    }

    // --- 3. The lists that differ, as new word ids per shard. ---
    let vocab_old = old_text.vocab();
    let vocab_new = new_text.vocab();
    let stable_ids = vocab_old.is_prefix_of(vocab_new);
    let every_list = refresh_pagerank || !stable_ids;
    // Shifted ids are translated through the canonical forms; text is
    // never removed, so every old word has a new id (not the reverse).
    let new_id = |w: WordId| {
        if stable_ids {
            return w;
        }
        vocab_new
            .lookup_canonical(vocab_old.resolve(w))
            .expect("canonical words survive mutation")
    };
    let old_id = |w: WordId| {
        if stable_ids {
            return Some(w);
        }
        vocab_old.lookup_canonical(vocab_new.resolve(w))
    };
    let mut touched: Vec<Vec<WordId>> = vec![Vec::new(); num_shards];
    if every_list {
        for (s, shard) in old.shards().iter().enumerate() {
            touched[s].extend(shard.word_ids().into_iter().map(new_id));
        }
    } else {
        // Exactly the postings the affected roots lose.
        let stale = build::build_roots(
            old_g,
            old_text,
            d,
            affected_roots.iter().copied().filter(|v| v.index() < old_n),
        );
        for e in &stale.entries {
            touched[old.shard_of_root(e.root)].push(e.word);
        }
    }
    for &(s, w) in fresh_lists.keys() {
        touched[s].push(w);
    }

    // --- 4. Splice each touched list; share everything else. ---
    let reread_pagerank = refresh_pagerank.then_some(new_g);
    let mut shards = Vec::with_capacity(num_shards);
    let mut changed: Vec<WordId> = Vec::new();
    for (s, mut words) in touched.into_iter().enumerate() {
        words.sort_unstable();
        words.dedup();
        stats.words_rebuilt += words.len();
        if !every_list {
            changed.extend_from_slice(&words);
        }
        let shard = &old.shards()[s];
        let mut rebuilt: Vec<(WordId, Option<WordPathIndex>)> = Vec::with_capacity(words.len());
        for w in words {
            let old_list = match old_id(w) {
                Some(ow) => {
                    shard.prepare(ow)?;
                    shard.word(ow)
                }
                None => None,
            };
            let (postings, arena, scores) = fresh_lists.remove(&(s, w)).unwrap_or_default();
            let before = old_list.as_deref().map_or(0, WordPathIndex::len) + postings.len();
            let base = old_list.as_deref().map(|list| Base {
                list,
                affected: &affected,
                reread_pagerank,
            });
            let list = WordPathIndex::freeze(base, postings, arena, &scores);
            stats.postings_dropped += before - list.len();
            rebuilt.push((w, (!list.is_empty()).then_some(list)));
        }
        shards.push(if every_list {
            IndexShard::new(WordStore::from_lists(
                rebuilt
                    .into_iter()
                    .filter_map(|(w, list)| Some((w, list?)))
                    .collect(),
            ))
        } else {
            shard.patch(rebuilt)
        });
    }
    stats.postings_kept = old.num_postings() - stats.postings_dropped;
    let changed = if every_list {
        ChangedWords::All
    } else {
        changed.sort_unstable();
        changed.dedup();
        ChangedWords::Only(changed)
    };

    Ok((
        PathIndexes::new(d, patterns, old.bounds().to_vec(), shards),
        stats,
        changed,
    ))
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
        // A chain long enough that the shared words' lists hold hundreds
        // of postings. Extending the tail dirties only nearby roots, yet
        // the refreshed index must splice its per-word lists into the
        // same (pattern, root) order a rebuild sorts them into, so that
        // re-encoding produces the same root gaps — byte-identical to
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

    /// A score-table entry is shared by every posting whose matched node
    /// has the same pair, and a recomputed PageRank can split it: here A
    /// and B, two "alpha" nodes fed by two look-alike sources, share one
    /// pair until a new node feeds B's source. Neither is an affected
    /// root, so their postings are kept and re-read, and the refreshed
    /// list must give each its own PageRank: equal to a full rebuild,
    /// score bits included, and byte-identical once encoded.
    #[test]
    fn a_recomputed_pagerank_splits_a_shared_score_pair() {
        let mut b = GraphBuilder::new();
        let item = b.add_type("Item");
        let link = b.add_attr("link");
        let a = b.add_node(item, "alpha");
        let bb = b.add_node(item, "alpha");
        let y = b.add_node(item, "yankee");
        let x = b.add_node(item, "xray");
        b.add_edge(y, link, a);
        b.add_edge(x, link, bb);
        let g = b.build();
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 1,
        };
        let text = TextIndex::build(&g, SynonymTable::new());
        let old = build_indexes(&g, &text, &cfg);
        let alpha = text.lookup_word("alpha").unwrap();
        // The score index of the posting of `root`'s trivial path.
        let index_of = |list: &WordPathIndex, root: NodeId| {
            let p = list
                .postings_pattern_first()
                .into_iter()
                .find(|p| p.root == root && p.nodes_len == 1)
                .expect("a trivial path");
            (p.score, list.score_terms(&p))
        };
        let before = old.word_in(0, alpha).unwrap();
        assert_eq!(
            index_of(&before, a).0,
            index_of(&before, bb).0,
            "one shared pair"
        );

        let mut d = GraphDelta::new(&g);
        let c = d.add_node(item, "charlie").unwrap();
        d.add_edge(c, link, x).unwrap();
        let g2 = d.apply(&g, PagerankMode::Recompute).unwrap();
        let text2 = TextIndex::build(&g2, SynonymTable::new());
        let (incr, stats) = refresh_indexes(&old, &g, &g2, &text, &text2, &d.dirty_nodes(), true);
        assert_eq!(stats.affected_roots, 2, "x and the new node");
        let full = build_indexes(&g2, &text2, &cfg);
        assert_eq!(canon(&full, &text2), canon(&incr, &text2));

        let after = incr.word_in(0, alpha).unwrap();
        let (ia, ta) = index_of(&after, a);
        let (ib, tb) = index_of(&after, bb);
        assert_ne!(ia, ib, "the pair is split");
        assert_eq!(ta.pagerank, g2.pagerank(a));
        assert_eq!(tb.pagerank, g2.pagerank(bb));
        assert!(tb.pagerank > ta.pagerank);
        let rebuilt = full.word_in(0, alpha).unwrap();
        assert_eq!(
            crate::compress::encode(&after),
            crate::compress::encode(&rebuilt)
        );
    }

    #[test]
    fn untouched_words_are_shared_by_pointer() {
        // Two shards, many words; the delta adds one entity (existing
        // type, existing attribute, new text), so only the lists its two
        // new roots post into may be rebuilt — everything else must be
        // the *same allocation* in both versions.
        let mut b = GraphBuilder::new();
        let station = b.add_type("Station");
        let depot = b.add_type("Depot");
        let next = b.add_attr("next");
        let label = b.add_attr("label");
        let nodes: Vec<_> = (0..40)
            .map(|i| {
                b.add_node(
                    if i % 2 == 0 { station } else { depot },
                    &format!("stop s{i}"),
                )
            })
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], next, w[1]);
        }
        b.add_text_edge(nodes[3], label, "north gate");
        let g = b.build();
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 2,
        };
        let old_text = TextIndex::build(&g, SynonymTable::new());
        let old = build_indexes(&g, &old_text, &cfg);
        assert_eq!(old.num_shards(), 2);

        let mut d = GraphDelta::new(&g);
        let v = d.add_node(depot, "stop terminus").unwrap();
        d.add_text_edge(v, label, "south gate").unwrap();
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        let new_text = old_text.extended(&g2, &d);
        let (new, stats) =
            refresh_indexes(&old, &g, &g2, &old_text, &new_text, &d.dirty_nodes(), false);
        assert_eq!(stats.affected_roots, 2);

        // The lists a new root posts into, found by scanning the result.
        let old_n = g.num_nodes();
        let mut touched = std::collections::BTreeSet::new();
        for (s, shard) in new.shards().iter().enumerate() {
            for (w, widx) in shard.iter_words() {
                if widx.roots().iter().any(|&r| r as usize >= old_n) {
                    touched.insert((s, w));
                }
            }
        }
        assert!(touched.iter().all(|&(s, _)| s == 1), "new nodes land last");
        assert_eq!(stats.words_rebuilt, touched.len());
        assert_eq!(new.num_patched_words(), touched.len());
        assert_eq!(stats.postings_dropped, 0);
        assert_eq!(stats.postings_kept, old.num_postings());
        assert_eq!(
            new.num_postings(),
            old.num_postings() + stats.postings_added
        );

        let mut shared = 0;
        for s in 0..2 {
            for w in new.shards()[s].word_ids() {
                let same = match (old.word_in(s, w), new.word_in(s, w)) {
                    (Some(a), Some(b)) => Arc::ptr_eq(&a, &b),
                    _ => false,
                };
                assert_eq!(same, !touched.contains(&(s, w)), "shard {s} word {w:?}");
                shared += usize::from(same);
            }
        }
        assert!(shared > touched.len(), "most of the index is untouched");

        // A second delta on the patched version shares the first one's
        // patches it does not touch, again by pointer.
        let mut d2 = GraphDelta::new(&g2);
        d2.add_node(station, "halt").unwrap();
        let g3 = d2.apply(&g2, PagerankMode::Frozen).unwrap();
        let text3 = new_text.extended(&g3, &d2);
        let (third, stats3) =
            refresh_indexes(&new, &g2, &g3, &new_text, &text3, &d2.dirty_nodes(), false);
        let gate = text3.lookup_word("gate").unwrap();
        assert!(Arc::ptr_eq(
            &new.word_in(1, gate).unwrap(),
            &third.word_in(1, gate).unwrap()
        ));
        assert!(third.num_patched_words() > new.num_patched_words());
        assert_eq!(stats3.words_rebuilt, 2, "\"halt\" and \"station\"");
        let full = build_indexes(&g3, &text3, &cfg);
        assert_eq!(canon(&full, &text3), canon(&third, &text3));
    }

    #[test]
    fn every_list_is_rebuilt_when_ids_shift_or_pagerank_moves() {
        let g = base_graph();
        let lists =
            |idx: &PathIndexes| -> usize { idx.shards().iter().map(|s| s.num_words()).sum() };
        // New attribute vocabulary: ids shift, nothing is emptied.
        let mut d = GraphDelta::new(&g);
        let acquired = d.add_attr("acquired subsidiary");
        d.add_edge(NodeId(1), acquired, NodeId(0)).unwrap();
        let (_, incr, _, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Frozen);
        assert_eq!(stats.words_rebuilt, lists(&incr));
        assert_eq!(incr.num_patched_words(), 0, "a full refresh compacts");
        // Same ids, recomputed PageRank.
        let comp = g.type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(&g);
        d.add_node(comp, "Oracle Corp").unwrap();
        let (_, incr, _, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Recompute);
        assert_eq!(stats.words_rebuilt, lists(&incr));
        assert_eq!(incr.num_patched_words(), 0);
        // And the frozen form of that delta patches instead.
        let (_, incr, _, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Frozen);
        assert!(stats.words_rebuilt < lists(&incr));
        assert_eq!(incr.num_patched_words(), stats.words_rebuilt);
    }

    #[test]
    fn changed_words_are_exactly_the_lists_not_shared() {
        let g = base_graph();
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 2,
        };
        let old_text = TextIndex::build(&g, SynonymTable::new());
        let old = build_indexes(&g, &old_text, &cfg);
        let comp = g.type_by_text("Company").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(&g);
        let v = d.add_node(comp, "Oracle Corp").unwrap();
        d.add_text_edge(v, rev, "US$ 37 billion").unwrap();
        let refresh = |mode: PagerankMode| {
            let g2 = d.apply(&g, mode).unwrap();
            let text2 = old_text.extended(&g2, &d);
            let recompute = mode == PagerankMode::Recompute;
            let (new, _, changed) = try_refresh_indexes(
                &old,
                &g,
                &g2,
                &old_text,
                &text2,
                &d.dirty_nodes(),
                recompute,
            )
            .unwrap();
            (new, text2, changed)
        };

        let (new, text, changed) = refresh(PagerankMode::Frozen);
        assert!(matches!(&changed, ChangedWords::Only(words) if !words.is_empty()));
        for (w, word) in text.vocab().iter() {
            let replaced = (0..2).any(|s| match (old.word_in(s, w), new.word_in(s, w)) {
                (Some(a), Some(b)) => !Arc::ptr_eq(&a, &b),
                (a, b) => a.is_some() != b.is_some(),
            });
            assert_eq!(changed.touches([w]), replaced, "word {word:?}");
        }
        let word = |s: &str| text.lookup_word(s).unwrap();
        assert!(changed.touches([word("revenue")]));
        assert!(!changed.touches([word("relational"), word("server")]));

        assert_eq!(refresh(PagerankMode::Recompute).2, ChangedWords::All);
    }

    #[test]
    fn emptied_words_are_shadowed_not_served() {
        // Removing the only Revenue edge orphans nothing (the text node
        // stays a root of its own words) but empties "revenue".
        let g = base_graph();
        let rev = g.attr_by_text("Revenue").unwrap();
        let text_node = g
            .out_edges(NodeId(1))
            .find(|&(a, _)| a == rev)
            .map(|(_, t)| t)
            .unwrap();
        let mut d = GraphDelta::new(&g);
        d.remove_edge(NodeId(1), rev, text_node).unwrap();
        let (full, incr, text, stats) = rebuild_and_refresh(&g, &d, PagerankMode::Frozen);
        assert_eq!(canon(&full, &text), canon(&incr, &text));
        let w = text.lookup_word("revenue").unwrap();
        assert!(!incr.has_word(w) && incr.word_in(0, w).is_none());
        assert!(!incr.word_ids().contains(&w));
        assert_eq!(incr.num_words(), full.num_words());
        assert_eq!(incr.num_postings(), full.num_postings());
        assert_eq!(
            incr.num_postings(),
            stats.postings_kept + stats.postings_added
        );
        // The image writer sees through the patch map too.
        let reopened = crate::storage::open_bytes(crate::storage::encode_v5(&incr)).unwrap();
        assert_eq!(canon(&full, &text), canon(&reopened, &text));
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
