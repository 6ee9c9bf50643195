//! Index construction — Algorithm 1 of the paper.
//!
//! For every root `r`, a bounded DFS enumerates all simple paths with at
//! most `d` nodes. At each path `p = v1 … v_l`:
//!
//! * for every word in the text/type of the terminal node `v_l`, a
//!   **node-terminal** posting is emitted with pattern
//!   `τ(v1) α(e1) … τ(v_l)`;
//! * if `l + 1 ≤ d`, for every out-edge `(v_l) -A-> u` (with `u` not on the
//!   path — subtrees are subgraphs, so root-to-leaf paths are simple) and
//!   every word in `A`'s text, an **edge-terminal** posting is emitted with
//!   pattern `τ(v1) … α(e_l)` and node sequence `v1 … v_l, u` (the leaf is
//!   stored so table answers can show the value cell).
//!
//! The scoring terms `|T(w)|`, `PR(f(w))` and `sim(w, f(w))` are computed
//! here and stored with the posting (paper §3, last paragraph): the
//! length in the posting, the other two in its list's score table, each
//! distinct pair once.
//!
//! Construction parallelizes over disjoint root ranges with scoped
//! scoped threads; each worker interns patterns locally and the merge step
//! re-interns into the global [`PatternSet`] (pattern counts are tiny
//! compared to posting counts, so the remap is cheap).

use crate::pattern::PatternSet;
use crate::posting::{KeyedPosting, Posting, ScoreTerms};
use crate::word_index::{PathIndexes, WordPathIndex};
use patternkb_graph::ids::Id;
use patternkb_graph::{traversal, FxHashMap, KnowledgeGraph, NodeId, WordId};
use patternkb_text::TextIndex;

/// Maximum supported height threshold. `d = 4` is the paper's largest
/// experimental setting; the extra headroom exists for the Theorem-1
/// reduction tests, which build indexes with `d = |V| + 1` on tiny graphs.
pub const MAX_D: usize = 8;

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// Height threshold `d`: the maximum number of nodes on any root-to-
    /// match path (edge matches count their implied leaf).
    pub d: usize,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Root-range shards to partition the index into (0 = available
    /// parallelism). Sharded execution is result-identical to `shards: 1`;
    /// see [`crate::word_index::PathIndexes`].
    pub shards: usize,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            d: 3,
            threads: 0,
            shards: 1,
        }
    }
}

/// Resolve a `0 = auto` knob against available parallelism.
pub(crate) fn resolve_auto(value: usize) -> usize {
    if value == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        value
    }
}

/// Shard boundaries for `n` nodes in `shards` contiguous ranges. The last
/// bound is `u32::MAX` so nodes added by later deltas land in the last
/// shard.
pub(crate) fn shard_bounds(n: usize, shards: usize) -> Vec<u32> {
    let shards = shards.clamp(1, n.max(1));
    let chunk = n.div_ceil(shards).max(1);
    let mut bounds = Vec::with_capacity(shards + 1);
    for s in 0..shards {
        bounds.push((s * chunk).min(n) as u32);
    }
    bounds.push(u32::MAX);
    bounds
}

/// One raw (pre-merge) posting produced by a worker.
pub(crate) struct RawEntry {
    pub(crate) word: WordId,
    /// Worker-local pattern id.
    pub(crate) lpat: u32,
    pub(crate) root: NodeId,
    pub(crate) nodes: [NodeId; MAX_D + 1],
    pub(crate) nodes_len: u8,
    pub(crate) edge_terminal: bool,
    pub(crate) terms: ScoreTerms,
}

pub(crate) struct WorkerOut {
    pub(crate) patterns: PatternSet,
    pub(crate) entries: Vec<RawEntry>,
}

/// Build both path indexes (pattern-first and root-first) for `g`.
///
/// # Panics
/// If `cfg.d` is 0 or exceeds [`MAX_D`].
pub fn build_indexes(g: &KnowledgeGraph, text: &TextIndex, cfg: &BuildConfig) -> PathIndexes {
    assert!(
        (1..=MAX_D).contains(&cfg.d),
        "height threshold d must be in 1..={MAX_D}"
    );
    let n = g.num_nodes();
    let threads = resolve_auto(cfg.threads).clamp(1, n.max(1));
    let bounds = shard_bounds(n, resolve_auto(cfg.shards));

    let outs: Vec<WorkerOut> = if threads == 1 || n < 4096 {
        vec![build_range(g, text, cfg.d, 0, n)]
    } else {
        let chunk = n.div_ceil(threads);
        let mut outs: Vec<Option<WorkerOut>> = (0..threads).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (t, slot) in outs.iter_mut().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || {
                    *slot = Some(build_range(g, text, cfg.d, lo, hi));
                });
            }
        });
        outs.into_iter()
            .map(|o| o.expect("worker output"))
            .collect()
    };

    merge(cfg.d, bounds, outs)
}

/// DFS over roots `[lo, hi)`, emitting raw entries with worker-local
/// pattern ids.
fn build_range(g: &KnowledgeGraph, text: &TextIndex, d: usize, lo: usize, hi: usize) -> WorkerOut {
    build_roots(g, text, d, (lo..hi).map(NodeId::from_usize))
}

/// DFS over an explicit root set, emitting raw entries with worker-local
/// pattern ids. Used by full construction (over contiguous ranges) and by
/// the incremental refresh (over the affected-root set).
pub(crate) fn build_roots(
    g: &KnowledgeGraph,
    text: &TextIndex,
    d: usize,
    roots: impl IntoIterator<Item = NodeId>,
) -> WorkerOut {
    let mut patterns = PatternSet::new();
    let mut entries: Vec<RawEntry> = Vec::new();
    let mut key: Vec<u32> = Vec::with_capacity(2 * MAX_D + 2);
    let mut words: Vec<WordId> = Vec::new();

    for root in roots {
        traversal::for_each_path(g, root, d, |nodes, attrs| {
            let l = nodes.len();
            let t = *nodes.last().expect("non-empty path");
            let t_type = g.node_type(t);

            // --- node-terminal postings ---
            // Words in the terminal node's text or type text (sorted merge).
            merge_sorted(text.node_tokens(t), text.type_tokens(t_type), &mut words);
            if !words.is_empty() {
                key.clear();
                key.push((l as u32) << 1);
                for i in 0..l {
                    key.push(g.node_type(nodes[i]).as_u32());
                    if i < attrs.len() {
                        key.push(attrs[i].as_u32());
                    }
                }
                let lpat = patterns.intern_key(&key).0;
                let pr = g.pagerank(t);
                let mut node_buf = [NodeId(0); MAX_D + 1];
                node_buf[..l].copy_from_slice(nodes);
                for &w in words.iter() {
                    entries.push(RawEntry {
                        word: w,
                        lpat,
                        root,
                        nodes: node_buf,
                        nodes_len: l as u8,
                        edge_terminal: false,
                        terms: ScoreTerms {
                            pagerank: pr,
                            sim: text.sim_node(w, t, t_type),
                        },
                    });
                }
            }

            // --- edge-terminal postings ---
            // The implied leaf counts toward the height bound: l + 1 ≤ d.
            if l < d {
                let pr = g.pagerank(t);
                for (attr, target) in g.out_edges(t) {
                    if nodes.contains(&target) {
                        continue; // keep root-to-leaf paths simple
                    }
                    let attr_words = text.attr_tokens(attr);
                    if attr_words.is_empty() {
                        continue;
                    }
                    key.clear();
                    key.push(((l as u32) << 1) | 1);
                    for i in 0..l {
                        key.push(g.node_type(nodes[i]).as_u32());
                        if i < attrs.len() {
                            key.push(attrs[i].as_u32());
                        }
                    }
                    key.push(attr.as_u32());
                    let lpat = patterns.intern_key(&key).0;
                    let mut node_buf = [NodeId(0); MAX_D + 1];
                    node_buf[..l].copy_from_slice(nodes);
                    node_buf[l] = target;
                    for &w in attr_words {
                        entries.push(RawEntry {
                            word: w,
                            lpat,
                            root,
                            nodes: node_buf,
                            nodes_len: (l + 1) as u8,
                            edge_terminal: true,
                            terms: ScoreTerms {
                                pagerank: pr,
                                sim: text.sim_attr(w, attr),
                            },
                        });
                    }
                }
            }
        });
    }
    WorkerOut { patterns, entries }
}

/// Merge two sorted id slices into `out`, deduplicated.
fn merge_sorted(a: &[WordId], b: &[WordId], out: &mut Vec<WordId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Re-intern worker-local patterns globally, route every posting to the
/// shard owning its root, and assemble per-shard per-word indexes.
fn merge(d: usize, bounds: Vec<u32>, outs: Vec<WorkerOut>) -> PathIndexes {
    let num_shards = bounds.len() - 1;
    let shard_of = |root: NodeId| -> usize {
        (bounds.partition_point(|&b| b <= root.0) - 1).min(num_shards - 1)
    };
    let mut global = PatternSet::new();
    // Per list: postings, arena, and one score pair per posting, which
    // `WordPathIndex::new` deduplicates.
    type List = (Vec<KeyedPosting>, Vec<NodeId>, Vec<ScoreTerms>);
    let mut per_shard: Vec<FxHashMap<WordId, List>> =
        (0..num_shards).map(|_| FxHashMap::default()).collect();

    for out in outs {
        // local pattern id -> global id
        let remap: Vec<u32> = (0..out.patterns.len())
            .map(|i| {
                global
                    .intern_key(out.patterns.key(crate::pattern::PatternId(i as u32)))
                    .0
            })
            .collect();
        for e in out.entries {
            let (postings, arena, scores) = per_shard[shard_of(e.root)].entry(e.word).or_default();
            let start = arena.len() as u32;
            arena.extend_from_slice(&e.nodes[..e.nodes_len as usize]);
            postings.push(KeyedPosting {
                pattern: crate::pattern::PatternId(remap[e.lpat as usize]),
                root: e.root,
                posting: Posting {
                    nodes_start: start,
                    score: scores.len() as u32,
                    nodes_len: e.nodes_len as u16,
                    edge_terminal: e.edge_terminal,
                },
            });
            scores.push(e.terms);
        }
    }

    let shards: Vec<crate::word_index::IndexShard> = per_shard
        .into_iter()
        .map(|per_word| {
            crate::word_index::IndexShard::new(crate::storage::WordStore::from_lists(
                per_word
                    .into_iter()
                    .map(|(w, (postings, arena, scores))| {
                        (w, WordPathIndex::new(postings, arena, scores))
                    })
                    .collect(),
            ))
        })
        .collect();
    PathIndexes::new(d, std::sync::Arc::new(global), bounds, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word_index::tests::{paths_of, runs_of};
    use patternkb_graph::GraphBuilder;
    use patternkb_text::SynonymTable;

    /// SQL Server --Developer--> Microsoft --Revenue--> "US$ 77 billion"
    ///            --Genre-----> Relational database (text)
    fn sample() -> (KnowledgeGraph, TextIndex) {
        let mut b = GraphBuilder::new();
        let soft = b.add_type("Software");
        let comp = b.add_type("Company");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let genre = b.add_attr("Genre");
        let sql = b.add_node(soft, "SQL Server");
        let ms = b.add_node(comp, "Microsoft");
        b.add_edge(sql, dev, ms);
        b.add_text_edge(ms, rev, "US$ 77 billion");
        b.add_text_edge(sql, genre, "Relational database");
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        (g, t)
    }

    fn word(t: &TextIndex, s: &str) -> WordId {
        t.lookup_word(s).expect("word present")
    }

    #[test]
    fn node_terminal_paths_found() {
        let (g, t) = sample();
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let db = word(&t, "database");
        let widx = idx.word_in(0, db).expect("database indexed");
        // Paths ending at "Relational database": from its own root (trivial)
        // and from SQL Server via Genre.
        assert_eq!(widx.len(), 2);
        let roots = widx.roots();
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn edge_terminal_paths_found() {
        let (g, t) = sample();
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let revenue = word(&t, "revenue");
        let widx = idx.word_in(0, revenue).expect("revenue indexed");
        // Ending at the Revenue edge: from Microsoft (2 nodes incl leaf) and
        // from SQL Server via Developer (3 nodes incl leaf).
        assert_eq!(widx.len(), 2);
        for p in widx.patterns().flat_map(|pat| paths_of(&widx, pat)) {
            assert!(p.edge_terminal);
            let nodes = widx.nodes_of(&p);
            // Leaf stored: last node is the text node.
            assert!(g.is_text_node(*nodes.last().unwrap()));
        }
    }

    #[test]
    fn height_bound_respected() {
        let (g, t) = sample();
        // With d = 2 the 3-node revenue path from SQL Server must vanish.
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 2,
                threads: 1,
                shards: 1,
            },
        );
        let revenue = word(&t, "revenue");
        let widx = idx.word_in(0, revenue).expect("revenue indexed");
        assert_eq!(widx.len(), 1);
        assert_eq!(widx.roots().len(), 1);
        for (_, w) in idx.shards()[0].iter_words() {
            for pat in w.patterns() {
                assert!(idx.patterns().height(pat) <= 2);
            }
        }
    }

    #[test]
    fn scoring_terms_precomputed() {
        let (g, t) = sample();
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let db = word(&t, "database");
        let widx = idx.word_in(0, db).unwrap();
        for pat in widx.patterns() {
            for p in paths_of(&widx, pat) {
                let terms = widx.score_terms(&p);
                // "Relational database" has 2 tokens → sim = 1/2.
                assert!((terms.sim - 0.5).abs() < 1e-12);
                let terminal = *widx.nodes_of(&p).last().unwrap();
                assert!((terms.pagerank - g.pagerank(terminal)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn type_words_match_all_nodes_of_type() {
        let (g, t) = sample();
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let software = word(&t, "software");
        let widx = idx.word_in(0, software).unwrap();
        // "software" matches the SQL Server node via its type; paths: the
        // trivial one from itself (1 node). No other node reaches it... via
        // no edges pointing to SQL Server. So exactly 1 posting.
        assert_eq!(widx.len(), 1);
        let pattern = widx.patterns().next().unwrap();
        let p = &paths_of(&widx, pattern)[0];
        assert_eq!(widx.nodes_of(p), &[NodeId(0)]);
        assert_eq!(idx.patterns().root_type(pattern), g.node_type(NodeId(0)));
    }

    #[test]
    fn parallel_build_matches_serial() {
        // A slightly larger random-ish graph.
        let mut b = GraphBuilder::new();
        let t0 = b.add_type("Alpha");
        let t1 = b.add_type("Beta");
        let a0 = b.add_attr("link");
        let a1 = b.add_attr("rel");
        let nodes: Vec<_> = (0..200)
            .map(|i| b.add_node(if i % 2 == 0 { t0 } else { t1 }, &format!("node {i}")))
            .collect();
        for i in 0..200usize {
            b.add_edge(nodes[i], a0, nodes[(i * 7 + 3) % 200]);
            b.add_edge(nodes[i], a1, nodes[(i * 13 + 11) % 200]);
        }
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        let serial = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let parallel = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 4,
                shards: 1,
            },
        );
        assert_eq!(serial.num_postings(), parallel.num_postings());
        assert_eq!(serial.patterns().len(), parallel.patterns().len());
        // Compare per-word posting multisets via a canonical projection.
        for (w, ws) in serial.shards()[0].iter_words() {
            let wp = parallel.word_in(0, w).expect("word in parallel index");
            let canon = |idx: &WordPathIndex| {
                let mut v: Vec<(Vec<NodeId>, bool, u64, u64)> = idx
                    .roots()
                    .iter()
                    .flat_map(|&r| runs_of(idx, r).into_iter().flat_map(|(_, ps)| ps))
                    .map(|p| {
                        (
                            idx.nodes_of(&p).to_vec(),
                            p.edge_terminal,
                            idx.score_terms(&p).pagerank.to_bits(),
                            idx.score_terms(&p).sim.to_bits(),
                        )
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(canon(&ws), canon(&wp));
        }
    }

    #[test]
    #[should_panic(expected = "height threshold")]
    fn rejects_bad_d() {
        let (g, t) = sample();
        build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 0,
                threads: 1,
                shards: 1,
            },
        );
    }

    #[test]
    fn sharded_build_partitions_by_root_range() {
        let (g, t) = sample();
        for shards in [1usize, 2, 3, 7] {
            let idx = build_indexes(
                &g,
                &t,
                &BuildConfig {
                    d: 3,
                    threads: 1,
                    shards,
                },
            );
            assert_eq!(idx.num_shards(), shards.min(g.num_nodes()));
            assert_eq!(idx.bounds().len(), idx.num_shards() + 1);
            // Every posting's root lies in its shard's declared range.
            for (s, shard) in idx.shards().iter().enumerate() {
                let (lo, hi) = (idx.bounds()[s], idx.bounds()[s + 1]);
                for (_, widx) in shard.iter_words() {
                    for p in &widx.postings_pattern_first() {
                        assert!(p.root.0 >= lo && (hi == u32::MAX || p.root.0 < hi));
                        assert_eq!(idx.shard_of_root(p.root), s);
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_build_holds_same_postings_as_single() {
        let (g, t) = sample();
        let single = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let canon = |idx: &PathIndexes| {
            let mut rows: Vec<(u32, Vec<u32>, Vec<NodeId>, bool, u64, u64)> = Vec::new();
            for shard in idx.shards() {
                for (w, widx) in shard.iter_words() {
                    for p in &widx.postings_pattern_first() {
                        rows.push((
                            w.0,
                            idx.patterns().key(p.pattern).to_vec(),
                            widx.nodes_of(p).to_vec(),
                            p.edge_terminal,
                            widx.score_terms(p).pagerank.to_bits(),
                            widx.score_terms(p).sim.to_bits(),
                        ));
                    }
                }
            }
            rows.sort();
            rows
        };
        let reference = canon(&single);
        for shards in [2usize, 3, 7] {
            let idx = build_indexes(
                &g,
                &t,
                &BuildConfig {
                    d: 3,
                    threads: 1,
                    shards,
                },
            );
            assert_eq!(canon(&idx), reference, "shards = {shards}");
            assert_eq!(idx.num_postings(), single.num_postings());
            assert_eq!(idx.num_words(), single.num_words());
            assert_eq!(idx.patterns().len(), single.patterns().len());
        }
    }
}
