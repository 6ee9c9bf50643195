//! The enumeration–aggregation baseline of §2.3, shard-parallel.
//!
//! A straightforward adaptation of backward search over the database graph
//! (BANKS \[10\] and successors): **no path index** is used. Per keyword,
//! backward BFS over reverse edges marks every node that can reach a
//! matched element within the height bound; the masks' intersection gives
//! candidate roots; forward bounded DFS from each root enumerates the
//! per-keyword match paths; the path product enumerates valid subtrees,
//! which are grouped into one **global** pattern dictionary — the group-by
//! that the paper identifies as this approach's bottleneck.
//!
//! The baseline takes the engine's shard bounds so its candidate roots
//! partition into the same contiguous ranges as the index-based
//! algorithms: one pass per range (inline or on threads, by the same
//! [`crate::common::fanout_for`] gate), each with a private pattern
//! interner and dictionary, merged (with pattern-id re-interning) at the
//! end.

use crate::common::{fanout_for, run_sharded, TreeDict};
use crate::intern::PatternKeyId;
use crate::result::{HotPathStats, QueryStats, RankedPattern, SearchResult, ShardStats};
use crate::subtree::{node_slices_form_tree, Rows};
use crate::{Query, SearchConfig};
use patternkb_graph::ids::Id;
use patternkb_graph::{traversal, KnowledgeGraph, NodeId};
use patternkb_index::{PathPattern, PatternSet};
use patternkb_text::TextIndex;
use std::time::Instant;

/// One enumerated root-to-match path (the baseline's in-memory analogue of
/// an index posting).
struct BasePath {
    pattern: u32,
    nodes: Vec<NodeId>,
    len: f64,
    pagerank: f64,
    sim: f64,
}

/// One worker's private enumeration state and output.
struct BaselineWorker {
    patset: PatternSet,
    /// Tree-pattern key (worker-local pattern ids) → group, interned.
    dict: TreeDict,
    /// Each pattern's first `max_rows` subtrees, by interned key id.
    rows: Vec<Rows>,
    subtrees: usize,
    candidates: usize,
}

/// The rows of interned key `id`; ids are dense, so a fresh key's rows
/// come next.
fn rows_of(rows: &mut Vec<Rows>, id: PatternKeyId) -> &mut Rows {
    let at = id.0 as usize;
    if at == rows.len() {
        rows.push(Rows::default());
    }
    &mut rows[at]
}

/// Run the baseline for `query` with height threshold `d`, parallelizing
/// over the candidate-root ranges described by `bounds` (the engine passes
/// its index's shard bounds; `&[0, u32::MAX]` runs one worker).
pub fn baseline(
    g: &KnowledgeGraph,
    text: &TextIndex,
    query: &Query,
    cfg: &SearchConfig,
    d: usize,
    bounds: &[u32],
) -> SearchResult {
    let t0 = Instant::now();
    let m = query.keywords.len();
    assert!(m > 0, "empty query");
    assert!(bounds.len() >= 2, "bounds must describe at least one range");

    // --- backward search: per-keyword reachability masks ---
    let mut combined: Option<Vec<bool>> = None;
    for &w in &query.keywords {
        let node_matches = text.nodes_matching(w).iter().copied();
        let mut mask = traversal::backward_reach_mask(g, node_matches, d);
        if d >= 2 {
            // Edge matches: the root must reach the edge's *source* within
            // d − 1 nodes (the implied leaf consumes the last level).
            let sources = text
                .attrs_matching(w)
                .iter()
                .flat_map(|&a| text.attr_sources(a).iter().copied());
            let edge_mask = traversal::backward_reach_mask(g, sources, d - 1);
            for (m0, e) in mask.iter_mut().zip(edge_mask) {
                *m0 |= e;
            }
        }
        combined = Some(match combined {
            None => mask,
            Some(mut acc) => {
                for (a, b) in acc.iter_mut().zip(mask) {
                    *a &= b;
                }
                acc
            }
        });
    }
    let mask = combined.expect("at least one keyword");
    let candidates: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();

    // --- forward enumeration + aggregation, one worker per root range ---
    let num_ranges = bounds.len() - 1;
    let ranges: Vec<&[NodeId]> = (0..num_ranges)
        .map(|s| {
            let lo = candidates.partition_point(|r| r.0 < bounds[s]);
            let hi = if bounds[s + 1] == u32::MAX {
                candidates.len()
            } else {
                candidates.partition_point(|r| r.0 < bounds[s + 1])
            };
            &candidates[lo..hi]
        })
        .collect();
    let fanout = fanout_for(candidates.len(), ranges.len());
    let workers: Vec<BaselineWorker> = run_sharded(fanout, &ranges, |range| {
        baseline_range(g, text, query, cfg, d, range)
    });

    // --- merge: re-intern worker-local pattern ids globally, fold the
    //     per-worker groups in range order (ascending roots). ---
    let mut patset = PatternSet::new();
    let mut dict = TreeDict::new(m);
    let mut rows: Vec<Rows> = Vec::new();
    let mut subtrees = 0usize;
    let mut per_shard = Vec::with_capacity(workers.len());
    for (s, mut worker) in workers.into_iter().enumerate() {
        per_shard.push(ShardStats {
            shard: s,
            candidate_roots: worker.candidates,
            subtrees: worker.subtrees,
            patterns: worker.dict.len(),
        });
        subtrees += worker.subtrees;
        let remap: Vec<u32> = (0..worker.patset.len())
            .map(|i| {
                patset
                    .intern_key(worker.patset.key(patternkb_index::PatternId(i as u32)))
                    .0
            })
            .collect();
        let mut gkey: Vec<u32> = Vec::with_capacity(m);
        for (id, key, group) in worker.dict.iter() {
            gkey.clear();
            gkey.extend(key.iter().map(|&p| remap[p as usize]));
            let gid = dict.intern(&gkey);
            dict.group_by_id_mut(gid).merge(group);
            let local = std::mem::take(&mut worker.rows[id.0 as usize]);
            rows_of(&mut rows, gid).append(local, cfg.max_rows);
        }
    }

    let patterns_found = dict.len();
    let hot = HotPathStats {
        keys_interned: dict.keys_interned() as u64,
        key_arena_bytes: dict.arena_bytes() as u64,
        ..Default::default()
    };
    let patterns: Vec<RankedPattern> = dict
        .iter()
        .map(|(id, key, group)| RankedPattern {
            pattern: key
                .iter()
                .map(|&p| patset.decode(patternkb_index::PatternId(p)))
                .collect::<Vec<PathPattern>>(),
            score: group.acc.finish(cfg.scoring.aggregation),
            num_trees: group.acc.count as usize,
            trees: std::mem::take(&mut rows[id.0 as usize]),
        })
        .collect();

    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots: candidates.len(),
            subtrees,
            patterns: patterns_found,
            combos_tried: patterns_found,
            combos_pruned: 0,
            per_shard,
            fanout,
            hot,
            elapsed: t0.elapsed(),
        },
    }
    .finalize(cfg.k)
}

/// Enumerate one contiguous candidate-root range with a worker-local
/// pattern interner and dictionary.
fn baseline_range(
    g: &KnowledgeGraph,
    text: &TextIndex,
    query: &Query,
    cfg: &SearchConfig,
    d: usize,
    candidates: &[NodeId],
) -> BaselineWorker {
    let m = query.keywords.len();
    let mut patset = PatternSet::new();
    let mut dict = TreeDict::new(m);
    let mut rows: Vec<Rows> = Vec::new();
    let mut subtrees = 0usize;
    let mut key_buf: Vec<u32> = Vec::new();
    let mut per_kw: Vec<Vec<BasePath>> = (0..m).map(|_| Vec::new()).collect();

    for &r in candidates {
        for list in &mut per_kw {
            list.clear();
        }
        traversal::for_each_path(g, r, d, |nodes, attrs| {
            let l = nodes.len();
            let t = *nodes.last().expect("non-empty");
            let t_type = g.node_type(t);
            // Node-terminal matches.
            for (i, &w) in query.keywords.iter().enumerate() {
                if text.node_matches(w, t, t_type) {
                    key_buf.clear();
                    key_buf.push((l as u32) << 1);
                    for j in 0..l {
                        key_buf.push(g.node_type(nodes[j]).as_u32());
                        if j < attrs.len() {
                            key_buf.push(attrs[j].as_u32());
                        }
                    }
                    per_kw[i].push(BasePath {
                        pattern: patset.intern_key(&key_buf).0,
                        nodes: nodes.to_vec(),
                        len: l as f64,
                        pagerank: g.pagerank(t),
                        sim: text.sim_node(w, t, t_type),
                    });
                }
            }
            // Edge-terminal matches.
            if l < d {
                for (attr, target) in g.out_edges(t) {
                    if nodes.contains(&target) {
                        continue;
                    }
                    for (i, &w) in query.keywords.iter().enumerate() {
                        if text.attr_matches(w, attr) {
                            key_buf.clear();
                            key_buf.push(((l as u32) << 1) | 1);
                            for j in 0..l {
                                key_buf.push(g.node_type(nodes[j]).as_u32());
                                if j < attrs.len() {
                                    key_buf.push(attrs[j].as_u32());
                                }
                            }
                            key_buf.push(attr.as_u32());
                            let mut path_nodes = Vec::with_capacity(l + 1);
                            path_nodes.extend_from_slice(nodes);
                            path_nodes.push(target);
                            per_kw[i].push(BasePath {
                                pattern: patset.intern_key(&key_buf).0,
                                nodes: path_nodes,
                                len: (l + 1) as f64,
                                pagerank: g.pagerank(t),
                                sim: text.sim_attr(w, attr),
                            });
                        }
                    }
                }
            }
        });
        if per_kw.iter().any(Vec::is_empty) {
            continue; // mask over-approximation (rare; see module docs)
        }

        // Path product across keywords.
        let mut idx = vec![0usize; m];
        let mut tree_key: Vec<u32> = vec![0; m];
        loop {
            let chosen: Vec<&BasePath> = (0..m).map(|i| &per_kw[i][idx[i]]).collect();
            let valid = if cfg.strict_trees {
                let slices: Vec<&[NodeId]> = chosen.iter().map(|p| p.nodes.as_slice()).collect();
                node_slices_form_tree(r, &slices)
            } else {
                true
            };
            if valid {
                subtrees += 1;
                for i in 0..m {
                    tree_key[i] = chosen[i].pattern;
                }
                let mut len = 0.0;
                let mut pr = 0.0;
                let mut sim = 0.0;
                for p in &chosen {
                    len += p.len;
                    pr += p.pagerank;
                    sim += p.sim;
                }
                let score = cfg.scoring.tree_score(len, pr, sim);
                let id = dict.intern(&tree_key);
                dict.group_by_id_mut(id).add(score);
                let rows = rows_of(&mut rows, id);
                if rows.len() < cfg.max_rows {
                    let paths = chosen.iter().map(|p| p.nodes.as_slice());
                    rows.push(r, score, paths);
                }
            }
            // Odometer.
            let mut pos = m;
            let mut done = false;
            loop {
                if pos == 0 {
                    done = true;
                    break;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < per_kw[pos].len() {
                    break;
                }
                idx[pos] = 0;
            }
            if done {
                break;
            }
        }
    }

    BaselineWorker {
        patset,
        dict,
        rows,
        subtrees,
        candidates: candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::QueryContext;
    use crate::linear_enum::linear_enum;
    use crate::topk::SamplingConfig;
    use patternkb_datagen::figure1;
    use patternkb_index::{build_indexes, BuildConfig};
    use patternkb_text::SynonymTable;

    fn setup() -> (KnowledgeGraph, TextIndex, patternkb_index::PathIndexes) {
        let (g, _) = figure1();
        let t = TextIndex::build(&g, SynonymTable::new());
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        (g, t, idx)
    }

    #[test]
    fn agrees_with_linear_enum_on_figure1() {
        let (g, t, idx) = setup();
        for query in [
            "database software company revenue",
            "revenue",
            "database company",
            "software developer",
        ] {
            let q = Query::parse(&t, query).unwrap();
            let cfg = SearchConfig::top(100);
            let bl = baseline(&g, &t, &q, &cfg, 3, &[0, u32::MAX]);
            let ctx = QueryContext::new(&g, &idx, &q).unwrap();
            let le = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
            assert_eq!(bl.patterns.len(), le.patterns.len(), "query {query}");
            for (a, b) in bl.patterns.iter().zip(&le.patterns) {
                assert_eq!(a.key(), b.key(), "query {query}");
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "query {query}: {} vs {}",
                    a.score,
                    b.score
                );
                assert_eq!(a.num_trees, b.num_trees);
            }
        }
    }

    #[test]
    fn candidate_roots_match_index_based() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let cfg = SearchConfig::top(100);
        let bl = baseline(&g, &t, &q, &cfg, 3, &[0, u32::MAX]);
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        assert_eq!(bl.stats.candidate_roots, ctx.candidate_roots().len());
    }

    #[test]
    fn respects_d() {
        let (g, t, _) = setup();
        let q = Query::parse(&t, "software revenue").unwrap();
        let cfg = SearchConfig::top(100);
        let d2 = baseline(&g, &t, &q, &cfg, 2, &[0, u32::MAX]);
        let d3 = baseline(&g, &t, &q, &cfg, 3, &[0, u32::MAX]);
        // With d = 2 the only root reaching both a Software match (type) and
        // a Revenue edge within the bounds is... nothing: software matches
        // SQL Server/Oracle DB, whose revenue edges sit 3 levels deep.
        assert!(d2.patterns.len() < d3.patterns.len());
        for p in &d2.patterns {
            assert!(p.height() <= 2);
        }
    }
}
