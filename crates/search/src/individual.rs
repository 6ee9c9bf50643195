//! Individual-subtree ranking (§5.3).
//!
//! The paper contrasts top-k *individual* valid subtrees (ranked by
//! Eq. (3)) against top-k *tree patterns*: around half the top individual
//! subtrees have "singular" patterns and vanish from the pattern answers,
//! while up to 70% of the top patterns are invisible among the top
//! individual subtrees (Figure 13). This module computes both sides of
//! that comparison.

use crate::common::{
    expand_root, materialize_tree, run_sharded, ExpandScratch, Fanout, QueryContext, ShardContext,
    SubtreeFold,
};
use crate::result::RankedPattern;
use crate::subtree::ValidSubtree;
use crate::SearchConfig;
use patternkb_index::PatternSet;
use std::ops::ControlFlow;

/// One top individual subtree plus its tree-pattern key (for membership
/// tests against pattern answers).
#[derive(Clone, Debug)]
pub struct ScoredTree {
    /// The subtree.
    pub tree: ValidSubtree,
    /// Flattened per-keyword pattern-id key (same space as
    /// [`crate::common::TreeDict`] keys).
    pub pattern_key: Vec<u32>,
}

/// Enumerate all valid subtrees — under [`SearchConfig::strict_trees`]
/// only those whose paths form a tree, as the pattern kernels count — and
/// keep the `k` best by Eq. (3), ties broken by (root, pattern key) for
/// determinism. Shard-parallel: each shard keeps its local top-k, and the
/// per-shard lists merge under the same total order — the selection is
/// order-free, so the result matches a single-shard pass exactly.
pub fn top_individual(ctx: &QueryContext<'_>, cfg: &SearchConfig, k: usize) -> Vec<ScoredTree> {
    top_individual_in(ctx, cfg, k, ctx.fanout())
}

/// [`top_individual`] with the fan-out mode chosen by the caller.
pub(crate) fn top_individual_in(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    k: usize,
    mode: Fanout,
) -> Vec<ScoredTree> {
    let locals = run_sharded(mode, &ctx.shards, |shard| {
        top_individual_shard(shard, cfg, k)
    });
    let mut best: Vec<ScoredTree> = locals.into_iter().flatten().collect();
    sort_trees(&mut best);
    best.truncate(k);
    best
}

/// One shard's top-k individual subtrees: every candidate root expanded
/// ([`expand_root`]), roots ascending, combinations in odometer order.
fn top_individual_shard(ctx: &ShardContext<'_>, cfg: &SearchConfig, k: usize) -> Vec<ScoredTree> {
    let mut best: Vec<ScoredTree> = Vec::new();
    let mut scratch = ExpandScratch::new(&ctx.words);
    let mut fold = SubtreeFold::new(ctx.m());
    for (r, at) in ctx.walk().iter() {
        expand_root(&mut scratch, at, |key, paths| {
            let paths = paths.iter().copied();
            fold.fold(&ctx.words, cfg, r, paths, |tuple, score| {
                // Cheap reject against the current kth best.
                if best.len() < k || best.last().is_some_and(|worst| score > worst.tree.score) {
                    best.push(ScoredTree {
                        tree: materialize_tree(&ctx.words, r, tuple, score),
                        pattern_key: key.to_vec(),
                    });
                    sort_trees(&mut best);
                    best.truncate(k);
                }
                ControlFlow::Continue(())
            });
        });
    }
    best
}

fn sort_trees(trees: &mut [ScoredTree]) {
    trees.sort_by(|a, b| {
        b.tree
            .score
            .partial_cmp(&a.tree.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.tree.root.cmp(&b.tree.root))
            .then_with(|| a.pattern_key.cmp(&b.pattern_key))
    });
}

/// The Figure-13 metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverageMetrics {
    /// Fraction of the top-k individual subtrees whose pattern appears
    /// among the top-k tree patterns ("coverage", left plot).
    pub coverage: f64,
    /// Fraction of the top-k tree patterns containing **no** top-k
    /// individual subtree ("new tree patterns", right plot).
    pub new_patterns: f64,
}

/// Compare top individual subtrees against top patterns.
///
/// `pattern_keys` are the flattened keys of the top-k patterns (e.g. from
/// [`pattern_key_of`]).
pub fn coverage(trees: &[ScoredTree], pattern_keys: &[Vec<u32>]) -> CoverageMetrics {
    if trees.is_empty() || pattern_keys.is_empty() {
        return CoverageMetrics {
            coverage: 0.0,
            new_patterns: if pattern_keys.is_empty() { 0.0 } else { 1.0 },
        };
    }
    let covered = trees
        .iter()
        .filter(|t| pattern_keys.iter().any(|k| k == &t.pattern_key))
        .count();
    let new = pattern_keys
        .iter()
        .filter(|k| trees.iter().all(|t| &t.pattern_key != *k))
        .count();
    CoverageMetrics {
        coverage: covered as f64 / trees.len() as f64,
        new_patterns: new as f64 / pattern_keys.len() as f64,
    }
}

/// The flattened pattern key of a ranked pattern (encode each per-keyword
/// path pattern through the index's interner).
pub fn pattern_key_of(patterns: &PatternSet, p: &RankedPattern) -> Option<Vec<u32>> {
    let mut key = Vec::with_capacity(p.pattern.len());
    for pat in &p.pattern {
        key.push(patterns.get_key(&pat.encode())?.0);
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_enum::linear_enum;
    use crate::subtree::node_slices_form_tree;
    use crate::topk::SamplingConfig;
    use crate::Query;
    use patternkb_datagen::figure1;
    use patternkb_graph::NodeId;
    use patternkb_index::{build_indexes, BuildConfig};
    use patternkb_text::{SynonymTable, TextIndex};

    fn setup() -> (
        patternkb_graph::KnowledgeGraph,
        TextIndex,
        patternkb_index::PathIndexes,
    ) {
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
    fn top_trees_are_sorted_and_bounded() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let trees = top_individual(&ctx, &SearchConfig::default(), 3);
        assert_eq!(trees.len(), 3); // 10 subtrees exist in total
        for w in trees.windows(2) {
            assert!(w[0].tree.score >= w[1].tree.score);
        }
    }

    #[test]
    fn all_trees_when_k_large() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let trees = top_individual(&ctx, &SearchConfig::default(), 100);
        assert_eq!(trees.len(), 10);
    }

    #[test]
    fn best_individual_matches_best_pattern_score_scale() {
        // The best individual subtree is T1 or T2 (score 1.75 each).
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let trees = top_individual(&ctx, &SearchConfig::default(), 1);
        assert!((trees[0].tree.score - 1.75).abs() < 1e-9);
    }

    #[test]
    fn coverage_metrics() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(2);
        let patterns = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
        let keys: Vec<Vec<u32>> = patterns
            .patterns
            .iter()
            .filter_map(|p| pattern_key_of(idx.patterns(), p))
            .collect();
        assert_eq!(keys.len(), patterns.patterns.len());
        let trees = top_individual(&ctx, &cfg, 2);
        let m = coverage(&trees, &keys);
        assert!((0.0..=1.0).contains(&m.coverage));
        assert!((0.0..=1.0).contains(&m.new_patterns));
        // Top-2 individual trees are T1/T2, both of pattern P1, which is the
        // top pattern → full coverage.
        assert_eq!(m.coverage, 1.0);
    }

    /// Strict mode keeps only subtrees whose paths form a tree, as the
    /// pattern kernels do: two keyword paths converging on one node
    /// (`hub → left → end`, `hub → right → end`) are dropped.
    #[test]
    fn strict_mode_drops_converging_paths() {
        let mut b = patternkb_graph::GraphBuilder::new();
        let t = b.add_type("Place");
        let link = b.add_attr("Road");
        let hub = b.add_node(t, "hub");
        let left = b.add_node(t, "left");
        let right = b.add_node(t, "right");
        let end = b.add_node(t, "gamma delta");
        b.add_edge(hub, link, left);
        b.add_edge(hub, link, right);
        b.add_edge(left, link, end);
        b.add_edge(right, link, end);
        let g = b.build();
        let text = TextIndex::build(&g, SynonymTable::new());
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 1,
        };
        let idx = build_indexes(&g, &text, &cfg);
        let q = Query::parse(&text, "gamma delta").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let is_tree = |t: &ScoredTree| {
            let paths: Vec<&[NodeId]> = t.tree.paths.iter().map(|p| &p.nodes[..]).collect();
            node_slices_form_tree(t.tree.root, &paths)
        };
        let all = top_individual(&ctx, &SearchConfig::default(), 100);
        let strict_cfg = SearchConfig {
            strict_trees: true,
            ..SearchConfig::default()
        };
        let strict = top_individual(&ctx, &strict_cfg, 100);
        assert_eq!(all.iter().filter(|t| !is_tree(t)).count(), 2);
        assert!(strict.iter().all(is_tree));
        assert_eq!(strict.len(), all.len() - 2);
    }

    #[test]
    fn empty_inputs() {
        let m = coverage(&[], &[]);
        assert_eq!(m.coverage, 0.0);
        assert_eq!(m.new_patterns, 0.0);
    }
}
