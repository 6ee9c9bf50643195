//! Diversifying the top-k pattern list (maximal marginal relevance).
//!
//! Tree patterns are often near-duplicates of one another: the same set of
//! entities reached through a slightly longer path, or through a sibling
//! attribute, produces a separate pattern whose *table rows name the same
//! things*. A ranked list that spends its k slots on variants of one
//! interpretation hides the others — the very failure mode (answer
//! fragmentation) that motivated patterns over individual subtrees in the
//! first place.
//!
//! [`diversify`] re-ranks with the classic MMR objective: greedily pick
//! the pattern maximizing
//!
//! ```text
//! λ · rel(P)  −  (1 − λ) · max_{S ∈ selected} overlap(P, S)
//! ```
//!
//! where `rel` is the pattern score normalized into `[0, 1]` and `overlap`
//! is the Jaccard similarity of the patterns' **root-entity sets** (two
//! patterns whose rows are anchored at the same entities say roughly the
//! same thing). Root sets come from the materialized example subtrees, so
//! with `SearchConfig::max_rows` smaller than a pattern's row count the
//! overlap is a sample-based estimate — fine for de-duplication.
//!
//! `λ = 1` reproduces the input order; lower values trade headroom for
//! coverage. Selection is deterministic (score, then pattern-key ties).

use crate::result::RankedPattern;
use patternkb_graph::NodeId;
use std::borrow::Borrow;

/// Knobs for [`diversify`].
#[derive(Clone, Copy, Debug)]
pub struct DiversifyConfig {
    /// Relevance–diversity trade-off `λ ∈ [0, 1]`; 1 = pure relevance.
    pub lambda: f64,
    /// Number of patterns to select.
    pub k: usize,
}

impl Default for DiversifyConfig {
    fn default() -> Self {
        DiversifyConfig { lambda: 0.7, k: 10 }
    }
}

/// Sorted, deduplicated root entities of a pattern's materialized rows.
fn root_set(p: &RankedPattern) -> Vec<NodeId> {
    let mut roots: Vec<NodeId> = p.trees.iter().map(|t| t.root).collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Jaccard similarity of two sorted id sets.
fn jaccard(a: &[NodeId], b: &[NodeId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Greedy MMR selection over `patterns` (assumed best-first, as returned
/// by any search algorithm). Returns at most `cfg.k` patterns, cloned, in
/// selection order. Works on owned patterns and on the shared ones a
/// [`crate::SearchResponse`] carries alike.
pub fn diversify<P>(patterns: &[P], cfg: &DiversifyConfig) -> Vec<P>
where
    P: Borrow<RankedPattern> + Clone,
{
    diversify_order(patterns, cfg)
        .into_iter()
        .map(|i| patterns[i].clone())
        .collect()
}

/// The selection [`diversify`] makes, as indices into `patterns` in
/// selection order — for callers that keep other per-pattern data (the
/// composed tables) aligned with the pick.
pub(crate) fn diversify_order<P>(patterns: &[P], cfg: &DiversifyConfig) -> Vec<usize>
where
    P: Borrow<RankedPattern>,
{
    let k = cfg.k.min(patterns.len());
    if k == 0 {
        return Vec::new();
    }
    let lambda = cfg.lambda.clamp(0.0, 1.0);
    let max_score = patterns
        .iter()
        .map(|p| p.borrow().score)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(f64::MIN_POSITIVE);

    let root_sets: Vec<Vec<NodeId>> = patterns.iter().map(|p| root_set(p.borrow())).collect();
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();

    while selected.len() < k {
        let mut best: Option<(f64, usize, usize)> = None; // (mmr, slot in remaining, idx)
        for (slot, &i) in remaining.iter().enumerate() {
            let rel = patterns[i].borrow().score / max_score;
            let max_overlap = selected
                .iter()
                .map(|&s| jaccard(&root_sets[i], &root_sets[s]))
                .fold(0.0f64, f64::max);
            let mmr = lambda * rel - (1.0 - lambda) * max_overlap;
            let better = match best {
                None => true,
                // Deterministic: strict improvement, or tie broken by the
                // input (score) order, i.e. keep the earliest.
                Some((b, _, _)) => mmr > b + 1e-15,
            };
            if better {
                best = Some((mmr, slot, i));
            }
        }
        let (_, slot, i) = best.expect("remaining is non-empty");
        remaining.swap_remove(slot);
        // swap_remove disturbs `remaining`'s order; restore input order so
        // the tie-break stays deterministic.
        remaining.sort_unstable();
        selected.push(i);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtree::Rows;

    /// A pattern with the given score whose rows are rooted at `roots`.
    fn pat(score: f64, roots: &[u32]) -> RankedPattern {
        let mut trees = Rows::default();
        for &r in roots {
            trees.push(NodeId(r), score, []);
        }
        RankedPattern {
            pattern: vec![],
            score,
            num_trees: roots.len(),
            trees,
        }
    }

    #[test]
    fn lambda_one_keeps_input_order() {
        let input = vec![pat(9.0, &[1, 2]), pat(5.0, &[1, 2]), pat(1.0, &[3])];
        let out = diversify(&input, &DiversifyConfig { lambda: 1.0, k: 3 });
        let scores: Vec<f64> = out.iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![9.0, 5.0, 1.0]);
    }

    #[test]
    fn duplicates_are_demoted() {
        // #2 is a root-identical clone of #1; #3 covers different entities.
        let input = vec![
            pat(10.0, &[1, 2, 3]),
            pat(9.0, &[1, 2, 3]),
            pat(5.0, &[7, 8]),
        ];
        let out = diversify(&input, &DiversifyConfig { lambda: 0.5, k: 2 });
        assert_eq!(out[0].score, 10.0);
        assert_eq!(out[1].score, 5.0, "the disjoint pattern beats the clone");
    }

    #[test]
    fn partial_overlap_ranks_between() {
        let input = vec![
            pat(10.0, &[1, 2, 3, 4]),
            pat(9.0, &[1, 2, 3, 4]), // clone of #0
            pat(8.5, &[3, 4, 5, 6]), // half overlap
            pat(8.0, &[9, 10]),      // disjoint
        ];
        let out = diversify(&input, &DiversifyConfig { lambda: 0.5, k: 4 });
        let scores: Vec<f64> = out.iter().map(|p| p.score).collect();
        assert_eq!(scores[0], 10.0);
        assert_eq!(scores[1], 8.0, "disjoint first");
        assert_eq!(scores[2], 8.5, "half-overlap second");
        assert_eq!(scores[3], 9.0, "clone last");
    }

    #[test]
    fn k_bounds_and_empty_input() {
        assert!(diversify::<RankedPattern>(&[], &DiversifyConfig::default()).is_empty());
        let input = vec![pat(1.0, &[1])];
        let out = diversify(&input, &DiversifyConfig { lambda: 0.3, k: 10 });
        assert_eq!(out.len(), 1);
        let none = diversify(&input, &DiversifyConfig { lambda: 0.3, k: 0 });
        assert!(none.is_empty());
    }

    #[test]
    fn lambda_zero_still_leads_with_best() {
        // The first pick has no selected set to overlap with, so even pure
        // diversity starts from the top-scoring pattern.
        let input = vec![pat(10.0, &[1]), pat(1.0, &[2])];
        let out = diversify(&input, &DiversifyConfig { lambda: 0.0, k: 1 });
        assert_eq!(out[0].score, 10.0);
    }

    #[test]
    fn jaccard_math() {
        let a = [NodeId(1), NodeId(2), NodeId(3)];
        let b = [NodeId(2), NodeId(3), NodeId(4)];
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
        assert_eq!(jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn end_to_end_on_figure1() {
        use crate::{AlgorithmChoice, EngineBuilder, SearchRequest};
        use patternkb_datagen::figure1;
        let (g, _) = figure1();
        let e = EngineBuilder::new().graph(g).threads(1).build().unwrap();
        let r = e
            .respond(
                &SearchRequest::text("database software company revenue")
                    .k(9)
                    .algorithm(AlgorithmChoice::PatternEnum),
            )
            .unwrap();
        let out = diversify(&r.patterns, &DiversifyConfig { lambda: 0.5, k: 5 });
        assert_eq!(out.len(), 5);
        // Top answer is stable; selected scores are a subset of the input.
        assert_eq!(out[0].key(), r.patterns[0].key());
        for p in &out {
            assert!(r.patterns.iter().any(|x| x.key() == p.key()));
        }
    }
}
