//! Exact counting of tree patterns and valid subtrees.
//!
//! `COUNTPAT` — counting the d-height tree patterns of a query — is
//! #P-complete (Theorem 1), so no polynomial algorithm exists; these
//! functions do the honest exponential-in-output work and exist to
//!
//! * power the Theorem-1 reduction tests (`#patterns = (#s-t paths)²`), and
//! * bucket queries by answer counts for the §5 experiments (Figures 7–9
//!   group queries by #patterns / #subtrees).

use crate::common::{expand_root, run_sharded, ExpandScratch, Fanout, QueryContext};
use crate::intern::KeyInterner;

/// Exact number of d-height tree patterns for the query (distinct
/// per-keyword pattern-id tuples over all candidate roots). Shard-parallel
/// with a cross-shard union of the per-shard key sets (pattern ids are
/// global, so keys from different shards compare directly). Keys intern
/// into bump arenas — no per-combination boxing.
pub fn count_patterns(ctx: &QueryContext<'_>) -> u64 {
    count_patterns_in(ctx, ctx.fanout())
}

/// [`count_patterns`] with the fan-out mode chosen by the caller.
pub(crate) fn count_patterns_in(ctx: &QueryContext<'_>, mode: Fanout) -> u64 {
    let m = ctx.m();
    let mut locals: Vec<KeyInterner> = run_sharded(mode, &ctx.shards, |shard| {
        let mut seen = KeyInterner::new(m);
        let mut scratch = ExpandScratch::new(&shard.words);
        for (_, at) in shard.walk().iter() {
            expand_root(&mut scratch, at, |key, _| {
                seen.intern(key);
            });
        }
        seen
    });
    if locals.is_empty() {
        return 0;
    }
    // Union: re-intern each later shard's distinct keys into the first.
    let mut union = locals.remove(0);
    for local in locals {
        for (_, key) in local.iter() {
            union.intern(key);
        }
    }
    union.len() as u64
}

/// Exact number of valid subtrees `N = Σ_r Πᵢ |Paths(wᵢ, r)|`, computed
/// without enumeration (the quantity of Algorithm 4 line 4 and the x-axis
/// of Figure 9). With one keyword every root of the word is a candidate
/// and `N` is the word's posting count.
pub fn count_subtrees(ctx: &QueryContext<'_>) -> u64 {
    if ctx.m() == 1 {
        return ctx.shards.iter().map(|s| s.words[0].len() as u64).sum();
    }
    ctx.shards.iter().fold(0u64, |total, shard| {
        total.saturating_add(shard.walk().subtrees())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_enum::linear_enum;
    use crate::topk::SamplingConfig;
    use crate::{Query, SearchConfig};
    use patternkb_datagen::{figure1, theorem1};
    use patternkb_graph::traversal::count_simple_paths;
    use patternkb_index::{build_indexes, BuildConfig};
    use patternkb_text::{SynonymTable, TextIndex};

    #[test]
    fn figure1_counts() {
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
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        assert_eq!(count_patterns(&ctx), 9);
        assert_eq!(count_subtrees(&ctx), 10);
        // Consistency with full enumeration.
        let le = linear_enum(&ctx, &SearchConfig::top(1000), &SamplingConfig::exact());
        assert_eq!(le.patterns.len() as u64, count_patterns(&ctx));
        assert_eq!(le.stats.subtrees as u64, count_subtrees(&ctx));
    }

    /// The Theorem-1 identity on the diamond graph: 2 s-t paths → 4 tree
    /// patterns.
    #[test]
    fn theorem1_diamond() {
        let edges = [(0usize, 1usize), (0, 2), (1, 3), (2, 3)];
        check_reduction(4, &edges, 0, 3);
    }

    /// Reduction identity on a graph with more path diversity.
    #[test]
    fn theorem1_three_paths() {
        // 0→3 directly, 0→1→3, 0→1→2→3 : 3 simple paths → 9 patterns.
        let edges = [(0usize, 3usize), (0, 1), (1, 3), (1, 2), (2, 3)];
        check_reduction(4, &edges, 0, 3);
    }

    /// Random digraphs: #patterns == (#simple s-t paths)².
    #[test]
    fn theorem1_random_graphs() {
        for seed in 0..12u64 {
            let n = 4 + (seed % 3) as usize; // 4..6 nodes → d ≤ 7 ≤ MAX_D
            let edges = theorem1::random_digraph(n, 0.4, seed);
            check_reduction(n, &edges, 0, n - 1);
        }
    }

    fn check_reduction(n: usize, edges: &[(usize, usize)], s: usize, t: usize) {
        let red = theorem1::reduce(n, edges, s, t);
        let g = &red.graph;
        let text = TextIndex::build(g, SynonymTable::new());
        let idx = build_indexes(
            g,
            &text,
            &BuildConfig {
                d: red.d,
                threads: 1,
                shards: 1,
            },
        );
        let q = Query::parse(&text, &format!("{} {}", red.query[0], red.query[1]));
        // Brute-force simple path count in one copy.
        let target = g
            .nodes()
            .find(|&v| g.node_text(v) == red.query[0])
            .expect("target copy exists");
        let expected_paths = count_simple_paths(g, red.root, target);
        match q {
            Ok(q) => {
                let ctx = QueryContext::new(g, &idx, &q).expect("context");
                assert_eq!(
                    count_patterns(&ctx),
                    expected_paths * expected_paths,
                    "reduction identity failed for n={n}, edges={edges:?}"
                );
            }
            Err(_) => {
                // The target word is unreachable (no s-t path): 0 patterns,
                // and indeed 0 paths. Parse fails only if the word is absent
                // from the KB entirely — it isn't (it's a node text), so
                // reaching here means the word exists; context must too.
                assert_eq!(expected_paths, 0);
            }
        }
    }
}
