//! `LINEARENUM` — Algorithm 3, with Algorithm 4's root sampling as a
//! per-type rate — shard-parallel. Both `LINEARENUM` and
//! `LINEARENUM-TOPK` run this one kernel.
//!
//! Instead of enumerating tree patterns directly, find all candidate roots
//! (`R = ∩ Roots(wᵢ)` from the root-first index), then `EXPANDROOT` each:
//! the pattern product × path product under a root only ever visits
//! **nonempty** tree patterns, so the running time is linear in the index
//! size plus the output size (Theorem 3):
//! `O(N · d · m + Σᵢ Sᵢ)`.
//!
//! Candidate roots partition over the index's root-range shards, so each
//! shard expands its own roots into a private `TreeDict` (contention-free)
//! and the dictionaries merge at the end — bit-identical to a sequential
//! pass thanks to exact score accumulation. The dictionaries hold scores
//! only; rows are re-joined for the k winners alone (`rank_winners`).
//!
//! With a sampling rate `ρ < 1` and a finite threshold `Λ`
//! ([`SamplingConfig`]) the kernel is `LINEARENUM-TOPK` (Algorithm 4):
//! each root type gets a rate, each shard expands only the roots its
//! type's rate keeps, and after the merge each sampled type keeps its k
//! best patterns, re-scored exactly ([`crate::topk`]).
//! Otherwise — every `LINEARENUM` request, and `LINEARENUM-TOPK` with
//! `Λ = ∞` or `ρ = 1` — no root is skipped and no type is cut: the answer
//! is the exact top-k (Theorem 4), the one `LINEARENUM` returns.

use crate::common::{
    expand_root, merge_shard_dicts, rank_winners, run_sharded, ExpandScratch, Fanout, QueryContext,
    SubtreeFold, TreeDict,
};
use crate::result::{QueryStats, SearchResult, ShardStats};
use crate::topk::{keep_type_winners, SamplingConfig, TypeRates};
use crate::SearchConfig;
use std::ops::ControlFlow;
use std::time::Instant;

/// Run `LINEARENUM` — `LINEARENUM-TOPK` where `samp` samples — returning
/// the tree patterns ranked and truncated to `cfg.k`.
pub fn linear_enum(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    samp: &SamplingConfig,
) -> SearchResult {
    linear_enum_in(ctx, cfg, samp, ctx.fanout())
}

/// [`linear_enum`] with the fan-out mode chosen by the caller.
pub(crate) fn linear_enum_in(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    samp: &SamplingConfig,
    mode: Fanout,
) -> SearchResult {
    let t0 = Instant::now();
    let rates = TypeRates::new(ctx, samp);
    let locals = run_sharded(mode, &ctx.shards, |shard| {
        let mut dict = TreeDict::new(shard.m());
        let mut scratch = ExpandScratch::new(&shard.words);
        let mut fold = SubtreeFold::new(shard.m());
        let mut subtrees = 0usize;
        let walk = shard.walk();
        for (r, at) in walk.iter() {
            if rates.as_ref().is_some_and(|rates| !rates.keeps(shard.g, r)) {
                continue;
            }
            // Strict mode may reject every tuple of a pattern: its group
            // then stays dead, and iteration and merging skip it.
            expand_root(&mut scratch, at, |key, paths| {
                let group = dict.group_mut(key);
                let paths = paths.iter().copied();
                subtrees += fold.fold(&shard.words, cfg, r, paths, |_, score| {
                    group.push(score);
                    ControlFlow::Continue(())
                });
            });
        }
        (dict, subtrees, walk.roots().len(), shard.shard)
    });

    let mut per_shard = Vec::with_capacity(locals.len());
    let mut dicts = Vec::with_capacity(locals.len());
    let mut subtrees = 0usize;
    let mut candidate_roots = 0usize;
    for (dict, local_subtrees, local_roots, shard) in locals {
        per_shard.push(ShardStats {
            shard,
            candidate_roots: local_roots,
            subtrees: local_subtrees,
            patterns: dict.len(),
        });
        subtrees += local_subtrees;
        candidate_roots += local_roots;
        dicts.push(dict);
    }
    let mut dict = merge_shard_dicts(dicts, ctx.m());

    let patterns_found = dict.len();
    if let Some(rates) = &rates {
        keep_type_winners(ctx, cfg, rates, &mut dict, &mut per_shard);
        subtrees = per_shard.iter().map(|s| s.subtrees).sum();
    }
    let patterns = rank_winners(ctx, cfg, std::slice::from_ref(&dict));
    let mut hot = ctx.hot_stats();
    hot.keys_interned = dict.keys_interned() as u64;
    hot.key_arena_bytes = dict.arena_bytes() as u64;
    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots,
            subtrees,
            patterns: patterns_found,
            combos_tried: patterns_found,
            combos_pruned: 0,
            per_shard,
            fanout: mode,
            hot,
            elapsed: t0.elapsed(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use patternkb_datagen::figure1;
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
    fn figure1_query_finds_nine_patterns() {
        // "database software company revenue" on Figure 1(d) with d = 3:
        // root v1 contributes 8 pattern combos (database via Genre/Model or
        // Reference/Book × software via self or Reference/Book × company via
        // Developer or Reference/Publisher), v7 shares P1, v12 contributes
        // P2 → 9 distinct patterns, 10 subtrees.
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(100), &SamplingConfig::exact());
        assert_eq!(r.stats.candidate_roots, 3); // v1, v7, v12
        assert_eq!(r.stats.subtrees, 10);
        assert_eq!(r.patterns.len(), 9);
        let total_trees: usize = r.patterns.iter().map(|p| p.num_trees).sum();
        assert_eq!(total_trees, 10);
    }

    #[test]
    fn figure1_top_pattern_is_p1() {
        // Example 2.4: P1 (the Genre/Model interpretation with 2 subtrees)
        // outscores P2 (the Book interpretation).
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(100), &SamplingConfig::exact());
        let top = r.top().unwrap();
        assert_eq!(top.num_trees, 2, "P1 aggregates T1 and T2");
        let shown = top.display(&g);
        assert!(shown.contains("(Software) (Genre) (Model)"), "{shown}");
        assert!(
            shown.contains("(Software) (Developer) (Company) (Revenue)"),
            "{shown}"
        );
        // Example 2.4 arithmetic: score(T1) = 4·3.5/8 = 1.75, so
        // score(P1) = 3.5 under Sum aggregation.
        assert!((top.score - 3.5).abs() < 1e-9, "score {}", top.score);
    }

    #[test]
    fn p2_score_matches_example() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(100), &SamplingConfig::exact());
        // P2: single subtree rooted at the Book.
        let p2 = r
            .patterns
            .iter()
            .find(|p| g.type_text(p.pattern[0].root_type()) == "Book")
            .expect("P2 present");
        assert_eq!(p2.num_trees, 1);
        // score(T3) = score2 · score3 / score1 = 4 · (1/6+1/6+1+1) / 7.
        let expected = 4.0 * (1.0 / 6.0 + 1.0 / 6.0 + 1.0 + 1.0) / 7.0;
        assert!((p2.score - expected).abs() < 1e-9, "score {}", p2.score);
    }

    #[test]
    fn single_keyword_query() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(100), &SamplingConfig::exact());
        // Revenue edges exist under Microsoft, Oracle Corp, Springer; roots
        // reaching them within d=3: each company itself, plus SQL Server /
        // Oracle DB (via Developer), plus the Book (via Publisher).
        assert_eq!(r.stats.candidate_roots, 6);
        assert!(r.patterns.iter().all(|p| p.height() <= 3));
        // Every pattern is edge-terminal in its only keyword path.
        for p in &r.patterns {
            assert!(p.pattern[0].edge_terminal);
        }
    }

    #[test]
    fn unanswerable_context_is_none() {
        let (g, t, idx) = setup();
        // "gates" exists; craft a query with a word that exists in vocab
        // but — actually unknown words fail at parse; a context is None only
        // for words absent from the index, which parse already rejects.
        let q = Query::parse(&t, "gates").unwrap();
        assert!(QueryContext::new(&g, &idx, &q).is_some());
    }

    #[test]
    fn k_truncation() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(2), &SamplingConfig::exact());
        assert_eq!(r.patterns.len(), 2);
        assert!(r.patterns[0].score >= r.patterns[1].score);
    }

    #[test]
    fn strict_trees_on_figure1_changes_nothing() {
        // Figure 1(d) path tuples never converge, so strict mode must agree.
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let lax = linear_enum(&ctx, &SearchConfig::top(100), &SamplingConfig::exact());
        let strict = linear_enum(
            &ctx,
            &SearchConfig {
                strict_trees: true,
                ..SearchConfig::top(100)
            },
            &SamplingConfig::exact(),
        );
        assert_eq!(lax.patterns.len(), strict.patterns.len());
        for (a, b) in lax.patterns.iter().zip(&strict.patterns) {
            assert_eq!(a.key(), b.key());
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }
}
