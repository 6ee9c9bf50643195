//! `PATTERNENUM` — Algorithm 2, shard-parallel.
//!
//! For each root type `C`, enumerate every combination of per-keyword path
//! patterns rooted at `C` (from the pattern-first index), intersect the
//! pattern's root lists to test emptiness (line 5), and for nonempty
//! combinations join the paths at their shared roots into valid subtrees.
//!
//! Under sharding each worker runs the enumeration over **its shard's**
//! pattern lists and root ranges; a pattern combination whose subtrees
//! spread over several shards is discovered independently in each and its
//! partial groups merge exactly at the end (a pattern's score aggregates
//! over roots, and roots partition across shards). The cross-shard merge
//! requires holding every *nonempty* combination's partial group until
//! the end — `O(patterns)` memory, the same class as `LINEARENUM`'s
//! dictionary, replacing the pre-shard `O(k)` periodic compaction; empty
//! combinations (the adversarial bulk) still cost nothing. The worst case remains
//! the `Θ(p^m)` joins wasted on **empty** pattern combinations (§4.1's
//! adversarial construction, reproduced in `datagen::worstcase` and the
//! `worstcase` pick of `experiments`); `stats.combos_tried` reports the global
//! combination count — `Σ_C Πᵢ |PatternsC(wᵢ)|` over the whole index — so
//! the figure is comparable across shard counts.

use crate::common::{
    combo_count, merge_shard_dicts, odometer_step, run_sharded, Fanout, QueryContext, ShardContext,
    SubtreeFold, TreeDict,
};
use crate::result::{QueryStats, RankedPattern, SearchResult, ShardStats};
use crate::SearchConfig;
use patternkb_graph::NodeId;
use patternkb_index::RunCursor;
use std::ops::ControlFlow;
use std::time::Instant;

/// The global pattern-combination count `Σ_C Πᵢ |PatternsC(wᵢ)|` over the
/// whole index — what a single-shard `PATTERNENUM` iterates (saturating).
fn global_combo_count(ctx: &QueryContext<'_>) -> usize {
    combo_count(&ctx.merged_by_type())
}

/// One shard's `PATTERNENUM` pass: every nonempty local combination folded
/// into a [`TreeDict`] keyed by the (global) pattern-id tuple.
///
/// The per-combination inner loop is **fused**: instead of materializing
/// the root intersection and then re-searching each root's posting run,
/// per-keyword [`RunCursor`]s leapfrog by root and land on each common
/// root's posting runs directly ([`patternkb_index::leapfrog`]).
fn pattern_enum_shard(shard: &ShardContext<'_>, cfg: &SearchConfig) -> (TreeDict, usize, Vec<u32>) {
    let m = shard.m();
    // Per keyword: patterns grouped by root type (`PatternsC(wᵢ)`,
    // line 3) — cached on the word index, so per-query setup is
    // O(root types), not O(patterns).
    let groups_per_kw: Vec<&patternkb_index::PatternTypeGroups> = shard
        .words
        .iter()
        .map(|w| w.pattern_type_groups(shard.idx.patterns()))
        .collect();

    let mut dict = TreeDict::new(m);
    let mut subtrees = 0usize;
    let mut candidate_roots_seen: Vec<u32> = Vec::new();

    let mut combo = vec![0usize; m];
    let mut key: Vec<u32> = vec![0; m];
    let mut cursors: Vec<RunCursor<'_>> = Vec::with_capacity(m);
    let mut fold = SubtreeFold::new(m);

    // A type missing for any keyword has no combinations.
    for lists in patternkb_index::groups_by_shared_type(&groups_per_kw) {
        // Line 4: the pattern product for this root type.
        loop {
            for i in 0..m {
                key[i] = lists[i].patterns[combo[i]].0;
            }
            cursors.clear();
            for i in 0..m {
                // A word's own groups hold one position per pattern.
                let prim = lists[i].prim(combo[i], 0);
                cursors.push(shard.words[i].pattern_run_cursor(prim as usize));
            }
            // Lines 5–8 fused: leapfrog the run cursors; every common
            // root yields its posting runs for the path product.
            let roots_before = candidate_roots_seen.len();
            let mut group_id = None;
            let end = patternkb_index::leapfrog(&mut cursors, |r, cursors| {
                let root = NodeId(r);
                let gid = *group_id.get_or_insert_with(|| dict.intern(&key));
                let group = dict.group_by_id_mut(gid);
                candidate_roots_seen.push(r);
                let runs = cursors.iter().map(RunCursor::postings);
                subtrees += fold.fold(&shard.words, cfg, root, runs, |tuple, score| {
                    group.add(&shard.words, root, tuple, score, cfg.max_rows);
                    ControlFlow::Continue(())
                });
                ControlFlow::Continue(())
            });
            shard.counters.add_seeks(end.seeks);
            if let Some(gid) = group_id {
                if dict.group(gid).is_dead() {
                    // Strict mode rejected every tuple: drop the roots we
                    // optimistically recorded.
                    candidate_roots_seen.truncate(roots_before);
                }
            }
            if odometer_step(&mut combo, |i| lists[i].patterns.len()).is_none() {
                break;
            }
        }
    }

    candidate_roots_seen.sort_unstable();
    candidate_roots_seen.dedup();
    (dict, subtrees, candidate_roots_seen)
}

/// Run `PATTERNENUM`.
pub fn pattern_enum(ctx: &QueryContext<'_>, cfg: &SearchConfig) -> SearchResult {
    pattern_enum_in(ctx, cfg, ctx.fanout())
}

/// [`pattern_enum`] with the fan-out mode chosen by the caller.
pub(crate) fn pattern_enum_in(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    mode: Fanout,
) -> SearchResult {
    let t0 = Instant::now();
    let combos_tried = global_combo_count(ctx);
    let locals = run_sharded(mode, &ctx.shards, |shard| {
        let (dict, subtrees, roots) = pattern_enum_shard(shard, cfg);
        (dict, subtrees, roots, shard.shard)
    });

    let mut per_shard = Vec::with_capacity(locals.len());
    let mut dicts = Vec::with_capacity(locals.len());
    let mut subtrees = 0usize;
    let mut candidate_roots = 0usize;
    for (dict, local_subtrees, roots, shard) in locals {
        per_shard.push(ShardStats {
            shard,
            candidate_roots: roots.len(),
            subtrees: local_subtrees,
            patterns: dict.len(),
        });
        subtrees += local_subtrees;
        // Shards partition the root space, so per-shard dedup is global
        // dedup.
        candidate_roots += roots.len();
        dicts.push(dict);
    }
    let dict = merge_shard_dicts(dicts, ctx.m(), cfg.max_rows);

    let patterns_found = dict.len();
    let mut hot = ctx.hot_stats();
    hot.keys_interned = dict.keys_interned() as u64;
    hot.key_arena_bytes = dict.arena_bytes() as u64;
    let mut patterns: Vec<RankedPattern> = Vec::with_capacity(patterns_found);
    dict.drain_live(|key, group| {
        patterns.push(RankedPattern {
            pattern: ctx.decode_key(key),
            score: group.acc.finish(cfg.scoring.aggregation),
            num_trees: group.acc.count as usize,
            trees: group.trees,
        });
    });
    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots,
            subtrees,
            patterns: patterns_found,
            combos_tried,
            combos_pruned: 0,
            per_shard,
            fanout: mode,
            hot,
            elapsed: t0.elapsed(),
        },
    }
    .finalize(cfg.k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_enum::linear_enum;
    use crate::Query;
    use patternkb_datagen::{figure1, worstcase};
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
    fn agrees_with_linear_enum_on_figure1() {
        let (g, t, idx) = setup();
        for query in [
            "database software company revenue",
            "revenue",
            "database company",
            "bill gates",
        ] {
            let q = Query::parse(&t, query).unwrap();
            let ctx = QueryContext::new(&g, &idx, &q).unwrap();
            let cfg = SearchConfig::top(100);
            let le = linear_enum(&ctx, &cfg);
            let pe = pattern_enum(&ctx, &cfg);
            assert_eq!(le.patterns.len(), pe.patterns.len(), "query {query}");
            for (a, b) in le.patterns.iter().zip(&pe.patterns) {
                assert_eq!(a.key(), b.key(), "query {query}");
                assert!((a.score - b.score).abs() < 1e-9);
                assert_eq!(a.num_trees, b.num_trees);
            }
        }
    }

    #[test]
    fn wastes_quadratic_combos_on_worstcase() {
        // §4.1: p² combos tried, zero patterns found.
        let p = 12;
        let g = worstcase::worstcase(p);
        let t = TextIndex::build(&g, SynonymTable::new());
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 2,
                threads: 1,
                shards: 1,
            },
        );
        let q = Query::parse(&t, &format!("{} {}", worstcase::W1, worstcase::W2)).unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let pe = pattern_enum(&ctx, &SearchConfig::top(10));
        assert_eq!(pe.patterns.len(), 0);
        assert!(
            pe.stats.combos_tried >= p * p,
            "tried {} combos, expected ≥ {}",
            pe.stats.combos_tried,
            p * p
        );
        // LINEARENUM finds the empty answer without trying any combo.
        let le = linear_enum(&ctx, &SearchConfig::top(10));
        assert_eq!(le.patterns.len(), 0);
        assert_eq!(le.stats.combos_tried, 0);
        assert_eq!(le.stats.candidate_roots, 0);
    }

    #[test]
    fn stats_subtree_counts_match() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(100);
        let pe = pattern_enum(&ctx, &cfg);
        let le = linear_enum(&ctx, &cfg);
        assert_eq!(pe.stats.subtrees, le.stats.subtrees);
        assert_eq!(pe.stats.candidate_roots, le.stats.candidate_roots);
    }
}
