//! `PATTERNENUM` — Algorithm 2: for each root type `C`, enumerate every
//! combination of per-keyword path patterns rooted at `C` (from the
//! pattern-first index), intersect the patterns' root lists to test
//! emptiness (line 5), and for nonempty combinations join the paths at
//! their shared roots into valid subtrees.
//!
//! One walk runs it, pruned or not: [`crate::bound`]'s pruned
//! `PATTERNENUM` is this walk with a bound test before each join and a
//! threshold that each found pattern's final score is offered to; without
//! them it is Algorithm 2 as the paper states it. The walk records scores
//! only, and rows are re-joined afterwards for the k winners
//! (`rank_winners`), as in every index kernel.
//!
//! The worst case is the `Θ(p^m)` joins wasted on **empty** pattern
//! combinations (§4.1's adversarial construction, reproduced in
//! `datagen::worstcase` and the `worstcase` pick of `experiments`);
//! `stats.combos_tried` reports the global combination count
//! `Σ_C Πᵢ |PatternsC(wᵢ)|`, the same for every shard count.
//!
//! ## Sharded execution
//!
//! The walk is **combination-major**: one odometer pass over the global
//! per-type combination list ([`QueryContext::merged_by_type`] — the
//! shards' pattern lists merged per keyword, so the list is the one a
//! single-shard index holds), and per combination
//!
//! 1. under pruning, one bound test against the threshold;
//! 2. for a survivor, the fused intersect-and-join on every shard in
//!    ascending root range, all into **one** dictionary group;
//! 3. under pruning, one offer of the pattern's **final** score to the
//!    threshold.
//!
//! So a pattern's roots may spread over any number of shards and its group
//! is still complete when the combination is done: there is no
//! cross-shard dictionary merge, and the threshold sees each pattern
//! exactly once. The walk runs on the caller's thread, always
//! ([`Fanout::Inline`]), so every counter (`combos_pruned`, `subtrees`,
//! `candidate_roots`, `patterns`, `keys_interned`) equals a single-shard
//! run's: same walk order, same bounds, same offers, hence the same
//! threshold at every step.
//!
//! ## The inner loop
//!
//! * a combination is `m` odometer digits into the type's merged lists; a
//!   digit resolves to a pattern id and to one pattern-first position per
//!   shard, so neither the bound nor the join hashes or binary-searches;
//! * the join is **fused**: instead of materializing
//!   the root intersection and then re-searching each root's posting run,
//!   per-keyword [`RunCursor`]s leapfrog by root and land on each common
//!   root's posting runs directly ([`patternkb_index::leapfrog`]);
//! * nonempty combinations intern their key once into the [`TreeDict`]
//!   arena; empty ones (the bulk) cost their bound test and `m` seeks per
//!   shard that holds all `m` patterns.

use crate::bound::{PatternAggregates, Threshold};
use crate::common::{
    combo_count, odometer_step, rank_winners, Fanout, QueryContext, SubtreeFold, TreeDict,
};
use crate::result::{QueryStats, SearchResult, ShardStats};
use crate::SearchConfig;
use patternkb_graph::NodeId;
use patternkb_index::{PatternTypeGroup, RunCursor};
use std::ops::ControlFlow;
use std::time::Instant;

/// A set of root nodes, one bit per node of the graph: the distinct roots
/// of a walk's surviving joins, collected without sorting them.
struct RootSet {
    bits: Vec<u64>,
}

impl RootSet {
    fn new(num_nodes: usize) -> Self {
        RootSet {
            bits: vec![0; num_nodes.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, root: u32) {
        self.bits[root as usize / 64] |= 1 << (root % 64);
    }

    /// Members `< bound`.
    fn count_below(&self, bound: u32) -> usize {
        let word = (bound as usize / 64).min(self.bits.len());
        let whole: usize = self.bits[..word]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let partial = self.bits.get(word).map_or(0, |w| {
            (w & ((1u64 << (bound % 64)) - 1)).count_ones() as usize
        });
        whole + partial
    }
}

/// The walk: what it has found so far and the buffers its joins reuse.
/// The per-shard columns are indexed like `ctx.shards`.
struct Walk<'q, 'a> {
    ctx: &'q QueryContext<'a>,
    cfg: &'q SearchConfig,
    threshold: Option<Threshold>,
    dict: TreeDict,
    /// Roots of every surviving join.
    roots: RootSet,
    subtrees: Vec<usize>,
    /// Per shard: the combinations it held subtrees of.
    patterns: Vec<usize>,
    combos_pruned: usize,
    key: Vec<u32>,
    /// Roots of the join in progress; they count once it has a subtree.
    joined: Vec<u32>,
    cursors: Vec<RunCursor<'q>>,
    fold: SubtreeFold<'q>,
}

impl Walk<'_, '_> {
    /// Join the combination `combo` of `groups` on every shard, in
    /// ascending root range, into one dictionary group, and offer the
    /// pattern's final score to the threshold, if there is one.
    fn join(&mut self, groups: &[PatternTypeGroup<'_>], combo: &[usize]) {
        let Walk {
            ctx,
            cfg,
            threshold,
            dict,
            roots,
            subtrees,
            patterns,
            key,
            joined,
            cursors,
            fold,
            ..
        } = self;
        for (i, group) in groups.iter().enumerate() {
            key[i] = group.patterns[combo[i]].0;
        }
        joined.clear();
        let mut group_id = None;
        'shards: for (at, shard) in ctx.shards.iter().enumerate() {
            cursors.clear();
            for (i, group) in groups.iter().enumerate() {
                let prim = group.prim(combo[i], shard.shard);
                if prim == PatternTypeGroup::ABSENT {
                    // Locally empty, without a seek.
                    continue 'shards;
                }
                cursors.push(shard.words[i].pattern_run_cursor(prim as usize));
            }
            let mut accepted = false;
            // Intersection + join fused: leapfrog the run cursors by
            // root; each common root hands over its posting slices.
            let end = patternkb_index::leapfrog(cursors, |r, cursors| {
                let gid = *group_id.get_or_insert_with(|| dict.intern(key));
                let group = dict.group_by_id_mut(gid);
                joined.push(r);
                let runs = cursors.iter().map(RunCursor::postings);
                subtrees[at] += fold.fold(&shard.words, cfg, NodeId(r), runs, |_, score| {
                    group.add(score);
                    accepted = true;
                    ControlFlow::Continue(())
                });
                ControlFlow::Continue(())
            });
            shard.counters.add_seeks(end.seeks);
            patterns[at] += usize::from(accepted);
        }
        if let Some(gid) = group_id {
            let acc = &dict.group(gid).acc;
            // Strict mode may have rejected every tuple: then the pattern
            // does not exist and its roots were never candidates.
            if acc.count > 0 {
                joined.iter().for_each(|&r| roots.insert(r));
                if let Some(threshold) = threshold {
                    threshold.offer(acc.finish(cfg.scoring.aggregation));
                }
            }
        }
    }
}

/// Run `PATTERNENUM`.
pub fn pattern_enum(ctx: &QueryContext<'_>, cfg: &SearchConfig) -> SearchResult {
    walk_combinations(ctx, cfg, None)
}

/// The walk over every pattern combination, on the caller's thread, and
/// its result tail. With `threshold`, a combination whose bound cannot
/// beat it is skipped, and every pattern found offers its score to it.
pub(crate) fn walk_combinations(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    threshold: Option<Threshold>,
) -> SearchResult {
    let t0 = Instant::now();
    let types = ctx.merged_by_type();
    let combos_tried = combo_count(&types);
    let m = ctx.m();
    let mut walk = Walk {
        ctx,
        cfg,
        threshold,
        dict: TreeDict::new(m),
        roots: RootSet::new(ctx.g.num_nodes()),
        subtrees: vec![0; ctx.shards.len()],
        patterns: vec![0; ctx.shards.len()],
        combos_pruned: 0,
        key: vec![0; m],
        joined: Vec::new(),
        cursors: Vec::with_capacity(m),
        fold: SubtreeFold::new(m),
    };
    let mut combo = vec![0usize; m];
    // The bound's aggregates of `combo`'s digits `..aggs.len()`; the
    // odometer truncates it to the digits it left alone.
    let mut aggs: Vec<PatternAggregates> = Vec::with_capacity(m);
    for groups in &types {
        aggs.clear();
        loop {
            let pruned = (walk.threshold.as_ref())
                .is_some_and(|t| t.prunes(ctx, cfg, groups, &combo, &mut aggs));
            if pruned {
                walk.combos_pruned += 1;
            } else {
                walk.join(groups, &combo);
            }
            match odometer_step(&mut combo, |i| groups[i].patterns.len()) {
                Some(moved) => aggs.truncate(moved),
                None => break,
            }
        }
    }

    // Shards partition the root space by range.
    let bounds = ctx.idx.bounds();
    let per_shard: Vec<ShardStats> = ctx
        .shards
        .iter()
        .enumerate()
        .map(|(at, shard)| ShardStats {
            shard: shard.shard,
            candidate_roots: walk.roots.count_below(bounds[shard.shard + 1])
                - walk.roots.count_below(bounds[shard.shard]),
            subtrees: walk.subtrees[at],
            patterns: walk.patterns[at],
        })
        .collect();
    let dict = walk.dict;
    let patterns = rank_winners(ctx, cfg, std::slice::from_ref(&dict));
    let mut hot = ctx.hot_stats();
    hot.keys_interned = dict.keys_interned() as u64;
    hot.key_arena_bytes = dict.arena_bytes() as u64;
    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots: per_shard.iter().map(|s| s.candidate_roots).sum(),
            subtrees: per_shard.iter().map(|s| s.subtrees).sum(),
            patterns: dict.len(),
            combos_tried,
            combos_pruned: walk.combos_pruned,
            per_shard,
            fanout: Fanout::Inline,
            hot,
            elapsed: t0.elapsed(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_enum::linear_enum;
    use crate::topk::SamplingConfig;
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
            let le = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
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
        let le = linear_enum(&ctx, &SearchConfig::top(10), &SamplingConfig::exact());
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
        let le = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
        assert_eq!(pe.stats.subtrees, le.stats.subtrees);
        assert_eq!(pe.stats.candidate_roots, le.stats.candidate_roots);
    }
}
