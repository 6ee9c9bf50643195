//! Admissible score upper bounds for pruning `PATTERNENUM`.
//!
//! Algorithm 2's weakness is the `Θ(p^m)` pattern combinations it
//! intersects (§4.1); most are empty or low-scoring. This module extends it
//! with a classic top-k device the paper leaves on the table: before
//! intersecting a combination `P = (P₁ … P_m)`, compute a cheap **upper
//! bound** on `score(P, q)` from per-`(keyword, path-pattern)` aggregates,
//! and skip the combination outright when the bound cannot beat the current
//! k-th best score.
//!
//! The bound is *admissible* for the whole scoring class of §2.2.3:
//!
//! * every subtree score is `len_sum^z1 · pr_sum^z2 · sim_sum^z3` with each
//!   factor sum decomposing over keywords, so replacing each per-keyword
//!   term with its per-`(word, pattern)` extreme (min for negative
//!   exponents, max for positive ones) bounds any single subtree's score;
//! * `|trees(P)| = Σ_r Π_i |Paths(wᵢ, Pᵢ, r)|` is bounded by
//!   `min_i(nᵢ · Π_{j≠i} max_per_root_j)` where `nᵢ` is pattern `Pᵢ`'s total
//!   path count and `max_per_root_j` the largest per-root group;
//! * `Sum ≤ count·max`, `Avg ≤ max`, `Max ≤ max`, `Count ≤ count`.
//!
//! A `1 + 1e-9` slack factor absorbs floating-point non-associativity, so
//! pruning never changes the reported top-k (asserted by agreement tests
//! and the workload test below). The win is largest exactly where
//! `PATTERNENUM` hurts: many-pattern queries where most combinations are
//! empty yet each costs an intersection.
//!
//! ## Sharded pruning
//!
//! The walk is **combination-major**: one odometer pass over the global
//! per-type combination list ([`QueryContext::merged_by_type`] — the
//! shards' pattern lists merged per keyword, so the list is the one a
//! single-shard index holds), and per combination
//!
//! 1. one bound test against the threshold, on aggregates merged from the
//!    shards' cached per-pattern stats (sums, minima and maxima are exact,
//!    so bounds and prune decisions are bit-identical to a single-shard
//!    index's);
//! 2. for a survivor, the fused intersect-and-join on every shard in
//!    ascending root range, all into **one** dictionary group;
//! 3. one offer of the pattern's **final** score to the threshold.
//!
//! So a pattern's roots may spread over any number of shards and the
//! threshold still sees it exactly once, complete: the threshold is a
//! size-k min-heap of final scores and nothing else, every aggregation
//! (`Avg` included — a final mean is as sound an offer as a final sum)
//! prunes, no shard ever holds a partial group that a prune elsewhere
//! would have to retract, and there is no cross-shard dictionary merge.
//! Inline, the counters (`combos_pruned`, `subtrees`, `candidate_roots`,
//! `patterns`) equal a single-shard run's: same walk order, same bounds,
//! same offers, hence the same threshold at every step.
//!
//! Under [`Fanout::Threads`] what is split is the combination index, not
//! the shards: worker `w` of `W` takes the combinations whose position in
//! the global enumeration is `≡ w (mod W)` and joins each across all
//! shards into a private dictionary. The workers' keys are disjoint, so
//! their dictionaries are concatenated, never merged, and each pattern
//! still offers once — to a threshold the workers share, which is why the
//! counters of a threaded run are its own while its answers are not.
//!
//! ## The inner loop
//!
//! * a combination is `m` odometer digits into the type's merged lists; a
//!   digit resolves to a pattern id and to one pattern-first position per
//!   shard, so neither the bound nor the join hashes or binary-searches;
//! * the per-keyword aggregates of a combination are re-merged from the
//!   shards' stats only for the digits the odometer moved since the last
//!   bound test (the last one, all but `1/|list|` of the time), and not at
//!   all until k patterns have been found;
//! * nonempty combinations intern their key once into the [`TreeDict`]
//!   arena; empty ones (the bulk) cost their bound test and `m` seeks per
//!   shard that holds all `m` patterns.

use crate::common::{
    combo_count, cores, for_each_path_tuple, rank_winners, run_sharded, Fanout, QueryContext,
    TreeDict,
};
use crate::result::{QueryStats, SearchResult, ShardStats};
use crate::score::Aggregation;
use crate::subtree::node_slices_form_tree;
use crate::{unpoisoned, SearchConfig};
use patternkb_graph::NodeId;
use patternkb_index::{PatternTypeGroup, Posting, RunCursor};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Multiplicative slack absorbing float rounding between the bound
/// arithmetic and the exact score arithmetic.
const SLACK: f64 = 1.0 + 1e-9;

/// Per-`(keyword, path-pattern)` aggregates backing the bound — the
/// stats the index caches per pattern at construction
/// ([`patternkb_index::PatternPostingStats`]); the per-query posting
/// rescan this type used to do was the largest fixed cost of a pruned
/// query.
pub type PatternAggregates = patternkb_index::PatternPostingStats;

/// `x^z` picking the interval endpoint that maximizes the factor.
#[inline]
fn factor_bound(min: f64, max: f64, z: f64) -> f64 {
    let x = if z >= 0.0 { max } else { min };
    crate::score::powz(x, z)
}

/// Upper-bound `score(P, q)` for the combination described by `aggs`
/// (one entry per keyword) under `cfg.scoring`.
fn combination_bound(aggs: &[PatternAggregates], cfg: &SearchConfig) -> f64 {
    // Factor sums over keywords, at their extremes.
    let (mut len_min, mut len_max) = (0.0f64, 0.0f64);
    let (mut pr_min, mut pr_max) = (0.0f64, 0.0f64);
    let (mut sim_min, mut sim_max) = (0.0f64, 0.0f64);
    for a in aggs {
        len_min += a.min_len;
        len_max += a.max_len;
        pr_min += a.min_pr;
        pr_max += a.max_pr;
        sim_min += a.min_sim;
        sim_max += a.max_sim;
    }
    let s = cfg.scoring;
    let tree_bound = factor_bound(len_min, len_max, s.z1)
        * factor_bound(pr_min, pr_max, s.z2)
        * factor_bound(sim_min, sim_max, s.z3);

    // |trees(P)| ≤ min over i of nᵢ · Π_{j≠i} max_per_root_j.
    let mut count_bound = f64::INFINITY;
    for i in 0..aggs.len() {
        let mut b = aggs[i].num_paths as f64;
        for (j, a) in aggs.iter().enumerate() {
            if j != i {
                b *= a.max_per_root as f64;
            }
        }
        count_bound = count_bound.min(b);
    }

    match s.aggregation {
        Aggregation::Sum => count_bound * tree_bound,
        Aggregation::Avg | Aggregation::Max => tree_bound,
        Aggregation::Count => count_bound,
    }
}

/// The global aggregates of `group.patterns[x]` for keyword `i`: its
/// per-shard stats merged over every index shard holding the pattern.
fn merged_aggregates(
    ctx: &QueryContext<'_>,
    i: usize,
    group: PatternTypeGroup<'_>,
    x: usize,
) -> PatternAggregates {
    let mut merged: Option<PatternAggregates> = None;
    for s in 0..ctx.num_index_shards() {
        let prim = group.prim(x, s);
        if prim == PatternTypeGroup::ABSENT {
            continue;
        }
        let word = ctx.shard_word(s, i).expect("a position implies the word");
        let local = &word.pattern_stats()[prim as usize];
        match &mut merged {
            Some(agg) => agg.merge(local),
            None => merged = Some(*local),
        }
    }
    merged.expect("a merged pattern has postings in some shard")
}

/// Bits meaning "no threshold yet" (fewer than k patterns seen, or a
/// k-th best of exactly 0.0 — which could never prune anyway since bounds
/// are non-negative). Zero keeps the monotone `fetch_max` publish valid.
const TAU_UNSET: u64 = 0;

/// The shared, monotone top-k threshold: a size-k min-heap of the final
/// scores offered so far — one offer per pattern, so its root is the k-th
/// best score found and never exceeds the true k-th best. Workers **read**
/// the root lock-free from an atomic; an offer that can enter the heap
/// goes through the mutex and republishes it. Scores are non-negative, so
/// their bit patterns order like the floats themselves.
pub(crate) struct SharedThreshold {
    k: usize,
    tau: AtomicU64,
    heap: Mutex<BinaryHeap<Reverse<u64>>>,
}

impl SharedThreshold {
    fn new(k: usize) -> Self {
        SharedThreshold {
            k: k.max(1),
            tau: AtomicU64::new(TAU_UNSET),
            heap: Mutex::new(BinaryHeap::new()),
        }
    }

    /// The current threshold; `None` until k patterns have offered.
    #[inline]
    fn kth(&self) -> Option<f64> {
        match self.tau.load(Ordering::Relaxed) {
            TAU_UNSET => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Offer one pattern's final score. The published threshold only
    /// grows; a reader holding a stale (lower) one prunes less, never
    /// wrongly.
    fn offer(&self, score: f64) {
        debug_assert!(score >= 0.0);
        let bits = score.to_bits();
        let tau = self.tau.load(Ordering::Relaxed);
        if tau != TAU_UNSET && bits <= tau {
            // The heap is full and this score would not enter it.
            return;
        }
        let mut heap = unpoisoned(self.heap.lock());
        if heap.len() < self.k {
            heap.push(Reverse(bits));
        } else if bits > heap.peek().expect("k >= 1").0 {
            heap.pop();
            heap.push(Reverse(bits));
        } else {
            return;
        }
        if heap.len() == self.k {
            let kth = heap.peek().expect("k >= 1").0;
            // Monotone publish (concurrent offers may race; max wins).
            self.tau.fetch_max(kth, Ordering::Relaxed);
        }
    }
}

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

    fn union(&mut self, other: &RootSet) {
        for (mine, theirs) in self.bits.iter_mut().zip(&other.bits) {
            *mine |= theirs;
        }
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

/// What one worker's share of the walk produced. The per-shard columns
/// are indexed like `ctx.shards`.
struct WorkerOutcome {
    dict: TreeDict,
    /// Roots of every surviving join.
    roots: RootSet,
    subtrees: Vec<usize>,
    /// Per shard: the combinations it held subtrees of.
    patterns: Vec<usize>,
    combos_pruned: usize,
}

/// One worker's walk: what it has found so far and the buffers its joins
/// reuse.
struct Walk<'q, 'a> {
    ctx: &'q QueryContext<'a>,
    cfg: &'q SearchConfig,
    threshold: &'q SharedThreshold,
    found: WorkerOutcome,
    key: Vec<u32>,
    /// Roots of the join in progress; they count once it has a subtree.
    joined: Vec<u32>,
    cursors: Vec<RunCursor<'a>>,
    slices: Vec<&'a [Posting]>,
    tuple: Vec<&'a Posting>,
    nodes: Vec<&'a [NodeId]>,
}

impl Walk<'_, '_> {
    /// Join the combination `combo` of `groups` on every shard, in
    /// ascending root range, into one dictionary group, and offer the
    /// pattern's final score to the threshold.
    fn join(&mut self, groups: &[PatternTypeGroup<'_>], combo: &[usize]) {
        let Walk {
            ctx,
            cfg,
            threshold,
            found,
            key,
            joined,
            cursors,
            slices,
            tuple,
            nodes,
        } = self;
        let WorkerOutcome {
            dict,
            roots,
            subtrees,
            patterns,
            ..
        } = found;
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
            let seeks = patternkb_index::intersect_runs(cursors, slices, |r, runs| {
                let root = NodeId(r);
                let gid = *group_id.get_or_insert_with(|| dict.intern(key));
                let acc = &mut dict.group_by_id_mut(gid).acc;
                joined.push(r);
                subtrees[at] += for_each_path_tuple(runs, tuple, |tuple| {
                    if cfg.strict_trees {
                        nodes.clear();
                        for (i, p) in tuple.iter().enumerate() {
                            nodes.push(shard.words[i].nodes_of(p));
                        }
                        if !node_slices_form_tree(root, nodes) {
                            return;
                        }
                    }
                    acc.push(cfg.scoring.tree_score_of(tuple));
                    accepted = true;
                });
            });
            shard.counters.add_seeks(seeks);
            patterns[at] += usize::from(accepted);
        }
        if let Some(gid) = group_id {
            let acc = &dict.group(gid).acc;
            // Strict mode may have rejected every tuple: then the pattern
            // does not exist and its roots were never candidates.
            if acc.count > 0 {
                joined.iter().for_each(|&r| roots.insert(r));
                threshold.offer(acc.finish(cfg.scoring.aggregation));
            }
        }
    }
}

/// Walk the global combination list `types` once, handling every
/// `workers`-th combination starting at the `worker`-th.
fn pruned_walk(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    types: &[Vec<PatternTypeGroup<'_>>],
    threshold: &SharedThreshold,
    worker: usize,
    workers: usize,
) -> WorkerOutcome {
    let m = ctx.m();
    let mut walk = Walk {
        ctx,
        cfg,
        threshold,
        found: WorkerOutcome {
            dict: TreeDict::new(m),
            roots: RootSet::new(ctx.g.num_nodes()),
            subtrees: vec![0; ctx.shards.len()],
            patterns: vec![0; ctx.shards.len()],
            combos_pruned: 0,
        },
        key: vec![0; m],
        joined: Vec::new(),
        cursors: Vec::with_capacity(m),
        slices: Vec::with_capacity(m),
        tuple: Vec::with_capacity(m),
        nodes: Vec::with_capacity(m),
    };
    let mut combo = vec![0usize; m];
    // Aggregates of `combo`'s digits `..aggs.len()`; the odometer truncates
    // it to the digits it left alone.
    let mut aggs: Vec<PatternAggregates> = Vec::with_capacity(m);
    // Combinations until this worker's next one.
    let mut wait = worker;

    for groups in types {
        combo.iter_mut().for_each(|x| *x = 0);
        aggs.clear();
        'combos: loop {
            if wait > 0 {
                wait -= 1;
            } else {
                wait = workers - 1;
                // The pruning test: O(m), no index access beyond the
                // moved digits' stats, no hashing.
                let pruned = threshold.kth().is_some_and(|kth| {
                    for i in aggs.len()..m {
                        aggs.push(merged_aggregates(ctx, i, groups[i], combo[i]));
                    }
                    combination_bound(&aggs, cfg) * SLACK < kth
                });
                if pruned {
                    walk.found.combos_pruned += 1;
                } else {
                    walk.join(groups, &combo);
                }
            }

            // Odometer over pattern combos.
            let mut pos = m;
            loop {
                if pos == 0 {
                    break 'combos;
                }
                pos -= 1;
                combo[pos] += 1;
                if combo[pos] < groups[pos].patterns.len() {
                    break;
                }
                combo[pos] = 0;
            }
            aggs.truncate(pos);
        }
    }
    walk.found
}

/// `PATTERNENUM` with admissible upper-bound pruning. Returns exactly the
/// same top-k as [`crate::pattern_enum::pattern_enum`], with
/// `stats.combos_pruned` counting the combinations skipped before any
/// intersection.
pub fn pattern_enum_pruned(ctx: &QueryContext<'_>, cfg: &SearchConfig) -> SearchResult {
    pattern_enum_pruned_in(ctx, cfg, ctx.fanout())
}

/// [`pattern_enum_pruned`] with the fan-out mode chosen by the caller.
pub(crate) fn pattern_enum_pruned_in(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    mode: Fanout,
) -> SearchResult {
    let t0 = Instant::now();
    let types = ctx.merged_by_type();
    let combos_tried = combo_count(&types);

    let threshold = SharedThreshold::new(cfg.k);
    // The walk only accumulates exact scores; rows are re-joined afterwards
    // for the k patterns that survive ([`rank_winners`]).
    let lean_cfg = SearchConfig {
        max_rows: 0,
        ..cfg.clone()
    };
    let workers: Vec<usize> = match mode {
        Fanout::Inline => vec![0],
        Fanout::Threads => (0..cores().max(2)).collect(),
    };
    let outcomes = run_sharded(mode, &workers, |&w| {
        pruned_walk(ctx, &lean_cfg, &types, &threshold, w, workers.len())
    });

    let mut per_shard: Vec<ShardStats> = ctx
        .shards
        .iter()
        .map(|shard| ShardStats {
            shard: shard.shard,
            ..ShardStats::default()
        })
        .collect();
    let mut dicts = Vec::with_capacity(outcomes.len());
    let mut roots: Option<RootSet> = None;
    let mut combos_pruned = 0usize;
    for outcome in outcomes {
        for (at, stats) in per_shard.iter_mut().enumerate() {
            stats.subtrees += outcome.subtrees[at];
            stats.patterns += outcome.patterns[at];
        }
        // Each combination is tested by exactly one worker.
        combos_pruned += outcome.combos_pruned;
        match &mut roots {
            Some(roots) => roots.union(&outcome.roots),
            None => roots = Some(outcome.roots),
        }
        dicts.push(outcome.dict);
    }
    let roots = roots.expect("at least one worker");
    // Shards partition the root space by range.
    let bounds = ctx.idx.bounds();
    for stats in &mut per_shard {
        stats.candidate_roots =
            roots.count_below(bounds[stats.shard + 1]) - roots.count_below(bounds[stats.shard]);
    }

    let patterns = rank_winners(ctx, cfg, &dicts);
    let mut hot = ctx.hot_stats();
    hot.keys_interned = dicts.iter().map(|d| d.keys_interned() as u64).sum();
    hot.key_arena_bytes = dicts.iter().map(|d| d.arena_bytes() as u64).sum();
    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots: per_shard.iter().map(|s| s.candidate_roots).sum(),
            subtrees: per_shard.iter().map(|s| s.subtrees).sum(),
            patterns: dicts.iter().map(TreeDict::len).sum(),
            combos_tried,
            combos_pruned,
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
    use crate::pattern_enum::pattern_enum;
    use crate::score::ScoringConfig;
    use crate::Query;
    use patternkb_datagen::figure1;
    use patternkb_index::{build_indexes, BuildConfig, PathIndexes};
    use patternkb_text::{SynonymTable, TextIndex};

    fn setup() -> (patternkb_graph::KnowledgeGraph, TextIndex, PathIndexes) {
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

    fn assert_same(a: &SearchResult, b: &SearchResult, label: &str) {
        assert_eq!(a.patterns.len(), b.patterns.len(), "{label}: k size");
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.key(), y.key(), "{label}: pattern identity");
            assert!((x.score - y.score).abs() < 1e-9, "{label}: score");
            assert_eq!(x.num_trees, y.num_trees, "{label}: tree count");
        }
    }

    #[test]
    fn pruned_matches_exact_on_figure1() {
        let (g, t, idx) = setup();
        for query in [
            "database software company revenue",
            "database company",
            "revenue",
            "bill gates",
        ] {
            let q = Query::parse(&t, query).unwrap();
            let ctx = QueryContext::new(&g, &idx, &q).unwrap();
            for k in [1, 2, 5, 100] {
                let cfg = SearchConfig::top(k);
                let exact = pattern_enum(&ctx, &cfg);
                let pruned = pattern_enum_pruned(&ctx, &cfg);
                assert_same(&exact, &pruned, &format!("{query} k={k}"));
            }
        }
    }

    #[test]
    fn pruned_matches_exact_when_sharded() {
        let (g, t, _) = setup();
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
            for query in ["database software company revenue", "database company"] {
                let q = Query::parse(&t, query).unwrap();
                let ctx = QueryContext::new(&g, &idx, &q).unwrap();
                for k in [1, 3, 100] {
                    let cfg = SearchConfig::top(k);
                    let exact = pattern_enum(&ctx, &cfg);
                    let pruned = pattern_enum_pruned(&ctx, &cfg);
                    assert_same(&exact, &pruned, &format!("{query} k={k} shards={shards}"));
                }
            }
        }
    }

    #[test]
    fn pruning_fires_for_small_k() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        // k = 1 on a query with 9 patterns: some combination must be
        // prunable once the best pattern is found.
        let r = pattern_enum_pruned(&ctx, &SearchConfig::top(1));
        assert!(
            r.stats.combos_pruned > 0,
            "expected pruned combos, stats = {:?}",
            r.stats
        );
        assert_eq!(r.patterns.len(), 1);
        assert!((r.patterns[0].score - 3.5).abs() < 1e-9);
    }

    #[test]
    fn agrees_under_all_aggregations() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        for agg in [
            Aggregation::Sum,
            Aggregation::Avg,
            Aggregation::Max,
            Aggregation::Count,
        ] {
            let cfg = SearchConfig {
                scoring: ScoringConfig {
                    aggregation: agg,
                    ..ScoringConfig::default()
                },
                ..SearchConfig::top(3)
            };
            let exact = pattern_enum(&ctx, &cfg);
            let pruned = pattern_enum_pruned(&ctx, &cfg);
            assert_same(&exact, &pruned, &format!("{agg:?}"));
        }
    }

    #[test]
    fn agrees_with_positive_size_exponent() {
        // z1 = +1 flips which length extreme the bound must take.
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database company").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig {
            scoring: ScoringConfig {
                z1: 1.0,
                ..ScoringConfig::default()
            },
            ..SearchConfig::top(2)
        };
        assert_same(
            &pattern_enum(&ctx, &cfg),
            &pattern_enum_pruned(&ctx, &cfg),
            "z1=+1",
        );
    }

    #[test]
    fn aggregates_are_correct() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let w = ctx.shards[0].words[0];
        for p in w.patterns() {
            let prim = w.pattern_primary(p).expect("pattern present");
            let agg: PatternAggregates = w.pattern_stats()[prim];
            let paths = w.paths_of_pattern(p);
            assert_eq!(agg.num_paths as usize, paths.len());
            let min_len = paths.iter().map(|x| x.score_len()).min().unwrap() as f64;
            let max_sim = paths.iter().map(|x| x.sim).fold(0.0f64, f64::max);
            assert_eq!(agg.min_len, min_len);
            assert_eq!(agg.max_sim, max_sim);
            assert!(agg.max_per_root as usize <= paths.len());
        }
    }

    #[test]
    fn hot_path_counters_are_populated() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = pattern_enum_pruned(&ctx, &SearchConfig::top(3));
        assert!(
            r.stats.hot.intersect_seeks > 0,
            "gallop intersections must report their seeks: {:?}",
            r.stats.hot
        );
        assert!(
            r.stats.hot.keys_interned as usize >= r.stats.patterns,
            "every discovered pattern was interned: {:?}",
            r.stats.hot
        );
        assert!(r.stats.hot.key_arena_bytes > 0);
    }

    #[test]
    fn single_worker_heap_threshold_tracks_kth_best() {
        let t = SharedThreshold::new(2);
        assert_eq!(t.kth(), None);
        t.offer(10.0);
        assert_eq!(t.kth(), None, "one offer < k");
        t.offer(5.0);
        assert_eq!(t.kth(), Some(5.0));
        t.offer(7.0);
        assert_eq!(t.kth(), Some(7.0), "2nd best of {{10, 5, 7}}");
        t.offer(1.0);
        assert_eq!(t.kth(), Some(7.0), "low offers do not lower tau");
    }

    /// A final `Avg` is a sound offer, so `Avg` prunes like every other
    /// aggregation (with per-shard partial scores it never could).
    #[test]
    fn avg_prunes_on_a_many_pattern_query() {
        use patternkb_datagen::wiki::{wiki, WikiConfig};
        use patternkb_datagen::QueryGenerator;
        let g = wiki(&WikiConfig {
            entities: 1_500,
            ..WikiConfig::tiny(7)
        });
        let t = TextIndex::build(&g, SynonymTable::new());
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 2,
            },
        );
        let cfg = SearchConfig {
            scoring: ScoringConfig {
                aggregation: Aggregation::Avg,
                ..ScoringConfig::default()
            },
            ..SearchConfig::top(1)
        };
        let mut pruned_combos = 0;
        for spec in QueryGenerator::new(&g, &t, 3, 11).batch(4, 2) {
            let q = Query::from_ids(spec.keywords);
            let ctx = QueryContext::new(&g, &idx, &q).unwrap();
            let pruned = pattern_enum_pruned(&ctx, &cfg);
            assert_same(&pattern_enum(&ctx, &cfg), &pruned, "Avg");
            assert!(pruned.stats.combos_pruned <= pruned.stats.combos_tried);
            pruned_combos += pruned.stats.combos_pruned;
        }
        assert!(pruned_combos > 0, "Avg never pruned");
    }

    mod proptests {
        use super::*;
        use patternkb_datagen::wiki::{wiki, WikiConfig};
        use patternkb_datagen::QueryGenerator;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random Zipf graphs × random queries × every aggregation ×
            /// shard layout × fan-out mode: the pruned enumerator returns
            /// a top-k **bit-identical** to the unpruned `PATTERNENUM`
            /// reference's.
            #[test]
            fn pruning_preserves_topk_bits(
                seed in 0u64..1000,
                query_seed in 0u64..1000,
                m in 1usize..4,
                k in prop_oneof![Just(1usize), Just(5), Just(50)],
                agg in prop_oneof![
                    Just(Aggregation::Sum),
                    Just(Aggregation::Avg),
                    Just(Aggregation::Max),
                    Just(Aggregation::Count),
                ],
                (shards, mode) in (
                    1usize..4,
                    prop_oneof![Just(Fanout::Inline), Just(Fanout::Threads)],
                ),
            ) {
                let g = wiki(&WikiConfig {
                    entities: 120,
                    types: 6,
                    attrs_per_type: 3,
                    attr_pool: 6,
                    vocab: 40,
                    avg_degree: 3.0,
                    value_pool: 15,
                    seed,
                    ..WikiConfig::default()
                });
                let t = TextIndex::build(&g, SynonymTable::new());
                let mut qg = QueryGenerator::new(&g, &t, 2, query_seed);
                let Some(spec) = qg.anchored(m) else { return Ok(()) };
                let q = Query::from_ids(spec.keywords);
                let idx = build_indexes(
                    &g,
                    &t,
                    &BuildConfig { d: 2, threads: 1, shards },
                );
                let Some(ctx) = QueryContext::new(&g, &idx, &q) else {
                    return Ok(());
                };
                let cfg = SearchConfig {
                    scoring: ScoringConfig {
                        aggregation: agg,
                        ..ScoringConfig::default()
                    },
                    ..SearchConfig::top(k)
                };
                let exact = pattern_enum(&ctx, &cfg);
                let pruned = pattern_enum_pruned_in(&ctx, &cfg, mode);
                prop_assert!(pruned.stats.combos_pruned <= pruned.stats.combos_tried);
                prop_assert_eq!(pruned.stats.combos_tried, exact.stats.combos_tried);
                prop_assert_eq!(pruned.patterns.len(), exact.patterns.len());
                for (x, y) in pruned.patterns.iter().zip(&exact.patterns) {
                    prop_assert_eq!(x.key(), y.key());
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                    prop_assert_eq!(x.num_trees, y.num_trees);
                    prop_assert_eq!(&x.trees, &y.trees);
                }
            }
        }
    }
}
