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
//! Under sharding every worker enumerates the **global** combination list
//! with bounds computed from **global** aggregates (merged across shards),
//! and all workers share one atomic top-k threshold: each completed
//! combination's per-shard partial score accumulates into a per-pattern
//! lower bound, and the k-th best of those lower bounds — monotonically
//! tightening as shards make progress — is published to an atomic every
//! worker reads lock-free. The scheme is sound because
//!
//! * each pattern contributes **one** entry (its accumulated partials), so
//!   the k-th best of the entries never exceeds the true k-th best final
//!   score, and
//! * a partial score only lower-bounds the total for monotone aggregations
//!   (`Sum`, `Count`, `Max`); under `Avg` no lower bounds are offered and
//!   pruning simply stays off.
//!
//! A combination pruned by *any* worker is therefore provably outside the
//! global top-k, so its partial groups can be dropped at merge time while
//! every top-k pattern — never prunable anywhere — merges complete and
//! exact.
//!
//! ## The flattened inner loop
//!
//! Every shard walks the **same global combination list in the same
//! order**, so a combination's position in that enumeration is a dense,
//! shard-independent id. The hot loop exploits that:
//!
//! * aggregates and per-shard root slices are precomputed into arrays
//!   **aligned with the per-type pattern lists**, so a combination's
//!   bound needs zero hash lookups;
//! * the shared top-k threshold keys its lower-bound table by the global
//!   combination index (a `u32`), not a boxed key slice;
//! * pruned combinations are recorded into a flat `u32` arena (only under
//!   multi-shard merges) instead of one boxed slice each;
//! * nonempty combinations intern their key once into the shard's
//!   [`TreeDict`] arena.

use crate::common::{
    for_each_path_tuple, materialize_tree, merge_shard_dicts, run_sharded, Fanout, QueryContext,
    ShardContext, TreeDict,
};
use crate::result::{QueryStats, RankedPattern, SearchResult, ShardStats};
use crate::score::Aggregation;
use crate::subtree::node_slices_form_tree;
use crate::SearchConfig;
use parking_lot::Mutex;
use patternkb_graph::{FxHashMap, NodeId, TypeId};
use patternkb_index::{PatternId, Posting};
use std::sync::atomic::{AtomicU64, Ordering};
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
fn combination_bound(aggs: &[&PatternAggregates], cfg: &SearchConfig) -> f64 {
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

/// The per-pattern lower bound a shard can publish after completing a
/// combination locally: a valid lower bound on the pattern's **final**
/// score only for monotone aggregations.
fn partial_lower_bound(acc: &crate::score::ScoreAcc, agg: Aggregation) -> Option<f64> {
    match agg {
        Aggregation::Sum => Some(acc.sum()),
        Aggregation::Count => Some(acc.count as f64),
        Aggregation::Max => Some(acc.max),
        // A subset's mean does not bound the full mean from below.
        Aggregation::Avg => None,
    }
}

/// Bits meaning "no threshold yet" (fewer than k patterns seen, or a
/// k-th best of exactly 0.0 — which could never prune anyway since bounds
/// are non-negative). Zero keeps the monotone `fetch_max` publish valid.
const TAU_UNSET: u64 = 0;

/// The shared, monotone top-k threshold. Workers **read** it lock-free
/// from an atomic; **writes** (one per completed combination per shard)
/// funnel through a mutex that owns the per-pattern lower-bound table and
/// republish the k-th best. Scores are non-negative, so their bit patterns
/// order like the floats themselves.
pub(crate) struct SharedThreshold {
    k: usize,
    tau: AtomicU64,
    inner: Mutex<ThresholdInner>,
}

struct ThresholdInner {
    /// Global combination index → accumulated lower bound (sum of
    /// per-shard partials for `Sum`/`Count`, max for `Max`). Every shard
    /// enumerates the same global list, so the index identifies a pattern
    /// across shards without any key hashing. One entry per pattern keeps
    /// the k-th best sound. Unused in single-worker mode.
    entries: FxHashMap<u32, f64>,
    /// Single-worker fast path: with one shard each pattern offers
    /// exactly once, so a size-k min-heap of score bits (non-negative
    /// floats order like their bit patterns) replaces the map and the
    /// periodic k-th-best selection.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    /// Whether the heap fast path is active.
    single: bool,
    agg: Aggregation,
    scratch: Vec<f64>,
    /// Offers since construction; used to amortize the k-th-best
    /// recomputation on many-pattern queries (map mode only).
    updates: u64,
}

impl SharedThreshold {
    /// `single` = one shard worker: every pattern offers exactly once,
    /// enabling the heap fast path.
    fn new(k: usize, agg: Aggregation, single: bool) -> Self {
        SharedThreshold {
            k: k.max(1),
            tau: AtomicU64::new(TAU_UNSET),
            inner: Mutex::new(ThresholdInner {
                entries: FxHashMap::default(),
                heap: std::collections::BinaryHeap::new(),
                single,
                agg,
                scratch: Vec::new(),
                updates: 0,
            }),
        }
    }

    /// The current threshold; `None` until k distinct patterns have
    /// published lower bounds.
    #[inline]
    fn kth(&self) -> Option<f64> {
        match self.tau.load(Ordering::Relaxed) {
            TAU_UNSET => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Fold one shard's partial lower bound for the pattern at global
    /// combination index `combo` in and republish the k-th best entry.
    /// Values only grow, so the published threshold is monotone
    /// non-decreasing and always ≤ the true k-th best final score. The
    /// O(#patterns) k-th-best selection is amortized once the table
    /// outgrows its small regime — a stale (lower) threshold only prunes
    /// less, never wrongly.
    fn offer(&self, combo: u32, partial: f64) {
        debug_assert!(partial >= 0.0);
        let mut inner = self.inner.lock();
        if inner.single {
            // One offer per pattern: stream it through a size-k min-heap.
            let bits = partial.to_bits();
            if inner.heap.len() < self.k {
                inner.heap.push(std::cmp::Reverse(bits));
            } else if bits > inner.heap.peek().expect("k >= 1").0 {
                inner.heap.pop();
                inner.heap.push(std::cmp::Reverse(bits));
            } else {
                return;
            }
            if inner.heap.len() == self.k {
                let kth = inner.heap.peek().expect("k >= 1").0;
                self.tau.fetch_max(kth, Ordering::Relaxed);
            }
            return;
        }
        let agg = inner.agg;
        let entry = inner.entries.entry(combo).or_insert(0.0);
        match agg {
            Aggregation::Sum | Aggregation::Count => *entry += partial,
            Aggregation::Max => *entry = entry.max(partial),
            Aggregation::Avg => unreachable!("Avg never offers lower bounds"),
        }
        inner.updates += 1;
        let len = inner.entries.len();
        let recompute = len >= self.k && (len <= 64 || len == self.k || inner.updates % 8 == 0);
        if recompute {
            let k = self.k;
            let ThresholdInner {
                entries, scratch, ..
            } = &mut *inner;
            scratch.clear();
            scratch.extend(entries.values().copied());
            let idx = scratch.len() - k;
            scratch.select_nth_unstable_by(idx, |a, b| {
                a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
            });
            let kth = scratch[idx];
            // Monotone publish (concurrent offers may race; max wins).
            self.tau.fetch_max(kth.to_bits(), Ordering::Relaxed);
        }
    }
}

/// The global combination lists of one root type, with every per-combo
/// lookup pre-resolved into arrays parallel to the pattern lists. On the
/// single-index-shard layout everything borrows straight from the word
/// indexes' cached [`patternkb_index::PatternTypeGroup`]s — per-query
/// setup is then O(root types), not O(patterns).
struct TypeLists<'a> {
    /// Per keyword: the type's pattern ids, ascending.
    lists: Vec<std::borrow::Cow<'a, [PatternId]>>,
    /// Per keyword: aggregates aligned with `lists` (global, cross-shard).
    aggs: Vec<std::borrow::Cow<'a, [PatternAggregates]>>,
    /// Single-index-shard fast path: per keyword, aligned with `lists`,
    /// the pattern's pattern-first position — cached on the word index,
    /// so the (only) worker never binary-searches patterns. `None` under
    /// multi-shard layouts (positions are shard-specific there; each
    /// worker resolves its own).
    prims: Option<Vec<&'a [u32]>>,
}

/// One shard's pruned pass over the **global** combination list.
struct ShardOutcome {
    dict: TreeDict,
    /// Flat arena of the keys this shard pruned, `m` ids per entry (they
    /// are provably outside the global top-k, so the merge drops them
    /// everywhere). Only recorded when several shards participate — with
    /// one shard a pruned combination was never computed, so there is
    /// nothing to drop and no reason to spend `O(pruned)` memory on the
    /// §4.1 adversarial case.
    pruned_keys: Vec<u32>,
    subtrees: usize,
    combos_pruned: usize,
    candidate_roots: usize,
}

fn pruned_shard(
    shard: &ShardContext<'_>,
    cfg: &SearchConfig,
    type_lists: &[TypeLists],
    threshold: &SharedThreshold,
    record_pruned: bool,
) -> ShardOutcome {
    let m = shard.m();
    let mut dict = TreeDict::new(m);
    let mut pruned_keys: Vec<u32> = Vec::new();
    let mut subtrees = 0usize;
    let mut combos_pruned = 0usize;
    let mut candidate_roots_seen: Vec<u32> = Vec::new();

    let mut combo = vec![0usize; m];
    let mut key: Vec<u32> = vec![0; m];
    let mut prim_buf: Vec<usize> = vec![0; m];
    let mut chosen_aggs: Vec<&PatternAggregates> = Vec::with_capacity(m);
    let mut cursors: Vec<patternkb_index::RunCursor<'_>> = Vec::with_capacity(m);
    let mut slices: Vec<&[Posting]> = Vec::with_capacity(m);
    let mut scratch: Vec<&Posting> = Vec::with_capacity(m);
    let mut node_scratch: Vec<&[NodeId]> = Vec::with_capacity(m);
    // Position of this combination in the global enumeration — the dense
    // pattern id shared with every other shard and the threshold table.
    let mut combo_idx: u32 = 0;

    for tl in type_lists {
        let lists = &tl.lists;
        combo.iter_mut().for_each(|x| *x = 0);
        // Pattern-first positions aligned with the type's global pattern
        // lists (one binary search per (keyword, pattern) instead of one
        // per combination/root) — or, on the single-shard layout, reused
        // straight from the driver. `None`: the pattern has no postings
        // in this shard, so every combination using it is locally empty.
        let local_prims: Vec<Vec<Option<usize>>> = match &tl.prims {
            Some(_) => Vec::new(),
            None => lists
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    l.iter()
                        .map(|&p| shard.words[i].pattern_primary(p))
                        .collect()
                })
                .collect(),
        };

        loop {
            // The pruning test: O(m), no index access, no hashing —
            // global bound vs the shared threshold.
            let pruned = match threshold.kth() {
                Some(kth) => {
                    chosen_aggs.clear();
                    for i in 0..m {
                        chosen_aggs.push(&tl.aggs[i][combo[i]]);
                    }
                    combination_bound(&chosen_aggs, cfg) * SLACK < kth
                }
                None => false,
            };
            let mut joinable = !pruned;
            if joinable {
                match &tl.prims {
                    Some(prims) => {
                        for i in 0..m {
                            prim_buf[i] = prims[i][combo[i]] as usize;
                        }
                    }
                    None => {
                        for i in 0..m {
                            match local_prims[i][combo[i]] {
                                Some(prim) => prim_buf[i] = prim,
                                None => {
                                    joinable = false;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            if pruned {
                combos_pruned += 1;
                if record_pruned {
                    for i in 0..m {
                        pruned_keys.push(lists[i][combo[i]].0);
                    }
                }
            } else if joinable {
                cursors.clear();
                for i in 0..m {
                    cursors.push(shard.words[i].pattern_run_cursor(prim_buf[i]));
                }
                for i in 0..m {
                    key[i] = lists[i][combo[i]].0;
                }
                // Intersection + join fused: leapfrog the run cursors by
                // root; each common root hands over its posting slices.
                let roots_before = candidate_roots_seen.len();
                let mut group_id = None;
                let seeks =
                    patternkb_index::intersect_runs(&mut cursors, &mut slices, |r, tuple| {
                        let root = NodeId(r);
                        let gid = *group_id.get_or_insert_with(|| dict.intern(&key));
                        let group = dict.group_by_id_mut(gid);
                        candidate_roots_seen.push(r);
                        subtrees += for_each_path_tuple(tuple, &mut scratch, |tuple| {
                            if cfg.strict_trees {
                                node_scratch.clear();
                                for (i, p) in tuple.iter().enumerate() {
                                    node_scratch.push(shard.words[i].nodes_of(p));
                                }
                                if !node_slices_form_tree(root, &node_scratch) {
                                    return;
                                }
                            }
                            let score = cfg.scoring.tree_score_of(tuple);
                            group.acc.push(score);
                            if group.trees.len() < cfg.max_rows {
                                group.trees.push(materialize_tree(
                                    &shard.words,
                                    root,
                                    tuple,
                                    score,
                                ));
                            }
                        });
                    });
                shard.counters.add_seeks(seeks);
                if let Some(gid) = group_id {
                    let group = dict.group(gid);
                    if group.is_dead() {
                        // Strict mode rejected every tuple: drop the roots
                        // we optimistically recorded.
                        candidate_roots_seen.truncate(roots_before);
                    } else if let Some(lower) =
                        partial_lower_bound(&group.acc, cfg.scoring.aggregation)
                    {
                        threshold.offer(combo_idx, lower);
                    }
                }
            }
            combo_idx += 1;

            // Odometer over pattern combos.
            let mut pos = m;
            let mut done = false;
            loop {
                if pos == 0 {
                    done = true;
                    break;
                }
                pos -= 1;
                combo[pos] += 1;
                if combo[pos] < lists[pos].len() {
                    break;
                }
                combo[pos] = 0;
            }
            if done {
                break;
            }
        }
    }

    candidate_roots_seen.sort_unstable();
    candidate_roots_seen.dedup();
    ShardOutcome {
        dict,
        pruned_keys,
        subtrees,
        combos_pruned,
        candidate_roots: candidate_roots_seen.len(),
    }
}

/// `PATTERNENUM` with admissible upper-bound pruning. Returns exactly the
/// same top-k as [`crate::pattern_enum::pattern_enum`], with
/// `stats.combos_pruned` counting the combinations skipped before any
/// intersection (the most-pruning shard worker's count, so the figure
/// stays bounded by `combos_tried` and comparable across shard layouts).
pub fn pattern_enum_pruned(ctx: &QueryContext<'_>, cfg: &SearchConfig) -> SearchResult {
    pattern_enum_pruned_in(ctx, cfg, ctx.fanout())
}

/// [`pattern_enum_pruned`] with the fan-out mode chosen by the caller.
/// Inline, the shards still share the threshold: a later shard prunes
/// against the partial scores the earlier ones published.
pub(crate) fn pattern_enum_pruned_in(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    mode: Fanout,
) -> SearchResult {
    let t0 = Instant::now();
    let m = ctx.m();

    // Global per-(keyword, pattern) aggregates, merged across shards, and
    // the global per-type combination lists they induce. Every shard
    // enumerates the same lists, so bounds and prune decisions are
    // mutually consistent.
    // Per keyword, per root type: pattern lists with aggregates (and, in
    // the single-index-shard layout, pattern positions + root ranges)
    // resolved into arrays parallel to the lists. The single-shard path
    // is hash-free: patterns are tagged with their root type, sorted, and
    // grouped contiguously, with the cached per-pattern stats read
    // straight off the word index.
    let mut combos_tried = 0usize;
    let type_lists: Vec<TypeLists<'_>> = if ctx.num_index_shards() == 1 {
        // Everything borrows from the word indexes' cached type groups:
        // walk keyword 0's groups (ascending by type) and binary-search
        // the other keywords' group lists — O(types · m · log types) per
        // query, with no per-pattern work at all.
        use std::borrow::Cow;
        let groups_per_kw: Vec<&[patternkb_index::PatternTypeGroup]> = (0..m)
            .map(|i| {
                ctx.shard_word(0, i)
                    .expect("single index shard holds every query keyword")
                    .pattern_type_groups(ctx.idx.patterns())
            })
            .collect();
        let mut out = Vec::new();
        'types: for g0 in groups_per_kw[0] {
            let c = g0.root_type;
            let mut lists: Vec<Cow<'_, [PatternId]>> = Vec::with_capacity(m);
            let mut aggs: Vec<Cow<'_, [PatternAggregates]>> = Vec::with_capacity(m);
            let mut prims: Vec<&[u32]> = Vec::with_capacity(m);
            lists.push(Cow::Borrowed(&g0.patterns[..]));
            aggs.push(Cow::Borrowed(&g0.stats[..]));
            prims.push(&g0.prims[..]);
            let mut prod = g0.patterns.len();
            for groups in &groups_per_kw[1..] {
                match groups.binary_search_by_key(&c, |g| g.root_type) {
                    Ok(at) => {
                        let g = &groups[at];
                        prod = prod.saturating_mul(g.patterns.len());
                        lists.push(Cow::Borrowed(&g.patterns[..]));
                        aggs.push(Cow::Borrowed(&g.stats[..]));
                        prims.push(&g.prims[..]);
                    }
                    Err(_) => continue 'types,
                }
            }
            combos_tried = combos_tried.saturating_add(prod);
            out.push(TypeLists {
                lists,
                aggs,
                prims: Some(prims),
            });
        }
        out
    } else {
        type Grouped = FxHashMap<TypeId, (Vec<PatternId>, Vec<PatternAggregates>)>;
        let mut grouped: Vec<Grouped> = Vec::with_capacity(m);
        for i in 0..m {
            let mut map: FxHashMap<PatternId, PatternAggregates> = FxHashMap::default();
            for s in 0..ctx.num_index_shards() {
                let Some(w) = ctx.shard_word(s, i) else {
                    continue;
                };
                for (j, p) in w.patterns().enumerate() {
                    let local: PatternAggregates = w.pattern_stats()[j];
                    map.entry(p)
                        .and_modify(|agg| agg.merge(&local))
                        .or_insert(local);
                }
            }
            let mut ids: Vec<PatternId> = map.keys().copied().collect();
            ids.sort_unstable_by_key(|p| p.0);
            let mut by_type = Grouped::default();
            for p in ids {
                let entry = by_type
                    .entry(ctx.idx.patterns().root_type(p))
                    .or_insert_with(|| (Vec::new(), Vec::new()));
                entry.0.push(p);
                entry.1.push(map[&p]);
            }
            grouped.push(by_type);
        }
        let types = crate::pattern_enum::common_types(&grouped);
        types
            .iter()
            .map(|&c| {
                let mut lists: Vec<std::borrow::Cow<'_, [PatternId]>> = Vec::with_capacity(m);
                let mut resolved: Vec<std::borrow::Cow<'_, [PatternAggregates]>> =
                    Vec::with_capacity(m);
                for map in grouped.iter_mut() {
                    let (l, a) = map.remove(&c).expect("common type present everywhere");
                    lists.push(std::borrow::Cow::Owned(l));
                    resolved.push(std::borrow::Cow::Owned(a));
                }
                let mut prod = 1usize;
                for l in &lists {
                    prod = prod.saturating_mul(l.len());
                }
                combos_tried = combos_tried.saturating_add(prod);
                TypeLists {
                    lists,
                    aggs: resolved,
                    prims: None,
                }
            })
            .collect()
    };

    let threshold = SharedThreshold::new(cfg.k, cfg.scoring.aggregation, ctx.shards.len() <= 1);
    let record_pruned = ctx.shards.len() > 1;
    // Materialization is deferred: the enumeration pass only accumulates
    // exact scores (`max_rows: 0`), and rows are re-joined afterwards for
    // the k patterns that actually survive — most discovered patterns
    // never surface, so building their rows (one allocation per path per
    // subtree) was the single largest avoidable cost of this algorithm.
    let lean_cfg = SearchConfig {
        max_rows: 0,
        ..cfg.clone()
    };
    let locals = run_sharded(mode, &ctx.shards, |shard| {
        (
            pruned_shard(shard, &lean_cfg, &type_lists, &threshold, record_pruned),
            shard.shard,
        )
    });

    let mut per_shard = Vec::with_capacity(locals.len());
    let mut dicts = Vec::with_capacity(locals.len());
    let mut all_pruned: Vec<u32> = Vec::new();
    let mut subtrees = 0usize;
    let mut combos_pruned = 0usize;
    let mut candidate_roots = 0usize;
    for (outcome, shard) in locals {
        per_shard.push(ShardStats {
            shard,
            candidate_roots: outcome.candidate_roots,
            subtrees: outcome.subtrees,
            patterns: outcome.dict.len(),
        });
        subtrees += outcome.subtrees;
        // Every worker walks the same global list, so report the
        // most-pruning worker: bounded by `combos_tried` and exactly the
        // skipped count when there is one shard.
        combos_pruned = combos_pruned.max(outcome.combos_pruned);
        candidate_roots += outcome.candidate_roots;
        all_pruned.extend(outcome.pruned_keys);
        dicts.push(outcome.dict);
    }
    let mut dict = merge_shard_dicts(dicts, m, cfg.max_rows);
    // A combination pruned in any shard is provably outside the top-k;
    // its partial groups from other shards must not surface with a
    // partial (understated) score.
    for key in all_pruned.chunks_exact(m) {
        dict.kill(key);
    }

    let patterns_found = dict.len();
    let keys_interned = dict.keys_interned() as u64;
    let key_arena_bytes = dict.arena_bytes() as u64;
    // Two-stage selection so losers never get decoded: (1) rank all live
    // patterns by exact score alone and keep everything at or above the
    // k-th best (boundary ties included); (2) decode only those, apply
    // the full `(score desc, encoded key asc)` order, truncate to k, and
    // materialize rows for the survivors.
    let mut entries: Vec<(f64, crate::intern::PatternKeyId)> = dict
        .iter()
        .map(|(id, _, group)| (group.acc.finish(cfg.scoring.aggregation), id))
        .collect();
    if entries.len() > cfg.k {
        entries.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let kth = entries[cfg.k - 1].0;
        entries.retain(|&(score, _)| score >= kth);
    }
    // (pattern, id-key, cached sort key): `RankedPattern::key()` allocates
    // per call, so cache it once per candidate instead of per comparison.
    let mut ranked: Vec<(RankedPattern, Vec<u32>, Vec<u32>)> = entries
        .into_iter()
        .map(|(score, id)| {
            let key = dict.key(id);
            let group = dict.group(id);
            let p = RankedPattern {
                pattern: ctx.decode_key(key),
                score,
                num_trees: group.acc.count as usize,
                trees: Vec::new(),
            };
            let sort_key = p.key();
            (p, key.to_vec(), sort_key)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.0.score
            .partial_cmp(&a.0.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.2.cmp(&b.2))
    });
    ranked.truncate(cfg.k);
    let patterns: Vec<RankedPattern> = ranked
        .into_iter()
        .map(|(mut p, key, _)| {
            p.trees = materialize_pattern_rows(ctx, cfg, &key);
            p
        })
        .collect();

    let mut hot = ctx.hot_stats();
    hot.keys_interned = keys_interned;
    hot.key_arena_bytes = key_arena_bytes;
    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots,
            subtrees,
            patterns: patterns_found,
            combos_tried,
            combos_pruned,
            per_shard,
            fanout: mode,
            hot,
            elapsed: t0.elapsed(),
        },
    }
    .finalize(cfg.k)
}

/// Re-join one winning pattern's rows: walk the shards in ascending
/// root-range order, leapfrog its per-keyword posting runs, and
/// materialize the first `cfg.max_rows` accepted subtrees — exactly the
/// rows an inline materialization would have kept.
fn materialize_pattern_rows(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    key: &[u32],
) -> Vec<crate::subtree::ValidSubtree> {
    let m = ctx.m();
    let mut trees = Vec::new();
    let mut cursors: Vec<patternkb_index::RunCursor<'_>> = Vec::with_capacity(m);
    let mut slices: Vec<&[Posting]> = Vec::with_capacity(m);
    let mut scratch: Vec<&Posting> = Vec::with_capacity(m);
    let mut node_scratch: Vec<&[NodeId]> = Vec::with_capacity(m);
    'shards: for shard in &ctx.shards {
        if trees.len() >= cfg.max_rows {
            break;
        }
        cursors.clear();
        for i in 0..m {
            match shard.words[i].pattern_primary(PatternId(key[i])) {
                Some(prim) => cursors.push(shard.words[i].pattern_run_cursor(prim)),
                None => continue 'shards,
            }
        }
        let seeks = patternkb_index::intersect_runs(&mut cursors, &mut slices, |r, tuple| {
            if trees.len() >= cfg.max_rows {
                return;
            }
            let root = NodeId(r);
            for_each_path_tuple(tuple, &mut scratch, |tuple| {
                if trees.len() >= cfg.max_rows {
                    return;
                }
                if cfg.strict_trees {
                    node_scratch.clear();
                    for (i, p) in tuple.iter().enumerate() {
                        node_scratch.push(shard.words[i].nodes_of(p));
                    }
                    if !node_slices_form_tree(root, &node_scratch) {
                        return;
                    }
                }
                let score = cfg.scoring.tree_score_of(tuple);
                trees.push(materialize_tree(&shard.words, root, tuple, score));
            });
        });
        shard.counters.add_seeks(seeks);
    }
    trees
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
    fn shared_threshold_is_sound_per_pattern() {
        // The same pattern offered from several "shards" counts once: the
        // threshold is the k-th best per-pattern total, not the k-th best
        // raw offer.
        let t = SharedThreshold::new(2, Aggregation::Sum, false);
        assert_eq!(t.kth(), None);
        t.offer(1, 10.0);
        assert_eq!(t.kth(), None, "one pattern < k");
        t.offer(1, 9.0); // same pattern (same global combo index), second shard
        assert_eq!(t.kth(), None, "still one distinct pattern");
        t.offer(2, 5.0);
        assert_eq!(t.kth(), Some(5.0), "2nd best of {{19, 5}}");
        t.offer(3, 7.0);
        assert_eq!(t.kth(), Some(7.0), "2nd best of {{19, 5, 7}}");
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
        let t = SharedThreshold::new(2, Aggregation::Sum, true);
        assert_eq!(t.kth(), None);
        t.offer(0, 10.0);
        assert_eq!(t.kth(), None, "one offer < k");
        t.offer(1, 5.0);
        assert_eq!(t.kth(), Some(5.0));
        t.offer(2, 7.0);
        assert_eq!(t.kth(), Some(7.0), "2nd best of {{10, 5, 7}}");
        t.offer(3, 1.0);
        assert_eq!(t.kth(), Some(7.0), "low offers do not lower tau");
    }

    mod proptests {
        use super::*;
        use patternkb_datagen::wiki::{wiki, WikiConfig};
        use patternkb_datagen::QueryGenerator;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Random Zipf graphs × random queries × every aggregation:
            /// the pruned enumerator returns a top-k **bit-identical** to
            /// the unpruned `PATTERNENUM` reference's.
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
                    &BuildConfig { d: 2, threads: 1, shards: 1 },
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
                let pruned = pattern_enum_pruned(&ctx, &cfg);
                prop_assert_eq!(pruned.patterns.len(), exact.patterns.len());
                for (x, y) in pruned.patterns.iter().zip(&exact.patterns) {
                    prop_assert_eq!(x.key(), y.key());
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                    prop_assert_eq!(x.num_trees, y.num_trees);
                }
            }
        }
    }
}
