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
//! ## On the one walk
//!
//! Pruned `PATTERNENUM` is the walk of [`crate::pattern_enum`] with two
//! additions, and nothing else of its own:
//!
//! 1. before a combination is joined, one bound test against the
//!    threshold (`Threshold::prunes`), on aggregates merged from
//!    the shards' cached per-pattern stats (sums, minima and maxima are
//!    exact, so bounds and prune decisions are bit-identical to a
//!    single-shard index's). They are re-merged only for the digits the
//!    odometer moved since the last test (the last one, all but
//!    `1/|list|` of the time), and not at all until k patterns have been
//!    found;
//! 2. after a combination is joined across every shard, one offer of the
//!    pattern's **final** score to the threshold.
//!
//! So the threshold sees each pattern exactly once, complete: it is a
//! size-k min-heap of final scores and nothing else, every aggregation
//! (`Avg` included — a final mean is as sound an offer as a final sum)
//! prunes, and no shard ever holds a partial group that a prune elsewhere
//! would have to retract. The walk runs on the caller's thread and owns
//! its threshold, so a run's prune decisions, and every counter, are a
//! single-shard run's.

use crate::common::QueryContext;
use crate::pattern_enum::walk_combinations;
use crate::result::SearchResult;
use crate::score::Aggregation;
use crate::SearchConfig;
use patternkb_index::PatternTypeGroup;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
        len_min += f64::from(a.min_len);
        len_max += f64::from(a.max_len);
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

/// The monotone top-k threshold: a size-k min-heap of the final scores
/// offered so far — one offer per pattern, so its root is the k-th best
/// score found and never exceeds the true k-th best. Scores are
/// non-negative, so their bit patterns order like the floats themselves.
pub(crate) struct Threshold {
    k: usize,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Threshold {
    pub(crate) fn new(k: usize) -> Self {
        Threshold {
            k: k.max(1),
            heap: BinaryHeap::new(),
        }
    }

    /// The current threshold; `None` until k patterns have offered.
    #[inline]
    fn kth(&self) -> Option<f64> {
        match self.heap.peek() {
            Some(&Reverse(bits)) if self.heap.len() == self.k => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// Offer one pattern's final score.
    pub(crate) fn offer(&mut self, score: f64) {
        debug_assert!(score >= 0.0);
        let bits = score.to_bits();
        if self.heap.len() < self.k {
            self.heap.push(Reverse(bits));
        } else if let Some(mut kth) = self.heap.peek_mut() {
            if bits > kth.0 {
                *kth = Reverse(bits);
            }
        }
    }

    /// Whether combination `combo` of `groups` cannot beat the threshold:
    /// its bound, with the slack, falls below the k-th best score found.
    /// `aggs` holds the aggregates of `combo`'s leading digits; the
    /// missing ones are merged in. O(m), no index access beyond the moved
    /// digits' stats, no hashing.
    pub(crate) fn prunes(
        &self,
        ctx: &QueryContext<'_>,
        cfg: &SearchConfig,
        groups: &[PatternTypeGroup<'_>],
        combo: &[usize],
        aggs: &mut Vec<PatternAggregates>,
    ) -> bool {
        self.kth().is_some_and(|kth| {
            for i in aggs.len()..combo.len() {
                aggs.push(merged_aggregates(ctx, i, groups[i], combo[i]));
            }
            combination_bound(aggs, cfg) * SLACK < kth
        })
    }
}

/// `PATTERNENUM` with admissible upper-bound pruning. Returns exactly the
/// same top-k as [`crate::pattern_enum::pattern_enum`], with
/// `stats.combos_pruned` counting the combinations skipped before any
/// intersection.
pub fn pattern_enum_pruned(ctx: &QueryContext<'_>, cfg: &SearchConfig) -> SearchResult {
    walk_combinations(ctx, cfg, Some(Threshold::new(cfg.k)))
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
        let w = &ctx.shards[0].words[0];
        for p in w.patterns() {
            let prim = w.pattern_primary(p).expect("pattern present");
            let agg: PatternAggregates = w.pattern_stats()[prim];
            let keyed = w.postings_pattern_first();
            let paths: Vec<_> = keyed
                .iter()
                .filter(|x| x.pattern == p)
                .map(|x| x.posting)
                .collect();
            assert_eq!(agg.num_paths as usize, paths.len());
            let min_len = paths.iter().map(|x| x.score_len()).min().unwrap() as f64;
            let max_sim = paths
                .iter()
                .map(|x| w.score_terms(x).sim)
                .fold(0.0f64, f64::max);
            assert_eq!(f64::from(agg.min_len), min_len);
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
        let mut t = Threshold::new(2);
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
            /// shard layout: the pruned enumerator returns a top-k
            /// **bit-identical** to the unpruned `PATTERNENUM` reference's.
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
                shards in 1usize..4,
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
                let pruned = pattern_enum_pruned(&ctx, &cfg);
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
