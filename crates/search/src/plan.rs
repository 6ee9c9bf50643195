//! Cost-based algorithm selection.
//!
//! The paper's claim is a division of labour: `PATTERNENUM` is "fast in
//! practice most of the time" but `Θ(pᵐ)` in the worst case (§4.1), while
//! `LINEARENUM` is linear in the index and the answers (Theorem 3). A
//! production service should not make the user choose. This module
//! measures the two cost drivers **from the index alone** — both are
//! exact counts obtained without enumerating a single subtree:
//!
//! * the **valid-subtree count** `N = Σ_r Πᵢ |Paths(wᵢ, r)|` (Algorithm 4
//!   line 4), the term `LINEARENUM`'s running time is linear in; and
//! * the **pattern-combination count** `Πᵢ |Patterns(wᵢ)|`, the size of
//!   the product `PATTERNENUM` iterates (its §4.1 failure mode).
//!
//! # The rule
//!
//! 1. `N >` [`PlannerConfig::max_subtrees_exact`] → `LINEARENUM-TOPK`
//!    with root sampling (Hoeffding-bounded error, Theorem 5);
//! 2. `N ≤` [`PlannerConfig::max_subtrees_linear`] → `LINEARENUM`: a
//!    dictionary over a few hundred subtrees is cheaper than walking any
//!    combination list;
//! 3. combinations `>` [`COMBO_BLOWUP`]` · N` → `LINEARENUM`: §4.1's worst
//!    case, a product that dwarfs the answers it could hold;
//! 4. otherwise pruned `PATTERNENUM` (no dictionary, admissible pruning
//!    caps the tail).
//!
//! # The stoppable walk
//!
//! `N` is summed in one leapfrog walk over the candidate roots, shard by
//! shard (`QueryContext::subtrees_until`); a walk that reaches the end
//! is memoized with each keyword's index position at every root, which
//! `LINEARENUM` and `LINEARENUM-TOPK` expand from. The engine's miss path
//! (`plan`) reads no more than the decision needs:
//!
//! * the combination count is computed only once the running `N` passes
//!   [`PlannerConfig::max_subtrees_linear`] (a query that stays at or
//!   below it never merges the per-keyword pattern lists behind it);
//! * with `m ≥ 2` keywords it first bounds `N` from per-word stats:
//!   `U = Σ_shards minᵢ (Sᵢ · Π_{j≠i} maxPathsⱼ)`, with `Sᵢ` word `i`'s
//!   postings in the shard and `maxPathsⱼ` the most paths any root has to
//!   word `j`. While `U ≤` [`PlannerConfig::max_subtrees_exact`], step 1
//!   cannot fire, and the walk stops at the first root where the running
//!   `N` reaches `T = max(max_subtrees_linear + 1, ⌈combos / COMBO_BLOWUP⌉)`.
//!   From there the final `N` lies in `[T, U]`, where steps 1–3 all fail:
//!   the query goes to step 4 without the rest of the walk, which pruned
//!   `PATTERNENUM` would not read. A walk that ends first has the exact
//!   `N` and the rule decides as usual.
//!
//! So the route is always `choose(&estimate(ctx), cfg)`'s ([`estimate`]
//! walks to the end; it is the reporting entry point). A query that
//! reaches step 4 has merged the pattern lists for the kernel it is
//! routed to ([`QueryContext::merged_patterns`]).
//!
//! # The rows behind it
//!
//! Per-query sweep of the gated `cold` pool (1 000 queries, 250 per
//! keyword count m, 50 k-entity wiki, 2-shard engine, every kernel run
//! inline on a fresh context, planning not included, best of 3, µs; a
//! throwaway `#[ignore]`d test over the kernels' `*_in` routines, not a
//! committed harness):
//!
//! | fastest fixed choice | queries |
//! |---|---|
//! | pruned `PATTERNENUM` | 475 |
//! | `LINEARENUM` | 316 |
//! | exact `LINEARENUM-TOPK` | 169 |
//! | `PATTERNENUM` | 40 |
//!
//! The `PATTERNENUM` row timed the shard-by-shard kernel that built rows
//! for every pattern it found. That kernel is gone: unpruned `PATTERNENUM`
//! is now the pruned walk with its bound off, and it builds rows for the
//! k winners alone. The row has not been measured again; no rule routes
//! to it.
//!
//! | policy | mean | median | mean regret vs per-query best |
//! |---|---|---|---|
//! | per-query best | 274 | 76 | 1.00 |
//! | old: combos ≤ 4 096 → pruned, else exact `TOPK` | 870 | 118 | 2.11 |
//! | always pruned `PATTERNENUM` | 670 | 154 | 9.63 |
//! | always `LINEARENUM` | 483 | 99 | 1.54 |
//! | `N ≤ 1 000` → `LINEARENUM`, else pruned | 309 | 91 | 1.18 |
//! | `N ≤ 256` or combos `> 30 000 · N` → `LINEARENUM`, else pruned | 269 | 81 | 1.10 |
//!
//! (The last two rows fanned out above [`crate::common::FANOUT_MIN_ROOTS`]
//! as the engine then did, pruned `PATTERNENUM` included, on a box whose
//! second core was free — which is how a rule can read below the inline
//! per-query best. `PATTERNENUM` now always runs inline; the rows have
//! not been measured again.) Both thresholds
//! still sit on the plateaus they were put on: `N ≤ 200 … 500` and a
//! factor of 10³ … 10⁵ all read a mean of 268–274 and a median of 81–84;
//! `N ≤ 64` costs 3 µs of median, `N ≤ 1 000` 10 µs, a factor of 10⁶
//! 29 µs of mean.
//!
//! The `exact LINEARENUM-TOPK` rows above timed a second kernel, which
//! added a type partition and a second shard pass to `LINEARENUM`. The
//! old rule sent it 691 of the 1 000 queries; it was the fastest fixed
//! choice for 165 of them (median `N` = 3, median margin over
//! `LINEARENUM` 2 µs), a median 3.2× slower than pruned `PATTERNENUM` on
//! the 197 two-keyword ones, and those 691 averaged 1 148 µs under it
//! against 290 µs under the rule above. That kernel is gone: exact
//! `LINEARENUM-TOPK` (`Λ = ∞` or `ρ = 1`) now runs `LINEARENUM` itself and
//! returns its answer, and the sampled tier is the same kernel with a
//! per-type sampling rate ([`crate::linear_enum`]). `Auto` routes to
//! `LINEARENUM-TOPK` only for the sampled tier; exact `LINEARENUM-TOPK`
//! stays an explicit [`crate::AlgorithmChoice`]. The decision is returned
//! next to the result, so callers can log or override it.

use crate::common::QueryContext;
use crate::counting::count_subtrees;
use crate::engine::Algorithm;
use crate::topk::SamplingConfig;

/// The two cost drivers, measured exactly from the per-word indexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryEstimate {
    /// `|∩ᵢ Roots(wᵢ)|` — candidate roots (Algorithm 3 line 1).
    pub candidate_roots: usize,
    /// `N = Σ_r Πᵢ |Paths(wᵢ, r)|` — valid subtrees, without enumeration
    /// (saturating).
    pub subtrees: u64,
    /// `Πᵢ |Patterns(wᵢ)|` — the pattern product `PATTERNENUM` iterates in
    /// the worst case (saturating).
    pub pattern_combos: u64,
    /// `Σᵢ Sᵢ` — total postings behind the query's keywords.
    pub index_postings: usize,
}

/// Measure both cost drivers. Cost: one full walk over the candidate
/// roots reading each keyword's group size per root — the same work
/// `LINEARENUM` line 1 and Algorithm 4 line 4 do before any enumeration,
/// memoized for them — plus the per-keyword global pattern lists. All
/// quantities are global (merged over the index's root-range shards), so
/// the decision is independent of the shard count.
pub fn estimate(ctx: &QueryContext<'_>) -> QueryEstimate {
    QueryEstimate {
        candidate_roots: ctx.candidate_roots().len(),
        subtrees: count_subtrees(ctx),
        pattern_combos: pattern_combos(ctx),
        index_postings: (0..ctx.m()).map(|i| ctx.keyword_postings(i)).sum(),
    }
}

/// `Πᵢ |Patterns(wᵢ)|` (saturating), read off the per-keyword merged
/// pattern lists the context memoises — the ones pruned `PATTERNENUM`
/// then walks, so a query routed there builds them once.
fn pattern_combos(ctx: &QueryContext<'_>) -> u64 {
    (0..ctx.m()).fold(1u64, |product, i| {
        product.saturating_mul(ctx.merged_patterns(i).num_patterns() as u64)
    })
}

/// A combination product this many times the valid-subtree count is
/// §4.1's blow-up: `PATTERNENUM` would walk mostly-empty combinations,
/// so the planner takes `LINEARENUM` whatever `N` is. Flat between 10⁴
/// and 10⁵ on the sweep in the module docs.
pub const COMBO_BLOWUP: u64 = 30_000;

/// Planner thresholds, both on the exact valid-subtree count `N`.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Run `LINEARENUM` while `subtrees` ≤ this.
    pub max_subtrees_linear: u64,
    /// Above this, stop answering exactly and sample.
    pub max_subtrees_exact: u64,
    /// Sampling parameters once `subtrees` exceeds the exact budget.
    pub sampling: SamplingConfig,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_subtrees_linear: 256,
            max_subtrees_exact: 1_000_000,
            sampling: SamplingConfig::new(100_000, 0.1, 42),
        }
    }
}

/// Pick an algorithm for the measured costs (the rule in the module docs).
pub fn choose(est: &QueryEstimate, cfg: &PlannerConfig) -> Algorithm {
    rule(est.subtrees, || est.pattern_combos, cfg)
}

/// [`choose`] ∘ [`estimate`] for the engine's miss path, reading no more
/// of the index than the decision needs (module docs, "The stoppable
/// walk"): the combination count is only computed once `N` has passed
/// the `LINEARENUM` threshold, and while the bound `U` keeps the sampled
/// tier out of reach the walk counting `N` stops as soon as the running
/// count settles the route.
pub(crate) fn plan(ctx: &QueryContext<'_>, cfg: &PlannerConfig) -> Algorithm {
    if ctx.m() < 2 || subtree_bound(ctx) > cfg.max_subtrees_exact {
        return rule(count_subtrees(ctx), || pattern_combos(ctx), cfg);
    }
    let mut stop_at: Option<u64> = None;
    let (subtrees, stopped) = ctx.subtrees_until(|n| {
        n > cfg.max_subtrees_linear
            && n >= *stop_at.get_or_insert_with(|| stop_threshold(pattern_combos(ctx), cfg))
    });
    if stopped {
        Algorithm::PatternEnumPruned
    } else {
        rule(subtrees, || pattern_combos(ctx), cfg)
    }
}

/// `U = Σ_shards minᵢ (Sᵢ · Π_{j≠i} maxPathsⱼ)` (saturating), an upper
/// bound on `N` from per-word stats alone: in a shard, each root adds
/// `Πⱼ |Paths(wⱼ, r)|`, at most its `|Paths(wᵢ, r)|` times every other
/// word's `maxPaths`, and word `i`'s paths over all roots sum to `Sᵢ`.
fn subtree_bound(ctx: &QueryContext<'_>) -> u64 {
    ctx.shards.iter().fold(0u64, |total, shard| {
        let of_shard = (0..shard.m())
            .map(|i| {
                let others = shard.words.iter().enumerate().filter(|&(j, _)| j != i);
                others.fold(shard.words[i].len() as u64, |bound, (_, w)| {
                    bound.saturating_mul(w.max_paths_per_root() as u64)
                })
            })
            .min()
            .unwrap_or(0);
        total.saturating_add(of_shard)
    })
}

/// The running `N` at which a walk with `N ≤ U ≤ max_subtrees_exact` may
/// stop: `T = max(max_subtrees_linear + 1, ⌈combos / COMBO_BLOWUP⌉)`.
/// From there the final `N` is past the `LINEARENUM` threshold and at
/// least `combos / COMBO_BLOWUP`, so [`rule`] picks pruned `PATTERNENUM`
/// whatever the rest of the walk adds.
fn stop_threshold(combos: u64, cfg: &PlannerConfig) -> u64 {
    cfg.max_subtrees_linear
        .saturating_add(1)
        .max(combos.div_ceil(COMBO_BLOWUP))
}

fn rule(subtrees: u64, combos: impl FnOnce() -> u64, cfg: &PlannerConfig) -> Algorithm {
    if subtrees > cfg.max_subtrees_exact {
        Algorithm::LinearEnumTopK(cfg.sampling)
    } else if subtrees <= cfg.max_subtrees_linear
        || combos() > COMBO_BLOWUP.saturating_mul(subtrees)
    {
        Algorithm::LinearEnum
    } else {
        Algorithm::PatternEnumPruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, SearchEngine};
    use patternkb_datagen::figure1;
    use patternkb_datagen::worstcase::{worstcase, W1, W2};

    fn fig1_engine() -> SearchEngine {
        let (g, _) = figure1();
        crate::EngineBuilder::new()
            .graph(g)
            .threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn estimate_matches_exact_counters() {
        let e = fig1_engine();
        let q = e.parse("database software company revenue").unwrap();
        let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
        let est = estimate(&ctx);
        assert_eq!(est.subtrees, e.count_subtrees(&q));
        assert_eq!(est.subtrees, 10);
        assert!(est.candidate_roots >= 2);
        assert!(est.pattern_combos >= 9, "at least the 9 nonempty patterns");
    }

    fn est(subtrees: u64, pattern_combos: u64) -> QueryEstimate {
        QueryEstimate {
            candidate_roots: subtrees.min(50_000) as usize,
            subtrees,
            pattern_combos,
            index_postings: 1_000_000,
        }
    }

    #[test]
    fn small_queries_take_linear_enumeration() {
        let e = fig1_engine();
        let q = e.parse("database company").unwrap();
        let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
        let algo = choose(&estimate(&ctx), &PlannerConfig::default());
        assert!(matches!(algo, Algorithm::LinearEnum), "got {algo:?}");
        assert!(matches!(
            plan(&ctx, &PlannerConfig::default()),
            Algorithm::LinearEnum
        ));
    }

    #[test]
    fn mid_sized_queries_take_the_pruned_join() {
        let cfg = PlannerConfig::default();
        for (n, combos) in [(257, 1), (10_000, 4_096), (1_000_000, 1 << 30)] {
            let algo = choose(&est(n, combos), &cfg);
            assert!(
                matches!(algo, Algorithm::PatternEnumPruned),
                "N = {n}, combos = {combos}: {algo:?}"
            );
        }
    }

    #[test]
    fn auto_never_picks_exact_topk() {
        let cfg = PlannerConfig::default();
        let sizes = [0, 1, 256, 257, 10_000, 1_000_000, 1_000_001, u64::MAX];
        for n in sizes {
            for combos in sizes {
                let algo = choose(&est(n, combos), &cfg);
                assert!(
                    !matches!(algo, Algorithm::LinearEnumTopK(s) if s.rho == 1.0),
                    "N = {n}, combos = {combos}: {algo:?}"
                );
            }
        }
    }

    #[test]
    fn worstcase_avoids_the_combination_blowup() {
        // §4.1: p² empty combinations. The planner routes to LINEARENUM,
        // which exits without trying a single one.
        use crate::request::SearchRequest;
        let p = 128usize;
        let e = crate::EngineBuilder::new()
            .graph(worstcase(p))
            .height(2)
            .threads(1)
            .build()
            .unwrap();
        let q = e.parse(&format!("{W1} {W2}")).unwrap();
        let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
        let est = estimate(&ctx);
        assert!(est.pattern_combos >= (p * p) as u64);
        assert_eq!(est.subtrees, 0, "no shared roots in the §4.1 graph");
        let algo = choose(&est, &PlannerConfig::default());
        assert!(matches!(algo, Algorithm::LinearEnum), "got {algo:?}");
        let r = e.respond(&SearchRequest::query(q)).unwrap();
        assert!(matches!(r.algorithm, Algorithm::LinearEnum));
        assert_eq!(r.stats.combos_tried, 0);
    }

    #[test]
    fn a_product_dwarfing_the_answers_is_a_blowup_at_any_size() {
        let cfg = PlannerConfig::default();
        let n = 10_000;
        let at = choose(&est(n, COMBO_BLOWUP * n), &cfg);
        assert!(matches!(at, Algorithm::PatternEnumPruned), "got {at:?}");
        let over = choose(&est(n, COMBO_BLOWUP * n + 1), &cfg);
        assert!(matches!(over, Algorithm::LinearEnum), "got {over:?}");
    }

    #[test]
    fn heavy_queries_get_sampling() {
        let est = QueryEstimate {
            candidate_roots: 50_000,
            subtrees: 5_000_000,
            pattern_combos: 1 << 40,
            index_postings: 1_000_000,
        };
        let algo = choose(&est, &PlannerConfig::default());
        assert!(matches!(algo, Algorithm::LinearEnumTopK(s) if s.rho < 1.0));
    }

    #[test]
    fn auto_routing_equals_manual_choice() {
        use crate::request::{AlgorithmChoice, SearchRequest};
        let e = fig1_engine();
        for text in ["database software company revenue", "revenue", "bill gates"] {
            let auto = e.respond(&SearchRequest::text(text).k(10)).unwrap();
            assert!(auto.planned);
            let choice = match auto.algorithm {
                Algorithm::Baseline => AlgorithmChoice::Baseline,
                Algorithm::PatternEnum => AlgorithmChoice::PatternEnum,
                Algorithm::PatternEnumPruned => AlgorithmChoice::PatternEnumPruned,
                Algorithm::LinearEnum => AlgorithmChoice::LinearEnum,
                Algorithm::LinearEnumTopK(_) => AlgorithmChoice::LinearEnumTopK,
            };
            let manual = e
                .respond(&SearchRequest::text(text).k(10).algorithm(choice))
                .unwrap();
            assert!(!manual.planned);
            assert_eq!(auto.patterns.len(), manual.patterns.len(), "{text}");
            for (a, b) in auto.patterns.iter().zip(&manual.patterns) {
                assert_eq!(a.key(), b.key());
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }

    /// The walk `plan` may stop, replayed from the primitives: the number
    /// of candidate roots (intersected slice by slice, shard by shard) up
    /// to and including the first at which the running `N` reaches the
    /// stop threshold — `None` where `plan` must walk to the end.
    fn expected_stop(ctx: &QueryContext<'_>, cfg: &PlannerConfig, u: u64) -> Option<usize> {
        if ctx.m() < 2 || u > cfg.max_subtrees_exact {
            return None;
        }
        let t = stop_threshold(pattern_combos(ctx), cfg);
        let (mut n, mut seen) = (0u64, 0usize);
        for shard in &ctx.shards {
            let lists: Vec<&[u32]> = shard.words.iter().map(|w| w.roots()).collect();
            for r in patternkb_index::cursor::intersect_sorted(&lists) {
                let paths = shard.words.iter().fold(1u64, |product, w| {
                    let mut c = w.root_cursor();
                    assert_eq!(c.as_mut().seek(r), Some(r));
                    product.saturating_mul(c.num_paths() as u64)
                });
                n = n.saturating_add(paths);
                seen += 1;
                if n > cfg.max_subtrees_linear && n >= t {
                    return Some(seen);
                }
            }
        }
        None
    }

    /// Every search engine and query of the equivalence sweep below.
    fn sweep_engines() -> Vec<(String, SearchEngine, Vec<Query>)> {
        use patternkb_datagen::imdb::{imdb, ImdbConfig};
        use patternkb_datagen::queries::QueryGenerator;
        use patternkb_datagen::theorem1::{random_digraph, reduce};
        use patternkb_datagen::wiki::{wiki, WikiConfig};
        let mut out = Vec::new();
        for shards in 1..=3 {
            let engine = |g, d: usize| {
                crate::EngineBuilder::new()
                    .graph(g)
                    .height(d)
                    .threads(1)
                    .shards(shards)
                    .build()
                    .unwrap()
            };
            for (name, g) in [
                ("wiki", wiki(&WikiConfig::tiny(3))),
                ("imdb", imdb(&ImdbConfig::tiny(3))),
            ] {
                let e = engine(g, 3);
                let mut generator = QueryGenerator::new(e.graph(), e.text(), 3, 5);
                let queries = generator
                    .batch(6, 4)
                    .into_iter()
                    .map(|spec| Query::from_ids(spec.keywords))
                    .collect();
                out.push((format!("{name} S={shards}"), e, queries));
            }
            let e = engine(worstcase(16), 2);
            let queries = [format!("{W1} {W2}"), format!("rootone {W1}")]
                .iter()
                .map(|text| e.parse(text).unwrap())
                .collect();
            out.push((format!("worstcase S={shards}"), e, queries));
            for seed in 0..3 {
                let n = 5;
                let reduction = reduce(n, &random_digraph(n, 0.5, seed), 0, n - 1);
                let text = reduction.query.join(" ");
                let e = engine(reduction.graph, reduction.d);
                let queries = vec![e.parse(&text).unwrap()];
                out.push((format!("theorem1[{seed}] S={shards}"), e, queries));
            }
        }
        out
    }

    /// `plan` on a fresh context routes every query as `choose ∘
    /// estimate` does, with both thresholds swept across the boundaries
    /// of the stop test: `max_subtrees_linear` at `N - 1`, `N` and `N + 1`
    /// (and low enough to stop mid-walk), `max_subtrees_exact` at `N` and
    /// around the bound `U`. And a walk stops exactly where the running
    /// `N` first reaches the threshold, or not at all.
    #[test]
    fn the_stoppable_walk_routes_as_the_full_estimate() {
        let (mut checked, mut stopped, mut stopped_early) = (0, 0, 0);
        for (name, e, queries) in sweep_engines() {
            for q in &queries {
                let Some(reference) = QueryContext::new(e.graph(), e.index(), q) else {
                    continue;
                };
                let est = estimate(&reference);
                let (n, u) = (est.subtrees, subtree_bound(&reference));
                if q.keywords.len() >= 2 {
                    assert!(u >= n, "{name} {q:?}: U = {u} < N = {n}");
                }
                let linear = [0, n / 2, n.saturating_sub(1), n, n + 1];
                let exact = [n.saturating_sub(1), n, u.saturating_sub(1), u, u + 1];
                let configs = linear.iter().flat_map(|&max_subtrees_linear| {
                    exact.iter().map(move |&max_subtrees_exact| PlannerConfig {
                        max_subtrees_linear,
                        max_subtrees_exact,
                        ..PlannerConfig::default()
                    })
                });
                for cfg in configs.chain([PlannerConfig::default()]) {
                    let fresh = QueryContext::new(e.graph(), e.index(), q).unwrap();
                    let planned = format!("{:?}", plan(&fresh, &cfg));
                    let chosen = format!("{:?}", choose(&est, &cfg));
                    let label = format!(
                        "{name} {q:?}: N = {n}, U = {u}, linear {}, exact {}",
                        cfg.max_subtrees_linear, cfg.max_subtrees_exact
                    );
                    assert_eq!(planned, chosen, "{label}");
                    let stop = fresh.stopped_at();
                    assert_eq!(stop, expected_stop(&reference, &cfg, u), "{label}");
                    checked += 1;
                    stopped += usize::from(stop.is_some());
                    stopped_early +=
                        usize::from(stop.is_some_and(|seen| seen < est.candidate_roots));
                }
            }
        }
        assert!(checked > 2_000, "{checked} routes checked");
        assert!(stopped > 300, "{stopped} walks stopped");
        assert!(stopped_early > 150, "{stopped_early} walks stopped early");
    }

    /// A one-keyword query's `N` is its posting count, read without a
    /// walk: `plan` seeks no cursor on any of them, while any walk over
    /// the candidate roots seeks at least once per shard. Some of them
    /// route to pruned `PATTERNENUM`, which reads no roots either.
    #[test]
    fn a_one_keyword_plan_walks_no_roots() {
        use patternkb_datagen::queries::QueryGenerator;
        use patternkb_datagen::wiki::{wiki, WikiConfig};
        let e = crate::EngineBuilder::new()
            .graph(wiki(&WikiConfig::tiny(3)))
            .threads(1)
            .shards(2)
            .build()
            .unwrap();
        let mut generator = QueryGenerator::new(e.graph(), e.text(), 3, 5);
        let (mut checked, mut pruned) = (0, 0);
        for spec in generator.batch(40, 1) {
            let q = Query::from_ids(spec.keywords);
            let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
            let algorithm = plan(&ctx, &PlannerConfig::default());
            assert_eq!(ctx.hot_stats().intersect_seeks, 0, "{q:?}: {algorithm:?}");
            checked += 1;
            pruned += usize::from(matches!(algorithm, Algorithm::PatternEnumPruned));
        }
        assert_eq!(checked, 40);
        assert!(pruned > 0, "none of {checked} routed to pruned PATTERNENUM");
    }

    #[test]
    fn auto_routing_on_unanswerable_query() {
        use crate::request::SearchRequest;
        let e = fig1_engine();
        let q = Query::from_ids([patternkb_graph::WordId(u32::MAX)]);
        let r = e.respond(&SearchRequest::query(q)).unwrap();
        assert!(r.patterns.is_empty());
        // Default decision on an unindexable query.
        assert!(matches!(r.algorithm, Algorithm::PatternEnumPruned));
    }

    #[test]
    fn custom_thresholds_flip_decisions() {
        let e = fig1_engine();
        let q = e.parse("database company").unwrap();
        let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
        let est = estimate(&ctx);
        assert!(est.subtrees > 0);
        // Forbid plain linear enumeration.
        let cfg = PlannerConfig {
            max_subtrees_linear: 0,
            ..PlannerConfig::default()
        };
        assert!(matches!(choose(&est, &cfg), Algorithm::PatternEnumPruned));
        assert!(matches!(plan(&ctx, &cfg), Algorithm::PatternEnumPruned));
        // Forbid exact answers altogether.
        let cfg = PlannerConfig {
            max_subtrees_exact: 0,
            ..PlannerConfig::default()
        };
        assert!(matches!(
            choose(&est, &cfg),
            Algorithm::LinearEnumTopK(s) if s.rho < 1.0
        ));
    }
}
