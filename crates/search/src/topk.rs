//! The sampling half of `LINEARENUM-TOPK` — Algorithm 4's type
//! partitioning (§4.2.1) and root sampling (§4.2.2) — as the one
//! `LINEARENUM` kernel ([`crate::linear_enum`]) runs it when `ρ < 1`.
//!
//! 1. Per root type `C`, the number of valid subtrees rooted in the
//!    partition is computed *without enumeration* as
//!    `N_R = Σ_r Πᵢ |Paths(wᵢ, r)|` (line 4), summed over the shards'
//!    walks: the sampling decision needs the **global** count per type.
//! 2. If `N_R ≥ Λ`, each root of the type is expanded only with
//!    probability `ρ` (lines 5–8), into the shard's one dictionary; the
//!    type's pattern scores are estimated from the sample
//!    (Horvitz–Thompson for `Sum`/`Count`).
//! 3. After the shards' dictionaries merge, each sampled type keeps its k
//!    best patterns by estimate (lines 9–10), and those winners get their
//!    exact scores, by re-joining each winner's runs on every shard (line
//!    11); its other patterns drop out. A type at rate 1 has exact scores
//!    already and is not cut. The final ranking's k best get their rows
//!    re-joined (`rank_winners`).
//!
//! Root selection is **hash-based per root** (not a sequential RNG), so
//! the sampled set is a pure function of `(seed, root)` — independent of
//! iteration order and of the shard count, which keeps sampled runs
//! bit-identical across shard layouts too. With sampling, the pairwise
//! error probability decays as `exp(−2·((s1−s2)/(s1+s2))²·ρ²)`
//! (Theorem 5).

use crate::common::{join_pattern, QueryContext, SubtreeFold, TreeDict};
use crate::intern::PatternKeyId;
use crate::result::ShardStats;
use crate::score::ScoreAcc;
use crate::SearchConfig;
use patternkb_graph::{FxHashMap, KnowledgeGraph, NodeId, TypeId};
use patternkb_index::{PatternId, RunCursor};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Sampling parameters (`Λ`, `ρ`) of Algorithm 4.
#[derive(Clone, Copy, Debug)]
pub struct SamplingConfig {
    /// Sampling threshold `Λ`: partitions with at least this many valid
    /// subtrees are sampled. `u64::MAX` disables sampling entirely.
    pub lambda: u64,
    /// Sampling rate `ρ ∈ (0, 1]`.
    pub rho: f64,
    /// Seed for the per-root Bernoulli selection hash.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            lambda: u64::MAX,
            rho: 1.0,
            seed: 42,
        }
    }
}

impl SamplingConfig {
    /// No sampling: exact top-k (`Λ = ∞, ρ = 1`).
    pub fn exact() -> Self {
        Self::default()
    }

    /// Sample at threshold `lambda` with rate `rho`.
    pub fn new(lambda: u64, rho: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rho) && rho > 0.0,
            "rho must be in (0,1]"
        );
        SamplingConfig { lambda, rho, seed }
    }
}

/// SplitMix64 finalizer — a strong 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The per-root Bernoulli draw: include `root` iff
/// `hash(seed, root) / 2⁶⁴ < rho`. Deterministic per `(seed, root)`, so
/// the sampled set does not depend on iteration order or sharding.
#[inline]
pub(crate) fn root_sampled(seed: u64, root: NodeId, rho: f64) -> bool {
    let u = mix64(seed ^ (root.0 as u64).wrapping_mul(0xd1b54a32d192ed03));
    // Top 53 bits → uniform in [0, 1).
    ((u >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rho
}

/// The rate each root type's roots are expanded at (Algorithm 4 lines
/// 4–5): `ρ` where the type's `N_R` over the candidate roots of every
/// shard reaches `Λ`, 1 elsewhere.
pub(crate) struct TypeRates {
    /// `N_R` per root type, summed over the shards' walks (saturating).
    n_r: FxHashMap<TypeId, u64>,
    samp: SamplingConfig,
}

impl TypeRates {
    /// The rates of `ctx`'s candidate root types under `samp`; `None`
    /// where `samp` samples nothing (`ρ = 1` or `Λ = ∞`).
    pub(crate) fn new(ctx: &QueryContext<'_>, samp: &SamplingConfig) -> Option<Self> {
        if samp.rho >= 1.0 || samp.lambda == u64::MAX {
            return None;
        }
        let mut n_r: FxHashMap<TypeId, u64> = FxHashMap::default();
        for shard in &ctx.shards {
            let walk = shard.walk();
            for (j, &r) in walk.roots().iter().enumerate() {
                let total = n_r.entry(ctx.g.node_type(r)).or_default();
                *total = total.saturating_add(walk.paths(j));
            }
        }
        Some(TypeRates { n_r, samp: *samp })
    }

    /// The rate of root type `c`.
    fn of(&self, c: TypeId) -> f64 {
        if self.n_r[&c] >= self.samp.lambda {
            self.samp.rho
        } else {
            1.0
        }
    }

    /// Whether candidate root `r` is expanded: always at rate 1, else by
    /// its per-root draw.
    pub(crate) fn keeps(&self, g: &KnowledgeGraph, r: NodeId) -> bool {
        let rate = self.of(g.node_type(r));
        rate >= 1.0 || root_sampled(self.samp.seed, r, rate)
    }
}

/// Lines 9–11 of Algorithm 4 over the merged dictionary of a sampled run:
/// per sampled root type, keep the k best patterns by estimated score
/// (ties by raw key), mark the rest dead (an empty group, which ranking
/// skips) and give each winner its exact score. A type at rate 1 already
/// has exact scores and is not cut: its patterns go to `rank_winners` as
/// they are, which orders their ties by encoded key, as `LINEARENUM`
/// does. The subtrees the re-scoring enumerates count in their shard's
/// `per_shard` entry.
pub(crate) fn keep_type_winners(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    rates: &TypeRates,
    dict: &mut TreeDict,
    per_shard: &mut [ShardStats],
) {
    let mut sampled: BTreeMap<TypeId, Vec<(f64, PatternKeyId)>> = BTreeMap::new();
    for (id, key, group) in dict.iter() {
        let c = ctx.idx.patterns().root_type(PatternId(key[0]));
        let rate = rates.of(c);
        if rate < 1.0 {
            let est = group.finish_estimated(cfg.scoring.aggregation, rate);
            sampled.entry(c).or_default().push((est, id));
        }
    }
    for mut local in sampled.into_values() {
        local.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| dict.key(a.1).cmp(dict.key(b.1)))
        });
        let winners = local.len().min(cfg.k);
        for &(_, id) in &local[winners..] {
            *dict.group_by_id_mut(id) = ScoreAcc::default();
        }
        for &(_, id) in &local[..winners] {
            let exact = exact_score(ctx, cfg, dict.key(id), per_shard);
            *dict.group_by_id_mut(id) = exact;
        }
    }
}

/// The exact score of tree pattern `key` (one pattern id per keyword):
/// its runs joined on every shard ([`join_pattern`]) and every subtree
/// folded in. Adds the subtrees enumerated to their shard's `per_shard`
/// entry.
fn exact_score(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    key: &[u32],
    per_shard: &mut [ShardStats],
) -> ScoreAcc {
    let mut group = ScoreAcc::default();
    let mut cursors = Vec::with_capacity(ctx.m());
    let mut fold = SubtreeFold::new(ctx.m());
    for (shard, stats) in ctx.shards.iter().zip(per_shard) {
        join_pattern(shard, key, &mut cursors, |root, cursors| {
            let runs = cursors.iter().map(RunCursor::postings);
            stats.subtrees += fold.fold(&shard.words, cfg, root, runs, |_, score| {
                group.push(score);
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_enum::linear_enum;
    use crate::request::{AlgorithmChoice, SearchRequest};
    use crate::{EngineBuilder, Query};
    use patternkb_datagen::figure1;
    use patternkb_datagen::queries::QueryGenerator;
    use patternkb_datagen::wiki::{wiki, WikiConfig};
    use patternkb_graph::GraphBuilder;
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

    /// Every pattern of `a` and `b`, in order: key, score bits and trees.
    fn same_answer(a: &crate::SearchResult, b: &crate::SearchResult, label: &str) {
        let bits = |r: &crate::SearchResult| -> Vec<(Vec<u32>, u64, usize)> {
            let rows = r.patterns.iter();
            rows.map(|p| (p.key(), p.score.to_bits(), p.num_trees))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{label}");
    }

    #[test]
    fn exact_mode_matches_linear_enum() {
        // Λ = ∞ is exact whatever ρ is. A finite Λ no type reaches takes
        // the partitioned path and samples nothing, and with k above
        // every type's pattern count it cuts nothing either.
        let (g, t, idx) = setup();
        for query in [
            "database software company revenue",
            "revenue",
            "database company",
        ] {
            let q = Query::parse(&t, query).unwrap();
            let ctx = QueryContext::new(&g, &idx, &q).unwrap();
            let cfg = SearchConfig::top(100);
            let le = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
            for lambda in [u64::MAX, 1 << 40] {
                let tk = linear_enum(&ctx, &cfg, &SamplingConfig::new(lambda, 0.5, 1));
                same_answer(&le, &tk, &format!("{query}, Λ = {lambda}"));
                assert_eq!(le.stats.subtrees, tk.stats.subtrees, "{query}");
            }
        }
    }

    #[test]
    fn always_sampling_rho_one_is_exact() {
        // ρ = 1 keeps every root whatever Λ is, and cuts no type.
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(100);
        let le = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
        let tk = linear_enum(&ctx, &cfg, &SamplingConfig::new(0, 1.0, 1));
        same_answer(&le, &tk, "Λ = 0, ρ = 1");
    }

    /// Whatever sampling does to the *selection*, reported scores are
    /// recomputed exactly (line 11): on a small wiki engine at 1, 2 and 3
    /// shards, every pattern a sampled run reports (Λ = 0: every type
    /// sampled) carries the score bits and tree count `LINEARENUM` gives
    /// the same key, and the per-shard subtree counts, re-scoring
    /// included, sum to the total.
    #[test]
    fn sampled_scores_are_exact_for_reported_patterns() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(100);
        let exact = linear_enum(&ctx, &cfg, &SamplingConfig::exact());
        let sampled = linear_enum(&ctx, &cfg, &SamplingConfig::new(0, 0.5, 7));
        for p in &sampled.patterns {
            let reference = exact
                .patterns
                .iter()
                .find(|e| e.key() == p.key())
                .expect("sampled pattern exists exactly");
            assert_eq!(reference.score.to_bits(), p.score.to_bits());
            assert_eq!(reference.num_trees, p.num_trees);
        }

        for shards in 1..=3 {
            let mut checked = 0;
            let e = EngineBuilder::new()
                .graph(wiki(&WikiConfig::tiny(3)))
                .height(3)
                .threads(1)
                .shards(shards)
                .build()
                .unwrap();
            let mut generator = QueryGenerator::new(e.graph(), e.text(), 3, 5);
            for spec in generator.batch(3, 4) {
                let q = Query::from_ids(spec.keywords);
                let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
                let all = SearchConfig {
                    max_rows: 0,
                    ..SearchConfig::top(usize::MAX)
                };
                let exact = linear_enum(&ctx, &all, &SamplingConfig::exact());
                let cfg = SearchConfig::top(5);
                let sampled = linear_enum(&ctx, &cfg, &SamplingConfig::new(0, 0.5, 7));
                let stats = &sampled.stats;
                let per_shard: usize = stats.per_shard.iter().map(|s| s.subtrees).sum();
                assert_eq!(per_shard, stats.subtrees, "{shards} shards");
                for p in &sampled.patterns {
                    let reference = exact
                        .patterns
                        .iter()
                        .find(|x| x.key() == p.key())
                        .expect("sampled pattern exists exactly");
                    let label = format!("{shards} shards, {}", p.display(e.graph()));
                    assert_eq!(reference.score.to_bits(), p.score.to_bits(), "{label}");
                    assert_eq!(reference.num_trees, p.num_trees, "{label}");
                    checked += 1;
                }
            }
            assert!(checked >= 40, "{shards} shards: {checked} patterns checked");
        }
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(10);
        let a = linear_enum(&ctx, &cfg, &SamplingConfig::new(0, 0.4, 99));
        let b = linear_enum(&ctx, &cfg, &SamplingConfig::new(0, 0.4, 99));
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.key(), y.key());
        }
    }

    /// Ties at a type's cut: one root type whose patterns past the first
    /// all score alike, more of them than k, interned in an order their
    /// encoded keys do not follow. Exact `LINEARENUM-TOPK` — `ρ = 1`, or
    /// `Λ = ∞` with any `ρ`, or a finite `Λ` the type does not reach, so
    /// it is kept at rate 1 — answers what `LINEARENUM` does to the bit,
    /// so the k-th pattern is the tie with the least encoded key, not the
    /// first one interned.
    #[test]
    fn exact_topk_breaks_ties_as_linear_enum_does() {
        // `hub_i -link_i-> leaf_i`, every node a `Hub`, every leaf
        // "gamma", the hubs created in reverse of their links' order.
        let mut b = GraphBuilder::new();
        let hub_type = b.add_type("Hub");
        let links: Vec<_> = (0..5)
            .map(|i| b.add_attr(&format!("link{}", 4 - i)))
            .collect();
        for &link in links.iter().rev() {
            let hub = b.add_node(hub_type, "hub");
            let leaf = b.add_node(hub_type, "gamma");
            b.add_edge(hub, link, leaf);
        }
        let e = EngineBuilder::new()
            .graph(b.build())
            .height(3)
            .threads(1)
            .shards(1)
            .build()
            .unwrap();
        let q = e.parse("gamma").unwrap();
        let ctx = QueryContext::new(e.graph(), e.index(), &q).unwrap();
        let all = linear_enum(&ctx, &SearchConfig::top(100), &SamplingConfig::exact()).patterns;
        // The leaves' own pattern, then one tied pattern per link.
        assert_eq!(all.len(), 6);
        let root_type = |p: &crate::result::RankedPattern| p.pattern[0].root_type();
        assert!(all.iter().all(|p| root_type(p) == hub_type));
        let tied = &all[1..];
        assert!(tied.iter().all(|p| p.score == tied[0].score));
        assert!(all[0].score > tied[0].score);
        // The precondition the test needs: intern order is not key order.
        let ids: Vec<u32> = tied
            .iter()
            .map(|p| crate::individual::pattern_key_of(e.index().patterns(), p).unwrap()[0])
            .collect();
        assert!(
            ids.windows(2).any(|w| w[0] > w[1]),
            "intern order {ids:?} follows the encoded keys"
        );
        let bits = |r: &crate::request::SearchResponse| -> Vec<(Vec<u32>, u64, usize)> {
            let rows = r.patterns.iter();
            rows.map(|p| (p.key(), p.score.to_bits(), p.num_trees))
                .collect()
        };
        for k in 1..=4 {
            let respond = |algorithm, sampling| {
                let request = SearchRequest::query(q.clone())
                    .k(k)
                    .algorithm(algorithm)
                    .sampling(sampling);
                e.respond(&request).unwrap()
            };
            let exact = SamplingConfig::exact();
            let le = respond(AlgorithmChoice::LinearEnum, exact);
            assert_eq!(le.patterns.len(), k, "k = {k}");
            for sampling in [
                exact,
                SamplingConfig::new(u64::MAX, 0.5, 7),
                SamplingConfig::new(1 << 40, 0.5, 7),
            ] {
                let tk = respond(AlgorithmChoice::LinearEnumTopK, sampling);
                assert_eq!(bits(&le), bits(&tk), "k = {k}, {sampling:?}");
            }
        }
    }

    #[test]
    fn root_sampling_is_order_free_and_roughly_calibrated() {
        // The per-root hash draw hits ≈ ρ of a large root population and is
        // a pure function of (seed, root).
        let n = 20_000u32;
        for rho in [0.1f64, 0.5, 0.9] {
            let hits = (0..n).filter(|&r| root_sampled(42, NodeId(r), rho)).count() as f64;
            let frac = hits / n as f64;
            assert!(
                (frac - rho).abs() < 0.02,
                "rho {rho}: sampled fraction {frac}"
            );
        }
        for r in (0..200).map(NodeId) {
            assert_eq!(root_sampled(7, r, 0.3), root_sampled(7, r, 0.3));
        }
    }

    #[test]
    #[should_panic(expected = "rho must be")]
    fn rejects_zero_rho() {
        SamplingConfig::new(10, 0.0, 1);
    }
}
