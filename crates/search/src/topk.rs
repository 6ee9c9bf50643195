//! `LINEARENUM-TOPK` — Algorithm 4: type partitioning (§4.2.1) plus
//! root sampling (§4.2.2) — shard-parallel.
//!
//! Candidate roots are processed one root **type** at a time, bounding the
//! `TreeDict` to a single partition. Per type `C`:
//!
//! 1. the number of valid subtrees rooted in the partition is computed
//!    *without enumeration* as `N_R = Σ_r Πᵢ |Paths(wᵢ, r)|` (line 4);
//! 2. if `N_R ≥ Λ`, each root is expanded only with probability `ρ`
//!    (lines 5–8) and pattern scores are estimated from the sample
//!    (Horvitz–Thompson for `Sum`/`Count`);
//! 3. only the partition's estimated top-k patterns get their exact scores
//!    recomputed (line 11) before entering the global queue.
//!
//! Like every index kernel it records scores only: the queue's k best get
//! their rows re-joined at the end (`rank_winners`), and no other
//! pattern's rows are built.
//!
//! With `Λ = ∞` or `ρ = 1` the result is the exact top-k (Theorem 4); with
//! sampling, the pairwise error probability decays as
//! `exp(−2·((s1−s2)/(s1+s2))²·ρ²)` (Theorem 5).
//!
//! ## Sharded execution
//!
//! The pipeline splits into two shard-parallel phases with a barrier at
//! the sampling decision (the `N_R ≥ Λ` test needs the **global** count
//! per type, not a per-shard one): phase A computes each shard's per-type
//! candidate roots and `N_R` contribution; phase B expands each shard's
//! (sampled) roots into per-type dictionaries; the per-type merge, the
//! estimated-top-k selection, and the exact re-scoring then run over the
//! merged state exactly as a single-shard pass would. Root selection is
//! **hash-based per root** (not a sequential RNG), so the sampled set is a
//! pure function of `(seed, root)` — independent of iteration order and of
//! the shard count, which keeps sampled runs bit-identical across shard
//! layouts too.

use crate::common::{
    expand_root, merge_shard_dicts, rank_winners, run_sharded, ExpandScratch, Fanout, PatternGroup,
    QueryContext, ShardContext, SubtreeFold, TreeDict,
};
use crate::result::{QueryStats, SearchResult, ShardStats};
use crate::SearchConfig;
use patternkb_graph::{FxHashMap, NodeId, TypeId};
use patternkb_index::PatternId;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Instant;

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

/// Phase-A output of one shard: per root type, the shard's candidate
/// roots (ascending, as indices into its [`crate::common::RootWalk`]) and
/// its `N_R` contribution. `partitions[i]` always describes
/// `ctx.shards[i]` — [`run_sharded`] returns results in input order.
struct ShardPartition {
    by_type: FxHashMap<TypeId, (Vec<usize>, u64)>,
}

/// Run `LINEARENUM-TOPK`.
pub fn linear_enum_topk(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    samp: &SamplingConfig,
) -> SearchResult {
    linear_enum_topk_in(ctx, cfg, samp, ctx.fanout())
}

/// [`linear_enum_topk`] with the fan-out mode chosen by the caller (both
/// phases run in it).
pub(crate) fn linear_enum_topk_in(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    samp: &SamplingConfig,
    mode: Fanout,
) -> SearchResult {
    let t0 = Instant::now();

    // --- Phase A (shard-parallel): partition candidate roots by type and
    //     count N_R per (shard, type) without enumeration (line 4). ---
    let partitions: Vec<ShardPartition> = run_sharded(mode, &ctx.shards, |shard| {
        let mut by_type: FxHashMap<TypeId, (Vec<usize>, u64)> = FxHashMap::default();
        let walk = shard.walk();
        for (j, &r) in walk.roots().iter().enumerate() {
            let entry = by_type.entry(shard.g.node_type(r)).or_default();
            entry.0.push(j);
            entry.1 = entry.1.saturating_add(walk.paths(j));
        }
        by_type
    })
    .into_iter()
    .map(|by_type| ShardPartition { by_type })
    .collect();

    // Global sampling decision per type (line 5) — the barrier.
    let mut n_r_global: BTreeMap<TypeId, u64> = BTreeMap::new();
    for part in &partitions {
        for (&c, &(_, n_r)) in &part.by_type {
            let total = n_r_global.entry(c).or_default();
            *total = total.saturating_add(n_r);
        }
    }
    let rates: FxHashMap<TypeId, f64> = n_r_global
        .iter()
        .map(|(&c, &n_r)| (c, if n_r >= samp.lambda { samp.rho } else { 1.0 }))
        .collect();

    // --- Phase B (shard-parallel): expand each shard's (sampled) roots
    //     into per-type dictionaries (lines 6–8). ---
    let pairs: Vec<(&ShardContext<'_>, &ShardPartition)> =
        ctx.shards.iter().zip(&partitions).collect();
    let expansions: Vec<(FxHashMap<TypeId, TreeDict>, usize)> =
        run_sharded(mode, &pairs, |&(shard, part)| {
            let mut dicts: FxHashMap<TypeId, TreeDict> = FxHashMap::default();
            let mut subtrees = 0usize;
            let walk = shard.walk();
            let mut scratch = ExpandScratch::new(&shard.words);
            for (&c, (roots, _)) in &part.by_type {
                let rate = rates[&c];
                let dict = dicts.entry(c).or_insert_with(|| TreeDict::new(shard.m()));
                for &j in roots {
                    let r = walk.roots()[j];
                    if rate >= 1.0 || root_sampled(samp.seed, r, rate) {
                        let at = Some(walk.positions(j));
                        subtrees += expand_root(&shard.words, cfg, r, at, dict, &mut scratch);
                    }
                }
            }
            (dicts, subtrees)
        });

    // --- Per-type merge + estimated selection + exact re-scoring, in
    //     type-id order for determinism (lines 9–11). ---
    let mut per_shard: Vec<ShardStats> = ctx
        .shards
        .iter()
        .zip(&expansions)
        .zip(&partitions)
        .map(|((shard, (dicts, subtrees)), part)| ShardStats {
            shard: shard.shard,
            candidate_roots: part.by_type.values().map(|(roots, _)| roots.len()).sum(),
            subtrees: *subtrees,
            patterns: dicts.values().map(TreeDict::len).sum(),
        })
        .collect();

    let candidate_roots: usize = per_shard.iter().map(|s| s.candidate_roots).sum();
    let mut subtrees_expanded: usize = per_shard.iter().map(|s| s.subtrees).sum();
    let mut patterns_seen = 0usize;
    let mut keys_interned = 0u64;
    let mut key_arena_bytes = 0u64;
    // Every partition's winners with their exact scores: at most k per
    // type, the queue the paper's line 11 feeds.
    let mut winners = TreeDict::new(ctx.m());
    let mut expansions = expansions;

    let types: Vec<TypeId> = n_r_global.keys().copied().collect();
    for &c in &types {
        let rate = rates[&c];
        // Merge the shards' per-type dictionaries in shard order.
        let dicts: Vec<TreeDict> = expansions
            .iter_mut()
            .map(|(d, _)| d.remove(&c).unwrap_or_else(|| TreeDict::new(ctx.m())))
            .collect();
        let dict = merge_shard_dicts(dicts, ctx.m());
        patterns_seen += dict.len();
        keys_interned += dict.keys_interned() as u64;
        key_arena_bytes += dict.arena_bytes() as u64;

        // Lines 9–10: estimated scores; keep the partition's top-k.
        let mut local: Vec<(f64, &[u32], &PatternGroup)> = dict
            .iter()
            .map(|(_, key, group)| {
                let est = group.acc.finish_estimated(cfg.scoring.aggregation, rate);
                (est, key, group)
            })
            .collect();
        local.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(b.1))
        });
        local.truncate(cfg.k);

        // Line 11: exact scores for the estimated winners — the sample's
        // own where every root was expanded, re-scored otherwise.
        for (_, key, group) in local {
            let winner = winners.group_mut(key);
            if rate >= 1.0 {
                winner.merge(group);
            } else {
                subtrees_expanded +=
                    exact_pattern_score(ctx, cfg, &partitions, c, key, &mut per_shard, winner);
            }
        }
    }

    // The winners' keys were counted in their partitions.
    let patterns = rank_winners(ctx, cfg, std::slice::from_ref(&winners));
    let mut hot = ctx.hot_stats();
    hot.keys_interned = keys_interned;
    hot.key_arena_bytes = key_arena_bytes;
    SearchResult {
        patterns,
        stats: QueryStats {
            candidate_roots,
            subtrees: subtrees_expanded,
            patterns: patterns_seen,
            combos_tried: patterns_seen,
            combos_pruned: 0,
            per_shard,
            fanout: mode,
            hot,
            elapsed: t0.elapsed(),
        },
    }
}

/// Exact score of one tree pattern (one pattern id per keyword) over a
/// root partition (type `c`), via `Paths(wᵢ, r, Pᵢ)` lookups (root-first
/// index), added into `group`. Returns the number of subtrees
/// re-enumerated, which `per_shard` counts too.
fn exact_pattern_score(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    partitions: &[ShardPartition],
    c: TypeId,
    pattern: &[u32],
    per_shard: &mut [ShardStats],
    group: &mut PatternGroup,
) -> usize {
    let mut rescored = 0usize;
    let mut fold = SubtreeFold::new(ctx.m());
    for (shard_pos, part) in partitions.iter().enumerate() {
        let shard = &ctx.shards[shard_pos];
        let Some((roots, _)) = part.by_type.get(&c) else {
            continue;
        };
        let rescored_before = rescored;
        let walk = shard.walk();
        for r in roots.iter().map(|&j| walk.roots()[j]) {
            let runs = (shard.words.iter().zip(pattern))
                .map(|(w, &p)| w.paths_of_root_pattern(r, PatternId(p)));
            rescored += fold.fold(&shard.words, cfg, r, runs, |_, score| {
                group.add(score);
                ControlFlow::Continue(())
            });
        }
        // Same unit as the headline `stats.subtrees` (tuples enumerated),
        // so the per-shard split always sums to the total.
        per_shard[shard_pos].subtrees += rescored - rescored_before;
    }
    rescored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_enum::linear_enum;
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
    fn exact_mode_matches_linear_enum() {
        let (g, t, idx) = setup();
        for query in [
            "database software company revenue",
            "revenue",
            "database company",
        ] {
            let q = Query::parse(&t, query).unwrap();
            let ctx = QueryContext::new(&g, &idx, &q).unwrap();
            let cfg = SearchConfig::top(100);
            let le = linear_enum(&ctx, &cfg);
            let tk = linear_enum_topk(&ctx, &cfg, &SamplingConfig::exact());
            assert_eq!(le.patterns.len(), tk.patterns.len(), "query {query}");
            for (a, b) in le.patterns.iter().zip(&tk.patterns) {
                assert_eq!(a.key(), b.key());
                assert!((a.score - b.score).abs() < 1e-9);
                assert_eq!(a.num_trees, b.num_trees);
            }
        }
    }

    #[test]
    fn always_sampling_rho_one_is_exact() {
        // Λ = 0 forces the sampling code path; ρ = 1 keeps every root, and
        // estimated == exact.
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(100);
        let le = linear_enum(&ctx, &cfg);
        let tk = linear_enum_topk(&ctx, &cfg, &SamplingConfig::new(0, 1.0, 1));
        assert_eq!(le.patterns.len(), tk.patterns.len());
        for (a, b) in le.patterns.iter().zip(&tk.patterns) {
            assert_eq!(a.key(), b.key());
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_scores_are_exact_for_reported_patterns() {
        // Whatever sampling does to the *selection*, reported scores are
        // recomputed exactly (line 11).
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(100);
        let exact = linear_enum(&ctx, &cfg);
        let sampled = linear_enum_topk(&ctx, &cfg, &SamplingConfig::new(0, 0.5, 7));
        for p in &sampled.patterns {
            let reference = exact
                .patterns
                .iter()
                .find(|e| e.key() == p.key())
                .expect("sampled pattern exists exactly");
            assert!((reference.score - p.score).abs() < 1e-9);
            assert_eq!(reference.num_trees, p.num_trees);
        }
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let (g, t, idx) = setup();
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let cfg = SearchConfig::top(10);
        let a = linear_enum_topk(&ctx, &cfg, &SamplingConfig::new(0, 0.4, 99));
        let b = linear_enum_topk(&ctx, &cfg, &SamplingConfig::new(0, 0.4, 99));
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.key(), y.key());
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
