//! The threaded fan-out path keeps its coverage.
//!
//! Every equivalence suite in this repo runs on graphs far below
//! [`FANOUT_MIN_ROOTS`], so in production mode they all execute inline.
//! This module drives the root-first kernels' `*_in` routines in **both**
//! modes on a generated multi-shard graph and asserts the answers are
//! identical to the bit — to each other and to a `shards(1)` index — and
//! checks both `PATTERNENUM` kernels, which always run inline, against
//! the `shards(1)` index the same way. One case runs on a graph large
//! enough that [`QueryContext::fanout`] itself fans out, where
//! `PATTERNENUM` still runs inline and counts what a `shards(1)` run
//! counts.

#![cfg(test)]

use crate::bound::pattern_enum_pruned;
use crate::common::{cores, Fanout, QueryContext, FANOUT_MIN_ROOTS};
use crate::counting::count_patterns_in;
use crate::engine::Algorithm;
use crate::individual::{top_individual_in, ScoredTree};
use crate::linear_enum::linear_enum_in;
use crate::pattern_enum::pattern_enum;
use crate::request::{AlgorithmChoice, SearchRequest};
use crate::result::QueryStats;
use crate::subtree::{Row, ValidSubtree};
use crate::topk::SamplingConfig;
use crate::{EngineBuilder, Query, SearchConfig, SearchEngine, SearchResult};
use patternkb_datagen::queries::QueryGenerator;
use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::{GraphBuilder, NodeId};

const MODES: [Fanout; 2] = [Fanout::Inline, Fanout::Threads];
const D: usize = 3;

fn wiki_engine(shards: usize) -> SearchEngine {
    let g = wiki(&WikiConfig {
        entities: 1_500,
        ..WikiConfig::tiny(7)
    });
    EngineBuilder::new()
        .graph(g)
        .height(D)
        .threads(1)
        .shards(shards)
        .build()
        .unwrap()
}

fn queries(e: &SearchEngine) -> Vec<Query> {
    let mut generator = QueryGenerator::new(e.graph(), e.text(), D, 11);
    let specs = generator.batch(4, 3);
    assert!(specs.len() >= 8, "generator found too few queries");
    specs
        .into_iter()
        .map(|s| Query::from_ids(s.keywords))
        .collect()
}

/// A subtree as its score bits, root and nodes (its paths end to end; the
/// pattern key beside it fixes where each path starts).
type TreeBits = (u64, NodeId, Vec<NodeId>);

fn row_bits(t: Row<'_>) -> TreeBits {
    (t.score.to_bits(), t.root, t.nodes.to_vec())
}

fn tree_bits(t: &ValidSubtree) -> TreeBits {
    let nodes = t.paths.iter().flat_map(|p| p.nodes.iter().copied());
    (t.score.to_bits(), t.root, nodes.collect())
}

/// Everything an answer says, with scores as bits: pattern keys in rank
/// order, `|trees(P)|`, and the materialized rows in tree order.
fn answer_bits(r: &SearchResult) -> Vec<(Vec<u32>, u64, usize, Vec<TreeBits>)> {
    r.patterns
        .iter()
        .map(|p| {
            (
                p.key(),
                p.score.to_bits(),
                p.num_trees,
                p.trees.iter().map(row_bits).collect(),
            )
        })
        .collect()
}

fn scored_bits(trees: &[ScoredTree]) -> Vec<(Vec<u32>, TreeBits)> {
    trees
        .iter()
        .map(|t| (t.pattern_key.clone(), tree_bits(&t.tree)))
        .collect()
}

/// `a` and `b` counted the same work.
fn assert_same_work(label: &str, a: &QueryStats, b: &QueryStats) {
    assert_eq!(a.candidate_roots, b.candidate_roots, "{label}");
    assert_eq!(a.subtrees, b.subtrees, "{label}");
    assert_eq!(a.patterns, b.patterns, "{label}");
    assert_eq!(a.combos_tried, b.combos_tried, "{label}");
    assert_eq!(a.combos_pruned, b.combos_pruned, "{label}");
    assert_eq!(a.hot.keys_interned, b.hot.keys_interned, "{label}");
}

/// `sharded`, a run over `ctx`, and `single`, the same kernel's run over
/// a `shards(1)` index, agree to the bit and count the same work; each
/// one's per-shard split accounts for its totals.
fn check_one_shard(
    label: &str,
    ctx: &QueryContext<'_>,
    sharded: &SearchResult,
    single: &SearchResult,
) {
    assert_eq!(answer_bits(sharded), answer_bits(single), "{label} vs S=1");
    assert_eq!(sharded.stats.per_shard.len(), ctx.shards.len(), "{label}");
    assert_same_work(label, &sharded.stats, &single.stats);
    for stats in [&sharded.stats, &single.stats] {
        let roots: usize = stats.per_shard.iter().map(|s| s.candidate_roots).sum();
        let subtrees: usize = stats.per_shard.iter().map(|s| s.subtrees).sum();
        assert_eq!(roots, stats.candidate_roots, "{label}");
        assert_eq!(subtrees, stats.subtrees, "{label}");
    }
}

/// Run a root-first `kernel` inline and fanned out over `ctx`, and inline
/// over the single-shard `reference`: all three answers agree, and so
/// does the work they count, per shard too.
fn check_kernel(
    label: &str,
    ctx: &QueryContext<'_>,
    reference: &QueryContext<'_>,
    kernel: impl Fn(&QueryContext<'_>, Fanout) -> SearchResult,
) {
    let [inline, threads] = MODES.map(|mode| {
        let r = kernel(ctx, mode);
        assert_eq!(r.stats.fanout, mode, "{label}: reported mode");
        r
    });
    assert_eq!(answer_bits(&inline), answer_bits(&threads), "{label}");
    assert_eq!(inline.stats.per_shard, threads.stats.per_shard, "{label}");
    assert_same_work(label, &inline.stats, &threads.stats);
    check_one_shard(label, ctx, &inline, &kernel(reference, Fanout::Inline));
}

/// Both `PATTERNENUM` kernels, by name.
const PATTERN_KERNELS: [(&str, fn(&QueryContext<'_>, &SearchConfig) -> SearchResult); 2] = [
    ("pattern_enum", pattern_enum),
    ("pattern_enum_pruned", pattern_enum_pruned),
];

#[test]
fn kernels_answer_identically_inline_and_fanned_out() {
    let sharded = wiki_engine(3);
    let single = wiki_engine(1);
    assert_eq!(sharded.num_shards(), 3);
    let cfg = SearchConfig::top(10);
    let sampled = SamplingConfig::new(0, 0.5, 13);
    // A finite Λ no type reaches: the partitioned path, unsampled.
    let unsampled = SamplingConfig::new(1 << 40, 0.5, 13);
    let mut answered = 0;
    for q in queries(&sharded) {
        let ctx = QueryContext::new(sharded.graph(), sharded.index(), &q).unwrap();
        let reference = QueryContext::new(single.graph(), single.index(), &q).unwrap();
        assert!(ctx.shards.len() > 1, "query must span shards");
        assert_eq!(ctx.fanout(), Fanout::Inline, "far below the break-even");

        check_kernel("linear_enum", &ctx, &reference, |c, mode| {
            linear_enum_in(c, &cfg, &SamplingConfig::exact(), mode)
        });
        for (label, kernel) in PATTERN_KERNELS {
            let sharded = kernel(&ctx, &cfg);
            assert_eq!(sharded.stats.fanout, Fanout::Inline, "{label}");
            check_one_shard(label, &ctx, &sharded, &kernel(&reference, &cfg));
        }
        for (label, samp) in [("topk[unsampled]", unsampled), ("topk[sampled]", sampled)] {
            check_kernel(label, &ctx, &reference, |c, mode| {
                linear_enum_in(c, &cfg, &samp, mode)
            });
        }
        let label = "topk[unsampled] vs linear_enum";
        let [exact, partitioned] = [SamplingConfig::exact(), unsampled]
            .map(|samp| linear_enum_in(&ctx, &cfg, &samp, Fanout::Inline));
        assert_eq!(answer_bits(&exact), answer_bits(&partitioned), "{label}");
        assert_same_work(label, &exact.stats, &partitioned.stats);

        let [inline, threads] = MODES.map(|mode| top_individual_in(&ctx, &cfg, 10, mode));
        let one = top_individual_in(&reference, &cfg, 10, Fanout::Inline);
        assert_eq!(scored_bits(&inline), scored_bits(&threads));
        assert_eq!(scored_bits(&inline), scored_bits(&one));

        let [inline, threads] = MODES.map(|mode| count_patterns_in(&ctx, mode));
        assert_eq!(inline, threads);
        assert_eq!(inline, count_patterns_in(&reference, Fanout::Inline));
        answered += usize::from(inline > 0);
    }
    assert!(answered >= 8, "only {answered} queries had answers");
}

/// `FANOUT_MIN_ROOTS + 1_000` isolated nodes all carrying one word: a
/// one-keyword query whose candidate roots are every one of them, and
/// whose one pattern per type scores by its type's share of the nodes —
/// a half for the first type, a quarter for each of the others.
fn wide_engine(shards: usize) -> SearchEngine {
    let n = FANOUT_MIN_ROOTS + 1_000;
    let mut b = GraphBuilder::with_capacity(n, 0);
    let types = [b.add_type("Alpha"), b.add_type("Beta"), b.add_type("Gamma")];
    for i in 0..n {
        b.add_node(types[(i % 4).saturating_sub(1)], "fanoutword");
    }
    EngineBuilder::new()
        .graph(b.build())
        .height(2)
        .threads(1)
        .shards(shards)
        .build()
        .unwrap()
}

#[test]
fn the_production_gate_fans_out_a_wide_query() {
    let sharded = wide_engine(2);
    let single = wide_engine(1);
    let q = sharded.parse("fanoutword").unwrap();
    let ctx = QueryContext::new(sharded.graph(), sharded.index(), &q).unwrap();
    assert!(ctx.candidate_roots().len() >= FANOUT_MIN_ROOTS);
    // The gate never spawns on a machine with nowhere to run the thread.
    let expected = if cores() > 1 {
        Fanout::Threads
    } else {
        Fanout::Inline
    };
    assert_eq!(ctx.fanout(), expected);

    for (choice, fanout) in [
        (AlgorithmChoice::Auto, Fanout::Inline),
        (AlgorithmChoice::PatternEnum, Fanout::Inline),
        (AlgorithmChoice::PatternEnumPruned, Fanout::Inline),
        (AlgorithmChoice::LinearEnum, expected),
        (AlgorithmChoice::LinearEnumTopK, expected),
        (AlgorithmChoice::Baseline, expected),
    ] {
        let request = SearchRequest::query(q.clone()).k(5).algorithm(choice);
        let wide = sharded.respond(&request).unwrap();
        assert_eq!(wide.stats.fanout, fanout, "{choice:?}");
        let one = single.respond(&request).unwrap();
        assert_eq!(one.stats.fanout, Fanout::Inline, "{choice:?}: one shard");
        assert_eq!(wide.patterns.len(), 3, "{choice:?}: one pattern per type");
        for (a, b) in wide.patterns.iter().zip(&one.patterns) {
            assert_eq!(a.key(), b.key(), "{choice:?}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{choice:?}");
            assert_eq!(a.num_trees, b.num_trees, "{choice:?}");
        }
        if choice == AlgorithmChoice::Auto {
            assert!(matches!(wide.algorithm, Algorithm::PatternEnumPruned));
        }
    }
    // And the answer the threads gave is the inline one.
    let cfg = SearchConfig::top(5);
    let [inline, threads] =
        MODES.map(|mode| linear_enum_in(&ctx, &cfg, &SamplingConfig::exact(), mode));
    assert_eq!(answer_bits(&inline), answer_bits(&threads));
    assert_eq!(inline.stats.per_shard, threads.stats.per_shard);
}

/// On the wide query with k below its pattern count, pruned `PATTERNENUM`
/// prunes, and two runs over the sharded index count exactly what the
/// `shards(1)` run counts: one walk, one threshold, the same offers.
#[test]
fn a_wide_pruned_walk_counts_as_one_shard_does() {
    let sharded = wide_engine(2);
    let single = wide_engine(1);
    let q = sharded.parse("fanoutword").unwrap();
    let cfg = SearchConfig::top(1);
    let one = QueryContext::new(single.graph(), single.index(), &q).unwrap();
    let one = pattern_enum_pruned(&one, &cfg);
    assert!(cfg.k < one.stats.combos_tried, "{:?}", one.stats);
    assert!(one.stats.combos_pruned > 0, "{:?}", one.stats);
    let per_shard = [(); 2].map(|()| {
        let ctx = QueryContext::new(sharded.graph(), sharded.index(), &q).unwrap();
        let wide = pattern_enum_pruned(&ctx, &cfg);
        assert_eq!(wide.stats.fanout, Fanout::Inline);
        check_one_shard("pattern_enum_pruned", &ctx, &wide, &one);
        wide.stats.per_shard
    });
    assert_eq!(per_shard[0], per_shard[1]);
}
