//! The threaded fan-out path keeps its coverage.
//!
//! Every equivalence suite in this repo runs on graphs far below
//! [`FANOUT_MIN_ROOTS`], so in production mode they all execute inline.
//! This module drives the kernels' `*_in` routines in **both** modes on a
//! generated multi-shard graph and asserts the answers are identical to
//! the bit — to each other and to a `shards(1)` index — plus one case on
//! a graph large enough that [`QueryContext::fanout`] itself fans out.

#![cfg(test)]

use crate::bound::pattern_enum_pruned_in;
use crate::common::{cores, Fanout, QueryContext, FANOUT_MIN_ROOTS};
use crate::counting::count_patterns_in;
use crate::individual::{top_individual_in, ScoredTree};
use crate::linear_enum::linear_enum_in;
use crate::pattern_enum::pattern_enum_in;
use crate::request::{AlgorithmChoice, SearchRequest};
use crate::subtree::{Row, ValidSubtree};
use crate::topk::{linear_enum_topk_in, SamplingConfig};
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

/// Which of a kernel's runs must report the same work counters.
#[derive(Clone, Copy, PartialEq)]
enum Counters {
    /// Inline, fanned out and single-shard alike, per shard too.
    EveryMode,
    /// Inline and single-shard. Fanned out, the pruned kernel's workers
    /// race on the shared threshold, so what a threaded run got to see is
    /// its own.
    Inline,
}

/// Run `kernel` inline and fanned out over `ctx`, and inline over the
/// single-shard `reference`; all three answers must agree.
fn check_kernel(
    label: &str,
    ctx: &QueryContext<'_>,
    reference: &QueryContext<'_>,
    kernel: impl Fn(&QueryContext<'_>, Fanout) -> SearchResult,
    counters: Counters,
) {
    let [inline, threads] = MODES.map(|mode| {
        let r = kernel(ctx, mode);
        assert_eq!(r.stats.fanout, mode, "{label}: reported mode");
        r
    });
    let single = kernel(reference, Fanout::Inline);
    assert_eq!(answer_bits(&inline), answer_bits(&threads), "{label}");
    assert_eq!(answer_bits(&inline), answer_bits(&single), "{label} vs S=1");
    assert_eq!(inline.stats.per_shard.len(), ctx.shards.len(), "{label}");
    assert_eq!(threads.stats.per_shard.len(), ctx.shards.len(), "{label}");
    let mut same_work = vec![(&inline, &single)];
    if counters == Counters::EveryMode {
        assert_eq!(inline.stats.per_shard, threads.stats.per_shard, "{label}");
        same_work.push((&inline, &threads));
    }
    for (a, b) in same_work {
        let (a, b) = (&a.stats, &b.stats);
        assert_eq!(a.candidate_roots, b.candidate_roots, "{label}");
        assert_eq!(a.subtrees, b.subtrees, "{label}");
        assert_eq!(a.patterns, b.patterns, "{label}");
        assert_eq!(a.combos_tried, b.combos_tried, "{label}");
        assert_eq!(a.combos_pruned, b.combos_pruned, "{label}");
        assert_eq!(a.hot.keys_interned, b.hot.keys_interned, "{label}");
    }
    // The per-shard split accounts for the totals, however many workers
    // produced it.
    for stats in [&inline.stats, &threads.stats, &single.stats] {
        let roots: usize = stats.per_shard.iter().map(|s| s.candidate_roots).sum();
        let subtrees: usize = stats.per_shard.iter().map(|s| s.subtrees).sum();
        assert_eq!(roots, stats.candidate_roots, "{label}");
        assert_eq!(subtrees, stats.subtrees, "{label}");
    }
}

#[test]
fn kernels_answer_identically_inline_and_fanned_out() {
    let sharded = wiki_engine(3);
    let single = wiki_engine(1);
    assert_eq!(sharded.num_shards(), 3);
    let cfg = SearchConfig::top(10);
    let sampled = SamplingConfig::new(0, 0.5, 13);
    let mut answered = 0;
    for q in queries(&sharded) {
        let ctx = QueryContext::new(sharded.graph(), sharded.index(), &q).unwrap();
        let reference = QueryContext::new(single.graph(), single.index(), &q).unwrap();
        assert!(ctx.shards.len() > 1, "query must span shards");
        assert_eq!(ctx.fanout(), Fanout::Inline, "far below the break-even");

        check_kernel(
            "linear_enum",
            &ctx,
            &reference,
            |c, mode| linear_enum_in(c, &cfg, mode),
            Counters::EveryMode,
        );
        check_kernel(
            "pattern_enum",
            &ctx,
            &reference,
            |c, mode| pattern_enum_in(c, &cfg, mode),
            Counters::EveryMode,
        );
        check_kernel(
            "pattern_enum_pruned",
            &ctx,
            &reference,
            |c, mode| pattern_enum_pruned_in(c, &cfg, mode),
            Counters::Inline,
        );
        for (label, samp) in [
            ("topk[exact]", SamplingConfig::exact()),
            ("topk[sampled]", sampled),
        ] {
            check_kernel(
                label,
                &ctx,
                &reference,
                |c, mode| linear_enum_topk_in(c, &cfg, &samp, mode),
                Counters::EveryMode,
            );
        }

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
/// one-keyword query whose candidate roots are every one of them.
fn wide_engine(shards: usize) -> SearchEngine {
    let n = FANOUT_MIN_ROOTS + 1_000;
    let mut b = GraphBuilder::with_capacity(n, 0);
    let types = [b.add_type("Alpha"), b.add_type("Beta"), b.add_type("Gamma")];
    for i in 0..n {
        b.add_node(types[i % types.len()], "fanoutword");
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

    for choice in [
        AlgorithmChoice::Auto,
        AlgorithmChoice::PatternEnum,
        AlgorithmChoice::PatternEnumPruned,
        AlgorithmChoice::LinearEnum,
        AlgorithmChoice::LinearEnumTopK,
        AlgorithmChoice::Baseline,
    ] {
        let request = SearchRequest::query(q.clone()).k(5).algorithm(choice);
        let wide = sharded.respond(&request).unwrap();
        assert_eq!(wide.stats.fanout, expected, "{choice:?}");
        let one = single.respond(&request).unwrap();
        assert_eq!(one.stats.fanout, Fanout::Inline, "{choice:?}: one shard");
        assert_eq!(wide.patterns.len(), 3, "{choice:?}: one pattern per type");
        for (a, b) in wide.patterns.iter().zip(&one.patterns) {
            assert_eq!(a.key(), b.key(), "{choice:?}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{choice:?}");
            assert_eq!(a.num_trees, b.num_trees, "{choice:?}");
        }
    }
    // And the answer the threads gave is the inline one.
    let cfg = SearchConfig::top(5);
    let [inline, threads] = MODES.map(|mode| linear_enum_in(&ctx, &cfg, mode));
    assert_eq!(answer_bits(&inline), answer_bits(&threads));
    assert_eq!(inline.stats.per_shard, threads.stats.per_shard);
}
