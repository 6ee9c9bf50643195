//! Sharded execution is **bit-identical** to single-shard execution.
//!
//! For every algorithm (baseline, `PATTERNENUM`, pruned `PATTERNENUM`,
//! `LINEARENUM`, `LINEARENUM-TOPK` exact and sampled, individual
//! subtrees), partitioning the index into S ∈ {2, 3, 7}
//! root-range shards must return exactly the same answers — same
//! patterns, same score **bits**, same order, same materialized rows — as
//! S = 1. Exercised on the paper's Figure-1 graph and on the Zipf-skewed
//! synthetic Wiki KB (datagen's generators drive every choice through a
//! Zipf sampler), plus a proptest sweep over random Zipf graphs, seeds,
//! and queries.

use patternkb_datagen::figure1;
use patternkb_datagen::queries::QueryGenerator;
use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::KnowledgeGraph;
use patternkb_index::{build_indexes, BuildConfig, PathIndexes};
use patternkb_search::baseline::baseline;
use patternkb_search::bound::pattern_enum_pruned;
use patternkb_search::common::QueryContext;
use patternkb_search::individual::top_individual;
use patternkb_search::linear_enum::linear_enum;
use patternkb_search::pattern_enum::pattern_enum;
use patternkb_search::topk::SamplingConfig;
use patternkb_search::{Query, SearchConfig, SearchResult};
use patternkb_text::{SynonymTable, TextIndex};

const SHARD_COUNTS: [usize; 3] = [2, 3, 7];

fn index(g: &KnowledgeGraph, t: &TextIndex, d: usize, shards: usize) -> PathIndexes {
    build_indexes(
        g,
        t,
        &BuildConfig {
            d,
            threads: 1,
            shards,
        },
    )
}

/// Assert two results are identical to the bit: patterns, order, scores,
/// tree counts, and materialized rows.
fn assert_identical(a: &SearchResult, b: &SearchResult, label: &str) {
    assert_eq!(a.patterns.len(), b.patterns.len(), "{label}: result size");
    for (x, y) in a.patterns.iter().zip(&b.patterns) {
        assert_eq!(x.key(), y.key(), "{label}: pattern identity/order");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}: score bits ({} vs {})",
            x.score,
            y.score
        );
        assert_eq!(x.num_trees, y.num_trees, "{label}: |trees(P)|");
        assert_eq!(x.trees.len(), y.trees.len(), "{label}: materialized rows");
        for (ta, tb) in x.trees.iter().zip(&y.trees) {
            assert_eq!(ta.root, tb.root, "{label}: row root");
            assert_eq!(ta.score.to_bits(), tb.score.to_bits(), "{label}: row score");
            let (paths_a, paths_b) = (ta.paths(&x.pattern), tb.paths(&y.pattern));
            assert_eq!(paths_a.len(), paths_b.len(), "{label}: row paths");
            for (pa, pb) in paths_a.zip(paths_b) {
                assert_eq!(pa.nodes, pb.nodes, "{label}: row path nodes");
                assert_eq!(pa.edge_terminal, pb.edge_terminal, "{label}: row kind");
            }
        }
    }
    assert_eq!(a.stats.subtrees, b.stats.subtrees, "{label}: subtree count");
    assert_eq!(
        a.stats.candidate_roots, b.stats.candidate_roots,
        "{label}: candidate roots"
    );
}

/// Run every algorithm at every shard count against the single-shard
/// reference for one `(graph, query)` pair.
fn check_all_algorithms(g: &KnowledgeGraph, t: &TextIndex, d: usize, q: &Query, k: usize) {
    let reference = index(g, t, d, 1);
    let cfg = SearchConfig::top(k);
    let Some(ref_ctx) = QueryContext::new(g, &reference, q) else {
        // Unanswerable in the reference ⇒ unanswerable everywhere.
        for &shards in &SHARD_COUNTS {
            let idx = index(g, t, d, shards);
            assert!(QueryContext::new(g, &idx, q).is_none());
        }
        return;
    };

    let ref_le = linear_enum(&ref_ctx, &cfg, &SamplingConfig::exact());
    let ref_pe = pattern_enum(&ref_ctx, &cfg);
    let ref_pruned = pattern_enum_pruned(&ref_ctx, &cfg);
    let ref_sampled = linear_enum(&ref_ctx, &cfg, &SamplingConfig::new(0, 0.5, 13));
    let ref_base = baseline(g, t, q, &cfg, d, reference.bounds());
    let ref_trees = top_individual(&ref_ctx, &cfg, k);

    for &shards in &SHARD_COUNTS {
        let idx = index(g, t, d, shards);
        let ctx = QueryContext::new(g, &idx, q).expect("answerable stays answerable");
        let label = |algo: &str| format!("{algo} shards={shards} k={k}");

        assert_identical(
            &ref_le,
            &linear_enum(&ctx, &cfg, &SamplingConfig::exact()),
            &label("linear_enum"),
        );
        assert_identical(&ref_pe, &pattern_enum(&ctx, &cfg), &label("pattern_enum"));
        // Pruned: pruning nondeterminism may differ, the top-k must not.
        let pruned = pattern_enum_pruned(&ctx, &cfg);
        assert_eq!(ref_pruned.patterns.len(), pruned.patterns.len());
        for (x, y) in ref_pruned.patterns.iter().zip(&pruned.patterns) {
            assert_eq!(x.key(), y.key(), "{}", label("pattern_enum_pruned"));
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.num_trees, y.num_trees);
        }
        // A finite Λ no type reaches: the partitioned path, unsampled.
        assert_identical(
            &ref_le,
            &linear_enum(&ctx, &cfg, &SamplingConfig::new(1 << 40, 0.5, 13)),
            &label("linear_enum_topk[unsampled]"),
        );
        assert_identical(
            &ref_sampled,
            &linear_enum(&ctx, &cfg, &SamplingConfig::new(0, 0.5, 13)),
            &label("linear_enum_topk[rho=0.5]"),
        );
        assert_identical(
            &ref_base,
            &baseline(g, t, q, &cfg, d, idx.bounds()),
            &label("baseline"),
        );

        let trees = top_individual(&ctx, &cfg, k);
        assert_eq!(ref_trees.len(), trees.len(), "{}", label("top_individual"));
        for (a, b) in ref_trees.iter().zip(&trees) {
            assert_eq!(a.tree.root, b.tree.root, "{}", label("top_individual"));
            assert_eq!(a.tree.score.to_bits(), b.tree.score.to_bits());
            assert_eq!(a.pattern_key, b.pattern_key);
        }
    }
}

#[test]
fn figure1_all_algorithms_all_shard_counts() {
    let (g, _) = figure1();
    let t = TextIndex::build(&g, SynonymTable::new());
    for query in [
        "database software company revenue",
        "database company",
        "revenue",
        "bill gates",
        "software",
        "oracle gates", // unanswerable multi-keyword
    ] {
        let q = Query::parse(&t, query).unwrap();
        for k in [1, 3, 100] {
            check_all_algorithms(&g, &t, 3, &q, k);
        }
    }
}

#[test]
fn zipf_dataset_all_algorithms_all_shard_counts() {
    // The Zipf-skewed Wiki KB: skewed types, hub entities, head-heavy
    // vocabulary — the shape the ROADMAP's sharding work targets.
    let g = wiki(&WikiConfig::tiny(5));
    let t = TextIndex::build(&g, SynonymTable::new());
    let mut qg = QueryGenerator::new(&g, &t, 3, 17);
    let mut checked = 0;
    for m in [1usize, 2, 3] {
        for _ in 0..3 {
            let Some(spec) = qg.anchored(m) else { continue };
            let q = Query::from_ids(spec.keywords);
            check_all_algorithms(&g, &t, 3, &q, 10);
            checked += 1;
        }
    }
    assert!(checked >= 5, "zipf generator produced too few queries");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random Zipf graphs × random queries × S ∈ {2, 3, 7}: sharded
        /// results stay bit-identical to S = 1 for every algorithm.
        #[test]
        fn sharded_equals_single_shard(
            seed in 0u64..1000,
            query_seed in 0u64..1000,
            m in 1usize..4,
            k in prop_oneof![Just(1usize), Just(5), Just(50)],
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
            if let Some(spec) = qg.anchored(m) {
                let q = Query::from_ids(spec.keywords);
                check_all_algorithms(&g, &t, 2, &q, k);
            }
        }
    }
}
