//! A cached answer outlives exactly the ingests that spare its words.
//!
//! An answer is a function of its keywords' posting lists, so an entry
//! must stay a hit across every ingest whose refresh replaced none of its
//! words' lists, on any shard, and must miss after one that replaced any.
//! A schema-adding delta that brings new vocabulary (word ids shift) and a
//! `Recompute` delta (every cached PageRank moves) replace every list.
//!
//! Random delta chains run through `SharedEngine::ingest_with` at shard
//! counts {1, 2, 3}. After each delta every cached request is asked again.
//! Which lists were replaced is read off the two snapshots, by pointer,
//! independently of what the refresh reports. Every hit must equal, bit
//! for bit, an uncached `respond` on the new snapshot: patterns, score
//! bits, rows, execution counters and composed tables.

use patternkb_datagen::queries::QueryGenerator;
use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::mutate::{DeltaError, GraphDelta, PagerankMode};
use patternkb_graph::{AttrId, KnowledgeGraph, NodeId, TypeId};
use patternkb_search::{
    AlgorithmChoice, CacheOutcome, EngineBuilder, SearchEngine, SearchRequest, SearchResponse,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CHOICES: [AlgorithmChoice; 6] = [
    AlgorithmChoice::Auto,
    AlgorithmChoice::Baseline,
    AlgorithmChoice::PatternEnum,
    AlgorithmChoice::PatternEnumPruned,
    AlgorithmChoice::LinearEnum,
    AlgorithmChoice::LinearEnumTopK,
];

/// One step of a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// A new entity whose name is a word of a cached query.
    CachedWord,
    /// A new entity named with a word the graph has never seen.
    NewWord,
    /// A new edge between two existing nodes.
    AddEdge,
    /// The removal of an existing edge.
    RemoveEdge,
    /// A new type, with new vocabulary, and an entity of it.
    Schema,
    /// A new entity, applied with recomputed PageRank.
    Recompute,
}

const STEPS: [Step; 6] = [
    Step::CachedWord,
    Step::NewWord,
    Step::AddEdge,
    Step::RemoveEdge,
    Step::Schema,
    Step::Recompute,
];

fn small_wiki(seed: u64) -> KnowledgeGraph {
    wiki(&WikiConfig {
        entities: 60,
        types: 4,
        attrs_per_type: 3,
        attr_pool: 6,
        vocab: 30,
        avg_degree: 3.0,
        value_pool: 12,
        seed,
        ..WikiConfig::default()
    })
}

/// A word no generated graph contains: letters only, one per `n`.
fn fresh_word(n: usize) -> String {
    let mut word = String::from("zyzz");
    let mut n = n;
    loop {
        word.push(char::from(b'a' + (n % 26) as u8));
        n /= 26;
        if n == 0 {
            return word;
        }
    }
}

/// Distinct anchored queries of one to three keywords, as text, so that
/// every step parses them against its own vocabulary.
fn query_texts(engine: &SearchEngine, seed: u64) -> Vec<String> {
    let vocab = engine.text().vocab();
    let mut generator = QueryGenerator::new(engine.graph(), engine.text(), engine.d(), seed);
    let mut texts: Vec<String> = Vec::new();
    for m in [1, 2, 3, 1, 2, 1] {
        if let Some(spec) = generator.anchored(m) {
            let words: Vec<&str> = spec.keywords.iter().map(|&w| vocab.resolve(w)).collect();
            let text = words.join(" ");
            if !texts.contains(&text) {
                texts.push(text);
            }
        }
    }
    assert!(texts.len() >= 3, "generator produced too few queries");
    texts
}

/// The delta of `step` against `g`, and the PageRank mode to apply it in.
fn plan(
    step: Step,
    g: &KnowledgeGraph,
    queries: &[String],
    rng: &mut SmallRng,
    fresh: &mut usize,
) -> (GraphDelta, PagerankMode) {
    let mut next_word = || {
        *fresh += 1;
        fresh_word(*fresh)
    };
    let entity_type = TypeId(rng.gen_range(1..g.num_types() as u32));
    let mut d = GraphDelta::new(g);
    let mut mode = PagerankMode::Frozen;
    match step {
        Step::CachedWord => {
            let query = &queries[rng.gen_range(0..queries.len())];
            let word = query.split(' ').next().unwrap();
            d.add_node(entity_type, word).unwrap();
        }
        Step::NewWord => {
            d.add_node(entity_type, &next_word()).unwrap();
        }
        Step::AddEdge => loop {
            let n = g.num_nodes() as u32;
            let (s, t) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            let a = AttrId(rng.gen_range(0..g.num_attrs() as u32));
            if s != t && !g.has_edge(s, a, t) {
                d.add_edge(s, a, t).unwrap();
                break;
            }
        },
        Step::RemoveEdge => {
            let edges: Vec<_> = g.edges().collect();
            let e = &edges[rng.gen_range(0..edges.len())];
            d.remove_edge(e.source, e.attr, e.target).unwrap();
        }
        Step::Schema => {
            let lab = d.add_type(&next_word());
            d.add_node(lab, &next_word()).unwrap();
        }
        Step::Recompute => {
            d.add_node(entity_type, &next_word()).unwrap();
            mode = PagerankMode::Recompute;
        }
    }
    (d, mode)
}

/// Whether some shard's list of a word of `text` differs between the two
/// snapshots (by identity: an unreplaced list is the same allocation).
fn replaces_a_list_of(before: &SearchEngine, after: &SearchEngine, text: &str) -> bool {
    let query = after.parse(text).unwrap();
    query.keywords.iter().any(|&w| {
        (0..after.num_shards()).any(|s| {
            match (before.index().word_in(s, w), after.index().word_in(s, w)) {
                (Some(a), Some(b)) => !std::sync::Arc::ptr_eq(&a, &b),
                (a, b) => a.is_some() != b.is_some(),
            }
        })
    })
}

/// Everything of a response that is a function of the query and the data.
fn assert_identical(hit: &SearchResponse, fresh: &SearchResponse, label: &str) {
    assert_eq!(
        hit.patterns.len(),
        fresh.patterns.len(),
        "{label}: result size"
    );
    for (x, y) in hit.patterns.iter().zip(&fresh.patterns) {
        assert_eq!(x.key(), y.key(), "{label}: pattern order");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: score bits");
        assert_eq!(x.num_trees, y.num_trees, "{label}: |trees(P)|");
        assert_eq!(x.trees, y.trees, "{label}: materialized rows");
    }
    assert_eq!(hit.tables, fresh.tables, "{label}: tables");
    assert_eq!(
        format!("{:?}", hit.algorithm),
        format!("{:?}", fresh.algorithm),
        "{label}: algorithm"
    );
    let (a, b) = (&hit.stats, &fresh.stats);
    assert_eq!(
        (a.candidate_roots, a.subtrees, a.patterns),
        (b.candidate_roots, b.subtrees, b.patterns),
        "{label}: stats"
    );
    assert_eq!(
        (a.combos_tried, a.combos_pruned),
        (b.combos_tried, b.combos_pruned),
        "{label}: stats"
    );
    assert_eq!(a.per_shard, b.per_shard, "{label}: per-shard stats");
    assert_eq!(a.fanout, b.fanout, "{label}: fanout");
    assert_eq!(a.hot, b.hot, "{label}: hot-path stats");
}

/// Run `steps` over a fresh `shards`-shard engine, checking every cached
/// request after each one. Returns how many re-asks hit and missed.
fn check_chain(seed: u64, steps: &[Step], shards: usize) -> (u64, u64) {
    let shared = EngineBuilder::new()
        .graph(small_wiki(seed))
        .threads(1)
        .shards(shards)
        .build_shared()
        .unwrap();
    let queries = query_texts(&shared.snapshot(), seed);
    let requests: Vec<(String, SearchRequest)> = queries
        .iter()
        .flat_map(|text| {
            CHOICES.into_iter().map(move |choice| {
                let request = SearchRequest::text(text).k(5).algorithm(choice);
                (text.clone(), request)
            })
        })
        .collect();
    for (_, request) in &requests {
        assert_eq!(shared.respond(request).unwrap().cache, CacheOutcome::Miss);
    }

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xCA77);
    let mut fresh = 0;
    let mut total = (0, 0);
    for (i, &step) in steps.iter().enumerate() {
        let before = shared.snapshot();
        let (delta, mode) = plan(step, before.graph(), &queries, &mut rng, &mut fresh);
        let counted = shared.cache_stats();
        let outcome = shared
            .ingest_with(mode, |snap| {
                assert_eq!(snap.version(), before.version());
                Ok::<_, DeltaError>(delta.clone())
            })
            .unwrap();
        let after = shared.snapshot();
        assert_eq!(after.version(), outcome.version);

        let every_list = matches!(step, Step::Schema | Step::Recompute);
        let (mut hits, mut misses) = (0, 0);
        for (text, request) in &requests {
            let label = format!(
                "seed {seed} shards {shards} step {i} {step:?} {:?} q={text:?}",
                request.algorithm
            );
            let replaced = every_list || replaces_a_list_of(&before, &after, text);
            let served = shared.respond(request).unwrap();
            let uncached = after.respond(request).unwrap();
            assert_identical(&served, &uncached, &label);
            let expected = if replaced {
                misses += 1;
                CacheOutcome::Miss
            } else {
                hits += 1;
                CacheOutcome::Hit
            };
            assert_eq!(served.cache, expected, "{label}");
        }
        // The carry counted each entry once, the way the lookups found it.
        let now = shared.cache_stats();
        assert_eq!(now.carried - counted.carried, hits, "seed {seed} step {i}");
        assert_eq!(
            now.invalidated - counted.invalidated,
            misses,
            "seed {seed} step {i}"
        );
        total = (total.0 + hits, total.1 + misses);
    }
    total
}

#[test]
fn every_kind_of_delta_carries_or_invalidates_exactly() {
    use Step::*;
    let chain = [
        NewWord, CachedWord, AddEdge, NewWord, RemoveEdge, Schema, NewWord, Recompute, NewWord,
    ];
    for shards in [1usize, 2, 3] {
        let (hits, misses) = check_chain(7, &chain, shards);
        // Both outcomes occur, or the chain would prove nothing.
        assert!(
            hits >= 2 * CHOICES.len() as u64,
            "shards {shards}: {hits} hits"
        );
        assert!(
            misses >= 2 * CHOICES.len() as u64,
            "shards {shards}: {misses} misses"
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random delta chains, at 1, 2 and 3 shards: every hit is the
        /// uncached answer, and exactly the spliced queries miss.
        #[test]
        fn hits_after_random_delta_chains_are_fresh_answers(
            seed in 0u64..500,
            steps in proptest::collection::vec(0usize..STEPS.len(), 1..6),
        ) {
            let steps: Vec<Step> = steps.into_iter().map(|s| STEPS[s]).collect();
            for shards in [1usize, 2, 3] {
                check_chain(seed, &steps, shards);
            }
        }
    }
}
