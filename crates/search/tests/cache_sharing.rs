//! A cache hit is the miss, shared.
//!
//! Through [`SharedEngine::respond_on`] a miss and the hits that follow
//! it must answer alike — same patterns, tables, presentation and explain
//! traces — while the hits share one set of tables with the cache entry
//! and the miss leaves none behind. The post-processing flags stay out of
//! the cache key, diversification keeps everything it reorders aligned,
//! and an ingest can never surface a table composed on the old graph.

use patternkb_datagen::figure1;
use patternkb_datagen::queries::QueryGenerator;
use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::mutate::{GraphDelta, PagerankMode};
use patternkb_search::presentation::PresentationConfig;
use patternkb_search::{
    AlgorithmChoice, CacheOutcome, EngineBuilder, Query, SearchEngine, SearchRequest,
    SearchResponse, SharedEngine,
};
use std::sync::Arc;

const CHOICES: [AlgorithmChoice; 6] = [
    AlgorithmChoice::Auto,
    AlgorithmChoice::Baseline,
    AlgorithmChoice::PatternEnum,
    AlgorithmChoice::PatternEnumPruned,
    AlgorithmChoice::LinearEnum,
    AlgorithmChoice::LinearEnumTopK,
];

/// A 3-shard engine over a generated wiki, and anchored queries of one
/// to three keywords on it.
fn wiki_engine() -> (SharedEngine, Vec<Query>) {
    let g = wiki(&WikiConfig {
        entities: 600,
        seed: 11,
        ..WikiConfig::default()
    });
    let shared = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .shards(3)
        .build_shared()
        .unwrap();
    let snapshot = shared.snapshot();
    assert_eq!(snapshot.num_shards(), 3);
    let mut generator = QueryGenerator::new(snapshot.graph(), snapshot.text(), snapshot.d(), 5);
    let queries: Vec<Query> = [1, 2, 3, 1, 2, 3]
        .into_iter()
        .filter_map(|m| generator.anchored(m))
        .map(|spec| Query::from_ids(spec.keywords))
        .collect();
    assert!(queries.len() >= 4, "generator produced too few queries");
    (shared, queries)
}

/// Everything of a response that is a function of the query and the data.
fn assert_same_answer(a: &SearchResponse, b: &SearchResponse, label: &str) {
    assert_eq!(a.patterns.len(), b.patterns.len(), "{label}: result size");
    for (x, y) in a.patterns.iter().zip(&b.patterns) {
        assert_eq!(x.key(), y.key(), "{label}: pattern order");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: score bits");
        assert_eq!(x.num_trees, y.num_trees, "{label}: |trees(P)|");
        assert_eq!(x.trees, y.trees, "{label}: materialized rows");
    }
    assert_eq!(a.tables, b.tables, "{label}: tables");
    assert_eq!(a.presented, b.presented, "{label}: presented");
    assert_eq!(a.explain, b.explain, "{label}: explain");
    assert_eq!(a.stats.subtrees, b.stats.subtrees, "{label}: stats");
}

#[test]
fn miss_then_hits_agree_and_the_hits_share_their_tables() {
    let (shared, queries) = wiki_engine();
    let snapshot = shared.snapshot();
    let mut answered = 0;
    for choice in CHOICES {
        for (i, query) in queries.iter().enumerate() {
            let label = format!("{choice:?} query {i}");
            let request = SearchRequest::query(query.clone())
                .k(8)
                .algorithm(choice)
                .presentation(PresentationConfig::default())
                .explain(true);
            let fills_before = shared.cache_stats().table_fills;
            let miss = shared.respond_on(&snapshot, &request).unwrap();
            assert_eq!(miss.cache, CacheOutcome::Miss, "{label}");
            assert_eq!(
                shared.cache_stats().table_fills,
                fills_before,
                "{label}: a miss composes for itself and retains nothing"
            );
            let first = shared.respond_on(&snapshot, &request).unwrap();
            let second = shared.respond_on(&snapshot, &request).unwrap();
            assert_eq!(first.cache, CacheOutcome::Hit, "{label}");
            assert_eq!(second.cache, CacheOutcome::Hit, "{label}");
            assert_eq!(
                shared.cache_stats().table_fills,
                fills_before + 1,
                "{label}: only the first hit composes"
            );
            assert_same_answer(&miss, &first, &label);
            assert_same_answer(&miss, &second, &label);
            assert_eq!(miss.tables.len(), miss.patterns.len(), "{label}");

            // Rows and tables are the entry's own, not copies of them.
            for (x, y) in first.patterns.iter().zip(&second.patterns) {
                assert!(Arc::ptr_eq(x, y), "{label}: hits share the patterns");
            }
            for (x, y) in miss.patterns.iter().zip(&first.patterns) {
                assert!(Arc::ptr_eq(x, y), "{label}: the miss shares them too");
            }
            for (x, y) in first.tables.iter().zip(&second.tables) {
                assert!(Arc::ptr_eq(x, y), "{label}: hits share one table");
            }
            for (x, y) in miss.tables.iter().zip(&first.tables) {
                assert!(!Arc::ptr_eq(x, y), "{label}: the miss kept its own");
            }
            assert!(Arc::ptr_eq(&first.stats, &second.stats), "{label}");
            answered += usize::from(!miss.is_empty());
        }
    }
    assert!(answered >= 4 * CHOICES.len(), "too few non-empty answers");
}

#[test]
fn one_pass_of_distinct_queries_leaves_no_tables_resident() {
    let (shared, queries) = wiki_engine();
    let snapshot = shared.snapshot();
    for (i, query) in queries.iter().enumerate() {
        // Distinct keys even where the generator repeats a keyword set.
        let request = SearchRequest::query(query.clone()).k(4 + i);
        let response = shared.respond_on(&snapshot, &request).unwrap();
        assert_eq!(response.cache, CacheOutcome::Miss);
        assert_eq!(response.tables.len(), response.patterns.len());
    }
    let stats = shared.cache_stats();
    assert_eq!(stats.entries, queries.len());
    assert_eq!((stats.hits, stats.table_fills), (0, 0));
}

#[test]
fn the_key_does_not_carry_the_post_processing_flags() {
    let (shared, queries) = wiki_engine();
    let snapshot = shared.snapshot();
    let base = SearchRequest::query(queries[0].clone()).k(6);
    let bare = base.clone().compose_tables(false);

    let miss = shared.respond_on(&snapshot, &bare).unwrap();
    assert_eq!(miss.cache, CacheOutcome::Miss);
    assert!(miss.tables.is_empty() && !miss.patterns.is_empty());
    let hit = shared.respond_on(&snapshot, &bare).unwrap();
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert!(hit.tables.is_empty());
    assert_eq!(shared.cache_stats().table_fills, 0, "nobody asked yet");

    // Same key, tables wanted now: composed on demand, from the entry.
    let with_tables = shared.respond_on(&snapshot, &base).unwrap();
    assert_eq!(with_tables.cache, CacheOutcome::Hit);
    assert_eq!(with_tables.tables.len(), with_tables.patterns.len());
    for (p, t) in with_tables.patterns.iter().zip(&with_tables.tables) {
        assert_eq!(snapshot.table(p), **t);
    }
    assert_eq!(shared.cache_stats().table_fills, 1);
    // Presentation alone implies tables, and shares the ones just made.
    let presented = shared
        .respond_on(
            &snapshot,
            &bare.clone().presentation(PresentationConfig::default()),
        )
        .unwrap();
    assert!(Arc::ptr_eq(&presented.tables[0], &with_tables.tables[0]));
    let stats = shared.cache_stats();
    assert_eq!((stats.entries, stats.misses, stats.table_fills), (1, 1, 1));
}

#[test]
fn diversified_responses_stay_aligned() {
    let (shared, queries) = wiki_engine();
    let snapshot = shared.snapshot();
    let mut reordered = 0;
    for query in &queries {
        let plain = SearchRequest::query(query.clone()).k(8);
        let diverse = plain
            .clone()
            .diversify(0.3)
            .presentation(PresentationConfig::default())
            .explain(true);
        // Miss, first hit (fills the shared tables), later hit.
        let responses: Vec<SearchResponse> = (0..3)
            .map(|_| shared.respond_on(&snapshot, &diverse).unwrap())
            .collect();
        let reference = shared.respond_on(&snapshot, &plain).unwrap();
        for r in &responses {
            assert_eq!(r.patterns.len(), reference.patterns.len());
            assert_eq!(r.tables.len(), r.patterns.len());
            let presented = r.presented.as_ref().unwrap();
            let explain = r.explain.as_ref().unwrap();
            assert_eq!(presented.len(), r.patterns.len());
            assert_eq!(explain.len(), r.patterns.len());
            for (i, p) in r.patterns.iter().enumerate() {
                assert_eq!(snapshot.table(p), *r.tables[i], "table follows its pattern");
                assert_eq!(
                    patternkb_search::presentation::present(
                        snapshot.graph(),
                        &r.tables[i],
                        p,
                        &PresentationConfig::default()
                    ),
                    presented[i]
                );
                assert!(
                    reference.patterns.iter().any(|x| Arc::ptr_eq(x, p)),
                    "a diversified pattern is one of the entry's"
                );
            }
            assert_same_answer(&responses[0], r, "diversified miss vs hit");
        }
        let keys = |r: &SearchResponse| r.patterns.iter().map(|p| p.key()).collect::<Vec<_>>();
        reordered += usize::from(keys(&responses[0]) != keys(&reference));
    }
    assert!(reordered >= 1, "lambda 0.3 never reordered anything");
}

#[test]
fn an_ingest_can_never_surface_a_stale_table() {
    let (g, ids) = figure1();
    let shared = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .build_shared()
        .unwrap();
    let request = SearchRequest::text("database software company revenue").k(10);
    // Cells are read from the graph of the snapshot that answered.
    let shows = |engine: &SearchEngine, r: &SearchResponse, text: &str| {
        r.tables.iter().zip(&r.patterns).any(|(t, p)| {
            t.cells(engine.graph(), p)
                .iter()
                .flatten()
                .any(|cell| cell.contains(text))
        })
    };
    // Miss, then two hits: the entry's tables are resident.
    for _ in 0..3 {
        let r = shared.respond(&request).unwrap();
        assert!(shows(&shared.snapshot(), &r, "US$ 77 billion"));
    }
    assert_eq!(shared.cache_stats().table_fills, 1);

    // Rewrite the revenue text that the cached tables show.
    let snapshot = shared.snapshot();
    let revenue = snapshot.graph().attr_by_text("Revenue").unwrap();
    let mut delta = GraphDelta::new(snapshot.graph());
    delta
        .remove_edge(ids.microsoft, revenue, ids.ms_revenue)
        .unwrap();
    delta
        .add_text_edge(ids.microsoft, revenue, "US$ 99 billion")
        .unwrap();
    shared.apply_delta(&delta, PagerankMode::Frozen).unwrap();

    for expected in [CacheOutcome::Miss, CacheOutcome::Hit, CacheOutcome::Hit] {
        let r = shared.respond(&request).unwrap();
        assert_eq!(r.cache, expected);
        let current = shared.snapshot();
        assert!(
            shows(&current, &r, "US$ 99 billion"),
            "the new text is served"
        );
        assert!(
            !shows(&current, &r, "US$ 77 billion"),
            "the old table is gone"
        );
    }
    // A holder of the old snapshot still gets the old, consistent answer.
    let old = shared.respond_on(&snapshot, &request).unwrap();
    assert!(shows(&snapshot, &old, "US$ 77 billion") && !shows(&snapshot, &old, "US$ 99 billion"));
}
