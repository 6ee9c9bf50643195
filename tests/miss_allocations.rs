//! Count allocations, not microseconds: what a result-cache miss spends
//! on its rows and tables, and what evicting its answer frees.
//!
//! A miss — `SharedEngine::respond_on` then
//! `api::render_response(..).render()` — materialises each winning
//! pattern's rows, composes one table per pattern and writes the body. A
//! pattern's rows are one store (a node array and a root-and-score array),
//! so the whole miss allocates, and evicting its answer later frees, a few
//! blocks per pattern however many rows and paths the answer holds. A
//! table is a column layout over those rows, and the body writer reads
//! each cell from the graph as it writes it, so the tables' share of the
//! allocations is a few per table and per column: it does not grow with
//! the rows or the cells of the answer. The share is measured as the
//! difference between the same miss with and without `compose_tables`.
//! The counts repeat exactly on any machine, which a timing does not.
//!
//! A strict search (`strict_trees`) is pinned here too: its per-tuple
//! tree check adds no allocation to the search.

use patternkb::datagen::queries::QueryGenerator;
use patternkb::datagen::wiki::{wiki, WikiConfig};
use patternkb::prelude::*;
use patternkb::search::{CacheOutcome, SharedEngine};
use patternkb::serve::api;

mod common;

/// What composing and writing the tables may allocate: the response's
/// table list, and per table its `Arc`, its column, provenance and feed
/// lists ([`TABLE_PER_TABLE`]), and per column its header and its feed
/// list ([`TABLE_PER_COLUMN`]). Measured on the queries below: 123 for 10
/// tables of 41 columns, whether they show 419 rows or 24; of the whole
/// miss, 422 and 402. Before composition stopped copying the cells:
/// 2 430 and 353, of 4 140 and 810.
const TABLE_BASE: usize = 4;
const TABLE_PER_TABLE: usize = 4;
const TABLE_PER_COLUMN: usize = 2;

/// How far apart the whole misses of two answers with as many patterns
/// may be, per pattern, however many rows they hold: 422 and 402
/// allocations for 419 rows and 24 (10 patterns each; 552 and 532 while
/// each pattern's `display` was a `String` of its own). When each row was
/// a list of paths with a node list per path: 1 833 and 580.
const MISS_PER_PATTERN: usize = 8;

/// How far apart evicting those two answers may be in blocks freed, per
/// pattern: 133 and 133. When each row was a list of paths: 1 378 and 193.
const EVICT_PER_PATTERN: usize = 4;

/// What one miss of the loop below measured.
#[derive(Debug)]
struct Measured {
    rows: usize,
    cells: usize,
    patterns: usize,
    table_bound: usize,
    miss: usize,
    evicted_frees: usize,
}

#[test]
fn a_miss_composes_tables_without_a_string_per_cell() {
    let g = wiki(&WikiConfig {
        entities: 3_000,
        seed: 9,
        ..WikiConfig::default()
    });
    let engine = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    // One slot: every request below evicts the one before it, so each
    // is a miss.
    let shared = SharedEngine::with_cache_capacity(engine, 1);
    let snapshot = shared.snapshot();
    let mut generator = QueryGenerator::new(snapshot.graph(), snapshot.text(), snapshot.d(), 3);
    let specs: Vec<_> = [1, 2, 3, 1, 2, 3, 1, 2, 1, 2]
        .into_iter()
        .filter_map(|m| generator.anchored(m))
        .collect();
    // Two 2-keyword queries with ten patterns each: 419 rows and 24.
    let (large, small) = (&specs[1], &specs[9]);

    let evict = SearchRequest::query(Query::from_ids(specs[0].keywords.clone())).k(10);
    let evict = || shared.respond_on(&snapshot, &evict).unwrap();
    let serve = |request: &SearchRequest| {
        let response = shared.respond_on(&snapshot, request).unwrap();
        assert_eq!(response.cache, CacheOutcome::Miss);
        let body = api::render_response(&snapshot, &response).render();
        (response, body)
    };
    let mut measured = Vec::new();
    for spec in [large, small] {
        let request = SearchRequest::query(Query::from_ids(spec.keywords.clone())).k(10);
        let bare = request.clone().compose_tables(false);
        // A first run warms what any first query grows (scratch buffers);
        // then the same miss with and without tables.
        serve(&request);
        evict();
        let ((response, body), miss) = common::tally(|| serve(&request));
        evict();
        let (_, bare_miss) = common::tally(|| serve(&bare));
        evict();
        let (_, again) = common::tally(|| serve(&request));
        // The next miss evicts this one's answer, which only the cache
        // still holds.
        let (_, evicted) = common::tally(evict);
        assert_eq!(again.calls, miss.calls, "the count repeats");

        let table_part = miss.calls - bare_miss.calls;
        let rows: usize = response.tables.iter().map(|t| t.rows.len()).sum();
        let columns: usize = response.tables.iter().map(|t| t.columns.len()).sum();
        let cells: usize = response
            .tables
            .iter()
            .map(|t| t.rows.len() * t.columns.len())
            .sum();
        let bound =
            TABLE_BASE + TABLE_PER_TABLE * response.tables.len() + TABLE_PER_COLUMN * columns;
        assert!(
            table_part <= bound,
            "{} tables ({columns} columns, {rows} rows, {cells} cells, {} body bytes) \
             made {table_part} of the miss's {} allocations, over the bound of {bound}",
            response.tables.len(),
            body.len(),
            miss.calls,
        );
        measured.push(Measured {
            rows,
            cells,
            patterns: response.patterns.len(),
            table_bound: bound,
            miss: miss.calls,
            evicted_frees: evicted.frees,
        });
    }
    let [large, small] = &measured[..] else {
        unreachable!("two queries")
    };
    assert!(
        large.rows >= 10 * small.rows,
        "the queries differ in rows: {measured:?}"
    );
    // The bound bites where one allocation per cell alone would have
    // broken it.
    assert!(large.cells > 4 * large.table_bound, "{measured:?}");
    // Rows cost per pattern, not per row and per path: answers with as
    // many patterns allocate, and free on eviction, within a per-pattern
    // constant of each other. The bounds bite where one block per row
    // alone would break them.
    let patterns = large.patterns.max(small.patterns);
    assert!(
        large.miss.abs_diff(small.miss) <= MISS_PER_PATTERN * patterns,
        "the whole miss grows with the rows: {measured:?}"
    );
    assert!(
        large.evicted_frees.abs_diff(small.evicted_frees) <= EVICT_PER_PATTERN * patterns,
        "evicting an answer frees per row: {measured:?}"
    );
    assert!(
        large.rows - small.rows > MISS_PER_PATTERN.max(EVICT_PER_PATTERN) * patterns,
        "{measured:?}"
    );
}

/// Strict mode checks every enumerated tuple for being a tree. The check
/// scans the tuple's edges and allocates nothing, so a strict search
/// allocates exactly what the same search without the check does, however
/// many subtrees it enumerates. (Before, a parent map per tuple: e.g. 3 081
/// allocations against 371 for the 1 747 subtrees of a 3-keyword
/// `LinearEnum` query below.)
#[test]
fn strict_trees_allocate_nothing_per_subtree() {
    let g = wiki(&WikiConfig {
        entities: 3_000,
        seed: 9,
        ..WikiConfig::default()
    });
    let engine = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    let mut generator = QueryGenerator::new(engine.graph(), engine.text(), engine.d(), 5);
    let mut large = 0;
    for m in [2, 3, 2, 3, 2] {
        let Some(spec) = generator.anchored(m) else {
            continue;
        };
        for algorithm in [
            AlgorithmChoice::LinearEnum,
            AlgorithmChoice::LinearEnumTopK,
            AlgorithmChoice::PatternEnum,
            AlgorithmChoice::PatternEnumPruned,
        ] {
            let lax = SearchRequest::query(Query::from_ids(spec.keywords.clone()))
                .k(10)
                .max_rows(2)
                .compose_tables(false)
                .algorithm(algorithm);
            let strict = lax.clone().strict_trees(true);
            engine.respond(&lax).unwrap();
            engine.respond(&strict).unwrap();
            let (lax, lax_count) = common::tally(|| engine.respond(&lax).unwrap());
            let (strict, strict_count) = common::tally(|| engine.respond(&strict).unwrap());
            // Every subtree of this graph is a tree: the two searches
            // enumerate and keep the same subtrees.
            assert_eq!(strict.stats.subtrees, lax.stats.subtrees);
            assert_eq!(
                strict_count.calls, lax_count.calls,
                "{m}-keyword {algorithm:?} over {} subtrees",
                lax.stats.subtrees
            );
            large += usize::from(lax.stats.subtrees >= 1_000);
        }
    }
    assert!(large >= 4, "too few large searches to show the growth");
}

/// Only the k winners get rows. Every index kernel records scores alone
/// while it enumerates and re-joins rows for its winners afterwards, each
/// winner's into one store sized up front, so a miss allocates exactly as
/// many blocks at `max_rows(64)` as at `max_rows(1)`, however many
/// patterns it found. (When `PATTERNENUM` built rows for every pattern it
/// found and `LINEARENUM-TOPK` for every per-type winner, a 1-keyword miss
/// finding 269 patterns allocated 423 blocks more at 64 rows under each.)
#[test]
fn only_the_winners_get_rows() {
    let g = wiki(&WikiConfig {
        entities: 3_000,
        seed: 9,
        ..WikiConfig::default()
    });
    let engine = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    let mut generator = QueryGenerator::new(engine.graph(), engine.text(), engine.d(), 10);
    let sampled = SamplingConfig::new(10, 0.5, 7);
    let mut many = 0;
    for m in [1, 2, 1, 2, 1] {
        let Some(spec) = generator.anchored(m) else {
            continue;
        };
        for (algorithm, sampling) in [
            (AlgorithmChoice::LinearEnum, None),
            (AlgorithmChoice::LinearEnumTopK, None),
            (AlgorithmChoice::LinearEnumTopK, Some(sampled)),
            (AlgorithmChoice::PatternEnum, None),
            (AlgorithmChoice::PatternEnumPruned, None),
        ] {
            let request = |rows| {
                let request = SearchRequest::query(Query::from_ids(spec.keywords.clone()))
                    .k(3)
                    .max_rows(rows)
                    .compose_tables(false)
                    .algorithm(algorithm);
                match sampling {
                    Some(sampling) => request.sampling(sampling),
                    None => request,
                }
            };
            let (one, all) = (request(1), request(64));
            engine.respond(&one).unwrap();
            engine.respond(&all).unwrap();
            let (one, one_count) = common::tally(|| engine.respond(&one).unwrap());
            let (all, all_count) = common::tally(|| engine.respond(&all).unwrap());
            let rows = |r: &SearchResponse| r.patterns.iter().map(|p| p.trees.len()).sum::<usize>();
            assert_eq!(
                one_count.calls,
                all_count.calls,
                "{m}-keyword {algorithm:?} (sampled: {}) over {} patterns: {} rows and {}",
                sampling.is_some(),
                all.stats.patterns,
                rows(&one),
                rows(&all),
            );
            many += usize::from(
                all.stats.patterns > 10 * one.patterns.len() && rows(&all) > rows(&one),
            );
        }
    }
    assert!(many >= 12, "too few many-pattern misses to show the growth");
}
