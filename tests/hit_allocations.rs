//! Count allocations, not microseconds: what a result-cache hit costs.
//!
//! A warmed hit — `SharedEngine::respond_on` then
//! `api::render_response(..).render()` — shares the cached patterns and
//! tables by reference count and writes the body once into one buffer, so
//! the number of heap allocations it makes is one constant: the parsed
//! query, the cache key, the response's two `Arc` lists and the body
//! buffer. Each pattern's `display` text is written through the escaper
//! into the body, so the count grows neither with the patterns nor with
//! the rows or the cells of the answer. Before the sharing, a hit made one
//! allocation per path of every row (the deep copy out of the cache) and
//! one per table cell in each of table composition and the JSON tree —
//! thousands. The count repeats exactly on any machine, which a timing
//! does not.

use patternkb::datagen::queries::QueryGenerator;
use patternkb::datagen::wiki::{wiki, WikiConfig};
use patternkb::prelude::*;
use patternkb::search::CacheOutcome;
use patternkb::serve::api;

mod common;

/// Run `f`, returning its result and how many allocation requests the
/// calling thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, tally) = common::tally(f);
    (out, tally.calls)
}

/// What every hit below allocates, whatever it returns: 5 on all twelve
/// queries. While each pattern's `display` was built as a `String` of its
/// own: 12 for one single-keyword pattern, 93–135 for ten patterns; before
/// the sharing, 139 and 727–6 275.
const HIT: usize = 5;

#[test]
fn a_warmed_hit_allocates_a_small_constant() {
    let g = wiki(&WikiConfig {
        entities: 3_000,
        seed: 9,
        ..WikiConfig::default()
    });
    let shared = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .shards(2)
        .build_shared()
        .unwrap();
    let snapshot = shared.snapshot();
    let mut generator = QueryGenerator::new(snapshot.graph(), snapshot.text(), snapshot.d(), 3);

    let mut checked = 0;
    for m in [1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 1, 2] {
        let Some(spec) = generator.anchored(m) else {
            continue;
        };
        let request = SearchRequest::query(Query::from_ids(spec.keywords)).k(10);
        let serve = || {
            let response = shared.respond_on(&snapshot, &request).unwrap();
            let body = api::render_response(&snapshot, &response).render();
            (response, body)
        };
        // Miss, then the hit that fills the entry's tables.
        assert_eq!(serve().0.cache, CacheOutcome::Miss);
        serve();

        let ((hit, body), count) = allocations(serve);
        assert_eq!(hit.cache, CacheOutcome::Hit);
        let cells: usize = hit
            .tables
            .iter()
            .map(|t| t.rows.len() * t.columns.len())
            .sum();
        let paths: usize = hit
            .patterns
            .iter()
            .flat_map(|p| p.trees.iter().map(|t| t.paths(&p.pattern).len()))
            .sum();
        assert_eq!(
            count,
            HIT,
            "a hit returning {} patterns ({paths} row paths, {cells} cells, {} body bytes)",
            hit.patterns.len(),
            body.len(),
        );
        // The count bites where one allocation per cell, or per pattern,
        // alone would have broken it.
        checked += usize::from(cells > HIT && hit.patterns.len() > HIT);
        // And the count repeats exactly.
        let (_, again) = allocations(serve);
        assert_eq!(again, count, "the count repeats");
    }
    assert!(checked >= 3, "too few large answers to make the bound bite");
}
