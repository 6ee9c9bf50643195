//! Operating a pattern-search service on a **live** knowledge base:
//! batched graph mutation, incremental index refresh, the serving
//! handle's built-in version-aware cache, and user-facing table
//! presentation — all through `respond`.
//!
//! The paper evaluates a static snapshot (index build = 502 s at d = 3 on
//! Wiki, Figure 6). A deployed service cannot rebuild per ingested fact;
//! this example walks the maintenance path the library provides:
//!
//! 1. serve a request (cache miss → computed, cached);
//! 2. serve it again (cache hit, zero search work);
//! 3. ingest a new entity with `GraphDelta` → `ingest_with` (incremental
//!    index refresh — only roots near the change are re-enumerated, only
//!    the word lists they post into are rebuilt, and every other list is
//!    shared with the previous version; the cost follows the batch, not
//!    the index);
//! 4. serve the request again: the cache detects the version bump, the
//!    new row appears;
//! 5. the same request renders Markdown/CSV with friendly column names
//!    via its presentation options.
//!
//! Run with: `cargo run --example live_updates`

use patternkb::prelude::*;

fn main() -> Result<(), Error> {
    // --- build the initial service state -------------------------------
    let (graph, _) = patternkb::datagen::figure1();
    let service = EngineBuilder::new()
        .graph(graph)
        .threads(1)
        .cache_capacity(64)
        .build_shared()?;
    let request = SearchRequest::text("database software company revenue")
        .k(5)
        .algorithm(AlgorithmChoice::PatternEnumPruned)
        .presentation(PresentationConfig {
            order: ColumnOrder::EntitiesFirst,
            ..PresentationConfig::default()
        });

    // --- 1. first request: miss, computed ------------------------------
    let r1 = service.respond(&request)?;
    assert_eq!(r1.cache, CacheOutcome::Miss);
    println!(
        "request 1: {} patterns, top table has {} rows   (cache: {:?})",
        r1.patterns.len(),
        r1.top().unwrap().num_trees,
        service.cache_stats()
    );

    // --- 2. repeat request: pure cache hit -----------------------------
    let r2 = service.respond(&request)?;
    assert_eq!(r2.cache, CacheOutcome::Hit);
    println!(
        "request 2: served from cache          (cache: {:?})",
        service.cache_stats()
    );

    // --- 3. ingest a new fact batch -------------------------------------
    // "IBM develops DB2, a relational database, revenue US$ 57 billion."
    // `ingest_with` builds the delta against the snapshot pinned under
    // the writer lock, so concurrent writers serialize instead of one of
    // them failing validation — this is the same path `POST /admin/ingest`
    // takes in the serving layer.
    // `Frozen` keeps the cached PageRank scores (new nodes get the uniform
    // prior), which is what lets untouched lists be shared; `Recompute`
    // moves every score and so rebuilds every list.
    let outcome = service
        .ingest_with(PagerankMode::Frozen, |snap| {
            let g = snap.graph();
            let soft = g.type_by_text("Software").unwrap();
            let comp = g.type_by_text("Company").unwrap();
            let model = g.type_by_text("Model").unwrap();
            let dev = g.attr_by_text("Developer").unwrap();
            let rev = g.attr_by_text("Revenue").unwrap();
            let genre = g.attr_by_text("Genre").unwrap();
            let mut delta = GraphDelta::new(g);
            let db2 = delta.add_node(soft, "DB2")?;
            let ibm = delta.add_node(comp, "IBM")?;
            let rdb = delta.add_node(model, "Relational database")?;
            delta.add_edge(db2, dev, ibm)?;
            delta.add_edge(db2, genre, rdb)?;
            delta.add_text_edge(ibm, rev, "US$ 57 billion")?;
            Ok::<_, patternkb::graph::mutate::DeltaError>(delta)
        })
        .expect("ingest");
    let stats = outcome.stats;
    let snapshot = service.snapshot();
    let lists: usize = snapshot
        .index()
        .shards()
        .iter()
        .map(|s| s.num_words())
        .sum();
    println!(
        "\ningest: engine now at version {}  →  {} affected roots, {} postings kept, {} re-enumerated, {} of {} word lists rebuilt",
        outcome.version,
        stats.affected_roots,
        stats.postings_kept,
        stats.postings_added,
        stats.words_rebuilt,
        lists,
    );
    assert!(stats.words_rebuilt < lists, "untouched lists are shared");

    // --- 4. same request: stale entry rejected, fresh row appears ------
    let r3 = service.respond(&request)?;
    assert_eq!(r3.cache, CacheOutcome::Miss, "version bump invalidates");
    println!(
        "request 3: top table now has {} rows   (cache: {:?})",
        r3.top().unwrap().num_trees,
        service.cache_stats()
    );
    assert_eq!(r3.top().unwrap().num_trees, r1.top().unwrap().num_trees + 1);
    assert_eq!(service.cache_stats().stale_rejections, 1);

    // --- 5. presentation came with the response -------------------------
    let pres = &r3.presented.as_ref().expect("requested presentation")[0];
    println!("\nMarkdown:\n{}", pres.to_markdown());
    println!("CSV:\n{}", pres.to_csv());

    assert!(pres.to_markdown().contains("DB2"));
    assert!(pres.to_csv().contains("US$ 57 billion"));
    println!("live-update pipeline verified: ingest → refresh → invalidate → present");
    Ok(())
}
