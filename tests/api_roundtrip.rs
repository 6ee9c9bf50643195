//! The request/response API, exercised through the public facade:
//! requests answer consistently across algorithms, parsed/pre-parsed
//! inputs, batch and single routes, and shard counts;
//! `SharedEngine::respond` serves correctly while ingests land; and every
//! error path is a typed [`Error`], never a panic.

use patternkb::prelude::*;

fn figure1_engine() -> SearchEngine {
    let (g, _) = patternkb::datagen::figure1();
    EngineBuilder::new().graph(g).threads(1).build().unwrap()
}

// ---------------------------------------------------------------------
// Round-trip: text vs pre-parsed requests, tables, defaults.
// ---------------------------------------------------------------------

#[test]
fn text_and_parsed_requests_agree() {
    let e = figure1_engine();
    for text in [
        "database software company revenue",
        "database company",
        "revenue",
        "bill gates",
        "software",
    ] {
        let q = e.parse(text).unwrap();

        let via_query = e
            .respond(&SearchRequest::query(q).algorithm(AlgorithmChoice::PatternEnum))
            .unwrap();
        let via_text = e
            .respond(&SearchRequest::text(text).algorithm(AlgorithmChoice::PatternEnum))
            .unwrap();

        assert_eq!(via_query.patterns.len(), via_text.patterns.len(), "{text}");
        for (a, b) in via_query.patterns.iter().zip(&via_text.patterns) {
            assert_eq!(a.key(), b.key(), "{text}");
            assert!((a.score - b.score).abs() < 1e-12, "{text}");
            assert_eq!(a.num_trees, b.num_trees, "{text}");
        }
        // Tables come back on the response, identical to engine.table().
        for (p, t) in via_text.patterns.iter().zip(&via_text.tables) {
            assert_eq!(e.table(p), **t, "{text}");
        }
        // The default SearchConfig and the default SearchRequest agree on
        // every knob they share.
        let req = SearchRequest::text(text);
        let cfg = SearchConfig::default();
        assert_eq!(req.k, cfg.k);
        assert_eq!(req.max_rows, cfg.max_rows);
        assert_eq!(req.strict_trees, cfg.strict_trees);
    }
}

#[test]
fn auto_requests_agree_with_forced_choice() {
    let e = figure1_engine();
    for text in ["database software company revenue", "database company"] {
        let auto = e.respond(&SearchRequest::text(text).k(10)).unwrap();
        assert!(auto.planned);
        let choice = match auto.algorithm {
            Algorithm::Baseline => AlgorithmChoice::Baseline,
            Algorithm::PatternEnum => AlgorithmChoice::PatternEnum,
            Algorithm::PatternEnumPruned => AlgorithmChoice::PatternEnumPruned,
            Algorithm::LinearEnum => AlgorithmChoice::LinearEnum,
            Algorithm::LinearEnumTopK(_) => AlgorithmChoice::LinearEnumTopK,
        };
        let forced = e
            .respond(&SearchRequest::text(text).k(10).algorithm(choice))
            .unwrap();
        assert!(!forced.planned);
        assert_eq!(auto.patterns.len(), forced.patterns.len());
        for (a, b) in auto.patterns.iter().zip(&forced.patterns) {
            assert_eq!(a.key(), b.key());
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }
}

#[test]
fn batch_round_trips_sequential_responds() {
    let e = figure1_engine();
    let texts = ["database company", "revenue", "software"];
    let requests: Vec<SearchRequest> = texts
        .iter()
        .map(|t| {
            SearchRequest::text(*t)
                .k(10)
                .algorithm(AlgorithmChoice::PatternEnum)
        })
        .collect();
    let sequential: Vec<SearchResponse> = requests.iter().map(|r| e.respond(r).unwrap()).collect();
    let batched = e.respond_batch(&requests, 2);
    assert_eq!(sequential.len(), batched.len());
    for (a, b) in sequential.iter().zip(&batched) {
        let b = b.as_ref().unwrap();
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.key(), y.key());
        }
    }
}

// ---------------------------------------------------------------------
// Shard knob: rebuilds with different shard counts answer identically
// and never share cache entries.
// ---------------------------------------------------------------------

#[test]
fn shard_counts_answer_identically_through_the_facade() {
    let single = figure1_engine();
    let reference = single
        .respond(&SearchRequest::text("database software company revenue").k(100))
        .unwrap();
    for shards in [2usize, 5] {
        let (g, _) = patternkb::datagen::figure1();
        let e = EngineBuilder::new()
            .graph(g)
            .threads(1)
            .shards(shards)
            .build()
            .unwrap();
        assert_eq!(e.num_shards(), shards);
        let r = e
            .respond(&SearchRequest::text("database software company revenue").k(100))
            .unwrap();
        assert_eq!(r.patterns.len(), reference.patterns.len());
        for (a, b) in reference.patterns.iter().zip(&r.patterns) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "shards = {shards}");
        }
        // Only shards holding all keywords participate, so the split can
        // cover fewer than `shards` entries — but never more.
        assert!(!r.stats.per_shard.is_empty() && r.stats.per_shard.len() <= shards);
    }
}

// ---------------------------------------------------------------------
// SharedEngine::respond under concurrent ingest.
// ---------------------------------------------------------------------

#[test]
fn shared_respond_concurrency_smoke() {
    let (g, _) = patternkb::datagen::figure1();
    let service = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .cache_capacity(64)
        .build_shared()
        .unwrap();

    const INGESTS: usize = 6;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let served = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Readers: cached and uncached requests against whatever version
        // is current.
        for _ in 0..3 {
            scope.spawn(|| {
                let req = SearchRequest::text("company revenue").k(10);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = service.respond(&req).expect("keywords always present");
                    assert!(!r.patterns.is_empty(), "every version answers");
                    served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        // Writer: stream ingests, once a reader has been served — a
        // writer scheduled first could otherwise finish before any read.
        scope.spawn(|| {
            while served.load(std::sync::atomic::Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            for step in 0..INGESTS {
                let snap = service.snapshot();
                let g = snap.graph();
                let comp = g.type_by_text("Company").unwrap();
                let rev = g.attr_by_text("Revenue").unwrap();
                let mut d = GraphDelta::new(g);
                let v = d.add_node(comp, &format!("smoke vendor {step}")).unwrap();
                d.add_text_edge(v, rev, &format!("US$ {step} million"))
                    .unwrap();
                service.apply_delta(&d, PagerankMode::Frozen).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    });

    assert_eq!(service.version(), INGESTS as u64);
    assert!(served.load(std::sync::atomic::Ordering::Relaxed) > 0);
    // Final state sees every ingested vendor.
    let r = service
        .respond(&SearchRequest::text("smoke vendor").k(100))
        .unwrap();
    assert_eq!(r.top().unwrap().num_trees, INGESTS);
    // The built-in cache was exercised and never served stale data: any
    // hit at an old version would have failed the readers' assertions.
    let stats = service.cache_stats();
    assert!(stats.hits + stats.misses > 0);
}

// ---------------------------------------------------------------------
// Error paths: typed, never panicking.
// ---------------------------------------------------------------------

#[test]
fn unknown_words_error_lists_canonical_forms() {
    let e = figure1_engine();
    match e.respond(&SearchRequest::text("database zzzzqqqq wwwwkkkk")) {
        Err(Error::UnknownWords(ws)) => {
            assert_eq!(ws, vec!["zzzzqqqq".to_string(), "wwwwkkkk".to_string()]);
        }
        other => panic!("expected UnknownWords, got {other:?}"),
    }
    // Same behavior through the serving handle.
    let (g, _) = patternkb::datagen::figure1();
    let shared = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .build_shared()
        .unwrap();
    assert!(matches!(
        shared.respond(&SearchRequest::text("zzzzqqqq")),
        Err(Error::UnknownWords(_))
    ));
}

#[test]
fn empty_input_is_a_typed_error() {
    let e = figure1_engine();
    for text in ["", "   ", "... !!!", "\t\n"] {
        assert!(
            matches!(
                e.respond(&SearchRequest::text(text)),
                Err(Error::EmptyQuery)
            ),
            "{text:?} must be EmptyQuery"
        );
    }
    assert!(matches!(
        e.respond(&SearchRequest::query(Query { keywords: vec![] })),
        Err(Error::EmptyQuery)
    ));
    // Errors are displayable for user-facing surfaces.
    let msg = e.respond(&SearchRequest::text("")).unwrap_err().to_string();
    assert!(msg.contains("empty"));
}
