//! An opened v5 image (decode on first touch, from a heap buffer or a
//! file mapping) is **bit-identical** to an index built in memory.
//!
//! Every algorithm (baseline, `PATTERNENUM`, pruned `PATTERNENUM` — both
//! against each other and against the exact enumerator, `LINEARENUM`,
//! `LINEARENUM-TOPK` exact and sampled, individual subtrees) must
//! return exactly the same answers — same patterns, same score
//! **bits**, same order, same materialized rows — whether the
//! postings are served from fully decoded heap structures or read in
//! place from a v5 container with per-word decode deferred to first
//! touch. Exercised on the paper's Figure-1 graph, on the Zipf-skewed
//! synthetic Wiki KB, across shard counts, and through a proptest sweep
//! over random Zipf graphs and queries; the engine-level suite also pins
//! heap/mmap equality end to end through `EngineBuilder::storage`.

use patternkb_datagen::figure1;
use patternkb_datagen::queries::QueryGenerator;
use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::KnowledgeGraph;
use patternkb_index::storage::{encode_v5, open_bytes};
use patternkb_index::{build_indexes, BuildConfig, PathIndexes, StorageBackend};
use patternkb_search::baseline::baseline;
use patternkb_search::bound::pattern_enum_pruned;
use patternkb_search::common::QueryContext;
use patternkb_search::individual::top_individual;
use patternkb_search::linear_enum::linear_enum;
use patternkb_search::pattern_enum::pattern_enum;
use patternkb_search::topk::{linear_enum_topk, SamplingConfig};
use patternkb_search::{Query, SearchConfig, SearchResult};
use patternkb_text::{SynonymTable, TextIndex};

fn heap_index(g: &KnowledgeGraph, t: &TextIndex, d: usize, shards: usize) -> PathIndexes {
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

/// Round-trip a built index through the v5 container and open it in
/// place: same postings, still served from the image, decode deferred.
fn mapped_index(idx: &PathIndexes) -> PathIndexes {
    let mapped = open_bytes(encode_v5(idx)).expect("v5 opens");
    assert_eq!(mapped.storage_backend(), StorageBackend::Heap);
    assert!(mapped.resident_bytes() > mapped.heap_bytes());
    mapped
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
            assert_eq!(ta.paths.len(), tb.paths.len(), "{label}: row paths");
            for (pa, pb) in ta.paths.iter().zip(&tb.paths) {
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

/// Run every algorithm on the built index and its opened round-trip and
/// demand bit-identical output, including pruned-vs-exact *within* the
/// opened image.
fn check_backends(g: &KnowledgeGraph, t: &TextIndex, d: usize, shards: usize, q: &Query, k: usize) {
    let heap = heap_index(g, t, d, shards);
    let mapped = mapped_index(&heap);
    let cfg = SearchConfig::top(k);

    let Some(hctx) = QueryContext::new(g, &heap, q) else {
        assert!(
            QueryContext::new(g, &mapped, q).is_none(),
            "unanswerable on heap must be unanswerable on mmap"
        );
        return;
    };
    let mctx = QueryContext::new(g, &mapped, q).expect("answerable stays answerable");
    let label = |algo: &str| format!("{algo} shards={shards} k={k}");

    assert_identical(
        &linear_enum(&hctx, &cfg),
        &linear_enum(&mctx, &cfg),
        &label("linear_enum"),
    );
    let h_pe = pattern_enum(&hctx, &cfg);
    let m_pe = pattern_enum(&mctx, &cfg);
    assert_identical(&h_pe, &m_pe, &label("pattern_enum"));
    // Pruned vs pruned across tiers, and pruned vs exact on the mapped
    // tier (score-bound block skipping reads bounds from mapped bytes).
    let h_pruned = pattern_enum_pruned(&hctx, &cfg);
    let m_pruned = pattern_enum_pruned(&mctx, &cfg);
    for (refr, got, what) in [
        (&h_pruned, &m_pruned, "pruned heap vs mmap"),
        (&m_pe, &m_pruned, "exact vs pruned on mmap"),
    ] {
        assert_eq!(refr.patterns.len(), got.patterns.len(), "{what}");
        for (x, y) in refr.patterns.iter().zip(&got.patterns) {
            assert_eq!(x.key(), y.key(), "{}: {what}", label("pattern_enum_pruned"));
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}");
            assert_eq!(x.num_trees, y.num_trees, "{what}");
        }
    }
    assert_identical(
        &linear_enum_topk(&hctx, &cfg, &SamplingConfig::exact()),
        &linear_enum_topk(&mctx, &cfg, &SamplingConfig::exact()),
        &label("linear_enum_topk[exact]"),
    );
    assert_identical(
        &linear_enum_topk(&hctx, &cfg, &SamplingConfig::new(0, 0.5, 13)),
        &linear_enum_topk(&mctx, &cfg, &SamplingConfig::new(0, 0.5, 13)),
        &label("linear_enum_topk[rho=0.5]"),
    );
    assert_identical(
        &baseline(g, t, q, &cfg, d, heap.bounds()),
        &baseline(g, t, q, &cfg, d, mapped.bounds()),
        &label("baseline"),
    );

    let h_trees = top_individual(&hctx, &cfg, k);
    let m_trees = top_individual(&mctx, &cfg, k);
    assert_eq!(h_trees.len(), m_trees.len(), "{}", label("top_individual"));
    for (a, b) in h_trees.iter().zip(&m_trees) {
        assert_eq!(a.tree.root, b.tree.root, "{}", label("top_individual"));
        assert_eq!(a.tree.score.to_bits(), b.tree.score.to_bits());
        assert_eq!(a.pattern_key, b.pattern_key);
    }
}

#[test]
fn figure1_all_algorithms_heap_vs_mmap() {
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
        for shards in [1usize, 3] {
            for k in [1, 3, 100] {
                check_backends(&g, &t, 3, shards, &q, k);
            }
        }
    }
}

#[test]
fn zipf_dataset_all_algorithms_heap_vs_mmap() {
    let g = wiki(&WikiConfig::tiny(5));
    let t = TextIndex::build(&g, SynonymTable::new());
    let mut qg = QueryGenerator::new(&g, &t, 3, 17);
    let mut checked = 0;
    for m in [1usize, 2, 3] {
        for _ in 0..3 {
            let Some(spec) = qg.anchored(m) else { continue };
            let q = Query::from_ids(spec.keywords);
            check_backends(&g, &t, 3, 2, &q, 10);
            checked += 1;
        }
    }
    assert!(checked >= 5, "zipf generator produced too few queries");
}

#[test]
fn engine_builder_storage_mmap_end_to_end() {
    use patternkb_search::{EngineBuilder, SearchRequest};

    let (g, _) = figure1();
    let reference = EngineBuilder::new()
        .graph(g)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    let dir = std::env::temp_dir().join("patternkb_storage_equivalence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("figure1.pkb5");
    patternkb_index::storage::save_v5(reference.index(), &path).unwrap();

    let (g, _) = figure1();
    let mmap_engine = EngineBuilder::new()
        .graph(g)
        .index_snapshot(&path)
        .storage(StorageBackend::Mmap)
        .build()
        .unwrap();
    assert_eq!(mmap_engine.storage_backend(), StorageBackend::Mmap);
    assert!(mmap_engine.snapshot_load_time().is_some());

    let (g, _) = figure1();
    let heap_engine = EngineBuilder::new()
        .graph(g)
        .index_snapshot(&path)
        .build()
        .unwrap();
    assert_eq!(heap_engine.storage_backend(), StorageBackend::Heap);
    std::fs::remove_file(&path).ok();

    for query in [
        "database software company revenue",
        "bill gates",
        "software",
    ] {
        let req = SearchRequest::text(query).k(50);
        let a = reference.respond(&req).unwrap();
        let b = mmap_engine.respond(&req).unwrap();
        let c = heap_engine.respond(&req).unwrap();
        for other in [&b, &c] {
            assert_eq!(a.patterns.len(), other.patterns.len(), "{query}");
            for (x, y) in a.patterns.iter().zip(&other.patterns) {
                assert_eq!(x.key(), y.key(), "{query}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{query}");
            }
        }
    }
}

/// A heap-tier boot reads the snapshot into memory and opens it rather
/// than decoding it: right after boot it holds a sliver of what the eager
/// reference decode holds, a search grows it, and every algorithm answers
/// exactly as an engine over the eager decode does.
#[test]
fn heap_boot_is_lazy_and_bit_identical_to_the_eager_decode() {
    use patternkb_search::{AlgorithmChoice, EngineBuilder, SearchEngine, SearchRequest};

    let graph = || wiki(&WikiConfig::tiny(7));
    let dir = std::env::temp_dir().join(format!(
        "patternkb_storage_lazy_heap_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.pkb5");
    EngineBuilder::new()
        .graph(graph())
        .threads(1)
        .shards(2)
        .build()
        .unwrap()
        .save_index(&path)
        .unwrap();
    let lazy = EngineBuilder::new()
        .graph(graph())
        .index_snapshot(&path)
        .build()
        .unwrap();
    let reference = patternkb_index::snapshot::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(lazy.storage_backend(), StorageBackend::Heap);
    assert_eq!(lazy.num_shards(), 2);

    let (booted, decoded) = (lazy.index().heap_bytes(), reference.heap_bytes());
    assert!(
        booted * 10 < decoded,
        "boot holds {booted} B, the eager decode {decoded} B"
    );
    let eager = SearchEngine::from_parts(graph(), lazy.text().clone(), reference);

    let mut qg = QueryGenerator::new(lazy.graph(), lazy.text(), 3, 29);
    let queries: Vec<Query> = [1usize, 2, 3, 1, 2, 3]
        .iter()
        .filter_map(|&m| qg.anchored(m))
        .map(|spec| Query::from_ids(spec.keywords))
        .collect();
    assert!(
        queries.len() >= 4,
        "zipf generator produced too few queries"
    );
    lazy.respond(&SearchRequest::query(queries[0].clone()).k(10))
        .unwrap();
    assert!(
        lazy.index().heap_bytes() > booted,
        "a search decodes the words it touches"
    );

    for q in &queries {
        for algo in [
            AlgorithmChoice::PatternEnum,
            AlgorithmChoice::PatternEnumPruned,
            AlgorithmChoice::LinearEnum,
            AlgorithmChoice::LinearEnumTopK,
            AlgorithmChoice::Baseline,
        ] {
            let req = SearchRequest::query(q.clone()).k(10).algorithm(algo);
            let (a, b) = (eager.respond(&req).unwrap(), lazy.respond(&req).unwrap());
            let label = format!("{algo:?} {:?}", q.keywords);
            assert_eq!(a.patterns.len(), b.patterns.len(), "{label}");
            for (x, y) in a.patterns.iter().zip(&b.patterns) {
                assert_eq!(x.key(), y.key(), "{label}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}");
                assert_eq!(x.num_trees, y.num_trees, "{label}");
                let roots = |p: &patternkb_search::RankedPattern| {
                    p.trees.iter().map(|t| t.root).collect::<Vec<_>>()
                };
                assert_eq!(roots(x), roots(y), "{label}: row roots");
            }
            assert_eq!(a.tables, b.tables, "{label}: rows");
        }
    }
}

/// Durable boot: a checkpoint's index blob is a v5 container, so either
/// setting opens it in place without decoding, reports the heap tier
/// (the blob sits in the buffer the file was read into), and answers
/// alike; and a
/// checkpoint whose blob is anything else (here the
/// retired raw `PKBI` magic) is a typed error naming the file on either
/// setting.
#[test]
fn durable_boot_takes_the_v5_checkpoint_fast_path() {
    use patternkb_search::{EngineBuilder, SearchRequest};

    let dir = std::env::temp_dir().join(format!(
        "patternkb_storage_boot_test_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mk = || {
        let (g, _) = figure1();
        EngineBuilder::new()
            .graph(g)
            .threads(1)
            .shards(2)
            .data_dir(&dir)
    };
    {
        let shared = mk().build_shared().unwrap();
        let d = shared.durability().expect("durable boot");
        d.checkpoint_now(&shared.snapshot()).unwrap();
    }
    let (cp, _) = patternkb_wal::checkpoint::load_latest(&dir)
        .unwrap()
        .expect("checkpoint written");
    assert_eq!(
        &cp.index()[..4],
        b"PKB5",
        "checkpoints carry v5 index blobs"
    );

    let answers = |shared: &patternkb_search::SharedEngine| {
        ["database software company revenue", "bill gates"].map(|q| {
            let r = shared.respond(&SearchRequest::text(q).k(20)).unwrap();
            r.patterns
                .iter()
                .map(|p| (p.key().to_vec(), p.score.to_bits()))
                .collect::<Vec<_>>()
        })
    };

    let heap_boot = mk().build_shared().unwrap();
    assert_eq!(heap_boot.snapshot().storage_backend(), StorageBackend::Heap);
    let mmap_boot = mk().storage(StorageBackend::Mmap).build_shared().unwrap();
    let booted = mmap_boot.snapshot();
    assert_eq!(booted.storage_backend(), StorageBackend::Heap);
    assert!(booted.snapshot_load_time().is_some());
    assert_eq!(answers(&heap_boot), answers(&mmap_boot));
    drop((heap_boot, mmap_boot));

    // Rewrite the checkpoint with a retired raw-`PKBI` index blob: the
    // framing and CRC are intact, so it is the base either boot picks,
    // and neither tier reads it.
    let retired = patternkb_wal::checkpoint::Checkpoint {
        version: cp.version,
        graph: cp.graph().to_vec(),
        index: [b"PKBI".as_slice(), &2u32.to_le_bytes(), &[0u8; 64]].concat(),
    };
    let path = patternkb_wal::checkpoint::write(&dir, &retired).unwrap();
    let name = path.file_name().unwrap().to_str().unwrap();
    for storage in [StorageBackend::Heap, StorageBackend::Mmap] {
        match mk().storage(storage).build_shared() {
            Err(patternkb_search::Error::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                let msg = e.to_string();
                assert!(msg.contains(name) && msg.contains("bad magic"), "{msg}");
            }
            Err(other) => panic!("{storage}: expected a typed Io error, got {other:?}"),
            Ok(_) => panic!("{storage}: a PKBI checkpoint blob must not boot"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes do not change the tier: the same batches ingested into a
/// heap-booted and an mmap-booted engine leave bit-identical answers, and
/// the mapped engine still mapped — only the touched words were decoded
/// and rebuilt over the shared image.
#[test]
fn ingest_keeps_the_mapped_tier_mapped_and_bit_identical() {
    use patternkb_graph::mutate::{DeltaError, GraphDelta, PagerankMode};
    use patternkb_search::{AlgorithmChoice, EngineBuilder, SearchRequest, SharedEngine};

    let graph = || wiki(&WikiConfig::tiny(11));
    let dir = std::env::temp_dir().join(format!(
        "patternkb_storage_ingest_test_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.pkb5");
    EngineBuilder::new()
        .graph(graph())
        .threads(1)
        .shards(2)
        .build()
        .unwrap()
        .save_index(&path)
        .unwrap();
    let boot = |storage| -> SharedEngine {
        EngineBuilder::new()
            .graph(graph())
            .index_snapshot(&path)
            .storage(storage)
            .build_shared()
            .unwrap()
    };
    let heap = boot(StorageBackend::Heap);
    let mmap = boot(StorageBackend::Mmap);
    std::fs::remove_dir_all(&dir).ok();

    // Three batches against whatever the engine holds at that point: a
    // new entity with a text value, a link to it, and that link's removal
    // together with another entity.
    let batches: [&dyn Fn(&KnowledgeGraph) -> Result<GraphDelta, DeltaError>; 3] = [
        &|g| {
            let mut d = GraphDelta::new(g);
            let v = d.add_node(g.node_type(patternkb_graph::NodeId(0)), "zanzibar outpost")?;
            d.add_text_edge(v, patternkb_graph::AttrId(0), "coral harbour")?;
            Ok(d)
        },
        &|g| {
            let mut d = GraphDelta::new(g);
            let v = patternkb_graph::NodeId(g.num_nodes() as u32 - 2);
            d.add_edge(patternkb_graph::NodeId(0), patternkb_graph::AttrId(1), v)?;
            Ok(d)
        },
        &|g| {
            let mut d = GraphDelta::new(g);
            let v = patternkb_graph::NodeId(g.num_nodes() as u32 - 2);
            d.remove_edge(patternkb_graph::NodeId(0), patternkb_graph::AttrId(1), v)?;
            d.add_node(g.node_type(v), "zanzibar annex")?;
            Ok(d)
        },
    ];
    for (i, build) in batches.iter().enumerate() {
        let a = heap
            .ingest_with(PagerankMode::Frozen, |s| build(s.graph()))
            .unwrap();
        let b = mmap
            .ingest_with(PagerankMode::Frozen, |s| build(s.graph()))
            .unwrap();
        assert_eq!(a.stats, b.stats, "batch {i}");
        assert!(a.stats.words_rebuilt > 0);

        let (h, m) = (heap.snapshot(), mmap.snapshot());
        assert_eq!(h.storage_backend(), StorageBackend::Heap);
        assert_eq!(m.storage_backend(), StorageBackend::Mmap, "batch {i}");
        assert_eq!(h.index().num_patched_words(), m.index().num_patched_words());
        assert_eq!(h.index().num_postings(), m.index().num_postings());

        let first_word = |v: u32| {
            let text = h.graph().node_text(patternkb_graph::NodeId(v));
            text.split_whitespace()
                .next()
                .unwrap_or("zanzibar")
                .to_string()
        };
        let queries = [
            "zanzibar".to_string(),
            "coral harbour".to_string(),
            first_word(0),
            format!("{} zanzibar", first_word(0)),
            first_word(7),
        ];
        for q in &queries {
            for algo in [
                AlgorithmChoice::PatternEnum,
                AlgorithmChoice::PatternEnumPruned,
                AlgorithmChoice::LinearEnum,
                AlgorithmChoice::LinearEnumTopK,
                AlgorithmChoice::Baseline,
            ] {
                let req = SearchRequest::text(q).k(20).algorithm(algo);
                match (heap.respond(&req), mmap.respond(&req)) {
                    (Ok(x), Ok(y)) => {
                        let label = format!("batch {i} {algo:?} {q:?}");
                        assert_eq!(x.patterns.len(), y.patterns.len(), "{label}");
                        for (p, r) in x.patterns.iter().zip(&y.patterns) {
                            assert_eq!(p.key(), r.key(), "{label}");
                            assert_eq!(p.score.to_bits(), r.score.to_bits(), "{label}");
                            assert_eq!(p.num_trees, r.num_trees, "{label}");
                        }
                        // Pruned shards share a threshold as they race,
                        // so its work counter is not a function of the
                        // index alone.
                        if !matches!(algo, AlgorithmChoice::PatternEnumPruned) {
                            assert_eq!(x.stats.subtrees, y.stats.subtrees, "{label}");
                        }
                    }
                    (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
                    (x, y) => panic!("batch {i} {q:?}: outcome mismatch: {x:?} vs {y:?}"),
                }
            }
        }
    }
    let r = mmap
        .respond(&SearchRequest::text("zanzibar").k(20))
        .unwrap();
    assert!(!r.patterns.is_empty(), "the ingested entities are served");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random Zipf graphs × random queries: an opened image stays
        /// bit-identical to the built index for every algorithm, including
        /// the pruned-vs-exact cross-check on the image's bytes.
        #[test]
        fn mmap_equals_heap(
            seed in 0u64..1000,
            query_seed in 0u64..1000,
            m in 1usize..4,
            shards in prop_oneof![Just(1usize), Just(2), Just(5)],
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
                check_backends(&g, &t, 2, shards, &q, k);
            }
        }
    }
}
