//! Failure injection and adversarial edge cases across the whole stack:
//! corrupted snapshots must surface typed errors (never panics, never
//! silently-wrong graphs), and degenerate graph/query shapes must be
//! answered correctly.

use patternkb::graph::mutate::{GraphDelta, PagerankMode};
use patternkb::graph::snapshot as gsnap;
use patternkb::index::snapshot as isnap;
use patternkb::index::storage::{encode_v5, open_bytes};
use patternkb::index::StorageBackend;
use patternkb::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------
// A counting allocator (this test binary only)
// ---------------------------------------------------------------------
//
// A decoder that sizes an allocation from an on-wire count aborts the
// process on a box without overcommit and silently "works" on one with
// it. Recording the largest single request a decode makes turns both
// into the same ordinary test failure.

struct CountingAlloc;

thread_local! {
    /// Largest single request this thread made since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-local is gone.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; `record` only
// touches a const-initialized `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the largest single allocation
/// request the calling thread made while it ran.
fn max_single_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A decoder may not ask for more than a small multiple of its input in
/// one request (the floor covers fixed-size bookkeeping on tiny inputs).
fn assert_alloc_bounded(worst: usize, input_len: usize, what: &str, at: usize) {
    let limit = (16 * input_len).max(64 << 10);
    assert!(
        worst <= limit,
        "{what} {at}: one allocation of {worst} bytes for a {input_len}-byte input"
    );
}

fn figure1_engine() -> SearchEngine {
    let (g, _) = patternkb::datagen::figure1();
    EngineBuilder::new().graph(g).threads(1).build().unwrap()
}

fn build(g: KnowledgeGraph, d: usize) -> SearchEngine {
    EngineBuilder::new()
        .graph(g)
        .height(d)
        .threads(1)
        .build()
        .unwrap()
}

fn run(e: &SearchEngine, q: &Query, k: usize, algo: AlgorithmChoice) -> SearchResponse {
    e.respond(&SearchRequest::query(q.clone()).k(k).algorithm(algo))
        .unwrap()
}

// ---------------------------------------------------------------------
// Graph snapshot corruption
// ---------------------------------------------------------------------

#[test]
fn graph_snapshot_truncation_every_prefix() {
    let (g, _) = patternkb::datagen::figure1();
    let bytes = gsnap::encode(&g);
    // Every strict prefix must decode to a typed error, not a panic.
    for cut in 0..bytes.len() {
        let (res, worst) = max_single_alloc(|| gsnap::decode(&bytes[..cut]));
        assert_alloc_bounded(worst, bytes.len(), "graph prefix", cut);
        if let Ok(g2) = res {
            // The only acceptable "success" on a prefix would be an
            // identical graph, which is impossible for a strict prefix of
            // a non-trivial snapshot.
            panic!(
                "prefix of {cut}/{} bytes decoded to a graph with {} nodes",
                bytes.len(),
                g2.num_nodes()
            );
        }
    }
}

#[test]
fn graph_snapshot_bad_magic_and_version() {
    let (g, _) = patternkb::datagen::figure1();
    let mut bytes = gsnap::encode(&g);
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        gsnap::decode(&wrong_magic),
        Err(gsnap::SnapshotError::BadMagic)
    ));
    // Version field follows the 4-byte magic (little-endian u32).
    bytes[4] = 0xee;
    assert!(matches!(
        gsnap::decode(&bytes),
        Err(gsnap::SnapshotError::BadVersion(_))
    ));
}

#[test]
fn graph_snapshot_single_bit_flips_never_panic() {
    let (g, _) = patternkb::datagen::figure1();
    let bytes = gsnap::encode(&g);
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x01;
        // Either a typed error or a structurally valid graph (flips inside
        // text payloads produce different-but-valid graphs). Crucially:
        // no panic, no out-of-range ids, and no allocation sized by a
        // flipped count.
        let (res, worst) = max_single_alloc(|| gsnap::decode(&corrupted));
        assert_alloc_bounded(worst, bytes.len(), "graph bit flip", i);
        if let Ok(g2) = res {
            for v in g2.nodes() {
                for (_, t) in g2.out_edges(v) {
                    assert!(t.0 < g2.num_nodes() as u32, "dangling edge after flip {i}");
                }
            }
        }
    }
}

#[test]
fn graph_snapshot_roundtrip_after_mutation() {
    // Snapshots of delta-produced graphs are as valid as built ones.
    let (g, _) = patternkb::datagen::figure1();
    let comp = g.type_by_text("Company").unwrap();
    let mut d = GraphDelta::new(&g);
    d.add_node(comp, "Snapshot Corp").unwrap();
    let g2 = d.apply(&g, PagerankMode::Recompute).unwrap();
    let back = gsnap::decode(&gsnap::encode(&g2)).unwrap();
    assert_eq!(back.num_nodes(), g2.num_nodes());
    assert_eq!(back.num_edges(), g2.num_edges());
    let last = NodeId((back.num_nodes() - 1) as u32);
    assert_eq!(back.node_text(last), "Snapshot Corp");
}

// ---------------------------------------------------------------------
// Index image (`PKB5`) corruption
// ---------------------------------------------------------------------

#[test]
fn index_snapshot_truncation_is_an_error() {
    let e = figure1_engine();
    let dir = std::env::temp_dir().join("patternkb_failure_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("idx.pkb5");
    e.save_index(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0, 1, 4, bytes.len() / 3, bytes.len() - 1] {
        let tpath = dir.join(format!("idx_cut_{cut}.pkb5"));
        std::fs::write(&tpath, &bytes[..cut]).unwrap();
        for storage in [StorageBackend::Heap, StorageBackend::Mmap] {
            let (g, _) = patternkb::datagen::figure1();
            let res = EngineBuilder::new()
                .graph(g)
                .index_snapshot(&tpath)
                .storage(storage)
                .build();
            assert!(
                matches!(res, Err(Error::Io(_))),
                "truncated index at {cut} bytes must not load on {storage}"
            );
        }
        std::fs::remove_file(&tpath).ok();
    }
    // A retired raw (`PKBI`) image is a typed error naming the file, on
    // either tier.
    let mut retired = bytes.clone();
    retired[..4].copy_from_slice(b"PKBI");
    std::fs::write(&path, &retired).unwrap();
    for storage in [StorageBackend::Heap, StorageBackend::Mmap] {
        let (g, _) = patternkb::datagen::figure1();
        let res = EngineBuilder::new()
            .graph(g)
            .index_snapshot(&path)
            .storage(storage)
            .build();
        match res {
            Err(Error::Io(e)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("idx.pkb5") && msg.contains("bad magic"),
                    "{msg}"
                );
            }
            other => panic!("{storage}: expected a typed Io error, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Decode `image` on both tiers (the mapped tier through open + prepare
/// of every word); `Ok` only when every word of both tiers decoded.
fn decode_both_tiers(image: &[u8]) -> Result<(), isnap::SnapshotError> {
    let heap = isnap::decode(image).map(drop);
    let mapped = open_bytes(image.to_vec()).and_then(|idx| idx.prepare_words(&idx.word_ids()));
    heap.and(mapped)
}

#[test]
fn index_image_corruption_is_detected_or_survived() {
    let e = figure1_engine();
    let image = encode_v5(e.index());
    decode_both_tiers(&image).expect("the intact image decodes");
    // Every strict prefix is a typed error on both tiers.
    for cut in 0..image.len() {
        let (res, worst) = max_single_alloc(|| decode_both_tiers(&image[..cut]));
        assert!(
            res.is_err(),
            "prefix of {cut}/{} bytes decoded",
            image.len()
        );
        assert_alloc_bounded(worst, image.len(), "index prefix", cut);
    }
    // Every single-byte flip is an error or a decodable (different) index
    // — never a panic, and never an allocation sized by a corrupt count.
    let mut typed_errors = 0;
    for i in 0..image.len() {
        let mut corrupted = image.clone();
        corrupted[i] ^= 0xa5;
        let (res, worst) = max_single_alloc(|| decode_both_tiers(&corrupted));
        typed_errors += usize::from(res.is_err());
        assert_alloc_bounded(worst, image.len(), "index byte flip", i);
    }
    assert!(typed_errors > 0, "corruption must surface typed errors");
}

/// With one reader and no older format to fall back on, silent drift of
/// the image layout is data loss for every saved index and checkpoint:
/// pin the exact bytes `encode_v5` produces for Figure 1.
#[test]
fn index_image_bytes_are_pinned() {
    let (g, _) = patternkb::datagen::figure1();
    let e = EngineBuilder::new()
        .graph(g)
        .height(3)
        .shards(1)
        .threads(1)
        .build()
        .unwrap();
    let image = encode_v5(e.index());
    let fnv1a = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (image.len(), fnv1a),
        (4280, 0x9a95_d814_8962_5441),
        "the PKB5 image of Figure 1 changed: bump the container version \
         and follow the checklist in docs/FORMATS.md"
    );
}

/// The images earlier container versions wrote for Figure 1, byte for
/// byte: version 1 (word streams carried a per-pattern bound section) and
/// version 2 (each group's roots were a codec-tagged block list). There is
/// no fallback reader: both tiers must refuse them by version, not attempt
/// their streams.
#[test]
fn v1_index_image_is_bad_version() {
    let old: [(&[u8], u32); 2] = [
        (include_bytes!("data/figure1_v1.pkb5"), 1),
        (include_bytes!("data/figure1_v2.pkb5"), 2),
    ];
    for (image, version) in old {
        // Scrambling everything past the version word changes nothing:
        // the refusal comes before any other byte is read.
        let mut scrambled = image.to_vec();
        scrambled[8..].fill(0xff);
        for bytes in [image, &scrambled[..]] {
            assert_eq!(
                isnap::decode(bytes).map(drop).unwrap_err(),
                isnap::SnapshotError::BadVersion(version)
            );
            assert_eq!(
                open_bytes(bytes.to_vec()).map(drop).unwrap_err(),
                isnap::SnapshotError::BadVersion(version)
            );
        }
    }
}

/// The byte range of `(shard, word)`'s posting stream in a `PKB5` image,
/// read off the lexicon (layout in docs/FORMATS.md).
fn stream_range(image: &[u8], shard: u32, word: u32) -> std::ops::Range<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let lexicon = u64_at(24 + 16 * 2);
    (0..u64_at(lexicon))
        .map(|i| lexicon + 8 + 32 * i)
        .find(|&at| u32_at(at) == word && u32_at(at + 4) == shard)
        .map(|at| u64_at(at + 8)..u64_at(at + 8) + u64_at(at + 16))
        .expect("the word has a stream in that shard")
}

/// A batch giving a new Company a Revenue: it touches "revenue".
fn revenue_batch(graph: &KnowledgeGraph) -> GraphDelta {
    let company = graph.type_by_text("Company").unwrap();
    let mut d = GraphDelta::new(graph);
    let v = d.add_node(company, "Initech").unwrap();
    d.add_text_edge(v, graph.attr_by_text("Revenue").unwrap(), "US$ 1 million")
        .unwrap();
    d
}

/// An ingest that must splice a word whose mapped stream is damaged is
/// refused with the same typed error a search on the word gets: the old
/// postings are never silently dropped, nothing is published and the
/// version does not move.
#[test]
fn ingest_touching_a_damaged_mapped_stream_is_refused() {
    let (g, _) = patternkb::datagen::figure1();
    let heap = EngineBuilder::new()
        .graph(g.clone())
        .shards(1)
        .threads(1)
        .build()
        .unwrap();
    let revenue = heap.text().lookup_word("revenue").unwrap();
    let mut image = encode_v5(heap.index());
    let damaged = stream_range(&image, 0, revenue.0);
    image[damaged].fill(0xff);
    let mapped = || {
        SearchEngine::from_parts(
            g.clone(),
            heap.text().clone(),
            open_bytes(image.clone()).unwrap(),
        )
    };
    let batch = revenue_batch;
    let search = |e: &SearchEngine| e.respond(&SearchRequest::text("revenue"));

    let mut e = mapped();
    let (version, postings) = (e.version(), e.index().num_postings());
    assert!(matches!(search(&e), Err(Error::Snapshot(_))));
    let err = e.apply_delta(&batch(&g), PagerankMode::Frozen).unwrap_err();
    assert!(matches!(err, Error::Snapshot(_)), "{err}");
    assert_eq!(e.version(), version);
    assert_eq!(e.index().num_postings(), postings);
    assert!(matches!(search(&e), Err(Error::Snapshot(_))));

    // The shared handle's write path: a typed ingest error.
    let shared = SharedEngine::new(mapped());
    let err = shared
        .ingest_with(PagerankMode::Frozen, |snap| {
            Ok::<_, std::convert::Infallible>(batch(snap.graph()))
        })
        .unwrap_err();
    assert!(
        matches!(err, patternkb::search::IngestError::Snapshot(_)),
        "{err}"
    );
    assert_eq!(shared.version(), version);
    assert_eq!(shared.snapshot().index().num_postings(), postings);
    assert!(matches!(
        search(&shared.snapshot()),
        Err(Error::Snapshot(_))
    ));

    // An ingest that does not touch the damaged word still goes through.
    let mut d = GraphDelta::new(&g);
    d.add_node(g.type_by_text("Software").unwrap(), "Quux")
        .unwrap();
    e.apply_delta(&d, PagerankMode::Frozen).unwrap();
    assert_eq!(e.version(), version + 1);
}

/// A snapshot whose framing is intact but one of whose word streams is
/// damaged boots on either tier: both open the image and decode a word
/// at first touch, so the damage fails that word — a typed error for a
/// search on it and for an ingest that must splice it — while every other
/// word answers.
#[test]
fn a_damaged_word_stream_fails_that_word_on_either_tier() {
    let (g, _) = patternkb::datagen::figure1();
    let built = EngineBuilder::new()
        .graph(g.clone())
        .shards(1)
        .threads(1)
        .build()
        .unwrap();
    let revenue = built.text().lookup_word("revenue").unwrap();
    let mut image = encode_v5(built.index());
    // The low bit of the stream's leading group count (a one-byte
    // varint): one group too many or too few, either way a decode error.
    let damaged = stream_range(&image, 0, revenue.0);
    image[damaged.start] ^= 1;
    let dir = std::env::temp_dir().join(format!("patternkb_damaged_word_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("idx.pkb5");
    std::fs::write(&path, &image).unwrap();

    for storage in [StorageBackend::Heap, StorageBackend::Mmap] {
        let shared = EngineBuilder::new()
            .graph(g.clone())
            .index_snapshot(&path)
            .storage(storage)
            .build_shared()
            .unwrap_or_else(|e| panic!("{storage}: intact framing must boot: {e}"));
        assert_eq!(shared.snapshot().storage_backend(), storage);

        let err = shared.respond(&SearchRequest::text("revenue")).unwrap_err();
        match err {
            Error::Snapshot(isnap::SnapshotError::BadReference { offset })
            | Error::Snapshot(isnap::SnapshotError::Truncated { offset }) => {
                assert_eq!(offset, damaged.start, "{storage}")
            }
            other => panic!("{storage}: expected a typed snapshot error, got {other:?}"),
        }
        let other = shared
            .respond(&SearchRequest::text("database software company"))
            .unwrap_or_else(|e| panic!("{storage}: another word must answer: {e}"));
        assert!(!other.patterns.is_empty(), "{storage}");

        let version = shared.version();
        let err = shared
            .ingest_with(PagerankMode::Frozen, |snap| {
                Ok::<_, std::convert::Infallible>(revenue_batch(snap.graph()))
            })
            .unwrap_err();
        assert!(
            matches!(err, patternkb::search::IngestError::Snapshot(_)),
            "{storage}: {err}"
        );
        assert_eq!(shared.version(), version, "{storage}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Degenerate graphs
// ---------------------------------------------------------------------

#[test]
fn single_node_graph() {
    let mut b = GraphBuilder::new();
    let t = b.add_type("Lonely");
    b.add_node(t, "only one here");
    let e = build(b.build(), 3);
    let q = e.parse("lonely").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    assert_eq!(r.patterns.len(), 1);
    assert_eq!(r.patterns[0].num_trees, 1);
    let q = e.parse("only one").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    assert_eq!(r.patterns.len(), 1, "two keywords on one node still answer");
}

#[test]
fn self_loop_paths_stay_simple() {
    let mut b = GraphBuilder::new();
    let t = b.add_type("Node");
    let a = b.add_attr("loops to");
    let v = b.add_node(t, "ouroboros");
    b.add_edge(v, a, v);
    let e = build(b.build(), 4);
    // The self loop must not create infinite or repeated-node paths.
    let q = e.parse("ouroboros").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    for p in &r.patterns {
        for pat in &p.pattern {
            assert!(
                pat.num_nodes() <= 1,
                "self-loop leaked into a path: {pat:?}"
            );
        }
    }
    // The only occurrence of "loops" is on the self-loop edge, whose
    // edge-terminal "subtree" (v → v) is not a tree; the paper's subtrees
    // are simple, so the query correctly has zero answers.
    let q = e.parse("loops").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    assert!(r.patterns.is_empty());
    assert_eq!(e.count_subtrees(&q), 0);
}

#[test]
fn two_cycle_answers_bounded() {
    let mut b = GraphBuilder::new();
    let t = b.add_type("Station");
    let a = b.add_attr("next");
    let x = b.add_node(t, "alpha stop");
    let y = b.add_node(t, "beta stop");
    b.add_edge(x, a, y);
    b.add_edge(y, a, x);
    let e = build(b.build(), 4);
    let q = e.parse("alpha beta").unwrap();
    let r = run(&e, &q, 100, AlgorithmChoice::PatternEnum);
    // Paths are simple, so patterns have at most 2 nodes per path.
    assert!(!r.patterns.is_empty());
    for p in &r.patterns {
        for pat in &p.pattern {
            assert!(pat.num_nodes() <= 2);
        }
    }
    assert_eq!(e.count_patterns(&q), r.patterns.len() as u64);
}

#[test]
fn parallel_attribute_values() {
    // "Products: Windows, Bing" — one attribute, several edges.
    let mut b = GraphBuilder::new();
    let company = b.add_type("Company");
    let product = b.add_type("Product");
    let products = b.add_attr("products");
    let ms = b.add_node(company, "Redmond Giant");
    let win = b.add_node(product, "window system");
    let bing = b.add_node(product, "bing search");
    b.add_edge(ms, products, win);
    b.add_edge(ms, products, bing);
    let e = build(b.build(), 2);
    let q = e.parse("giant products").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    // One pattern (Company)(products); both product edges are subtrees.
    let top = r.top().unwrap();
    assert_eq!(top.num_trees, 2);
}

#[test]
fn unicode_text_is_searchable_by_ascii_tokens() {
    let mut b = GraphBuilder::new();
    let t = b.add_type("Künstler");
    let v = b.add_node(t, "Dvořák — composer (Antonín)");
    let a = b.add_attr("née");
    b.add_text_edge(v, a, "Zlonice čtyři");
    let e = build(b.build(), 2);
    // The tokenizer treats non-ASCII as separators; ASCII runs remain.
    let q = e.parse("composer").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    assert_eq!(r.patterns.len(), 1);
    let table = r.top_table().unwrap();
    assert!(table.rows[0].iter().any(|c| c.contains("Dvořák")));
}

#[test]
fn duplicate_keywords_are_honest() {
    // "database database" — the same word twice maps both query positions
    // to (possibly) the same path; answers must exist and agree across
    // algorithms.
    let e = figure1_engine();
    let q = e.parse("database database").unwrap();
    let a = run(&e, &q, 100, AlgorithmChoice::LinearEnum);
    let b = run(&e, &q, 100, AlgorithmChoice::PatternEnum);
    let c = run(&e, &q, 100, AlgorithmChoice::Baseline);
    assert!(!a.patterns.is_empty());
    assert_eq!(a.patterns.len(), b.patterns.len());
    assert_eq!(a.patterns.len(), c.patterns.len());
    for (x, y) in a.patterns.iter().zip(&b.patterns) {
        assert_eq!(x.key(), y.key());
    }
}

#[test]
fn d_equals_one_only_trivial_paths() {
    let e_d1 = {
        let (g, _) = patternkb::datagen::figure1();
        build(g, 1)
    };
    // With d = 1 only single-node (node-terminal) paths exist: no
    // edge-terminal matches (they'd imply a 2-node height), so "revenue"
    // (attribute-only) has no paths at all.
    // Parse may fail (keyword absent from the d=1 index) — also acceptable.
    if let Ok(q) = e_d1.parse("database software company revenue") {
        assert!(run(&e_d1, &q, 10, AlgorithmChoice::PatternEnum)
            .patterns
            .is_empty());
    }
    let q = e_d1.parse("database").unwrap();
    let r = run(&e_d1, &q, 10, AlgorithmChoice::PatternEnum);
    for p in &r.patterns {
        for pat in &p.pattern {
            assert_eq!(pat.height(), 1);
        }
    }
}

#[test]
fn k_zero_is_a_typed_error() {
    // The request route rejects k = 0 up front instead of running a
    // pointless search.
    let e = figure1_engine();
    let q = e.parse("database company").unwrap();
    for algo in [
        AlgorithmChoice::Baseline,
        AlgorithmChoice::PatternEnum,
        AlgorithmChoice::PatternEnumPruned,
        AlgorithmChoice::LinearEnum,
    ] {
        let res = e.respond(&SearchRequest::query(q.clone()).k(0).algorithm(algo));
        assert!(
            matches!(res, Err(Error::InvalidRequest(_))),
            "{algo:?} must reject k = 0"
        );
    }
}

#[test]
fn unanswerable_multi_keyword_query() {
    let e = figure1_engine();
    // Both words exist, but no root reaches both.
    let q = e.parse("oracle gates").unwrap();
    for algo in [
        AlgorithmChoice::Baseline,
        AlgorithmChoice::PatternEnum,
        AlgorithmChoice::PatternEnumPruned,
        AlgorithmChoice::LinearEnum,
    ] {
        let r = run(&e, &q, 10, algo);
        assert!(r.patterns.is_empty(), "{algo:?}");
    }
    assert_eq!(e.count_patterns(&q), 0);
    assert_eq!(e.count_subtrees(&q), 0);
}

// ---------------------------------------------------------------------
// Mutation edge cases through the engine
// ---------------------------------------------------------------------

#[test]
fn mutation_to_empty_answers_and_back() {
    let mut e = figure1_engine();
    let dev = e.graph().attr_by_text("Developer").unwrap();
    // Remove a Developer edge (an anchor of pattern P1), then restore it.
    let edges: Vec<_> = e.graph().edges().collect();
    let dev_edge = edges.iter().find(|ed| ed.attr == dev).copied().unwrap();
    let mut d = GraphDelta::new(e.graph());
    d.remove_edge(dev_edge.source, dev_edge.attr, dev_edge.target)
        .unwrap();
    let stats = e.apply_delta(&d, PagerankMode::Frozen).unwrap();
    assert!(stats.postings_dropped > 0);

    // Re-add it: answers must return.
    let mut d = GraphDelta::new(e.graph());
    d.add_edge(dev_edge.source, dev_edge.attr, dev_edge.target)
        .unwrap();
    e.apply_delta(&d, PagerankMode::Frozen).unwrap();
    let q = e.parse("database software company revenue").unwrap();
    let r = run(&e, &q, 10, AlgorithmChoice::PatternEnum);
    assert_eq!(r.patterns.len(), 9, "round-trip mutation restored answers");
}

#[test]
fn many_chained_deltas_stay_queryable() {
    let mut e = figure1_engine();
    for step in 0..8 {
        let g = e.graph();
        let comp = g.type_by_text("Company").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(g);
        let v = d
            .add_node(comp, &format!("database vendor {step}"))
            .unwrap();
        d.add_text_edge(v, rev, &format!("US$ {step} billion"))
            .unwrap();
        e.apply_delta(&d, PagerankMode::Frozen).unwrap();
    }
    assert_eq!(e.version(), 8);
    let q = e.parse("vendor revenue").unwrap();
    let r = run(&e, &q, 100, AlgorithmChoice::PatternEnum);
    assert!(!r.patterns.is_empty());
    let top = r.top().unwrap();
    assert_eq!(top.num_trees, 8, "every delta's vendor row answers");
}

#[test]
fn index_rebuild_equals_incremental_through_engine() {
    // End-to-end: after a batch of engine deltas, a from-scratch engine
    // over the same graph returns identical answers.
    let mut e = figure1_engine();
    let g = e.graph();
    let soft = g.type_by_text("Software").unwrap();
    let dev = g.attr_by_text("Developer").unwrap();
    let comp = g.type_by_text("Company").unwrap();
    let mut d = GraphDelta::new(g);
    let pg = d.add_node(soft, "PostgreSQL database").unwrap();
    let org = d.add_node(comp, "Global Dev Group").unwrap();
    d.add_edge(pg, dev, org).unwrap();
    e.apply_delta(&d, PagerankMode::Recompute).unwrap();

    let fresh = build(e.graph().clone(), 3);
    for text in ["database software", "database developer", "group"] {
        let q1 = e.parse(text).unwrap();
        let q2 = fresh.parse(text).unwrap();
        let r1 = run(&e, &q1, 100, AlgorithmChoice::PatternEnum);
        let r2 = run(&fresh, &q2, 100, AlgorithmChoice::PatternEnum);
        assert_eq!(r1.patterns.len(), r2.patterns.len(), "{text}");
        for (a, b) in r1.patterns.iter().zip(&r2.patterns) {
            assert!((a.score - b.score).abs() < 1e-9, "{text}");
            assert_eq!(a.num_trees, b.num_trees, "{text}");
        }
    }
}
