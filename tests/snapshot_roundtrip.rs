//! Snapshots of generated datasets round-trip and produce identical search
//! results — guaranteeing that the bench harness's on-disk caching cannot
//! change any experiment.

use patternkb::datagen::{imdb, wiki, ImdbConfig, WikiConfig};
use patternkb::graph::snapshot;
use patternkb::prelude::*;

#[test]
fn wiki_snapshot_preserves_search_results() {
    let g = wiki::wiki(&WikiConfig::tiny(3));
    let decoded = snapshot::decode(&snapshot::encode(&g)).expect("roundtrip");
    let e1 = EngineBuilder::new().graph(g).threads(1).build().unwrap();
    let e2 = EngineBuilder::new()
        .graph(decoded)
        .threads(1)
        .build()
        .unwrap();

    // Same index shape.
    assert_eq!(e1.index().num_postings(), e2.index().num_postings());
    assert_eq!(e1.index().patterns().len(), e2.index().patterns().len());

    // Same answers for a few queries drawn from the vocabulary.
    let mut qg = patternkb::datagen::queries::QueryGenerator::new(e1.graph(), e1.text(), 3, 9);
    for _ in 0..5 {
        let Some(spec) = qg.anchored(2) else { continue };
        let q1 = Query::from_ids(spec.keywords.clone());
        // Re-parse by surface on the second engine (vocab ids must agree
        // because the text is identical).
        let q2 = e2.parse(&spec.surface.join(" ")).expect("same vocab");
        let r1 = e1
            .respond(
                &SearchRequest::query(q1)
                    .k(20)
                    .algorithm(AlgorithmChoice::PatternEnum),
            )
            .unwrap();
        let r2 = e2
            .respond(
                &SearchRequest::query(q2)
                    .k(20)
                    .algorithm(AlgorithmChoice::PatternEnum),
            )
            .unwrap();
        assert_eq!(r1.patterns.len(), r2.patterns.len());
        for (a, b) in r1.patterns.iter().zip(&r2.patterns) {
            assert!((a.score - b.score).abs() < 1e-9);
            assert_eq!(a.num_trees, b.num_trees);
        }
    }
}

#[test]
fn imdb_snapshot_roundtrips() {
    let g = imdb::imdb(&ImdbConfig::tiny(4));
    let decoded = snapshot::decode(&snapshot::encode(&g)).expect("roundtrip");
    assert_eq!(decoded.num_nodes(), g.num_nodes());
    assert_eq!(decoded.num_edges(), g.num_edges());
    for v in g.nodes() {
        assert_eq!(decoded.node_text(v), g.node_text(v));
        assert!((decoded.pagerank(v) - g.pagerank(v)).abs() < 1e-15);
    }
}

/// How a graph is laid out in memory is not how it is laid out on disk:
/// pin the `PKBG` bytes of Figure 1 as built and with a delta applied
/// (new type and attribute, new nodes, an added and a removed edge), so a
/// change of the in-memory representation that reorders, drops or
/// duplicates anything shows up as a changed file. Both digests were taken
/// on the flat-array layout this representation replaced. The delta's own
/// `PKBD` bytes are pinned too, taken before its encoder moved from a
/// byte-buffer type to `Vec<u8>`.
#[test]
fn graph_snapshot_bytes_are_pinned() {
    let digest = |bytes: &[u8]| {
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (bytes.len(), fnv1a)
    };
    let (g, _) = patternkb::datagen::figure1();
    let built = snapshot::encode(&g);

    let mut d = GraphDelta::new(&g);
    let lab = d.add_type("Research Lab");
    let sponsor = d.add_attr("Sponsor");
    let msr = d.add_node(lab, "Microsoft Research").unwrap();
    let first = g.edges().next().expect("figure 1 has edges");
    d.add_edge(msr, sponsor, first.source).unwrap();
    d.add_text_edge(msr, sponsor, "US$ 1 million").unwrap();
    d.remove_edge(first.source, first.attr, first.target)
        .unwrap();
    let applied = snapshot::encode(&d.apply(&g, PagerankMode::Frozen).unwrap());

    assert_eq!(digest(&built), (711, 0xe5ca_2126_0564_7a3e), "built");
    assert_eq!(digest(&applied), (813, 0x7fff_cb55_9e16_c235), "applied");
    assert_eq!(digest(&d.encode()), (304, 0xb363_8b1e_fed0_0988), "delta");
    // A decoded graph is a built one: it writes the file it was read from.
    for bytes in [&built, &applied] {
        let reread = snapshot::decode(bytes).expect("decode");
        assert_eq!(&snapshot::encode(&reread), bytes);
    }
}
