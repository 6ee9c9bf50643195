//! Count bytes and chunks, not microseconds: what `GraphDelta::apply`
//! costs.
//!
//! A graph version is a table of `Arc`-shared node chunks, and applying a
//! delta copies the chunks the batch has an edit in — for the benchmark's
//! ingest (one new entity, one text attribute) the tail chunk — and shares
//! the rest with the base. So the bytes `apply` allocates do not grow with
//! the graph: ten times the entities cost the same copy, give or take how
//! full the tail chunk happens to be, plus eight bytes per chunk for the
//! table itself. Both counts repeat exactly on any machine, which a timing
//! does not.
//!
//! What a copied chunk weighs is its content. The wiki generator puts its
//! 400 shared text values last, and their in-rows grow with the graph, so
//! the raw graphs' tail chunks differ tenfold like the graphs do. The byte
//! comparison therefore runs after [`FILLER`] plain nodes have moved the
//! tail past them; the chunk count is checked on the raw graph too.

use patternkb::datagen::wiki::{wiki, WikiConfig};
use patternkb::graph::mutate::{GraphDelta, PagerankMode};
use patternkb::graph::KnowledgeGraph;

mod common;

/// Plain nodes appended before the byte measurement: more than two
/// chunks' worth, so the tail chunk holds nothing else.
const FILLER: usize = 3_000;

struct Applied {
    /// Bytes `apply` requested.
    bytes: usize,
    /// Chunks of the new version that are the base's own allocations.
    shared: usize,
    /// Chunks of the new version.
    chunks: usize,
    /// Resident bytes of the new version.
    heap_bytes: usize,
}

/// Apply the benchmark's ingest — `add_node` + `add_text_edge` — to `g`.
fn apply_one_entity(g: &KnowledgeGraph) -> Applied {
    let (entity_type, _) = g.types().iter().nth(1).expect("an entity type");
    let (attr, _) = g.attrs().iter().next().expect("an attribute");
    let mut delta = GraphDelta::new(g);
    let vendor = delta.add_node(entity_type, "bench vendor 1").unwrap();
    delta.add_text_edge(vendor, attr, "ingestmark 1").unwrap();

    let (next, requested) = common::tally(|| delta.apply(g, PagerankMode::Frozen).unwrap());
    assert_eq!(next.num_nodes(), g.num_nodes() + 2);
    assert_eq!(next.num_edges(), g.num_edges() + 1);
    let (shared, chunks) = next.chunks_shared_with(g);
    Applied {
        bytes: requested.bytes,
        shared,
        chunks,
        heap_bytes: next.heap_bytes(),
    }
}

/// A wiki graph of `entities` entities: what a one-entity ingest costs on
/// it as generated, and with the filler behind it.
fn measure(entities: usize) -> (Applied, Applied) {
    let g = wiki(&WikiConfig {
        entities,
        seed: 9,
        ..WikiConfig::default()
    });
    let raw = apply_one_entity(&g);
    let (entity_type, _) = g.types().iter().nth(1).expect("an entity type");
    let mut filler = GraphDelta::new(&g);
    for i in 0..FILLER {
        filler
            .add_node(entity_type, &format!("filler {i}"))
            .unwrap();
    }
    let filled = filler.apply(&g, PagerankMode::Frozen).unwrap();
    (raw, apply_one_entity(&filled))
}

#[test]
fn apply_costs_the_chunks_it_touches_not_the_graph() {
    let (small_raw, small) = measure(5_000);
    let (large_raw, large) = measure(50_000);
    assert!(
        large_raw.chunks >= 8 * small_raw.chunks,
        "the graphs differ tenfold: {} vs {} chunks",
        small_raw.chunks,
        large_raw.chunks
    );
    for (name, run) in [
        ("5 k", &small_raw),
        ("50 k", &large_raw),
        ("5 k + filler", &small),
        ("50 k + filler", &large),
    ] {
        assert!(
            run.shared + 3 >= run.chunks,
            "{name}: {} of {} chunks copied by a one-entity ingest",
            run.chunks - run.shared,
            run.chunks
        );
    }
    let one_chunk = large.heap_bytes / large.chunks;
    assert!(
        small.bytes.abs_diff(large.bytes) <= one_chunk,
        "apply requested {} bytes on the 5 k graph and {} on the 50 k one; \
         a chunk is about {one_chunk}",
        small.bytes,
        large.bytes
    );
    // And what it costs is a few chunks, where the flat layout allocated
    // the whole graph over again.
    assert!(
        large.bytes <= 4 * one_chunk,
        "apply requested {} bytes, a chunk is about {one_chunk}",
        large.bytes
    );
}
