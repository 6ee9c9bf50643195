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
//!
//! The index and text halves follow the same rule: `refresh_indexes`
//! splices the few posting lists the new roots post into and shares the
//! rest, the pattern set included; `TextIndex::extended` copies the
//! inverted lists the new nodes join and shares the rest, the vocabulary
//! included. What they request is those lists plus the node-token column
//! (the one list still copied whole) plus a fixed amount.

use patternkb::datagen::wiki::{wiki, WikiConfig};
use patternkb::graph::mutate::{GraphDelta, PagerankMode};
use patternkb::graph::{AttrId, KnowledgeGraph};
use patternkb::index::{build_indexes, refresh_indexes, BuildConfig};
use patternkb::text::{SynonymTable, TextIndex};

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

/// Bytes a one-entity refresh may request beyond the lists it copies: the
/// word-list map and schema tables of the text index, and the refresh's
/// own working set (re-enumeration, buckets, patch map).
const REFRESH_SLACK: usize = 128 << 10;

struct Refreshed {
    /// Bytes `TextIndex::extended` and `refresh_indexes` requested.
    bytes: usize,
    /// Of those, what the copied lists account for: the spliced posting
    /// lists' `heap_bytes`, the text lists the new nodes joined and the
    /// node-token column.
    lists: usize,
}

/// The index and text halves of the benchmark's ingest on a wiki graph of
/// `entities` entities, measured on the second one: the first interns the
/// batch's words and path patterns, as the benchmark's warm-up does.
fn refresh_one_entity(entities: usize) -> Refreshed {
    let g = wiki(&WikiConfig {
        entities,
        seed: 9,
        ..WikiConfig::default()
    });
    let text = TextIndex::build(&g, SynonymTable::new());
    let cfg = BuildConfig {
        d: 3,
        threads: 2,
        shards: 2,
    };
    let idx = build_indexes(&g, &text, &cfg);
    let (entity_type, _) = g.types().iter().nth(1).expect("an entity type");
    let attr = AttrId(0);
    let ingest = |g: &KnowledgeGraph, text: &TextIndex, idx, name: &str, value: &str| {
        let mut delta = GraphDelta::new(g);
        let v = delta.add_node(entity_type, name).unwrap();
        delta.add_text_edge(v, attr, value).unwrap();
        let next = delta.apply(g, PagerankMode::Frozen).unwrap();
        let ((next_text, (next_idx, _)), requested) = common::tally(|| {
            let next_text = text.extended(&next, &delta);
            let refreshed =
                refresh_indexes(idx, g, &next, text, &next_text, &delta.dirty_nodes(), false);
            (next_text, refreshed)
        });
        (next, next_text, next_idx, requested.bytes)
    };
    let (g, text, idx, _) = ingest(&g, &text, &idx, "bench vendor 1", "ingestmark 2");
    let (g2, text2, idx2, bytes) = ingest(&g, &text, &idx, "bench vendor 2", "ingestmark 1");

    assert!(
        std::ptr::eq(idx.patterns(), idx2.patterns()),
        "{entities}: pattern set"
    );
    assert!(
        std::ptr::eq(text.vocab(), text2.vocab()),
        "{entities}: vocabulary"
    );
    let mut spliced = 0;
    for (s, shard) in idx2.shards().iter().enumerate() {
        for w in shard.word_ids() {
            let list = idx2.word_in(s, w).unwrap();
            if !idx
                .word_in(s, w)
                .is_some_and(|old| std::sync::Arc::ptr_eq(&old, &list))
            {
                spliced += list.heap_bytes();
            }
        }
    }
    let (mut joined, mut text_lists) = (0, 0);
    for (w, _) in text.vocab().iter() {
        let (old, new) = (text.nodes_matching(w), text2.nodes_matching(w));
        if old.as_ptr() != new.as_ptr() {
            joined += 1;
            text_lists += 4 * new.len();
        }
    }
    // The new entity's name and type, and the value's words.
    assert!(
        joined <= 6,
        "{entities}: {joined} word lists copied, the rest shared"
    );
    if text.attr_sources(attr).as_ptr() != text2.attr_sources(attr).as_ptr() {
        text_lists += 4 * text2.attr_sources(attr).len();
    }
    let column = 4 * (g2.num_nodes() + 1)
        + g2.nodes()
            .map(|v| 4 * text2.node_tokens(v).len())
            .sum::<usize>();
    Refreshed {
        bytes,
        lists: spliced + text_lists + column,
    }
}

#[test]
fn refresh_costs_the_lists_it_copies_not_the_index() {
    let small = refresh_one_entity(5_000);
    let large = refresh_one_entity(50_000);
    for (name, run) in [("5 k", &small), ("50 k", &large)] {
        assert!(
            run.bytes <= run.lists + REFRESH_SLACK,
            "{name}: requested {} bytes for {} bytes of copied lists",
            run.bytes,
            run.lists
        );
    }
    // Beyond the copied lists, ten times the graph costs the same bytes.
    let beyond = |run: &Refreshed| run.bytes.saturating_sub(run.lists);
    assert!(
        beyond(&small).abs_diff(beyond(&large)) <= 4 << 10,
        "beyond the copied lists: {} bytes on the 5 k graph, {} on the 50 k one",
        beyond(&small),
        beyond(&large)
    );
}
