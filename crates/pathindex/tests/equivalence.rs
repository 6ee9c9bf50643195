//! Index correctness against a brute-force oracle.
//!
//! For random Wiki-like graphs, the set of `(word, pattern, root, path)`
//! postings produced by Algorithm 1 must equal an independent brute-force
//! enumeration straight off the graph, and the two access orders (Figure
//! 4(a) and 4(b)) must expose exactly the same postings through their
//! cursors.

use patternkb_datagen::wiki::{wiki, WikiConfig};
use patternkb_graph::ids::Id;
use patternkb_graph::{traversal, KnowledgeGraph, WordId};
use patternkb_index::{build_indexes, storage, BuildConfig, PathIndexes, PatternId};
use patternkb_text::{SynonymTable, TextIndex};
use std::collections::BTreeSet;

/// Canonical form of one posting: (word, encoded pattern, root, node
/// sequence, edge-terminal flag).
type Canon = (u32, Vec<u32>, u32, Vec<u32>, bool);

/// Brute-force enumeration of every expected posting.
fn brute_force(g: &KnowledgeGraph, text: &TextIndex, d: usize) -> BTreeSet<Canon> {
    let mut out = BTreeSet::new();
    for root in g.nodes() {
        traversal::for_each_path(g, root, d, |nodes, attrs| {
            let l = nodes.len();
            let t = *nodes.last().unwrap();
            let t_type = g.node_type(t);
            // Node-terminal postings.
            let mut words: Vec<WordId> = text
                .node_tokens(t)
                .iter()
                .chain(text.type_tokens(t_type))
                .copied()
                .collect();
            words.sort_unstable();
            words.dedup();
            let mut key = vec![(l as u32) << 1];
            for j in 0..l {
                key.push(g.node_type(nodes[j]).as_u32());
                if j < attrs.len() {
                    key.push(attrs[j].as_u32());
                }
            }
            for &w in &words {
                out.insert((
                    w.as_u32(),
                    key.clone(),
                    root.as_u32(),
                    nodes.iter().map(|n| n.as_u32()).collect(),
                    false,
                ));
            }
            // Edge-terminal postings.
            if l < d {
                for (attr, target) in g.out_edges(t) {
                    if nodes.contains(&target) {
                        continue;
                    }
                    let attr_words = text.attr_tokens(attr);
                    if attr_words.is_empty() {
                        continue;
                    }
                    let mut ekey = vec![((l as u32) << 1) | 1];
                    for j in 0..l {
                        ekey.push(g.node_type(nodes[j]).as_u32());
                        if j < attrs.len() {
                            ekey.push(attrs[j].as_u32());
                        }
                    }
                    ekey.push(attr.as_u32());
                    let mut enodes: Vec<u32> = nodes.iter().map(|n| n.as_u32()).collect();
                    enodes.push(target.as_u32());
                    for &w in attr_words {
                        out.insert((
                            w.as_u32(),
                            ekey.clone(),
                            root.as_u32(),
                            enodes.clone(),
                            true,
                        ));
                    }
                }
            }
        });
    }
    out
}

/// Extract the canonical posting set through the pattern-first order:
/// each pattern's run cursor stepped over its roots.
fn via_pattern_first(idx: &PathIndexes) -> BTreeSet<Canon> {
    let mut out = BTreeSet::new();
    for (w, widx) in idx.shards().iter().flat_map(|s| s.iter_words()) {
        for pat in widx.patterns() {
            let key = idx.patterns().key(pat).to_vec();
            let mut c = widx.pattern_run_cursor(widx.pattern_primary(pat).unwrap());
            let mut root = c.as_mut().seek(0);
            while let Some(r) = root {
                for p in c.postings() {
                    out.insert((
                        w.as_u32(),
                        key.clone(),
                        r,
                        widx.nodes_of(p).iter().map(|n| n.as_u32()).collect(),
                        p.edge_terminal,
                    ));
                }
                root = c.as_mut().advance();
            }
        }
    }
    out
}

/// Extract the canonical posting set through the root-first order: a
/// root cursor stepped over the word's roots, reading each one's runs.
fn via_root_first(idx: &PathIndexes) -> BTreeSet<Canon> {
    let mut out = BTreeSet::new();
    for (w, widx) in idx.shards().iter().flat_map(|s| s.iter_words()) {
        let mut c = widx.root_cursor();
        let mut root = c.as_mut().seek(0);
        while let Some(r) = root {
            for (pat, paths) in c.runs() {
                let key = idx.patterns().key(PatternId(pat)).to_vec();
                for p in paths {
                    out.insert((
                        w.as_u32(),
                        key.clone(),
                        r,
                        widx.nodes_of(p).iter().map(|n| n.as_u32()).collect(),
                        p.edge_terminal,
                    ));
                }
            }
            root = c.as_mut().advance();
        }
    }
    out
}

fn check(seed: u64, d: usize) {
    // Exercise a different shard count per seed; posting sets must agree
    // regardless of the partition.
    let g = wiki(&WikiConfig {
        entities: 150,
        types: 6,
        attrs_per_type: 3,
        attr_pool: 6,
        vocab: 40,
        avg_degree: 3.0,
        value_pool: 15,
        seed,
        ..WikiConfig::default()
    });
    let text = TextIndex::build(&g, SynonymTable::new());
    let shards = 1 + (seed as usize % 3);
    let idx = build_indexes(
        &g,
        &text,
        &BuildConfig {
            d,
            threads: 2,
            shards,
        },
    );
    let expected = brute_force(&g, &text, d);
    let pf = via_pattern_first(&idx);
    let rf = via_root_first(&idx);
    assert_eq!(pf.len(), idx.num_postings(), "seed {seed} d {d}");
    assert_eq!(
        pf, expected,
        "pattern-first vs brute force, seed {seed} d {d}"
    );
    assert_eq!(rf, expected, "root-first vs brute force, seed {seed} d {d}");
}

#[test]
fn indexes_match_brute_force_d2() {
    for seed in 0..4 {
        check(seed, 2);
    }
}

#[test]
fn indexes_match_brute_force_d3() {
    for seed in 0..4 {
        check(seed, 3);
    }
}

#[test]
fn indexes_match_brute_force_d4() {
    check(7, 4);
}

#[test]
fn num_paths_of_root_is_consistent() {
    let g = wiki(&WikiConfig::tiny(5));
    let text = TextIndex::build(&g, SynonymTable::new());
    let idx = build_indexes(
        &g,
        &text,
        &BuildConfig {
            d: 3,
            threads: 0,
            shards: 1,
        },
    );
    for (_, widx) in idx.shards().iter().flat_map(|s| s.iter_words()) {
        let keyed = widx.postings_pattern_first();
        let mut c = widx.root_cursor();
        for &r in widx.roots() {
            let counted = keyed.iter().filter(|p| p.root.0 == r).count();
            assert_eq!(c.as_mut().seek(r), Some(r));
            assert_eq!(c.num_paths(), counted);
            let via_runs: usize = c.runs().map(|(_, ps)| ps.len()).sum();
            assert_eq!(via_runs, counted);
        }
    }
}

#[test]
fn snapshot_of_real_index_roundtrips() {
    let g = wiki(&WikiConfig::tiny(11));
    let text = TextIndex::build(&g, SynonymTable::new());
    let idx = build_indexes(
        &g,
        &text,
        &BuildConfig {
            d: 3,
            threads: 0,
            shards: 1,
        },
    );
    let decoded = patternkb_index::snapshot::decode(&patternkb_index::storage::encode_v5(&idx))
        .expect("decode");
    assert_eq!(via_pattern_first(&idx), via_pattern_first(&decoded));
    assert_eq!(via_root_first(&idx), via_root_first(&decoded));
}

/// Every posting is resident once: 32 B of `Posting`, its share of the
/// node arena, the pattern-first offsets and the root directory — 87.2 B
/// on this graph. A second full copy of the postings reads 112.6 B.
#[test]
fn resident_bytes_per_posting_stay_single_copy() {
    let g = wiki(&WikiConfig {
        entities: 8_000,
        ..WikiConfig::default()
    });
    let text = TextIndex::build(&g, SynonymTable::new());
    let idx = build_indexes(
        &g,
        &text,
        &BuildConfig {
            d: 3,
            threads: 1,
            shards: 1,
        },
    );
    let per_posting = idx.heap_bytes() as f64 / idx.num_postings() as f64;
    assert!(
        per_posting <= 90.0,
        "{per_posting:.1} resident bytes per posting over {} postings",
        idx.num_postings()
    );
}

/// The in-memory twin of the image-size gate: the ledger's index shape
/// (`wiki`, seed 42, d = 3, two shards) at 8 000 entities, written as an
/// image, opened, and every word decoded. `heap_bytes` counts what each
/// list holds allocated, so a layout that grows a list fails here, not
/// only in the traced benchmark row. 60.07 bytes per posting measured
/// with the columnar lists (81.81, counting lengths, while each posting
/// kept its key and the lists kept run directories); the ceiling sits 1 %
/// above the measurement.
#[test]
fn decoded_bytes_per_posting_are_pinned() {
    let g = wiki(&WikiConfig {
        entities: 8_000,
        seed: 42,
        ..WikiConfig::default()
    });
    let text = TextIndex::build(&g, SynonymTable::new());
    let built = build_indexes(
        &g,
        &text,
        &BuildConfig {
            d: 3,
            threads: 1,
            shards: 2,
        },
    );
    let idx = storage::open_bytes(storage::encode_v5(&built)).expect("opens");
    drop(built);
    idx.prepare_words(&idx.word_ids())
        .expect("every word decodes");
    let per_posting = idx.heap_bytes() as f64 / idx.num_postings() as f64;
    assert!(
        per_posting <= 60.67,
        "{per_posting:.2} decoded bytes per posting over {} postings",
        idx.num_postings()
    );
}
