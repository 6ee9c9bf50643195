//! The work every kernel does, pinned: per response of a fixed request
//! pool, the stats that count it — candidate roots, subtrees enumerated,
//! combinations tried and pruned, cursor seeks and keys interned — folded
//! into one FNV-1a digest. The byte pins (`search_body_bytes_are_pinned`,
//! `index_image_bytes_are_pinned`) hold what a search answers; this one
//! holds how much it took to answer it, so a rewrite of the join or the
//! enumeration loops cannot trade seeks or subtrees unnoticed. The traced
//! benchmark's count rows vary between runs; these counts do not (one
//! thread, graphs far below the fan-out threshold).

use patternkb::datagen::queries::QueryGenerator;
use patternkb::datagen::{imdb, wiki, ImdbConfig, WikiConfig};
use patternkb::prelude::*;

/// FNV-1a over the little-endian bytes of `values`, continuing `digest`.
fn fnv(mut digest: u64, values: &[u64]) -> u64 {
    for v in values {
        for b in v.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// Every algorithm choice, with a sampled `LINEARENUM-TOPK` besides the
/// exact one (only a sampled partition re-scores its winners).
fn requests(q: &Query) -> Vec<SearchRequest> {
    let mut out = Vec::new();
    for algo in [
        AlgorithmChoice::Auto,
        AlgorithmChoice::Baseline,
        AlgorithmChoice::PatternEnum,
        AlgorithmChoice::PatternEnumPruned,
        AlgorithmChoice::LinearEnum,
        AlgorithmChoice::LinearEnumTopK,
    ] {
        for k in [3, 50] {
            for strict in [false, true] {
                let base = SearchRequest::query(q.clone())
                    .k(k)
                    .max_rows(4)
                    .strict_trees(strict)
                    .algorithm(algo);
                if algo == AlgorithmChoice::LinearEnumTopK {
                    out.push(base.clone().sampling(SamplingConfig::new(10, 0.5, 7)));
                }
                out.push(base);
            }
        }
    }
    out
}

/// The pool's digest over shards {1, 2}, and the number of responses.
fn work_digest(g: &KnowledgeGraph, seed: u64, queries: usize) -> (u64, usize) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut responses = 0;
    for shards in [1, 2] {
        let e = EngineBuilder::new()
            .graph(g.clone())
            .height(3)
            .threads(1)
            .shards(shards)
            .build()
            .unwrap();
        let mut generator = QueryGenerator::new(e.graph(), e.text(), 3, seed);
        for i in 0..queries {
            let Some(spec) = generator.anchored(1 + i % 4) else {
                continue;
            };
            let q = Query::from_ids(spec.keywords);
            for request in requests(&q) {
                let s = &e.respond(&request).unwrap().stats;
                digest = fnv(
                    digest,
                    &[
                        s.candidate_roots as u64,
                        s.subtrees as u64,
                        s.combos_tried as u64,
                        s.combos_pruned as u64,
                        s.hot.intersect_seeks,
                        s.hot.keys_interned,
                    ],
                );
                responses += 1;
            }
        }
    }
    (digest, responses)
}

#[test]
fn kernel_work_is_pinned() {
    let wiki = work_digest(&wiki::wiki(&WikiConfig::tiny(3)), 5, 12);
    let imdb = work_digest(&imdb::imdb(&ImdbConfig::tiny(3)), 7, 8);
    assert_eq!(
        (wiki, imdb),
        ((15943023715481131806, 672), (16607892428584501461, 448)),
        "the kernels' work counts moved"
    );
}
