//! The work every kernel does, pinned: per response of a fixed request
//! pool, the stats that count it, folded into FNV-1a digests — one pair
//! per kind of request (each `AlgorithmChoice`, and a sampled
//! `LINEARENUM-TOPK` besides the exact one). The answer digest holds what
//! the kernel found: candidate roots, subtrees enumerated, combinations
//! tried and pruned. The cost digest holds what finding it took: cursor
//! seeks and keys interned. The byte pins (`search_body_bytes_are_pinned`,
//! `index_image_bytes_are_pinned`) hold what a search answers; these hold
//! how much it took to answer it, so a rewrite of the join or the
//! enumeration loops cannot trade seeks or subtrees unnoticed, and a
//! moved pin names the kernel and the kind of count that moved. These
//! counts repeat exactly between runs: the graphs are far below the
//! fan-out threshold, so every kernel runs inline.

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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Per kind of request: its name, and its answer digest and cost digest
/// over the whole pool. Every index kernel's cost moved (through
/// `intersect_seeks` alone) when the winners' row re-join began to stop
/// at its `max_rows`-th row instead of walking to the end of the shard:
/// from 11746231860628432169 (`Auto`), 8507667816512898979
/// (`PatternEnum`), 11499915289674213369 (`PatternEnumPruned`),
/// 10245004788127383295 (both `LinearEnum` kinds) and
/// 11053369115965507309 (sampled).
const PINNED: [(&str, u64, u64); 7] = [
    ("Auto", 9500512255007674045, 14998594977498356971),
    ("Baseline", 12457310662923407605, 4051485540186109989),
    ("PatternEnum", 5561112190050920389, 7648437122138794820),
    (
        "PatternEnumPruned",
        3998701348572327485,
        8443797840628684849,
    ),
    ("LinearEnum", 3156926336427701589, 2939447962428653827),
    ("LinearEnumTopK", 3156926336427701589, 2939447962428653827),
    // The sampled cost moved from 11412224329772072153 when the exact
    // re-score became a join of each winner's runs, whose seeks count.
    (
        "LinearEnumTopK sampled",
        14049553832019083173,
        18002582573947725725,
    ),
];

/// Every algorithm choice, with a sampled `LINEARENUM-TOPK` besides the
/// exact one (only a sampled partition re-scores its winners), each
/// tagged with its index in [`PINNED`].
fn requests(q: &Query) -> Vec<(usize, SearchRequest)> {
    let mut out = Vec::new();
    for (kind, algo) in [
        AlgorithmChoice::Auto,
        AlgorithmChoice::Baseline,
        AlgorithmChoice::PatternEnum,
        AlgorithmChoice::PatternEnumPruned,
        AlgorithmChoice::LinearEnum,
        AlgorithmChoice::LinearEnumTopK,
    ]
    .into_iter()
    .enumerate()
    {
        for k in [3, 50] {
            for strict in [false, true] {
                let base = SearchRequest::query(q.clone())
                    .k(k)
                    .max_rows(4)
                    .strict_trees(strict)
                    .algorithm(algo);
                if algo == AlgorithmChoice::LinearEnumTopK {
                    out.push((
                        kind + 1,
                        base.clone().sampling(SamplingConfig::new(10, 0.5, 7)),
                    ));
                }
                out.push((kind, base));
            }
        }
    }
    out
}

/// Per-kind answer and cost digests of one pool, and its response count.
struct Digests {
    answer: [u64; 7],
    cost: [u64; 7],
    responses: usize,
}

/// Fold the pool of graph `g` over shards {1, 2} into `d`.
fn work_digest(d: &mut Digests, g: &KnowledgeGraph, seed: u64, queries: usize) {
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
            for (kind, request) in requests(&q) {
                let s = &e.respond(&request).unwrap().stats;
                d.answer[kind] = fnv(
                    d.answer[kind],
                    &[
                        s.candidate_roots as u64,
                        s.subtrees as u64,
                        s.combos_tried as u64,
                        s.combos_pruned as u64,
                    ],
                );
                d.cost[kind] = fnv(d.cost[kind], &[s.hot.intersect_seeks, s.hot.keys_interned]);
                d.responses += 1;
            }
        }
    }
}

#[test]
fn kernel_work_is_pinned() {
    let mut d = Digests {
        answer: [FNV_OFFSET; 7],
        cost: [FNV_OFFSET; 7],
        responses: 0,
    };
    work_digest(&mut d, &wiki::wiki(&WikiConfig::tiny(3)), 5, 12);
    work_digest(&mut d, &imdb::imdb(&ImdbConfig::tiny(3)), 7, 8);
    assert_eq!(d.responses, 672 + 448);
    let got: Vec<(&str, u64, u64)> = (0..PINNED.len())
        .map(|kind| (PINNED[kind].0, d.answer[kind], d.cost[kind]))
        .collect();
    assert_eq!(got, PINNED, "the kernels' work counts moved");
}

/// Every index kernel counts the seeks of its winners' row re-join in
/// `intersect_seeks`: the same request reports fewer at `max_rows(0)`,
/// which re-joins nothing, than at `max_rows(4)`.
#[test]
fn row_rejoin_seeks_are_counted() {
    let e = EngineBuilder::new()
        .graph(wiki::wiki(&WikiConfig::tiny(3)))
        .height(3)
        .threads(1)
        .shards(2)
        .build()
        .unwrap();
    let mut generator = QueryGenerator::new(e.graph(), e.text(), 3, 5);
    let q = Query::from_ids(generator.anchored(2).unwrap().keywords);
    for algo in [
        AlgorithmChoice::LinearEnum,
        AlgorithmChoice::LinearEnumTopK,
        AlgorithmChoice::PatternEnum,
        AlgorithmChoice::PatternEnumPruned,
    ] {
        let seeks = |rows| {
            let request = SearchRequest::query(q.clone())
                .k(3)
                .max_rows(rows)
                .algorithm(algo);
            let response = e.respond(&request).unwrap();
            assert!(!response.patterns.is_empty(), "{algo:?} found no pattern");
            response.stats.hot.intersect_seeks
        };
        let (bare, with_rows) = (seeks(0), seeks(4));
        assert!(
            bare < with_rows,
            "{algo:?}: {bare} seeks, {with_rows} with rows"
        );
    }
}
