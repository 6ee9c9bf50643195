//! The set-up process: generate the dataset, build and persist the
//! artefacts a workload boots from (timed: that is `setup_s`), sample the
//! query pool, and record the expected answer of every pool query.

use crate::calibrate::calibrated;
use crate::stats::{better_half_mean, median};
use crate::workload::{
    ingest_body, op_list, search_body, stable_digest, Plan, QueryCase, Scale, Workload, DATA_DIR,
    DATA_SEED, GRAPH_FILE, INDEX_FILE, PLAN_FILE,
};
use patternkb_datagen::{wiki, QueryGenerator, QuerySpec, WikiConfig};
use patternkb_graph::{AttrId, KnowledgeGraph, TypeId};
use patternkb_index::{build_indexes, storage, BuildConfig};
use patternkb_search::{EngineBuilder, SearchEngine, SharedEngine};
use patternkb_serve::api;
use patternkb_text::{Stemmer, SynonymTable, TextIndex};
use patternkb_wal::checkpoint::{self, Checkpoint};
use std::path::Path;
use std::time::Instant;

/// Index height `d`: the library default, and the paper's.
pub const D: usize = 3;

/// What set-up measured. `setup_s` is read on the calibrated clock and
/// reduced like `boot_s` (the first repeat pays for the process's memory
/// and is left out; [`better_half_mean`] of the others); `repeats_s` are
/// all repeats on the wall clock, the stage times their medians.
pub struct SetupReport {
    pub datagen_s: f64,
    pub setup_s: f64,
    pub repeats_s: Vec<f64>,
    pub text_build_s: f64,
    pub index_build_s: f64,
    pub encode_v5_s: f64,
}

/// Run set-up for `workload` into `dir` (created; must not exist).
pub fn run(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    dir: &Path,
) -> Result<SetupReport, String> {
    let io = |e: std::io::Error| format!("set-up I/O in {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;

    let t0 = Instant::now();
    let graph = wiki(&WikiConfig {
        entities: scale.entities,
        seed: DATA_SEED,
        ..WikiConfig::default()
    });
    let datagen_s = t0.elapsed().as_secs_f64();

    // The timed part: in-memory graph → every artefact on disk, several
    // times over; the last repeat's products are the ones the run uses.
    let (mut total, mut wall, mut text_s, mut build_s, mut encode_s) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut built = None;
    for _ in 0..scale.setup_repeats {
        drop(built.take());
        let (stages, cal_s, wall_s) = calibrated(|| -> std::io::Result<_> {
            let t0 = Instant::now();
            let text =
                TextIndex::build_with(&graph, SynonymTable::default_english(), Stemmer::Lite);
            let t1 = Instant::now();
            let idx = build_indexes(
                &graph,
                &text,
                &BuildConfig {
                    d: D,
                    threads: 0,
                    shards: 0,
                },
            );
            let t2 = Instant::now();
            let image = storage::encode_v5(&idx);
            let t3 = Instant::now();
            std::fs::write(dir.join(INDEX_FILE), &image)?;
            patternkb_graph::snapshot::save(&graph, &dir.join(GRAPH_FILE))?;
            Ok(((text, idx, image), [t1 - t0, t2 - t1, t3 - t2]))
        });
        let (products, [text_took, build_took, encode_took]) = stages.map_err(io)?;
        total.push(cal_s);
        wall.push(wall_s);
        text_s.push(text_took.as_secs_f64());
        build_s.push(build_took.as_secs_f64());
        encode_s.push(encode_took.as_secs_f64());
        built = Some(products);
    }
    let (text, idx, image) = built.expect("setup_repeats >= 1");

    let postings = idx.num_postings() as u64;
    let (ingest_type, ingest_attr) = ingest_vocabulary(&graph)?;
    let pool = query_pool(&graph, &text, scale.per_m(workload));
    if pool.len() < 4 * scale.per_m(workload) {
        return Err(format!(
            "only {} of {} pool queries could be sampled",
            pool.len(),
            4 * scale.per_m(workload)
        ));
    }

    // The engine whose answers are the expected ones. `mixed-write`
    // boots through a checkpoint plus a log tail, so its expected
    // answers are taken after the tail's ingests.
    let mut index_bytes = image.len() as u64;
    let mut ingests_done = 0u64;
    let engine: std::sync::Arc<SearchEngine> = if workload == Workload::MixedWrite {
        let data_dir = dir.join(DATA_DIR);
        let path = checkpoint::write(
            &data_dir,
            &Checkpoint {
                version: 0,
                graph: patternkb_graph::snapshot::encode(&graph),
                index: image,
            },
        )
        .map_err(io)?;
        index_bytes = std::fs::metadata(&path).map_err(io)?.len();
        drop((text, idx));
        let shared = boot_durable(graph, &data_dir)?;
        for seq in 0..scale.wal_tail as u64 {
            let body = ingest_body(&ingest_type, &ingest_attr, seq);
            let batch = api::parse_ingest(body.as_bytes()).map_err(|e| e.to_string())?;
            shared
                .ingest_with(batch.mode, |s| api::compile_delta(s.graph(), &batch))
                .map_err(|e| format!("log-tail ingest {seq}: {e}"))?;
        }
        ingests_done = scale.wal_tail as u64;
        shared.snapshot()
    } else {
        drop(image);
        std::sync::Arc::new(SearchEngine::from_parts(graph, text, idx))
    };

    let bodies: Vec<String> = pool.iter().map(|q| search_body(&q.surface)).collect();
    let mut requests = Vec::with_capacity(bodies.len());
    for body in &bodies {
        requests.push(
            api::parse_search(body.as_bytes())
                .map_err(|e| e.to_string())?
                .request,
        );
    }
    let mut queries = Vec::with_capacity(pool.len());
    for ((spec, body), answer) in pool
        .iter()
        .zip(bodies)
        .zip(engine.respond_batch(&requests, 0))
    {
        let answer = answer.map_err(|e| format!("expected answer of {body}: {e}"))?;
        let rendered = api::render_response(&engine, &answer).render();
        let digest = stable_digest(&rendered)
            .filter(|_| !answer.patterns.is_empty())
            .ok_or_else(|| format!("pool query {body} has no answer to pin"))?;
        queries.push(QueryCase {
            m: spec.keywords.len(),
            body,
            digest,
        });
    }

    Plan {
        workload,
        postings,
        index_bytes,
        ingest_type,
        ingest_attr,
        ingests_done,
        ops: op_list(workload, scale, queries.len(), seed),
        queries,
    }
    .save(&dir.join(PLAN_FILE))
    .map_err(io)?;

    Ok(SetupReport {
        datagen_s,
        setup_s: better_half_mean(&total[1.min(total.len() - 1)..]),
        repeats_s: wall,
        text_build_s: median(&text_s),
        index_build_s: median(&build_s),
        encode_v5_s: median(&encode_s),
    })
}

/// Boot the durable deployment `mixed-write` measures: newest checkpoint
/// in `data_dir` plus the log tail, library-default fsync policy
/// (`group(5ms)`) and checkpoint thresholds. `graph` only satisfies the
/// builder; the checkpoint's graph is the one served.
pub fn boot_durable(graph: KnowledgeGraph, data_dir: &Path) -> Result<SharedEngine, String> {
    EngineBuilder::new()
        .graph(graph)
        .synonyms(SynonymTable::default_english())
        .data_dir(data_dir)
        .build_shared()
        .map_err(|e| format!("durable boot from {}: {e}", data_dir.display()))
}

/// The entity type and attribute ingests are typed with: the dataset's
/// own first named type and first attribute (as `loadgen` does), so
/// writes grow the graph the reads are querying.
fn ingest_vocabulary(g: &KnowledgeGraph) -> Result<(String, String), String> {
    let t = (0..g.num_types() as u32)
        .map(TypeId)
        .find(|&t| !g.type_text(t).is_empty())
        .ok_or("dataset has no named entity type")?;
    if g.num_attrs() == 0 {
        return Err("dataset has no attribute".into());
    }
    Ok((
        g.type_text(t).to_string(),
        g.attr_text(AttrId(0)).to_string(),
    ))
}

/// `per_m` anchored queries for each m ∈ 1..=4, interleaved by m (so any
/// prefix — and the head of the Zipf ranking — mixes all sizes), with no
/// two queries sharing a keyword set (distinct result-cache keys).
pub fn query_pool(g: &KnowledgeGraph, text: &TextIndex, per_m: usize) -> Vec<QuerySpec> {
    let mut by_m: Vec<Vec<QuerySpec>> = Vec::new();
    for m in 1..=4usize {
        // One generator per m, so a smaller pool is a prefix of a larger.
        let mut generator = QueryGenerator::new(g, text, D, DATA_SEED ^ ((m as u64) << 32));
        let mut seen = std::collections::HashSet::new();
        let mut found = Vec::with_capacity(per_m);
        let mut attempts = 0;
        while found.len() < per_m && attempts < per_m * 50 {
            attempts += 1;
            if let Some(q) = generator.anchored(m) {
                let mut key = q.keywords.clone();
                key.sort_unstable();
                if seen.insert(key) {
                    found.push(q);
                }
            }
        }
        by_m.push(found);
    }
    let mut pool = Vec::with_capacity(4 * per_m);
    for i in 0..per_m {
        for found in &by_m {
            if let Some(q) = found.get(i) {
                pool.push(q.clone());
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_distinct_interleaved_and_repeatable() {
        let g = wiki(&WikiConfig {
            entities: 1_500,
            seed: 5,
            ..WikiConfig::default()
        });
        let text = TextIndex::build_with(&g, SynonymTable::default_english(), Stemmer::Lite);
        let pool = query_pool(&g, &text, 8);
        assert_eq!(pool.len(), 32);
        for (i, q) in pool.iter().enumerate() {
            assert_eq!(q.keywords.len(), i % 4 + 1, "interleaved by m");
        }
        let mut keys: Vec<_> = pool
            .iter()
            .map(|q| {
                let mut k = q.keywords.clone();
                k.sort_unstable();
                k
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 32, "no two queries share a keyword set");
        assert_eq!(pool, query_pool(&g, &text, 8));
        // A smaller pool is a prefix of a larger one.
        let small = query_pool(&g, &text, 4);
        assert_eq!(small[..], pool[..16]);
    }
}
