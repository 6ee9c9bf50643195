//! Build once, persist, reload: skipping the Figure-6 construction cost.
//!
//! Index construction dominates setup (the paper reports hours at Wiki
//! scale). This example builds an engine, snapshots both the graph and the
//! path indexes to disk, reloads them into a fresh engine, and verifies the
//! answers are identical.
//!
//! Run with: `cargo run --release --example persistence`

use patternkb::datagen::{wiki, WikiConfig};
use patternkb::graph::snapshot as graph_snapshot;
use patternkb::prelude::*;
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("patternkb-persistence-example");
    std::fs::create_dir_all(&dir)?;

    // --- build and persist ---
    let graph = wiki::wiki(&WikiConfig::tiny(21));
    let t0 = Instant::now();
    let engine = EngineBuilder::new()
        .graph(graph.clone())
        .height(3)
        .build()
        .expect("a graph is configured");
    let build_time = t0.elapsed();
    let graph_path = dir.join("kb.pkbg");
    let index_path = dir.join("kb.pkb5");
    graph_snapshot::save(&graph, &graph_path)?;
    engine.save_index(&index_path)?;
    println!(
        "built in {:.1} ms; snapshots: graph {} KB, index {} KB",
        build_time.as_secs_f64() * 1e3,
        std::fs::metadata(&graph_path)?.len() / 1024,
        std::fs::metadata(&index_path)?.len() / 1024
    );

    // --- reload ---
    let t0 = Instant::now();
    let reloaded_graph = graph_snapshot::load(&graph_path)?;
    let reloaded = EngineBuilder::new()
        .graph(reloaded_graph)
        .index_snapshot(&index_path)
        .build()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    println!(
        "reloaded in {:.1} ms (no DFS re-enumeration)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // --- identical answers ---
    let mut qgen =
        patternkb::datagen::queries::QueryGenerator::new(engine.graph(), engine.text(), 3, 9);
    let mut checked = 0;
    for _ in 0..10 {
        let Some(spec) = qgen.anchored(2) else {
            continue;
        };
        let req1 = SearchRequest::query(Query::from_ids(spec.keywords.clone()))
            .k(10)
            .algorithm(AlgorithmChoice::PatternEnum);
        let req2 = SearchRequest::text(spec.surface.join(" "))
            .k(10)
            .algorithm(AlgorithmChoice::PatternEnum);
        let a = engine.respond(&req1).expect("ids from this engine");
        let b = reloaded.respond(&req2).expect("same vocabulary");
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            // Decode is bit-exact: a reloaded score is the same float.
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        checked += 1;
    }
    println!("verified {checked} queries return identical answers after reload");

    std::fs::remove_file(&graph_path).ok();
    std::fs::remove_file(&index_path).ok();
    Ok(())
}
