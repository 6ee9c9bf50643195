//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Figure-1(d) knowledge graph, runs the paper's query
//! *"database software company revenue"* through the request/response
//! API, and prints the ranked tree patterns with their table answers —
//! reproducing Figures 2 and 3.
//!
//! Run with: `cargo run --example quickstart`

use patternkb::prelude::*;

fn main() -> Result<(), Error> {
    // The exact knowledge graph of Figure 1(d).
    let (graph, _handles) = patternkb::datagen::figure1();
    println!(
        "Knowledge graph: {} entities, {} attribute edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Build the engine: text index + both path-pattern indexes, d = 3.
    let engine = EngineBuilder::new()
        .graph(graph)
        .height(3)
        .threads(1)
        .build()?;

    // The paper's query. One request in, one response out; parsing
    // (tokenize, stem, canonicalize) happens inside respond.
    let response = engine.respond(
        &SearchRequest::text("database software company revenue")
            .k(5)
            .algorithm(AlgorithmChoice::PatternEnum),
    )?;
    println!(
        "\n{} candidate roots, {} valid subtrees, {} tree patterns ({}µs)\n",
        response.stats.candidate_roots,
        response.stats.subtrees,
        response.stats.patterns,
        response.stats.elapsed.as_micros()
    );

    for (rank, (pattern, table)) in response.patterns.iter().zip(&response.tables).enumerate() {
        println!(
            "#{} score={:.4}  {} subtree(s)   pattern: {}",
            rank + 1,
            pattern.score,
            pattern.num_trees,
            pattern.display(engine.graph())
        );
        println!("{}\n", table.render(engine.graph(), pattern));
    }

    // The top answer is the paper's P1: a table of database software with
    // their developers' revenues (Figure 3).
    let top = response.top().expect("answers exist");
    assert_eq!(top.num_trees, 2);
    println!("Top pattern reproduces Figure 3: SQL Server and Oracle DB rows.");
    Ok(())
}
