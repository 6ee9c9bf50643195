//! Table answers over an IMDB-like knowledge base.
//!
//! The paper motivates table answers with queries like "Mel Gibson movies":
//! the user wants a *list* of movies, not one best subtree. This example
//! generates the 7-type IMDB-like KB, picks a prolific (hub) actor, and
//! asks for their movies and genres — showing how subtrees sharing a tree
//! pattern aggregate into one table.
//!
//! Run with: `cargo run --example movie_tables`

use patternkb::datagen::{imdb, ImdbConfig};
use patternkb::prelude::*;

fn main() {
    let graph = imdb::imdb(&ImdbConfig {
        movies: 2_000,
        seed: 7,
    });
    println!(
        "IMDB-like KB: {} entities, {} edges, {} types",
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_types() - 1
    );

    // Find the most-cast actor (the analogue of a famous name).
    let star = graph
        .nodes()
        .filter(|&v| graph.type_text(graph.node_type(v)) == "Person")
        .max_by_key(|&v| graph.in_degree(v))
        .expect("people exist");
    let star_name = graph.node_text(star).to_string();
    let first_name = star_name.split(' ').next().unwrap().to_string();
    println!(
        "Star actor: {star_name} (appears in {} credits)",
        graph.in_degree(star)
    );

    // IMDB's schema caps directed paths at 3 nodes, so d = 3 saturates
    // (paper §5.1: "the max length of directed paths is three").
    let engine = EngineBuilder::new()
        .graph(graph)
        .height(3)
        .build()
        .expect("a graph is configured");

    // "«star» movie genre" — like "Mel Gibson movies" plus a genre column.
    let query_text = format!("{first_name} movie genre");
    println!("\nQuery: {query_text:?}\n");
    let response = engine
        .respond(
            &SearchRequest::text(&query_text)
                .k(3)
                .algorithm(AlgorithmChoice::PatternEnum),
        )
        .expect("keywords exist");

    println!(
        "{} tree patterns from {} subtrees ({} ms)\n",
        response.stats.patterns,
        response.stats.subtrees,
        response.stats.elapsed.as_millis()
    );
    for (rank, (pattern, table)) in response.patterns.iter().zip(&response.tables).enumerate() {
        println!(
            "#{} score={:.5} rows={} pattern: {}",
            rank + 1,
            pattern.score,
            pattern.num_trees,
            pattern.display(engine.graph())
        );
        // Print at most 8 rows for readability.
        let preview = table.truncate_rows(8);
        println!("{}\n", preview.render(engine.graph(), pattern));
    }

    assert!(
        !response.is_empty(),
        "the star's movies must produce at least one table answer"
    );
}
