//! Height-threshold sensitivity on a citation graph.
//!
//! The Wiki experiment of §5.1 shows answer counts exploding with `d`; the
//! IMDB schema saturates at `d = 3`. A DBLP-like citation graph sits in
//! between: `Cites` chains make ever-deeper interpretations available, so
//! the same query keeps acquiring new tree patterns as `d` grows — exactly
//! the trade-off ("compact answers" vs "enough interpretations") the paper
//! discusses when fixing `d = 3`.
//!
//! Run with: `cargo run --release --example dblp_citations`

use patternkb::datagen::{dblp, DblpConfig};
use patternkb::prelude::*;

fn main() {
    let graph = dblp::dblp(&DblpConfig {
        papers: 3_000,
        avg_citations: 3.0,
        seed: 5,
    });
    println!(
        "DBLP-like KB: {} entities, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // A prolific author: the "Mel Gibson" of this bibliography.
    let author_t = graph.type_by_text("Author").unwrap();
    let star = graph
        .nodes()
        .filter(|&v| graph.node_type(v) == author_t)
        .max_by_key(|&v| graph.in_degree(v))
        .expect("authors exist");
    let first_name = graph.node_text(star).split(' ').next().unwrap().to_string();
    println!(
        "Most prolific author: {} ({} papers)\n",
        graph.node_text(star),
        graph.in_degree(star)
    );

    let query_text = format!("{first_name} paper venue");
    println!("Query: {query_text:?}");
    println!(
        "\n{:>3} {:>12} {:>12} {:>12}",
        "d", "#patterns", "#subtrees", "time (ms)"
    );
    let mut prev_patterns = 0;
    for d in 2..=5 {
        let engine = EngineBuilder::new()
            .graph(graph.clone())
            .height(d)
            .build()
            .expect("d in range");
        let request = SearchRequest::text(&query_text)
            .k(10)
            .algorithm(AlgorithmChoice::PatternEnum);
        let r = match engine.respond(&request) {
            Ok(r) => r,
            Err(Error::UnknownWords(_)) => {
                println!("{d:>3} (query keywords unreachable at this d)");
                continue;
            }
            Err(e) => panic!("unexpected error: {e}"),
        };
        let n_patterns = engine.count_patterns(&r.query);
        let n_subtrees = engine.count_subtrees(&r.query);
        println!(
            "{d:>3} {n_patterns:>12} {n_subtrees:>12} {:>12.2}",
            r.stats.elapsed.as_secs_f64() * 1e3
        );
        assert!(
            n_patterns > prev_patterns,
            "d = {d} must add interpretations: {n_patterns} <= {prev_patterns}"
        );
        prev_patterns = n_patterns;
        if d == 3 {
            if let (Some(top), Some(table)) = (r.top(), r.top_table()) {
                println!("\nTop answer at d = 3 ({} rows):", top.num_trees);
                let preview = table.truncate_rows(6);
                println!("{}\n", preview.render(engine.graph(), top));
            }
        }
    }
    println!("\nCitation chains keep adding interpretations as d grows —");
    println!("the compactness-vs-coverage trade-off behind the paper's d = 3 choice.");
}
