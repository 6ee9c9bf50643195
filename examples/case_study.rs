//! The §5.3 case study: individual subtrees vs. tree patterns
//! (Figures 14–15), on an "XBox Game"-style knowledge base.
//!
//! The paper's query "XBox Game" illustrates why both answer kinds matter:
//! the best *individual* subtrees surface popular entities (high PageRank)
//! with singular patterns, while the top *tree pattern* is the table the
//! user wanted — "a list of XBox games".
//!
//! Run with: `cargo run --example case_study`

use patternkb::graph::GraphBuilder;
use patternkb::prelude::*;

/// A hand-built console/games KB echoing Figure 14's entities.
fn console_kb() -> patternkb::graph::KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let console = b.add_type("Game Console");
    let game = b.add_type("Video Game");
    let company = b.add_type("Company");
    let medium = b.add_type("Storage Medium");

    let platform = b.add_attr("Platform");
    let top_game = b.add_attr("Top Game");
    let usage = b.add_attr("Usage");
    let maker = b.add_attr("Maker");
    let products = b.add_attr("Products");

    let xbox = b.add_node(console, "Xbox");
    let ms = b.add_node(company, "Microsoft");
    let sony = b.add_node(company, "Sony");
    let dvd = b.add_node(medium, "DVD");

    let games = [
        "Halo 2",
        "GTA San Andreas",
        "Painkiller",
        "Fable",
        "Forza Motorsport",
        "Ninja Gaiden",
    ];
    let mut first_game = None;
    for name in games {
        let gnode = b.add_node(game, name);
        b.add_edge(gnode, platform, xbox);
        first_game.get_or_insert(gnode);
    }
    // High-PageRank hubs: everything links to Xbox and DVD.
    b.add_edge(xbox, maker, ms);
    b.add_edge(xbox, top_game, first_game.unwrap());
    b.add_edge(dvd, usage, xbox);
    b.add_edge(sony, products, dvd);
    for i in 0..8 {
        let fan = b.add_node(company, &format!("Accessory Shop {i}"));
        b.add_edge(fan, products, xbox);
        b.add_edge(fan, products, dvd);
    }
    b.build()
}

fn main() {
    let engine = EngineBuilder::new()
        .graph(console_kb())
        .threads(1)
        .build()
        .expect("a graph is configured");
    let query = engine.parse("xbox game").expect("keywords exist");

    // --- Figure 14: top individual valid subtrees ---
    println!("Top individual valid subtrees (Figure 14 analogue):\n");
    let individual = engine.top_individual(&query, &SearchConfig::default(), 3);
    for (rank, t) in individual.iter().enumerate() {
        let g = engine.graph();
        let root = g.node_text(t.tree.root);
        let paths: Vec<String> = t
            .tree
            .paths
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .map(|&n| g.node_text(n).to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            })
            .collect();
        println!(
            "  Top-{} (score {:.4}) root {root:?}: {}",
            rank + 1,
            t.tree.score,
            paths.join("  |  ")
        );
    }

    // --- Figure 15: the top-1 tree pattern is the game list ---
    let response = engine
        .respond(&SearchRequest::text("xbox game").k(3))
        .expect("keywords exist");
    let top = response.top().expect("patterns exist");
    println!(
        "\nTop-1 tree pattern (Figure 15 analogue), {} rows:\n",
        top.num_trees
    );
    let table = response.top_table().expect("tables align");
    println!("{}", table.render(engine.graph(), top));

    // The pattern aggregating the per-game subtrees should list many games,
    // which no single individual subtree can.
    assert!(
        response.patterns.iter().any(|p| p.num_trees >= 6),
        "a pattern aggregating all games exists"
    );
}
