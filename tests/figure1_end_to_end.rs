//! Cross-crate integration: the paper's running example, exercised through
//! the public facade's request/response API only.

use patternkb::prelude::*;

fn engine(d: usize) -> SearchEngine {
    let (g, _) = patternkb::datagen::figure1();
    EngineBuilder::new()
        .graph(g)
        .height(d)
        .threads(1)
        .build()
        .unwrap()
}

fn run(e: &SearchEngine, text: &str, k: usize) -> SearchResponse {
    e.respond(
        &SearchRequest::text(text)
            .k(k)
            .algorithm(AlgorithmChoice::PatternEnum),
    )
    .unwrap()
}

#[test]
fn paper_query_reproduces_figures_2_and_3() {
    let e = engine(3);
    let r = run(&e, "database software company revenue", 10);

    // Figure 2(a): the top pattern is P1.
    let top = r.top().expect("answers exist");
    let shown = top.display(e.graph());
    assert!(shown.contains("(Software) (Genre) (Model)"));
    assert!(shown.contains("(Software) (Developer) (Company) (Revenue)"));

    // Figure 3: two rows, SQL Server and Oracle DB with their developers'
    // revenues — the table comes back on the response.
    let table = r.top_table().expect("tables align with patterns");
    assert_eq!(table.rows.len(), 2);
    let flat: Vec<String> = table.cells(e.graph(), top).into_iter().flatten().collect();
    assert!(flat.iter().any(|c| *c == "SQL Server"));
    assert!(flat.iter().any(|c| *c == "Oracle DB"));
    assert!(flat.iter().any(|c| *c == "US$ 77 billion"));
    assert!(flat.iter().any(|c| *c == "US$ 37 billion"));
}

#[test]
fn example_24_scores_hold_exactly() {
    let e = engine(3);
    let r = run(&e, "database software company revenue", 100);
    // score(P1) = 2 × (4 · 3.5 / 8) = 3.5
    assert!((r.patterns[0].score - 3.5).abs() < 1e-9);
    // P2 (Book root): 4 · (1/6 + 1/6 + 1 + 1) / 7
    let p2 = r
        .patterns
        .iter()
        .find(|p| e.graph().type_text(p.pattern[0].root_type()) == "Book")
        .expect("P2 found");
    let expected = 4.0 * (1.0 / 6.0 + 1.0 / 6.0 + 1.0 + 1.0) / 7.0;
    assert!((p2.score - expected).abs() < 1e-9);
    // Example 2.4's conclusion: score(P1) > score(P2).
    assert!(r.patterns[0].score > p2.score);
}

#[test]
fn d2_misses_p1_like_the_paper_warns() {
    // §5.1: "We will miss some of [the best interpretations] for d = 2."
    // P1 needs a 3-node revenue path, so at d = 2 it cannot exist.
    let e = engine(2);
    match e.respond(
        &SearchRequest::text("database software company revenue")
            .k(100)
            .algorithm(AlgorithmChoice::PatternEnum),
    ) {
        Ok(r) => {
            for p in &r.patterns {
                assert!(p.height() <= 2);
            }
            assert!(
                r.top().map(|t| t.num_trees).unwrap_or(0) < 2,
                "P1's two-row table must be absent at d = 2"
            );
        }
        Err(Error::UnknownWords(_)) => {
            // Also acceptable: some keyword becomes unreachable at d = 2.
        }
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn stemming_and_case_do_not_change_answers() {
    let e = engine(3);
    let ra = run(&e, "database software company revenue", 10);
    let rb = run(&e, "Databases SOFTWARE companies Revenues", 10);
    assert_eq!(ra.query, rb.query, "parsing canonicalizes to one query");
    assert_eq!(ra.patterns.len(), rb.patterns.len());
    for (x, y) in ra.patterns.iter().zip(&rb.patterns) {
        assert_eq!(x.key(), y.key());
    }
}

#[test]
fn keyword_order_does_not_change_answer_set() {
    let e = engine(3);
    let ra = run(&e, "database software company revenue", 100);
    let rb = run(&e, "revenue company software database", 100);
    assert_eq!(ra.patterns.len(), rb.patterns.len());
    // Scores are permutation-invariant (sums over keywords).
    let mut sa: Vec<f64> = ra.patterns.iter().map(|p| p.score).collect();
    let mut sb: Vec<f64> = rb.patterns.iter().map(|p| p.score).collect();
    sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    for (x, y) in sa.iter().zip(&sb) {
        assert!((x - y).abs() < 1e-9);
    }
}
