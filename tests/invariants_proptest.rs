//! Property-based invariants over randomly generated knowledge bases,
//! exercised through the public facade.

use patternkb::datagen::queries::QueryGenerator;
use patternkb::datagen::{wiki, WikiConfig};
use patternkb::prelude::*;
use proptest::prelude::*;

fn tiny_engine(seed: u64, d: usize) -> SearchEngine {
    let g = wiki::wiki(&WikiConfig {
        entities: 200,
        types: 8,
        attrs_per_type: 3,
        attr_pool: 8,
        vocab: 50,
        avg_degree: 3.0,
        value_pool: 20,
        seed,
        ..WikiConfig::default()
    });
    EngineBuilder::new()
        .graph(g)
        .height(d)
        .threads(1)
        .build()
        .unwrap()
}

/// Run a pre-parsed query under an explicit algorithm with `max_rows`.
fn run(
    e: &SearchEngine,
    q: &Query,
    k: usize,
    max_rows: usize,
    algo: AlgorithmChoice,
) -> SearchResponse {
    e.respond(
        &SearchRequest::query(q.clone())
            .k(k)
            .max_rows(max_rows)
            .algorithm(algo),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every returned pattern respects the height bound, has a positive
    /// subtree count consistent with its rows, and rows match the pattern's
    /// structure.
    #[test]
    fn results_are_well_formed(seed in 0u64..50, m in 1usize..4, d in 2usize..4) {
        let e = tiny_engine(seed, d);
        let mut qg = QueryGenerator::new(e.graph(), e.text(), d, seed);
        let Some(spec) = qg.anchored(m) else { return Ok(()) };
        let q = Query::from_ids(spec.keywords);
        let r = run(&e, &q, 50, 64, AlgorithmChoice::PatternEnum);
        for p in &r.patterns {
            prop_assert!(p.height() <= d, "height {} > d {}", p.height(), d);
            prop_assert!(p.num_trees >= 1);
            prop_assert!(p.trees.len() <= p.num_trees);
            prop_assert_eq!(p.pattern.len(), q.len());
            prop_assert!(p.score.is_finite());
            for t in &p.trees {
                prop_assert_eq!(t.paths(&p.pattern).len(), q.len());
                let heights: usize = p.pattern.iter().map(|pat| pat.height()).sum();
                prop_assert_eq!(t.nodes.len(), heights);
                for (path, pat) in t.paths(&p.pattern).zip(&p.pattern) {
                    // Node counts match the pattern (incl. implied leaf).
                    let expect = pat.num_nodes() + usize::from(pat.edge_terminal);
                    prop_assert_eq!(path.nodes.len(), expect);
                    prop_assert_eq!(path.edge_terminal, pat.edge_terminal);
                    // All paths share the tree's root.
                    prop_assert_eq!(path.nodes[0], t.root);
                    // Types along the path match the pattern's types.
                    for (j, &ty) in pat.types.iter().enumerate() {
                        prop_assert_eq!(e.graph().node_type(path.nodes[j]), ty);
                    }
                }
            }
        }
        // Ranking is monotone.
        for w in r.patterns.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-12);
        }
    }

    /// Pattern scores equal the sum of their subtrees' scores under Sum
    /// aggregation (checked on fully materialized answers).
    #[test]
    fn sum_aggregation_consistent(seed in 0u64..30) {
        let e = tiny_engine(seed, 3);
        let mut qg = QueryGenerator::new(e.graph(), e.text(), 3, seed + 100);
        let Some(spec) = qg.anchored(2) else { return Ok(()) };
        let q = Query::from_ids(spec.keywords);
        let r = run(&e, &q, 30, usize::MAX, AlgorithmChoice::PatternEnum);
        for p in &r.patterns {
            prop_assert_eq!(p.trees.len(), p.num_trees);
            let sum: f64 = p.trees.iter().map(|t| t.score).sum();
            prop_assert!((sum - p.score).abs() < 1e-9 * sum.abs().max(1.0),
                "sum {} vs score {}", sum, p.score);
        }
    }

    /// Adding keywords can only shrink the candidate root set, and the
    /// subtree count of a (q ∪ {w}) query never exceeds |paths| times that
    /// of q — sanity of the intersection semantics.
    #[test]
    fn more_keywords_fewer_roots(seed in 0u64..30) {
        let e = tiny_engine(seed, 3);
        let mut qg = QueryGenerator::new(e.graph(), e.text(), 3, seed + 200);
        let Some(spec) = qg.anchored(3) else { return Ok(()) };
        let q3 = Query::from_ids(spec.keywords.clone());
        let q2 = Query::from_ids(spec.keywords[..2].iter().copied());
        let r3 = run(&e, &q3, 10, 64, AlgorithmChoice::LinearEnum);
        let r2 = run(&e, &q2, 10, 64, AlgorithmChoice::LinearEnum);
        prop_assert!(r3.stats.candidate_roots <= r2.stats.candidate_roots);
    }

    /// Adding isolated entities (no edges) under frozen PageRank changes
    /// nothing for existing queries: identical patterns, identical scores.
    #[test]
    fn isolated_additions_do_not_change_answers(seed in 0u64..30, extra in 1usize..4) {
        let mut e = tiny_engine(seed, 3);
        let mut qg = QueryGenerator::new(e.graph(), e.text(), 3, seed + 400);
        let Some(spec) = qg.anchored(2) else { return Ok(()) };
        let q = Query::from_ids(spec.keywords.clone());
        let before = run(&e, &q, 100, 64, AlgorithmChoice::LinearEnum);
        // Capture the canonical text now — keyword ids may shift with the
        // rebuilt vocabulary.
        let words: Vec<String> = spec.keywords.iter()
            .map(|&w| e.text().vocab().resolve(w).to_string()).collect();

        let t = e.graph().node_type(NodeId(0));
        let mut d = GraphDelta::new(e.graph());
        for i in 0..extra {
            d.add_node(t, &format!("isolated island {i}")).unwrap();
        }
        e.apply_delta(&d, PagerankMode::Frozen).unwrap();

        let q2 = e.parse(&words.join(" ")).unwrap();
        let after = run(&e, &q2, 100, 64, AlgorithmChoice::LinearEnum);

        prop_assert_eq!(before.patterns.len(), after.patterns.len());
        for (a, b) in before.patterns.iter().zip(&after.patterns) {
            prop_assert_eq!(a.num_trees, b.num_trees);
            prop_assert!((a.score - b.score).abs() < 1e-9 * a.score.abs().max(1.0));
        }
    }

    /// Removing an edge can only destroy paths: for any existing query the
    /// subtree count never increases and no new pattern appears (frozen
    /// PageRank keeps surviving scores identical).
    #[test]
    fn edge_removal_is_monotone(seed in 0u64..30, pick in 0usize..1000) {
        let mut e = tiny_engine(seed, 3);
        let mut qg = QueryGenerator::new(e.graph(), e.text(), 3, seed + 500);
        let Some(spec) = qg.anchored(2) else { return Ok(()) };
        let words: Vec<String> = spec.keywords.iter()
            .map(|&w| e.text().vocab().resolve(w).to_string()).collect();
        let q = Query::from_ids(spec.keywords);
        let before = run(&e, &q, 1000, 64, AlgorithmChoice::LinearEnum);
        let before_keys: Vec<Vec<u32>> = before.patterns.iter().map(|p| p.key()).collect();
        let n_before = e.count_subtrees(&q);

        let edges: Vec<_> = e.graph().edges().collect();
        if edges.is_empty() { return Ok(()) }
        let victim = edges[pick % edges.len()];
        let mut d = GraphDelta::new(e.graph());
        d.remove_edge(victim.source, victim.attr, victim.target).unwrap();
        e.apply_delta(&d, PagerankMode::Frozen).unwrap();

        let Ok(q2) = e.parse(&words.join(" ")) else { return Ok(()) };
        let after = run(&e, &q2, 1000, 64, AlgorithmChoice::LinearEnum);
        prop_assert!(e.count_subtrees(&q2) <= n_before);
        prop_assert!(after.patterns.len() <= before.patterns.len());
        for p in &after.patterns {
            prop_assert!(
                before_keys.contains(&p.key()),
                "edge removal created pattern {:?}", p.key()
            );
        }
    }

    /// Strict mode returns a subset of the lax answers (same or fewer
    /// subtrees per pattern, never new patterns).
    #[test]
    fn strict_is_subset(seed in 0u64..30) {
        let e = tiny_engine(seed, 3);
        let mut qg = QueryGenerator::new(e.graph(), e.text(), 3, seed + 300);
        let Some(spec) = qg.anchored(2) else { return Ok(()) };
        let q = Query::from_ids(spec.keywords);
        let lax = run(&e, &q, 1000, 64, AlgorithmChoice::LinearEnum);
        let strict = e
            .respond(
                &SearchRequest::query(q.clone())
                    .k(1000)
                    .strict_trees(true)
                    .algorithm(AlgorithmChoice::LinearEnum),
            )
            .unwrap();
        prop_assert!(strict.patterns.len() <= lax.patterns.len());
        prop_assert!(strict.stats.subtrees <= lax.stats.subtrees);
        for sp in &strict.patterns {
            let lp = lax.patterns.iter().find(|p| p.key() == sp.key());
            prop_assert!(lp.is_some(), "strict invented a pattern");
            prop_assert!(sp.num_trees <= lp.unwrap().num_trees);
        }
    }
}
