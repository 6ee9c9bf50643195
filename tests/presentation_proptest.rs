//! Property tests for the user-facing output layers: CSV escaping must
//! round-trip arbitrary cell content, Markdown must stay table-shaped, and
//! MMR diversification must obey its contract on arbitrary inputs.

use proptest::prelude::*;

use patternkb::prelude::NodeId;
use patternkb::search::diversify::{diversify, DiversifyConfig};
use patternkb::search::presentation::PresentedTable;
use patternkb::search::result::RankedPattern;
use patternkb::search::subtree::Rows;

/// Minimal RFC-4180 parser used only to verify our writer.
fn parse_csv(s: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut cell = String::new();
    let mut chars = s.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        quoted = false;
                    }
                }
                _ => cell.push(c),
            }
        } else {
            match c {
                '"' if cell.is_empty() => quoted = true,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                }
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                }
                _ => cell.push(c),
            }
        }
    }
    if !cell.is_empty() || !row.is_empty() {
        row.push(cell);
        rows.push(row);
    }
    rows
}

fn cell_strategy() -> impl Strategy<Value = String> {
    // Adversarial cell content: quotes, commas, newlines, unicode.
    proptest::string::string_regex("[a-zA-Z0-9 ,\"\n€ü|\\\\]{0,16}").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csv_roundtrips_arbitrary_cells(
        ncols in 1usize..5,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec(cell_strategy(), 1..5), 0..6),
        headers in proptest::collection::vec("[a-z]{1,8}", 1..5),
    ) {
        let ncols = ncols.min(headers.len());
        let columns: Vec<String> = headers.into_iter().take(ncols).collect();
        let rows: Vec<Vec<String>> = raw_rows
            .into_iter()
            .map(|r| (0..ncols).map(|c| r.get(c).cloned().unwrap_or_default()).collect())
            .collect();
        let table = PresentedTable { columns: columns.clone(), rows: rows.clone() };
        let parsed = parse_csv(&table.to_csv());
        prop_assert_eq!(&parsed[0], &columns);
        prop_assert_eq!(parsed.len(), rows.len() + 1);
        for (want, got) in rows.iter().zip(&parsed[1..]) {
            prop_assert_eq!(want, got);
        }
    }

    #[test]
    fn markdown_is_table_shaped(
        rows in proptest::collection::vec(
            proptest::collection::vec(cell_strategy(), 2..4), 0..5),
    ) {
        let columns = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|r| (0..3).map(|c| r.get(c).cloned().unwrap_or_default()).collect())
            .collect();
        let md = PresentedTable { columns, rows: rows.clone() }.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        // Cells may contain raw newlines, which Markdown can't represent in
        // a pipe table; the guarantee is per-logical-row pipe framing.
        prop_assert!(lines[0].starts_with('|'));
        prop_assert!(lines[1].contains("---"));
        for l in &lines {
            if !l.is_empty() {
                // Unescaped pipes never leak from cell content.
                prop_assert!(!l.contains("\\|\\|") || l.contains("\\|"));
            }
        }
    }

    #[test]
    fn diversify_contract(
        scores in proptest::collection::vec(0.01f64..100.0, 0..12),
        roots in proptest::collection::vec(
            proptest::collection::vec(0u32..10, 0..6), 0..12),
        lambda in 0.0f64..=1.0,
        k in 0usize..15,
    ) {
        let n = scores.len().min(roots.len());
        let mut patterns: Vec<RankedPattern> = (0..n)
            .map(|i| RankedPattern {
                pattern: vec![],
                score: scores[i],
                num_trees: roots[i].len(),
                trees: {
                    let mut trees = Rows::default();
                    for &r in &roots[i] {
                        trees.push(NodeId(r), scores[i], []);
                    }
                    trees
                },
            })
            .collect();
        // Input arrives best-first, as search algorithms produce it.
        patterns.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        let out = diversify(&patterns, &DiversifyConfig { lambda, k });

        // Contract: bounded size; selections are distinct input elements;
        // the best-scoring pattern always leads a non-empty selection.
        prop_assert_eq!(out.len(), k.min(n));
        if !out.is_empty() {
            prop_assert_eq!(out[0].score, patterns[0].score);
        }
        for p in &out {
            prop_assert!(patterns.iter().any(|x| x.score == p.score));
        }
        // λ = 1 degenerates to the input prefix.
        if lambda == 1.0 {
            for (a, b) in out.iter().zip(&patterns) {
                prop_assert_eq!(a.score, b.score);
            }
        }
    }
}
