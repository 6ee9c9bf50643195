//! User-facing table presentation: friendly column names, column
//! ordering, and portable renderings (Markdown, CSV).
//!
//! The paper punts on this ("How to name and order columns in the table
//! answers in a more user-friendly way is also an important issue, but it
//! is out of scope of this paper"). This module implements the obvious
//! heuristics a production system needs:
//!
//! * **Naming.** The raw column name for an entity column is
//!   `"attr (Type)"`. When the attribute text already names the type
//!   ("publisher" → type `Publisher`), the duplicate is collapsed; names
//!   are title-cased; duplicate display names get a positional suffix so
//!   the header row is unambiguous.
//! * **Ordering.** Three policies: the paper's discovery order, a
//!   root-then-shallow order (compact interpretations read left to right),
//!   and entities-before-values (all join columns first, then the plain-
//!   text value cells, like a SQL projection).
//! * **Rendering.** GitHub-flavored Markdown (pipes escaped) and RFC-4180
//!   CSV (quotes doubled, cells with separators quoted).
//!
//! Presentation never alters the underlying [`TableAnswer`]; it produces a
//! new [`PresentedTable`] with a column permutation applied consistently to
//! headers and rows. It is the one place a response holds its cells as
//! strings, and only when the request asked for it.

use crate::result::RankedPattern;
use crate::table::{ColumnMeta, TableAnswer};
use patternkb_graph::KnowledgeGraph;

/// Column ordering policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ColumnOrder {
    /// Keep the order columns were discovered in (the paper's implicit
    /// choice: keyword order, then depth).
    Discovery,
    /// Root first, then ascending depth, ties by first keyword — reads as
    /// "entity, its attributes, their attributes, …".
    #[default]
    RootThenDepth,
    /// All entity (join) columns by depth first, then the value columns —
    /// mirrors how a SQL projection lists keys before measures.
    EntitiesFirst,
}

/// Presentation knobs.
#[derive(Clone, Debug)]
pub struct PresentationConfig {
    /// Column ordering policy.
    pub order: ColumnOrder,
    /// Title-case headers ("annual revenue" → "Annual Revenue").
    pub title_case: bool,
    /// Truncate cells beyond this many characters with an ellipsis
    /// (`None` = never).
    pub max_cell_width: Option<usize>,
}

impl Default for PresentationConfig {
    fn default() -> Self {
        PresentationConfig {
            order: ColumnOrder::RootThenDepth,
            title_case: true,
            max_cell_width: None,
        }
    }
}

/// A presentation-ready table: renamed, reordered, render-to-anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PresentedTable {
    /// Display headers after renaming/dedup, in presentation order.
    pub columns: Vec<String>,
    /// Rows with the same column permutation applied.
    pub rows: Vec<Vec<String>>,
}

/// Build the presentation of `table`, over the rows of `pattern` it was
/// composed for, under `cfg`.
pub fn present(
    g: &KnowledgeGraph,
    table: &TableAnswer,
    pattern: &RankedPattern,
    cfg: &PresentationConfig,
) -> PresentedTable {
    let n = table.columns.len();
    debug_assert_eq!(table.meta.len(), n);

    // --- column permutation ---
    let mut perm: Vec<usize> = (0..n).collect();
    match cfg.order {
        ColumnOrder::Discovery => {}
        ColumnOrder::RootThenDepth => {
            perm.sort_by_key(|&i| {
                let m = &table.meta[i];
                (m.depth, m.first_keyword, i)
            });
        }
        ColumnOrder::EntitiesFirst => {
            perm.sort_by_key(|&i| {
                let m = &table.meta[i];
                (m.is_value, m.depth, m.first_keyword, i)
            });
        }
    }

    // --- friendly names ---
    let mut columns: Vec<String> = perm
        .iter()
        .map(|&i| friendly_name(g, &table.meta[i], cfg.title_case))
        .collect();
    dedupe_names(&mut columns);

    // --- rows ---
    let clip = |cell: &str| -> String {
        match cfg.max_cell_width {
            Some(w) if cell.chars().count() > w.max(1) => {
                let mut s: String = cell.chars().take(w.max(1).saturating_sub(1)).collect();
                s.push('…');
                s
            }
            _ => cell.to_string(),
        }
    };
    let rows: Vec<Vec<String>> = table
        .cells(g, pattern)
        .iter()
        .map(|row| perm.iter().map(|&i| clip(&row[i])).collect())
        .collect();

    PresentedTable { columns, rows }
}

/// The display name of one column from its provenance.
fn friendly_name(g: &KnowledgeGraph, m: &ColumnMeta, title: bool) -> String {
    let name = match (m.attr, m.node_type) {
        // Root column: the entity type ("Software"), or a generic header
        // for text-typed roots.
        (None, Some(t)) => {
            if t == KnowledgeGraph::TEXT_TYPE {
                "Value".to_string()
            } else {
                g.type_text(t).to_string()
            }
        }
        // Entity column: attribute + type, collapsed when redundant.
        (Some(a), Some(t)) => {
            let attr = g.attr_text(a);
            if t == KnowledgeGraph::TEXT_TYPE {
                attr.to_string()
            } else {
                let ty = g.type_text(t);
                if attr.eq_ignore_ascii_case(ty)
                    || attr
                        .to_ascii_lowercase()
                        .ends_with(&ty.to_ascii_lowercase())
                {
                    ty.to_string()
                } else {
                    format!("{attr} ({ty})")
                }
            }
        }
        // Value column of an edge match: the attribute alone (Figure 3's
        // "Revenue").
        (Some(a), None) => g.attr_text(a).to_string(),
        (None, None) => "Value".to_string(),
    };
    if title {
        title_case(&name)
    } else {
        name
    }
}

/// Title-case words outside parentheses content that is already cased.
fn title_case(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut start_of_word = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            if start_of_word {
                out.extend(ch.to_uppercase());
            } else {
                out.push(ch);
            }
            start_of_word = false;
        } else {
            out.push(ch);
            start_of_word = true;
        }
    }
    out
}

/// Suffix repeated display names with their occurrence index.
fn dedupe_names(names: &mut [String]) {
    for i in 0..names.len() {
        let mut count = 1;
        for j in (i + 1)..names.len() {
            if names[j] == names[i] {
                count += 1;
                names[j] = format!("{} ({})", names[j], count);
            }
        }
        if count > 1 {
            // Suffix the first occurrence too, for symmetry.
            names[i] = format!("{} (1)", names[i]);
        }
    }
}

impl PresentedTable {
    /// GitHub-flavored Markdown, pipes escaped.
    pub fn to_markdown(&self) -> String {
        let esc = |s: &str| s.replace('|', "\\|");
        let mut out = String::new();
        out.push('|');
        for c in &self.columns {
            out.push(' ');
            out.push_str(&esc(c));
            out.push_str(" |");
        }
        out.push('\n');
        out.push('|');
        for _ in &self.columns {
            out.push_str(" --- |");
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for c in 0..self.columns.len() {
                out.push(' ');
                out.push_str(&esc(row.get(c).map(String::as_str).unwrap_or("")));
                out.push_str(" |");
            }
            out.push('\n');
        }
        out
    }

    /// RFC-4180 CSV: cells containing commas, quotes or newlines are
    /// quoted; quotes are doubled.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            let line = (0..self.columns.len())
                .map(|c| field(row.get(c).map(String::as_str).unwrap_or("")))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::QueryContext;
    use crate::linear_enum::linear_enum;
    use crate::topk::SamplingConfig;
    use crate::{Query, SearchConfig};
    use patternkb_datagen::figure1;
    use patternkb_index::{build_indexes, BuildConfig};
    use patternkb_text::{SynonymTable, TextIndex};

    fn figure3_table() -> (TableAnswer, RankedPattern, patternkb_graph::KnowledgeGraph) {
        let (g, _) = figure1();
        let t = TextIndex::build(&g, SynonymTable::new());
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let q = Query::parse(&t, "database software company revenue").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(10), &SamplingConfig::exact());
        let top = r.top().unwrap().clone();
        (TableAnswer::from_pattern(&g, &top), top, g)
    }

    #[test]
    fn root_leads_in_depth_order() {
        let (table, top, g) = figure3_table();
        let p = present(&g, &table, &top, &PresentationConfig::default());
        assert_eq!(p.columns[0], "Software");
        // Depths must be non-decreasing under RootThenDepth.
        let depth_of = |name: &str| {
            table
                .meta
                .iter()
                .zip(&table.columns)
                .find(|(_, c)| title_case(c).starts_with(name.split(" (").next().unwrap()))
                .map(|(m, _)| m.depth)
        };
        let _ = depth_of; // depths checked structurally below
        let depths: Vec<usize> = {
            let mut perm: Vec<usize> = (0..table.columns.len()).collect();
            perm.sort_by_key(|&i| (table.meta[i].depth, table.meta[i].first_keyword, i));
            perm.iter().map(|&i| table.meta[i].depth).collect()
        };
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn entities_first_puts_value_columns_last() {
        let (table, top, g) = figure3_table();
        let cfg = PresentationConfig {
            order: ColumnOrder::EntitiesFirst,
            ..PresentationConfig::default()
        };
        let p = present(&g, &table, &top, &cfg);
        // "Revenue" is the only value column; it must be last.
        assert_eq!(p.columns.last().unwrap(), "Revenue");
    }

    #[test]
    fn discovery_order_preserves_raw_layout() {
        let (table, top, g) = figure3_table();
        let cfg = PresentationConfig {
            order: ColumnOrder::Discovery,
            title_case: false,
            max_cell_width: None,
        };
        let p = present(&g, &table, &top, &cfg);
        assert_eq!(p.rows, table.cells(&g, &top));
    }

    #[test]
    fn rows_follow_column_permutation() {
        let (table, top, g) = figure3_table();
        let p = present(&g, &table, &top, &PresentationConfig::default());
        // Every original row multiset survives the permutation.
        for (orig, shown) in table.cells(&g, &top).iter().zip(&p.rows) {
            let mut a = orig.clone();
            let mut b = shown.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        // And the SQL Server row keeps its revenue.
        let sql_row = p
            .rows
            .iter()
            .find(|r| r.iter().any(|c| c == "SQL Server"))
            .unwrap();
        assert!(sql_row.iter().any(|c| c == "US$ 77 billion"));
    }

    #[test]
    fn redundant_attr_type_collapses() {
        // attr "publisher" into type "Publisher" → single word.
        let mut b = patternkb_graph::GraphBuilder::new();
        let book = b.add_type("Book");
        let publisher = b.add_type("Publisher");
        let pub_attr = b.add_attr("publisher");
        let bk = b.add_node(book, "Systems and databases");
        let sp = b.add_node(publisher, "Springer");
        b.add_edge(bk, pub_attr, sp);
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 2,
                threads: 1,
                shards: 1,
            },
        );
        let q = Query::parse(&t, "springer databases").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(10), &SamplingConfig::exact());
        let top = r.top().unwrap();
        let table = TableAnswer::from_pattern(&g, top);
        let p = present(&g, &table, top, &PresentationConfig::default());
        assert!(
            p.columns.iter().any(|c| c == "Publisher"),
            "collapsed header expected, got {:?}",
            p.columns
        );
        assert!(!p
            .columns
            .iter()
            .any(|c| c.contains("publisher (Publisher)")));
    }

    #[test]
    fn duplicate_headers_are_suffixed() {
        let mut names = vec![
            "Company".to_string(),
            "Revenue".to_string(),
            "Company".to_string(),
            "Company".to_string(),
        ];
        dedupe_names(&mut names);
        assert_eq!(
            names,
            ["Company (1)", "Revenue", "Company (2)", "Company (3)"]
        );
    }

    #[test]
    fn title_casing() {
        assert_eq!(title_case("annual revenue"), "Annual Revenue");
        assert_eq!(title_case("written in"), "Written In");
        assert_eq!(title_case("US$ 77"), "US$ 77");
        assert_eq!(title_case(""), "");
    }

    #[test]
    fn markdown_escapes_pipes() {
        let p = PresentedTable {
            columns: vec!["A|B".into(), "C".into()],
            rows: vec![vec!["x|y".into(), "z".into()]],
        };
        let md = p.to_markdown();
        assert!(md.contains("A\\|B"));
        assert!(md.contains("x\\|y"));
        assert_eq!(md.lines().count(), 3);
        assert!(md.lines().nth(1).unwrap().contains("---"));
    }

    #[test]
    fn csv_quotes_correctly() {
        let p = PresentedTable {
            columns: vec!["name".into(), "note".into()],
            rows: vec![
                vec!["plain".into(), "a,b".into()],
                vec!["with \"quote\"".into(), "line\nbreak".into()],
            ],
        };
        let csv = p.to_csv();
        let lines: Vec<&str> = csv.split('\n').collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "plain,\"a,b\"");
        assert!(lines[2].starts_with("\"with \"\"quote\"\"\""));
    }

    #[test]
    fn cell_clipping() {
        let (table, top, g) = figure3_table();
        let cfg = PresentationConfig {
            max_cell_width: Some(6),
            ..PresentationConfig::default()
        };
        let p = present(&g, &table, &top, &cfg);
        for row in &p.rows {
            for cell in row {
                assert!(cell.chars().count() <= 6, "clipped cell {cell:?}");
            }
        }
        assert!(p.rows.iter().flatten().any(|c| c.ends_with('…')));
    }

    #[test]
    fn markdown_of_figure3_has_all_rows() {
        let (table, top, g) = figure3_table();
        let p = present(&g, &table, &top, &PresentationConfig::default());
        let md = p.to_markdown();
        assert!(md.contains("SQL Server"));
        assert!(md.contains("Oracle DB"));
        assert_eq!(md.lines().count(), 2 + table.rows.len());
    }
}
