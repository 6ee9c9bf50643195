//! Table-answer composition (§2.2.2, "Convert tree patterns into table
//! answers" and Figure 3).
//!
//! Each subtree of a pattern becomes one row. Columns come from the
//! per-keyword path patterns: one column per node position plus a value
//! column for edge matches. Per the paper, columns reached through the same
//! edge signature are created **once** even when shared by several
//! keywords' paths; column identity is the *pattern prefix* (the paper's
//! column name `τ(v1)α(e1)…`). In the rare case where two keyword paths of
//! one subtree share a pattern prefix but diverge in actual nodes, the cell
//! shows all distinct values joined by `" / "` (the paper leaves this case
//! unspecified; see DESIGN.md §2).
//!
//! A [`TableAnswer`] is a **column layout**, not a copy of the cells: per
//! column, the positions of a row that feed it. All rows of a pattern
//! share one shape — its [`Rows`](crate::subtree::Rows) store holds each
//! keyword's path at the same offsets in every row — so a position is one
//! offset into a row's nodes, fixed by the pattern alone. The layout is
//! composed once per pattern whatever the number of rows, and a cell is
//! read when it is written — from the row's nodes and
//! [`KnowledgeGraph::node_text`] — by
//! [`TableAnswer::for_each_cell`]; the response body writer reads cells
//! that way, and [`TableAnswer::cells`] copies them out for callers that
//! keep or reorder them. A table that is written again and again (a cache
//! entry's, shared by its hits) keeps its cells' text in one buffer
//! instead (`TableAnswer::keep_text`): a read from the graph is a few
//! dependent loads into text scattered over the whole graph, which would
//! make a hit's body cost more to write than it did when tables were
//! copies of their cells.

use crate::result::RankedPattern;
use crate::subtree::Row;
use patternkb_graph::{AttrId, KnowledgeGraph, NodeId, TypeId};
use patternkb_index::PathPattern;
use std::borrow::Cow;
use std::ops::Range;

/// Provenance of one table column — which pattern position created it.
/// Drives the friendly renaming/reordering in [`crate::presentation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Nodes between the root and this column (0 = the root column).
    pub depth: usize,
    /// Whether this is the *value* column of an edge-terminal match (the
    /// paper's "Revenue" cell in Figure 3).
    pub is_value: bool,
    /// The attribute traversed into this column (`None` for the root).
    pub attr: Option<AttrId>,
    /// The entity type shown in the column (`None` for value columns,
    /// whose pattern deliberately omits the leaf type).
    pub node_type: Option<TypeId>,
    /// Index of the keyword whose path first created the column.
    pub first_keyword: usize,
}

/// A table answer as a column layout over its pattern's rows: column
/// headers, and per column the row slots whose node text fills it.
///
/// Two tables are equal when their layouts are: whether one keeps its
/// cell text (see the module docs) does not change what it shows.
#[derive(Clone, Debug)]
pub struct TableAnswer {
    /// Column headers, root first, then in keyword/depth order of first
    /// appearance.
    pub columns: Vec<String>,
    /// Per-column provenance, aligned with `columns`.
    pub meta: Vec<ColumnMeta>,
    /// Per column, aligned with `columns`, the slots of a row that feed
    /// it — offsets into [`Row::nodes`], in keyword then depth order;
    /// never empty.
    feeds: Vec<Vec<usize>>,
    /// The rows shown: indexes into the pattern's
    /// [`RankedPattern::trees`] — all of them, unless
    /// [`Self::truncate_rows`] narrowed the range.
    pub rows: Range<usize>,
    /// Every cell's text, when `keep_text` stored it.
    text: Option<CellText>,
}

/// The text of all of a table's cells, row-major, in one buffer: cell
/// `i = row × columns + column` is `text[bounds[i]..bounds[i + 1]]`.
#[derive(Clone, Debug)]
struct CellText {
    text: String,
    bounds: Vec<usize>,
}

impl PartialEq for TableAnswer {
    fn eq(&self, other: &Self) -> bool {
        (&self.columns, &self.meta, &self.feeds, &self.rows)
            == (&other.columns, &other.meta, &other.feeds, &other.rows)
    }
}

impl Eq for TableAnswer {}

impl TableAnswer {
    /// Compose the table layout for a ranked pattern. The table reads its
    /// cells from that pattern's rows, so it must be used with it.
    pub fn from_pattern(g: &KnowledgeGraph, p: &RankedPattern) -> Self {
        // At most one column per slot.
        let slots: usize = p
            .pattern
            .iter()
            .map(|pat| pat.types.len() + usize::from(pat.edge_terminal))
            .sum();
        let mut table = TableAnswer {
            columns: Vec::with_capacity(slots),
            meta: Vec::with_capacity(slots),
            feeds: Vec::with_capacity(slots),
            rows: 0..p.trees.len(),
            text: None,
        };
        // Keyword `kw`'s path starts at `start` in every row.
        let mut start = 0;
        for (kw, pat) in p.pattern.iter().enumerate() {
            let l = pat.types.len();
            for j in 0..l {
                table.feed(g, p, kw, j, false, start + j);
            }
            if pat.edge_terminal {
                table.feed(g, p, kw, l, true, start + l);
            }
            start += pat.height();
        }
        table
    }

    /// Route keyword `kw`'s slot at `depth` (offset `slot` of a row) to
    /// the column its pattern prefix names, creating the column on first
    /// sight. Node columns end their prefix on a type, value columns on an
    /// attribute, so the two never share one.
    fn feed(
        &mut self,
        g: &KnowledgeGraph,
        p: &RankedPattern,
        kw: usize,
        depth: usize,
        is_value: bool,
        slot: usize,
    ) {
        fn prefix(pat: &PathPattern, depth: usize, is_value: bool) -> (&[TypeId], &[AttrId]) {
            (
                &pat.types[..depth + usize::from(!is_value)],
                &pat.attrs[..depth],
            )
        }
        let pat = &p.pattern[kw];
        let existing = self.meta.iter().position(|m| {
            m.depth == depth
                && m.is_value == is_value
                && prefix(&p.pattern[m.first_keyword], depth, is_value)
                    == prefix(pat, depth, is_value)
        });
        let col = existing.unwrap_or_else(|| {
            let attr = (depth > 0).then(|| pat.attrs[depth - 1]);
            let (name, node_type) = match attr {
                Some(a) if is_value => (g.attr_text(a).to_string(), None),
                Some(a) => (node_name(g, a, pat.types[depth]), Some(pat.types[depth])),
                None => (root_name(g, pat.types[0]), Some(pat.types[0])),
            };
            self.columns.push(name);
            self.meta.push(ColumnMeta {
                depth,
                is_value,
                attr,
                node_type,
                first_keyword: kw,
            });
            self.feeds.push(Vec::new());
            self.columns.len() - 1
        });
        self.feeds[col].push(slot);
    }

    /// The same layout, keeping the text of every cell of `p`'s rows in
    /// one buffer that [`Self::for_each_cell`] then reads instead of the
    /// graph (see the module docs for when that pays).
    pub(crate) fn keep_text(mut self, g: &KnowledgeGraph, p: &RankedPattern) -> Self {
        let ncols = self.columns.len();
        let mut text = String::new();
        let mut bounds = Vec::with_capacity(p.trees.len() * ncols + 1);
        bounds.push(0);
        for row in p.trees.iter() {
            for col in 0..ncols {
                text.push_str(&self.read(g, row, col));
                bounds.push(text.len());
            }
        }
        self.text = Some(CellText { text, bounds });
        self
    }

    /// Call `f(column, text)` on each cell of row `row` of `p`, the pattern
    /// the table was composed for, in column order. `row` indexes
    /// [`RankedPattern::trees`], within [`Self::rows`]. A cell is the node
    /// text of its column's slot, or, when the slots hold different nodes,
    /// their distinct texts joined by `" / "` in slot order.
    pub fn for_each_cell(
        &self,
        g: &KnowledgeGraph,
        p: &RankedPattern,
        row: usize,
        mut f: impl FnMut(usize, &str),
    ) {
        let n = self.columns.len();
        match &self.text {
            Some(kept) => {
                let bounds = &kept.bounds[row * n..=row * n + n];
                for (col, w) in bounds.windows(2).enumerate() {
                    f(col, &kept.text[w[0]..w[1]]);
                }
            }
            None => {
                let row = p.trees.row(row);
                for col in 0..n {
                    f(col, &self.read(g, row, col));
                }
            }
        }
    }

    /// A cell read from the row's nodes and the graph.
    fn read<'g>(&self, g: &'g KnowledgeGraph, row: Row<'_>, col: usize) -> Cow<'g, str> {
        let feeds = &self.feeds[col];
        let first = row.nodes[feeds[0]];
        if feeds[1..].iter().all(|&s| row.nodes[s] == first) {
            return Cow::Borrowed(g.node_text(first));
        }
        let mut joined = String::new();
        for &s in feeds {
            push_cell(&mut joined, g, row.nodes[s]);
        }
        Cow::Owned(joined)
    }

    /// Every shown cell as an owned string, one `Vec` per row, aligned
    /// with `columns`.
    pub fn cells(&self, g: &KnowledgeGraph, p: &RankedPattern) -> Vec<Vec<String>> {
        self.rows
            .clone()
            .map(|row| {
                let mut cells = Vec::with_capacity(self.columns.len());
                self.for_each_cell(g, p, row, |_, text| cells.push(text.to_string()));
                cells
            })
            .collect()
    }

    /// A copy showing only the first `n` rows (for previews; scores and
    /// columns are unaffected).
    pub fn truncate_rows(&self, n: usize) -> TableAnswer {
        let mut shown = self.clone();
        shown.rows.end = shown.rows.end.min(shown.rows.start + n);
        shown
    }

    /// Render the rows of `p` as a fixed-width ASCII table (for the
    /// examples and the case study of Figures 14–15).
    pub fn render(&self, g: &KnowledgeGraph, p: &RankedPattern) -> String {
        let rows = self.cells(g, p);
        let ncols = self.columns.len();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let render_row = |cells: &[String]| {
            let mut s = String::from("|");
            for c in 0..ncols {
                let cell = cells.get(c).map(String::as_str).unwrap_or("");
                s.push(' ');
                s.push_str(cell);
                s.push_str(&" ".repeat(widths[c] - cell.len() + 1));
                s.push('|');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&render_row(&self.columns));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

fn root_name(g: &KnowledgeGraph, t: TypeId) -> String {
    if t == KnowledgeGraph::TEXT_TYPE {
        "*".to_string()
    } else {
        g.type_text(t).to_string()
    }
}

fn node_name(g: &KnowledgeGraph, a: AttrId, t: TypeId) -> String {
    if t == KnowledgeGraph::TEXT_TYPE {
        g.attr_text(a).to_string()
    } else {
        let (attr, ty) = (g.attr_text(a), g.type_text(t));
        let mut name = String::with_capacity(attr.len() + ty.len() + 3);
        for part in [attr, " (", ty, ")"] {
            name.push_str(part);
        }
        name
    }
}

fn push_cell(cell: &mut String, g: &KnowledgeGraph, node: NodeId) {
    let text = g.node_text(node);
    if cell.is_empty() {
        cell.push_str(text);
    } else if cell != text && !cell.split(" / ").any(|part| part == text) {
        cell.push_str(" / ");
        cell.push_str(text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::QueryContext;
    use crate::linear_enum::linear_enum;
    use crate::subtree::Rows;
    use crate::topk::SamplingConfig;
    use crate::{Query, SearchConfig};
    use patternkb_datagen::figure1;
    use patternkb_index::{build_indexes, BuildConfig};
    use patternkb_text::{SynonymTable, TextIndex};

    fn top_pattern_table() -> (TableAnswer, RankedPattern, patternkb_graph::KnowledgeGraph) {
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
    fn figure3_shape() {
        // The paper's Figure 3: columns Software / Genre→Model / Developer→
        // Company / Revenue; rows SQL Server and Oracle DB.
        let (table, _, _) = top_pattern_table();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.columns.len(), 4, "{:?}", table.columns);
        assert!(table.columns[0].contains("Software"));
        assert!(table.columns.iter().any(|c| c.contains("Genre")));
        assert!(table.columns.iter().any(|c| c.contains("Company")));
        assert!(table.columns.iter().any(|c| c == "Revenue"));
    }

    #[test]
    fn figure3_values() {
        let (table, top, g) = top_pattern_table();
        let flat: Vec<String> = table.cells(&g, &top).into_iter().flatten().collect();
        assert!(flat.iter().any(|c| c == "SQL Server"));
        assert!(flat.iter().any(|c| c == "Oracle DB"));
        assert!(flat.iter().any(|c| c == "Relational database"));
        assert!(flat.iter().any(|c| c == "US$ 77 billion"));
        assert!(flat.iter().any(|c| c == "US$ 37 billion"));
    }

    #[test]
    fn shared_root_column_is_deduped() {
        // All four keyword paths start at the Software root; the root
        // column must appear exactly once.
        let (table, _, _) = top_pattern_table();
        let roots = table.columns.iter().filter(|c| *c == "Software").count();
        assert_eq!(roots, 1);
    }

    #[test]
    fn render_is_aligned() {
        let (table, top, g) = top_pattern_table();
        let shown = table.render(&g, &top);
        let lines: Vec<&str> = shown.lines().collect();
        assert!(lines.len() >= 5);
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "all lines same width");
        assert!(shown.contains("SQL Server"));
    }

    #[test]
    fn divergent_values_under_one_column_are_joined() {
        // Two keywords matched through the *same* pattern prefix but
        // different actual nodes: root -A-> "left leaf" and root -A-> "right
        // leaf", both of type T. The merged column shows both values.
        let mut b = patternkb_graph::GraphBuilder::new();
        let root_t = b.add_type("Root");
        let leaf_t = b.add_type("Leaf");
        let a = b.add_attr("Link");
        let r = b.add_node(root_t, "origin");
        let x = b.add_node(leaf_t, "left leaf");
        let y = b.add_node(leaf_t, "right leaf");
        b.add_edge(r, a, x);
        b.add_edge(r, a, y);
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
        let q = Query::parse(&t, "left right").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let res = linear_enum(&ctx, &SearchConfig::top(10), &SamplingConfig::exact());
        let p = res
            .patterns
            .iter()
            .find(|p| p.num_trees == 1 && p.pattern.iter().all(|pp| pp.num_nodes() == 2))
            .expect("the (Root)(Link)(Leaf)² pattern exists");
        let table = TableAnswer::from_pattern(&g, p);
        // Root column + one merged Leaf column.
        assert_eq!(table.columns.len(), 2, "{:?}", table.columns);
        let cell = &table.cells(&g, p)[0][1];
        assert!(
            cell == "left leaf / right leaf" || cell == "right leaf / left leaf",
            "divergent values joined, got {cell:?}"
        );
    }

    #[test]
    fn empty_pattern_renders() {
        let p = RankedPattern {
            pattern: vec![],
            score: 0.0,
            num_trees: 0,
            trees: Rows::default(),
        };
        let (g, _) = figure1();
        let table = TableAnswer::from_pattern(&g, &p);
        assert!(table.columns.is_empty());
        assert!(table.rows.is_empty());
        let _ = table.render(&g, &p);
    }
}
