//! Human-readable explanations of answers: a pattern's rows rendered as
//! indented trees, with the matched keyword annotated on each path and
//! each edge labelled with the attribute the row's pattern traverses.
//!
//! Table answers (Figure 3) are the primary output, but debugging a
//! ranking — "why is this pattern #1?" — needs the subtree structure and
//! the per-factor score breakdown, which this module renders.

use crate::result::RankedPattern;
use crate::subtree::Row;
use patternkb_graph::{AttrId, FxHashMap, KnowledgeGraph, NodeId};
use patternkb_index::PathPattern;

/// Render one row of `pattern` — a valid subtree — as an indented tree
/// rooted at its root node.
///
/// ```text
/// SQL Server [Software]
/// ├─ Genre → Relational database [Model]   ⟵ database
/// └─ Developer → Microsoft [Company]        ⟵ company
///    └─ Revenue → US$ 77 billion            ⟵ revenue
/// ```
pub fn explain_tree(
    g: &KnowledgeGraph,
    pattern: &[PathPattern],
    row: Row<'_>,
    keywords: &[&str],
) -> String {
    // Reassemble the union tree: parent → ordered (child, attribute)
    // edges, the attribute read off the path's pattern (two nodes may be
    // linked by several attributes), and per-node keyword marks.
    let mut children: FxHashMap<NodeId, Vec<(NodeId, AttrId)>> = FxHashMap::default();
    let mut marks: FxHashMap<NodeId, Vec<usize>> = FxHashMap::default();
    for (i, (path, pat)) in row.paths(pattern).zip(pattern).enumerate() {
        for (w, &attr) in path.nodes.windows(2).zip(&pat.attrs) {
            let kids = children.entry(w[0]).or_default();
            if !kids.contains(&(w[1], attr)) {
                kids.push((w[1], attr));
            }
        }
        let matched = *path.nodes.last().expect("non-empty path");
        marks.entry(matched).or_default().push(i);
    }

    let mut out = String::new();
    out.push_str(&node_label(g, row.root));
    if let Some(is) = marks.get(&row.root) {
        annotate(&mut out, is, keywords);
    }
    out.push('\n');
    render_children(
        g,
        &children,
        &marks,
        keywords,
        row.root,
        String::new(),
        &mut out,
    );
    out
}

fn render_children(
    g: &KnowledgeGraph,
    children: &FxHashMap<NodeId, Vec<(NodeId, AttrId)>>,
    marks: &FxHashMap<NodeId, Vec<usize>>,
    keywords: &[&str],
    node: NodeId,
    prefix: String,
    out: &mut String,
) {
    let Some(kids) = children.get(&node) else {
        return;
    };
    for (i, &(kid, attr)) in kids.iter().enumerate() {
        let last = i + 1 == kids.len();
        out.push_str(&prefix);
        out.push_str(if last { "└─ " } else { "├─ " });
        out.push_str(g.attr_text(attr));
        out.push_str(" → ");
        out.push_str(&node_label(g, kid));
        if let Some(is) = marks.get(&kid) {
            annotate(out, is, keywords);
        }
        out.push('\n');
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        render_children(g, children, marks, keywords, kid, child_prefix, out);
    }
}

fn node_label(g: &KnowledgeGraph, v: NodeId) -> String {
    let t = g.node_type(v);
    if t == KnowledgeGraph::TEXT_TYPE {
        format!("{:?}", g.node_text(v))
    } else {
        format!("{} [{}]", g.node_text(v), g.type_text(t))
    }
}

fn annotate(out: &mut String, keyword_indices: &[usize], keywords: &[&str]) {
    out.push_str("   ⟵ ");
    let names: Vec<&str> = keyword_indices
        .iter()
        .map(|&i| keywords.get(i).copied().unwrap_or("?"))
        .collect();
    out.push_str(&names.join(", "));
}

/// Per-factor score breakdown of a pattern's aggregation (Eq. (2)/(3)).
pub fn explain_score(p: &RankedPattern) -> String {
    let mut out = format!(
        "pattern score {:.6} over {} subtree(s)\n",
        p.score, p.num_trees
    );
    for (i, t) in p.trees.iter().enumerate() {
        out.push_str(&format!(
            "  row {:>3}: score(T) = {:.6} (root node {})\n",
            i + 1,
            t.score,
            t.root
        ));
    }
    if p.trees.len() < p.num_trees {
        out.push_str(&format!(
            "  … {} more subtree(s) not materialized\n",
            p.num_trees - p.trees.len()
        ));
    }
    out
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

    fn top_tree() -> (patternkb_graph::KnowledgeGraph, RankedPattern) {
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
        (g, r.patterns[0].clone())
    }

    #[test]
    fn tree_rendering_contains_structure() {
        let (g, p) = top_tree();
        let kw = ["database", "software", "company", "revenue"];
        let shown = explain_tree(&g, &p.pattern, p.trees.row(0), &kw);
        assert!(shown.contains("SQL Server [Software]"), "{shown}");
        assert!(shown.contains("Genre → Relational database"), "{shown}");
        assert!(shown.contains("Developer → Microsoft"), "{shown}");
        assert!(shown.contains("US$ 77 billion"), "{shown}");
        // Keyword annotations present.
        assert!(shown.contains("⟵"), "{shown}");
        assert!(shown.contains("database"), "{shown}");
    }

    #[test]
    fn score_breakdown() {
        let (_, p) = top_tree();
        let shown = explain_score(&p);
        assert!(shown.contains("2 subtree(s)"));
        assert!(shown.contains("row   1"));
        assert!(shown.contains("row   2"));
    }

    /// Two attributes link the same pair of nodes: the row's edge is
    /// labelled with its own pattern's attribute, not the graph's first.
    #[test]
    fn edges_are_labelled_with_the_rows_attribute() {
        let mut b = patternkb_graph::GraphBuilder::new();
        let root_t = b.add_type("Root");
        let leaf_t = b.add_type("Leaf");
        let alpha = b.add_attr("Alpha");
        let beta = b.add_attr("Beta");
        let origin = b.add_node(root_t, "origin");
        let target = b.add_node(leaf_t, "target");
        b.add_edge(origin, alpha, target);
        b.add_edge(origin, beta, target);
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
        let q = Query::parse(&t, "target").unwrap();
        let ctx = QueryContext::new(&g, &idx, &q).unwrap();
        let r = linear_enum(&ctx, &SearchConfig::top(10), &SamplingConfig::exact());
        for (attr, shown, hidden) in [(beta, "Beta", "Alpha"), (alpha, "Alpha", "Beta")] {
            let p = r
                .patterns
                .iter()
                .find(|p| p.pattern[0].attrs == [attr])
                .expect("one pattern per attribute");
            assert_eq!(p.display(&g), format!("[(Root) ({shown}) (Leaf)]"));
            let tree = explain_tree(&g, &p.pattern, p.trees.row(0), &["target"]);
            assert!(tree.contains(&format!("└─ {shown} → target")), "{tree}");
            assert!(!tree.contains(hidden), "{tree}");
        }
    }

    #[test]
    fn breakdown_reports_unmaterialized_rows() {
        let (_, mut p) = top_tree();
        p.trees.truncate(1);
        let shown = explain_score(&p);
        assert!(shown.contains("1 more subtree"));
    }
}
