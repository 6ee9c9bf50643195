//! Valid subtrees (§2.2.1) and the rows store that holds a pattern's
//! subtrees.
//!
//! A valid subtree for query `{w1, …, wm}` is identified with the tuple of
//! per-keyword root-to-match paths sharing one root — exactly the objects
//! Algorithms 2–4 enumerate (see DESIGN.md §2). Minimality (condition iii)
//! holds by construction: every leaf of the union of root-to-match paths is
//! the terminus of at least one path.
//!
//! All subtrees of one tree pattern have one shape: keyword `kw`'s path
//! has `pattern[kw].height()` nodes in every one of them. So a pattern's
//! subtrees — the rows of its table (§2.2.2) — are held in one [`Rows`]
//! store: every row's nodes in one array at a fixed stride, the paths
//! keyword after keyword, plus one root and one score per row. A pattern's
//! rows cost two allocations however many there are, and a reader takes a
//! row as a [`Row`] of slices into the store; [`Row::paths`] splits it by
//! the pattern. [`ValidSubtree`] and [`TreePath`] remain for a lone
//! subtree that owns its paths: the top individual subtrees of
//! [`crate::individual`], each of its own pattern.

use patternkb_graph::NodeId;
use patternkb_index::PathPattern;
use std::ops::Range;

/// The materialised subtrees of one tree pattern, in discovery order:
/// row `i`'s paths are `stride` consecutive nodes of one array, where
/// `stride` is the pattern's total path length (`Σ height()`), the same
/// for every row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rows {
    /// Per row: its root and its score.
    heads: Vec<(NodeId, f64)>,
    /// Per row, each keyword's path in query keyword order.
    nodes: Vec<NodeId>,
}

/// One row of a [`Rows`] store: a valid subtree as slices into it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row<'a> {
    /// The shared root `r`.
    pub root: NodeId,
    /// `score(T, q)` under the scoring config in effect.
    pub score: f64,
    /// Every keyword's path, in query keyword order, end to end.
    pub nodes: &'a [NodeId],
}

/// One keyword's path within a [`Row`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowPath<'a> {
    /// Node sequence `v1 … v_l` (plus the leaf target for edge matches).
    pub nodes: &'a [NodeId],
    /// Whether the keyword is matched on the final edge.
    pub edge_terminal: bool,
}

impl Rows {
    /// An empty store with room for `rows` rows of `stride` nodes each.
    pub fn with_capacity(rows: usize, stride: usize) -> Self {
        Rows {
            heads: Vec::with_capacity(rows),
            nodes: Vec::with_capacity(rows * stride),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the store holds no row.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Nodes per row.
    fn stride(&self) -> usize {
        self.nodes.len().checked_div(self.heads.len()).unwrap_or(0)
    }

    /// Append a row: its root, its score and its per-keyword paths, which
    /// must have the lengths every other row's have.
    pub fn push<'n>(
        &mut self,
        root: NodeId,
        score: f64,
        paths: impl IntoIterator<Item = &'n [NodeId]>,
    ) {
        let stride = self.stride();
        let start = self.nodes.len();
        for path in paths {
            debug_assert_eq!(path.first(), Some(&root));
            self.nodes.extend_from_slice(path);
        }
        assert!(
            self.heads.is_empty() || self.nodes.len() - start == stride,
            "every row of a pattern has its shape"
        );
        self.heads.push((root, score));
    }

    /// Row `i`. Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> Row<'_> {
        let (root, score) = self.heads[i];
        let stride = self.stride();
        Row {
            root,
            score,
            nodes: &self.nodes[i * stride..(i + 1) * stride],
        }
    }

    /// The first row, if any.
    pub fn first(&self) -> Option<Row<'_>> {
        (!self.is_empty()).then(|| self.row(0))
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            rows: self,
            next: 0..self.len(),
        }
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        let stride = self.stride();
        self.heads.truncate(n);
        self.nodes.truncate(self.heads.len() * stride);
    }

    /// Append `other`'s rows (of the same pattern) while fewer than
    /// `max_rows` are held.
    pub fn append(&mut self, mut other: Rows, max_rows: usize) {
        other.truncate(max_rows.saturating_sub(self.len()));
        if self.is_empty() {
            *self = other;
        } else {
            self.heads.extend_from_slice(&other.heads);
            self.nodes.extend_from_slice(&other.nodes);
        }
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = Row<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// The rows of a [`Rows`] store, in order.
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    rows: &'a Rows,
    next: Range<usize>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        self.next.next().map(|i| self.rows.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> Row<'a> {
    /// The row's per-keyword paths, split by `pattern`, the tree pattern
    /// whose rows hold it.
    pub fn paths<'p>(
        self,
        pattern: &'p [PathPattern],
    ) -> impl ExactSizeIterator<Item = RowPath<'a>> + 'p
    where
        'a: 'p,
    {
        let mut start = 0;
        pattern.iter().map(move |pat| {
            let end = start + pat.height();
            let nodes = &self.nodes[start..end];
            start = end;
            RowPath {
                nodes,
                edge_terminal: pat.edge_terminal,
            }
        })
    }
}

/// One per-keyword root-to-match path of a subtree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreePath {
    /// Node sequence `v1 … v_l` (plus the leaf target for edge matches).
    pub nodes: Vec<NodeId>,
    /// Whether the keyword is matched on the final edge (in which case the
    /// last entry of `nodes` is the edge's target leaf).
    pub edge_terminal: bool,
}

impl TreePath {
    /// The paper's `|T(w)|` — number of nodes including the implied leaf.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path is empty (never true for well-formed paths).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A valid subtree: one path per keyword, all from the same root, plus its
/// Eq. (3) relevance score.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidSubtree {
    /// The shared root `r`.
    pub root: NodeId,
    /// Per-keyword paths, in query keyword order.
    pub paths: Vec<TreePath>,
    /// `score(T, q)` under the scoring config in effect.
    pub score: f64,
}

/// Whether the union of root-to-match paths is a tree: no edge leads back
/// to `root`, and no node has two different parents. The paper's products
/// do not perform this check; [`crate::SearchConfig::strict_trees`] turns
/// it on, and then every enumerated tuple runs it, so it allocates
/// nothing: each edge is checked against the edges before it, a scan over
/// at most `m·d` of them.
pub fn node_slices_form_tree(root: NodeId, paths: &[&[NodeId]]) -> bool {
    let edges = || paths.iter().flat_map(|nodes| nodes.windows(2));
    edges().enumerate().all(|(k, edge)| {
        let (parent, child) = (edge[0], edge[1]);
        child != root
            && edges()
                .take(k)
                .all(|earlier| earlier[1] != child || earlier[0] == parent)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(heights: &[(usize, bool)]) -> Vec<PathPattern> {
        heights
            .iter()
            .map(|&(types, edge_terminal)| PathPattern {
                types: vec![patternkb_graph::TypeId(0); types],
                attrs: vec![patternkb_graph::AttrId(0); types - 1 + usize::from(edge_terminal)],
                edge_terminal,
            })
            .collect()
    }

    fn ids(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn rows_split_by_their_pattern() {
        // Keyword 0: a 2-node path; keyword 1: an edge match, 1 type + leaf.
        let pat = pattern(&[(2, false), (1, true)]);
        let mut rows = Rows::with_capacity(2, 4);
        rows.push(NodeId(0), 1.5, [&ids(&[0, 1])[..], &ids(&[0, 9])]);
        rows.push(NodeId(4), 0.5, [&ids(&[4, 5])[..], &ids(&[4, 7])]);
        assert_eq!(rows.len(), 2);
        let second = rows.row(1);
        assert_eq!((second.root, second.score), (NodeId(4), 0.5));
        assert_eq!(second.nodes, ids(&[4, 5, 4, 7]));
        let paths: Vec<RowPath<'_>> = second.paths(&pat).collect();
        assert_eq!(paths[0].nodes, ids(&[4, 5]));
        assert!(!paths[0].edge_terminal);
        assert_eq!(paths[1].nodes, ids(&[4, 7]));
        assert!(paths[1].edge_terminal);
        let roots: Vec<NodeId> = rows.iter().map(|r| r.root).collect();
        assert_eq!(roots, ids(&[0, 4]));
        assert_eq!(rows.first(), Some(rows.row(0)));
    }

    #[test]
    fn rows_append_up_to_the_cap() {
        let path = |root: u32| ids(&[root, root + 1]);
        let store = |roots: &[u32]| {
            let mut rows = Rows::default();
            for &r in roots {
                rows.push(NodeId(r), f64::from(r), [&path(r)[..]]);
            }
            rows
        };
        let mut a = Rows::default();
        a.append(store(&[1, 2]), 3);
        a.append(store(&[5, 6]), 3);
        assert_eq!(a, store(&[1, 2, 5]));
        a.truncate(1);
        assert_eq!(a, store(&[1]));
        a.truncate(0);
        assert!(a.is_empty());
        assert_eq!(a.first(), None);
    }

    #[test]
    #[should_panic(expected = "every row of a pattern has its shape")]
    fn rows_of_another_shape_are_refused() {
        let mut rows = Rows::default();
        rows.push(NodeId(0), 1.0, [&ids(&[0, 1])[..]]);
        rows.push(NodeId(2), 1.0, [&ids(&[2])[..]]);
    }

    fn forms_tree(paths: &[&[u32]]) -> bool {
        let paths: Vec<Vec<NodeId>> = paths.iter().map(|p| ids(p)).collect();
        let slices: Vec<&[NodeId]> = paths.iter().map(Vec::as_slice).collect();
        node_slices_form_tree(NodeId(0), &slices)
    }

    #[test]
    fn shared_prefixes_are_trees() {
        assert!(forms_tree(&[&[0, 1, 2], &[0, 1, 3], &[0]]));
        assert!(forms_tree(&[&[0, 1, 3], &[0, 1]]));
    }

    #[test]
    fn converging_paths_are_not_trees() {
        // 0→1→3 and 0→2→3: node 3 has two parents.
        assert!(!forms_tree(&[&[0, 1, 3], &[0, 2, 3]]));
    }

    #[test]
    fn edge_back_to_root_is_not_a_tree() {
        assert!(!forms_tree(&[&[0, 1], &[0, 2, 0]]));
    }

    #[test]
    fn slice_variant_agrees() {
        let a = [NodeId(0), NodeId(1), NodeId(3)];
        let b = [NodeId(0), NodeId(2), NodeId(3)];
        assert!(!node_slices_form_tree(NodeId(0), &[&a, &b]));
        let c = [NodeId(0), NodeId(1), NodeId(2)];
        assert!(node_slices_form_tree(NodeId(0), &[&a, &c[..2]]));
        // 0→1 and 0→2→1: node 1 is reached twice.
        let d = [NodeId(0), NodeId(2), NodeId(1)];
        assert!(!node_slices_form_tree(NodeId(0), &[&c[..2], &d]));
    }
}
