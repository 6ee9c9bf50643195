//! Valid subtrees (§2.2.1).
//!
//! A valid subtree for query `{w1, …, wm}` is identified with the tuple of
//! per-keyword root-to-match paths sharing one root — exactly the objects
//! Algorithms 2–4 enumerate (see DESIGN.md §2). Minimality (condition iii)
//! holds by construction: every leaf of the union of root-to-match paths is
//! the terminus of at least one path.

use patternkb_graph::NodeId;

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
    /// The matched element's node: the terminal node for node matches, the
    /// edge's *source* for edge matches.
    pub fn match_node(&self) -> NodeId {
        if self.edge_terminal {
            self.nodes[self.nodes.len() - 2]
        } else {
            *self.nodes.last().expect("non-empty path")
        }
    }

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

impl ValidSubtree {
    /// Whether the union of the paths is a tree: every node other than the
    /// root has exactly one parent among the union's edges. The paper's
    /// products do not perform this check; [`crate::SearchConfig::strict_trees`]
    /// turns it on.
    pub fn is_tree(&self) -> bool {
        paths_form_tree(self.root, self.paths.iter())
    }

    /// All distinct nodes of the subtree.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .paths
            .iter()
            .flat_map(|p| p.nodes.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A canonical identity for deduplication across algorithms: the sorted
    /// per-keyword node sequences.
    pub fn identity(&self) -> (NodeId, Vec<(Vec<NodeId>, bool)>) {
        (
            self.root,
            self.paths
                .iter()
                .map(|p| (p.nodes.clone(), p.edge_terminal))
                .collect(),
        )
    }
}

/// Tree check over any path iterator (used pre-materialization by the
/// algorithms' strict mode): conflicting parents ⇒ not a tree.
pub fn paths_form_tree<'a>(root: NodeId, paths: impl Iterator<Item = &'a TreePath>) -> bool {
    let slices: Vec<&[NodeId]> = paths
        .inspect(|path| debug_assert_eq!(path.nodes.first(), Some(&root)))
        .map(|path| path.nodes.as_slice())
        .collect();
    node_slices_form_tree(root, &slices)
}

/// Slice-level variant of [`paths_form_tree`] for hot loops that have not
/// materialized [`TreePath`]s yet: no edge leads back to `root`, and no
/// node has two different parents. Strict mode runs it on every
/// enumerated tuple, so it allocates nothing: each edge is checked
/// against the edges before it, a scan over at most `m·d` of them.
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

    fn path(nodes: &[u32], edge_terminal: bool) -> TreePath {
        TreePath {
            nodes: nodes.iter().map(|&i| NodeId(i)).collect(),
            edge_terminal,
        }
    }

    #[test]
    fn match_node() {
        assert_eq!(path(&[0, 1, 2], false).match_node(), NodeId(2));
        assert_eq!(path(&[0, 1, 2], true).match_node(), NodeId(1));
        assert_eq!(path(&[0], false).match_node(), NodeId(0));
    }

    #[test]
    fn shared_prefixes_are_trees() {
        let t = ValidSubtree {
            root: NodeId(0),
            paths: vec![
                path(&[0, 1, 2], false),
                path(&[0, 1, 3], false),
                path(&[0], false),
            ],
            score: 1.0,
        };
        assert!(t.is_tree());
        assert_eq!(t.nodes(), vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn converging_paths_are_not_trees() {
        // 0→1→3 and 0→2→3: node 3 has two parents.
        let t = ValidSubtree {
            root: NodeId(0),
            paths: vec![path(&[0, 1, 3], false), path(&[0, 2, 3], false)],
            score: 1.0,
        };
        assert!(!t.is_tree());
    }

    #[test]
    fn edge_back_to_root_is_not_a_tree() {
        let t = ValidSubtree {
            root: NodeId(0),
            paths: vec![path(&[0, 1], false), path(&[0, 2, 0], false)],
            score: 1.0,
        };
        assert!(!t.is_tree());
    }

    #[test]
    fn slice_variant_agrees() {
        let a = [NodeId(0), NodeId(1), NodeId(3)];
        let b = [NodeId(0), NodeId(2), NodeId(3)];
        assert!(!node_slices_form_tree(NodeId(0), &[&a, &b]));
        let c = [NodeId(0), NodeId(1), NodeId(2)];
        assert!(node_slices_form_tree(NodeId(0), &[&a, &c[..2]]));
    }

    #[test]
    fn identity_distinguishes_paths() {
        let t1 = ValidSubtree {
            root: NodeId(0),
            paths: vec![path(&[0, 1], false)],
            score: 1.0,
        };
        let t2 = ValidSubtree {
            root: NodeId(0),
            paths: vec![path(&[0, 1], true)],
            score: 1.0,
        };
        assert_ne!(t1.identity(), t2.identity());
    }
}
