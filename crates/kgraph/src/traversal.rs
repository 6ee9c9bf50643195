//! Bounded traversal primitives shared by index construction and the
//! enumeration–aggregation baseline.
//!
//! The central notion is a **simple directed path with at most `d` nodes**
//! starting at a root (paper §3, Algorithm 1). Paths must be simple because a
//! valid subtree is a subtree *of the graph* — a root-to-leaf path cannot
//! revisit a node (and the Theorem-1 reduction counts *simple* s-t paths).

use crate::graph::KnowledgeGraph;
use crate::ids::{AttrId, Id, NodeId};

/// Enumerate every simple path starting at `root` with at most `max_nodes`
/// nodes (the root alone counts as a 1-node path), invoking `visit` with the
/// node stack and the attribute stack (`attrs[i]` labels the edge
/// `nodes[i] -> nodes[i+1]`).
///
/// `visit` is called once per path, in DFS order, including the trivial
/// single-node path. The slices are only valid during the call.
pub fn for_each_path<F>(g: &KnowledgeGraph, root: NodeId, max_nodes: usize, mut visit: F)
where
    F: FnMut(&[NodeId], &[AttrId]),
{
    if max_nodes == 0 {
        return;
    }
    let mut nodes = Vec::with_capacity(max_nodes);
    let mut attrs = Vec::with_capacity(max_nodes.saturating_sub(1));
    nodes.push(root);
    visit(&nodes, &attrs);
    dfs(g, max_nodes, &mut nodes, &mut attrs, &mut visit);
}

fn dfs<F>(
    g: &KnowledgeGraph,
    max_nodes: usize,
    nodes: &mut Vec<NodeId>,
    attrs: &mut Vec<AttrId>,
    visit: &mut F,
) where
    F: FnMut(&[NodeId], &[AttrId]),
{
    if nodes.len() == max_nodes {
        return;
    }
    let v = *nodes.last().expect("non-empty stack");
    for (attr, target) in g.out_edges(v) {
        // Simple paths only: skip nodes already on the stack. Stacks are at
        // most `d` deep (d ≤ 4 in the paper), so a linear scan beats any
        // hash-set bookkeeping.
        if nodes.contains(&target) {
            continue;
        }
        nodes.push(target);
        attrs.push(attr);
        visit(nodes, attrs);
        dfs(g, max_nodes, nodes, attrs, visit);
        nodes.pop();
        attrs.pop();
    }
}

/// Backward BFS: every node that can reach some node in `sources` through a
/// directed path with at most `max_nodes` nodes total (so up to
/// `max_nodes - 1` hops). Returns a dense boolean mask.
///
/// This is the reachability core of the baseline's backward search (paper
/// §2.3, adapted from BANKS \[10\]).
pub fn backward_reach_mask(
    g: &KnowledgeGraph,
    sources: impl IntoIterator<Item = NodeId>,
    max_nodes: usize,
) -> Vec<bool> {
    let n = g.num_nodes();
    let mut mask = vec![false; n];
    if max_nodes == 0 {
        return mask;
    }
    let mut frontier: Vec<NodeId> = Vec::new();
    for s in sources {
        if !mask[s.index()] {
            mask[s.index()] = true;
            frontier.push(s);
        }
    }
    // `max_nodes` nodes on a path = `max_nodes - 1` backward expansions.
    for _ in 1..max_nodes {
        let mut next = Vec::new();
        for &v in &frontier {
            for (_, u) in g.in_edges(v) {
                if !mask[u.index()] {
                    mask[u.index()] = true;
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    mask
}

/// The nodes [`backward_reach_mask`] marks, ascending, at a cost
/// proportional to what is reached rather than to the graph: the
/// incremental refresh's affected roots are a handful of nodes out of
/// many thousands.
pub fn backward_reach(
    g: &KnowledgeGraph,
    sources: impl IntoIterator<Item = NodeId>,
    max_nodes: usize,
) -> Vec<NodeId> {
    if max_nodes == 0 {
        return Vec::new();
    }
    let mut seen = crate::FxHashSet::default();
    let mut frontier: Vec<NodeId> = sources.into_iter().filter(|&s| seen.insert(s)).collect();
    for _ in 1..max_nodes {
        let next: Vec<NodeId> = frontier
            .iter()
            .flat_map(|&v| g.in_edges(v))
            .map(|(_, u)| u)
            .filter(|&u| seen.insert(u))
            .collect();
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    let mut reached: Vec<NodeId> = seen.into_iter().collect();
    reached.sort_unstable();
    reached
}

/// Count simple paths from `s` to `t` with no length bound (exponential in
/// the worst case — only for small graphs; used by the Theorem-1 reduction
/// tests).
pub fn count_simple_paths(g: &KnowledgeGraph, s: NodeId, t: NodeId) -> u64 {
    fn rec(g: &KnowledgeGraph, v: NodeId, t: NodeId, on_stack: &mut Vec<NodeId>) -> u64 {
        if v == t {
            return 1;
        }
        let mut total = 0;
        for (_, u) in g.out_edges(v) {
            if !on_stack.contains(&u) {
                on_stack.push(u);
                total += rec(g, u, t, on_stack);
                on_stack.pop();
            }
        }
        total
    }
    let mut stack = vec![s];
    rec(g, s, t, &mut stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Diamond: a -> b -> d, a -> c -> d.
    fn diamond() -> (KnowledgeGraph, [NodeId; 4]) {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t = b.add_type("T");
        let e = b.add_attr("e");
        let a = b.add_node(t, "a");
        let x = b.add_node(t, "b");
        let y = b.add_node(t, "c");
        let d = b.add_node(t, "d");
        b.add_edge(a, e, x);
        b.add_edge(a, e, y);
        b.add_edge(x, e, d);
        b.add_edge(y, e, d);
        (b.build(), [a, x, y, d])
    }

    #[test]
    fn path_enumeration_counts() {
        let (g, [a, ..]) = diamond();
        let mut count = 0;
        for_each_path(&g, a, 3, |_, _| count += 1);
        // 1 (a) + 2 (a-b, a-c) + 2 (a-b-d, a-c-d) = 5
        assert_eq!(count, 5);
    }

    #[test]
    fn path_enumeration_respects_bound() {
        let (g, [a, ..]) = diamond();
        let mut max_len = 0;
        for_each_path(&g, a, 2, |nodes, attrs| {
            assert_eq!(attrs.len() + 1, nodes.len());
            max_len = max_len.max(nodes.len());
        });
        assert_eq!(max_len, 2);
    }

    #[test]
    fn paths_are_simple_on_cycles() {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t = b.add_type("T");
        let e = b.add_attr("e");
        let x = b.add_node(t, "x");
        let y = b.add_node(t, "y");
        b.add_edge(x, e, y);
        b.add_edge(y, e, x);
        let g = b.build();
        let mut paths = Vec::new();
        for_each_path(&g, x, 5, |nodes, _| paths.push(nodes.to_vec()));
        // x, x-y only; x-y-x is not simple.
        assert_eq!(paths, vec![vec![x], vec![x, y]]);
    }

    #[test]
    fn backward_mask_radii() {
        let (g, [a, b_, c, d]) = diamond();
        let m1 = backward_reach_mask(&g, [d], 1);
        assert!(m1[d.index()] && !m1[b_.index()]);
        let m2 = backward_reach_mask(&g, [d], 2);
        assert!(m2[b_.index()] && m2[c.index()] && !m2[a.index()]);
        let m3 = backward_reach_mask(&g, [d], 3);
        assert!(m3[a.index()]);
    }

    #[test]
    fn simple_path_count_diamond() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(count_simple_paths(&g, a, d), 2);
        assert_eq!(count_simple_paths(&g, d, a), 0);
        assert_eq!(count_simple_paths(&g, a, a), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    fn random_graph(n: usize, edges: &[(u8, u8)]) -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t = b.add_type("T");
        let a = b.add_attr("e");
        let nodes: Vec<_> = (0..n).map(|i| b.add_node(t, &format!("n{i}"))).collect();
        for &(s, d) in edges {
            let (s, d) = (s as usize % n, d as usize % n);
            if s != d {
                b.add_edge(nodes[s], a, nodes[d]);
            }
        }
        b.build()
    }

    proptest! {
        /// Every enumerated path is simple, within bound, and edges exist.
        #[test]
        fn paths_are_valid(edges in proptest::collection::vec((0u8..6, 0u8..6), 0..20)) {
            let g = random_graph(6, &edges);
            let mut violations: Vec<String> = Vec::new();
            for_each_path(&g, NodeId(0), 4, |nodes, attrs| {
                if nodes.len() > 4 {
                    violations.push(format!("too long: {nodes:?}"));
                }
                let mut sorted = nodes.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != nodes.len() {
                    violations.push(format!("not simple: {nodes:?}"));
                }
                for i in 0..attrs.len() {
                    let found = g.out_edges(nodes[i]).any(|(a, t)| a == attrs[i] && t == nodes[i + 1]);
                    if !found {
                        violations.push(format!("missing edge at {i}: {nodes:?}"));
                    }
                }
            });
            prop_assert!(violations.is_empty(), "{violations:?}");
        }

        /// backward_reach_mask agrees with forward path enumeration:
        /// u is in the mask of {t} iff some simple path u→t with ≤ d nodes exists.
        #[test]
        fn backward_mask_agrees_with_forward(
            edges in proptest::collection::vec((0u8..5, 0u8..5), 0..15),
            target in 0u8..5,
        ) {
            let g = random_graph(5, &edges);
            let t = NodeId(target as u32 % 5);
            let d = 3;
            let mask = backward_reach_mask(&g, [t], d);
            for v in g.nodes() {
                let mut reaches = false;
                for_each_path(&g, v, d, |nodes, _| {
                    if *nodes.last().unwrap() == t {
                        reaches = true;
                    }
                });
                prop_assert_eq!(mask[v.index()], reaches);
            }
            let marked: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
            prop_assert_eq!(backward_reach(&g, [t, t], d), marked);
        }
    }
}
