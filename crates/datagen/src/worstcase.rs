//! The adversarial construction of §4.1.
//!
//! > "In a knowledge graph, we have two nodes r1 and r2 with the same type
//! > C; r1 points to p nodes v1, …, vp of types C1, …, Cp through edges of
//! > types A1, …, Ap; and r2 points to another p nodes v_{p+1}, …, v_{2p} of
//! > types C_{p+1}, …, C_{2p} through edges of types A_{p+1}, …, A_{2p}. We
//! > have two words w1 and w2, w1 appearing in v1, …, vp and w2 appearing in
//! > v_{p+1}, …, v_{2p}."
//!
//! For the query `{w1, w2}`, `PATTERNENUM` enumerates `p²` combined tree
//! patterns, **all empty** (no root reaches both words through any single
//! combination), so its running time is `Θ(p²)` while `LINEARENUM` finds the
//! empty answer in time linear in the index. The `worstcase` experiment measures
//! exactly this gap.

use crate::names;
use patternkb_graph::{GraphBuilder, KnowledgeGraph};

/// The two query words planted in the construction.
pub const W1: &str = "alphaword";
/// See [`W1`].
pub const W2: &str = "betaword";

/// Build the worst-case graph with fan-out `p ≥ 1`.
pub fn worstcase(p: usize) -> KnowledgeGraph {
    assert!(p >= 1);
    let mut b = GraphBuilder::with_capacity(2 + 2 * p, 2 * p);
    let c = b.add_type("Root");
    let r1 = b.add_node(c, "rootone");
    let r2 = b.add_node(c, "roottwo");
    for i in 0..p {
        let ct = b.add_type(&names::title(&[6_000_000 + i]));
        let at = b.add_attr(&names::title(&[6_100_000 + i]));
        let v = b.add_node(ct, &format!("{W1} {}", names::word(6_200_000 + i)));
        b.add_edge(r1, at, v);
    }
    for i in 0..p {
        let ct = b.add_type(&names::title(&[6_300_000 + i]));
        let at = b.add_attr(&names::title(&[6_400_000 + i]));
        let v = b.add_node(ct, &format!("{W2} {}", names::word(6_500_000 + i)));
        b.add_edge(r2, at, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternkb_text::{SynonymTable, TextIndex};

    #[test]
    fn shape() {
        let g = worstcase(5);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn words_split_between_branches() {
        let g = worstcase(4);
        let t = TextIndex::build(&g, SynonymTable::new());
        let w1 = t.lookup_word(W1).unwrap();
        let w2 = t.lookup_word(W2).unwrap();
        assert_eq!(t.nodes_matching(w1).len(), 4);
        assert_eq!(t.nodes_matching(w2).len(), 4);
        // No node matches both words.
        let m1: std::collections::HashSet<_> = t.nodes_matching(w1).iter().collect();
        assert!(t.nodes_matching(w2).iter().all(|v| !m1.contains(v)));
    }

    #[test]
    fn all_types_distinct_across_leaves() {
        let g = worstcase(6);
        // 1 root type + 12 leaf types + reserved text type.
        assert_eq!(g.num_types(), 14);
    }
}
