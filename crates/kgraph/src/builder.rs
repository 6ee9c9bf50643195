//! Incremental construction of a [`KnowledgeGraph`].
//!
//! The builder mirrors how a knowledge base is ingested (paper §2.1 and
//! Example 2.1): entities with types, attribute edges between entities, and
//! plain-text attribute values that become dummy text entities. Multi-valued
//! attributes ("Products: Windows, Bing, …") are simply repeated
//! [`GraphBuilder::add_edge`] calls with the same attribute.

use crate::fxhash::FxHashMap;
use crate::graph::{KnowledgeGraph, Triple};
use crate::ids::{AttrId, Id, NodeId, TypeId};
use crate::interner::Interner;

/// Mutable builder; call [`GraphBuilder::build`] to freeze into a
/// [`KnowledgeGraph`].
pub struct GraphBuilder {
    types: Interner<TypeId>,
    attrs: Interner<AttrId>,
    node_types: Vec<TypeId>,
    /// Every node's text back to back; node `v` ends at `text_ends[v]`.
    text: String,
    text_ends: Vec<usize>,
    edges: Vec<Triple>,
    /// Dedup cache for plain-text value nodes: identical text shares a node.
    text_nodes: FxHashMap<Box<str>, NodeId>,
    compute_pagerank: bool,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// A fresh builder. The reserved empty-text [`KnowledgeGraph::TEXT_TYPE`]
    /// is interned eagerly so it is always `TypeId(0)`.
    pub fn new() -> Self {
        let mut types = Interner::new();
        let text_type = types.get_or_intern("");
        debug_assert_eq!(text_type, KnowledgeGraph::TEXT_TYPE);
        GraphBuilder {
            types,
            attrs: Interner::new(),
            node_types: Vec::new(),
            text: String::new(),
            text_ends: Vec::new(),
            edges: Vec::new(),
            text_nodes: FxHashMap::default(),
            compute_pagerank: true,
        }
    }

    /// A builder with pre-reserved capacity for `nodes` entities and `edges`
    /// attribute edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut b = Self::new();
        b.node_types.reserve(nodes);
        b.text_ends.reserve(nodes);
        b.edges.reserve(edges);
        b
    }

    /// Disable the (eager, default-on) PageRank pass in [`Self::build`];
    /// useful in tests and when the caller will run
    /// [`crate::pagerank::compute`] with custom settings.
    pub fn skip_pagerank(&mut self) -> &mut Self {
        self.compute_pagerank = false;
        self
    }

    /// Intern an entity type by its text (e.g. `"Software"`).
    pub fn add_type(&mut self, text: &str) -> TypeId {
        assert!(
            !text.is_empty(),
            "the empty type text is reserved for plain-text dummy entities"
        );
        self.types.get_or_intern(text)
    }

    /// Intern an attribute type by its text (e.g. `"Developer"`).
    pub fn add_attr(&mut self, text: &str) -> AttrId {
        self.attrs.get_or_intern(text)
    }

    /// Add an entity node of type `t` with free-text description `text`.
    pub fn add_node(&mut self, t: TypeId, text: &str) -> NodeId {
        let id = NodeId::from_usize(self.node_types.len());
        self.node_types.push(t);
        self.text.push_str(text);
        self.text_ends.push(self.text.len());
        id
    }

    /// Add an attribute edge `source -attr-> target` between two entities.
    pub fn add_edge(&mut self, source: NodeId, attr: AttrId, target: NodeId) {
        debug_assert!(source.index() < self.node_types.len());
        debug_assert!(target.index() < self.node_types.len());
        self.edges.push((source, attr, target));
    }

    /// Add an attribute whose value is plain text: creates (or reuses) a
    /// dummy text entity and links to it. Returns the dummy node.
    pub fn add_text_edge(&mut self, source: NodeId, attr: AttrId, value: &str) -> NodeId {
        let node = if let Some(&n) = self.text_nodes.get(value) {
            n
        } else {
            let n = self.add_node(KnowledgeGraph::TEXT_TYPE, value);
            self.text_nodes.insert(value.into(), n);
            n
        };
        self.add_edge(source, attr, node);
        node
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freeze into an immutable chunked [`KnowledgeGraph`]. Edges are
    /// deduplicated and sorted by `(source, attr, target)`; the in-edge rows
    /// are derived; PageRank is computed unless [`Self::skip_pagerank`] was
    /// called.
    pub fn build(mut self) -> KnowledgeGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let mut g = KnowledgeGraph::from_sorted_edges(
            self.types,
            self.attrs,
            &self.node_types,
            &self.text,
            &self.text_ends,
            &self.edges,
        );
        if self.compute_pagerank && g.num_nodes() > 0 {
            let pr = crate::pagerank::compute(&g, &crate::pagerank::PageRankConfig::default());
            g.set_pagerank(pr);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut b = GraphBuilder::new();
        let t = b.add_type("T");
        let a = b.add_attr("A");
        let x = b.add_node(t, "x");
        let y = b.add_node(t, "y");
        b.add_edge(x, a, y);
        b.add_edge(x, a, y);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parallel_edges_with_distinct_attrs_survive() {
        let mut b = GraphBuilder::new();
        let t = b.add_type("T");
        let a1 = b.add_attr("A1");
        let a2 = b.add_attr("A2");
        let x = b.add_node(t, "x");
        let y = b.add_node(t, "y");
        b.add_edge(x, a1, y);
        b.add_edge(x, a2, y);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        let attrs: Vec<_> = g.out_edges(x).map(|(a, _)| a).collect();
        assert_eq!(attrs, vec![a1, a2]);
    }

    #[test]
    fn multi_valued_attribute_fans_out() {
        // "Products: Windows, Bing" — same attr, multiple targets.
        let mut b = GraphBuilder::new();
        let comp = b.add_type("Company");
        let soft = b.add_type("Software");
        let products = b.add_attr("Products");
        let ms = b.add_node(comp, "Microsoft");
        let win = b.add_node(soft, "Windows");
        let bing = b.add_node(soft, "Bing");
        b.add_edge(ms, products, win);
        b.add_edge(ms, products, bing);
        let g = b.build();
        assert_eq!(g.out_degree(ms), 2);
    }

    #[test]
    fn text_values_share_nodes() {
        let mut b = GraphBuilder::new();
        let t = b.add_type("Company");
        let rev = b.add_attr("Revenue");
        let x = b.add_node(t, "X Corp");
        let y = b.add_node(t, "Y Corp");
        let n1 = b.add_text_edge(x, rev, "US$ 1 billion");
        let n2 = b.add_text_edge(y, rev, "US$ 1 billion");
        assert_eq!(n1, n2);
        let g = b.build();
        assert_eq!(g.in_degree(n1), 2);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn empty_type_text_is_rejected() {
        let mut b = GraphBuilder::new();
        b.add_type("");
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn edge_ordering_is_sorted() {
        let mut b = GraphBuilder::new();
        let t = b.add_type("T");
        let a1 = b.add_attr("a");
        let a2 = b.add_attr("b");
        let x = b.add_node(t, "x");
        let y = b.add_node(t, "y");
        let z = b.add_node(t, "z");
        // Insert out of order.
        b.add_edge(x, a2, z);
        b.add_edge(x, a1, z);
        b.add_edge(x, a1, y);
        let g = b.build();
        let edges: Vec<_> = g.out_edges(x).collect();
        assert_eq!(edges, vec![(a1, y), (a1, z), (a2, z)]);
    }
}
