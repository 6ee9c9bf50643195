//! Keyword match index over a knowledge graph.
//!
//! For every node, entity type and attribute type the index stores the
//! sorted set of canonical token ids of its text, plus inverted lists
//!
//! * `word → nodes` whose text **or** type text contains the word
//!   (condition ii of §2.2.1: a keyword may appear "in the text description
//!   of a node or node type"), and
//! * `word → attribute types` whose text contains the word.
//!
//! It also answers the Jaccard term `sim(w, f(w))` of Eq. (6). When a word
//! occurs both in a node's own text and in its type text the paper's `sim`
//! is ambiguous; we resolve it as the **maximum** over the matching sources
//! (see DESIGN.md §2 — the only reading consistent with Example 2.4).

use crate::synonyms::SynonymTable;
use crate::vocab::Vocabulary;
use patternkb_graph::ids::Id;
use patternkb_graph::mutate::GraphDelta;
use patternkb_graph::{AttrId, FxHashMap, KnowledgeGraph, NodeId, TypeId, WordId};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Immutable keyword match index; build once per graph with
/// [`TextIndex::build`], and derive the index of a mutated graph with
/// [`TextIndex::extended`].
///
/// Word ids are assigned in interning order: every type's text, then every
/// attribute's, then every node's in id order. Node ids only grow, so the
/// index of a graph that gained nodes but no type or attribute is the old
/// index with the new nodes interned on top — same ids as a fresh build.
///
/// The vocabulary and the inverted lists are `Arc`-shared between an
/// index and the ones extended from it; extending copies the vocabulary
/// only if the delta brings a new word, and only the lists it appends to.
#[derive(Clone)]
pub struct TextIndex {
    vocab: Arc<Vocabulary>,
    /// CSR: distinct sorted token ids of each node's text.
    node_tok_offsets: Vec<u32>,
    node_toks: Vec<WordId>,
    /// Distinct sorted token ids of each entity type's text.
    type_toks: Vec<Vec<WordId>>,
    /// Distinct sorted token ids of each attribute type's text.
    attr_toks: Vec<Vec<WordId>>,
    /// word → sorted node ids matching via node text or type text.
    word_nodes: FxHashMap<WordId, Arc<Vec<NodeId>>>,
    /// word → sorted attribute ids whose text contains the word.
    word_attrs: FxHashMap<WordId, Vec<AttrId>>,
    /// attr → sorted distinct source nodes having an out-edge of this attr
    /// (used by the baseline's backward search over edge matches).
    attr_sources: Vec<Arc<Vec<NodeId>>>,
}

impl TextIndex {
    /// Build the index for `g`, canonicalizing through `synonyms` with the
    /// default ([`crate::stem::Stemmer::Lite`]) stemmer.
    pub fn build(g: &KnowledgeGraph, synonyms: SynonymTable) -> Self {
        Self::build_with(g, synonyms, crate::stem::Stemmer::Lite)
    }

    /// Build the index with an explicit stemmer (see
    /// [`crate::stem::Stemmer`] for the trade-offs): the empty index
    /// extended over the whole graph.
    pub fn build_with(
        g: &KnowledgeGraph,
        synonyms: SynonymTable,
        stemmer: crate::stem::Stemmer,
    ) -> Self {
        let mut index = TextIndex {
            vocab: Arc::new(Vocabulary::with_stemmer(synonyms, stemmer)),
            node_tok_offsets: Vec::new(),
            node_toks: Vec::new(),
            type_toks: Vec::new(),
            attr_toks: Vec::new(),
            word_nodes: FxHashMap::default(),
            word_attrs: FxHashMap::default(),
            attr_sources: Vec::new(),
        };
        index.intern_beyond(g, (&[0], &[]));
        let mut sources = vec![Vec::new(); g.num_attrs()];
        for v in g.nodes() {
            for (a, _) in g.out_edges(v) {
                let list: &mut Vec<NodeId> = &mut sources[a.index()];
                if list.last() != Some(&v) {
                    list.push(v);
                }
            }
        }
        index.attr_sources = sources.into_iter().map(Arc::new).collect();
        index
    }

    /// The index of `new_g = delta.apply(g)`, where `self` indexes `g` and
    /// `delta` adds **no type and no attribute**
    /// ([`GraphDelta::adds_schema`] is false): field for field — word ids
    /// included — what [`Self::build_with`] returns on `new_g`, at the
    /// cost of the delta's own text, a copy of the lists it appends to and
    /// of the node-token column, and a pointer per list it leaves alone.
    ///
    /// # Panics
    /// If `new_g` has a type or attribute this index has not seen; its
    /// text would be interned after node text, unlike a fresh build.
    pub fn extended(&self, new_g: &KnowledgeGraph, delta: &GraphDelta) -> Self {
        assert!(
            new_g.num_types() == self.type_toks.len() && new_g.num_attrs() == self.attr_toks.len(),
            "a delta that adds schema needs a rebuilt text index"
        );
        let mut index = TextIndex {
            vocab: Arc::clone(&self.vocab),
            node_tok_offsets: Vec::new(),
            node_toks: Vec::new(),
            type_toks: self.type_toks.clone(),
            attr_toks: self.attr_toks.clone(),
            word_nodes: self.word_nodes.clone(),
            word_attrs: self.word_attrs.clone(),
            attr_sources: self.attr_sources.clone(),
        };
        index.intern_beyond(new_g, (&self.node_tok_offsets, &self.node_toks));
        for &(s, a, _) in delta.added_edges().iter().chain(delta.removed_edges()) {
            let sources = &mut index.attr_sources[a.index()];
            let is_source = new_g.out_edges(s).any(|(x, _)| x == a);
            match (sources.binary_search(&s), is_source) {
                (Err(at), true) => unshare(sources, 1).insert(at, s),
                (Ok(at), false) => {
                    unshare(sources, 0).remove(at);
                }
                _ => {}
            }
        }
        index
    }

    /// The one interning routine: tokenize whatever `g` holds beyond what
    /// is already indexed — types, then attributes, then nodes, the order
    /// that fixes word ids — and append to the per-item token sets and
    /// the inverted lists (items are visited in ascending id order, so the
    /// lists stay sorted). A shared vocabulary or list is copied on its
    /// first write. The node-token columns become `prior`'s (the columns
    /// of the index this one extends) with the new nodes' appended.
    fn intern_beyond(&mut self, g: &KnowledgeGraph, prior: (&[u32], &[WordId])) {
        for t in self.type_toks.len()..g.num_types() {
            let toks = token_set(&mut self.vocab, g.type_text(TypeId(t as u32)));
            self.type_toks.push(toks);
        }
        for a in self.attr_toks.len()..g.num_attrs() {
            let attr = AttrId(a as u32);
            let toks = token_set(&mut self.vocab, g.attr_text(attr));
            for &w in &toks {
                self.word_attrs.entry(w).or_default().push(attr);
            }
            self.attr_toks.push(toks);
            self.attr_sources.push(Arc::default());
        }
        // The new nodes' token sets as one column, and the nodes each word
        // gains (text ∪ type text), in ascending node order.
        let first = prior.0.len() - 1;
        let mut offsets: Vec<u32> = Vec::with_capacity(g.num_nodes() + 1);
        offsets.extend_from_slice(prior.0);
        let mut toks: Vec<WordId> = Vec::new();
        let mut joined: FxHashMap<WordId, Vec<NodeId>> = FxHashMap::default();
        let mut matched: Vec<WordId> = Vec::new();
        for v in (first..g.num_nodes()).map(NodeId::from_usize) {
            let node = token_set(&mut self.vocab, g.node_text(v));
            matched.clear();
            matched.extend_from_slice(&node);
            matched.extend_from_slice(&self.type_toks[g.node_type(v).index()]);
            matched.sort_unstable();
            matched.dedup();
            for &w in &matched {
                joined.entry(w).or_default().push(v);
            }
            toks.extend_from_slice(&node);
            offsets.push((prior.1.len() + toks.len()) as u32);
        }
        for (w, nodes) in joined {
            match self.word_nodes.entry(w) {
                Entry::Vacant(slot) => {
                    slot.insert(Arc::new(nodes));
                }
                Entry::Occupied(mut slot) => {
                    unshare(slot.get_mut(), nodes.len()).extend_from_slice(&nodes);
                }
            }
        }
        self.node_tok_offsets = offsets;
        // A full build's column is the new one itself; an extension copies
        // the prior column once, at its final size.
        self.node_toks = if prior.1.is_empty() {
            toks
        } else {
            [prior.1, &toks].concat()
        };
    }

    /// The canonical vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Canonical id of a raw query token, if it occurs anywhere in the KB.
    pub fn lookup_word(&self, token: &str) -> Option<WordId> {
        self.vocab.lookup(token)
    }

    /// Distinct sorted canonical token ids of node `v`'s text.
    pub fn node_tokens(&self, v: NodeId) -> &[WordId] {
        let lo = self.node_tok_offsets[v.index()] as usize;
        let hi = self.node_tok_offsets[v.index() + 1] as usize;
        &self.node_toks[lo..hi]
    }

    /// Token set of a type's text (empty for the reserved text type).
    pub fn type_tokens(&self, t: TypeId) -> &[WordId] {
        &self.type_toks[t.index()]
    }

    /// Token set of an attribute type's text.
    pub fn attr_tokens(&self, a: AttrId) -> &[WordId] {
        &self.attr_toks[a.index()]
    }

    /// Sorted nodes whose text or type text contains `w`.
    pub fn nodes_matching(&self, w: WordId) -> &[NodeId] {
        self.word_nodes
            .get(&w)
            .map_or(&[], |nodes| nodes.as_slice())
    }

    /// Sorted attribute types whose text contains `w`.
    pub fn attrs_matching(&self, w: WordId) -> &[AttrId] {
        self.word_attrs.get(&w).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether node `v` (text or type text) contains `w`.
    pub fn node_matches(&self, w: WordId, v: NodeId, node_type: TypeId) -> bool {
        self.node_tokens(v).binary_search(&w).is_ok()
            || self.type_toks[node_type.index()].binary_search(&w).is_ok()
    }

    /// Whether attribute `a` contains `w`.
    pub fn attr_matches(&self, w: WordId, a: AttrId) -> bool {
        self.attr_toks[a.index()].binary_search(&w).is_ok()
    }

    /// `sim(w, v)` per Eq. (6): max Jaccard over the node-text and type-text
    /// matching sources; 0 when `w` matches neither.
    pub fn sim_node(&self, w: WordId, v: NodeId, node_type: TypeId) -> f64 {
        let via_text = crate::jaccard::single_word_sim(w, self.node_tokens(v));
        let via_type = crate::jaccard::single_word_sim(w, &self.type_toks[node_type.index()]);
        via_text.max(via_type)
    }

    /// `sim(w, e)` for an edge match: Jaccard against the attribute text.
    pub fn sim_attr(&self, w: WordId, a: AttrId) -> f64 {
        crate::jaccard::single_word_sim(w, &self.attr_toks[a.index()])
    }

    /// Sorted distinct nodes that own at least one out-edge of attribute
    /// `a` (backward-search entry points for edge matches).
    pub fn attr_sources(&self, a: AttrId) -> &[NodeId] {
        &self.attr_sources[a.index()]
    }

    /// Approximate resident bytes (for Figure-6-style size accounting).
    pub fn heap_bytes(&self) -> usize {
        let mut total = self.node_tok_offsets.len() * 4 + self.node_toks.len() * 4;
        total += self
            .type_toks
            .iter()
            .map(|v| v.len() * 4 + 24)
            .sum::<usize>();
        total += self
            .attr_toks
            .iter()
            .map(|v| v.len() * 4 + 24)
            .sum::<usize>();
        total += self
            .word_nodes
            .values()
            .map(|v| v.len() * 4 + 40)
            .sum::<usize>();
        total += self
            .word_attrs
            .values()
            .map(|v| v.len() * 4 + 40)
            .sum::<usize>();
        total += self
            .attr_sources
            .iter()
            .map(|v| v.len() * 4 + 24)
            .sum::<usize>();
        total
    }
}

/// `list`, for writing: copied first — with room for `extra` more entries
/// — if another index shares it.
fn unshare<T: Clone>(list: &mut Arc<Vec<T>>, extra: usize) -> &mut Vec<T> {
    if Arc::get_mut(list).is_none() {
        let mut copy = Vec::with_capacity(list.len() + extra);
        copy.extend_from_slice(list);
        *list = Arc::new(copy);
    }
    Arc::get_mut(list).expect("just unshared")
}

/// `text`'s token set, interned into `vocab`. A shared vocabulary is
/// copied first, and only if `text` has a word it lacks.
fn token_set(vocab: &mut Arc<Vocabulary>, text: &str) -> Vec<WordId> {
    if let Some(own) = Arc::get_mut(vocab) {
        return own.intern_token_set(text);
    }
    vocab
        .known_token_set(text)
        .unwrap_or_else(|| Arc::make_mut(vocab).intern_token_set(text))
}

impl std::fmt::Debug for TextIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TextIndex {{ words: {}, node_tokens: {} }}",
            self.vocab.len(),
            self.node_toks.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternkb_graph::GraphBuilder;

    /// SQL Server --Developer--> Microsoft --Revenue--> "US$ 77 billion"
    fn sample() -> (KnowledgeGraph, TextIndex) {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let soft = b.add_type("Software");
        let comp = b.add_type("Company");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let sql = b.add_node(soft, "SQL Server");
        let ms = b.add_node(comp, "Microsoft");
        b.add_edge(sql, dev, ms);
        b.add_text_edge(ms, rev, "US$ 77 billion");
        let g = b.build();
        let idx = TextIndex::build(&g, SynonymTable::new());
        (g, idx)
    }

    #[test]
    fn node_match_via_text() {
        let (g, idx) = sample();
        let w = idx.lookup_word("sql").unwrap();
        assert_eq!(idx.nodes_matching(w), &[NodeId(0)]);
        assert!(idx.node_matches(w, NodeId(0), g.node_type(NodeId(0))));
    }

    #[test]
    fn node_match_via_type() {
        let (g, idx) = sample();
        let w = idx.lookup_word("company").unwrap();
        assert_eq!(idx.nodes_matching(w), &[NodeId(1)]);
        assert!(idx.node_matches(w, NodeId(1), g.node_type(NodeId(1))));
        // sim via type text (single token) = 1.0
        assert_eq!(idx.sim_node(w, NodeId(1), g.node_type(NodeId(1))), 1.0);
    }

    #[test]
    fn attr_match() {
        let (_, idx) = sample();
        let w = idx.lookup_word("revenue").unwrap();
        let rev = idx.attrs_matching(w);
        assert_eq!(rev.len(), 1);
        assert_eq!(idx.sim_attr(w, rev[0]), 1.0);
        assert_eq!(idx.attr_sources(rev[0]), &[NodeId(1)]);
    }

    #[test]
    fn sim_uses_max_of_sources() {
        // Node text "software tools" (2 tokens) and type "Software"
        // (1 token): sim("software") must be max(1/2, 1) = 1.
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t = b.add_type("Software");
        let v = b.add_node(t, "software tools");
        let g = b.build();
        let idx = TextIndex::build(&g, SynonymTable::new());
        let w = idx.lookup_word("software").unwrap();
        assert_eq!(idx.sim_node(w, v, t), 1.0);
        let w2 = idx.lookup_word("tools").unwrap();
        assert_eq!(idx.sim_node(w2, v, t), 0.5);
    }

    #[test]
    fn text_nodes_match_their_text() {
        let (g, idx) = sample();
        let w = idx.lookup_word("billion").unwrap();
        let matches = idx.nodes_matching(w);
        assert_eq!(matches.len(), 1);
        assert!(g.is_text_node(matches[0]));
        // 3 tokens: us, 77, billion → sim 1/3.
        let sim = idx.sim_node(w, matches[0], g.node_type(matches[0]));
        assert!((sim - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_word() {
        let (_, idx) = sample();
        assert_eq!(idx.lookup_word("zzzz"), None);
    }

    #[test]
    fn stemmed_query_matches() {
        let (_, idx) = sample();
        // "servers" stems to "server".
        let w = idx.lookup_word("servers").unwrap();
        assert_eq!(idx.nodes_matching(w).len(), 1);
    }

    #[test]
    fn match_lists_are_sorted() {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t = b.add_type("Thing");
        for i in 0..20 {
            b.add_node(t, &format!("item {i}"));
        }
        let g = b.build();
        let idx = TextIndex::build(&g, SynonymTable::new());
        let w = idx.lookup_word("item").unwrap();
        let nodes = idx.nodes_matching(w);
        assert_eq!(nodes.len(), 20);
        assert!(nodes.windows(2).all(|p| p[0] < p[1]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use patternkb_graph::GraphBuilder;
    use proptest::prelude::*;

    fn random_graph(labels: &[String], nedges: usize) -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.skip_pagerank();
        let t1 = b.add_type("Alpha Kind");
        let t2 = b.add_type("Beta Kind");
        let a1 = b.add_attr("First Link");
        let a2 = b.add_attr("Second Link");
        let nodes: Vec<_> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| b.add_node(if i % 2 == 0 { t1 } else { t2 }, l))
            .collect();
        for i in 0..nedges.min(labels.len().saturating_sub(1)) {
            let a = if i % 2 == 0 { a1 } else { a2 };
            b.add_edge(nodes[i], a, nodes[(i + 1) % nodes.len()]);
        }
        b.build()
    }

    /// One mutation of a schema-free delta; node indices are taken modulo
    /// the node count at that point, edge picks modulo the base edge count.
    #[derive(Clone, Debug)]
    enum Op {
        AddNode {
            second_type: bool,
            label: String,
        },
        AddEdge {
            s: usize,
            second_attr: bool,
            t: usize,
        },
        AddTextEdge {
            s: usize,
            second_attr: bool,
            value: String,
        },
        RemoveEdge {
            i: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let label = "[a-z]{1,6}( [a-z]{1,6}){0,2}";
        prop_oneof![
            (proptest::bool::ANY, label)
                .prop_map(|(second_type, label)| Op::AddNode { second_type, label }),
            (0..64usize, proptest::bool::ANY, 0..64usize)
                .prop_map(|(s, second_attr, t)| Op::AddEdge { s, second_attr, t }),
            (0..64usize, proptest::bool::ANY, label).prop_map(|(s, second_attr, value)| {
                Op::AddTextEdge {
                    s,
                    second_attr,
                    value,
                }
            }),
            (0..64usize).prop_map(|i| Op::RemoveEdge { i }),
        ]
    }

    /// Build the delta, skipping ops its validation would reject.
    fn schema_free_delta(g: &KnowledgeGraph, ops: &[Op]) -> GraphDelta {
        let types = [TypeId(1), TypeId(2)];
        let attrs = [AttrId(0), AttrId(1)];
        let base_edges: Vec<_> = g.edges().map(|e| (e.source, e.attr, e.target)).collect();
        let mut d = GraphDelta::new(g);
        let mut nodes = g.num_nodes();
        let mut changed = std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::AddNode { second_type, label } => {
                    d.add_node(types[usize::from(*second_type)], label).unwrap();
                    nodes += 1;
                }
                Op::AddEdge { s, second_attr, t } => {
                    let e = (
                        NodeId((s % nodes) as u32),
                        attrs[usize::from(*second_attr)],
                        NodeId((t % nodes) as u32),
                    );
                    if !g.has_edge(e.0, e.1, e.2) && changed.insert(e) {
                        d.add_edge(e.0, e.1, e.2).unwrap();
                    }
                }
                Op::AddTextEdge {
                    s,
                    second_attr,
                    value,
                } => {
                    let s = NodeId((s % nodes) as u32);
                    let a = attrs[usize::from(*second_attr)];
                    // A repeated value reuses its text node; adding the
                    // same edge to it twice would be a duplicate.
                    let before = d.num_new_nodes();
                    let mut probe = d.clone();
                    let t = probe.add_text_edge(s, a, value).unwrap();
                    if changed.insert((s, a, t)) {
                        d = probe;
                        nodes += d.num_new_nodes() - before;
                    }
                }
                Op::RemoveEdge { i } => {
                    if base_edges.is_empty() {
                        continue;
                    }
                    let e = base_edges[i % base_edges.len()];
                    if changed.insert(e) {
                        d.remove_edge(e.0, e.1, e.2).unwrap();
                    }
                }
            }
        }
        d
    }

    fn assert_same_index(a: &TextIndex, b: &TextIndex) {
        let words = |t: &TextIndex| -> Vec<(WordId, String)> {
            t.vocab().iter().map(|(w, s)| (w, s.to_string())).collect()
        };
        assert_eq!(words(a), words(b), "vocabulary: ids and canonical forms");
        assert_eq!(a.node_tok_offsets, b.node_tok_offsets);
        assert_eq!(a.node_toks, b.node_toks, "node_tokens");
        assert_eq!(a.type_toks, b.type_toks, "type_tokens");
        assert_eq!(a.attr_toks, b.attr_toks, "attr_tokens");
        assert_eq!(a.word_nodes, b.word_nodes, "nodes_matching");
        assert_eq!(a.word_attrs, b.word_attrs, "attrs_matching");
        assert_eq!(a.attr_sources, b.attr_sources, "attr_sources");
    }

    proptest! {
        /// Extending the index over a schema-free delta — and over a chain
        /// of two — is field for field a fresh build on the new graph.
        #[test]
        fn extended_equals_fresh_build(
            labels in proptest::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,2}", 1..12),
            nedges in 0usize..12,
            first in proptest::collection::vec(op_strategy(), 0..8),
            second in proptest::collection::vec(op_strategy(), 1..8),
        ) {
            let mut g = random_graph(&labels, nedges);
            let mut idx = TextIndex::build(&g, SynonymTable::new());
            for ops in [first, second] {
                let delta = schema_free_delta(&g, &ops);
                prop_assert!(!delta.adds_schema(&g));
                let g2 = delta
                    .apply(&g, patternkb_graph::mutate::PagerankMode::Frozen)
                    .expect("filtered delta applies");
                let extended = idx.extended(&g2, &delta);
                assert_same_index(&extended, &TextIndex::build(&g2, SynonymTable::new()));
                (g, idx) = (g2, extended);
            }
        }

        /// The inverted list and the membership predicate agree for every
        /// (word, node) pair, and sim is positive exactly on matches.
        #[test]
        fn inverted_list_matches_predicate(
            labels in proptest::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,2}", 1..12),
            nedges in 0usize..12,
        ) {
            let g = random_graph(&labels, nedges);
            let idx = TextIndex::build(&g, SynonymTable::new());
            let words: Vec<WordId> = idx.vocab().iter().map(|(w, _)| w).collect();
            for &w in &words {
                let listed: Vec<NodeId> = idx.nodes_matching(w).to_vec();
                for v in g.nodes() {
                    let t = g.node_type(v);
                    let member = listed.binary_search(&v).is_ok();
                    prop_assert_eq!(member, idx.node_matches(w, v, t));
                    let sim = idx.sim_node(w, v, t);
                    prop_assert_eq!(member, sim > 0.0);
                    prop_assert!((0.0..=1.0).contains(&sim));
                }
            }
        }

        /// attr_sources lists exactly the distinct sources of each attr.
        #[test]
        fn attr_sources_are_exact(
            labels in proptest::collection::vec("[a-z]{1,5}", 2..10),
            nedges in 1usize..10,
        ) {
            let g = random_graph(&labels, nedges);
            let idx = TextIndex::build(&g, SynonymTable::new());
            for a in 0..g.num_attrs() {
                let attr = patternkb_graph::AttrId(a as u32);
                let mut expected: Vec<NodeId> = g
                    .nodes()
                    .filter(|&v| g.out_edges(v).any(|(x, _)| x == attr))
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(idx.attr_sources(attr), expected.as_slice());
            }
        }
    }
}
