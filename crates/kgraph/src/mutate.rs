//! Incremental mutation of a frozen [`KnowledgeGraph`].
//!
//! Knowledge bases evolve: new entities are extracted, attributes are
//! corrected, stale links are dropped. A published [`KnowledgeGraph`] is
//! deliberately immutable, so mutation is expressed as a [`GraphDelta`] —
//! a batch of additions/removals validated against a base graph — that
//! [`GraphDelta::apply`] turns into a *new* graph version with all
//! existing [`NodeId`]s preserved. The new version copies only the node
//! chunks the batch touches and shares the rest with its base (see
//! [`crate::graph`]), so an apply costs what it changed.
//!
//! The delta also reports its [`GraphDelta::dirty_nodes`]: the endpoints of
//! every added/removed edge plus every new node. Downstream, the path
//! indexes only need to re-enumerate paths from roots within reverse
//! distance `d − 1` of a dirty node (`patternkb-index`'s incremental
//! refresh), which is what makes online maintenance affordable.
//!
//! PageRank is global — a single new edge perturbs every node's score — so
//! the caller chooses a [`PagerankMode`]: `Frozen` keeps the base scores
//! (new nodes get the uniform prior `1/|V|`), matching how production
//! systems refresh centrality offline on a schedule; `Recompute` reruns the
//! paper's iterative method on the new graph.

use crate::fxhash::{set_with_capacity, FxHashMap, FxHashSet};
use crate::graph::{KnowledgeGraph, Triple};
use crate::ids::{AttrId, Id, NodeId, TypeId};
use crate::interner::Interner;
use crate::snapshot::{Reader, SnapshotError};
use bytes::{BufMut, BytesMut};
use std::sync::Arc;

const DELTA_MAGIC: &[u8; 4] = b"PKBD";
const DELTA_VERSION: u32 = 1;

/// How [`GraphDelta::apply`] fills the new graph's PageRank vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagerankMode {
    /// Keep the base graph's scores; new nodes get the uniform prior
    /// `1/|V_new|`. Cheap, and the usual operational choice between
    /// scheduled offline recomputations.
    Frozen,
    /// Recompute PageRank on the mutated graph (Eq. (5) of the paper).
    Recompute,
}

/// A mutation rejected by [`GraphDelta`] validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint is neither a base node nor a node added by this
    /// delta.
    UnknownNode(NodeId),
    /// The type id was never interned (by the base graph or this delta).
    UnknownType(TypeId),
    /// The attribute id was never interned (by the base graph or this
    /// delta).
    UnknownAttr(AttrId),
    /// `remove_edge` named an edge the base graph does not contain (or
    /// named the same edge twice).
    EdgeNotFound {
        /// Source of the missing edge.
        source: NodeId,
        /// Attribute of the missing edge.
        attr: AttrId,
        /// Target of the missing edge.
        target: NodeId,
    },
    /// `add_edge` named an edge that already exists (in the base graph and
    /// not removed by this delta, or added twice by this delta). The graph
    /// stores at most one edge per `(source, attr, target)` triple.
    DuplicateEdge {
        /// Source of the duplicate edge.
        source: NodeId,
        /// Attribute of the duplicate edge.
        attr: AttrId,
        /// Target of the duplicate edge.
        target: NodeId,
    },
    /// The delta was applied to a different graph than it was created
    /// against (e.g. another ingest landed in between). Rebuild the delta
    /// from the current graph and retry.
    BaseMismatch {
        /// Node count the delta was created against.
        expected_nodes: usize,
        /// Node count of the graph it was applied to.
        actual_nodes: usize,
    },
    /// The delta's type or attribute table does not extend the graph's:
    /// it was created before another ingest added schema (applying it
    /// would un-add those types/attributes). Rebuild the delta from the
    /// current graph and retry.
    SchemaMismatch,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownNode(v) => write!(f, "unknown node id {}", v.0),
            DeltaError::UnknownType(t) => write!(f, "unknown type id {}", t.0),
            DeltaError::UnknownAttr(a) => write!(f, "unknown attribute id {}", a.0),
            DeltaError::EdgeNotFound {
                source,
                attr,
                target,
            } => write!(
                f,
                "edge ({} -{}-> {}) not present in the base graph",
                source.0, attr.0, target.0
            ),
            DeltaError::DuplicateEdge {
                source,
                attr,
                target,
            } => write!(
                f,
                "edge ({} -{}-> {}) already exists",
                source.0, attr.0, target.0
            ),
            DeltaError::BaseMismatch {
                expected_nodes,
                actual_nodes,
            } => write!(
                f,
                "delta built against a {expected_nodes}-node graph applied to a \
                 {actual_nodes}-node graph; rebuild the delta and retry"
            ),
            DeltaError::SchemaMismatch => write!(
                f,
                "delta's type/attribute tables do not extend the graph's; \
                 rebuild the delta and retry"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A validated batch of mutations against one base [`KnowledgeGraph`].
///
/// Build it with the same vocabulary of operations as
/// [`crate::GraphBuilder`] (types, attributes, nodes, entity edges,
/// plain-text edges) plus [`GraphDelta::remove_edge`], then freeze with
/// [`GraphDelta::apply`].
///
/// ```
/// use patternkb_graph::{GraphBuilder, mutate::{GraphDelta, PagerankMode}};
///
/// let mut b = GraphBuilder::new();
/// let company = b.add_type("Company");
/// let founded = b.add_attr("Founded");
/// let ms = b.add_node(company, "Microsoft");
/// let base = b.build();
///
/// let mut delta = GraphDelta::new(&base);
/// let oracle = delta.add_node(company, "Oracle Corp").unwrap();
/// delta.add_text_edge(oracle, founded, "1977").unwrap();
/// let g2 = delta.apply(&base, PagerankMode::Recompute).unwrap();
/// assert_eq!(g2.num_nodes(), base.num_nodes() + 2); // Oracle + text node
/// assert_eq!(g2.node_text(ms), "Microsoft");        // ids preserved
/// ```
#[derive(Clone)]
pub struct GraphDelta {
    base_nodes: usize,
    /// The base graph's interner itself, until `add_type` interns a new
    /// type into a private copy.
    types: Arc<Interner<TypeId>>,
    /// The base graph's interner itself, until `add_attr` interns a new
    /// attribute into a private copy.
    attrs: Arc<Interner<AttrId>>,
    new_nodes: Vec<(TypeId, Box<str>)>,
    added: Vec<Triple>,
    removed: Vec<Triple>,
    /// Delta-local dedup of plain-text value nodes (mirrors the builder).
    text_nodes: FxHashMap<Box<str>, NodeId>,
}

impl std::fmt::Debug for GraphDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GraphDelta {{ base_nodes: {}, new_nodes: {}, added: {}, removed: {} }}",
            self.base_nodes,
            self.new_nodes.len(),
            self.added.len(),
            self.removed.len()
        )
    }
}

impl GraphDelta {
    /// An empty delta against `base`.
    pub fn new(base: &KnowledgeGraph) -> Self {
        GraphDelta {
            base_nodes: base.num_nodes(),
            types: Arc::clone(&base.types),
            attrs: Arc::clone(&base.attrs),
            new_nodes: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
            text_nodes: FxHashMap::default(),
        }
    }

    /// Total nodes after this delta (base plus additions).
    #[inline]
    fn total_nodes(&self) -> usize {
        self.base_nodes + self.new_nodes.len()
    }

    /// Intern a (possibly new) entity type.
    pub fn add_type(&mut self, text: &str) -> TypeId {
        intern_shared(&mut self.types, text)
    }

    /// Intern a (possibly new) attribute type.
    pub fn add_attr(&mut self, text: &str) -> AttrId {
        intern_shared(&mut self.attrs, text)
    }

    /// Add a new entity; its id continues the base graph's id space.
    pub fn add_node(&mut self, t: TypeId, text: &str) -> Result<NodeId, DeltaError> {
        if t.index() >= self.types.len() {
            return Err(DeltaError::UnknownType(t));
        }
        let id = NodeId::from_usize(self.total_nodes());
        self.new_nodes.push((t, text.into()));
        Ok(id)
    }

    /// Add an attribute edge between two (base or new) entities.
    ///
    /// Duplicate detection against the base graph happens at
    /// [`GraphDelta::apply`] time; id-range validation happens here.
    pub fn add_edge(
        &mut self,
        source: NodeId,
        attr: AttrId,
        target: NodeId,
    ) -> Result<(), DeltaError> {
        self.check_node(source)?;
        self.check_node(target)?;
        if attr.index() >= self.attrs.len() {
            return Err(DeltaError::UnknownAttr(attr));
        }
        self.added.push((source, attr, target));
        Ok(())
    }

    /// Add an attribute whose value is plain text: creates (or reuses, for
    /// identical text added through this delta) a dummy
    /// [`KnowledgeGraph::TEXT_TYPE`] entity and links to it.
    pub fn add_text_edge(
        &mut self,
        source: NodeId,
        attr: AttrId,
        value: &str,
    ) -> Result<NodeId, DeltaError> {
        let node = if let Some(&v) = self.text_nodes.get(value) {
            v
        } else {
            let v = self.add_node(KnowledgeGraph::TEXT_TYPE, value)?;
            self.text_nodes.insert(value.into(), v);
            v
        };
        self.add_edge(source, attr, node)?;
        Ok(node)
    }

    /// Remove an existing base-graph edge. Existence is checked at
    /// [`GraphDelta::apply`] time.
    pub fn remove_edge(
        &mut self,
        source: NodeId,
        attr: AttrId,
        target: NodeId,
    ) -> Result<(), DeltaError> {
        self.check_node(source)?;
        self.check_node(target)?;
        if attr.index() >= self.attrs.len() {
            return Err(DeltaError::UnknownAttr(attr));
        }
        self.removed.push((source, attr, target));
        Ok(())
    }

    fn check_node(&self, v: NodeId) -> Result<(), DeltaError> {
        if v.index() >= self.total_nodes() {
            return Err(DeltaError::UnknownNode(v));
        }
        Ok(())
    }

    /// Whether the delta contains no mutations.
    pub fn is_empty(&self) -> bool {
        self.new_nodes.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of entities added.
    pub fn num_new_nodes(&self) -> usize {
        self.new_nodes.len()
    }

    /// Number of edges added.
    pub fn num_added_edges(&self) -> usize {
        self.added.len()
    }

    /// Number of edges removed.
    pub fn num_removed_edges(&self) -> usize {
        self.removed.len()
    }

    /// The edges this delta adds, in insertion order.
    pub fn added_edges(&self) -> &[(NodeId, AttrId, NodeId)] {
        &self.added
    }

    /// The base-graph edges this delta removes, in insertion order.
    pub fn removed_edges(&self) -> &[(NodeId, AttrId, NodeId)] {
        &self.removed
    }

    /// Whether this delta interned a type or attribute `base` does not
    /// have. Schema text is tokenized *before* node text, so such a delta
    /// can shift the word ids of a text index rebuilt on the new graph; a
    /// delta without one only appends.
    pub fn adds_schema(&self, base: &KnowledgeGraph) -> bool {
        self.types.len() > base.num_types() || self.attrs.len() > base.num_attrs()
    }

    /// The nodes whose `d`-bounded path neighbourhood may have changed:
    /// endpoints of every added/removed edge plus every new node. Sorted
    /// and deduplicated.
    ///
    /// A root's set of index paths can only change if the root reaches one
    /// of these nodes within `d − 1` hops (every changed path contains a
    /// changed edge or a new node), which is exactly the seed set the
    /// incremental index refresh expands backwards.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        let mut dirty: Vec<NodeId> =
            Vec::with_capacity(2 * (self.added.len() + self.removed.len()) + self.new_nodes.len());
        for &(s, _, t) in self.added.iter().chain(self.removed.iter()) {
            dirty.push(s);
            dirty.push(t);
        }
        for i in 0..self.new_nodes.len() {
            dirty.push(NodeId::from_usize(self.base_nodes + i));
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Number of base-graph nodes this delta was created against.
    pub fn num_base_nodes(&self) -> usize {
        self.base_nodes
    }

    /// Serialize the delta to a self-contained byte buffer.
    ///
    /// The encoding is the write-ahead-log payload format: little-endian,
    /// length-prefixed, with the full type/attribute interners inlined so
    /// a decoded delta replays against a reloaded base graph with ids
    /// meaning exactly what they meant at append time.
    ///
    /// ```text
    /// magic "PKBD" | u32 version | u32 base_nodes |
    /// u32 ntypes | ntypes × str | u32 nattrs | nattrs × str |
    /// u32 nnew | nnew × (u32 type, str text) |
    /// u32 nadd | nadd × (u32 src, u32 attr, u32 dst) |
    /// u32 nrem | nrem × (u32 src, u32 attr, u32 dst)
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(DELTA_MAGIC);
        buf.put_u32_le(DELTA_VERSION);
        buf.put_u32_le(self.base_nodes as u32);
        let put_str = |buf: &mut BytesMut, s: &str| {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        };
        buf.put_u32_le(self.types.len() as u32);
        for (_, s) in self.types.iter() {
            put_str(&mut buf, s);
        }
        buf.put_u32_le(self.attrs.len() as u32);
        for (_, s) in self.attrs.iter() {
            put_str(&mut buf, s);
        }
        buf.put_u32_le(self.new_nodes.len() as u32);
        for (t, text) in &self.new_nodes {
            buf.put_u32_le(t.as_u32());
            put_str(&mut buf, text);
        }
        for list in [&self.added, &self.removed] {
            buf.put_u32_le(list.len() as u32);
            for &(s, a, t) in list {
                buf.put_u32_le(s.as_u32());
                buf.put_u32_le(a.as_u32());
                buf.put_u32_le(t.as_u32());
            }
        }
        buf.to_vec()
    }

    /// Deserialize a delta previously produced by [`GraphDelta::encode`],
    /// re-validating every id against the decoded interners and node
    /// count (a corrupt buffer fails with a positioned [`SnapshotError`],
    /// never a panic at apply time).
    pub fn decode(data: &[u8]) -> Result<GraphDelta, SnapshotError> {
        let mut r = Reader::new(data);
        let mut magic = [0u8; 4];
        r.take(&mut magic)?;
        if &magic != DELTA_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != DELTA_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let base_nodes = r.u32()? as usize;

        let mut types: Interner<TypeId> = Interner::new();
        let ntypes = r.u32()? as usize;
        for expected in 0..ntypes {
            let text = r.str()?;
            // Interners are sets: a duplicate string would silently remap
            // every later id, so reject it as corruption.
            if types.get_or_intern(&text).index() != expected {
                return Err(r.bad_reference());
            }
        }
        let mut attrs: Interner<AttrId> = Interner::new();
        let nattrs = r.u32()? as usize;
        for expected in 0..nattrs {
            let text = r.str()?;
            if attrs.get_or_intern(&text).index() != expected {
                return Err(r.bad_reference());
            }
        }

        let nnew = r.count(4 + 4)?; // type id + text length prefix
        let mut new_nodes: Vec<(TypeId, Box<str>)> = Vec::with_capacity(nnew);
        let mut text_nodes: FxHashMap<Box<str>, NodeId> = FxHashMap::default();
        for i in 0..nnew {
            let t = r.u32()? as usize;
            let text = r.str()?;
            if t >= ntypes {
                return Err(r.bad_reference());
            }
            let tid = TypeId::from_usize(t);
            if tid == KnowledgeGraph::TEXT_TYPE {
                // Rebuild the delta-local text dedup map (first id wins,
                // mirroring `add_text_edge`).
                text_nodes
                    .entry(text.as_str().into())
                    .or_insert_with(|| NodeId::from_usize(base_nodes + i));
            }
            new_nodes.push((tid, text.into()));
        }

        let total = base_nodes + nnew;
        let edge_list = |r: &mut Reader| -> Result<Vec<(NodeId, AttrId, NodeId)>, SnapshotError> {
            let n = r.count(12)?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let s = r.u32()? as usize;
                let a = r.u32()? as usize;
                let t = r.u32()? as usize;
                if s >= total || t >= total || a >= nattrs {
                    return Err(r.bad_reference());
                }
                list.push((
                    NodeId::from_usize(s),
                    AttrId::from_usize(a),
                    NodeId::from_usize(t),
                ));
            }
            Ok(list)
        };
        let added = edge_list(&mut r)?;
        let removed = edge_list(&mut r)?;

        Ok(GraphDelta {
            base_nodes,
            types: Arc::new(types),
            attrs: Arc::new(attrs),
            new_nodes,
            added,
            removed,
            text_nodes,
        })
    }

    /// Validate the batch against `base` and produce the next graph
    /// version.
    ///
    /// All base node/type/attribute ids keep their meaning; new nodes get
    /// the next ids. Fails without side effects on the first invalid
    /// operation (an edge removal that names a missing edge, or an edge
    /// addition that duplicates a surviving edge), and on a delta whose
    /// node count or schema tables no longer line up with `base`.
    ///
    /// The result copies the chunks holding an endpoint of an added or
    /// removed edge plus the tail chunk the new nodes land in, and shares
    /// every other chunk — and the interners, unless the delta adds schema
    /// — with `base` ([`KnowledgeGraph::chunks_shared_with`] counts them).
    /// [`PagerankMode::Recompute`] rewrites every chunk's scores and is
    /// O(graph) by nature.
    pub fn apply(
        &self,
        base: &KnowledgeGraph,
        mode: PagerankMode,
    ) -> Result<KnowledgeGraph, DeltaError> {
        if base.num_nodes() != self.base_nodes {
            return Err(DeltaError::BaseMismatch {
                expected_nodes: self.base_nodes,
                actual_nodes: base.num_nodes(),
            });
        }
        let types = extending(&base.types, &self.types).ok_or(DeltaError::SchemaMismatch)?;
        let attrs = extending(&base.attrs, &self.attrs).ok_or(DeltaError::SchemaMismatch)?;

        // The graph stores at most one edge per triple, so a second removal
        // of the same triple is an error.
        let mut removed: FxHashSet<Triple> = set_with_capacity(self.removed.len());
        for &(s, a, t) in &self.removed {
            if !base.has_edge(s, a, t) || !removed.insert((s, a, t)) {
                return Err(DeltaError::EdgeNotFound {
                    source: s,
                    attr: a,
                    target: t,
                });
            }
        }
        // Additions must not duplicate a surviving base edge or each other.
        let mut added: FxHashSet<Triple> = set_with_capacity(self.added.len());
        for &(s, a, t) in &self.added {
            let survives_in_base = base.has_edge(s, a, t) && !removed.contains(&(s, a, t));
            if survives_in_base || !added.insert((s, a, t)) {
                return Err(DeltaError::DuplicateEdge {
                    source: s,
                    attr: a,
                    target: t,
                });
            }
        }

        let n2 = self.total_nodes();
        let prior = if n2 > 0 { 1.0 / n2 as f64 } else { 0.0 };
        let mut g = base.patched(
            types,
            attrs,
            &self.new_nodes,
            &self.added,
            &self.removed,
            prior,
        );
        if mode == PagerankMode::Recompute {
            let pr = crate::pagerank::compute(&g, &crate::pagerank::PageRankConfig::default());
            g.set_pagerank(pr);
        }
        Ok(g)
    }
}

/// Intern `text`, copying the interner first only if the text is new and
/// the interner is still the one shared with the base graph.
fn intern_shared<I: Id>(interner: &mut Arc<Interner<I>>, text: &str) -> I {
    match interner.get(text) {
        Some(id) => id,
        None => Arc::make_mut(interner).get_or_intern(text),
    }
}

/// The interner a graph gets from applying a delta that carries `delta`
/// to a graph that carries `base`: `None` unless `delta` extends `base`
/// (same texts at the same ids, possibly more after them), and `base`
/// itself when it adds nothing, so versions keep sharing it.
fn extending<I: Id>(base: &Arc<Interner<I>>, delta: &Arc<Interner<I>>) -> Option<Arc<Interner<I>>> {
    if Arc::ptr_eq(base, delta) {
        return Some(Arc::clone(base));
    }
    let is_prefix =
        base.len() <= delta.len() && base.iter().zip(delta.iter()).all(|(b, d)| b.1 == d.1);
    is_prefix.then(|| {
        Arc::clone(if base.len() == delta.len() {
            base
        } else {
            delta
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn base() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let soft = b.add_type("Software");
        let comp = b.add_type("Company");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let sql = b.add_node(soft, "SQL Server");
        let ms = b.add_node(comp, "Microsoft");
        b.add_edge(sql, dev, ms);
        b.add_text_edge(ms, rev, "US$ 77 billion");
        b.build()
    }

    #[test]
    fn add_node_and_edge_preserves_base() {
        let g = base();
        let comp = g.type_by_text("Company").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        let soft = d.add_type("Software");
        let ora_db = d.add_node(soft, "Oracle DB").unwrap();
        let ora = d.add_node(comp, "Oracle Corp").unwrap();
        d.add_edge(ora_db, dev, ora).unwrap();
        let g2 = d.apply(&g, PagerankMode::Recompute).unwrap();

        assert_eq!(g2.num_nodes(), g.num_nodes() + 2);
        assert_eq!(g2.num_edges(), g.num_edges() + 1);
        for v in g.nodes() {
            assert_eq!(g2.node_text(v), g.node_text(v));
            assert_eq!(g2.node_type(v), g.node_type(v));
        }
        let out: Vec<_> = g2.out_edges(ora_db).collect();
        assert_eq!(out, vec![(dev, ora)]);
    }

    #[test]
    fn remove_edge_works() {
        let g = base();
        let sql = NodeId(0);
        let ms = NodeId(1);
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        d.remove_edge(sql, dev, ms).unwrap();
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges() - 1);
        assert_eq!(g2.out_degree(sql), g.out_degree(sql) - 1);
        assert!(!g2.has_edge(sql, dev, ms));
    }

    #[test]
    fn remove_missing_edge_rejected() {
        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        // Reversed direction: not present.
        d.remove_edge(NodeId(1), dev, NodeId(0)).unwrap();
        let err = d.apply(&g, PagerankMode::Frozen).unwrap_err();
        assert!(matches!(err, DeltaError::EdgeNotFound { .. }));
    }

    #[test]
    fn double_remove_rejected() {
        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();
        assert!(matches!(
            d.apply(&g, PagerankMode::Frozen),
            Err(DeltaError::EdgeNotFound { .. })
        ));
    }

    #[test]
    fn duplicate_add_rejected() {
        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        d.add_edge(NodeId(0), dev, NodeId(1)).unwrap();
        assert!(matches!(
            d.apply(&g, PagerankMode::Frozen),
            Err(DeltaError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn remove_then_readd_is_noop() {
        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();
        d.add_edge(NodeId(0), dev, NodeId(1)).unwrap();
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(g2.has_edge(NodeId(0), dev, NodeId(1)));
    }

    #[test]
    fn out_of_range_ids_rejected_eagerly() {
        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        assert_eq!(
            d.add_edge(NodeId(99), dev, NodeId(0)),
            Err(DeltaError::UnknownNode(NodeId(99)))
        );
        assert_eq!(
            d.add_edge(NodeId(0), AttrId(99), NodeId(1)),
            Err(DeltaError::UnknownAttr(AttrId(99)))
        );
        assert_eq!(
            d.add_node(TypeId(99), "x"),
            Err(DeltaError::UnknownType(TypeId(99)))
        );
    }

    #[test]
    fn dirty_nodes_cover_all_touched() {
        let g = base();
        let comp = g.type_by_text("Company").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        let ora = d.add_node(comp, "Oracle Corp").unwrap();
        d.add_edge(NodeId(0), dev, ora).unwrap();
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();
        let dirty = d.dirty_nodes();
        assert_eq!(dirty, vec![NodeId(0), NodeId(1), ora]);
    }

    #[test]
    fn frozen_pagerank_extends_with_uniform_prior() {
        let g = base();
        let comp = g.type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(&g);
        let ora = d.add_node(comp, "Oracle Corp").unwrap();
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        for v in g.nodes() {
            assert_eq!(g2.pagerank(v), g.pagerank(v));
        }
        assert!((g2.pagerank(ora) - 1.0 / g2.num_nodes() as f64).abs() < 1e-15);
    }

    #[test]
    fn recompute_matches_fresh_build() {
        // Applying a delta and building the same graph from scratch must
        // produce identical adjacency and PageRank.
        let g = base();
        let comp = g.type_by_text("Company").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(&g);
        let ora = d.add_node(comp, "Oracle Corp").unwrap();
        let soft = d.add_type("Software");
        let odb = d.add_node(soft, "Oracle DB").unwrap();
        d.add_edge(odb, dev, ora).unwrap();
        d.add_text_edge(ora, rev, "US$ 37 billion").unwrap();
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();
        let g2 = d.apply(&g, PagerankMode::Recompute).unwrap();

        let mut b = GraphBuilder::new();
        let soft_b = b.add_type("Software");
        let comp_b = b.add_type("Company");
        let dev_b = b.add_attr("Developer");
        let rev_b = b.add_attr("Revenue");
        let sql_b = b.add_node(soft_b, "SQL Server");
        let ms_b = b.add_node(comp_b, "Microsoft");
        b.add_text_edge(ms_b, rev_b, "US$ 77 billion");
        let ora_b = b.add_node(comp_b, "Oracle Corp");
        let odb_b = b.add_node(soft_b, "Oracle DB");
        b.add_edge(odb_b, dev_b, ora_b);
        b.add_text_edge(ora_b, rev_b, "US$ 37 billion");
        let _ = sql_b;
        let fresh = b.build();

        assert_eq!(g2.num_nodes(), fresh.num_nodes());
        assert_eq!(g2.num_edges(), fresh.num_edges());
        // Node ids may differ between the two constructions (the delta
        // appends, the fresh build interleaves), so compare edge multisets
        // by text.
        let canon = |g: &KnowledgeGraph| {
            let mut v: Vec<(String, String, String)> = g
                .edges()
                .map(|e| {
                    (
                        g.node_text(e.source).to_string(),
                        g.attr_text(e.attr).to_string(),
                        g.node_text(e.target).to_string(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&g2), canon(&fresh));
        // PageRank of matching nodes agrees.
        let pr_by_text = |g: &KnowledgeGraph| {
            let mut v: Vec<(String, u64)> = g
                .nodes()
                .map(|n| (g.node_text(n).to_string(), g.pagerank(n).to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(pr_by_text(&g2), pr_by_text(&fresh));
    }

    #[test]
    fn empty_delta_roundtrips() {
        let g = base();
        let d = GraphDelta::new(&g);
        assert!(d.is_empty());
        assert!(d.dirty_nodes().is_empty());
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn text_edge_dedup_within_delta() {
        let g = base();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(&g);
        let a = d.add_text_edge(NodeId(0), rev, "same text").unwrap();
        let b = d.add_text_edge(NodeId(1), rev, "same text").unwrap();
        assert_eq!(a, b);
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes() + 1);
        assert!(g2.is_text_node(a));
    }

    #[test]
    fn stale_delta_cannot_drop_schema() {
        // A adds schema but no node, B is built on the same base: the node
        // counts still line up after A, so only the schema check stands
        // between B and un-adding A's type and attribute.
        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut a = GraphDelta::new(&g);
        a.add_type("Research Lab");
        a.add_attr("Sponsor");
        let mut b = GraphDelta::new(&g);
        b.add_edge(NodeId(1), dev, NodeId(0)).unwrap();

        let g1 = a.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(g1.num_types(), g.num_types() + 1);
        assert_eq!(g1.num_attrs(), g.num_attrs() + 1);
        assert_eq!(
            b.apply(&g1, PagerankMode::Frozen).unwrap_err(),
            DeltaError::SchemaMismatch
        );
        let decoded = GraphDelta::decode(&b.encode()).unwrap();
        assert_eq!(
            decoded.apply(&g1, PagerankMode::Frozen).unwrap_err(),
            DeltaError::SchemaMismatch
        );

        // Rebuilt on the current graph it applies, and the schema stays.
        let mut b = GraphDelta::new(&g1);
        b.add_edge(NodeId(1), dev, NodeId(0)).unwrap();
        let g2 = b.apply(&g1, PagerankMode::Frozen).unwrap();
        assert_eq!(
            g2.type_by_text("Research Lab"),
            g1.type_by_text("Research Lab")
        );
        assert_eq!(g2.attr_by_text("Sponsor"), g1.attr_by_text("Sponsor"));
        assert_eq!(
            (g2.num_types(), g2.num_attrs()),
            (g1.num_types(), g1.num_attrs())
        );
    }

    #[test]
    fn interners_are_shared_unless_the_delta_adds_schema() {
        let g = base();
        let comp = g.type_by_text("Company").unwrap();
        let mut d = GraphDelta::new(&g);
        // Re-interning known text does not fork the tables.
        assert_eq!(d.add_type("Company"), comp);
        d.add_node(comp, "Oracle Corp").unwrap();
        let g1 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert!(Arc::ptr_eq(&g1.types, &g.types) && Arc::ptr_eq(&g1.attrs, &g.attrs));
        // A decoded delta carries its own copy of the tables; the graph
        // keeps the base's when they say the same.
        let replayed = GraphDelta::decode(&d.encode()).unwrap();
        let g1 = replayed.apply(&g, PagerankMode::Frozen).unwrap();
        assert!(Arc::ptr_eq(&g1.types, &g.types) && Arc::ptr_eq(&g1.attrs, &g.attrs));

        let mut d = GraphDelta::new(&g);
        d.add_attr("Sponsor");
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert!(Arc::ptr_eq(&g2.types, &g.types));
        assert!(!Arc::ptr_eq(&g2.attrs, &g.attrs));
        assert_eq!(g.attr_by_text("Sponsor"), None, "the base is untouched");
    }

    #[test]
    fn apply_copies_the_chunks_it_touches_and_shares_the_rest() {
        use crate::graph::CHUNK;
        let mut b = GraphBuilder::new();
        let ty = b.add_type("Thing");
        let rel = b.add_attr("related to");
        let nodes: Vec<_> = (0..4 * CHUNK - 5)
            .map(|i| b.add_node(ty, &format!("entity number {i}")))
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], rel, w[1]);
        }
        let g = b.build();
        assert_eq!(g.chunks_shared_with(&g), (4, 4));

        // An edge from chunk 0 to chunk 2, and a node for the tail chunk.
        let mut d = GraphDelta::new(&g);
        d.add_edge(nodes[3], rel, nodes[2 * CHUNK + 9]).unwrap();
        d.add_node(ty, "a newcomer").unwrap();
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(g2.chunks_shared_with(&g), (1, 4), "only chunk 1 untouched");
        // Removing an edge inside chunk 1 copies chunk 1 alone …
        let mut d = GraphDelta::new(&g2);
        d.remove_edge(nodes[CHUNK + 1], rel, nodes[CHUNK + 2])
            .unwrap();
        let g3 = d.apply(&g2, PagerankMode::Frozen).unwrap();
        assert_eq!(g3.chunks_shared_with(&g2), (3, 4));
        // … and nodes past a full tail open a new chunk without copying.
        let mut d = GraphDelta::new(&g3);
        for i in 0..6 {
            d.add_node(ty, &format!("overflow {i}")).unwrap();
        }
        let g4 = d.apply(&g3, PagerankMode::Frozen).unwrap();
        assert_eq!(g4.num_nodes(), 4 * CHUNK + 2);
        assert_eq!(g4.chunks_shared_with(&g3), (3, 5));
        assert_eq!(
            g4.node_text(NodeId::from_usize(4 * CHUNK + 1)),
            "overflow 5"
        );
        // Recomputing PageRank rewrites every chunk.
        let g5 = GraphDelta::new(&g4)
            .apply(&g4, PagerankMode::Recompute)
            .unwrap();
        assert_eq!(g5.chunks_shared_with(&g4), (0, 5));
    }

    #[test]
    fn codec_roundtrip_applies_identically() {
        let g = base();
        let comp = g.type_by_text("Company").unwrap();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        let ora = d.add_node(comp, "Oracle Corp").unwrap();
        let rev = d.add_attr("Revenue");
        d.add_edge(NodeId(0), dev, ora).unwrap();
        d.add_text_edge(ora, rev, "US$ 37 billion").unwrap();
        d.remove_edge(NodeId(0), dev, NodeId(1)).unwrap();

        let bytes = d.encode();
        let d2 = GraphDelta::decode(&bytes).expect("decode");
        assert_eq!(d2.encode(), bytes, "re-encode is byte-identical");
        assert_eq!(d2.num_base_nodes(), d.num_base_nodes());
        assert_eq!(d2.dirty_nodes(), d.dirty_nodes());

        let a = d.apply(&g, PagerankMode::Frozen).unwrap();
        let b = d2.apply(&g, PagerankMode::Frozen).unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
        for v in a.nodes() {
            assert_eq!(a.node_text(v), b.node_text(v));
            assert_eq!(a.node_type(v), b.node_type(v));
            assert_eq!(a.pagerank(v).to_bits(), b.pagerank(v).to_bits());
        }
    }

    #[test]
    fn codec_rebuilds_text_dedup_map() {
        let g = base();
        let rev = g.attr_by_text("Revenue").unwrap();
        let mut d = GraphDelta::new(&g);
        let v = d.add_text_edge(NodeId(0), rev, "shared value").unwrap();
        let mut d2 = GraphDelta::decode(&d.encode()).unwrap();
        // Adding the same text through the decoded delta reuses the node.
        let v2 = d2.add_text_edge(NodeId(1), rev, "shared value").unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn codec_rejects_garbage_and_bad_ids() {
        assert_eq!(
            GraphDelta::decode(b"xx").unwrap_err(),
            SnapshotError::Truncated { offset: 0 }
        );
        assert_eq!(
            GraphDelta::decode(b"XXXX\x01\x00\x00\x00").unwrap_err(),
            SnapshotError::BadMagic
        );

        let g = base();
        let dev = g.attr_by_text("Developer").unwrap();
        let mut d = GraphDelta::new(&g);
        d.add_edge(NodeId(0), dev, NodeId(1)).unwrap();
        let bytes = d.encode();

        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert_eq!(
            GraphDelta::decode(&bad_version).unwrap_err(),
            SnapshotError::BadVersion(9)
        );

        // Corrupt the added edge's source id (last 12 bytes are the edge,
        // preceded by the removed-list count trailing it).
        let edge_src = bytes.len() - 4 - 12;
        let mut bad_ref = bytes.clone();
        bad_ref[edge_src..edge_src + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            GraphDelta::decode(&bad_ref).unwrap_err(),
            SnapshotError::BadReference { .. }
        ));

        // Any truncation errors out instead of panicking.
        for cut in 0..bytes.len() {
            assert!(GraphDelta::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// One randomly generated mutation (ids are taken modulo the valid
    /// ranges when applied, so every op is well-formed).
    #[derive(Debug, Clone)]
    enum Op {
        AddType(String),
        AddAttr(String),
        AddNode(usize, String),
        AddEdge(usize, usize, usize),
        AddTextEdge(usize, usize, String),
        RemoveEdge(usize),
    }

    fn base() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let ty = b.add_type("Thing");
        let rel = b.add_attr("related to");
        let nodes: Vec<_> = (0..6)
            .map(|i| b.add_node(ty, &format!("entity number {i}")))
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], rel, w[1]);
        }
        b.build()
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            "[a-z]{1,6}".prop_map(Op::AddType),
            "[a-z]{1,6}".prop_map(Op::AddAttr),
            (any::<usize>(), "[a-z ]{1,12}").prop_map(|(t, s)| Op::AddNode(t, s)),
            (any::<usize>(), any::<usize>(), any::<usize>())
                .prop_map(|(s, a, t)| Op::AddEdge(s, a, t)),
            (any::<usize>(), any::<usize>(), "[a-z ]{1,12}")
                .prop_map(|(s, a, v)| Op::AddTextEdge(s, a, v)),
            any::<usize>().prop_map(Op::RemoveEdge),
        ]
    }

    fn build_delta(g: &KnowledgeGraph, ops: &[Op]) -> GraphDelta {
        let base_edges: Vec<_> = g.edges().map(|e| (e.source, e.attr, e.target)).collect();
        let mut d = GraphDelta::new(g);
        for op in ops {
            match op {
                Op::AddType(s) => {
                    d.add_type(s);
                }
                Op::AddAttr(s) => {
                    d.add_attr(s);
                }
                Op::AddNode(t, s) => {
                    let tid = TypeId::from_usize(1 + t % (d.types.len() - 1).max(1));
                    d.add_node(tid, s).ok();
                }
                Op::AddEdge(s, a, t) => {
                    let n = d.total_nodes();
                    d.add_edge(
                        NodeId::from_usize(s % n),
                        AttrId::from_usize(a % d.attrs.len()),
                        NodeId::from_usize(t % n),
                    )
                    .ok();
                }
                Op::AddTextEdge(s, a, v) => {
                    let n = d.total_nodes();
                    d.add_text_edge(
                        NodeId::from_usize(s % n),
                        AttrId::from_usize(a % d.attrs.len()),
                        v,
                    )
                    .ok();
                }
                Op::RemoveEdge(i) => {
                    let (s, a, t) = base_edges[i % base_edges.len()];
                    d.remove_edge(s, a, t).ok();
                }
            }
        }
        d
    }

    /// A `Thing` graph of `n` nodes: a ring, and from every seventh node a
    /// jump half-way round — into another chunk once `n` exceeds one.
    fn sized_base(n: usize) -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let ty = b.add_type("Thing");
        let rel = b.add_attr("related to");
        let far = b.add_attr("far from");
        let nodes: Vec<_> = (0..n)
            .map(|i| b.add_node(ty, &format!("entity number {i}")))
            .collect();
        for i in 0..n {
            b.add_edge(nodes[i], rel, nodes[(i + 1) % n]);
            if i % 7 == 0 {
                b.add_edge(nodes[i], far, nodes[(i + n / 2) % n]);
            }
        }
        b.build()
    }

    fn texts<I: Id>(interner: &Interner<I>) -> Vec<String> {
        interner.iter().map(|(_, s)| s.to_string()).collect()
    }

    /// What a chain of applied deltas should add up to, kept as the plain
    /// lists a `GraphBuilder` rebuild starts from.
    struct Model {
        types: Vec<String>,
        attrs: Vec<String>,
        nodes: Vec<(TypeId, String)>,
        edges: std::collections::BTreeSet<Triple>,
        pagerank: Vec<f64>,
    }

    impl Model {
        fn of(g: &KnowledgeGraph) -> Model {
            Model {
                types: texts(g.types()),
                attrs: texts(g.attrs()),
                nodes: g
                    .nodes()
                    .map(|v| (g.node_type(v), g.node_text(v).to_string()))
                    .collect(),
                edges: g.edges().map(|e| (e.source, e.attr, e.target)).collect(),
                pagerank: g.nodes().map(|v| g.pagerank(v)).collect(),
            }
        }

        fn absorb(&mut self, d: &GraphDelta, mode: PagerankMode) {
            self.types = texts(&d.types);
            self.attrs = texts(&d.attrs);
            self.nodes
                .extend(d.new_nodes.iter().map(|(t, s)| (*t, s.to_string())));
            for e in &d.removed {
                assert!(self.edges.remove(e));
            }
            for e in &d.added {
                assert!(self.edges.insert(*e));
            }
            let n = self.nodes.len();
            self.pagerank.resize(n, 1.0 / n as f64);
            if mode == PagerankMode::Recompute {
                self.pagerank = crate::pagerank::compute(&self.rebuild(), &Default::default());
            }
        }

        fn rebuild(&self) -> KnowledgeGraph {
            let mut b = GraphBuilder::new();
            b.skip_pagerank();
            for t in self.types.iter().skip(1) {
                b.add_type(t);
            }
            for a in &self.attrs {
                b.add_attr(a);
            }
            for (t, text) in &self.nodes {
                b.add_node(*t, text);
            }
            for &(s, a, t) in &self.edges {
                b.add_edge(s, a, t);
            }
            let mut g = b.build();
            g.set_pagerank(self.pagerank.clone());
            g
        }
    }

    /// Equality through every public accessor, PageRank bit for bit.
    fn assert_same_graph(a: &KnowledgeGraph, b: &KnowledgeGraph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(texts(a.types()), texts(b.types()));
        assert_eq!(texts(a.attrs()), texts(b.attrs()));
        assert_eq!(
            (a.num_types(), a.num_attrs()),
            (b.num_types(), b.num_attrs())
        );
        for v in a.nodes() {
            assert_eq!(a.node_type(v), b.node_type(v), "type of {v:?}");
            assert_eq!(a.node_text(v), b.node_text(v), "text of {v:?}");
            assert_eq!(a.is_text_node(v), b.is_text_node(v));
            assert_eq!(
                a.pagerank(v).to_bits(),
                b.pagerank(v).to_bits(),
                "PR of {v:?}"
            );
            let out: Vec<_> = a.out_edges(v).collect();
            assert_eq!(out, b.out_edges(v).collect::<Vec<_>>(), "out-row of {v:?}");
            assert!(
                out.windows(2).all(|w| w[0] < w[1]),
                "out-row of {v:?} sorted"
            );
            let inn: Vec<_> = a.in_edges(v).collect();
            assert_eq!(inn, b.in_edges(v).collect::<Vec<_>>(), "in-row of {v:?}");
            assert!(
                inn.windows(2).all(|w| w[0] < w[1]),
                "in-row of {v:?} sorted"
            );
            assert_eq!((a.out_degree(v), a.in_degree(v)), (out.len(), inn.len()));
            assert_eq!((b.out_degree(v), b.in_degree(v)), (out.len(), inn.len()));
            for (attr, t) in out {
                assert!(a.has_edge(v, attr, t) && b.has_edge(v, attr, t));
                // The mirrored entry exists, and the reversed edge is
                // present in both or in neither.
                assert!(a.in_edges(t).any(|e| e == (attr, v)));
                assert_eq!(a.has_edge(t, attr, v), b.has_edge(t, attr, v));
            }
        }
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_eq!(a.edges().count(), a.num_edges());
        for (t, _) in a.types().iter() {
            assert_eq!(a.nodes_of_type(t), b.nodes_of_type(t));
        }
        assert_eq!(a.heap_bytes(), b.heap_bytes());
        assert_eq!(crate::snapshot::encode(a), crate::snapshot::encode(b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A chain of deltas — additions and removals, across chunk
        /// boundaries, on graphs one node short of, exactly at and one past
        /// a chunk — equals a `GraphBuilder` rebuild after every step, and
        /// never copies a chunk it has no edit in.
        #[test]
        fn chained_apply_equals_rebuild(
            size in prop_oneof![
                Just(6usize),
                Just(crate::graph::CHUNK - 1),
                Just(crate::graph::CHUNK),
                Just(crate::graph::CHUNK + 1),
                Just(2 * crate::graph::CHUNK + 3),
            ],
            steps in proptest::collection::vec(
                (proptest::collection::vec(op_strategy(), 1..12), 0u8..5), 3..6),
        ) {
            let mut g = sized_base(size);
            let mut model = Model::of(&g);
            assert_same_graph(&g, &model.rebuild());
            for (ops, mode) in &steps {
                let mode = if *mode == 0 { PagerankMode::Recompute } else { PagerankMode::Frozen };
                let d = build_delta(&g, ops);
                let next = match d.apply(&g, mode) {
                    Ok(next) => next,
                    // A batch that removes an edge twice or adds one that
                    // exists: rejected whole, nothing to compare.
                    Err(DeltaError::EdgeNotFound { .. } | DeltaError::DuplicateEdge { .. }) => continue,
                    Err(e) => panic!("unexpected rejection: {e}"),
                };
                model.absorb(&d, mode);
                assert_same_graph(&next, &model.rebuild());

                let (shared, total) = next.chunks_shared_with(&g);
                if mode == PagerankMode::Frozen {
                    let mut touched: Vec<usize> =
                        d.dirty_nodes().iter().map(|v| v.index() / crate::graph::CHUNK).collect();
                    touched.dedup();
                    prop_assert!(total - shared <= touched.len(),
                        "{} of {total} chunks copied for edits in {touched:?}", total - shared);
                }
                g = next;
            }
        }
    }

    proptest! {
        /// encode → decode → encode is byte-identical, and when the
        /// original delta applies cleanly the decoded one produces a
        /// bit-identical graph.
        #[test]
        fn codec_roundtrip(ops in proptest::collection::vec(op_strategy(), 0..40)) {
            let g = base();
            let d = build_delta(&g, &ops);
            let bytes = d.encode();
            let d2 = GraphDelta::decode(&bytes).expect("decode");
            prop_assert_eq!(d2.encode(), bytes);
            prop_assert_eq!(d2.num_base_nodes(), d.num_base_nodes());
            prop_assert_eq!(d2.dirty_nodes(), d.dirty_nodes());

            let a = d.apply(&g, PagerankMode::Frozen);
            let b = d2.apply(&g, PagerankMode::Frozen);
            match (a, b) {
                (Ok(ga), Ok(gb)) => {
                    prop_assert_eq!(ga.num_nodes(), gb.num_nodes());
                    let ea: Vec<_> = ga.edges().collect();
                    let eb: Vec<_> = gb.edges().collect();
                    prop_assert_eq!(ea, eb);
                    for v in ga.nodes() {
                        prop_assert_eq!(ga.node_text(v), gb.node_text(v));
                        prop_assert_eq!(ga.node_type(v), gb.node_type(v));
                        prop_assert_eq!(ga.pagerank(v).to_bits(), gb.pagerank(v).to_bits());
                    }
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (a, b) => prop_assert!(false, "apply outcomes diverge: {:?} vs {:?}", a, b),
            }
        }

        /// Decoding any truncated prefix fails with an error (never panics,
        /// never fabricates a delta).
        #[test]
        fn truncated_prefixes_error(ops in proptest::collection::vec(op_strategy(), 1..20),
                                    frac in 0.0f64..1.0) {
            let g = base();
            let bytes = build_delta(&g, &ops).encode();
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(GraphDelta::decode(&bytes[..cut]).is_err());
        }
    }
}
