//! The knowledge graph `G = (V, E, τ, α)` in `Arc`-shared node chunks.
//!
//! Storage layout: node ids are cut into fixed-size chunks of `CHUNK`
//! consecutive ids, and node `v` lives at local index `v & (CHUNK − 1)` of
//! `chunks[v >> CHUNK_SHIFT]` — a shift and an index, no hashing. Every
//! chunk but the last is full. A chunk owns everything about its nodes:
//!
//! * `types[i]` — entity type `τ(v)`;
//! * `text` / `text_offsets` — one string arena holding the free-text
//!   descriptions back to back, `text_offsets[i] .. text_offsets[i+1]`;
//! * `pagerank[i]` — filled in by [`crate::pagerank::compute`];
//! * `out` — the out-edges as `(attr, target)` pairs, row `i` in
//!   `offsets[i] .. offsets[i+1]` (chunk-local offsets), sorted;
//! * `inn` — the mirror image, in-edges as `(attr, source)` pairs, used by
//!   the baseline's backward search and by PageRank.
//!
//! The per-node columns (types, PageRank, all three offset tables) are
//! fixed-size arrays inside the chunk, so reading one is the chunk pointer
//! plus an index; only the text and the two pair arenas, whose sizes vary,
//! are allocations of their own.
//!
//! Chunks are immutable once published and held by [`Arc`], as are the two
//! interners: a graph version produced by [`crate::mutate::GraphDelta::apply`]
//! copies the chunks that contain an endpoint of a changed edge plus the
//! tail chunk that receives new nodes, and shares every other chunk with
//! its base by reference count. [`crate::GraphBuilder::build`] (and through
//! it [`crate::snapshot::decode`]) produce the same representation; there
//! is no other one.
//!
//! Plain-text attribute values are dummy nodes with the reserved
//! [`KnowledgeGraph::TEXT_TYPE`] whose type text is empty, so a keyword can
//! never match "the type of a text node" (the paper omits types for such
//! nodes in Figure 1(d)).

use crate::ids::{AttrId, Id, NodeId, TypeId};
use crate::interner::Interner;
use std::sync::Arc;

const CHUNK_SHIFT: u32 = 10;
/// Nodes per chunk: the unit of sharing between graph versions.
pub(crate) const CHUNK: usize = 1 << CHUNK_SHIFT;

/// A single labeled directed edge `(source) -attr-> (target)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source entity (the entity owning the attribute).
    pub source: NodeId,
    /// Attribute type `α(e)`.
    pub attr: AttrId,
    /// Target entity (the attribute value).
    pub target: NodeId,
}

/// An edge as the builder and the delta carry it: `(source, attr, target)`.
pub(crate) type Triple = (NodeId, AttrId, NodeId);

/// One adjacency entry: `(attr, target)` in an out-row, `(attr, source)`
/// in an in-row.
type Pair = (AttrId, NodeId);

/// A chunk-local offset; a chunk's arenas are addressed in 32 bits.
#[inline]
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a chunk arena outgrew its 32-bit offsets")
}

/// One direction of a chunk's adjacency: row `i` is
/// `pairs[offsets[i] .. offsets[i+1]]`, sorted. The offsets sit inline, one
/// load away from the chunk pointer; those of rows the chunk does not have
/// yet are unset.
#[derive(Clone)]
struct Rows {
    offsets: [u32; CHUNK + 1],
    pairs: Vec<Pair>,
}

impl Rows {
    fn with_capacity(pairs: usize) -> Rows {
        Rows {
            offsets: [0; CHUNK + 1],
            pairs: Vec::with_capacity(pairs),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[Pair] {
        &self.pairs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Close row `i`: everything pushed onto `pairs` since row `i − 1` was
    /// closed belongs to it.
    fn end_row(&mut self, i: usize) {
        self.offsets[i + 1] = offset(self.pairs.len());
    }

    /// The first `len` rows with `del` dropped and `add` merged in. Both
    /// lists are sorted `(node, pair)` edits, all within the chunk starting
    /// at node id `first`; the caller has checked that `del` names present
    /// pairs and `add` absent ones (after the removal).
    fn patched(
        &self,
        first: usize,
        len: usize,
        add: &[(NodeId, Pair)],
        del: &[(NodeId, Pair)],
    ) -> Rows {
        let mut rows = Rows::with_capacity(self.pairs.len() + add.len());
        let (mut add, mut del) = (add, del);
        for i in 0..len {
            let v = NodeId::from_usize(first + i);
            let (row_add, rest) = add.split_at(add.partition_point(|e| e.0 == v));
            add = rest;
            let (row_del, rest) = del.split_at(del.partition_point(|e| e.0 == v));
            del = rest;
            if row_add.is_empty() && row_del.is_empty() {
                rows.pairs.extend_from_slice(self.row(i));
            } else {
                let start = rows.pairs.len();
                let deleted = |p: &Pair| row_del.binary_search_by(|e| e.1.cmp(p)).is_ok();
                rows.pairs
                    .extend(self.row(i).iter().filter(|&p| !deleted(p)));
                rows.pairs.extend(row_add.iter().map(|e| e.1));
                rows.pairs[start..].sort_unstable();
            }
            rows.end_row(i);
        }
        debug_assert!(add.is_empty() && del.is_empty(), "edits outside the chunk");
        rows
    }
}

/// Up to [`CHUNK`] consecutive nodes and everything stored about them. The
/// fixed-width columns are inline arrays, so a read is the chunk pointer
/// plus an index; slots at and past `len` are unset.
#[derive(Clone)]
struct Chunk {
    len: usize,
    types: [TypeId; CHUNK],
    pagerank: [f64; CHUNK],
    text_offsets: [u32; CHUNK + 1],
    text: String,
    out: Rows,
    inn: Rows,
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            len: 0,
            types: [TypeId(0); CHUNK],
            pagerank: [0.0; CHUNK],
            text_offsets: [0; CHUNK + 1],
            text: String::new(),
            out: Rows::with_capacity(0),
            inn: Rows::with_capacity(0),
        }
    }
}

impl Chunk {
    /// Append a node with no edges.
    fn push_node(&mut self, t: TypeId, text: &str, pagerank: f64) {
        let i = self.len;
        self.types[i] = t;
        self.pagerank[i] = pagerank;
        self.text.push_str(text);
        self.text_offsets[i + 1] = offset(self.text.len());
        self.out.end_row(i);
        self.inn.end_row(i);
        self.len += 1;
    }

    /// Resident bytes: the inline columns in full, the arenas as filled.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Chunk>()
            + self.text.len()
            + (self.out.pairs.len() + self.inn.pairs.len()) * std::mem::size_of::<Pair>()
    }
}

/// The immutable knowledge graph. Construct with [`crate::GraphBuilder`].
/// Cloning is cheap: the clone shares every chunk and both interners.
#[derive(Clone)]
pub struct KnowledgeGraph {
    chunks: Vec<Arc<Chunk>>,
    num_nodes: usize,
    num_edges: usize,
    pub(crate) types: Arc<Interner<TypeId>>,
    pub(crate) attrs: Arc<Interner<AttrId>>,
}

impl KnowledgeGraph {
    /// The reserved type id for dummy plain-text entities. Always interned
    /// first by the builder, with empty type text.
    pub const TEXT_TYPE: TypeId = TypeId(0);

    /// Assemble the chunks from the builder's parts: node `v` has type
    /// `node_types[v]` and text `text[text_ends[v-1] .. text_ends[v]]`;
    /// `edges` are sorted by `(source, attr, target)` with no duplicates.
    /// PageRank is left at zero.
    pub(crate) fn from_sorted_edges(
        types: Interner<TypeId>,
        attrs: Interner<AttrId>,
        node_types: &[TypeId],
        text: &str,
        text_ends: &[usize],
        edges: &[Triple],
    ) -> KnowledgeGraph {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges sorted+deduped"
        );
        let n = node_types.len();
        let mut in_degree = vec![0u32; n];
        for &(_, _, t) in edges {
            in_degree[t.index()] += 1;
        }

        let mut chunks: Vec<Chunk> = Vec::with_capacity(n.div_ceil(CHUNK));
        let mut remaining = edges;
        for lo in (0..n).step_by(CHUNK) {
            let hi = (lo + CHUNK).min(n);
            let len = hi - lo;
            let mut chunk = Chunk {
                len,
                ..Chunk::default()
            };
            chunk.types[..len].copy_from_slice(&node_types[lo..hi]);
            let text_start = if lo == 0 { 0 } else { text_ends[lo - 1] };
            chunk.text = text[text_start..text_ends[hi - 1]].to_owned();
            for (i, &end) in text_ends[lo..hi].iter().enumerate() {
                chunk.text_offsets[i + 1] = offset(end - text_start);
            }

            // Out-rows: the edge list is sorted by source, so this chunk's
            // edges are the next run of it.
            let mine = remaining.partition_point(|e| e.0.index() < hi);
            let mut run = &remaining[..mine];
            remaining = &remaining[mine..];
            chunk.out = Rows::with_capacity(mine);
            for i in 0..len {
                let deg = run.iter().take_while(|e| e.0.index() == lo + i).count();
                chunk
                    .out
                    .pairs
                    .extend(run[..deg].iter().map(|&(_, a, t)| (a, t)));
                run = &run[deg..];
                chunk.out.end_row(i);
            }

            // In-rows: sized here, filled by the scatter pass below.
            let mut total = 0usize;
            for (i, &deg) in in_degree[lo..hi].iter().enumerate() {
                total += deg as usize;
                chunk.inn.offsets[i + 1] = offset(total);
            }
            chunk.inn.pairs = vec![(AttrId(0), NodeId(0)); total];
            chunks.push(chunk);
        }
        assert!(remaining.is_empty(), "edge source out of range");

        // Scatter every edge into its target's in-row; `in_degree[t]`
        // counts down the slots of row `t` still free, so a row fills
        // front to back.
        for &(s, a, t) in edges {
            let inn = &mut chunks[t.index() >> CHUNK_SHIFT].inn;
            let free = &mut in_degree[t.index()];
            let pos = inn.offsets[(t.index() & (CHUNK - 1)) + 1] - *free;
            *free -= 1;
            inn.pairs[pos as usize] = (a, s);
        }
        // A row arrives in `(source, attr)` order; sort it to
        // `(attr, source)` where it lies.
        for chunk in &mut chunks {
            let Rows { offsets, pairs } = &mut chunk.inn;
            for w in offsets[..=chunk.len].windows(2) {
                pairs[w[0] as usize..w[1] as usize].sort_unstable();
            }
        }

        KnowledgeGraph {
            chunks: chunks.into_iter().map(Arc::new).collect(),
            num_nodes: n,
            num_edges: edges.len(),
            types: Arc::new(types),
            attrs: Arc::new(attrs),
        }
    }

    /// The next version of this graph: `new_nodes` appended (PageRank
    /// `prior`), `removed` edges dropped, `added` edges inserted, under the
    /// given interners. Copies the chunks those edits land in and shares the
    /// rest with `self`. The caller ([`crate::mutate::GraphDelta::apply`])
    /// has validated every id, removal and addition.
    pub(crate) fn patched(
        &self,
        types: Arc<Interner<TypeId>>,
        attrs: Arc<Interner<AttrId>>,
        new_nodes: &[(TypeId, Box<str>)],
        added: &[Triple],
        removed: &[Triple],
        prior: f64,
    ) -> KnowledgeGraph {
        let mut chunks = self.chunks.clone();
        for (i, (t, text)) in new_nodes.iter().enumerate() {
            if (self.num_nodes + i) & (CHUNK - 1) == 0 {
                chunks.push(Arc::default());
            }
            let tail = chunks.last_mut().expect("a chunk was just ensured");
            Arc::make_mut(tail).push_node(*t, text, prior);
        }

        // Each direction's edits, keyed and sorted by the node whose row
        // they change.
        let edits = |edges: &[Triple], key: fn(Triple) -> (NodeId, Pair)| {
            let mut list: Vec<(NodeId, Pair)> = edges.iter().map(|&e| key(e)).collect();
            list.sort_unstable();
            list
        };
        let out_key = |(s, a, t): Triple| (s, (a, t));
        let in_key = |(s, a, t): Triple| (t, (a, s));
        patch_rows(
            &mut chunks,
            &edits(added, out_key),
            &edits(removed, out_key),
            |c| &mut c.out,
        );
        patch_rows(
            &mut chunks,
            &edits(added, in_key),
            &edits(removed, in_key),
            |c| &mut c.inn,
        );

        KnowledgeGraph {
            chunks,
            num_nodes: self.num_nodes + new_nodes.len(),
            num_edges: self.num_edges + added.len() - removed.len(),
            types,
            attrs,
        }
    }

    /// How many of this graph's chunks are the very allocation `other`
    /// holds at the same position, and how many chunks this graph has:
    /// `(shared, total)`. `total − shared` is what producing `self` from
    /// `other` copied.
    pub fn chunks_shared_with(&self, other: &KnowledgeGraph) -> (usize, usize) {
        let shared = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.chunks.len())
    }

    /// The chunk holding `v` and `v`'s index in it.
    ///
    /// # Panics
    /// If `v` is not a node of this graph (the tail chunk has unset slots
    /// past the last node; they must not be read).
    #[inline]
    fn locate(&self, v: NodeId) -> (&Chunk, usize) {
        let i = v.index();
        assert!(i < self.num_nodes, "node id out of range");
        (&self.chunks[i >> CHUNK_SHIFT], i & (CHUNK - 1))
    }

    /// Number of entities `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of attribute edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of distinct entity types `|C|` (including the text type).
    #[inline]
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of distinct attribute types `|A|`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Entity type `τ(v)`.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> TypeId {
        let (c, i) = self.locate(v);
        c.types[i]
    }

    /// Free-text description of entity `v`.
    #[inline]
    pub fn node_text(&self, v: NodeId) -> &str {
        let (c, i) = self.locate(v);
        &c.text[c.text_offsets[i] as usize..c.text_offsets[i + 1] as usize]
    }

    /// Text of an entity type (`C.text`); empty for [`Self::TEXT_TYPE`].
    #[inline]
    pub fn type_text(&self, t: TypeId) -> &str {
        self.types.resolve(t)
    }

    /// Text of an attribute type (`A.text`).
    #[inline]
    pub fn attr_text(&self, a: AttrId) -> &str {
        self.attrs.resolve(a)
    }

    /// Whether `v` is a dummy plain-text entity.
    #[inline]
    pub fn is_text_node(&self, v: NodeId) -> bool {
        self.node_type(v) == Self::TEXT_TYPE
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Out-edges of `v`, sorted by `(attr, target)`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (AttrId, NodeId)> + '_ {
        let (c, i) = self.locate(v);
        c.out.row(i).iter().copied()
    }

    /// In-edges of `v` as `(attr, source)`, sorted by `(attr, source)`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (AttrId, NodeId)> + '_ {
        let (c, i) = self.locate(v);
        c.inn.row(i).iter().copied()
    }

    /// Whether the edge `(source) -attr-> (target)` exists. O(log deg) —
    /// out-edges are stored sorted by `(attr, target)`.
    pub fn has_edge(&self, source: NodeId, attr: AttrId, target: NodeId) -> bool {
        if source.index() >= self.num_nodes() {
            return false;
        }
        let (c, i) = self.locate(source);
        c.out.row(i).binary_search(&(attr, target)).is_ok()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let (c, i) = self.locate(v);
        c.out.row(i).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let (c, i) = self.locate(v);
        c.inn.row(i).len()
    }

    /// All edges in `(source, attr, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |v| {
            self.out_edges(v).map(move |(attr, target)| Edge {
                source: v,
                attr,
                target,
            })
        })
    }

    /// PageRank score `PR(v)` per Eq. (5). Zero until
    /// [`crate::pagerank::compute`] has been run (the builder runs it by
    /// default).
    #[inline]
    pub fn pagerank(&self, v: NodeId) -> f64 {
        let (c, i) = self.locate(v);
        c.pagerank[i]
    }

    /// Overwrite the PageRank vector (used by [`crate::pagerank`]). Every
    /// chunk still shared with another graph version is copied first.
    ///
    /// # Panics
    /// If `pr.len() != self.num_nodes()`.
    pub fn set_pagerank(&mut self, pr: Vec<f64>) {
        assert_eq!(pr.len(), self.num_nodes(), "pagerank length mismatch");
        for (chunk, scores) in self.chunks.iter_mut().zip(pr.chunks(CHUNK)) {
            Arc::make_mut(chunk).pagerank[..scores.len()].copy_from_slice(scores);
        }
    }

    /// The type interner (shared with snapshot/codegen helpers).
    pub fn types(&self) -> &Interner<TypeId> {
        &self.types
    }

    /// The attribute interner.
    pub fn attrs(&self) -> &Interner<AttrId> {
        &self.attrs
    }

    /// Look up a type by its exact text.
    pub fn type_by_text(&self, text: &str) -> Option<TypeId> {
        self.types.get(text)
    }

    /// Look up an attribute by its exact text.
    pub fn attr_by_text(&self, text: &str) -> Option<AttrId> {
        self.attrs.get(text)
    }

    /// Nodes of a given type, in id order. O(|V|); use sparingly (the search
    /// crate maintains its own type partitions).
    pub fn nodes_of_type(&self, t: TypeId) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.node_type(v) == t).collect()
    }

    /// Approximate resident bytes of the graph (for reporting): every
    /// chunk's arrays, the chunk table, and the interned schema text. A
    /// chunk shared with another version is counted in both.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.heap_bytes()).sum::<usize>()
            + self.chunks.len() * std::mem::size_of::<Arc<Chunk>>()
            + self.types.text_bytes()
            + self.attrs.text_bytes()
    }
}

/// Rebuild one direction's rows (`rows` picks it) in every chunk that an
/// edit of `add` or `del` lands in, copying the chunk first if it is still
/// shared. Both lists are sorted.
fn patch_rows(
    chunks: &mut [Arc<Chunk>],
    mut add: &[(NodeId, Pair)],
    mut del: &[(NodeId, Pair)],
    rows: fn(&mut Chunk) -> &mut Rows,
) {
    let chunk_of = |e: &(NodeId, Pair)| e.0.index() >> CHUNK_SHIFT;
    // The lowest chunk either list still has an edit for.
    while let Some(c) = add
        .first()
        .into_iter()
        .chain(del.first())
        .map(chunk_of)
        .min()
    {
        let (chunk_add, rest) = add.split_at(add.partition_point(|e| chunk_of(e) == c));
        add = rest;
        let (chunk_del, rest) = del.split_at(del.partition_point(|e| chunk_of(e) == c));
        del = rest;
        let chunk = Arc::make_mut(&mut chunks[c]);
        let len = chunk.len;
        let rows = rows(chunk);
        *rows = rows.patched(c << CHUNK_SHIFT, len, chunk_add, chunk_del);
    }
}

impl std::fmt::Debug for KnowledgeGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KnowledgeGraph {{ nodes: {}, edges: {}, types: {}, attrs: {} }}",
            self.num_nodes(),
            self.num_edges(),
            self.num_types(),
            self.num_attrs()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::NodeId;

    fn tiny() -> crate::KnowledgeGraph {
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
    fn basic_accessors() {
        let g = tiny();
        assert_eq!(g.num_nodes(), 3); // 2 entities + 1 text node
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.node_text(NodeId(0)), "SQL Server");
        assert_eq!(g.type_text(g.node_type(NodeId(0))), "Software");
        assert!(g.is_text_node(NodeId(2)));
        assert_eq!(g.node_text(NodeId(2)), "US$ 77 billion");
        assert_eq!(g.type_text(crate::KnowledgeGraph::TEXT_TYPE), "");
    }

    #[test]
    fn forward_and_reverse_adjacency_agree() {
        let g = tiny();
        let fwd: Vec<_> = g.edges().collect();
        let mut rev = Vec::new();
        for v in g.nodes() {
            for (attr, src) in g.in_edges(v) {
                rev.push(crate::graph::Edge {
                    source: src,
                    attr,
                    target: v,
                });
            }
        }
        rev.sort_by_key(|e| (e.source, e.attr, e.target));
        let mut fwd_sorted = fwd.clone();
        fwd_sorted.sort_by_key(|e| (e.source, e.attr, e.target));
        assert_eq!(fwd_sorted, rev);
    }

    #[test]
    fn degrees() {
        let g = tiny();
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.out_degree(NodeId(2)), 0);
        assert_eq!(g.in_degree(NodeId(2)), 1);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn nodes_of_type() {
        let g = tiny();
        let soft = g.type_by_text("Software").unwrap();
        assert_eq!(g.nodes_of_type(soft), vec![NodeId(0)]);
    }

    #[test]
    fn pagerank_present_after_build() {
        let g = tiny();
        let total: f64 = g.nodes().map(|v| g.pagerank(v)).sum();
        assert!(total > 0.0, "builder should compute pagerank");
    }
}
