//! Path patterns and their interning.
//!
//! A path pattern (§2.2.2) is the type signature of a root-to-match path:
//!
//! * node-terminal: `τ(v1) α(e1) τ(v2) … α(e_{l−1}) τ(v_l)`;
//! * edge-terminal: `τ(v1) α(e1) τ(v2) … α(e_l)` — it ends with the matched
//!   attribute type and deliberately omits the leaf's type (the leaf of an
//!   edge match is typically a plain-text dummy entity; cf. Figure 2 where
//!   the "Revenue" arrow points at `*`).
//!
//! Patterns are interned into dense [`PatternId`]s so tree patterns are just
//! small id vectors and pattern equality is id equality.

use patternkb_graph::ids::Id;
use patternkb_graph::{AttrId, FxHashMap, KnowledgeGraph, TypeId};
use std::fmt;

/// Interned id of a [`PathPattern`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct PatternId(pub u32);

impl PatternId {
    /// Raw index into the owning [`PatternSet`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for PatternId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PatternId({})", self.0)
    }
}

/// A decoded path pattern.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathPattern {
    /// Node types `τ(v1) … τ(v_l)` along the path.
    pub types: Vec<TypeId>,
    /// Attribute types; `types.len() - 1` entries for node-terminal
    /// patterns, `types.len()` entries for edge-terminal ones.
    pub attrs: Vec<AttrId>,
    /// Whether the keyword is matched on the final edge.
    pub edge_terminal: bool,
}

/// See [`PathPattern::shown`].
struct Shown<'a> {
    pattern: &'a PathPattern,
    g: &'a KnowledgeGraph,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PathPattern { types, attrs, .. } = self.pattern;
        for (i, &t) in types.iter().enumerate() {
            f.write_str(if i > 0 { " (" } else { "(" })?;
            f.write_str(if t == KnowledgeGraph::TEXT_TYPE {
                "*"
            } else {
                self.g.type_text(t)
            })?;
            f.write_str(")")?;
            if let Some(&a) = attrs.get(i) {
                f.write_str(" (")?;
                f.write_str(self.g.attr_text(a))?;
                f.write_str(")")?;
            }
        }
        Ok(())
    }
}

impl PathPattern {
    /// The root type `τ(v1)` — the first entry of the pattern.
    #[inline]
    pub fn root_type(&self) -> TypeId {
        self.types[0]
    }

    /// Number of explicit nodes `l` on the path.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.types.len()
    }

    /// The paper's pattern length `|pattern(T(w))|` used for the height
    /// bound: explicit nodes, plus the implied leaf of an edge match
    /// (DESIGN.md §2: the only reading consistent with Example 2.4).
    #[inline]
    pub fn height(&self) -> usize {
        self.types.len() + usize::from(self.edge_terminal)
    }

    /// Render like the paper: `(Software) (Developer) (Company) (Revenue)`.
    pub fn display(&self, g: &KnowledgeGraph) -> String {
        self.shown(g).to_string()
    }

    /// [`PathPattern::display`] as a [`fmt::Display`], which writes its
    /// pieces straight to the formatter's sink.
    pub fn shown<'a>(&'a self, g: &'a KnowledgeGraph) -> impl fmt::Display + 'a {
        Shown { pattern: self, g }
    }

    /// Encode into the flat key used by the interner:
    /// `[(l << 1) | edge_terminal, τ1, α1, τ2, α2, …]`.
    pub fn encode(&self) -> Vec<u32> {
        let l = self.types.len();
        let mut key = Vec::with_capacity(1 + l + self.attrs.len());
        key.push(((l as u32) << 1) | u32::from(self.edge_terminal));
        for i in 0..l {
            key.push(self.types[i].as_u32());
            if i + 1 < l {
                key.push(self.attrs[i].as_u32());
            }
        }
        if self.edge_terminal {
            // Edge-terminal: the terminal attr follows the last type.
            debug_assert_eq!(self.attrs.len(), l);
            key.push(self.attrs[l - 1].as_u32());
        }
        key
    }

    /// Decode an interner key back into a pattern.
    pub fn decode(key: &[u32]) -> Self {
        let header = key[0];
        let l = (header >> 1) as usize;
        let edge_terminal = (header & 1) == 1;
        let mut types = Vec::with_capacity(l);
        let mut attrs = Vec::with_capacity(l);
        let mut it = key[1..].iter().copied();
        for i in 0..l {
            types.push(TypeId(it.next().expect("type")));
            if i < l - 1 {
                attrs.push(AttrId(it.next().expect("attr")));
            }
        }
        if edge_terminal {
            // Two trailing attrs were flattened: interleaving stops after
            // the last type, then edge attrs follow.
            attrs.push(AttrId(it.next().expect("terminal attr")));
        }
        debug_assert!(it.next().is_none());
        PathPattern {
            types,
            attrs,
            edge_terminal,
        }
    }
}

/// Append-only pattern interner shared by both path indexes.
#[derive(Clone, Default)]
pub struct PatternSet {
    keys: Vec<Box<[u32]>>,
    lookup: FxHashMap<Box<[u32]>, u32>,
    /// Cached decoded metadata: (root type, height, l).
    meta: Vec<PatternMeta>,
}

#[derive(Clone, Copy, Debug)]
struct PatternMeta {
    root_type: TypeId,
    height: u8,
    num_nodes: u8,
}

impl PatternSet {
    /// Fresh, empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an encoded key (see [`PathPattern::encode`]).
    pub fn intern_key(&mut self, key: &[u32]) -> PatternId {
        if let Some(&id) = self.lookup.get(key) {
            return PatternId(id);
        }
        let id = self.keys.len() as u32;
        let boxed: Box<[u32]> = key.into();
        self.keys.push(boxed.clone());
        self.lookup.insert(boxed, id);
        let l = (key[0] >> 1) as usize;
        let edge_terminal = (key[0] & 1) == 1;
        self.meta.push(PatternMeta {
            root_type: TypeId(key[1]),
            height: (l + usize::from(edge_terminal)) as u8,
            num_nodes: l as u8,
        });
        PatternId(id)
    }

    /// Intern a decoded pattern.
    pub fn intern(&mut self, p: &PathPattern) -> PatternId {
        self.intern_key(&p.encode())
    }

    /// Look up an already-interned key.
    pub fn get_key(&self, key: &[u32]) -> Option<PatternId> {
        self.lookup.get(key).map(|&id| PatternId(id))
    }

    /// Decode pattern `id`.
    pub fn decode(&self, id: PatternId) -> PathPattern {
        PathPattern::decode(&self.keys[id.index()])
    }

    /// The raw encoded key of pattern `id` (used when merging worker-local
    /// pattern sets into the global one).
    pub fn key(&self, id: PatternId) -> &[u32] {
        &self.keys[id.index()]
    }

    /// Root type `τ(v1)` of pattern `id` (cached; O(1)).
    #[inline]
    pub fn root_type(&self, id: PatternId) -> TypeId {
        self.meta[id.index()].root_type
    }

    /// Height `|pattern|` of pattern `id` (cached; O(1)).
    #[inline]
    pub fn height(&self, id: PatternId) -> usize {
        self.meta[id.index()].height as usize
    }

    /// Number of explicit nodes `l` of pattern `id`.
    #[inline]
    pub fn num_nodes(&self, id: PatternId) -> usize {
        self.meta[id.index()].num_nodes as usize
    }

    /// Number of interned patterns.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no patterns have been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Approximate resident bytes.
    pub fn heap_bytes(&self) -> usize {
        self.keys.iter().map(|k| k.len() * 4 + 16).sum::<usize>() * 2
            + self.meta.len() * std::mem::size_of::<PatternMeta>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_node_terminal() -> PathPattern {
        PathPattern {
            types: vec![TypeId(1), TypeId(2), TypeId(3)],
            attrs: vec![AttrId(10), AttrId(11)],
            edge_terminal: false,
        }
    }

    fn sample_edge_terminal() -> PathPattern {
        PathPattern {
            types: vec![TypeId(1), TypeId(2)],
            attrs: vec![AttrId(10), AttrId(11)],
            edge_terminal: true,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for p in [sample_node_terminal(), sample_edge_terminal()] {
            assert_eq!(PathPattern::decode(&p.encode()), p);
        }
    }

    #[test]
    fn heights() {
        assert_eq!(sample_node_terminal().height(), 3);
        // 2 explicit nodes + implied leaf.
        assert_eq!(sample_edge_terminal().height(), 3);
        assert_eq!(sample_edge_terminal().num_nodes(), 2);
    }

    #[test]
    fn interning_dedups() {
        let mut set = PatternSet::new();
        let a = set.intern(&sample_node_terminal());
        let b = set.intern(&sample_edge_terminal());
        let a2 = set.intern(&sample_node_terminal());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(set.len(), 2);
        assert_eq!(set.decode(a), sample_node_terminal());
        assert_eq!(set.decode(b), sample_edge_terminal());
    }

    #[test]
    fn cached_meta_matches_decoded() {
        let mut set = PatternSet::new();
        let a = set.intern(&sample_node_terminal());
        let b = set.intern(&sample_edge_terminal());
        assert_eq!(set.root_type(a), TypeId(1));
        assert_eq!(set.height(a), 3);
        assert_eq!(set.height(b), 3);
        assert_eq!(set.num_nodes(b), 2);
    }

    #[test]
    fn single_node_pattern() {
        // The trivial pattern of a keyword matched at the root itself
        // (e.g. "(Software)" for the word "software" in Example 2.3).
        let p = PathPattern {
            types: vec![TypeId(5)],
            attrs: vec![],
            edge_terminal: false,
        };
        let key = p.encode();
        assert_eq!(key, vec![1 << 1, 5]);
        assert_eq!(PathPattern::decode(&key), p);
        assert_eq!(p.height(), 1);
    }

    #[test]
    fn display_formats_like_paper() {
        let mut b = patternkb_graph::GraphBuilder::new();
        b.skip_pagerank();
        let soft = b.add_type("Software");
        let comp = b.add_type("Company");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let s = b.add_node(soft, "s");
        let c = b.add_node(comp, "c");
        b.add_edge(s, dev, c);
        let g = b.build();
        let p = PathPattern {
            types: vec![soft, comp],
            attrs: vec![dev, rev],
            edge_terminal: true,
        };
        assert_eq!(p.display(&g), "(Software) (Developer) (Company) (Revenue)");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_pattern() -> impl Strategy<Value = PathPattern> {
        (
            1usize..5,
            any::<bool>(),
            proptest::collection::vec(0u32..50, 10),
        )
            .prop_map(|(l, edge_terminal, raw)| {
                let types: Vec<TypeId> = raw[..l].iter().map(|&x| TypeId(x)).collect();
                let nattrs = if edge_terminal { l } else { l - 1 };
                let attrs: Vec<AttrId> = raw[5..5 + nattrs].iter().map(|&x| AttrId(x)).collect();
                PathPattern {
                    types,
                    attrs,
                    edge_terminal,
                }
            })
    }

    proptest! {
        #[test]
        fn roundtrip(p in arb_pattern()) {
            prop_assert_eq!(PathPattern::decode(&p.encode()), p);
        }

        #[test]
        fn interning_is_injective(ps in proptest::collection::vec(arb_pattern(), 1..20)) {
            let mut set = PatternSet::new();
            let ids: Vec<PatternId> = ps.iter().map(|p| set.intern(p)).collect();
            for i in 0..ps.len() {
                prop_assert_eq!(set.decode(ids[i]), ps[i].clone());
                for j in 0..ps.len() {
                    prop_assert_eq!(ids[i] == ids[j], ps[i] == ps[j]);
                }
            }
        }
    }
}
