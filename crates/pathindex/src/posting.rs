//! A single index posting: one path, for one word, with a reference to
//! its precomputed score terms.

use crate::pattern::PatternId;
use patternkb_graph::{FxHashMap, NodeId};

/// The two precomputed score terms of a posting (paper §3): functions of
/// the matched element alone, so a list stores each distinct pair once
/// and its postings refer to it by index ([`Posting::score`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreTerms {
    /// `PR(f(w))` — PageRank of the matched node, or of the edge's
    /// source node for edge matches (Eq. (5)).
    pub pagerank: f64,
    /// `sim(w, f(w))` — Jaccard of the keyword against the matched
    /// element's text (Eq. (6)).
    pub sim: f64,
}

/// One materialized path ending at a node/edge containing some word.
///
/// The concrete node sequence lives in the owning word index's arena
/// (`nodes_start .. nodes_start + nodes_len`); for edge-terminal paths the
/// arena slice is `v1 … v_l, leaf` — the leaf is the matched edge's target
/// and is included so table answers can show the value column (e.g. the
/// "US$ 77 billion" cell of Figure 3). The path's pattern and root are
/// where the list keeps it, not fields of its own ([`KeyedPosting`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Posting {
    /// Start of the node sequence in the word arena.
    pub nodes_start: u32,
    /// Index of the path's [`ScoreTerms`] in the owning list's score
    /// table ([`crate::WordPathIndex::score_terms`]).
    pub score: u32,
    /// Length of the node sequence (explicit nodes, plus leaf if
    /// edge-terminal). Equals the paper's `|T(w)|` scoring length.
    pub nodes_len: u16,
    /// Whether the word is matched on the final edge.
    pub edge_terminal: bool,
}

const _: () = assert!(std::mem::size_of::<Posting>() == 12);

impl Posting {
    /// The scoring length `|T(w)|` (number of nodes on the path, counting
    /// the implied leaf of an edge match; DESIGN.md §2).
    #[inline]
    pub fn score_len(&self) -> u32 {
        self.nodes_len as u32
    }

    /// Range into the word arena.
    #[inline]
    pub fn node_range(&self) -> std::ops::Range<usize> {
        let s = self.nodes_start as usize;
        s..s + self.nodes_len as usize
    }
}

/// A posting with its `(pattern, root)` key, as a build or a decode
/// produces it. A frozen [`crate::WordPathIndex`] keeps the keys as
/// columns beside its postings, never per posting. Dereferences to the
/// posting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeyedPosting {
    /// Interned path pattern.
    pub pattern: PatternId,
    /// The path's starting node `r`.
    pub root: NodeId,
    /// The path.
    pub posting: Posting,
}

impl std::ops::Deref for KeyedPosting {
    type Target = Posting;

    fn deref(&self) -> &Posting {
        &self.posting
    }
}

/// A score table under construction: each distinct pair once, in order
/// of first interning. Pairs are told apart by their bit patterns.
#[derive(Default)]
pub(crate) struct ScoreTable {
    terms: Vec<ScoreTerms>,
    index: FxHashMap<(u64, u64), u32>,
}

impl ScoreTable {
    /// The index of `t`, appended if new.
    #[inline]
    pub(crate) fn intern(&mut self, t: ScoreTerms) -> u32 {
        let next = self.terms.len() as u32;
        let bits = (t.pagerank.to_bits(), t.sim.to_bits());
        let at = *self.index.entry(bits).or_insert(next);
        if at == next {
            self.terms.push(t);
        }
        at
    }

    pub(crate) fn into_terms(self) -> Vec<ScoreTerms> {
        self.terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges() {
        let p = Posting {
            nodes_start: 10,
            score: 0,
            nodes_len: 3,
            edge_terminal: true,
        };
        assert_eq!(p.node_range(), 10..13);
        assert_eq!(p.score_len(), 3);
    }

    #[test]
    fn a_table_holds_each_pair_once() {
        let pair = |pagerank, sim| ScoreTerms { pagerank, sim };
        let mut table = ScoreTable::default();
        assert_eq!(table.intern(pair(0.5, 1.0)), 0);
        assert_eq!(table.intern(pair(0.25, 1.0)), 1);
        assert_eq!(table.intern(pair(0.5, 1.0)), 0);
        assert_eq!(table.intern(pair(0.25, 1.0)), 1);
        // Bit patterns, not values: -0.0 and 0.0 are two pairs.
        assert_eq!(table.intern(pair(0.0, 1.0)), 2);
        assert_eq!(table.intern(pair(-0.0, 1.0)), 3);
        assert_eq!(table.into_terms().len(), 4);
    }
}
