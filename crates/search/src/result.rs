//! Search results: ranked tree patterns with their aggregated subtrees.
//!
//! A [`RankedPattern`] holds its materialised subtrees as one
//! [`Rows`] store, the rows of its table: each row's paths are a fixed
//! sub-range of one node array, split by the pattern itself
//! ([`crate::subtree::Row::paths`]).

use crate::common::Fanout;
use crate::subtree::Rows;
use patternkb_graph::KnowledgeGraph;
use patternkb_index::PathPattern;
use std::fmt;
use std::time::Duration;

/// One answer: a tree pattern, its relevance score, and (a sample of) the
/// valid subtrees satisfying it — one table row each.
#[derive(Clone, Debug)]
pub struct RankedPattern {
    /// Per-keyword path patterns (Eq. (1)), decoded and self-contained so
    /// results from different algorithms (with different interners) compare
    /// structurally.
    pub pattern: Vec<PathPattern>,
    /// `score(P, q)` under the aggregation in effect.
    pub score: f64,
    /// Total number of valid subtrees `|trees(P)|`.
    pub num_trees: usize,
    /// Materialized subtrees, up to `SearchConfig::max_rows`, in discovery
    /// order (root ascending).
    pub trees: Rows,
}

impl RankedPattern {
    /// Height of the tree pattern — the max path-pattern height (§2.2.2).
    pub fn height(&self) -> usize {
        self.pattern
            .iter()
            .map(PathPattern::height)
            .max()
            .unwrap_or(0)
    }

    /// Paper-style rendering, e.g.
    /// `[(Software) (Genre) (Model) | (Software) | …]`.
    pub fn display(&self, g: &KnowledgeGraph) -> String {
        self.shown(g).to_string()
    }

    /// [`RankedPattern::display`] as a [`fmt::Display`], which writes its
    /// pieces straight to the formatter's sink.
    pub fn shown<'a>(&'a self, g: &'a KnowledgeGraph) -> impl fmt::Display + 'a {
        Shown { pattern: self, g }
    }

    /// A canonical sort/equality key for deterministic ordering and
    /// cross-algorithm comparison.
    pub fn key(&self) -> Vec<u32> {
        let mut key = Vec::new();
        for p in &self.pattern {
            key.extend(p.encode());
        }
        key
    }
}

/// See [`RankedPattern::shown`].
struct Shown<'a> {
    pattern: &'a RankedPattern,
    g: &'a KnowledgeGraph,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, p) in self.pattern.pattern.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            fmt::Display::fmt(&p.shown(self.g), f)?;
        }
        f.write_str("]")
    }
}

/// Per-shard slice of one query execution (how the work split across the
/// index's root-range shards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Index shard id (ascending root ranges).
    pub shard: usize,
    /// Candidate roots that fell in this shard's range.
    pub candidate_roots: usize,
    /// Valid subtrees enumerated by this shard's worker.
    pub subtrees: usize,
    /// Non-empty tree patterns this shard contributed to (before the
    /// cross-shard merge, so the same pattern may count in several shards).
    pub patterns: usize,
}

/// Data-plane counters of one execution: how much intersection and
/// key-allocation work the hot path did. These make the flattened
/// query plane observable — a perf regression shows up here before it
/// shows up in `elapsed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Cursor seeks issued by gallop intersections (candidate roots,
    /// per-combination emptiness tests, the re-join of the winners' rows,
    /// relaxation counts).
    pub intersect_seeks: u64,
    /// Always 0: queries run on decoded postings, never on block-coded
    /// lists. Kept only because the gated benchmark still reads the field.
    pub blocks_decoded: u64,
    /// Always 0: no enumerator abandons a scan part-way. Kept only
    /// because the gated benchmark still reads the field.
    pub blocks_skipped: u64,
    /// Distinct tree-pattern keys interned across all dictionaries — the
    /// number of key-arena allocations (the pre-interner engine paid one
    /// boxed-slice allocation per candidate *access* instead).
    pub keys_interned: u64,
    /// Bytes held by the pattern-key arenas at the end of the search.
    pub key_arena_bytes: u64,
}

impl HotPathStats {
    /// Component-wise sum.
    pub fn add(&mut self, other: &HotPathStats) {
        self.intersect_seeks += other.intersect_seeks;
        self.keys_interned += other.keys_interned;
        self.key_arena_bytes += other.key_arena_bytes;
    }
}

/// Execution counters reported next to the answers (drives the §5 plots).
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Candidate roots considered (`|R|`).
    pub candidate_roots: usize,
    /// Valid subtrees enumerated (`N`, or the sampled subset for
    /// `LINEARENUM-TOPK`).
    pub subtrees: usize,
    /// Non-empty tree patterns discovered.
    pub patterns: usize,
    /// Pattern combinations *tried* — for `PATTERNENUM` this includes the
    /// empty ones it wastes joins on (§4.1's `Θ(p^m)` term).
    pub combos_tried: usize,
    /// Pattern combinations skipped by an admissible score upper bound
    /// before any intersection work (only [`crate::bound`] sets this).
    pub combos_pruned: usize,
    /// How the execution split over the index's root-range shards: one
    /// entry per shard holding all keywords (index-based algorithms) or
    /// one per root-range worker (the index-free baseline, which
    /// partitions its candidate roots by the same bounds). Empty only for
    /// provably-empty queries, which never reach a shard worker.
    pub per_shard: Vec<ShardStats>,
    /// Whether the shard kernels ran inline on the caller's thread or
    /// fanned out over OS threads ([`crate::common::fanout_for`]);
    /// `PATTERNENUM`, pruned or not, always runs inline.
    pub fanout: Fanout,
    /// Hot-path work counters (decode / intersect / alloc).
    pub hot: HotPathStats,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// The outcome of one query execution.
#[derive(Clone, Debug, Default)]
pub struct SearchResult {
    /// Top-k patterns, best first; ties broken by pattern key for
    /// determinism.
    pub patterns: Vec<RankedPattern>,
    /// Execution counters.
    pub stats: QueryStats,
}

impl SearchResult {
    /// Sort patterns by `(score desc, key asc)` and truncate to `k`.
    pub fn finalize(mut self, k: usize) -> Self {
        self.patterns.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.key().cmp(&b.key()))
        });
        self.patterns.truncate(k);
        self
    }

    /// The best pattern, if any.
    pub fn top(&self) -> Option<&RankedPattern> {
        self.patterns.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternkb_graph::TypeId;

    fn pat(score: f64, t: u32) -> RankedPattern {
        RankedPattern {
            pattern: vec![PathPattern {
                types: vec![TypeId(t)],
                attrs: vec![],
                edge_terminal: false,
            }],
            score,
            num_trees: 1,
            trees: Rows::default(),
        }
    }

    #[test]
    fn finalize_sorts_and_truncates() {
        let r = SearchResult {
            patterns: vec![pat(1.0, 5), pat(3.0, 1), pat(2.0, 9)],
            stats: QueryStats::default(),
        };
        let r = r.finalize(2);
        assert_eq!(r.patterns.len(), 2);
        assert_eq!(r.patterns[0].score, 3.0);
        assert_eq!(r.patterns[1].score, 2.0);
        assert_eq!(r.top().unwrap().score, 3.0);
    }

    #[test]
    fn ties_break_deterministically() {
        let r = SearchResult {
            patterns: vec![pat(1.0, 9), pat(1.0, 2)],
            stats: QueryStats::default(),
        }
        .finalize(10);
        assert_eq!(r.patterns[0].pattern[0].types[0], TypeId(2));
    }

    #[test]
    fn height_of_pattern() {
        let p = pat(1.0, 0);
        assert_eq!(p.height(), 1);
    }
}
