//! Index size/shape accounting, powering the Figure-6 reproduction (index
//! construction time and size for different height thresholds `d`).

use crate::word_index::PathIndexes;

/// Aggregate statistics of a built [`PathIndexes`].
#[derive(Clone, Debug, PartialEq)]
pub struct IndexStats {
    /// Height threshold the index was built for.
    pub d: usize,
    /// Number of root-range shards.
    pub shards: usize,
    /// Number of indexed canonical words.
    pub words: usize,
    /// Total postings (paths × containing words), i.e. `Σ_p |text(p)|` in
    /// the notation of Theorem 2.
    pub postings: usize,
    /// Distinct path patterns.
    pub patterns: usize,
    /// Approximate resident bytes of all index structures.
    pub heap_bytes: usize,
}

impl IndexStats {
    /// Compute statistics for `idx`.
    pub fn of(idx: &PathIndexes) -> Self {
        IndexStats {
            d: idx.d(),
            shards: idx.num_shards(),
            words: idx.num_words(),
            postings: idx.num_postings(),
            patterns: idx.patterns().len(),
            heap_bytes: idx.heap_bytes(),
        }
    }

    /// Size in mebibytes.
    pub fn megabytes(&self) -> f64 {
        self.heap_bytes as f64 / (1024.0 * 1024.0)
    }
}

impl std::fmt::Display for IndexStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "d={}: {} shard(s), {} words, {} postings, {} patterns, {:.1} MB",
            self.d,
            self.shards,
            self.words,
            self.postings,
            self.patterns,
            self.megabytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_indexes, BuildConfig};
    use patternkb_graph::GraphBuilder;
    use patternkb_text::{SynonymTable, TextIndex};

    fn chain(n: usize) -> (patternkb_graph::KnowledgeGraph, TextIndex) {
        let mut b = GraphBuilder::new();
        let t = b.add_type("Thing");
        let a = b.add_attr("next");
        let nodes: Vec<_> = (0..n)
            .map(|i| b.add_node(t, &format!("item {i}")))
            .collect();
        for i in 0..n - 1 {
            b.add_edge(nodes[i], a, nodes[i + 1]);
        }
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        (g, t)
    }

    #[test]
    fn postings_grow_with_d() {
        let (g, t) = chain(20);
        let s2 = IndexStats::of(&build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 2,
                threads: 1,
                shards: 1,
            },
        ));
        let s3 = IndexStats::of(&build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        ));
        let s4 = IndexStats::of(&build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 4,
                threads: 1,
                shards: 1,
            },
        ));
        assert!(s2.postings < s3.postings);
        assert!(s3.postings < s4.postings);
        assert!(s2.heap_bytes < s4.heap_bytes);
        assert_eq!(s2.d, 2);
        let line = format!("{s2}");
        assert!(line.contains("d=2"));
    }

    #[test]
    fn pattern_count_on_chain() {
        // On a typed chain, patterns are one per path length (node-terminal)
        // plus one per length (edge-terminal).
        let (g, t) = chain(10);
        let idx = build_indexes(
            &g,
            &t,
            &BuildConfig {
                d: 3,
                threads: 1,
                shards: 1,
            },
        );
        let s = IndexStats::of(&idx);
        // node-terminal: (T), (T next T), (T next T next T) = 3
        // edge-terminal: (T next), (T next T next) = 2
        assert_eq!(s.patterns, 5);
    }
}
