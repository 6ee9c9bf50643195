//! Query workload generation (§5: 500 queries, 1–10 keywords, 50 per
//! keyword count).
//!
//! The paper samples Wiki queries from Bing's query log and IMDB queries
//! from IMDB's vocabulary. Neither source is available, so (DESIGN.md §5)
//! [`QueryGenerator::anchored`] picks a random *anchor entity* and draws
//! keywords from the text/types/attributes reachable within `d` hops —
//! guaranteeing the anchor is a candidate root, i.e. the query has
//! answers, like real user queries about an entity do.

use patternkb_graph::{KnowledgeGraph, NodeId, WordId};
use patternkb_text::TextIndex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One generated keyword query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Canonical keyword ids, distinct.
    pub keywords: Vec<WordId>,
    /// The canonical surface strings (for display / parsing round-trips).
    pub surface: Vec<String>,
}

/// Deterministic query sampler over a graph + text index.
pub struct QueryGenerator<'a> {
    g: &'a KnowledgeGraph,
    text: &'a TextIndex,
    rng: SmallRng,
    d: usize,
}

impl<'a> QueryGenerator<'a> {
    /// A generator drawing paths of up to `d` nodes from anchors.
    pub fn new(g: &'a KnowledgeGraph, text: &'a TextIndex, d: usize, seed: u64) -> Self {
        QueryGenerator {
            g,
            text,
            rng: SmallRng::seed_from_u64(seed),
            d,
        }
    }

    /// Sample an `m`-keyword query anchored at a random entity; `None` if no
    /// anchor with enough distinct reachable words is found after a bounded
    /// number of attempts.
    pub fn anchored(&mut self, m: usize) -> Option<QuerySpec> {
        assert!(m >= 1);
        let n = self.g.num_nodes();
        if n == 0 {
            return None;
        }
        'attempt: for _ in 0..64 {
            let anchor = NodeId(self.rng.gen_range(0..n as u32));
            if self.g.is_text_node(anchor) {
                continue;
            }
            let pool = self.word_pool(anchor);
            if pool.len() < m {
                continue 'attempt;
            }
            // Pick m distinct words, biased toward earlier (closer) ones.
            let mut chosen: Vec<WordId> = Vec::with_capacity(m);
            let mut guard = 0;
            while chosen.len() < m && guard < 1000 {
                guard += 1;
                let idx = (self.rng.gen::<f64>().powi(2) * pool.len() as f64) as usize;
                let w = pool[idx.min(pool.len() - 1)];
                if !chosen.contains(&w) {
                    chosen.push(w);
                }
            }
            if chosen.len() < m {
                continue 'attempt;
            }
            let surface = chosen
                .iter()
                .map(|&w| self.text.vocab().resolve(w).to_string())
                .collect();
            return Some(QuerySpec {
                keywords: chosen,
                surface,
            });
        }
        None
    }

    /// The paper's workload: `per_m` anchored queries for each keyword count
    /// `1..=max_m` (§5 uses `per_m = 50`, `max_m = 10`).
    pub fn batch(&mut self, per_m: usize, max_m: usize) -> Vec<QuerySpec> {
        let mut out = Vec::with_capacity(per_m * max_m);
        for m in 1..=max_m {
            let mut produced = 0;
            let mut attempts = 0;
            while produced < per_m && attempts < per_m * 8 {
                attempts += 1;
                if let Some(q) = self.anchored(m) {
                    out.push(q);
                    produced += 1;
                }
            }
        }
        out
    }

    /// Words visible from `anchor` along random forward walks of up to `d`
    /// nodes: node text/type words plus traversed attribute words, ordered
    /// roughly by distance (anchor's own words first).
    fn word_pool(&mut self, anchor: NodeId) -> Vec<WordId> {
        let mut pool: Vec<WordId> = Vec::new();
        let push = |pool: &mut Vec<WordId>, w: WordId| {
            if !pool.contains(&w) {
                pool.push(w);
            }
        };
        for &w in self.text.node_tokens(anchor) {
            push(&mut pool, w);
        }
        for &w in self.text.type_tokens(self.g.node_type(anchor)) {
            push(&mut pool, w);
        }
        // Several random walks.
        for _ in 0..12 {
            let mut cur = anchor;
            for _ in 1..self.d {
                let deg = self.g.out_degree(cur);
                if deg == 0 {
                    break;
                }
                let pick = self.rng.gen_range(0..deg);
                let (attr, next) = self
                    .g
                    .out_edges(cur)
                    .nth(pick)
                    .expect("degree-checked edge");
                for &w in self.text.attr_tokens(attr) {
                    push(&mut pool, w);
                }
                for &w in self.text.node_tokens(next) {
                    push(&mut pool, w);
                }
                for &w in self.text.type_tokens(self.g.node_type(next)) {
                    push(&mut pool, w);
                }
                cur = next;
            }
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wiki::{wiki, WikiConfig};
    use patternkb_text::{SynonymTable, TextIndex};

    fn setup() -> (KnowledgeGraph, TextIndex) {
        let g = wiki(&WikiConfig::tiny(5));
        let t = TextIndex::build(&g, SynonymTable::new());
        (g, t)
    }

    #[test]
    fn anchored_queries_have_requested_size() {
        let (g, t) = setup();
        let mut qg = QueryGenerator::new(&g, &t, 3, 1);
        for m in 1..=6 {
            let q = qg.anchored(m).expect("anchored query");
            assert_eq!(q.keywords.len(), m);
            assert_eq!(q.surface.len(), m);
            // Distinct keywords.
            let mut k = q.keywords.clone();
            k.sort_unstable();
            k.dedup();
            assert_eq!(k.len(), m);
        }
    }

    #[test]
    fn anchored_queries_are_answerable() {
        // Every keyword of an anchored query matches something in the KB.
        let (g, t) = setup();
        let mut qg = QueryGenerator::new(&g, &t, 3, 2);
        let q = qg.anchored(3).unwrap();
        for &w in &q.keywords {
            let has_node = !t.nodes_matching(w).is_empty();
            let has_attr = !t.attrs_matching(w).is_empty();
            assert!(has_node || has_attr);
        }
        let _ = g;
    }

    #[test]
    fn surface_round_trips_through_vocab() {
        let (g, t) = setup();
        let mut qg = QueryGenerator::new(&g, &t, 3, 3);
        let q = qg.anchored(2).unwrap();
        for (w, s) in q.keywords.iter().zip(&q.surface) {
            assert_eq!(t.lookup_word(s), Some(*w));
        }
    }

    #[test]
    fn batch_counts() {
        let (g, t) = setup();
        let mut qg = QueryGenerator::new(&g, &t, 3, 4);
        let qs = qg.batch(5, 4);
        assert!(qs.len() >= 15, "most slots fill: {}", qs.len());
        for q in &qs {
            assert!((1..=4).contains(&q.keywords.len()));
        }
    }

    #[test]
    fn deterministic() {
        let (g, t) = setup();
        let a = QueryGenerator::new(&g, &t, 3, 9).batch(3, 3);
        let b = QueryGenerator::new(&g, &t, 3, 9).batch(3, 3);
        assert_eq!(a, b);
    }
}
