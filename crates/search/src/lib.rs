//! # patternkb-search
//!
//! The core contribution of the VLDB'14 paper: given a keyword query over a
//! knowledge graph, find the **top-k d-height tree patterns** — aggregations
//! of valid subtrees sharing one structural/type signature — and compose
//! each into a table answer.
//!
//! The crate provides:
//!
//! * the scoring-function class of §2.2.3 ([`score`]);
//! * valid subtrees and tree patterns ([`subtree`], [`result`]);
//! * the **enumeration–aggregation baseline** of §2.3 ([`baseline`]) that
//!   works straight off the graph (no path indexes);
//! * **`PATTERNENUM`** (Algorithm 2, [`pattern_enum`]) over the
//!   pattern-first index;
//! * **`LINEARENUM`** (Algorithm 3, [`linear_enum`]) over the root-first
//!   index, with output-linear running time (Theorem 3) — one kernel that
//!   is also **`LINEARENUM-TOPK`** (Algorithm 4): given a sampling rate
//!   below 1 it samples roots per root type and keeps each type's k best
//!   (§4.2.1), with Hoeffding-bounded error (§4.2.2, Theorem 5; the
//!   sampling half is [`topk`]), and with `Λ = ∞` or `ρ = 1` it is
//!   `LINEARENUM` (Theorem 4);
//! * **`PATTERNENUM` with admissible upper-bound pruning** ([`bound`]) —
//!   an extension beyond the paper that skips provably-unranked pattern
//!   combinations before their set intersections;
//! * individual-subtree ranking for the §5.3 comparison ([`individual`]);
//! * the precision of an approximate ranking, as in Figures 11–12
//!   ([`metrics`]);
//! * exact pattern counting for the Theorem-1 experiments ([`counting`]);
//! * table-answer composition per §2.2.2 ([`table`]) with user-facing
//!   presentation — friendly column names, ordering, Markdown/CSV
//!   ([`presentation`]);
//! * a cost-based planner routing each query to the cheapest algorithm
//!   ([`plan`]);
//! * MMR diversification of near-duplicate interpretations ([`mod@diversify`]);
//! * relaxation of unanswerable queries ([`relax`]) and per-answer
//!   explain traces ([`explain`]);
//! * a version-aware LRU result cache ([`cache`]) and snapshot-swap
//!   concurrent serving under live mutation ([`concurrent`]), made
//!   durable by a write-ahead log and checkpoints ([`durability`]).
//!
//! ## Sharded execution
//!
//! The index partitions into **root-range shards**
//! ([`patternkb_index::PathIndexes`]; knob: [`EngineBuilder::shards`],
//! default = available parallelism). The root-first algorithms fan out
//! one worker per shard over per-shard [`common::ShardContext`] views and
//! merge the per-shard partial pattern groups
//! ([`common::merge_shard_dicts`]). `PATTERNENUM`, pruned or not, is one
//! walk ([`pattern_enum`]) on the caller's thread over the global
//! combination list that joins
//! each combination across the shards, so nothing is merged and the
//! pruned form's threshold ([`bound`]) sees final scores. Every index
//! kernel enumerates scores only and ends in one result tail, which
//! re-joins the rows of the k winners alone. Scores accumulate
//! **exactly** ([`score::ExactSum`]), so sharded answers are bit-identical
//! to `shards(1)` (proptest-enforced); [`QueryStats::per_shard`] reports
//! how the work split. The exact sum costs a fixed-point add per subtree
//! and 48 bytes per pattern group: a 128-bit integer holds every score in
//! the window default scoring produces, and Shewchuk's partials
//! ([`score::Partials`]) are boxed only for inputs outside it.
//!
//! ## The request/response API
//!
//! The public surface is three types plus one serving handle:
//!
//! * [`EngineBuilder`] — fluent construction: graph, stemmer, synonyms,
//!   height `d`, build threads, cache capacity, or an index snapshot to
//!   skip construction;
//! * [`SearchRequest`] — raw text or a pre-parsed [`Query`], plus k,
//!   algorithm selection (including [`request::AlgorithmChoice::Auto`]),
//!   sampling, diversification, relaxation, presentation and explain
//!   options, all defaultable;
//! * [`SearchResponse`] — ranked patterns, composed tables, the chosen
//!   algorithm, timing/stats, and the optional extras;
//! * [`SharedEngine`] — the concurrent serving handle: the same
//!   `respond(&SearchRequest) -> Result<SearchResponse, Error>` entry
//!   point, with the version-aware [`QueryCache`] built in and
//!   snapshot-swap ingest ([`concurrent`]).
//!
//! Every failure on the query route is a typed [`Error`]. The pre-0.2
//! `search_*`/`build*` facade shims were removed in 0.3; the request
//! types above cover their whole surface (see the migration pointer in
//! the `patternkb` facade crate docs).
//!
//! ```
//! use patternkb_search::{EngineBuilder, SearchRequest};
//!
//! let (graph, _) = patternkb_datagen::figure1();
//! let engine = EngineBuilder::new().graph(graph).height(3).build()?;
//! let response = engine.respond(&SearchRequest::text("database company").k(10))?;
//! assert!(!response.is_empty());
//! # Ok::<(), patternkb_search::Error>(())
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod bound;
pub mod builder;
pub mod cache;
pub mod common;
pub mod concurrent;
pub mod counting;
pub mod diversify;
pub mod durability;
pub mod engine;
pub mod error;
pub mod explain;
#[cfg(test)]
mod fanout_tests;
pub mod individual;
pub mod intern;
pub mod linear_enum;
pub mod metrics;
pub mod pattern_enum;
pub mod plan;
pub mod presentation;
pub mod query;
pub mod relax;
pub mod request;
pub mod result;
pub mod score;
pub mod subtree;
pub mod table;
pub mod topk;

pub use builder::EngineBuilder;
pub use cache::QueryCache;
pub use concurrent::{IngestError, IngestOutcome, SharedEngine};
pub use diversify::{diversify, DiversifyConfig};
pub use durability::{Durability, DurabilityMetrics, DurabilityOptions};
pub use engine::{Algorithm, SearchEngine};
pub use error::Error;
pub use patternkb_index::{ChangedWords, RefreshStats, StorageBackend};
pub use patternkb_wal::{FsyncStats, FSYNC_BOUNDS};
pub use plan::{PlannerConfig, QueryEstimate};
pub use query::{ParseError, Query};
pub use request::{AlgorithmChoice, CacheOutcome, SearchRequest, SearchResponse};
pub use result::{HotPathStats, QueryStats, RankedPattern, SearchResult, ShardStats};
pub use score::{Aggregation, ScoringConfig};
pub use subtree::{Row, RowPath, Rows, TreePath, ValidSubtree};
pub use table::TableAnswer;

/// Knobs shared by every search algorithm.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Number of tree patterns to return (the paper defaults to 100).
    pub k: usize,
    /// The scoring function (Eqs. (2)–(6)).
    pub scoring: ScoringConfig,
    /// Reject path tuples whose union is not a tree (two paths converging
    /// on one node via different routes). The paper's algorithms do **not**
    /// perform this check (see DESIGN.md §2); enable it as an ablation.
    pub strict_trees: bool,
    /// Materialize at most this many example subtrees (table rows) per
    /// returned pattern. Scores always aggregate over *all* subtrees.
    pub max_rows: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            k: 100,
            scoring: ScoringConfig::default(),
            strict_trees: false,
            max_rows: 64,
        }
    }
}

impl SearchConfig {
    /// Config returning the top `k` with otherwise default settings.
    pub fn top(k: usize) -> Self {
        SearchConfig {
            k,
            ..Default::default()
        }
    }
}

/// The guard a lock call returned, whether or not a panicking holder
/// poisoned the lock. The cache, the pruning threshold and the shared
/// engine's pointer and writer locks all take their guards through this,
/// so a panic in one query or ingest does not turn every later caller's
/// lock into a second panic. That is sound because each critical section
/// over data replaces whole values (a counter, a map entry, a heap slot,
/// an `Arc`) and runs no caller code, so a panic cannot leave the data
/// half-written; the writer lock, held across the caller's delta build,
/// guards no data. (The admission gate, durability and serving layers
/// keep std's poisoning and unwrap.)
pub(crate) fn unpoisoned<G>(r: std::sync::LockResult<G>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::unpoisoned;
    use std::sync::{Mutex, RwLock};

    #[test]
    fn unpoisoned_recovers_the_guard_a_panicking_holder_left() {
        let m = Mutex::new(vec![1, 2]);
        let l = RwLock::new(vec![3]);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _m = m.lock().unwrap();
                let _l = l.write().unwrap();
                panic!("holder dies with both guards held");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        unpoisoned(m.lock()).push(4);
        assert_eq!(*unpoisoned(m.lock()), [1, 2, 4]);
        unpoisoned(l.write()).push(5);
        assert_eq!(*unpoisoned(l.read()), [3, 5]);
    }
}
