//! # patternkb-index
//!
//! Path-pattern based inverted indexes, reproducing Section 3 of the VLDB'14
//! paper. For each (canonical) keyword `w` the index materializes **all
//! paths** in the knowledge graph that start at some root `r`, follow a path
//! pattern `P`, and end at a node or edge containing `w`, with length at most
//! `d`. Every posting is stored once and reached through two directories:
//!
//! * the **pattern-first** order (Figure 4(a)) — `(pattern, root)` — is the
//!   order the postings are sorted and stored in, serving `Patterns(w)`,
//!   `Roots(w, P)`, `Paths(w, P, r)`;
//! * the **root-first** order (Figure 4(b)) — `(root, pattern)` — is a run
//!   directory over that same array (a `(root, pattern)` run holds exactly
//!   the postings of the `(pattern, root)` run), serving `Roots(w)`,
//!   `Patterns(w, r)`, `Paths(w, r)`, `Paths(w, r, P)`.
//!
//! Postings are contiguous and sorted, with group-offset arrays, so every
//! access method is a binary search plus a slice — the in-memory analogue
//! of the paper's "sort and store paths sequentially in memory … store
//! pointers pointing to the beginning of a list of paths".
//!
//! Per the end of §3, the scoring terms `|T(w)|`, `PR(f(w))` and
//! `sim(w, f(w))` are **precomputed into the index**, so online scoring
//! never touches the graph: the length in each posting, the other two in
//! its list's score table, which holds each distinct pair once.

#![warn(missing_docs)]

pub mod build;
mod compress;
pub mod cursor;
pub mod grouped;
pub mod incremental;
pub mod pattern;
pub mod posting;
pub mod snapshot;
pub mod stats;
pub mod storage;
mod varint;
pub mod word_index;

pub use build::{build_indexes, BuildConfig};
pub use cursor::{leapfrog, WalkEnd};
pub use grouped::{RootCursor, RunCursor};
pub use incremental::{refresh_indexes, try_refresh_indexes, ChangedWords, RefreshStats};
pub use pattern::{PathPattern, PatternId, PatternSet};
pub use posting::{Posting, ScoreTerms};
pub use stats::IndexStats;
pub use storage::StorageBackend;
pub use word_index::{
    groups_by_shared_type, merge_type_groups, IndexShard, PathIndexes, PatternPostingStats,
    PatternTypeGroup, PatternTypeGroups, WordPathIndex,
};
