//! # patternkb-index
//!
//! Path-pattern based inverted indexes, reproducing Section 3 of the VLDB'14
//! paper. For each (canonical) keyword `w` the index materializes **all
//! paths** in the knowledge graph that start at some root `r`, follow a path
//! pattern `P`, and end at a node or edge containing `w`, with length at most
//! `d`. Every posting is stored once and reached through two orders:
//!
//! * the **pattern-first** order (Figure 4(a)) — `(pattern, root)` — is the
//!   order the postings are sorted and stored in, with one offset per
//!   pattern and a root column beside them, serving `Patterns(w)` and,
//!   through one pattern's run cursor, `Roots(w, P)` and `Paths(w, P, r)`;
//! * the **root-first** order (Figure 4(b)) — `(root, pattern)` — is a
//!   permutation of that same array with one offset per root (a `(root,
//!   pattern)` run holds exactly the postings of the `(pattern, root)`
//!   run), serving `Roots(w)` and, through a root cursor, `|Paths(w, r)|`
//!   and a root's `(pattern, paths)` runs.
//!
//! Postings are contiguous and sorted, with offset arrays and key columns,
//! so a cursor ([`cursor`]) gallops over a key column and hands out slices
//! — the in-memory analogue of the paper's "sort and store paths
//! sequentially in memory … store pointers pointing to the beginning of a
//! list of paths". The root-first order is read only through cursors: its
//! readers visit the candidate roots in ascending order.
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
pub use posting::{KeyedPosting, Posting, ScoreTerms};
pub use stats::IndexStats;
pub use storage::StorageBackend;
pub use word_index::{
    groups_by_shared_type, merge_type_groups, IndexShard, PathIndexes, PatternPostingStats,
    PatternTypeGroup, PatternTypeGroups, WordPathIndex,
};

/// A test-only global allocator that keeps, per thread, the bytes
/// allocated and not yet freed, so a test can weigh what a value holds
/// against what it reports.
#[cfg(test)]
pub(crate) mod live_bytes {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn add(bytes: isize) {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    }

    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`; `add` only
    // touches a const-initialized `Cell` and never allocates or unwinds.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            add(layout.size() as isize);
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            add(layout.size() as isize);
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            add(new_size as isize - layout.size() as isize);
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            add(-(layout.size() as isize));
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

    /// Run `f`, returning its result and how many bytes the calling
    /// thread allocated in it and did not free: what the result holds.
    pub(crate) fn held_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = LIVE.with(Cell::get);
        let out = f();
        (out, (LIVE.with(Cell::get) - before) as usize)
    }
}
