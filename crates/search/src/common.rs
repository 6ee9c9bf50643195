//! Shared machinery of the index-based algorithms: the sharded query
//! context, the walk over the keywords' common roots, the one join core
//! every enumeration kernel runs, the `EXPANDROOT` subroutine of
//! Algorithm 3, and the shard-parallel driver.
//!
//! ## One join core
//!
//! Algorithms 2–4 differ only in visiting order — pattern combination
//! first, or root first. Each joins the keywords' paths at a shared root
//! and folds the subtrees it finds there into their pattern, and here that
//! step is written once, in three parts:
//!
//! * [`patternkb_index::leapfrog`] finds the shared roots: over the
//!   keywords' root directories ([`RootWalk`], [`QueryContext::mask_roots`])
//!   or over one pattern combination's runs (`PATTERNENUM`'s walk, and
//!   `join_pattern`: `rank_winners`' re-join of the winners' rows and a
//!   sampled type's exact re-score);
//! * `odometer_step` walks every product: pattern combinations (of a
//!   root type, or of one root in [`expand_root`], which `LINEARENUM`,
//!   [`crate::counting`] and [`crate::individual`] all expand roots
//!   with), and path tuples;
//! * [`SubtreeFold`] folds one root: the path product, the
//!   [`SearchConfig::strict_trees`] check, the Eq. (3) score, then the
//!   caller's sink — a pattern's group, a row store that stops once full,
//!   or the top individual subtrees.
//!
//! [`crate::baseline`] keeps loops of its own: it is the index-free
//! reference the kernels are tested against.
//!
//! ## The shard layer
//!
//! [`patternkb_index::PathIndexes`] partitions its postings into
//! root-range shards. A [`QueryContext`] mirrors that: it holds one
//! [`ShardContext`] per shard in which **every** keyword has postings
//! (other shards cannot contribute answers — a candidate root must reach
//! all keywords, and a root lives in exactly one shard). The root-first
//! algorithms run their single-shard kernel over every shard — in
//! parallel via [`run_sharded`] — and merge the per-shard partial
//! results; `PATTERNENUM`, pruned or not ([`crate::pattern_enum`]), walks
//! the keywords' pattern lists merged over the shards
//! ([`QueryContext::merged_patterns`]) and joins each combination across
//! the shard views. Because roots are disjoint across shards and
//! [`crate::score::ScoreAcc`] sums exactly, either way the answers are
//! bit-identical to single-shard execution.
//!
//! ## One result tail
//!
//! No index kernel builds rows while it enumerates: a [`TreeDict`] group
//! holds a pattern's score and nothing else. Every kernel hands its
//! groups to `rank_winners`, which picks the k winners and re-joins
//! their rows alone. [`crate::baseline`], the index-free reference, keeps
//! rows of its own.
//!
//! ## The flattened data plane
//!
//! Two hot-loop costs of the original engine are gone:
//!
//! * **Intersections gallop.** `R = ∩ᵢ Roots(wᵢ)` and every per-
//!   combination emptiness test run leapfrog intersection over seekable
//!   cursors ([`patternkb_index::cursor`]) instead of binary-searching
//!   each element of the shortest list; `stats.hot.intersect_seeks`
//!   counts the work.
//! * **Pattern keys intern.** [`TreeDict`] keys on a dense
//!   [`PatternKeyId`] from a bump-arena [`KeyInterner`] instead of
//!   hashing a freshly boxed `[u32]` per candidate; groups live in a flat
//!   `Vec` and shard merge is an id remap + vector walk.
//! * **Scores sum at a fixed cost.** A [`TreeDict`] group is a
//!   [`ScoreAcc`], 48 bytes: the exact sum adds a subtree's score into a
//!   fixed-point `i128`, and boxes Shewchuk's partials only for inputs
//!   outside the window default scoring stays in
//!   ([`crate::score::ExactSum`]).

use crate::intern::{KeyInterner, PatternKeyId};
use crate::result::RankedPattern;
use crate::score::ScoreAcc;
use crate::subtree::{node_slices_form_tree, Rows, TreePath, ValidSubtree};
use crate::{Query, SearchConfig};
use patternkb_graph::{KnowledgeGraph, NodeId};
use patternkb_index::{
    groups_by_shared_type, merge_type_groups, PathIndexes, PathPattern, PatternId,
    PatternTypeGroup, PatternTypeGroups, Posting, RootCursor, RunCursor, WalkEnd, WordPathIndex,
};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Relaxed shared counters behind `stats.hot` — written from shard
/// workers (hence atomic; contention is negligible at one add per
/// intersection).
#[derive(Debug, Default)]
pub struct HotCounters {
    /// Cursor seeks performed by gallop intersections.
    pub intersect_seeks: AtomicU64,
}

impl HotCounters {
    /// Add `seeks` intersection seeks.
    #[inline]
    pub fn add_seeks(&self, seeks: u64) {
        if seeks > 0 {
            self.intersect_seeks.fetch_add(seeks, Ordering::Relaxed);
        }
    }
}

/// One shard's view of the query: the graph, the indexes, and a handle
/// to one [`WordPathIndex`] per keyword, all restricted to the shard's
/// root range. The view owns its handles, so its lists stay alive for as
/// long as it does, whatever the index does with its own copies. The
/// single-shard algorithm kernels run against this.
pub struct ShardContext<'a> {
    /// The knowledge graph.
    pub g: &'a KnowledgeGraph,
    /// The path indexes (all shards + pattern set).
    pub idx: &'a PathIndexes,
    /// Which index shard this view covers.
    pub shard: usize,
    /// Per-keyword word indexes within the shard, in query order.
    pub words: Vec<Arc<WordPathIndex>>,
    /// This shard's hot-path counters.
    pub counters: HotCounters,
    /// Memoized full walk over the local `R = ∩ᵢ Roots(wᵢ)` (roots in
    /// this shard's range).
    walk: OnceLock<RootWalk>,
}

impl<'a> ShardContext<'a> {
    /// Number of keywords `m`.
    pub fn m(&self) -> usize {
        self.words.len()
    }

    /// The shard-local candidate roots `R = ∩ᵢ Roots(wᵢ)`, ascending.
    /// Computed once per context; repeat callers get the memoized slice.
    pub fn candidate_roots(&self) -> &[NodeId] {
        self.walk().roots()
    }

    /// The shard's walk over its candidate roots, run to the end once per
    /// context: the roots, each keyword's directory position at each, and
    /// the shard's share of `N`.
    pub fn walk(&self) -> &RootWalk {
        self.walk
            .get_or_init(|| self.walk_from_start(&mut 0, |_| false).0)
    }

    /// A fresh [`RootWalk::run`] over this shard's words, its seeks counted.
    fn walk_from_start(&self, n: &mut u64, stop: impl FnMut(u64) -> bool) -> (RootWalk, WalkEnd) {
        let (walk, end) = RootWalk::run(&self.words, n, stop);
        self.counters.add_seeks(end.seeks);
        (walk, end)
    }
}

/// One walk over a shard's candidate roots `R = ∩ᵢ Roots(wᵢ)`, in
/// ascending order: the roots, every keyword's root-directory position at
/// each (where [`expand_root`] jumps its cursors) and each root's
/// `Πᵢ |Paths(wᵢ, r)|`, the per-root term of `N` (Algorithm 4 line 4).
#[derive(Debug, Default)]
pub struct RootWalk {
    roots: Vec<NodeId>,
    /// `m` positions per root, in keyword order.
    positions: Vec<u32>,
    /// `Πᵢ |Paths(wᵢ, r)|` per root (saturating).
    paths: Vec<u64>,
    /// `Σ_r Πᵢ |Paths(wᵢ, r)|` (saturating).
    subtrees: u64,
}

impl RootWalk {
    /// Leapfrog `words`' root directories from their first roots, adding
    /// each common root's `Πᵢ |Paths(wᵢ, r)|` to `*n` (saturating), and
    /// stop after the first root at which `stop(*n)` holds. The walk holds
    /// the roots it visited; `WalkEnd::stopped` tells whether that is all
    /// of them.
    pub fn run(
        words: &[Arc<WordPathIndex>],
        n: &mut u64,
        mut stop: impl FnMut(u64) -> bool,
    ) -> (RootWalk, WalkEnd) {
        let mut cursors: Vec<RootCursor<'_>> = words.iter().map(|w| w.root_cursor()).collect();
        let mut walk = RootWalk::default();
        let end = patternkb_index::leapfrog(&mut cursors, |root, cursors| {
            let paths = cursors.iter().fold(1u64, |product, c| {
                product.saturating_mul(c.num_paths() as u64)
            });
            walk.roots.push(NodeId(root));
            walk.positions
                .extend(cursors.iter().map(|c| c.position() as u32));
            walk.paths.push(paths);
            walk.subtrees = walk.subtrees.saturating_add(paths);
            *n = n.saturating_add(paths);
            if stop(*n) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        (walk, end)
    }

    /// The roots visited, ascending.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Each keyword's directory position at the `j`-th root.
    pub fn positions(&self, j: usize) -> &[u32] {
        let m = self.positions.len() / self.roots.len();
        &self.positions[j * m..(j + 1) * m]
    }

    /// `Πᵢ |Paths(wᵢ, r)|` of the `j`-th root (saturating).
    pub fn paths(&self, j: usize) -> u64 {
        self.paths[j]
    }

    /// `Σ_r Πᵢ |Paths(wᵢ, r)|` over the roots visited (saturating).
    pub fn subtrees(&self) -> u64 {
        self.subtrees
    }

    /// `(root, positions)` of every root visited, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[u32])> {
        (0..self.roots.len()).map(|j| (self.roots[j], self.positions(j)))
    }
}

/// Immutable per-query view over the whole sharded index. It borrows the
/// graph and the index, and owns a handle to every keyword's list in
/// every shard: a list it reads is one it holds, for the query's life.
pub struct QueryContext<'a> {
    /// The knowledge graph.
    pub g: &'a KnowledgeGraph,
    /// The path indexes (all shards + pattern set).
    pub idx: &'a PathIndexes,
    /// One view per shard where **all** keywords have postings, in shard
    /// (= ascending root range) order. Algorithms fan out over these.
    pub shards: Vec<ShardContext<'a>>,
    /// Context-level hot-path counters (relaxation intersections etc.).
    pub counters: HotCounters,
    /// Number of keywords.
    m: usize,
    /// Per index shard, per keyword: the word's index in that shard, if
    /// any. Superset of `shards` (also covers shards missing some
    /// keyword); used by relaxation, which intersects keyword *subsets*.
    sparse: Vec<Vec<Option<Arc<WordPathIndex>>>>,
    /// Memoized global `R = ∩ᵢ Roots(wᵢ)`: concatenation of the per-shard
    /// intersections in shard order (ascending, since shards partition the
    /// root space by range).
    roots: OnceLock<Vec<NodeId>>,
    /// The candidate roots the planner's walk ([`Self::subtrees_until`])
    /// saw, when it stopped: the stop point the planner's tests check.
    #[cfg(test)]
    stopped_at: OnceLock<usize>,
    /// Memoized per-keyword global pattern lists
    /// ([`QueryContext::merged_patterns`]) of a multi-shard index; over
    /// one shard each keyword's list is its word's own memo.
    merged: OnceLock<Vec<PatternTypeGroups>>,
}

impl<'a> QueryContext<'a> {
    /// Build the context; `None` when some keyword has no paths in any
    /// shard (the query then provably has zero answers).
    pub fn new(g: &'a KnowledgeGraph, idx: &'a PathIndexes, query: &Query) -> Option<Self> {
        if query.keywords.is_empty() {
            return None;
        }
        for &w in &query.keywords {
            if !idx.has_word(w) {
                return None;
            }
        }
        let m = query.keywords.len();
        let sparse: Vec<Vec<Option<Arc<WordPathIndex>>>> = idx
            .shards()
            .iter()
            .map(|shard| query.keywords.iter().map(|&w| shard.word(w)).collect())
            .collect();
        let shards: Vec<ShardContext<'a>> = sparse
            .iter()
            .enumerate()
            .filter(|(_, words)| words.iter().all(Option::is_some))
            .map(|(s, words)| ShardContext {
                g,
                idx,
                shard: s,
                words: words.iter().map(|w| w.clone().expect("filtered")).collect(),
                counters: HotCounters::default(),
                walk: OnceLock::new(),
            })
            .collect();
        Some(QueryContext {
            g,
            idx,
            shards,
            counters: HotCounters::default(),
            m,
            sparse,
            roots: OnceLock::new(),
            #[cfg(test)]
            stopped_at: OnceLock::new(),
            merged: OnceLock::new(),
        })
    }

    /// Number of keywords `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `R = ∩ᵢ Roots(wᵢ)` — line 1 of Algorithm 3 — over the whole index:
    /// the per-shard intersections concatenated in shard order (ascending).
    /// Computed once per context; repeat callers get the memoized slice.
    pub fn candidate_roots(&self) -> &[NodeId] {
        self.roots.get_or_init(|| {
            self.shards
                .iter()
                .flat_map(|s| s.candidate_roots().iter().copied())
                .collect()
        })
    }

    /// How this query's root-first kernels should run: [`fanout_for`] over
    /// the candidate roots summed over the shards, read off the memoized
    /// walks those kernels need anyway. `PATTERNENUM`, pruned or not,
    /// reads no roots and always runs inline.
    pub fn fanout(&self) -> Fanout {
        let roots = self.shards.iter().map(|s| s.candidate_roots().len()).sum();
        fanout_for(roots, self.shards.len())
    }

    /// `N = Σ_r Πᵢ |Paths(wᵢ, r)|` summed over the shards' candidate roots
    /// in ascending order, stopping after the first root at which
    /// `stop(N)` holds. Returns the running `N` and whether the walk
    /// stopped — if not, `N` is exact. A shard walked to its end is
    /// memoized as [`ShardContext::walk`].
    pub(crate) fn subtrees_until(&self, mut stop: impl FnMut(u64) -> bool) -> (u64, bool) {
        let mut n = 0u64;
        for shard in &self.shards {
            if let Some(walk) = shard.walk.get() {
                n = n.saturating_add(walk.subtrees());
                continue;
            }
            let (walk, end) = shard.walk_from_start(&mut n, &mut stop);
            if end.stopped {
                // The shards before this one are memoized, the rest not.
                #[cfg(test)]
                let _ = self.stopped_at.set(
                    self.shards
                        .iter()
                        .map(|s| s.walk.get().map_or(0, |w| w.roots().len()))
                        .sum::<usize>()
                        + walk.roots().len(),
                );
                return (n, true);
            }
            let _ = shard.walk.set(walk);
        }
        (n, false)
    }

    /// How many candidate roots the planner's walk saw, if it stopped.
    #[cfg(test)]
    pub(crate) fn stopped_at(&self) -> Option<usize> {
        self.stopped_at.get().copied()
    }

    /// The word index of keyword `i` within index shard `s` (which may lack
    /// other keywords — this is the relaxation view).
    pub fn shard_word(&self, s: usize, i: usize) -> Option<&WordPathIndex> {
        self.sparse[s][i].as_deref()
    }

    /// Number of index shards (≥ `self.shards.len()`).
    pub fn num_index_shards(&self) -> usize {
        self.sparse.len()
    }

    /// `|∩_{i ∈ mask} Roots(wᵢ)|` over all shards — the relaxation
    /// primitive. Bits of `mask` select keywords. Counts along one walk
    /// over the selected words' root directories per shard, without
    /// materializing the intersection.
    pub fn mask_roots(&self, mask: u32) -> usize {
        let mut total = 0usize;
        for words in &self.sparse {
            let selected = words
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0);
            let Some(mut cursors) = selected
                .map(|(_, w)| w.as_deref().map(WordPathIndex::root_cursor))
                .collect::<Option<Vec<RootCursor<'_>>>>()
            else {
                continue;
            };
            let end = patternkb_index::leapfrog(&mut cursors, |_, _| {
                total += 1;
                ControlFlow::Continue(())
            });
            self.counters.add_seeks(end.seeks);
        }
        total
    }

    /// The global `PatternsC(wᵢ)` of keyword `i`, ascending by root type:
    /// its per-shard type groups merged over **every** index shard (also
    /// those lacking another keyword — the lists, and the bounds computed
    /// over them, are then the ones a single-shard index holds). A
    /// group's positions are indexed by index shard. Over one shard that
    /// is the word's own memo, read as it is; over several, merged once
    /// per context, for all keywords. The planner's combination count and
    /// the pattern-first kernels read the same lists.
    pub fn merged_patterns(&self, i: usize) -> &PatternTypeGroups {
        if let [only] = &self.sparse[..] {
            if let Some(word) = &only[i] {
                return word.pattern_type_groups(self.idx.patterns());
            }
        }
        &self.merged.get_or_init(|| {
            let mut words = Vec::with_capacity(self.sparse.len());
            (0..self.m)
                .map(|i| {
                    words.clear();
                    words.extend(self.sparse.iter().map(|shard| shard[i].as_deref()));
                    merge_type_groups(&words, self.idx.patterns())
                })
                .collect()
        })[i]
    }

    /// Per root type every keyword has patterns of, ascending: the
    /// keywords' merged groups of that type, in keyword order — the lists
    /// whose product `PATTERNENUM` enumerates for the type.
    pub fn merged_by_type(&self) -> Vec<Vec<PatternTypeGroup<'_>>> {
        let keywords: Vec<&PatternTypeGroups> =
            (0..self.m).map(|i| self.merged_patterns(i)).collect();
        groups_by_shared_type(&keywords)
    }

    /// Total postings behind keyword `i` across all shards.
    pub fn keyword_postings(&self, i: usize) -> usize {
        self.sparse
            .iter()
            .filter_map(|words| words[i].as_ref())
            .map(|w| w.len())
            .sum()
    }

    /// Decode a tree-pattern key (one pattern id per keyword) into
    /// self-contained patterns for the result type.
    pub fn decode_key(&self, key: &[u32]) -> Vec<PathPattern> {
        key.iter()
            .map(|&p| self.idx.patterns().decode(PatternId(p)))
            .collect()
    }

    /// Snapshot of the hot-path counters across the context and all its
    /// shards (the intersection half of [`crate::result::QueryStats::hot`];
    /// callers add the interner half from their merged dictionary).
    pub fn hot_stats(&self) -> crate::result::HotPathStats {
        let mut hot = crate::result::HotPathStats {
            intersect_seeks: self.counters.intersect_seeks.load(Ordering::Relaxed),
            ..Default::default()
        };
        for s in &self.shards {
            hot.intersect_seeks += s.counters.intersect_seeks.load(Ordering::Relaxed);
        }
        hot
    }
}

/// The combination count `Σ_C Πᵢ |PatternsC(wᵢ)|` of per-type lists
/// (saturating) — over the merged lists, what a single-shard `PATTERNENUM`
/// iterates.
pub(crate) fn combo_count(types: &[Vec<PatternTypeGroup<'_>>]) -> usize {
    types.iter().fold(0usize, |total, groups| {
        let product = groups
            .iter()
            .fold(1usize, |p, g| p.saturating_mul(g.patterns.len()));
        total.saturating_add(product)
    })
}

/// How many cores the process may run on — resolved **once**. std does
/// not cache `available_parallelism()`, and on Linux every call walks
/// `sched_getaffinity` plus the cgroup quota files (17–22 µs measured,
/// a quarter of a selective `LINEARENUM` query), so nothing on the query
/// path may call it directly.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// How one search's shard kernels ran; reported in
/// [`crate::result::QueryStats::fanout`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fanout {
    /// One after another on the caller's thread, in shard order.
    #[default]
    Inline,
    /// The caller ran the first share and scoped OS threads the others.
    Threads,
}

/// The fan-out break-even, in candidate roots summed over the shards.
///
/// A scoped spawn + join costs 15–170 µs before the kernel's first
/// instruction (cold stack, the merge waiting on the slower worker), so
/// threads can only pay once the kernels run for about a millisecond.
/// Sweep of the gated `cold` pool (1 000 queries, 50 k-entity wiki, 2
/// shards; a throwaway `#[ignore]`d test calling the kernels' `*_in`
/// routines on a fresh context, best of 3 — not a committed harness),
/// median µs per query of `LINEARENUM`, inline vs threads, bucketed by
/// candidate roots:
///
/// | candidate roots | queries | `LINEARENUM` |
/// |---|---|---|
/// | < 100 | 413 | 25 vs 105 |
/// | 100 – 1 k | 286 | 119 vs 207 |
/// | 1 k – 4 k | 155 | 427 vs 442 |
/// | 4 k – 8 k | 65 | 1 014 vs 802 |
/// | 8 k – 16 k | 51 | 1 172 vs 886 |
/// | ≥ 16 k | 30 | 2 695 vs 1 539 |
///
/// That run had both of the sweep box's vCPUs to itself: a spawn costs
/// 80–170 µs there — three to six selective `LINEARENUM` queries — and is
/// earned back from 4 k roots. In a run an hour earlier the host let the
/// two vCPUs deliver one core of throughput: a spawn read 15–30 µs and
/// threads were behind inline in every bucket (8 k – 16 k: 1 087 vs
/// 1 328), the right-hand numbers being only the *price* of fanning out.
/// The constant sits above the first run's break-even, where the second
/// run's price has fallen to a fifth of the kernel's time; 81 of the
/// pool's 1 000 queries are above it.
///
/// Only the root-first kernels fan out, so every count compared with it
/// is exact: they read the roots anyway. `PATTERNENUM` used to split its
/// combinations over threads above this gate too; running it inline
/// instead read `cold` `search_p99_ms` 3.71 → 3.54 ms (7 of 10 A/B
/// pairs) and `coldstart` 4.01 → 4.09 and 3.90 → 3.86 ms (5 and 7 of
/// 10), with every gated metric of the four workloads inside its bound
/// (2-vCPU VM, seed 7).
pub const FANOUT_MIN_ROOTS: usize = 8_000;

/// The one gate every fan-out site goes through: [`Fanout::Threads`] when
/// the input is split in several `parts`, the process has a second core
/// to run them on, and `roots` (the candidate roots over all parts)
/// reaches [`FANOUT_MIN_ROOTS`]. Decided from the input alone.
pub fn fanout_for(roots: usize, parts: usize) -> Fanout {
    if parts > 1 && roots >= FANOUT_MIN_ROOTS && cores() > 1 {
        Fanout::Threads
    } else {
        Fanout::Inline
    }
}

/// Map `kernel` over `items` (shard views, or anything split by shard),
/// returning results **in input order** — ascending root ranges, which is
/// what makes concatenating per-shard outputs order-identical to a
/// single-shard pass. `mode` comes from [`QueryContext::fanout`] /
/// [`fanout_for`]; under [`Fanout::Threads`] the items are chunked over
/// at most one worker per core (never one per item, so a batch of
/// searches over a sharded engine degrades to chunked work instead of a
/// thread explosion), the caller runs the first chunk itself and only
/// the others get a scoped thread.
pub fn run_sharded<I, T, F>(mode: Fanout, items: &[I], kernel: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if mode == Fanout::Inline || items.len() <= 1 {
        return items.iter().map(&kernel).collect();
    }
    // `Threads` is an instruction, not a hint: an explicit caller (the
    // mode-equivalence tests) fans out even on a one-core machine.
    let workers = cores().max(2).min(items.len());
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<T>> = items.iter().map(|_| None).collect();
    let fill = |chunk_items: &[I], slots: &mut [Option<T>]| {
        for (item, slot) in chunk_items.iter().zip(slots) {
            *slot = Some(kernel(item));
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = items.chunks(chunk).zip(out.chunks_mut(chunk));
        let own = chunks.next();
        for (chunk_items, slots) in chunks {
            let fill = &fill;
            scope.spawn(move || fill(chunk_items, slots));
        }
        if let Some((chunk_items, slots)) = own {
            fill(chunk_items, slots);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every chunk filled its slots"))
        .collect()
}

/// The `TreeDict` of Algorithm 3: tree-pattern key (one pattern id per
/// keyword, flattened) → its score group, a [`ScoreAcc`] — keyed by
/// interned [`PatternKeyId`]s, with groups in a flat vector. Replaces the
/// former `FxHashMap<Box<[u32]>, _>`: one arena copy per **distinct**
/// pattern instead of one heap allocation per candidate access. No kernel
/// builds rows while it enumerates; the winners' rows are re-joined once
/// they are known (`rank_winners`).
#[derive(Clone, Debug)]
pub struct TreeDict {
    interner: KeyInterner,
    groups: Vec<ScoreAcc>,
}

impl TreeDict {
    /// An empty dictionary for keys of `m` pattern ids.
    pub fn new(m: usize) -> Self {
        TreeDict {
            interner: KeyInterner::new(m),
            groups: Vec::new(),
        }
    }

    /// Intern `key` and return its dense id (allocating an empty group for
    /// fresh keys).
    #[inline]
    pub fn intern(&mut self, key: &[u32]) -> PatternKeyId {
        let (id, fresh) = self.interner.intern_full(key);
        if fresh {
            self.groups.push(ScoreAcc::default());
        }
        id
    }

    /// The group of `key`, interning it first.
    #[inline]
    pub fn group_mut(&mut self, key: &[u32]) -> &mut ScoreAcc {
        let id = self.intern(key);
        &mut self.groups[id.0 as usize]
    }

    /// The group of an interned id.
    #[inline]
    pub fn group(&self, id: PatternKeyId) -> &ScoreAcc {
        &self.groups[id.0 as usize]
    }

    /// Mutable group of an interned id.
    #[inline]
    pub fn group_by_id_mut(&mut self, id: PatternKeyId) -> &mut ScoreAcc {
        &mut self.groups[id.0 as usize]
    }

    /// The key of an interned id.
    #[inline]
    pub fn key(&self, id: PatternKeyId) -> &[u32] {
        self.interner.key(id)
    }

    /// Number of **live** groups: those holding a subtree. A key whose
    /// every candidate tuple was rejected (e.g. by strict-tree filtering)
    /// keeps its arena slot but a dead, empty group, which iteration and
    /// merging skip.
    pub fn len(&self) -> usize {
        self.groups.iter().filter(|g| g.count > 0).count()
    }

    /// Whether no live group exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct keys interned (live or dead) — the alloc observability
    /// counter.
    pub fn keys_interned(&self) -> usize {
        self.interner.len()
    }

    /// Bytes held by the key arena.
    pub fn arena_bytes(&self) -> usize {
        self.interner.arena_bytes()
    }

    /// Iterate `(id, key, group)` over live groups in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (PatternKeyId, &[u32], &ScoreAcc)> {
        self.interner
            .iter()
            .zip(&self.groups)
            .filter(|(_, g)| g.count > 0)
            .map(|((id, key), g)| (id, key, g))
    }
}

/// Merge per-shard tree dictionaries (in shard order) into one: re-intern
/// each shard's **distinct** keys into the first dictionary (id remap),
/// then merge groups by index — no per-posting rehash. The result is
/// identical to what a single-shard pass over the concatenated root
/// sequence would have produced: exact-sum accumulators merge exactly.
pub fn merge_shard_dicts(dicts: Vec<TreeDict>, m: usize) -> TreeDict {
    let mut iter = dicts.into_iter();
    let Some(mut merged) = iter.next() else {
        return TreeDict::new(m);
    };
    for dict in iter {
        for (_, key, group) in dict.iter() {
            merged.group_mut(key).merge(group);
        }
    }
    merged
}

/// Advance the odometer `digits` one step in lexicographic order: digit
/// `i` counts modulo `len(i)`, the last digit moves fastest, and a digit
/// that wraps resets to 0 and carries into the one before it. Returns the
/// lowest digit that moved (every digit after it was reset), or `None`
/// once all of them wrapped: the product is exhausted and `digits` is all
/// zeros again. The one step behind every product the kernels walk —
/// pattern combinations, path tuples, the keys [`crate::counting`] counts.
#[inline]
pub(crate) fn odometer_step(digits: &mut [usize], len: impl Fn(usize) -> usize) -> Option<usize> {
    for pos in (0..digits.len()).rev() {
        digits[pos] += 1;
        if digits[pos] < len(pos) {
            return Some(pos);
        }
        digits[pos] = 0;
    }
    None
}

/// Visit the cartesian product of posting slices in lexicographic order,
/// calling `f` with one posting per keyword until it breaks. Never
/// allocates per tuple. Returns the number of tuples visited.
fn for_each_path_tuple<'p>(
    slices: &[&'p [Posting]],
    tuple: &mut Vec<&'p Posting>,
    mut f: impl FnMut(&[&'p Posting]) -> ControlFlow<()>,
) -> usize {
    debug_assert!(!slices.is_empty());
    if slices.iter().any(|s| s.is_empty()) {
        return 0;
    }
    let m = slices.len();
    // Odometer digits on the stack — this runs once per (combination,
    // root) and must not allocate. Queries beyond 16 keywords fall back
    // to the heap (the paper's workloads stop at 10).
    let mut small = [0usize; 16];
    let mut big: Vec<usize>;
    let idx: &mut [usize] = if m <= 16 {
        &mut small[..m]
    } else {
        big = vec![0usize; m];
        &mut big
    };
    tuple.clear();
    tuple.extend(slices.iter().map(|s| &s[0]));
    let mut count = 0;
    loop {
        count += 1;
        if f(tuple).is_break() {
            return count;
        }
        let Some(moved) = odometer_step(idx, |i| slices[i].len()) else {
            return count;
        };
        for i in moved..m {
            tuple[i] = &slices[i][idx[i]];
        }
    }
}

/// The step every index kernel takes at a root all keywords reach
/// (Algorithm 2 line 8, Algorithm 3 line 9): the path product of one
/// posting run per keyword, each tuple kept only if its paths form a tree
/// where [`SearchConfig::strict_trees`] asks for it, scored by Eq. (3)
/// and handed to the caller's sink. Holds the product's scratch, reused
/// across roots.
pub struct SubtreeFold<'a> {
    slices: Vec<&'a [Posting]>,
    tuple: Vec<&'a Posting>,
    nodes: Vec<&'a [NodeId]>,
}

impl<'a> SubtreeFold<'a> {
    /// Scratch for `m` keywords.
    pub fn new(m: usize) -> Self {
        SubtreeFold {
            slices: Vec::with_capacity(m),
            tuple: Vec::with_capacity(m),
            nodes: Vec::with_capacity(m),
        }
    }

    /// Fold the subtrees rooted at `root` whose paths come from `runs`,
    /// one posting run per word of `words` in keyword order:
    /// `sink(tuple, score)` gets every accepted tuple and may stop the
    /// product by returning `ControlFlow::Break`. Returns the tuples
    /// visited, rejected ones included — the kernels' `subtrees` count.
    pub fn fold(
        &mut self,
        words: &'a [Arc<WordPathIndex>],
        cfg: &SearchConfig,
        root: NodeId,
        runs: impl IntoIterator<Item = &'a [Posting]>,
        mut sink: impl FnMut(&[&'a Posting], f64) -> ControlFlow<()>,
    ) -> usize {
        let SubtreeFold {
            slices,
            tuple,
            nodes,
        } = self;
        slices.clear();
        slices.extend(runs);
        for_each_path_tuple(slices, tuple, |tuple| {
            if cfg.strict_trees {
                nodes.clear();
                nodes.extend(tuple.iter().zip(words).map(|(p, w)| w.nodes_of(p)));
                if !node_slices_form_tree(root, nodes) {
                    return ControlFlow::Continue(());
                }
            }
            sink(tuple, cfg.scoring.tree_score_of(words, tuple))
        })
    }
}

/// Append the subtree of the chosen postings to a pattern's rows.
fn push_row(
    rows: &mut Rows,
    words: &[Arc<WordPathIndex>],
    root: NodeId,
    postings: &[&Posting],
    score: f64,
) {
    let paths = postings.iter().zip(words).map(|(p, w)| w.nodes_of(p));
    rows.push(root, score, paths);
}

/// Materialize a [`ValidSubtree`] from the chosen postings.
pub fn materialize_tree(
    words: &[Arc<WordPathIndex>],
    root: NodeId,
    postings: &[&Posting],
    score: f64,
) -> ValidSubtree {
    let paths = postings
        .iter()
        .enumerate()
        .map(|(i, p)| TreePath {
            nodes: words[i].nodes_of(p).to_vec(),
            edge_terminal: p.edge_terminal,
        })
        .collect();
    ValidSubtree { root, paths, score }
}

/// The buffers [`expand_root`] works in, owned by the caller and reused
/// across the roots of one shard.
pub struct ExpandScratch<'a> {
    cursors: Vec<RootCursor<'a>>,
    /// Per keyword: the current root's `(pattern, paths)` runs.
    runs: Vec<Vec<(u32, &'a [Posting])>>,
    key: Vec<u32>,
    paths: Vec<&'a [Posting]>,
    combo: Vec<usize>,
}

impl<'a> ExpandScratch<'a> {
    /// Buffers for a shard's keywords, cursors before the first root.
    pub fn new(words: &'a [Arc<WordPathIndex>]) -> Self {
        let m = words.len();
        ExpandScratch {
            cursors: words.iter().map(|w| w.root_cursor()).collect(),
            runs: vec![Vec::new(); m],
            key: vec![0; m],
            paths: vec![&[]; m],
            combo: vec![0; m],
        }
    }
}

/// The `EXPANDROOT` step of Algorithm 3 at one candidate root `r`: the
/// pattern product `Patterns(w1, r) × … × Patterns(wm, r)` (line 7), each
/// combination handed to `visit` as its key (one pattern id per keyword)
/// and its path runs (one per keyword), in odometer order — the last
/// keyword's pattern moving fastest. `at` holds each keyword's directory
/// position of `r`, as the shard's [`RootWalk`] recorded it: the cursors
/// jump there, in any root order. The visitor folds the path product
/// (line 9) as it needs to, or reads the key alone.
pub fn expand_root<'a>(
    scratch: &mut ExpandScratch<'a>,
    at: &[u32],
    mut visit: impl FnMut(&[u32], &[&'a [Posting]]),
) {
    let ExpandScratch {
        cursors,
        runs,
        key,
        paths,
        combo,
    } = scratch;
    for ((cursor, runs), &at) in cursors.iter_mut().zip(runs.iter_mut()).zip(at) {
        cursor.as_mut().jump(at as usize);
        runs.clear();
        runs.extend(cursor.runs());
    }
    loop {
        for (i, runs) in runs.iter().enumerate() {
            (key[i], paths[i]) = runs[combo[i]];
        }
        visit(key, paths);
        if odometer_step(combo, |i| runs[i].len()).is_none() {
            return;
        }
    }
}

/// Join one tree pattern's runs over one shard: leapfrog the run cursors
/// of `key` (one pattern id per keyword) and call `visit(root, cursors)`
/// at every root where each keyword has its pattern, ascending, every
/// cursor standing on that root's run, until `visit` breaks. `cursors` is
/// the caller's buffer. The walk's seeks count in the shard's
/// `intersect_seeks`. The winners' row re-join, which stops once its rows
/// are full, and a sampled partition's exact re-score, which walks every
/// root, both run this.
pub(crate) fn join_pattern<'s>(
    shard: &'s ShardContext<'_>,
    key: &[u32],
    cursors: &mut Vec<RunCursor<'s>>,
    mut visit: impl FnMut(NodeId, &[RunCursor<'s>]) -> ControlFlow<()>,
) {
    cursors.clear();
    for (word, &p) in shard.words.iter().zip(key) {
        match word.pattern_primary(PatternId(p)) {
            Some(prim) => cursors.push(word.pattern_run_cursor(prim)),
            None => return,
        }
    }
    let end = patternkb_index::leapfrog(cursors, |r, cursors| visit(NodeId(r), cursors));
    shard.counters.add_seeks(end.seeks);
}

/// The one result tail of every index kernel. The kernels enumerate
/// scores only: most discovered patterns never surface, so their rows are
/// not built and their keys not decoded. `dicts` hold disjoint keys.
/// (1) Rank all live patterns by exact score alone and keep everything at
/// or above the k-th best, boundary ties included; (2) decode only those,
/// apply the full `(score desc, encoded key asc)` order and truncate to k;
/// (3) re-join the rows of the survivors ([`materialize_pattern_rows`]).
/// The re-join's seeks count in `stats.hot.intersect_seeks`, so a kernel
/// reads its counters after this tail.
pub(crate) fn rank_winners(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    dicts: &[TreeDict],
) -> Vec<RankedPattern> {
    let mut entries: Vec<(f64, &TreeDict, PatternKeyId)> = dicts
        .iter()
        .flat_map(|dict| {
            dict.iter()
                .map(move |(id, _, group)| (group.finish(cfg.scoring.aggregation), dict, id))
        })
        .collect();
    let by_score = |a: &f64, b: &f64| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal);
    if cfg.k == 0 {
        entries.clear();
    } else if entries.len() > cfg.k {
        let (_, kth, _) = entries.select_nth_unstable_by(cfg.k - 1, |a, b| by_score(&a.0, &b.0));
        let kth = kth.0;
        entries.retain(|&(score, _, _)| score >= kth);
    }
    // `RankedPattern::key()` allocates per call, so it is computed once
    // per candidate, not per comparison.
    let mut ranked: Vec<(RankedPattern, &[u32], Vec<u32>)> = entries
        .into_iter()
        .map(|(score, dict, id)| {
            let p = RankedPattern {
                pattern: ctx.decode_key(dict.key(id)),
                score,
                num_trees: dict.group(id).count as usize,
                trees: Rows::default(),
            };
            let sort_key = p.key();
            (p, dict.key(id), sort_key)
        })
        .collect();
    ranked.sort_by(|a, b| by_score(&a.0.score, &b.0.score).then_with(|| a.2.cmp(&b.2)));
    ranked.truncate(cfg.k);
    ranked
        .into_iter()
        .map(|(mut p, key, _)| {
            p.trees = materialize_pattern_rows(ctx, cfg, &p, key);
            p
        })
        .collect()
}

/// Re-join one winning pattern's rows: walk the shards in ascending
/// root-range order, leapfrog its per-keyword posting runs, and
/// materialize the first `cfg.max_rows` accepted subtrees — the pattern's
/// first rows in root order — stopping the walk at the last of them.
/// `p` is the decoded pattern with its `num_trees`, which size the store
/// once.
fn materialize_pattern_rows(
    ctx: &QueryContext<'_>,
    cfg: &SearchConfig,
    p: &RankedPattern,
    key: &[u32],
) -> Rows {
    let m = ctx.m();
    let stride = p.pattern.iter().map(PathPattern::height).sum();
    let mut trees = Rows::with_capacity(p.num_trees.min(cfg.max_rows), stride);
    let mut cursors = Vec::with_capacity(m);
    let mut fold = SubtreeFold::new(m);
    let full = |trees: &Rows| {
        if trees.len() < cfg.max_rows {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    };
    for shard in &ctx.shards {
        if full(&trees).is_break() {
            break;
        }
        join_pattern(shard, key, &mut cursors, |root, cursors| {
            let runs = cursors.iter().map(RunCursor::postings);
            fold.fold(&shard.words, cfg, root, runs, |tuple, score| {
                push_row(&mut trees, &shard.words, root, tuple, score);
                full(&trees)
            });
            full(&trees)
        });
    }
    trees
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternkb_index::{KeyedPosting, ScoreTerms};

    /// The path product visits every tuple once, in lexicographic order
    /// (the last keyword's posting moving fastest), over ragged lists and
    /// over 17 keywords — past the odometer's 16-digit stack buffer — and
    /// stops at the tuple whose visit breaks.
    #[test]
    fn tuple_product_counts() {
        // A posting told apart by its arena offset.
        let p = |at: u32| Posting {
            nodes_start: at,
            score: 0,
            nodes_len: 1,
            edge_terminal: false,
        };
        let mut wide = vec![1usize; 17];
        (wide[0], wide[8], wide[16]) = (2, 3, 2);
        for lens in [vec![2, 3], vec![3, 1, 4, 2], wide] {
            let lists: Vec<Vec<Posting>> = lens
                .iter()
                .map(|&n| (0..n as u32).map(p).collect())
                .collect();
            let slices: Vec<&[Posting]> = lists.iter().map(Vec::as_slice).collect();
            let mut expected: Vec<Vec<u32>> = vec![vec![]];
            for &n in &lens {
                expected = expected
                    .into_iter()
                    .flat_map(|prefix| (0..n as u32).map(move |x| [&prefix[..], &[x]].concat()))
                    .collect();
            }
            let mut seen = Vec::new();
            let mut scratch = Vec::new();
            let n = for_each_path_tuple(&slices, &mut scratch, |t| {
                seen.push(t.iter().map(|q| q.nodes_start).collect::<Vec<u32>>());
                ControlFlow::Continue(())
            });
            assert_eq!(n, expected.len());
            assert_eq!(seen, expected, "lexicographic order over {lens:?}");

            let stop = expected.len() / 2;
            let mut visits = 0;
            let n = for_each_path_tuple(&slices, &mut scratch, |_| {
                visits += 1;
                if visits > stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!((n, visits), (stop + 1, stop + 1));
        }
        // The step reports the lowest digit it moved.
        let mut digits = [0, 1, 1];
        assert_eq!(odometer_step(&mut digits, |_| 2), Some(0));
        assert_eq!(digits, [1, 0, 0]);
        assert_eq!(odometer_step(&mut digits, |_| 2), Some(2));
        digits = [1, 1, 1];
        assert_eq!(odometer_step(&mut digits, |_| 2), None);
        assert_eq!(digits, [0, 0, 0]);
    }

    #[test]
    fn tuple_product_empty_slice() {
        let a: [Posting; 0] = [];
        let mut scratch = Vec::new();
        let n = for_each_path_tuple(&[&a], &mut scratch, |_| panic!("no tuples"));
        assert_eq!(n, 0);
    }

    #[test]
    fn tree_dict_interns_and_iterates_live_only() {
        let mut d = TreeDict::new(2);
        d.group_mut(&[1, 2]).push(1.5);
        d.intern(&[3, 4]); // stays dead — never iterated
        d.group_mut(&[1, 2]).push(0.5);
        assert_eq!(d.keys_interned(), 2);
        assert_eq!(d.len(), 1);
        let live: Vec<Vec<u32>> = d.iter().map(|(_, k, _)| k.to_vec()).collect();
        assert_eq!(live, vec![vec![1, 2]]);
        let id = d.intern(&[1, 2]);
        assert_eq!(d.group(id).count, 2);
    }

    /// A word index over `(pattern, root)` postings, each path starting
    /// at its root, its length fixed by its pattern.
    fn word(postings: &[(u32, u32)]) -> WordPathIndex {
        let mut arena = Vec::new();
        let mut scores = Vec::new();
        let postings = postings
            .iter()
            .map(|&(pattern, root)| {
                let len = 1 + (pattern % 3) as u16;
                let start = arena.len() as u32;
                arena.push(NodeId(root));
                arena.extend((1..u32::from(len)).map(|k| NodeId(1_000 + 10 * pattern + k)));
                scores.push(ScoreTerms {
                    pagerank: 0.5 + f64::from(root) / 64.0,
                    sim: 1.0 / f64::from(len),
                });
                KeyedPosting {
                    pattern: PatternId(pattern),
                    root: NodeId(root),
                    posting: Posting {
                        nodes_start: start,
                        score: scores.len() as u32 - 1,
                        nodes_len: len,
                        edge_terminal: false,
                    },
                }
            })
            .collect();
        WordPathIndex::new(postings, arena, scores)
    }

    /// The walk over `words` against the posting lists themselves: its
    /// roots are the intersection of `roots()`, its counts the products of
    /// the words' postings at each root, its positions land on its roots,
    /// a stopped walk is the full walk's prefix up to the first root where
    /// the running count reaches the limit, and `expand_root` at each
    /// root's positions — the roots taken in descending order, so every
    /// jump goes back — visits each combination of the words' patterns
    /// there once, in ascending key order, with each word's run of its
    /// pattern at the root.
    fn check_walk(words: &[Arc<WordPathIndex>], limit: u64) {
        let keyed: Vec<Vec<KeyedPosting>> =
            words.iter().map(|w| w.postings_pattern_first()).collect();
        let at_root = |i: usize, r: NodeId| keyed[i].iter().filter(move |k| k.root == r);
        let (mut n, walk, end) = {
            let mut n = 0u64;
            let (walk, end) = RootWalk::run(words, &mut n, |_| false);
            (n, walk, end)
        };
        assert!(!end.stopped);
        let lists: Vec<&[u32]> = words.iter().map(|w| w.roots()).collect();
        let roots: Vec<NodeId> = patternkb_index::cursor::intersect_sorted(&lists)
            .into_iter()
            .map(NodeId)
            .collect();
        assert_eq!(walk.roots(), roots);
        let paths: Vec<u64> = roots
            .iter()
            .map(|&r| {
                (0..words.len())
                    .map(|i| at_root(i, r).count() as u64)
                    .product()
            })
            .collect();
        assert_eq!(walk.subtrees(), paths.iter().sum::<u64>());
        assert_eq!(n, walk.subtrees());
        for (j, (r, at)) in walk.iter().enumerate() {
            assert_eq!(walk.paths(j), paths[j]);
            for (w, &pos) in words.iter().zip(at) {
                assert_eq!(w.roots()[pos as usize], r.0);
            }
        }

        n = 0;
        let (prefix, end) = RootWalk::run(words, &mut n, |n| n >= limit);
        let reached = paths
            .iter()
            .scan(0u64, |sum, &p| {
                *sum += p;
                Some(*sum)
            })
            .position(|sum| sum >= limit);
        assert_eq!(end.stopped, reached.is_some());
        let seen = reached.map_or(roots.len(), |j| j + 1);
        assert_eq!(prefix.roots(), &roots[..seen]);
        assert_eq!(n, paths[..seen].iter().sum::<u64>());

        let mut scratch = ExpandScratch::new(words);
        let visits: Vec<(NodeId, &[u32])> = walk.iter().collect();
        for &(r, at) in visits.iter().rev() {
            let mut want: Vec<Vec<u32>> = vec![vec![]];
            for i in 0..words.len() {
                let mut patterns: Vec<u32> = at_root(i, r).map(|k| k.pattern.0).collect();
                patterns.dedup();
                want = want
                    .into_iter()
                    .flat_map(|prefix| {
                        let patterns = patterns.clone();
                        patterns
                            .into_iter()
                            .map(move |p| [&prefix[..], &[p]].concat())
                    })
                    .collect();
            }
            let mut seen = Vec::new();
            expand_root(&mut scratch, at, |key, runs| {
                for (i, (&p, &run)) in key.iter().zip(runs).enumerate() {
                    let of_pattern = at_root(i, r).filter(|k| k.pattern.0 == p);
                    let expected: Vec<Posting> = of_pattern.map(|k| k.posting).collect();
                    assert_eq!(run, &expected[..], "keyword {i}, pattern {p}, root {r:?}");
                }
                seen.push(key.to_vec());
            });
            assert_eq!(seen, want, "root {r:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// [`check_walk`] on random word indexes: all the words, the
        /// first alone (one keyword), and all of them beside a word with
        /// no paths (a shard lacking a keyword, whose walk is empty).
        #[test]
        fn the_walk_agrees_with_the_primitives(
            lists in proptest::collection::vec(
                proptest::collection::vec((0u32..4, 0u32..40), 0..60),
                1..4,
            ),
            limit in 0u64..200,
        ) {
            let words: Vec<Arc<WordPathIndex>> =
                lists.iter().map(|l| Arc::new(word(l))).collect();
            check_walk(&words, limit);
            check_walk(&words[..1], limit);
            let lacking: Vec<Arc<WordPathIndex>> =
                words.iter().cloned().chain([Arc::default()]).collect();
            check_walk(&lacking, limit);
            let mut n = 0;
            proptest::prop_assert!(RootWalk::run(&lacking, &mut n, |_| false).0.roots().is_empty());
        }
    }

    /// Over a one-shard index a keyword's global pattern list is its
    /// word's own memo, read in place: nothing is merged or copied.
    #[test]
    fn one_shard_reads_each_words_memo() {
        let (g, _) = patternkb_datagen::figure1();
        let engine = crate::EngineBuilder::new()
            .graph(g)
            .shards(1)
            .threads(1)
            .build()
            .unwrap();
        let idx = engine.index();
        let q = engine.parse("database software company revenue").unwrap();
        let ctx = QueryContext::new(engine.graph(), idx, &q).unwrap();
        for (i, &w) in q.keywords.iter().enumerate() {
            let word = idx.word_in(0, w).unwrap();
            let memo = word.pattern_type_groups(idx.patterns());
            assert!(std::ptr::eq(ctx.merged_patterns(i), memo), "keyword {i}");
        }
        assert!(ctx.merged.get().is_none(), "nothing was merged");
    }

    #[test]
    fn merge_shard_dicts_combines_groups() {
        let key = [1u32, 2];
        let mut d1 = TreeDict::new(2);
        d1.group_mut(&key).push(1.5);
        let mut d2 = TreeDict::new(2);
        d2.group_mut(&key).push(2.5);
        let other = [9u32, 9];
        d2.group_mut(&other).push(0.5);

        let merged = merge_shard_dicts(vec![d1, d2], 2);
        assert_eq!(merged.len(), 2);
        let id = merged.interner.get(&key).expect("merged key");
        assert_eq!(merged.group(id).count, 2);
        assert_eq!(merged.group(id).sum(), 4.0);
        let oid = merged.interner.get(&other).expect("other key");
        assert_eq!(merged.group(oid).count, 1);
        assert!(merge_shard_dicts(vec![], 2).is_empty());
    }
}
