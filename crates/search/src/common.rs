//! Shared machinery of the index-based algorithms: the sharded query
//! context, gallop intersection over sorted root lists, the `EXPANDROOT`
//! subroutine of Algorithm 3, path-tuple products, and the shard-parallel
//! driver.
//!
//! ## The shard layer
//!
//! [`patternkb_index::PathIndexes`] partitions its postings into
//! root-range shards. A [`QueryContext`] mirrors that: it holds one
//! [`ShardContext`] per shard in which **every** keyword has postings
//! (other shards cannot contribute answers — a candidate root must reach
//! all keywords, and a root lives in exactly one shard). Each algorithm
//! runs its single-shard kernel over every shard — in parallel via
//! [`run_sharded`] — and merges the per-shard partial results. Because
//! roots are disjoint across shards and [`crate::score::ScoreAcc`] sums
//! exactly, the merged answers are bit-identical to single-shard
//! execution.
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

use crate::intern::{KeyInterner, PatternKeyId};
use crate::score::ScoreAcc;
use crate::subtree::{node_slices_form_tree, TreePath, ValidSubtree};
use crate::{Query, SearchConfig};
use patternkb_graph::{KnowledgeGraph, NodeId};
use patternkb_index::cursor as pcursor;
use patternkb_index::{PathIndexes, PathPattern, PatternId, Posting, WordPathIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// One shard's view of the query: the graph, the indexes, and one
/// [`WordPathIndex`] per keyword, all restricted to the shard's root
/// range. The single-shard algorithm kernels run against this.
pub struct ShardContext<'a> {
    /// The knowledge graph.
    pub g: &'a KnowledgeGraph,
    /// The path indexes (all shards + pattern set).
    pub idx: &'a PathIndexes,
    /// Which index shard this view covers.
    pub shard: usize,
    /// Per-keyword word indexes within the shard, in query order.
    pub words: Vec<&'a WordPathIndex>,
    /// This shard's hot-path counters.
    pub counters: HotCounters,
    /// Memoized local `R = ∩ᵢ Roots(wᵢ)` (roots in this shard's range).
    roots: OnceLock<Vec<NodeId>>,
}

impl<'a> ShardContext<'a> {
    /// Number of keywords `m`.
    pub fn m(&self) -> usize {
        self.words.len()
    }

    /// The shard-local candidate roots `R = ∩ᵢ Roots(wᵢ)`, ascending.
    /// Computed once per context; repeat callers get the memoized slice.
    pub fn candidate_roots(&self) -> &[NodeId] {
        self.roots.get_or_init(|| {
            let lists: Vec<&[u32]> = self.words.iter().map(|w| w.roots()).collect();
            let mut out: Vec<u32> = Vec::new();
            let mut seeks = 0u64;
            pcursor::intersect_sorted_into(&lists, &mut out, Some(&mut seeks));
            self.counters.add_seeks(seeks);
            out.into_iter().map(NodeId).collect()
        })
    }

    /// Intersect sorted lists, ticking this shard's seek counter.
    pub fn intersect_into(&self, lists: &[&[u32]], out: &mut Vec<u32>) {
        let mut seeks = 0u64;
        pcursor::intersect_sorted_into(lists, out, Some(&mut seeks));
        self.counters.add_seeks(seeks);
    }
}

/// Immutable per-query view over the whole sharded index.
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
    sparse: Vec<Vec<Option<&'a WordPathIndex>>>,
    /// Memoized global `R = ∩ᵢ Roots(wᵢ)`: concatenation of the per-shard
    /// intersections in shard order (ascending, since shards partition the
    /// root space by range).
    roots: OnceLock<Vec<NodeId>>,
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
        let sparse: Vec<Vec<Option<&WordPathIndex>>> = idx
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
                words: words.iter().map(|w| w.expect("filtered")).collect(),
                counters: HotCounters::default(),
                roots: OnceLock::new(),
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

    /// How this query's shard kernels should run ([`fanout_for`] over the
    /// summed per-shard candidate roots — memoized intersections every
    /// root-first kernel needs anyway, and the planner has already paid
    /// for under `Auto`).
    pub fn fanout(&self) -> Fanout {
        let roots = self.shards.iter().map(|s| s.candidate_roots().len()).sum();
        fanout_for(roots, self.shards.len())
    }

    /// The word index of keyword `i` within index shard `s` (which may lack
    /// other keywords — this is the relaxation view).
    pub fn shard_word(&self, s: usize, i: usize) -> Option<&'a WordPathIndex> {
        self.sparse[s][i]
    }

    /// Number of index shards (≥ `self.shards.len()`).
    pub fn num_index_shards(&self) -> usize {
        self.sparse.len()
    }

    /// `|∩_{i ∈ mask} Roots(wᵢ)|` over all shards — the relaxation
    /// primitive. Bits of `mask` select keywords. Counts through gallop
    /// cursors without materializing the intersection.
    pub fn mask_roots(&self, mask: u32) -> usize {
        let selected: Vec<usize> = (0..self.m).filter(|i| mask & (1 << i) != 0).collect();
        if selected.is_empty() {
            return 0;
        }
        let mut seeks = 0u64;
        let mut total = 0usize;
        let mut lists: Vec<&[u32]> = Vec::with_capacity(selected.len());
        'shards: for s in 0..self.sparse.len() {
            lists.clear();
            for &i in &selected {
                match self.sparse[s][i] {
                    Some(w) => lists.push(w.roots()),
                    None => continue 'shards,
                }
            }
            total += pcursor::intersect_count(&lists, Some(&mut seeks));
        }
        self.counters.add_seeks(seeks);
        total
    }

    /// Distinct patterns of keyword `i` across all shards, ascending —
    /// the global `Patterns(wᵢ)` the pattern-first algorithms enumerate.
    pub fn global_patterns(&self, i: usize) -> Vec<PatternId> {
        let mut ids: Vec<u32> = self
            .sparse
            .iter()
            .filter_map(|words| words[i])
            .flat_map(|w| w.patterns().map(|p| p.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(PatternId).collect()
    }

    /// Total postings behind keyword `i` across all shards.
    pub fn keyword_postings(&self, i: usize) -> usize {
        self.sparse
            .iter()
            .filter_map(|words| words[i])
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
/// A scoped spawn + join costs tens of µs before the kernel's first
/// instruction (cold stack, the merge waiting on the slower worker), so
/// threads can only pay once the kernels run for about a millisecond.
/// Sweep of the gated `cold` pool (1 000 queries, 50 k-entity wiki, 2
/// shards), median µs per query, inline vs threads, bucketed by
/// candidate roots:
///
/// | candidate roots | queries | pruned `PATTERNENUM` | `LINEARENUM` |
/// |---|---|---|---|
/// | < 100 | 413 | 257 vs 288 | 33 vs 56 |
/// | 100 – 1 k | 286 | 275 vs 312 | 441 vs 494 |
/// | 1 k – 4 k | 155 | 400 vs 431 | 1 722 vs 1 739 |
/// | 4 k – 8 k | 65 | 700 vs 748 | 3 489 vs 3 766 |
/// | 8 k – 16 k | 51 | 1 003 vs 1 096 | 5 619 vs 5 700 |
/// | ≥ 16 k | 30 | 2 015 vs 2 144 | 9 845 vs 9 980 |
///
/// The sweep box's two vCPUs deliver one core of throughput (two busy
/// loops side by side each take twice as long), so the right-hand
/// numbers are the *price* of fanning out — 20–280 µs, i.e. 70 % of a
/// selective `LINEARENUM` query and 12 % of a sub-100-root pruned one —
/// with none of the gain. The constant sits where that price has fallen
/// under a tenth of the cheapest kernel (pruned `PATTERNENUM` reaches
/// 1 ms at 8 k roots) and the kernels are long enough for a real second
/// core to halve them; 81 of the pool's 1 000 queries are above it.
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

/// Intersect k sorted ascending `u32` slices by leapfrog galloping
/// ([`patternkb_index::cursor`]). Kept as the crate-level convenience;
/// hot paths use [`ShardContext::intersect_into`] so the seek counter
/// feeds `stats.hot`.
pub fn intersect_sorted(lists: &[&[u32]]) -> Vec<u32> {
    pcursor::intersect_sorted(lists)
}

/// A pattern's accumulated answer during enumeration.
#[derive(Clone, Debug, Default)]
pub struct PatternGroup {
    /// Streaming score aggregation over all subtrees (exact sum, so
    /// per-shard groups merge bit-identically).
    pub acc: ScoreAcc,
    /// Materialized subtrees, capped at `SearchConfig::max_rows`.
    pub trees: Vec<ValidSubtree>,
}

impl PatternGroup {
    /// Fold a later shard's group for the same pattern in. `other`'s roots
    /// are all strictly greater (shards ascend by root range), so
    /// appending its trees preserves the single-shard discovery order; the
    /// cap keeps the first `max_rows` exactly as a sequential pass would.
    pub fn merge(&mut self, other: PatternGroup, max_rows: usize) {
        self.acc.merge(&other.acc);
        let room = max_rows.saturating_sub(self.trees.len());
        self.trees.extend(other.trees.into_iter().take(room));
    }

    /// Whether the group holds no evidence (all candidate tuples rejected,
    /// e.g. by strict-tree filtering). Dead groups are skipped by
    /// [`TreeDict`] iteration and merging — the arena keeps their key, but
    /// they never surface as answers.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.acc.count == 0 && self.trees.is_empty()
    }
}

/// The `TreeDict` of Algorithm 3: tree-pattern key (one pattern id per
/// keyword, flattened) → group — keyed by interned [`PatternKeyId`]s, with
/// groups in a flat vector. Replaces the former
/// `FxHashMap<Box<[u32]>, PatternGroup>`: one arena copy per **distinct**
/// pattern instead of one heap allocation per candidate access.
#[derive(Clone, Debug)]
pub struct TreeDict {
    interner: KeyInterner,
    groups: Vec<PatternGroup>,
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
            self.groups.push(PatternGroup::default());
        }
        id
    }

    /// The group of `key`, interning it first.
    #[inline]
    pub fn group_mut(&mut self, key: &[u32]) -> &mut PatternGroup {
        let id = self.intern(key);
        &mut self.groups[id.0 as usize]
    }

    /// The group of an interned id.
    #[inline]
    pub fn group(&self, id: PatternKeyId) -> &PatternGroup {
        &self.groups[id.0 as usize]
    }

    /// Mutable group of an interned id.
    #[inline]
    pub fn group_by_id_mut(&mut self, id: PatternKeyId) -> &mut PatternGroup {
        &mut self.groups[id.0 as usize]
    }

    /// The key of an interned id.
    #[inline]
    pub fn key(&self, id: PatternKeyId) -> &[u32] {
        self.interner.key(id)
    }

    /// Drop `key`'s accumulated evidence (used by the pruned merge: a
    /// combination pruned in any shard is provably outside the top-k).
    pub fn kill(&mut self, key: &[u32]) {
        if let Some(id) = self.interner.get(key) {
            self.groups[id.0 as usize] = PatternGroup::default();
        }
    }

    /// Fold `group` into `key`'s entry.
    pub fn fold(&mut self, key: &[u32], group: PatternGroup, max_rows: usize) {
        self.group_mut(key).merge(group, max_rows);
    }

    /// Number of **live** (non-dead) groups.
    pub fn len(&self) -> usize {
        self.groups.iter().filter(|g| !g.is_dead()).count()
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
    pub fn iter(&self) -> impl Iterator<Item = (PatternKeyId, &[u32], &PatternGroup)> {
        self.interner
            .iter()
            .zip(&self.groups)
            .filter(|(_, g)| !g.is_dead())
            .map(|((id, key), g)| (id, key, g))
    }

    /// Consume into `(key, group)` pairs for live groups, in interning
    /// order.
    pub fn drain_live(self, mut f: impl FnMut(&[u32], PatternGroup)) {
        let TreeDict { interner, groups } = self;
        for ((_, key), group) in interner.iter().zip(groups) {
            if !group.is_dead() {
                f(key, group);
            }
        }
    }
}

/// Merge per-shard tree dictionaries (in shard order) into one: re-intern
/// each shard's **distinct** keys into the first dictionary (id remap),
/// then merge groups by index — no per-posting rehash. The result is
/// identical to what a single-shard pass over the concatenated root
/// sequence would have produced: exact-sum accumulators merge exactly and
/// tree rows concatenate in root order.
pub fn merge_shard_dicts(dicts: Vec<TreeDict>, m: usize, max_rows: usize) -> TreeDict {
    let mut iter = dicts.into_iter();
    let Some(mut merged) = iter.next() else {
        return TreeDict::new(m);
    };
    for dict in iter {
        dict.drain_live(|key, group| merged.fold(key, group, max_rows));
    }
    merged
}

/// Iterate the cartesian product of posting slices, calling `f` with one
/// posting per keyword. Never allocates per tuple.
///
/// Returns the number of tuples visited.
pub fn for_each_path_tuple<'p>(
    slices: &[&'p [Posting]],
    scratch: &mut Vec<&'p Posting>,
    mut f: impl FnMut(&[&'p Posting]),
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
    scratch.clear();
    for s in slices {
        scratch.push(&s[0]);
    }
    let mut count = 0;
    loop {
        f(scratch);
        count += 1;
        // Odometer increment.
        let mut pos = m;
        loop {
            if pos == 0 {
                return count;
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < slices[pos].len() {
                scratch[pos] = &slices[pos][idx[pos]];
                break;
            }
            idx[pos] = 0;
            scratch[pos] = &slices[pos][0];
        }
    }
}

/// Materialize a [`ValidSubtree`] from the chosen postings.
pub fn materialize_tree(
    words: &[&WordPathIndex],
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

/// The `EXPANDROOT(r, TreeDict)` subroutine of Algorithm 3: enumerate the
/// pattern product `Patterns(w1, r) × … × Patterns(wm, r)` and, within each
/// tree pattern, the path product, folding every valid subtree into `dict`.
///
/// Returns the number of subtrees enumerated under this root.
pub fn expand_root(
    ctx: &ShardContext<'_>,
    cfg: &SearchConfig,
    r: NodeId,
    dict: &mut TreeDict,
) -> usize {
    let m = ctx.m();
    // Per-keyword (pattern, paths) runs under this root.
    let runs: Vec<Vec<(PatternId, &[Posting])>> =
        ctx.words.iter().map(|w| w.root_runs(r).collect()).collect();
    debug_assert!(
        runs.iter().all(|r| !r.is_empty()),
        "candidate roots reach every keyword"
    );
    if runs.iter().any(|r| r.is_empty()) {
        return 0;
    }

    let mut key: Vec<u32> = vec![0; m];
    let mut combo = vec![0usize; m];
    let mut slices: Vec<&[Posting]> = Vec::with_capacity(m);
    let mut scratch: Vec<&Posting> = Vec::with_capacity(m);
    let mut node_scratch: Vec<&[NodeId]> = Vec::with_capacity(m);
    let mut total = 0usize;

    // Pattern product (line 7).
    loop {
        slices.clear();
        for i in 0..m {
            let (pat, paths) = runs[i][combo[i]];
            key[i] = pat.0;
            slices.push(paths);
        }
        let group = dict.group_mut(&key);
        // Path product (line 9).
        total += for_each_path_tuple(&slices, &mut scratch, |tuple| {
            if cfg.strict_trees {
                node_scratch.clear();
                for (i, p) in tuple.iter().enumerate() {
                    node_scratch.push(ctx.words[i].nodes_of(p));
                }
                if !node_slices_form_tree(r, &node_scratch) {
                    return;
                }
            }
            let score = cfg.scoring.tree_score_of(tuple);
            group.acc.push(score);
            if group.trees.len() < cfg.max_rows {
                group
                    .trees
                    .push(materialize_tree(&ctx.words, r, tuple, score));
            }
        });
        // Strict mode may have rejected every tuple; the group then stays
        // dead and is skipped by iteration/merge.

        // Odometer over pattern combos.
        let mut pos = m;
        loop {
            if pos == 0 {
                return total;
            }
            pos -= 1;
            combo[pos] += 1;
            if combo[pos] < runs[pos].len() {
                break;
            }
            combo[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 5, 8];
        let c = [3u32, 5, 9];
        assert_eq!(intersect_sorted(&[&a, &b, &c]), vec![3, 5]);
    }

    #[test]
    fn intersect_empty_cases() {
        let a = [1u32, 2];
        let empty: [u32; 0] = [];
        assert!(intersect_sorted(&[&a, &empty]).is_empty());
        assert!(intersect_sorted(&[]).is_empty());
        assert_eq!(intersect_sorted(&[&a]), vec![1, 2]);
    }

    #[test]
    fn tuple_product_counts() {
        let p = |pat: u32| Posting {
            pattern: PatternId(pat),
            root: NodeId(0),
            nodes_start: 0,
            nodes_len: 1,
            edge_terminal: false,
            pagerank: 1.0,
            sim: 1.0,
        };
        let a = [p(1), p(2)];
        let b = [p(3), p(4), p(5)];
        let mut seen = Vec::new();
        let mut scratch = Vec::new();
        let n = for_each_path_tuple(&[&a, &b], &mut scratch, |t| {
            seen.push((t[0].pattern.0, t[1].pattern.0));
        });
        assert_eq!(n, 6);
        assert_eq!(seen.len(), 6);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6, "all tuples distinct");
    }

    #[test]
    fn tuple_product_empty_slice() {
        let a: [Posting; 0] = [];
        let mut scratch = Vec::new();
        let n = for_each_path_tuple(&[&a], &mut scratch, |_| panic!("no tuples"));
        assert_eq!(n, 0);
    }

    #[test]
    fn pattern_group_merge_caps_rows() {
        let tree = |root: u32| ValidSubtree {
            root: NodeId(root),
            paths: vec![],
            score: 1.0,
        };
        let mut a = PatternGroup::default();
        a.acc.push(1.0);
        a.trees.push(tree(0));
        let mut b = PatternGroup::default();
        b.acc.push(2.0);
        b.trees.push(tree(5));
        b.trees.push(tree(6));
        a.merge(b, 2);
        assert_eq!(a.acc.count, 2);
        assert_eq!(a.trees.len(), 2);
        assert_eq!(a.trees[1].root, NodeId(5), "shard order preserved");
    }

    #[test]
    fn tree_dict_interns_and_iterates_live_only() {
        let mut d = TreeDict::new(2);
        d.group_mut(&[1, 2]).acc.push(1.5);
        d.intern(&[3, 4]); // stays dead — never iterated
        d.group_mut(&[1, 2]).acc.push(0.5);
        assert_eq!(d.keys_interned(), 2);
        assert_eq!(d.len(), 1);
        let live: Vec<Vec<u32>> = d.iter().map(|(_, k, _)| k.to_vec()).collect();
        assert_eq!(live, vec![vec![1, 2]]);
        let id = d.intern(&[1, 2]);
        assert_eq!(d.group(id).acc.count, 2);
        d.kill(&[1, 2]);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn merge_shard_dicts_combines_groups() {
        let key = [1u32, 2];
        let mut d1 = TreeDict::new(2);
        d1.group_mut(&key).acc.push(1.5);
        let mut d2 = TreeDict::new(2);
        d2.group_mut(&key).acc.push(2.5);
        let other = [9u32, 9];
        d2.group_mut(&other).acc.push(0.5);

        let merged = merge_shard_dicts(vec![d1, d2], 2, 64);
        assert_eq!(merged.len(), 2);
        let id = merged.interner.get(&key).expect("merged key");
        assert_eq!(merged.group(id).acc.count, 2);
        assert_eq!(merged.group(id).acc.sum(), 4.0);
        let oid = merged.interner.get(&other).expect("other key");
        assert_eq!(merged.group(oid).acc.count, 1);
        assert!(merge_shard_dicts(vec![], 2, 4).is_empty());
    }
}
