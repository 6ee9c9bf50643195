//! The per-word path index and the top-level [`PathIndexes`] handle.

use crate::grouped::{GroupedPostings, RootCursor, RootDirectory};
use crate::pattern::{PatternId, PatternSet};
use crate::posting::Posting;
use crate::storage::{Region, StorageBackend, WordStore};
use patternkb_graph::{FxHashMap, KnowledgeGraph, NodeId, TypeId, WordId};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Per-pattern posting statistics, cached at construction. These are
/// pure functions of the posting list; the search layer's admissible
/// score bounds read them per query instead of rescanning every posting
/// (which used to be the largest fixed cost of a pruned `PATTERNENUM`
/// query).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PatternPostingStats {
    /// Total paths with this pattern (over all roots).
    pub num_paths: u32,
    /// Largest number of paths under a single root.
    pub max_per_root: u32,
    /// Minimum scoring length `|T(w)|`.
    pub min_len: f64,
    /// Maximum scoring length.
    pub max_len: f64,
    /// Minimum cached PageRank.
    pub min_pr: f64,
    /// Maximum cached PageRank.
    pub max_pr: f64,
    /// Minimum cached similarity.
    pub min_sim: f64,
    /// Maximum cached similarity.
    pub max_sim: f64,
}

impl PatternPostingStats {
    /// Combine stats of the same pattern from two disjoint posting sets
    /// (e.g. two root-range shards): `max_per_root` combines by `max`,
    /// everything else by sum/min/max.
    pub fn merge(&mut self, other: &PatternPostingStats) {
        self.num_paths += other.num_paths;
        self.max_per_root = self.max_per_root.max(other.max_per_root);
        self.min_len = self.min_len.min(other.min_len);
        self.max_len = self.max_len.max(other.max_len);
        self.min_pr = self.min_pr.min(other.min_pr);
        self.max_pr = self.max_pr.max(other.max_pr);
        self.min_sim = self.min_sim.min(other.min_sim);
        self.max_sim = self.max_sim.max(other.max_sim);
    }

    /// Scan one pattern's postings (sorted by root).
    fn scan(paths: &[Posting]) -> Self {
        let mut s = PatternPostingStats {
            num_paths: paths.len() as u32,
            max_per_root: 0,
            min_len: f64::INFINITY,
            max_len: 0.0,
            min_pr: f64::INFINITY,
            max_pr: 0.0,
            min_sim: f64::INFINITY,
            max_sim: 0.0,
        };
        let mut run = 0u32;
        let mut prev_root = u32::MAX;
        for post in paths {
            let len = post.score_len() as f64;
            s.min_len = s.min_len.min(len);
            s.max_len = s.max_len.max(len);
            s.min_pr = s.min_pr.min(post.pagerank);
            s.max_pr = s.max_pr.max(post.pagerank);
            s.min_sim = s.min_sim.min(post.sim);
            s.max_sim = s.max_sim.max(post.sim);
            if post.root.0 == prev_root {
                run += 1;
            } else {
                prev_root = post.root.0;
                run = 1;
            }
            s.max_per_root = s.max_per_root.max(run);
        }
        s
    }
}

/// A word's patterns grouped by root type — per type the unit the
/// pattern-first algorithms enumerate ("`PatternsC(wᵢ)`") — with every
/// pattern's pattern-first position in each of `shards` posting lists.
///
/// One flat layout serves both uses: what a [`WordPathIndex`] memoises
/// about its own list ([`WordPathIndex::pattern_type_groups`], one
/// position per pattern) and the word's global lists over every index
/// shard ([`merge_type_groups`], one position per pattern and shard).
/// Words have many root types with a handful of patterns each, so the
/// columns are shared by all types and a type is a range of them.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternTypeGroups {
    /// Root types, ascending.
    root_types: Vec<TypeId>,
    /// Type `t` owns `patterns[starts[t] .. starts[t + 1]]`. Length
    /// `root_types.len() + 1`.
    starts: Vec<u32>,
    /// Pattern ids, ascending within a type.
    patterns: Vec<PatternId>,
    /// Row-major `patterns.len() × shards` pattern-first positions.
    prims: Vec<u32>,
    shards: usize,
}

impl PatternTypeGroups {
    fn new(shards: usize) -> Self {
        PatternTypeGroups {
            root_types: Vec::new(),
            starts: vec![0],
            patterns: Vec::new(),
            prims: Vec::new(),
            shards,
        }
    }

    /// Number of root types.
    pub fn len(&self) -> usize {
        self.root_types.len()
    }

    /// Whether there is no pattern at all.
    pub fn is_empty(&self) -> bool {
        self.root_types.is_empty()
    }

    /// Patterns over all root types.
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// The `t`-th root type's group (ascending by type).
    pub fn group(&self, t: usize) -> PatternTypeGroup<'_> {
        let range = self.starts[t] as usize..self.starts[t + 1] as usize;
        PatternTypeGroup {
            root_type: self.root_types[t],
            prims: &self.prims[range.start * self.shards..range.end * self.shards],
            patterns: &self.patterns[range],
            shards: self.shards,
        }
    }

    /// The group of `root_type`, if the word has patterns rooted there.
    pub fn find(&self, root_type: TypeId) -> Option<PatternTypeGroup<'_>> {
        let t = self.root_types.binary_search(&root_type).ok()?;
        Some(self.group(t))
    }

    /// Every group, ascending by root type.
    pub fn iter(&self) -> impl Iterator<Item = PatternTypeGroup<'_>> {
        (0..self.len()).map(|t| self.group(t))
    }

    fn heap_bytes(&self) -> usize {
        (self.root_types.len() + self.starts.len() + self.patterns.len() + self.prims.len()) * 4
    }
}

/// One root type's patterns out of a [`PatternTypeGroups`].
#[derive(Clone, Copy, Debug)]
pub struct PatternTypeGroup<'a> {
    /// The shared root type.
    pub root_type: TypeId,
    /// Pattern ids, ascending.
    pub patterns: &'a [PatternId],
    prims: &'a [u32],
    shards: usize,
}

impl PatternTypeGroup<'_> {
    /// In a [`PatternTypeGroup::prim`] slot: the shard holds no posting
    /// with that pattern.
    pub const ABSENT: u32 = u32::MAX;

    /// The pattern-first position of `patterns[x]` in list `s` of the
    /// `shards` the groups were built over (a word's own groups have one
    /// list, `s = 0`), or [`Self::ABSENT`].
    #[inline]
    pub fn prim(&self, x: usize, s: usize) -> u32 {
        self.prims[x * self.shards + s]
    }
}

/// Per root type that **every** list of `keywords` has patterns of,
/// ascending: the keywords' groups of that type, in keyword order — the
/// lists whose product `PATTERNENUM` enumerates for the type.
pub fn groups_by_shared_type<'a>(
    keywords: &[&'a PatternTypeGroups],
) -> Vec<Vec<PatternTypeGroup<'a>>> {
    let Some((first, others)) = keywords.split_first() else {
        return Vec::new();
    };
    first
        .iter()
        .filter_map(|g0| {
            let mut groups = Vec::with_capacity(keywords.len());
            groups.push(g0);
            for of_keyword in others {
                groups.push(of_keyword.find(g0.root_type)?);
            }
            Some(groups)
        })
        .collect()
}

/// One word's global type groups: its per-shard groups (`words[s]` is the
/// word's list in index shard `s`, `None` where the shard has none) merged
/// over every shard, positions indexed by shard. Pattern ids are global
/// and every shard's groups are sorted by `(root type, pattern)`, so this
/// is a k-way merge; with a single shard it borrows what that shard's
/// word index memoises.
pub fn merge_type_groups<'a>(
    words: &[Option<&'a WordPathIndex>],
    patterns: &PatternSet,
) -> Cow<'a, PatternTypeGroups> {
    if let [Some(only)] = words {
        return Cow::Borrowed(only.pattern_type_groups(patterns));
    }
    let shards = words.len();
    let per_shard: Vec<Option<&PatternTypeGroups>> = words
        .iter()
        .map(|w| w.map(|w| w.pattern_type_groups(patterns)))
        .collect();
    let mut merged = PatternTypeGroups::new(shards);
    // At least the longest shard's; exactly that when the shards hold the
    // same patterns, as root-range shards of one word mostly do.
    let longest = per_shard.iter().flatten().map(|g| g.num_patterns()).max();
    merged.patterns.reserve(longest.unwrap_or(0));
    merged.prims.reserve(longest.unwrap_or(0) * shards);
    // `at[s]`: shard `s`'s next unmerged type; `left[s]`: what is left of
    // its `(patterns, positions)` of the type being merged (empty where it
    // has none).
    let mut at = vec![0usize; shards];
    let mut left: Vec<(&[PatternId], &[u32])> = Vec::with_capacity(shards);
    while let Some(&root_type) = (0..shards)
        .filter_map(|s| per_shard[s].and_then(|g| g.root_types.get(at[s])))
        .min()
    {
        left.clear();
        for s in 0..shards {
            let of_type = per_shard[s]
                .filter(|groups| groups.root_types.get(at[s]) == Some(&root_type))
                .map(|groups| groups.group(at[s]));
            at[s] += usize::from(of_type.is_some());
            left.push(of_type.map_or((&[][..], &[][..]), |g| (g.patterns, g.prims)));
        }
        while let Some(&p) = left.iter().filter_map(|(ids, _)| ids.first()).min() {
            merged.patterns.push(p);
            for (ids, prims) in &mut left {
                if ids.first() == Some(&p) {
                    merged.prims.push(prims[0]);
                    (*ids, *prims) = (&ids[1..], &prims[1..]);
                } else {
                    merged.prims.push(PatternTypeGroup::ABSENT);
                }
            }
        }
        merged.root_types.push(root_type);
        merged.starts.push(merged.patterns.len() as u32);
    }
    Cow::Owned(merged)
}

/// The postings of one word: stored once in pattern-first order, with a
/// root-first directory over the same array and one node arena.
#[derive(Clone, Debug, Default)]
pub struct WordPathIndex {
    /// Node sequences of all paths, referenced by `Posting::nodes_start`.
    arena: Vec<NodeId>,
    /// Pattern-first order: primary = pattern, secondary = root (Fig. 4(a)).
    pattern_first: GroupedPostings,
    /// Root-first order (Fig. 4(b)): the `(root, pattern)` run directory
    /// into `pattern_first.postings()`.
    root_first: RootDirectory,
    /// Per-pattern stats, aligned with `pattern_first.primary_keys()`.
    pattern_stats: Vec<PatternPostingStats>,
    /// Lazy per-word grouping of patterns by root type (ascending type,
    /// ascending pattern within type) — a pure function of the postings
    /// and the pattern set, built on the first query touching the word so
    /// the per-query setup of the pattern-first algorithms is O(groups)
    /// instead of O(patterns).
    type_groups: OnceLock<PatternTypeGroups>,
}

/// What [`WordPathIndex::freeze`] keeps of an earlier version of a list:
/// every `(pattern, root)` run whose root is not affected. A refresh
/// re-enumerates an affected root whole, so each of its runs is dropped
/// or comes back wholly fresh, and every other run is kept as it is.
#[derive(Clone, Copy)]
pub(crate) struct Base<'a> {
    /// The list the new one replaces.
    pub(crate) list: &'a WordPathIndex,
    /// Roots whose runs are dropped, ascending.
    pub(crate) affected: &'a [u32],
    /// Re-read every posting's cached PageRank from this graph (a refresh
    /// of a recomputed PageRank). Fresh postings already carry the new
    /// graph's scores, so re-reading them changes nothing.
    pub(crate) reread_pagerank: Option<&'a KnowledgeGraph>,
}

impl WordPathIndex {
    /// Assemble from unsorted postings plus their shared arena: the
    /// base-less `Self::freeze`.
    pub fn new(postings: Vec<Posting>, arena: Vec<NodeId>) -> Self {
        Self::freeze(None, postings, arena)
    }

    /// The one freeze routine: `base`'s kept runs with `fresh` (unsorted,
    /// node sequences in `fresh_arena`) merged in. Only the fresh postings
    /// are sorted; the kept runs are copied in stretches, the root
    /// directory is the base's with its affected roots' entries replaced,
    /// and the per-pattern stats and the memoised type groups are carried
    /// over where their input did not change. Without a base every
    /// posting is fresh: one sort, one transposition, every stat scanned.
    pub(crate) fn freeze(
        base: Option<Base<'_>>,
        mut fresh: Vec<Posting>,
        fresh_arena: Vec<NodeId>,
    ) -> Self {
        let empty = WordPathIndex::default();
        let (list, affected) = base.map_or((&empty, &[][..]), |b| (b.list, b.affected));
        let mut arena = fresh_arena;
        if !list.arena.is_empty() {
            let offset = list.arena.len() as u32;
            for p in &mut fresh {
                p.nodes_start += offset;
            }
            arena = [&list.arena[..], &arena[..]].concat();
        }
        fresh.sort_unstable_by_key(|p| (p.pattern.0, p.root.0, p.nodes_start));
        let expected = list.len() + fresh.len();
        let (mut pattern_first, root_first, unchanged) =
            crate::grouped::splice((&list.pattern_first, &list.root_first), affected, fresh);
        if pattern_first.len() < expected {
            // Dropped postings leave their nodes behind.
            arena = compact_arena(pattern_first.postings_mut(), &arena);
        }
        let reread = base.and_then(|b| b.reread_pagerank);
        if let Some(g) = reread {
            for p in pattern_first.postings_mut() {
                // Matched node: the terminal for node matches, the edge's
                // source (second-to-last stored node — the leaf is
                // appended) for edge matches.
                let nodes = &arena[p.node_range()];
                p.pagerank = g.pagerank(nodes[nodes.len() - 1 - usize::from(p.edge_terminal)]);
            }
        }
        let pattern_stats = unchanged
            .iter()
            .enumerate()
            .map(|(i, from)| match from {
                Some(b) if reread.is_none() => list.pattern_stats[*b as usize],
                _ => PatternPostingStats::scan(pattern_first.group_postings(i)),
            })
            .collect();
        // The grouping is a function of the pattern keys alone.
        let type_groups = OnceLock::new();
        if pattern_first.primary_keys() == list.pattern_first.primary_keys() {
            if let Some(groups) = list.type_groups.get() {
                let _ = type_groups.set(groups.clone());
            }
        }
        WordPathIndex {
            arena,
            pattern_first,
            root_first,
            pattern_stats,
            type_groups,
        }
    }

    /// The node sequence of a posting.
    #[inline]
    pub fn nodes_of(&self, p: &Posting) -> &[NodeId] {
        &self.arena[p.node_range()]
    }

    // --- Pattern-first access methods (Figure 4(a)) --------------------

    /// `Patterns(w)`: all patterns following which some root reaches the
    /// word, ascending by pattern id.
    pub fn patterns(&self) -> impl Iterator<Item = PatternId> + '_ {
        self.pattern_first
            .primary_keys()
            .iter()
            .map(|&k| PatternId(k))
    }

    /// `Roots(w, P)`: all roots reaching the word through pattern `p`,
    /// ascending. Empty iterator if the pattern is absent.
    pub fn roots_of_pattern(&self, p: PatternId) -> &[u32] {
        match self.pattern_first.find_primary(p.0) {
            Some(i) => self.pattern_first.secondary_keys(i),
            None => &[],
        }
    }

    /// `Paths(w, P, r)`: all paths with pattern `p` starting at `root`.
    pub fn paths_of_pattern_root(&self, p: PatternId, root: NodeId) -> &[Posting] {
        match self.pattern_first.find_primary(p.0) {
            Some(i) => self.pattern_first.run_postings(i, root.0),
            None => &[],
        }
    }

    /// All paths with pattern `p` (any root), in root order.
    pub fn paths_of_pattern(&self, p: PatternId) -> &[Posting] {
        match self.pattern_first.find_primary(p.0) {
            Some(i) => self.pattern_first.group_postings(i),
            None => &[],
        }
    }

    /// Position of `p` in the pattern-first index, resolvable once per
    /// (combination, keyword) and then reused for O(1) cursor creation.
    pub fn pattern_primary(&self, p: PatternId) -> Option<usize> {
        self.pattern_first.find_primary(p.0)
    }

    /// Cached per-pattern posting stats, aligned with the iteration order
    /// of [`Self::patterns`] (and indexable by [`Self::pattern_primary`]).
    pub fn pattern_stats(&self) -> &[PatternPostingStats] {
        &self.pattern_stats
    }

    /// The pattern at pattern-first position `prim`
    /// (inverse of [`Self::pattern_primary`]).
    pub fn pattern_at(&self, prim: usize) -> PatternId {
        PatternId(self.pattern_first.primary_keys()[prim])
    }

    /// This word's patterns grouped by root type, ascending by type (and
    /// by pattern id within a type). Memoized on first use: pattern ids
    /// are stable under incremental refresh (the pattern set is
    /// append-only), so the grouping never invalidates for a live index.
    pub fn pattern_type_groups(&self, patterns: &PatternSet) -> &PatternTypeGroups {
        self.type_groups.get_or_init(|| {
            let keys = self.pattern_first.primary_keys();
            let mut tagged: Vec<(TypeId, u32)> = keys
                .iter()
                .enumerate()
                .map(|(j, &p)| (patterns.root_type(PatternId(p)), j as u32))
                .collect();
            // Secondary key `j` ascends with pattern id, so each type's
            // run stays in ascending pattern order.
            tagged.sort_unstable();
            let mut groups = PatternTypeGroups::new(1);
            for run in tagged.chunk_by(|a, b| a.0 == b.0) {
                groups.root_types.push(run[0].0);
                groups
                    .patterns
                    .extend(run.iter().map(|&(_, j)| PatternId(keys[j as usize])));
                groups.prims.extend(run.iter().map(|&(_, j)| j));
                groups.starts.push(groups.patterns.len() as u32);
            }
            groups
        })
    }

    /// A seekable `(root, paths)` run cursor over pattern `prim` (an index
    /// from [`Self::pattern_primary`]) — the fused-join view of
    /// `Roots(w, P)` + `Paths(w, P, r)`.
    pub fn pattern_run_cursor(&self, prim: usize) -> crate::grouped::RunCursor<'_> {
        self.pattern_first.run_cursor(prim)
    }

    // --- Root-first access methods (Figure 4(b)) -----------------------

    /// `Roots(w)`: all roots that can reach the word, ascending.
    pub fn roots(&self) -> &[u32] {
        self.root_first.roots()
    }

    /// `Patterns(w, r)`: all patterns through which `root` reaches the word.
    pub fn patterns_of_root(&self, root: NodeId) -> &[u32] {
        self.root_first.patterns_of(root.0)
    }

    /// `|Paths(w, r)|` in O(log): used by Algorithm 4 line 4 to compute
    /// `N_R` without enumerating subtrees.
    pub fn num_paths_of_root(&self, root: NodeId) -> usize {
        self.root_first.num_paths_of(root.0)
    }

    /// `Paths(w, r, P)`: all paths from `root` with pattern `p`.
    pub fn paths_of_root_pattern(&self, root: NodeId, p: PatternId) -> &[Posting] {
        self.root_first
            .run(self.pattern_first.postings(), root.0, p.0)
    }

    /// Iterate `(pattern, paths)` runs of one root — `Paths(w, r)`, one
    /// pattern at a time in pattern order.
    pub fn root_runs(&self, root: NodeId) -> impl Iterator<Item = (PatternId, &[Posting])> {
        self.root_first
            .runs(self.pattern_first.postings(), root.0)
            .map(|(k, ps)| (PatternId(k), ps))
    }

    /// A forward cursor over this word's roots — `|Paths(w, r)|` and
    /// `Paths(w, r)` for callers that visit roots in ascending order.
    pub fn root_cursor(&self) -> RootCursor<'_> {
        RootCursor::new(&self.root_first, self.pattern_first.postings())
    }

    /// All postings in pattern-first order (used by the snapshot codec).
    pub fn postings_pattern_first(&self) -> &[Posting] {
        self.pattern_first.postings()
    }

    /// The shared node arena (used by the snapshot codec).
    pub fn arena(&self) -> &[NodeId] {
        &self.arena
    }

    /// Total number of postings.
    pub fn len(&self) -> usize {
        self.pattern_first.len()
    }

    /// Whether the word has no paths.
    pub fn is_empty(&self) -> bool {
        self.pattern_first.is_empty()
    }

    /// Approximate resident bytes: arena, postings, root directory, stats,
    /// and the type groups once a pattern-first query has memoised them.
    pub fn heap_bytes(&self) -> usize {
        let type_groups = self
            .type_groups
            .get()
            .map_or(0, PatternTypeGroups::heap_bytes);
        self.arena.len() * 4
            + self.pattern_first.heap_bytes()
            + self.root_first.heap_bytes()
            + self.pattern_stats.len() * std::mem::size_of::<PatternPostingStats>()
            + type_groups
    }
}

/// `postings`' node sequences alone, in posting order, with every posting
/// re-pointed into the new arena.
fn compact_arena(postings: &mut [Posting], arena: &[NodeId]) -> Vec<NodeId> {
    let mut compact = Vec::with_capacity(postings.iter().map(|p| p.nodes_len as usize).sum());
    for p in postings {
        let nodes = &arena[p.node_range()];
        p.nodes_start = compact.len() as u32;
        compact.extend_from_slice(nodes);
    }
    compact
}

/// One root-range segment of the index: the per-word indexes for every
/// posting whose root lies in the shard's range. Shards share the global
/// [`PatternSet`], so pattern ids are comparable across shards.
///
/// A shard is **`base ⊕ patched words`**. The base is an immutable word
/// store shared by `Arc` between every index version derived from it: an
/// index built in memory holds every list decoded, a booted snapshot
/// borrows its v5 region (mapped or read into memory) and decodes words
/// on first touch. [`crate::incremental::refresh_indexes`] publishes a
/// new version by rebuilding only the words a delta touches and recording
/// them in the patch map, which shadows the base: `Some` replaces the
/// base's list, `None` marks a word the delta emptied. Query code is
/// oblivious — it only ever sees contiguous `&WordPathIndex` borrows, and
/// with an empty patch map every read goes straight to the base.
pub struct IndexShard {
    base: Arc<WordStore>,
    patched: FxHashMap<WordId, Option<Arc<WordPathIndex>>>,
    /// Maintained as base − shadowed + patched, so neither count ever
    /// scans (or, on an opened image, decodes) a list.
    num_words: usize,
    num_postings: usize,
}

impl IndexShard {
    pub(crate) fn new(base: WordStore) -> Self {
        IndexShard {
            num_words: base.num_words(),
            num_postings: base.num_postings(),
            base: Arc::new(base),
            patched: FxHashMap::default(),
        }
    }

    /// The next version of this shard: the same base and every patched
    /// word not named in `rebuilt` shared by `Arc`, each `(word, list)` of
    /// `rebuilt` shadowing whatever the word held before (`None` = the
    /// word has no postings left).
    pub(crate) fn patch(&self, rebuilt: Vec<(WordId, Option<WordPathIndex>)>) -> Self {
        let mut next = IndexShard {
            base: Arc::clone(&self.base),
            patched: self.patched.clone(),
            num_words: self.num_words,
            num_postings: self.num_postings,
        };
        for (w, widx) in rebuilt {
            if let Some(old_len) = self.word_len(w) {
                next.num_words -= 1;
                next.num_postings -= old_len;
            }
            if let Some(new) = &widx {
                next.num_words += 1;
                next.num_postings += new.len();
            }
            if widx.is_none() && self.base.word_len(w).is_none() {
                // Nothing left to shadow.
                next.patched.remove(&w);
            } else {
                next.patched.insert(w, widx.map(Arc::new));
            }
        }
        next
    }

    /// The per-word index for `w` within this shard; `None` when no root in
    /// the shard's range reaches the word.
    pub fn word(&self, w: WordId) -> Option<&WordPathIndex> {
        match self.patched.get(&w) {
            Some(patch) => patch.as_deref(),
            None => self.base.word(w),
        }
    }

    /// Whether this shard has postings for `w` (never decodes).
    pub fn contains(&self, w: WordId) -> bool {
        self.word_len(w).is_some()
    }

    /// Number of postings `w` holds in this shard, from metadata (never
    /// decodes); `None` when the shard has none.
    fn word_len(&self, w: WordId) -> Option<usize> {
        match self.patched.get(&w) {
            Some(patch) => patch.as_ref().map(|p| p.len()),
            None => self.base.word_len(w),
        }
    }

    /// All word ids with postings in this shard, ascending.
    pub fn word_ids(&self) -> Vec<WordId> {
        let mut ids = self.base.word_ids();
        if !self.patched.is_empty() {
            ids.retain(|w| !self.patched.contains_key(w));
            ids.extend(
                self.patched
                    .iter()
                    .filter(|(_, patch)| patch.is_some())
                    .map(|(&w, _)| w),
            );
            ids.sort_unstable();
        }
        ids
    }

    /// Iterate all `(word, index)` pairs of this shard, in ascending word
    /// order. Over an opened image this decodes every base word it visits
    /// (the image writer's and the full refresh's path); words whose
    /// streams are damaged are skipped here — queries surface them as
    /// typed errors via [`PathIndexes::prepare_words`] instead.
    pub fn iter_words(&self) -> impl Iterator<Item = (WordId, &WordPathIndex)> {
        self.word_ids()
            .into_iter()
            .filter_map(move |w| self.word(w).map(|idx| (w, idx)))
    }

    /// Number of words with postings in this shard.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Total postings in this shard.
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Approximate resident bytes of this shard: the base (for an opened
    /// image only what has been decoded so far, not the image bytes) plus
    /// the patched words. A base shared with other versions is counted in
    /// each of them.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self
                .patched
                .values()
                .flatten()
                .map(|w| w.heap_bytes())
                .sum::<usize>()
    }

    /// Ensure `w` is decoded and usable, surfacing a damaged image
    /// stream as its typed error. No-op for words already decoded.
    pub fn prepare(&self, w: WordId) -> Result<(), patternkb_graph::snapshot::SnapshotError> {
        if self.patched.contains_key(&w) {
            return Ok(());
        }
        self.base.prepare(w)
    }
}

/// All index shards plus the shared pattern set: the queryable handle
/// produced by [`crate::build::build_indexes`].
///
/// The index is partitioned into `S` shards by **root-node range**: shard
/// `s` owns every posting whose root id lies in
/// `bounds[s] .. bounds[s + 1]` (the last bound is `u32::MAX`, so nodes
/// added later by [`crate::incremental`] land in the last shard). Shards
/// are independent — no posting spans two shards — which is what lets the
/// query algorithms run one contention-free worker per shard and merge at
/// the top-k heap.
pub struct PathIndexes {
    /// Height threshold `d` the index was built for.
    d: usize,
    /// Shared by every version that interned no new pattern.
    patterns: Arc<PatternSet>,
    /// Shard boundaries, length `num_shards() + 1`; `bounds[0] == 0` and
    /// `bounds[S] == u32::MAX`.
    bounds: Vec<u32>,
    shards: Vec<IndexShard>,
}

impl PathIndexes {
    pub(crate) fn new(
        d: usize,
        patterns: Arc<PatternSet>,
        bounds: Vec<u32>,
        shards: Vec<IndexShard>,
    ) -> Self {
        debug_assert_eq!(bounds.len(), shards.len() + 1);
        debug_assert_eq!(bounds.first(), Some(&0));
        debug_assert_eq!(bounds.last(), Some(&u32::MAX));
        PathIndexes {
            d,
            patterns,
            bounds,
            shards,
        }
    }

    /// The height threshold `d` this index supports.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The shared pattern interner.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The pattern interner's shared handle (a refresh that interns
    /// nothing hands it on).
    pub(crate) fn patterns_shared(&self) -> &Arc<PatternSet> {
        &self.patterns
    }

    /// Number of root-range shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in ascending root-range order.
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// The shard boundaries (length `num_shards() + 1`).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The shard owning `root`.
    pub fn shard_of_root(&self, root: NodeId) -> usize {
        (self.bounds.partition_point(|&b| b <= root.0) - 1).min(self.shards.len() - 1)
    }

    /// The per-word index for `w` — **single-shard indexes only** (the
    /// pre-shard API, kept for tests and tools that build with
    /// `shards: 1`). Query code must go through the per-shard views.
    ///
    /// # Panics
    /// If the index has more than one shard.
    pub fn word(&self, w: WordId) -> Option<&WordPathIndex> {
        assert_eq!(
            self.shards.len(),
            1,
            "PathIndexes::word() requires a single-shard index; use word_in()"
        );
        self.shards[0].word(w)
    }

    /// The per-word index for `w` within shard `s`.
    pub fn word_in(&self, s: usize, w: WordId) -> Option<&WordPathIndex> {
        self.shards[s].word(w)
    }

    /// Whether any shard has postings for `w`. `false` means the word never
    /// occurs within distance `d` of any root (which, since every node is a
    /// root of its own trivial path, means the word is absent from the KB).
    pub fn has_word(&self, w: WordId) -> bool {
        self.shards.iter().any(|s| s.contains(w))
    }

    /// All distinct word ids with postings, ascending.
    pub fn word_ids(&self) -> Vec<WordId> {
        let mut ids: Vec<WordId> = self.shards.iter().flat_map(|s| s.word_ids()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of distinct indexed words (across all shards).
    pub fn num_words(&self) -> usize {
        self.word_ids().len()
    }

    /// Total postings over all words and shards.
    pub fn num_postings(&self) -> usize {
        self.shards.iter().map(IndexShard::num_postings).sum()
    }

    /// Word lists shadowing their shard's base, summed over shards: how
    /// far this version has drifted from its persisted image (0 right
    /// after a build, load or full refresh). An operator watches this to
    /// decide on a checkpoint + reload, which folds the patches into a
    /// fresh image.
    pub fn num_patched_words(&self) -> usize {
        self.shards.iter().map(|s| s.patched.len()).sum()
    }

    /// Approximate resident bytes of everything (for an opened image:
    /// only what has been decoded so far, not the image bytes).
    pub fn heap_bytes(&self) -> usize {
        self.patterns.heap_bytes()
            + self
                .shards
                .iter()
                .map(IndexShard::heap_bytes)
                .sum::<usize>()
    }

    /// Approximate heap bytes the index keeps resident: [`Self::heap_bytes`]
    /// plus each image buffer read into memory (the heap tier's snapshot,
    /// a checkpoint's file), counted once. A mapped image's pages belong
    /// to the page cache and are not counted.
    pub fn resident_bytes(&self) -> usize {
        self.heap_bytes() + self.regions().iter().map(|r| r.heap_len()).sum::<usize>()
    }

    /// Which storage tier backs the shards, read off their bytes:
    /// [`StorageBackend::Mmap`] iff a shard's base reads a file mapping.
    /// An index built in memory, or one whose last full refresh replaced
    /// every base, is [`StorageBackend::Heap`].
    pub fn storage_backend(&self) -> StorageBackend {
        if self.regions().iter().any(|r| r.is_file_mapping()) {
            StorageBackend::Mmap
        } else {
            StorageBackend::Heap
        }
    }

    /// The distinct images the shards' bases read from (one per open).
    fn regions(&self) -> Vec<&Arc<Region>> {
        let mut regions: Vec<&Arc<Region>> =
            self.shards.iter().filter_map(|s| s.base.region()).collect();
        regions.sort_by_key(|r| Arc::as_ptr(r));
        regions.dedup_by(|a, b| Arc::ptr_eq(a, b));
        regions
    }

    /// Ensure every listed word is decoded in every shard that holds it,
    /// surfacing the first damaged image stream as its typed error
    /// (with the byte offset of the damage). Queries call this up front
    /// so corruption is reported, not silently treated as a missing
    /// word. No-op for an index built in memory.
    pub fn prepare_words(
        &self,
        words: &[WordId],
    ) -> Result<(), patternkb_graph::snapshot::SnapshotError> {
        for &w in words {
            for s in &self.shards {
                s.prepare(w)?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for PathIndexes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PathIndexes {{ d: {}, shards: {}, words: {}, postings: {}, patterns: {} }}",
            self.d,
            self.shards.len(),
            self.num_words(),
            self.num_postings(),
            self.patterns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posting(pattern: u32, root: u32, start: u32, len: u16) -> Posting {
        Posting {
            pattern: PatternId(pattern),
            root: NodeId(root),
            nodes_start: start,
            nodes_len: len,
            edge_terminal: false,
            pagerank: 1.0,
            sim: 1.0,
        }
    }

    fn sample() -> WordPathIndex {
        // Arena: [n0, n1 | n2 | n3, n4]
        let arena = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let postings = vec![
            posting(2, 0, 0, 2), // pattern 2, root 0
            posting(1, 2, 2, 1), // pattern 1, root 2
            posting(2, 3, 3, 2), // pattern 2, root 3
        ];
        WordPathIndex::new(postings, arena)
    }

    #[test]
    fn pattern_first_access() {
        let idx = sample();
        let pats: Vec<_> = idx.patterns().collect();
        assert_eq!(pats, vec![PatternId(1), PatternId(2)]);
        assert_eq!(idx.roots_of_pattern(PatternId(2)), &[0, 3]);
        assert_eq!(idx.roots_of_pattern(PatternId(9)), &[] as &[u32]);
        let paths = idx.paths_of_pattern_root(PatternId(2), NodeId(3));
        assert_eq!(paths.len(), 1);
        assert_eq!(idx.nodes_of(&paths[0]), &[NodeId(3), NodeId(4)]);
    }

    #[test]
    fn root_first_access() {
        let idx = sample();
        assert_eq!(idx.roots(), &[0, 2, 3]);
        assert_eq!(idx.patterns_of_root(NodeId(0)), &[2]);
        assert_eq!(idx.patterns_of_root(NodeId(7)), &[] as &[u32]);
        assert_eq!(idx.num_paths_of_root(NodeId(2)), 1);
        assert_eq!(idx.num_paths_of_root(NodeId(9)), 0);
        let runs: Vec<_> = idx
            .root_runs(NodeId(0))
            .map(|(p, ps)| (p, ps.len()))
            .collect();
        assert_eq!(runs, vec![(PatternId(2), 1)]);
    }

    #[test]
    fn both_orders_hold_same_postings() {
        let idx = sample();
        assert_eq!(idx.len(), 3);
        let mut via_pattern: Vec<_> = idx
            .patterns()
            .flat_map(|p| idx.paths_of_pattern(p).to_vec())
            .collect();
        let mut via_root: Vec<_> = idx
            .roots()
            .iter()
            .flat_map(|&r| idx.root_runs(NodeId(r)).flat_map(|(_, ps)| ps.to_vec()))
            .collect();
        let key = |p: &Posting| (p.pattern.0, p.root.0, p.nodes_start);
        via_pattern.sort_unstable_by_key(key);
        via_root.sort_unstable_by_key(key);
        assert_eq!(via_pattern, via_root);
    }

    #[test]
    fn pattern_stats_match_postings() {
        let idx = sample();
        assert_eq!(idx.pattern_stats().len(), 2);
        // Pattern 2 (position 1) has two postings, one per root.
        let prim = idx.pattern_primary(PatternId(2)).unwrap();
        let s = idx.pattern_stats()[prim];
        assert_eq!(s.num_paths, 2);
        assert_eq!(s.max_per_root, 1);
        assert_eq!(s.min_len, 2.0);
        assert_eq!(s.max_len, 2.0);
        assert_eq!(idx.pattern_at(prim), PatternId(2));
    }

    #[test]
    fn type_groups_partition_patterns() {
        use crate::pattern::PatternSet;
        let idx = sample();
        // `sample()` uses pattern ids 1 and 2; intern three single-node
        // keys (`[l << 1, root_type]`) so those ids resolve, with distinct
        // root types for ids 1 and 2.
        let mut ps = PatternSet::new();
        ps.intern_key(&[2, 5]); // id 0, unused by sample()
        ps.intern_key(&[2, 9]); // id 1 → root type 9
        ps.intern_key(&[2, 7]); // id 2 → root type 7
        let groups = idx.pattern_type_groups(&ps);
        // Patterns 1 and 2 of `sample()` resolve through `ps`:
        // all groups together must cover every pattern exactly once.
        assert_eq!(groups.num_patterns(), 2);
        assert_eq!(groups.iter().map(|g| g.patterns.len()).sum::<usize>(), 2);
        for g in groups.iter() {
            for (x, &p) in g.patterns.iter().enumerate() {
                assert_eq!(idx.pattern_at(g.prim(x, 0) as usize), p);
                assert_eq!(ps.root_type(p), g.root_type);
            }
            assert_eq!(groups.find(g.root_type).unwrap().patterns, g.patterns);
        }
        assert!(groups.find(TypeId(5)).is_none(), "type of the unused id 0");
        // Ascending by type.
        let types: Vec<TypeId> = groups.iter().map(|g| g.root_type).collect();
        assert_eq!(types, vec![TypeId(7), TypeId(9)]);
        // Memoized: the same groups on the second call.
        assert!(std::ptr::eq(groups, idx.pattern_type_groups(&ps)));
    }

    #[test]
    fn heap_bytes_counts_memoised_type_groups() {
        let idx = sample();
        let cold = idx.heap_bytes();
        let mut ps = crate::pattern::PatternSet::new();
        for root_type in [5, 9, 7] {
            ps.intern_key(&[2, root_type]);
        }
        idx.pattern_type_groups(&ps);
        // Two single-pattern groups: 8 bytes per memoised pattern (its id
        // and its position), 4 per root type and 4 per range bound.
        assert_eq!(idx.heap_bytes(), cold + 2 * 8 + 2 * 4 + 3 * 4);
    }

    /// A refresh shares every list it does not rebuild with the previous
    /// version, memoised type groups included: the merged lists of an
    /// untouched word are assembled from the very same groups afterwards.
    #[test]
    fn refresh_keeps_the_memoised_groups_of_untouched_words() {
        use crate::build::{build_indexes, BuildConfig};
        use patternkb_graph::mutate::{GraphDelta, PagerankMode};
        use patternkb_graph::GraphBuilder;
        use patternkb_text::{SynonymTable, TextIndex};

        let mut b = GraphBuilder::new();
        let station = b.add_type("Station");
        let next = b.add_attr("next");
        let nodes: Vec<_> = (0..12)
            .map(|i| b.add_node(station, &format!("station stop{i}")))
            .collect();
        for pair in nodes.windows(2) {
            b.add_edge(pair[0], next, pair[1]);
        }
        let g = b.build();
        let text = TextIndex::build(&g, SynonymTable::new());
        let cfg = BuildConfig {
            d: 3,
            threads: 1,
            shards: 2,
        };
        let old = build_indexes(&g, &text, &cfg);
        let groups_of = |idx: &PathIndexes, s: usize, w: WordId| {
            let list = idx.word_in(s, w).expect("listed word");
            std::ptr::from_ref(list.pattern_type_groups(idx.patterns()))
        };
        let memoised: Vec<Vec<_>> = (0..old.num_shards())
            .map(|s| {
                let words = old.shards()[s].word_ids();
                words
                    .into_iter()
                    .map(|w| (w, groups_of(&old, s, w)))
                    .collect()
            })
            .collect();

        let mut d = GraphDelta::new(&g);
        let extra = d.add_node(station, "station stopextra").unwrap();
        d.add_edge(nodes[11], next, extra).unwrap();
        let g2 = d.apply(&g, PagerankMode::Frozen).unwrap();
        let text2 = TextIndex::build(&g2, SynonymTable::new());
        let (new, stats) = crate::incremental::refresh_indexes(
            &old,
            &g,
            &g2,
            &text,
            &text2,
            &d.dirty_nodes(),
            false,
        );

        let (mut shared, mut rebuilt) = (0, 0);
        for (s, words) in memoised.iter().enumerate() {
            for &(w, groups) in words {
                let (before, after) = (old.word_in(s, w), new.word_in(s, w));
                if std::ptr::eq(before.unwrap(), after.expect("nothing was removed")) {
                    assert_eq!(groups_of(&new, s, w), groups, "shard {s}, word {w:?}");
                    shared += 1;
                } else {
                    rebuilt += 1;
                }
            }
        }
        assert!(
            shared > 0,
            "the head of the chain is out of the delta's reach"
        );
        assert!(rebuilt > 0, "the tail's lists were rebuilt");
        assert!(rebuilt <= stats.words_rebuilt);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The merged lists of every word of a random multi-shard
            /// index: per root type the sorted union of the shards'
            /// patterns, each with the position it has in each shard.
            #[test]
            fn merged_type_groups_are_the_union_of_the_shards(
                seed in 0u64..1000,
                shards in 1usize..5,
            ) {
                use patternkb_datagen::wiki::{wiki, WikiConfig};
                use std::collections::{BTreeMap, BTreeSet};
                let g = wiki(&WikiConfig { entities: 150, ..WikiConfig::tiny(seed) });
                let text = patternkb_text::TextIndex::build(
                    &g,
                    patternkb_text::SynonymTable::new(),
                );
                let cfg = crate::build::BuildConfig { d: 2, threads: 1, shards };
                let idx = crate::build::build_indexes(&g, &text, &cfg);
                for w in idx.word_ids() {
                    let lists: Vec<Option<&WordPathIndex>> =
                        idx.shards().iter().map(|s| s.word(w)).collect();
                    let mut expected: BTreeMap<TypeId, BTreeSet<PatternId>> = BTreeMap::new();
                    for p in lists.iter().flatten().flat_map(|list| list.patterns()) {
                        expected.entry(idx.patterns().root_type(p)).or_default().insert(p);
                    }
                    let merged = merge_type_groups(&lists, idx.patterns());
                    prop_assert_eq!(merged.len(), expected.len());
                    let total: usize = expected.values().map(BTreeSet::len).sum();
                    prop_assert_eq!(merged.num_patterns(), total);
                    for (group, (&root_type, ids)) in merged.iter().zip(&expected) {
                        prop_assert_eq!(group.root_type, root_type);
                        let ids: Vec<PatternId> = ids.iter().copied().collect();
                        prop_assert_eq!(group.patterns, &ids[..]);
                        for (x, &p) in ids.iter().enumerate() {
                            for (s, list) in lists.iter().enumerate() {
                                let here = list.and_then(|list| list.pattern_primary(p));
                                let prim = group.prim(x, s);
                                let merged_here =
                                    (prim != PatternTypeGroup::ABSENT).then_some(prim as usize);
                                prop_assert_eq!(merged_here, here);
                                if let (Some(list), Some(prim)) = (list, merged_here) {
                                    prop_assert_eq!(list.pattern_at(prim), p);
                                }
                            }
                        }
                    }
                    if let [Some(only)] = lists[..] {
                        let memo = only.pattern_type_groups(idx.patterns());
                        prop_assert!(std::ptr::eq(&*merged, memo), "one shard: borrowed");
                    }
                }
            }

            /// The root-first accessors against the representation they
            /// replaced: a second copy of the postings sorted by
            /// `(root, pattern, nodes_start)`. Small key ranges force
            /// duplicate `(pattern, root)` pairs; `npat = 1` and
            /// `nroot = 1` give the single-pattern and single-root lists.
            #[test]
            fn root_directory_equals_a_root_sorted_copy(
                (npat, nroot) in (1u32..6, 1u32..6),
                raw in proptest::collection::vec((0u32..6, 0u32..6), 0..60),
            ) {
                let postings: Vec<Posting> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, r))| posting(p % npat, r % nroot, i as u32, 1))
                    .collect();
                let arena = vec![NodeId(0); postings.len()];
                let mut sorted = postings.clone();
                sorted.sort_unstable_by_key(|p| (p.root.0, p.pattern.0, p.nodes_start));
                let idx = WordPathIndex::new(postings, arena);

                let mut roots: Vec<u32> = sorted.iter().map(|p| p.root.0).collect();
                roots.dedup();
                prop_assert_eq!(idx.roots(), &roots[..]);
                // Present roots, plus one past the range (absent).
                for r in 0..=nroot {
                    let root = NodeId(r);
                    let of_root: Vec<Posting> =
                        sorted.iter().filter(|p| p.root.0 == r).copied().collect();
                    let mut pats: Vec<u32> = of_root.iter().map(|p| p.pattern.0).collect();
                    pats.dedup();
                    prop_assert_eq!(idx.patterns_of_root(root), &pats[..]);
                    prop_assert_eq!(idx.num_paths_of_root(root), of_root.len());
                    let runs: Vec<(PatternId, Vec<Posting>)> = pats
                        .iter()
                        .map(|&p| {
                            let run = of_root.iter().filter(|x| x.pattern.0 == p).copied();
                            (PatternId(p), run.collect())
                        })
                        .collect();
                    let got: Vec<(PatternId, Vec<Posting>)> = idx
                        .root_runs(root)
                        .map(|(p, ps)| (p, ps.to_vec()))
                        .collect();
                    prop_assert_eq!(&got, &runs);
                    for p in 0..=npat {
                        let want: Vec<Posting> =
                            of_root.iter().filter(|x| x.pattern.0 == p).copied().collect();
                        prop_assert_eq!(idx.paths_of_root_pattern(root, PatternId(p)), &want[..]);
                    }
                }
            }
        }

        proptest! {
            /// A refresh's splice against the full freeze of the same
            /// postings: random base lists over `shards` root ranges,
            /// random affected roots (some in no list), random fresh runs
            /// on them (some under patterns the base lacks), with and
            /// without a PageRank re-read and a memoised grouping. Every
            /// field equals `new`'s on the spliced multiset — which is
            /// the base's unaffected postings plus the fresh ones — and
            /// the shards' merged groups are the same.
            #[test]
            fn spliced_list_equals_a_full_freeze(
                base_raw in proptest::collection::vec((0u32..6, 0u32..12, 1u16..4, 0usize..4), 0..80),
                fresh_raw in proptest::collection::vec((0u32..8, 0u32..12, 1u16..4, 0usize..4), 0..24),
                affected_mask in 0u32..1 << 12,
                shards in 1usize..4,
                reread in proptest::bool::ANY,
                memo in proptest::bool::ANY,
            ) {
                use patternkb_graph::GraphBuilder;
                const SCORES: [f64; 4] = [0.125, 0.25, 0.5, 1.0];
                // Twelve nodes on a chain, so their PageRanks differ.
                let mut b = GraphBuilder::new();
                let t = b.add_type("Stop");
                let next = b.add_attr("next");
                let nodes: Vec<NodeId> = (0..12).map(|i| b.add_node(t, &format!("s{i}"))).collect();
                for pair in nodes.windows(2) {
                    b.add_edge(pair[0], next, pair[1]);
                }
                let g = b.build();
                let mut ps = PatternSet::new();
                for id in 0..8u32 {
                    ps.intern_key(&[4, id % 3, 0, id]);
                }
                let affected: Vec<u32> = (0..12).filter(|r| affected_mask >> r & 1 == 1).collect();
                // A posting of `len` nodes from `root`; the matched node
                // (the last, or the second-to-last of an edge match) is
                // `root + len - 1` along the chain, wrapping.
                let make = |&(p, r, len, x): &(u32, u32, u16, usize), arena: &mut Vec<NodeId>| {
                    let start = arena.len() as u32;
                    arena.extend((0..u32::from(len)).map(|k| NodeId((r + k) % 12)));
                    let edge_terminal = x % 2 == 1 && len > 1;
                    let matched = arena[arena.len() - 1 - usize::from(edge_terminal)];
                    Posting {
                        pattern: PatternId(p),
                        root: NodeId(r),
                        nodes_start: start,
                        nodes_len: len,
                        edge_terminal,
                        pagerank: if reread { g.pagerank(matched) } else { SCORES[x] },
                        sim: SCORES[3 - x],
                    }
                };
                let bounds: Vec<u32> = (0..=shards as u32).map(|s| s * 12 / shards as u32).collect();
                let (mut spliced, mut frozen) = (Vec::new(), Vec::new());
                for s in 0..shards {
                    let range = bounds[s]..bounds[s + 1];
                    let (mut postings, mut arena) = (Vec::new(), Vec::new());
                    for raw in base_raw.iter().filter(|raw| range.contains(&raw.1)) {
                        let mut p = make(raw, &mut arena);
                        // Stale scores, which a re-read must replace.
                        p.pagerank = SCORES[raw.3];
                        postings.push(p);
                    }
                    let base = WordPathIndex::new(postings, arena);
                    if memo {
                        base.pattern_type_groups(&ps);
                    }
                    let (mut fresh, mut fresh_arena) = (Vec::new(), Vec::new());
                    for raw in fresh_raw.iter().filter(|raw| {
                        range.contains(&raw.1) && affected.binary_search(&raw.1).is_ok()
                    }) {
                        fresh.push(make(raw, &mut fresh_arena));
                    }
                    let list = WordPathIndex::freeze(
                        Some(Base {
                            list: &base,
                            affected: &affected,
                            reread_pagerank: reread.then_some(&g),
                        }),
                        fresh.clone(),
                        fresh_arena.clone(),
                    );

                    // The multiset: kept base postings (re-scored) + fresh.
                    let content = |list: &WordPathIndex, ps: &[Posting]| -> Vec<(u32, u32, Vec<NodeId>, bool, u64, u64)> {
                        let mut rows: Vec<_> = ps
                            .iter()
                            .map(|p| (p.pattern.0, p.root.0, list.nodes_of(p).to_vec(), p.edge_terminal, p.pagerank.to_bits(), p.sim.to_bits()))
                            .collect();
                        rows.sort();
                        rows
                    };
                    let mut want = content(&base, &[]);
                    for p in base.postings_pattern_first() {
                        if affected.binary_search(&p.root.0).is_err() {
                            let nodes = base.nodes_of(p);
                            let matched = nodes[nodes.len() - 1 - usize::from(p.edge_terminal)];
                            let pagerank = if reread { g.pagerank(matched) } else { p.pagerank };
                            want.push((p.pattern.0, p.root.0, nodes.to_vec(), p.edge_terminal, pagerank.to_bits(), p.sim.to_bits()));
                        }
                    }
                    let fresh_list = WordPathIndex::new(fresh, fresh_arena);
                    want.extend(content(&fresh_list, fresh_list.postings_pattern_first()));
                    want.sort();
                    prop_assert_eq!(content(&list, list.postings_pattern_first()), want);

                    // Field for field, against `new` on those postings.
                    let mut shuffled = list.postings_pattern_first().to_vec();
                    shuffled.reverse();
                    let full = WordPathIndex::new(shuffled, list.arena.clone());
                    prop_assert_eq!(&list.pattern_first, &full.pattern_first);
                    prop_assert_eq!(&list.root_first, &full.root_first);
                    let bits = |w: &WordPathIndex| -> Vec<[u64; 8]> {
                        w.pattern_stats
                            .iter()
                            .map(|s| [
                                u64::from(s.num_paths), u64::from(s.max_per_root),
                                s.min_len.to_bits(), s.max_len.to_bits(),
                                s.min_pr.to_bits(), s.max_pr.to_bits(),
                                s.min_sim.to_bits(), s.max_sim.to_bits(),
                            ])
                            .collect()
                    };
                    prop_assert_eq!(bits(&list), bits(&full));
                    // The base's arena is carried with the fresh nodes
                    // appended, unless a drop left dead nodes behind.
                    let live: usize = list.postings_pattern_first().iter().map(|p| p.nodes_len as usize).sum();
                    if list.len() < base.len() + fresh_list.len() {
                        prop_assert_eq!(list.arena.len(), live);
                    } else {
                        prop_assert_eq!(&list.arena[..base.arena.len()], &base.arena[..]);
                        prop_assert_eq!(list.arena.len(), base.arena.len() + fresh_list.arena.len());
                    }
                    // The grouping is carried exactly when it was memoised
                    // and the pattern keys stayed.
                    let same_keys = list.pattern_first.primary_keys() == base.pattern_first.primary_keys();
                    prop_assert_eq!(list.type_groups.get().is_some(), memo && same_keys);
                    if let Some(carried) = list.type_groups.get() {
                        prop_assert_eq!(carried, full.pattern_type_groups(&ps));
                    }
                    spliced.push(list);
                    frozen.push(full);
                }
                fn as_lists(lists: &[WordPathIndex]) -> Vec<Option<&WordPathIndex>> {
                    lists.iter().map(|l| (!l.is_empty()).then_some(l)).collect()
                }
                prop_assert_eq!(
                    &*merge_type_groups(&as_lists(&spliced), &ps),
                    &*merge_type_groups(&as_lists(&frozen), &ps)
                );
            }
        }
    }
}
