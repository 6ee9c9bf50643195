//! Two-level grouped posting storage, and the root directory over it.
//!
//! Every posting is stored once, in the pattern-first order of Figure
//! 4(a): sorted by `(pattern, root)` — the primary and secondary key of
//! [`GroupedPostings`] — with offset arrays for both levels, so a pattern-
//! first access method of §3 is: binary-search the pattern, optionally
//! binary-search the root inside its run range, return a slice.
//!
//! The root-first order of Figure 4(b) holds the same `(pattern, root)`
//! runs under the transposed key, and a run's postings are in the same
//! order either way — so `RootDirectory` transposes only the run
//! *directory* (the paper's "pointers pointing to the beginning of a list
//! of paths") and its access methods hand out slices of the one
//! pattern-first array.

use crate::posting::Posting;

/// Postings grouped by `(primary, secondary)` = `(pattern, root)` keys.
///
/// Invariants (checked in debug builds by [`GroupedPostings::validate`]):
/// * `g1_keys` is strictly increasing;
/// * within each level-1 group, its level-2 run keys are strictly
///   increasing;
/// * run offsets partition `postings` contiguously.
#[derive(Clone, Debug, Default)]
pub struct GroupedPostings {
    /// All postings, sorted by `(primary, secondary)`.
    postings: Vec<Posting>,
    /// Distinct primary keys, ascending.
    g1_keys: Vec<u32>,
    /// For level-1 group `i`, its level-2 runs are
    /// `g2_keys[g1_run_start[i] .. g1_run_start[i+1]]`. Length
    /// `g1_keys.len() + 1`.
    g1_run_start: Vec<u32>,
    /// Secondary key of each run.
    g2_keys: Vec<u32>,
    /// Posting range of run `j` is `g2_post_start[j] .. g2_post_start[j+1]`.
    /// Length `g2_keys.len() + 1`.
    g2_post_start: Vec<u32>,
}

impl GroupedPostings {
    /// Build from postings already sorted by `(pattern, root)`.
    pub fn from_sorted(postings: Vec<Posting>) -> Self {
        let primary = |p: &Posting| p.pattern.0;
        let secondary = |p: &Posting| p.root.0;
        let mut g1_keys = Vec::new();
        let mut g1_run_start = vec![0u32];
        let mut g2_keys = Vec::new();
        let mut g2_post_start = vec![0u32];
        let mut i = 0;
        while i < postings.len() {
            let pk = primary(&postings[i]);
            g1_keys.push(pk);
            while i < postings.len() && primary(&postings[i]) == pk {
                let sk = secondary(&postings[i]);
                g2_keys.push(sk);
                while i < postings.len()
                    && primary(&postings[i]) == pk
                    && secondary(&postings[i]) == sk
                {
                    i += 1;
                }
                g2_post_start.push(i as u32);
            }
            g1_run_start.push(g2_keys.len() as u32);
        }
        let out = GroupedPostings {
            postings,
            g1_keys,
            g1_run_start,
            g2_keys,
            g2_post_start,
        };
        debug_assert!(out.validate());
        out
    }

    /// All postings in `(primary, secondary)` order.
    #[inline]
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Distinct primary keys, ascending.
    #[inline]
    pub fn primary_keys(&self) -> &[u32] {
        &self.g1_keys
    }

    /// Index of a primary key, if present.
    #[inline]
    pub fn find_primary(&self, key: u32) -> Option<usize> {
        self.g1_keys.binary_search(&key).ok()
    }

    /// Distinct secondary keys under the `i`-th primary group, ascending.
    pub fn secondary_keys(&self, i: usize) -> &[u32] {
        let lo = self.g1_run_start[i] as usize;
        let hi = self.g1_run_start[i + 1] as usize;
        &self.g2_keys[lo..hi]
    }

    /// All postings under the `i`-th primary group.
    pub fn group_postings(&self, i: usize) -> &[Posting] {
        let run_lo = self.g1_run_start[i] as usize;
        let run_hi = self.g1_run_start[i + 1] as usize;
        let lo = self.g2_post_start[run_lo] as usize;
        let hi = self.g2_post_start[run_hi] as usize;
        &self.postings[lo..hi]
    }

    /// Postings of the run with secondary key `sec` inside the `i`-th
    /// primary group; empty if absent.
    pub fn run_postings(&self, i: usize, sec: u32) -> &[Posting] {
        let run_lo = self.g1_run_start[i] as usize;
        let run_hi = self.g1_run_start[i + 1] as usize;
        match self.g2_keys[run_lo..run_hi].binary_search(&sec) {
            Ok(off) => {
                let j = run_lo + off;
                let lo = self.g2_post_start[j] as usize;
                let hi = self.g2_post_start[j + 1] as usize;
                &self.postings[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Iterate `(secondary key, postings)` runs of the `i`-th primary group.
    pub fn runs(&self, i: usize) -> impl Iterator<Item = (u32, &[Posting])> {
        let run_lo = self.g1_run_start[i] as usize;
        let run_hi = self.g1_run_start[i + 1] as usize;
        (run_lo..run_hi).map(move |j| {
            let lo = self.g2_post_start[j] as usize;
            let hi = self.g2_post_start[j + 1] as usize;
            (self.g2_keys[j], &self.postings[lo..hi])
        })
    }

    /// A seekable cursor over the `i`-th primary group's runs — the
    /// fused-join primitive: leapfrogging several groups' cursors by
    /// secondary key intersects their key sets **and** lands directly on
    /// each matching run's posting slice, with no per-match binary search.
    pub fn run_cursor(&self, i: usize) -> RunCursor<'_> {
        let run_lo = self.g1_run_start[i] as usize;
        let run_hi = self.g1_run_start[i + 1] as usize;
        RunCursor {
            keys: &self.g2_keys[run_lo..run_hi],
            starts: &self.g2_post_start[run_lo..=run_hi],
            postings: &self.postings,
            pos: 0,
        }
    }

    /// Number of distinct primary keys.
    pub fn num_primary(&self) -> usize {
        self.g1_keys.len()
    }

    /// Total number of postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether there are no postings.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Approximate resident bytes.
    pub fn heap_bytes(&self) -> usize {
        self.postings.len() * std::mem::size_of::<Posting>()
            + (self.g1_keys.len()
                + self.g1_run_start.len()
                + self.g2_keys.len()
                + self.g2_post_start.len())
                * 4
    }

    /// Check the structural invariants (used in debug assertions/tests).
    pub fn validate(&self) -> bool {
        if self.g1_run_start.len() != self.g1_keys.len() + 1 {
            return false;
        }
        if self.g2_post_start.len() != self.g2_keys.len() + 1 {
            return false;
        }
        if self.g1_keys.windows(2).any(|w| w[0] >= w[1]) {
            return false;
        }
        for i in 0..self.g1_keys.len() {
            let runs = self.secondary_keys(i);
            if runs.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
        }
        self.g2_post_start.last().copied().unwrap_or(0) as usize == self.postings.len()
    }
}

/// Where one `(root, pattern)` run's postings sit in the pattern-first
/// array. Offset and length live side by side: a root's runs are scattered
/// over the array, so walking them reads one descriptor per run, not two
/// columns.
#[derive(Clone, Copy, Debug)]
struct RunSpan {
    start: u32,
    len: u32,
}

/// The root-first order of Figure 4(b) as a directory over a pattern-first
/// [`GroupedPostings`]: the same runs keyed `(root, pattern)`, each
/// pointing at its postings in that array. The accessors take the array
/// (`GroupedPostings::postings` of the list the directory was built from)
/// and return contiguous slices of it.
#[derive(Clone, Debug, Default)]
pub(crate) struct RootDirectory {
    /// Distinct roots, ascending.
    roots: Vec<u32>,
    /// Root `i` owns runs `run_start[i] .. run_start[i + 1]`. Length
    /// `roots.len() + 1`.
    run_start: Vec<u32>,
    /// Root `i` owns `paths_before[i + 1] - paths_before[i]` postings.
    /// Length `roots.len() + 1`.
    paths_before: Vec<u32>,
    /// Pattern of each run, ascending within a root.
    patterns: Vec<u32>,
    /// Posting range of each run, parallel to `patterns`.
    spans: Vec<RunSpan>,
}

impl RootDirectory {
    /// Transpose `pattern_first`'s run directory: one pass over its runs,
    /// then a sort of the run descriptors — never of the postings.
    pub(crate) fn build(pattern_first: &GroupedPostings) -> Self {
        let mut runs: Vec<(u32, u32, RunSpan)> = Vec::with_capacity(pattern_first.g2_keys.len());
        for (i, &pattern) in pattern_first.g1_keys.iter().enumerate() {
            let lo = pattern_first.g1_run_start[i] as usize;
            let hi = pattern_first.g1_run_start[i + 1] as usize;
            for j in lo..hi {
                let start = pattern_first.g2_post_start[j];
                let len = pattern_first.g2_post_start[j + 1] - start;
                runs.push((pattern_first.g2_keys[j], pattern, RunSpan { start, len }));
            }
        }
        // `(root, pattern)` pairs are distinct, so an unstable sort is exact.
        runs.sort_unstable_by_key(|&(root, pattern, _)| (root, pattern));

        let mut dir = RootDirectory {
            patterns: Vec::with_capacity(runs.len()),
            spans: Vec::with_capacity(runs.len()),
            ..RootDirectory::default()
        };
        let mut paths = 0u32;
        for &(root, pattern, span) in &runs {
            if dir.roots.last() != Some(&root) {
                dir.roots.push(root);
                dir.run_start.push(dir.patterns.len() as u32);
                dir.paths_before.push(paths);
            }
            dir.patterns.push(pattern);
            dir.spans.push(span);
            paths += span.len;
        }
        dir.run_start.push(runs.len() as u32);
        dir.paths_before.push(paths);
        dir
    }

    /// Distinct roots, ascending.
    #[inline]
    pub(crate) fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The run range of `root`; empty if absent.
    #[inline]
    fn runs_of(&self, root: u32) -> std::ops::Range<usize> {
        match self.find(root) {
            Some(i) => self.run_start[i] as usize..self.run_start[i + 1] as usize,
            None => 0..0,
        }
    }

    /// Position of `root` in the directory, if present.
    #[inline]
    fn find(&self, root: u32) -> Option<usize> {
        self.roots.binary_search(&root).ok()
    }

    #[inline]
    fn slice<'a>(&self, postings: &'a [Posting], j: usize) -> &'a [Posting] {
        let RunSpan { start, len } = self.spans[j];
        &postings[start as usize..(start + len) as usize]
    }

    /// Patterns through which `root` is reached, ascending.
    pub(crate) fn patterns_of(&self, root: u32) -> &[u32] {
        &self.patterns[self.runs_of(root)]
    }

    /// Number of postings under `root`, without visiting its runs.
    pub(crate) fn num_paths_of(&self, root: u32) -> usize {
        self.find(root).map_or(0, |i| {
            (self.paths_before[i + 1] - self.paths_before[i]) as usize
        })
    }

    /// Postings of the `(root, pattern)` run; empty if absent.
    pub(crate) fn run<'a>(
        &self,
        postings: &'a [Posting],
        root: u32,
        pattern: u32,
    ) -> &'a [Posting] {
        let runs = self.runs_of(root);
        match self.patterns[runs.clone()].binary_search(&pattern) {
            Ok(off) => self.slice(postings, runs.start + off),
            Err(_) => &[],
        }
    }

    /// Iterate `(pattern, postings)` runs of `root`, ascending by pattern.
    pub(crate) fn runs<'a>(
        &'a self,
        postings: &'a [Posting],
        root: u32,
    ) -> impl Iterator<Item = (u32, &'a [Posting])> {
        self.runs_of(root)
            .map(move |j| (self.patterns[j], self.slice(postings, j)))
    }

    /// Approximate resident bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.roots.len() + self.run_start.len() + self.paths_before.len() + self.patterns.len())
            * 4
            + self.spans.len() * std::mem::size_of::<RunSpan>()
    }
}

/// Forward cursor over a word's root-first directory: the root-first
/// access methods for callers that visit roots in ascending order (the
/// candidate roots of a query), galloping from the previous root instead
/// of binary-searching the whole directory per root. `seek` targets must
/// be non-decreasing; the other methods read the root the last successful
/// `seek` landed on.
pub struct RootCursor<'a> {
    dir: &'a RootDirectory,
    /// The pattern-first array the directory's spans index into.
    postings: &'a [Posting],
    pos: usize,
}

impl<'a> RootCursor<'a> {
    pub(crate) fn new(dir: &'a RootDirectory, postings: &'a [Posting]) -> Self {
        RootCursor {
            dir,
            postings,
            pos: 0,
        }
    }

    /// Move to `root`; `false` when the word has no path from it.
    #[inline]
    pub fn seek(&mut self, root: u32) -> bool {
        debug_assert!(self.pos == 0 || self.dir.roots[self.pos - 1] < root);
        self.pos = crate::cursor::gallop_lower_bound(&self.dir.roots, self.pos, root);
        self.dir.roots.get(self.pos) == Some(&root)
    }

    /// `|Paths(w, r)|` of the current root.
    #[inline]
    pub fn num_paths(&self) -> usize {
        (self.dir.paths_before[self.pos + 1] - self.dir.paths_before[self.pos]) as usize
    }

    /// `(pattern, paths)` runs of the current root, ascending by pattern.
    #[inline]
    pub fn runs(&self) -> impl Iterator<Item = (u32, &'a [Posting])> {
        let (dir, postings) = (self.dir, self.postings);
        let runs = dir.run_start[self.pos] as usize..dir.run_start[self.pos + 1] as usize;
        runs.map(move |j| (dir.patterns[j], dir.slice(postings, j)))
    }
}

/// Forward cursor over one primary group's `(secondary key, postings)`
/// runs, with galloping skip-ahead by secondary key. `seek` targets must
/// be non-decreasing; it positions the cursor **at** the found run (peek
/// semantics), so [`RunCursor::postings`] returns that run's slice in
/// O(1).
pub struct RunCursor<'a> {
    /// Secondary keys of the group's runs, ascending.
    keys: &'a [u32],
    /// Posting-range starts; run `j` spans `starts[j] .. starts[j + 1]`.
    starts: &'a [u32],
    /// The whole posting array the starts index into.
    postings: &'a [Posting],
    pos: usize,
}

impl<'a> RunCursor<'a> {
    /// The least run key `≥ target` at or after the current position,
    /// without consuming it. Gallops from the current position.
    #[inline]
    pub fn seek(&mut self, target: u32) -> Option<u32> {
        self.pos = crate::cursor::gallop_lower_bound(self.keys, self.pos, target);
        self.keys.get(self.pos).copied()
    }

    /// Advance past the current run, returning the next run's key.
    #[inline]
    pub fn advance(&mut self) -> Option<u32> {
        self.pos += 1;
        self.keys.get(self.pos).copied()
    }

    /// The current run's postings (valid after a successful
    /// `seek`/`advance`).
    #[inline]
    pub fn postings(&self) -> &'a [Posting] {
        let lo = self.starts[self.pos] as usize;
        let hi = self.starts[self.pos + 1] as usize;
        &self.postings[lo..hi]
    }

    /// Runs not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.keys.len().saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternId;
    use patternkb_graph::NodeId;

    fn posting(pattern: u32, root: u32) -> Posting {
        Posting {
            pattern: PatternId(pattern),
            root: NodeId(root),
            nodes_start: 0,
            nodes_len: 1,
            edge_terminal: false,
            pagerank: 0.0,
            sim: 0.0,
        }
    }

    fn sample() -> GroupedPostings {
        // Sorted by (pattern, root).
        let postings = vec![
            posting(1, 5),
            posting(1, 5),
            posting(1, 9),
            posting(3, 2),
            posting(3, 5),
            posting(3, 5),
            posting(3, 5),
        ];
        GroupedPostings::from_sorted(postings)
    }

    #[test]
    fn structure() {
        let g = sample();
        assert!(g.validate());
        assert_eq!(g.primary_keys(), &[1, 3]);
        assert_eq!(g.num_primary(), 2);
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn group_access() {
        let g = sample();
        let i1 = g.find_primary(1).unwrap();
        assert_eq!(g.secondary_keys(i1), &[5, 9]);
        assert_eq!(g.group_postings(i1).len(), 3);
        let i3 = g.find_primary(3).unwrap();
        assert_eq!(g.secondary_keys(i3), &[2, 5]);
        assert_eq!(g.group_postings(i3).len(), 4);
        assert_eq!(g.find_primary(2), None);
    }

    #[test]
    fn run_access() {
        let g = sample();
        let i3 = g.find_primary(3).unwrap();
        assert_eq!(g.run_postings(i3, 5).len(), 3);
        assert_eq!(g.run_postings(i3, 2).len(), 1);
        assert!(g.run_postings(i3, 7).is_empty());
    }

    #[test]
    fn runs_iteration() {
        let g = sample();
        let i1 = g.find_primary(1).unwrap();
        let runs: Vec<(u32, usize)> = g.runs(i1).map(|(k, ps)| (k, ps.len())).collect();
        assert_eq!(runs, vec![(5, 2), (9, 1)]);
    }

    #[test]
    fn empty() {
        let g = GroupedPostings::from_sorted(vec![]);
        assert!(g.validate());
        assert!(g.is_empty());
        assert_eq!(g.find_primary(0), None);
    }

    #[test]
    fn run_cursor_seeks_runs() {
        let g = sample();
        let i3 = g.find_primary(3).unwrap();
        let mut c = g.run_cursor(i3);
        assert_eq!(c.remaining(), 2);
        assert_eq!(c.seek(0), Some(2));
        assert_eq!(c.postings().len(), 1);
        assert_eq!(c.seek(3), Some(5));
        assert_eq!(c.postings().len(), 3);
        assert!(c.postings().iter().all(|p| p.root.0 == 5));
        assert_eq!(c.advance(), None);
        assert_eq!(c.seek(9), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pattern::PatternId;
    use patternkb_graph::NodeId;
    use proptest::prelude::*;

    proptest! {
        /// from_sorted over any sorted input yields a structure whose
        /// group/run slices reproduce exactly the original postings.
        #[test]
        fn partition_is_lossless(pairs in proptest::collection::vec((0u32..8, 0u32..8), 0..40)) {
            let mut pairs = pairs;
            pairs.sort_unstable();
            let postings: Vec<Posting> = pairs.iter().map(|&(p, r)| Posting {
                pattern: PatternId(p),
                root: NodeId(r),
                nodes_start: 0,
                nodes_len: 1,
                edge_terminal: false,
                pagerank: 0.0,
                sim: 0.0,
            }).collect();
            let g = GroupedPostings::from_sorted(postings.clone());
            prop_assert!(g.validate());
            // Reassemble from runs.
            let mut rebuilt = Vec::new();
            for i in 0..g.num_primary() {
                for (_, ps) in g.runs(i) {
                    rebuilt.extend_from_slice(ps);
                }
            }
            prop_assert_eq!(rebuilt, postings.clone());
            // Every (pattern, root) pair can be found through run_postings.
            for &(p, r) in &pairs {
                let i = g.find_primary(p).unwrap();
                let run = g.run_postings(i, r);
                prop_assert!(run.iter().all(|x| x.pattern.0 == p && x.root.0 == r));
                let expected = pairs.iter().filter(|&&(a, b)| a == p && b == r).count();
                prop_assert_eq!(run.len(), expected);
            }
        }
    }
}
