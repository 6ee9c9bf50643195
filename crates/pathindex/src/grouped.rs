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
//!
//! Both orders are made by one routine, `splice`: a base list's runs
//! whose root is not *affected*, with *fresh* runs — every one rooted at
//! an affected root — merged in. A run is therefore wholly kept or wholly
//! fresh, so the kept ones are copied in stretches, the base directory's
//! entries are shifted rather than re-transposed, and only the fresh runs
//! are transposed. A full build is the splice into an empty base: every
//! run fresh, every run transposed. Fresh runs arrive in `(pattern, root)`
//! order, so a stable radix pass by root alone puts them in `(root,
//! pattern)` order — linear in the runs, with no comparison sort.

use crate::cursor::{gallop_lower_bound, KeyCursor};
use crate::posting::Posting;

/// Postings grouped by `(primary, secondary)` = `(pattern, root)` keys.
///
/// Invariants (checked in debug builds by [`GroupedPostings::validate`]):
/// * `g1_keys` is strictly increasing;
/// * within each level-1 group, its level-2 run keys are strictly
///   increasing;
/// * run offsets partition `postings` contiguously.
#[derive(Clone, Debug, PartialEq)]
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

impl Default for GroupedPostings {
    fn default() -> Self {
        GroupedPostings {
            postings: Vec::new(),
            g1_keys: Vec::new(),
            g1_run_start: vec![0],
            g2_keys: Vec::new(),
            g2_post_start: vec![0],
        }
    }
}

/// Splice a list's two orders: `base`'s runs whose root is not in
/// `affected` (ascending), with the runs of `fresh` merged in. `fresh` is
/// sorted by `(pattern, root)` and every one of its roots is affected, so
/// each run of the result is either one of the base's, unchanged, or
/// wholly fresh. Returns both orders and, per pattern of the result, the
/// base group whose postings it holds unchanged (`None` where a run was
/// dropped or added).
pub(crate) fn splice(
    base: (&GroupedPostings, &RootDirectory),
    affected: &[u32],
    fresh: Vec<Posting>,
) -> (GroupedPostings, RootDirectory, Vec<Option<u32>>) {
    let (base_pf, base_dir) = base;
    debug_assert!(affected.windows(2).all(|w| w[0] < w[1]));
    // The base's affected roots (directory positions) and their runs, as
    // `(pattern, root)` keys in pattern-first order.
    let mut removed = Vec::new();
    let mut dropped = Vec::new();
    let mut from = 0;
    for &root in affected {
        from = gallop_lower_bound(&base_dir.roots, from, root);
        if base_dir.roots.get(from) == Some(&root) {
            removed.push(from);
            dropped.extend(base_dir.patterns_of_at(from).iter().map(|&p| (p, root)));
        }
    }
    dropped.sort_unstable();
    let (pf, edits) = GroupedPostings::splice(base_pf, &dropped, fresh);
    // Each fresh run, in `(pattern, root)` order; its pattern is the key
    // of the group it landed in. Twice the room: the upper half is the
    // transposition's scratch.
    let mut fresh_runs =
        Vec::with_capacity(2 * edits.fresh.iter().map(|runs| runs.len()).sum::<usize>());
    for runs in edits.fresh {
        let mut g = pf
            .g1_run_start
            .partition_point(|&s| s as usize <= runs.start)
            - 1;
        for j in runs {
            while pf.g1_run_start[g + 1] as usize <= j {
                g += 1;
            }
            let (start, end) = (pf.g2_post_start[j], pf.g2_post_start[j + 1]);
            let span = RunSpan {
                start,
                len: end - start,
            };
            fresh_runs.push((pf.g2_keys[j], pf.g1_keys[g], span));
        }
    }
    let root_first = RootDirectory::splice(base_dir, &removed, fresh_runs, &edits.shifts);
    (pf, root_first, edits.unchanged)
}

/// What [`GroupedPostings::splice`] did, for the directory and the stats
/// that follow it.
struct Edits {
    /// Per pattern of the new list, the base group it copied whole.
    unchanged: Vec<Option<u32>>,
    /// Positions of the fresh runs in the new list, ascending.
    fresh: Vec<std::ops::Range<usize>>,
    /// `(base position, shift)`, ascending: a kept run that started at
    /// base position `x` now starts at `x` plus (wrapping) the shift of
    /// the last entry at or before `x`, or at `x` if there is none.
    shifts: Vec<(u32, u32)>,
}

impl GroupedPostings {
    /// One linear pass over `base`'s groups: untouched groups are copied
    /// whole, touched ones in stretches between their edits — a dropped
    /// run (`dropped`: its `(pattern, root)`, ascending) or an inserted
    /// fresh run (`fresh`: sorted by `(pattern, root)`) — and the groups of
    /// patterns only `fresh` has go in between them whole.
    fn splice(
        base: &GroupedPostings,
        dropped: &[(u32, u32)],
        fresh: Vec<Posting>,
    ) -> (Self, Edits) {
        // With nothing to keep the new array is `fresh` itself.
        let copy = !base.postings.is_empty();
        let mut out = GroupedPostings::default();
        if copy {
            // Bounds: every fresh posting could open a run and a pattern.
            let (patterns, runs) = (
                base.g1_keys.len() + fresh.len(),
                base.g2_keys.len() + fresh.len(),
            );
            out.postings
                .reserve_exact(base.postings.len() + fresh.len());
            out.g1_keys.reserve_exact(patterns);
            out.g1_run_start.reserve_exact(patterns);
            out.g2_keys.reserve_exact(runs);
            out.g2_post_start.reserve_exact(runs);
        }
        let mut edits = Edits {
            unchanged: Vec::with_capacity(base.g1_keys.len() + 1),
            fresh: Vec::new(),
            shifts: Vec::new(),
        };
        // Next fresh posting and dropped run.
        let (mut f, mut x) = (0, 0);
        for (b, &key) in base.g1_keys.iter().enumerate() {
            f += out.append_fresh(&fresh[f..], Some((key, 0)), copy, &mut edits);
            let (lo, hi) = (
                base.g1_run_start[b] as usize,
                base.g1_run_start[b + 1] as usize,
            );
            // The group's next dropped and next fresh root.
            let drop_root = |x: usize| dropped.get(x).filter(|&&(p, _)| p == key).map(|&(_, r)| r);
            let fresh_root = |f: usize| {
                fresh
                    .get(f)
                    .filter(|p| p.pattern.0 == key)
                    .map(|p| p.root.0)
            };
            if drop_root(x).is_none() && fresh_root(f).is_none() {
                out.open(key, Some(b as u32), &mut edits.unchanged);
                out.copy_runs(base, key, lo..hi, &mut edits);
                continue;
            }
            let mut j = lo;
            loop {
                let (dropping, adding) = (drop_root(x), fresh_root(f));
                let root = match (dropping, adding) {
                    (None, None) => break,
                    (Some(r), None) | (None, Some(r)) => r,
                    (Some(r), Some(s)) => r.min(s),
                };
                let at = gallop_lower_bound(&base.g2_keys[..hi], j, root);
                out.copy_runs(base, key, j..at, &mut edits);
                j = at;
                if dropping == Some(root) {
                    debug_assert_eq!(base.g2_keys.get(j), Some(&root));
                    j += 1;
                    x += 1;
                }
                if adding == Some(root) {
                    // Every fresh run before the next base run goes in at
                    // once (with no base run left: the rest of the group).
                    let below = match base.g2_keys[..hi].get(j) {
                        Some(&next) => Some((key, next)),
                        None => key.checked_add(1).map(|k| (k, 0)),
                    };
                    f += out.append_fresh(&fresh[f..], below, copy, &mut edits);
                }
            }
            out.copy_runs(base, key, j..hi, &mut edits);
        }
        f += out.append_fresh(&fresh[f..], None, copy, &mut edits);
        debug_assert_eq!(f, fresh.len(), "every fresh run went in");
        debug_assert_eq!(x, dropped.len(), "every dropped run is a base run");
        if !out.g1_keys.is_empty() {
            out.g1_run_start.push(out.g2_keys.len() as u32);
        }
        if !copy {
            out.postings = fresh;
        }
        debug_assert!(out.validate());
        (out, edits)
    }

    /// Make `pattern` the group runs are appended to: unless it already
    /// is, close the open group and open one, noting in `unchanged` the
    /// base group it copies whole, if any.
    fn open(&mut self, pattern: u32, whole: Option<u32>, unchanged: &mut Vec<Option<u32>>) {
        if self.g1_keys.last() == Some(&pattern) {
            return;
        }
        if !self.g1_keys.is_empty() {
            self.g1_run_start.push(self.g2_keys.len() as u32);
        }
        self.g1_keys.push(pattern);
        unchanged.push(whole);
    }

    /// Append the leading runs of `fresh` (sorted by `(pattern, root)`)
    /// whose key is below `below`, if given, and their postings too if
    /// `copy` (otherwise `fresh` already is the new array). Returns how
    /// many postings they hold.
    fn append_fresh(
        &mut self,
        fresh: &[Posting],
        below: Option<(u32, u32)>,
        copy: bool,
        edits: &mut Edits,
    ) -> usize {
        let first = self.g2_keys.len();
        let start = *self.g2_post_start.last().expect("starts with 0");
        let mut taken = 0;
        while let Some(p) = fresh.get(taken) {
            let key = (p.pattern.0, p.root.0);
            if below.is_some_and(|b| key >= b) {
                break;
            }
            self.open(key.0, None, &mut edits.unchanged);
            taken += 1;
            while fresh
                .get(taken)
                .is_some_and(|p| (p.pattern.0, p.root.0) == key)
            {
                taken += 1;
            }
            self.g2_keys.push(key.1);
            self.g2_post_start.push(start + taken as u32);
        }
        if self.g2_keys.len() > first {
            edits.fresh.push(first..self.g2_keys.len());
        }
        if copy {
            self.postings.extend_from_slice(&fresh[..taken]);
        }
        taken
    }

    /// Append `base`'s runs `runs` (of its group `pattern`), moved to where
    /// the new array has got to, and note the shift if it changed.
    fn copy_runs(
        &mut self,
        base: &GroupedPostings,
        pattern: u32,
        runs: std::ops::Range<usize>,
        edits: &mut Edits,
    ) {
        let (from, to) = (runs.start, runs.end);
        if from == to {
            return;
        }
        self.open(pattern, None, &mut edits.unchanged);
        let lo = base.g2_post_start[from];
        let at = *self.g2_post_start.last().expect("starts with 0");
        let shift = at.wrapping_sub(lo);
        if edits.shifts.last().map_or(0, |&(_, s)| s) != shift {
            edits.shifts.push((lo, shift));
        }
        self.g2_keys.extend_from_slice(&base.g2_keys[from..to]);
        self.g2_post_start.extend(
            base.g2_post_start[from + 1..=to]
                .iter()
                .map(|s| s.wrapping_add(shift)),
        );
        self.postings
            .extend_from_slice(&base.postings[lo as usize..base.g2_post_start[to] as usize]);
    }

    /// All postings in `(primary, secondary)` order.
    #[inline]
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// The postings, for rewriting what is not a key (score indices,
    /// arena offsets).
    pub(crate) fn postings_mut(&mut self) -> &mut [Posting] {
        &mut self.postings
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
            starts: &self.g2_post_start[run_lo..=run_hi],
            postings: &self.postings,
            keys: KeyCursor::new(&self.g2_keys[run_lo..run_hi]),
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
#[derive(Clone, Copy, Debug, PartialEq)]
struct RunSpan {
    start: u32,
    len: u32,
}

/// A fresh run on its way into the directory: `(root, pattern, span)`.
type FreshRun = (u32, u32, RunSpan);

/// Put `runs`, given in `(pattern, root)` order, in `(root, pattern)`
/// order: a stable LSD radix sort by root with 8-bit digits. Stability
/// keeps each root's runs in the pattern order they arrived in, so sorting
/// by root alone is exact. The passes stop at the highest non-zero digit
/// of the largest root, and a digit every run shares is skipped. The
/// passes alternate between `runs` and as many slots appended to it — no
/// allocation when the caller reserved twice its length — and the
/// transposed runs are returned.
fn transpose(runs: &mut Vec<FreshRun>) -> &[FreshRun] {
    debug_assert!(
        runs.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
        "fresh runs arrive in strictly ascending (pattern, root) order"
    );
    let max = runs.iter().map(|&(root, ..)| root).max().unwrap_or(0);
    let digits = (32 - max.leading_zeros() as usize).div_ceil(8);
    let mut counts = [[0u32; 256]; 4];
    for &(root, ..) in runs.iter() {
        for (d, count) in counts[..digits].iter_mut().enumerate() {
            count[(root >> (8 * d)) as u8 as usize] += 1;
        }
    }
    let n = runs.len();
    runs.resize(2 * n, (0, 0, RunSpan { start: 0, len: 0 }));
    let (mut from, mut to) = runs.split_at_mut(n);
    for (d, count) in counts[..digits].iter_mut().enumerate() {
        let shift = 8 * d;
        if count[(from[0].0 >> shift) as u8 as usize] as usize == n {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        for &run in from.iter() {
            let slot = &mut count[(run.0 >> shift) as u8 as usize];
            to[*slot as usize] = run;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// The root-first order of Figure 4(b) as a directory over a pattern-first
/// [`GroupedPostings`]: the same runs keyed `(root, pattern)`, each
/// pointing at its postings in that array. The accessors take the array
/// (`GroupedPostings::postings` of the list the directory was built from)
/// and return contiguous slices of it.
#[derive(Clone, Debug, Default, PartialEq)]
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
    /// The directory of a spliced list: `base`'s entries with the roots at
    /// positions `removed` (ascending) taken out, every kept run's span
    /// moved by `shifts` (see [`Edits::shifts`]) and the `fresh_runs`
    /// (in `(pattern, root)` order) transposed in. Kept entries are copied
    /// in stretches between the edited roots — nothing of the base is
    /// transposed or sorted; only the fresh runs are transposed, which for
    /// a full build (an empty base) is every run.
    fn splice(
        base: &RootDirectory,
        removed: &[usize],
        mut fresh_runs: Vec<FreshRun>,
        shifts: &[(u32, u32)],
    ) -> Self {
        let fresh_runs = transpose(&mut fresh_runs);
        // Bounds: every fresh run could be a root of its own.
        let roots = base.roots.len() - removed.len() + fresh_runs.len();
        let runs = base.patterns.len() + fresh_runs.len();
        let mut dir = RootDirectory {
            roots: Vec::with_capacity(roots),
            run_start: Vec::with_capacity(roots + 1),
            paths_before: Vec::with_capacity(roots + 1),
            patterns: Vec::with_capacity(runs),
            spans: Vec::with_capacity(runs),
        };
        let mut paths = 0u32;
        // Next base root neither copied nor removed; next removed one and
        // next fresh run.
        let (mut next, mut r, mut f) = (0, 0, 0);
        loop {
            let removed_root = removed.get(r).map(|&i| base.roots[i]);
            let fresh_root = fresh_runs.get(f).map(|&(root, _, _)| root);
            let root = match (removed_root, fresh_root) {
                (None, None) => break,
                (Some(x), None) | (None, Some(x)) => x,
                (Some(x), Some(y)) => x.min(y),
            };
            let upto = if removed_root == Some(root) {
                removed[r]
            } else {
                next + base.roots[next..].partition_point(|&x| x < root)
            };
            dir.copy_roots(base, next, upto, &mut paths, shifts);
            next = upto;
            if removed_root == Some(root) {
                next += 1;
                r += 1;
            }
            debug_assert_ne!(
                base.roots.get(next),
                Some(&root),
                "a fresh root is affected"
            );
            if fresh_root == Some(root) {
                dir.roots.push(root);
                dir.run_start.push(dir.patterns.len() as u32);
                dir.paths_before.push(paths);
                while let Some(&(_, pattern, span)) = fresh_runs.get(f).filter(|run| run.0 == root)
                {
                    dir.patterns.push(pattern);
                    dir.spans.push(span);
                    paths += span.len;
                    f += 1;
                }
            }
        }
        dir.copy_roots(base, next, base.roots.len(), &mut paths, shifts);
        dir.run_start.push(dir.patterns.len() as u32);
        dir.paths_before.push(paths);
        dir
    }

    /// Append `base`'s roots `lo .. hi` with their runs, each run's span
    /// moved by `shifts`.
    fn copy_roots(
        &mut self,
        base: &RootDirectory,
        lo: usize,
        hi: usize,
        paths: &mut u32,
        shifts: &[(u32, u32)],
    ) {
        if lo == hi {
            return;
        }
        let (runs_lo, runs_hi) = (base.run_start[lo] as usize, base.run_start[hi] as usize);
        let run_shift = (self.patterns.len() as u32).wrapping_sub(runs_lo as u32);
        let path_shift = paths.wrapping_sub(base.paths_before[lo]);
        self.roots.extend_from_slice(&base.roots[lo..hi]);
        self.run_start.extend(
            base.run_start[lo..hi]
                .iter()
                .map(|s| s.wrapping_add(run_shift)),
        );
        self.paths_before.extend(
            base.paths_before[lo..hi]
                .iter()
                .map(|p| p.wrapping_add(path_shift)),
        );
        self.patterns
            .extend_from_slice(&base.patterns[runs_lo..runs_hi]);
        self.spans
            .extend(base.spans[runs_lo..runs_hi].iter().map(|span| {
                let at = shifts.partition_point(|&(from, _)| from <= span.start);
                let shift = at.checked_sub(1).map_or(0, |i| shifts[i].1);
                RunSpan {
                    start: span.start.wrapping_add(shift),
                    len: span.len,
                }
            }));
        *paths += base.paths_before[hi] - base.paths_before[lo];
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

    /// Patterns of the root at directory position `i`, ascending.
    fn patterns_of_at(&self, i: usize) -> &[u32] {
        &self.patterns[self.run_start[i] as usize..self.run_start[i + 1] as usize]
    }

    /// The most postings any one root owns (0 for an empty directory).
    pub(crate) fn max_paths(&self) -> usize {
        self.paths_before
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
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
/// of binary-searching the whole directory per root. It steps as its
/// [`KeyCursor`] over the directory's roots; the other methods read the
/// root that cursor stands on.
pub struct RootCursor<'a> {
    dir: &'a RootDirectory,
    /// The pattern-first array the directory's spans index into.
    postings: &'a [Posting],
    roots: KeyCursor<'a>,
}

impl<'a> RootCursor<'a> {
    pub(crate) fn new(dir: &'a RootDirectory, postings: &'a [Posting]) -> Self {
        RootCursor {
            dir,
            postings,
            roots: KeyCursor::new(&dir.roots),
        }
    }

    /// Directory position of the current root.
    #[inline]
    pub fn position(&self) -> usize {
        self.roots.position()
    }

    /// `|Paths(w, r)|` of the current root.
    #[inline]
    pub fn num_paths(&self) -> usize {
        let pos = self.position();
        (self.dir.paths_before[pos + 1] - self.dir.paths_before[pos]) as usize
    }

    /// `(pattern, paths)` runs of the current root, ascending by pattern.
    #[inline]
    pub fn runs(&self) -> impl Iterator<Item = (u32, &'a [Posting])> {
        let (dir, postings, pos) = (self.dir, self.postings, self.position());
        let runs = dir.run_start[pos] as usize..dir.run_start[pos + 1] as usize;
        runs.map(move |j| (dir.patterns[j], dir.slice(postings, j)))
    }
}

impl<'a> AsMut<KeyCursor<'a>> for RootCursor<'a> {
    fn as_mut(&mut self) -> &mut KeyCursor<'a> {
        &mut self.roots
    }
}

/// Forward cursor over one primary group's `(secondary key, postings)`
/// runs. It steps as its [`KeyCursor`] over the run keys, which stands
/// **at** the run it found (peek semantics), so [`RunCursor::postings`]
/// returns that run's slice in O(1).
pub struct RunCursor<'a> {
    /// Posting-range starts; run `j` spans `starts[j] .. starts[j + 1]`.
    starts: &'a [u32],
    /// The whole posting array the starts index into.
    postings: &'a [Posting],
    /// Secondary keys of the group's runs, ascending.
    keys: KeyCursor<'a>,
}

impl<'a> RunCursor<'a> {
    /// The current run's postings (valid after a successful
    /// `seek`/`advance`).
    #[inline]
    pub fn postings(&self) -> &'a [Posting] {
        let pos = self.keys.position();
        &self.postings[self.starts[pos] as usize..self.starts[pos + 1] as usize]
    }
}

impl<'a> AsMut<KeyCursor<'a>> for RunCursor<'a> {
    fn as_mut(&mut self) -> &mut KeyCursor<'a> {
        &mut self.keys
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
            score: 0,
            nodes_len: 1,
            edge_terminal: false,
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
        from_sorted(postings)
    }

    /// A pattern-first array of postings sorted by `(pattern, root)`: the
    /// splice into an empty base.
    pub(super) fn from_sorted(postings: Vec<Posting>) -> GroupedPostings {
        GroupedPostings::splice(&GroupedPostings::default(), &[], postings).0
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
        let g = from_sorted(vec![]);
        assert!(g.validate());
        assert!(g.is_empty());
        assert_eq!(g.find_primary(0), None);
    }

    #[test]
    fn run_cursor_seeks_runs() {
        let g = sample();
        let i3 = g.find_primary(3).unwrap();
        let mut c = g.run_cursor(i3);
        assert_eq!(c.as_mut().remaining(), 2);
        assert_eq!(c.as_mut().seek(0), Some(2));
        assert_eq!(c.postings().len(), 1);
        assert_eq!(c.as_mut().seek(3), Some(5));
        assert_eq!(c.postings().len(), 3);
        assert!(c.postings().iter().all(|p| p.root.0 == 5));
        assert_eq!(c.as_mut().advance(), None);
        assert_eq!(c.as_mut().seek(9), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pattern::PatternId;
    use patternkb_graph::NodeId;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The radix transposition equals the comparison sort by `(root,
        /// pattern)` on runs given in `(pattern, root)` order: up to 3 000
        /// runs, with roots below 2^8, below 2^16, at or above 2^24, or
        /// sharing — all of them, or all but a few — their low or their
        /// high digit.
        #[test]
        fn transposition_equals_the_comparison_sort(
            pairs in proptest::collection::vec((0u32..64, any::<u32>()), 0..3000),
            roots in 0u32..5,
            digit in any::<u8>(),
            bound in any::<u32>(),
            spread in 0u32..3,
        ) {
            // `bound` varies the largest root's bit width, so the top
            // digit is not always a full byte; `spread` / 16 of the runs
            // keep their own shared digit, so it is nearly constant.
            let digit = digit as u32;
            let mut runs: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(pattern, r)| {
                    let own = r % 16 < spread;
                    let root = match roots {
                        0 => r % (bound % 256 + 1),
                        1 => r % (bound % 65_536 + 1),
                        2 => 1 << 24 | r >> (bound % 8),
                        _ if own => r,
                        3 => (r & !0xFF) | digit,
                        _ => (r & 0x00FF_FFFF) | digit << 24,
                    };
                    (pattern, root)
                })
                .collect();
            runs.sort_unstable();
            runs.dedup();
            let mut fresh: Vec<FreshRun> = runs
                .iter()
                .enumerate()
                .map(|(i, &(pattern, root))| (root, pattern, RunSpan { start: i as u32, len: 1 }))
                .collect();
            let mut expected = fresh.clone();
            expected.sort_unstable_by_key(|&(root, pattern, _)| (root, pattern));
            prop_assert_eq!(transpose(&mut fresh), &expected[..]);
        }
    }

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
                score: 0,
                nodes_len: 1,
                edge_terminal: false,
            }).collect();
            let g = super::tests::from_sorted(postings.clone());
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
