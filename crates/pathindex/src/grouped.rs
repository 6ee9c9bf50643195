//! Columnar word lists: both orders of Figure 4 over one posting array.
//!
//! Every posting is stored once, in the pattern-first order of Figure
//! 4(a): sorted by `(pattern, root)`, with one offset per pattern and a
//! root column parallel to the postings. A pattern's roots are its slice
//! of that column, and a `(pattern, root)` run — `Paths(w, P, r)` — is a
//! stretch of equal roots in it: a binary search finds one, and a
//! [`RunCursor`] gallops past one. No run is stored.
//!
//! The root-first order of Figure 4(b) is a permutation of the same
//! array: the pattern-first positions sorted by `(root, pattern)`, one
//! offset per distinct root, and beside each position the pattern of its
//! posting. Within one root the positions ascend, so a run is again a
//! stretch — of equal patterns — and its postings are contiguous in the
//! array: the root-first access methods hand out slices of it.
//!
//! Both orders are made by one routine, `splice`: a base list's postings
//! whose root is not *affected*, with *fresh* postings — every one rooted
//! at an affected root — merged in. A root is therefore wholly kept or
//! wholly fresh, so the kept postings are copied in stretches, the base
//! permutation's entries are shifted rather than re-transposed, and only
//! the fresh postings are transposed. A full build is the splice into an
//! empty base: every posting fresh, every posting transposed. Fresh
//! postings arrive in `(pattern, root)` order, so a stable radix pass by
//! root alone puts them in `(root, pattern)` order — linear in the
//! postings, with no comparison sort. Every column is allocated at its
//! final length, so a list holds no slack.

use crate::cursor::{gallop_lower_bound, gallop_past, KeyCursor};
use crate::posting::{KeyedPosting, Posting};

/// Bytes a vector holds allocated: its capacity, not its length.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The pattern-first order: postings sorted by `(pattern, root)`, one
/// group per pattern, and the root of each posting in a parallel column.
///
/// Invariants (checked in debug builds by [`GroupedPostings::validate`]):
/// * `keys` is strictly increasing and every group is non-empty;
/// * within a group, the roots are non-decreasing;
/// * the group offsets partition `postings` contiguously.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupedPostings {
    /// All postings, sorted by `(pattern, root)`.
    postings: Vec<Posting>,
    /// Root of each posting, parallel to `postings`.
    roots: Vec<u32>,
    /// Distinct patterns, ascending.
    keys: Vec<u32>,
    /// Pattern `i` owns postings `starts[i] .. starts[i + 1]`. Length
    /// `keys.len() + 1`.
    starts: Vec<u32>,
}

impl Default for GroupedPostings {
    fn default() -> Self {
        GroupedPostings {
            postings: Vec::new(),
            roots: Vec::new(),
            keys: Vec::new(),
            starts: vec![0],
        }
    }
}

/// Splice a list's two orders: `base`'s postings whose root is not in
/// `affected` (ascending), with `fresh` merged in. `fresh` is sorted by
/// `(pattern, root)` and every one of its roots is affected, so each
/// root of the result holds either the base's postings, unchanged, or
/// fresh ones only. Returns both orders and, per pattern of the result,
/// the base group whose postings it holds unchanged (`None` where a
/// posting was dropped or added).
pub(crate) fn splice(
    base: (&GroupedPostings, &RootDirectory),
    affected: &[u32],
    fresh: Vec<KeyedPosting>,
) -> (GroupedPostings, RootDirectory, Vec<Option<u32>>) {
    let (base_pf, base_dir) = base;
    debug_assert!(affected.windows(2).all(|w| w[0] < w[1]));
    // The base's affected roots (directory positions) and their runs, as
    // `(pattern, root)` keys in pattern-first order.
    let mut removed = Vec::new();
    let mut dropped = Vec::new();
    let mut lost = 0;
    let mut from = 0;
    for &root in affected {
        from = gallop_lower_bound(&base_dir.roots, from, root);
        if base_dir.roots.get(from) == Some(&root) {
            removed.push(from);
            let patterns = &base_dir.patterns[base_dir.entries(from)];
            lost += patterns.len();
            dropped.extend(patterns.chunk_by(|a, b| a == b).map(|run| (run[0], root)));
        }
    }
    dropped.sort_unstable();
    let len = base_pf.len() - lost + fresh.len();
    let (pf, edits) = GroupedPostings::splice(base_pf, &dropped, len, &fresh);
    drop(fresh);
    // Each fresh posting with its position, in `(pattern, root)` order;
    // its pattern is the key of the group it landed in. Twice the room:
    // the upper half is the transposition's scratch.
    let added: usize = edits.fresh.iter().map(|at| at.len()).sum();
    let mut entries = Vec::with_capacity(2 * added);
    for at in edits.fresh {
        let mut g = pf.starts.partition_point(|&s| s as usize <= at.start) - 1;
        for j in at {
            while pf.starts[g + 1] as usize <= j {
                g += 1;
            }
            entries.push((pf.roots[j], pf.keys[g], j as u32));
        }
    }
    let root_first = RootDirectory::splice(base_dir, &removed, entries, &edits.shifts);
    (pf, root_first, edits.unchanged)
}

/// What [`GroupedPostings::splice`] did, for the directory and the stats
/// that follow it.
struct Edits {
    /// Per pattern of the new list, the base group it copied whole.
    unchanged: Vec<Option<u32>>,
    /// Positions of the fresh postings in the new list, ascending.
    fresh: Vec<std::ops::Range<usize>>,
    /// `(base position, shift)`, ascending: a kept posting at base
    /// position `x` is now at `x` plus (wrapping) the shift of the last
    /// entry at or before `x`, or at `x` if there is none.
    shifts: Vec<(u32, u32)>,
}

impl GroupedPostings {
    /// One linear pass over `base`'s groups: untouched groups are copied
    /// whole, touched ones in stretches between their edits — a dropped
    /// run (`dropped`: its `(pattern, root)`, ascending) or inserted fresh
    /// postings (`fresh`: sorted by `(pattern, root)`) — and the groups of
    /// patterns only `fresh` has go in between them whole. `len` is the
    /// number of postings the result holds.
    fn splice(
        base: &GroupedPostings,
        dropped: &[(u32, u32)],
        len: usize,
        fresh: &[KeyedPosting],
    ) -> (Self, Edits) {
        // Every fresh pattern could be one the base lacks.
        let fresh_patterns = fresh.chunk_by(|a, b| a.pattern == b.pattern).count();
        let patterns = base.keys.len() + fresh_patterns;
        let mut out = GroupedPostings {
            postings: Vec::with_capacity(len),
            roots: Vec::with_capacity(len),
            keys: Vec::with_capacity(patterns),
            starts: Vec::with_capacity(patterns + 1),
        };
        out.starts.push(0);
        let mut edits = Edits {
            unchanged: Vec::with_capacity(patterns),
            fresh: Vec::new(),
            shifts: Vec::new(),
        };
        // Next fresh posting and dropped run.
        let (mut f, mut x) = (0, 0);
        for (b, &key) in base.keys.iter().enumerate() {
            f += out.append_fresh(&fresh[f..], Some((key, 0)), &mut edits);
            let (lo, hi) = (base.starts[b] as usize, base.starts[b + 1] as usize);
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
                out.copy(base, key, lo..hi, &mut edits);
                continue;
            }
            let roots = &base.roots[..hi];
            let mut j = lo;
            loop {
                let (dropping, adding) = (drop_root(x), fresh_root(f));
                let root = match (dropping, adding) {
                    (None, None) => break,
                    (Some(r), None) | (None, Some(r)) => r,
                    (Some(r), Some(s)) => r.min(s),
                };
                let at = gallop_lower_bound(roots, j, root);
                out.copy(base, key, j..at, &mut edits);
                j = at;
                if dropping == Some(root) {
                    debug_assert_eq!(roots.get(j), Some(&root));
                    j = gallop_past(roots, j);
                    x += 1;
                }
                if adding == Some(root) {
                    // Every fresh posting before the next base root goes
                    // in at once (with no base root left: the rest of
                    // the group).
                    let below = match roots.get(j) {
                        Some(&next) => Some((key, next)),
                        None => key.checked_add(1).map(|k| (k, 0)),
                    };
                    f += out.append_fresh(&fresh[f..], below, &mut edits);
                }
            }
            out.copy(base, key, j..hi, &mut edits);
        }
        f += out.append_fresh(&fresh[f..], None, &mut edits);
        debug_assert_eq!(f, fresh.len(), "every fresh posting went in");
        debug_assert_eq!(x, dropped.len(), "every dropped run is a base run");
        debug_assert_eq!(out.postings.len(), len);
        if !out.keys.is_empty() {
            out.starts.push(out.postings.len() as u32);
        }
        // A group the edits emptied leaves its bound's slot unused.
        out.keys.shrink_to_fit();
        out.starts.shrink_to_fit();
        debug_assert!(out.validate());
        (out, edits)
    }

    /// Make `pattern` the group postings are appended to: unless it
    /// already is, close the open group and open one, noting in
    /// `unchanged` the base group it copies whole, if any.
    fn open(&mut self, pattern: u32, whole: Option<u32>, unchanged: &mut Vec<Option<u32>>) {
        if self.keys.last() == Some(&pattern) {
            return;
        }
        if !self.keys.is_empty() {
            self.starts.push(self.postings.len() as u32);
        }
        self.keys.push(pattern);
        unchanged.push(whole);
    }

    /// Append the leading postings of `fresh` (sorted by `(pattern,
    /// root)`) whose key is below `below`, if given. Returns how many.
    fn append_fresh(
        &mut self,
        fresh: &[KeyedPosting],
        below: Option<(u32, u32)>,
        edits: &mut Edits,
    ) -> usize {
        let taken = below.map_or(fresh.len(), |b| {
            fresh.partition_point(|p| (p.pattern.0, p.root.0) < b)
        });
        if taken == 0 {
            return 0;
        }
        let first = self.postings.len();
        for p in &fresh[..taken] {
            self.open(p.pattern.0, None, &mut edits.unchanged);
            self.postings.push(p.posting);
            self.roots.push(p.root.0);
        }
        edits.fresh.push(first..self.postings.len());
        taken
    }

    /// Append `base`'s postings `at` (of its group `pattern`), moved to
    /// where the new array has got to, and note the shift if it changed.
    fn copy(
        &mut self,
        base: &GroupedPostings,
        pattern: u32,
        at: std::ops::Range<usize>,
        edits: &mut Edits,
    ) {
        if at.is_empty() {
            return;
        }
        self.open(pattern, None, &mut edits.unchanged);
        let shift = (self.postings.len() as u32).wrapping_sub(at.start as u32);
        if edits.shifts.last().map_or(0, |&(_, s)| s) != shift {
            edits.shifts.push((at.start as u32, shift));
        }
        self.postings.extend_from_slice(&base.postings[at.clone()]);
        self.roots.extend_from_slice(&base.roots[at]);
    }

    /// All postings in `(pattern, root)` order.
    #[inline]
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// The postings, for rewriting what is not a key (score indices,
    /// arena offsets).
    pub(crate) fn postings_mut(&mut self) -> &mut [Posting] {
        &mut self.postings
    }

    /// Distinct patterns, ascending.
    #[inline]
    pub fn primary_keys(&self) -> &[u32] {
        &self.keys
    }

    /// Index of a pattern, if present.
    #[inline]
    pub fn find_primary(&self, key: u32) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The posting range of the `i`-th group.
    #[inline]
    fn group(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    /// The roots of the `i`-th group's postings, one per posting,
    /// ascending.
    pub fn group_roots(&self, i: usize) -> &[u32] {
        &self.roots[self.group(i)]
    }

    /// All postings under the `i`-th group.
    pub fn group_postings(&self, i: usize) -> &[Posting] {
        &self.postings[self.group(i)]
    }

    /// A seekable cursor over the `i`-th group's `(root, postings)` runs
    /// — the fused-join primitive: leapfrogging several groups' cursors
    /// by root intersects their root sets **and** lands directly on each
    /// matching run's posting slice, with no per-match binary search.
    pub fn run_cursor(&self, i: usize) -> RunCursor<'_> {
        let group = self.group(i);
        RunCursor {
            postings: &self.postings[group.clone()],
            roots: KeyCursor::new(&self.roots[group]),
        }
    }

    /// Number of distinct patterns.
    pub fn num_primary(&self) -> usize {
        self.keys.len()
    }

    /// Total number of postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether there are no postings.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Bytes allocated for the columns.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.postings)
            + vec_bytes(&self.roots)
            + vec_bytes(&self.keys)
            + vec_bytes(&self.starts)
    }

    /// Check the structural invariants (used in debug assertions/tests).
    pub fn validate(&self) -> bool {
        self.starts.len() == self.keys.len() + 1
            && self.roots.len() == self.postings.len()
            && self.starts.first() == Some(&0)
            && self.starts.last().copied() == Some(self.postings.len() as u32)
            && self.starts.windows(2).all(|w| w[0] < w[1])
            && self.keys.windows(2).all(|w| w[0] < w[1])
            && (0..self.keys.len()).all(|i| self.group_roots(i).windows(2).all(|w| w[0] <= w[1]))
    }
}

/// A fresh posting on its way into the directory: `(root, pattern,
/// pattern-first position)`.
type FreshEntry = (u32, u32, u32);

/// Put `entries`, given in `(pattern, root)` order, in `(root, pattern)`
/// order: a stable LSD radix sort by root with 8-bit digits. Stability
/// keeps each root's entries in the pattern order they arrived in, so
/// sorting by root alone is exact. The passes stop at the highest
/// non-zero digit of the largest root, and a digit every entry shares is
/// skipped. The passes alternate between `entries` and as many slots
/// appended to it — no allocation when the caller reserved twice its
/// length — and the transposed entries are returned.
fn transpose(entries: &mut Vec<FreshEntry>) -> &[FreshEntry] {
    debug_assert!(
        entries
            .windows(2)
            .all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)),
        "fresh postings arrive in (pattern, root) order"
    );
    let max = entries.iter().map(|&(root, ..)| root).max().unwrap_or(0);
    let digits = (32 - max.leading_zeros() as usize).div_ceil(8);
    let mut counts = [[0u32; 256]; 4];
    for &(root, ..) in entries.iter() {
        for (d, count) in counts[..digits].iter_mut().enumerate() {
            count[(root >> (8 * d)) as u8 as usize] += 1;
        }
    }
    let n = entries.len();
    entries.resize(2 * n, (0, 0, 0));
    let (mut from, mut to) = entries.split_at_mut(n);
    for (d, count) in counts[..digits].iter_mut().enumerate() {
        let shift = 8 * d;
        if count[(from[0].0 >> shift) as u8 as usize] as usize == n {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        for &entry in from.iter() {
            let slot = &mut count[(entry.0 >> shift) as u8 as usize];
            to[*slot as usize] = entry;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// The root-first order of Figure 4(b) as a permutation of a
/// pattern-first [`GroupedPostings`]: its positions sorted by `(root,
/// pattern)`, grouped by root. The accessors take the array
/// (`GroupedPostings::postings` of the list the directory was built from)
/// and return contiguous slices of it.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct RootDirectory {
    /// Distinct roots, ascending.
    roots: Vec<u32>,
    /// Root `i` owns entries `starts[i] .. starts[i + 1]` of `order` and
    /// `patterns`: `|Paths(w, r)|` is their number. Length
    /// `roots.len() + 1`.
    starts: Vec<u32>,
    /// Pattern-first positions, sorted by `(root, pattern)`; ascending
    /// within a root.
    order: Vec<u32>,
    /// The pattern of each entry of `order`.
    patterns: Vec<u32>,
}

impl RootDirectory {
    /// The directory of a spliced list: `base`'s entries with the roots at
    /// positions `removed` (ascending) taken out, every kept position
    /// moved by `shifts` (see [`Edits::shifts`]) and the `fresh` entries
    /// (in `(pattern, root)` order) transposed in. Kept entries are copied
    /// in stretches between the edited roots — nothing of the base is
    /// transposed or sorted; only the fresh entries are, which for a full
    /// build (an empty base) is every posting.
    fn splice(
        base: &RootDirectory,
        removed: &[usize],
        mut fresh: Vec<FreshEntry>,
        shifts: &[(u32, u32)],
    ) -> Self {
        let fresh = transpose(&mut fresh);
        let fresh_roots = fresh.chunk_by(|a, b| a.0 == b.0).count();
        let lost: usize = removed.iter().map(|&i| base.entries(i).len()).sum();
        let roots = base.roots.len() - removed.len() + fresh_roots;
        let entries = base.order.len() - lost + fresh.len();
        let mut dir = RootDirectory {
            roots: Vec::with_capacity(roots),
            starts: Vec::with_capacity(roots + 1),
            order: Vec::with_capacity(entries),
            patterns: Vec::with_capacity(entries),
        };
        // Next base root neither copied nor removed; next removed one and
        // next fresh entry.
        let (mut next, mut r, mut f) = (0, 0, 0);
        loop {
            let removed_root = removed.get(r).map(|&i| base.roots[i]);
            let fresh_root = fresh.get(f).map(|&(root, ..)| root);
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
            dir.copy_roots(base, next..upto, shifts);
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
                dir.starts.push(dir.order.len() as u32);
                while let Some(&(_, pattern, at)) = fresh.get(f).filter(|e| e.0 == root) {
                    dir.order.push(at);
                    dir.patterns.push(pattern);
                    f += 1;
                }
            }
        }
        dir.copy_roots(base, next..base.roots.len(), shifts);
        dir.starts.push(dir.order.len() as u32);
        debug_assert_eq!((dir.roots.len(), dir.order.len()), (roots, entries));
        dir
    }

    /// Append `base`'s roots `at` with their entries, each position moved
    /// by `shifts`.
    fn copy_roots(
        &mut self,
        base: &RootDirectory,
        at: std::ops::Range<usize>,
        shifts: &[(u32, u32)],
    ) {
        if at.is_empty() {
            return;
        }
        let entries = base.starts[at.start] as usize..base.starts[at.end] as usize;
        let shift = (self.order.len() as u32).wrapping_sub(entries.start as u32);
        self.roots.extend_from_slice(&base.roots[at.clone()]);
        self.starts
            .extend(base.starts[at].iter().map(|s| s.wrapping_add(shift)));
        self.patterns
            .extend_from_slice(&base.patterns[entries.clone()]);
        let order = &base.order[entries];
        if shifts.is_empty() {
            self.order.extend_from_slice(order);
        } else {
            self.order.extend(order.iter().map(|&x| {
                let i = shifts.partition_point(|&(from, _)| from <= x);
                x.wrapping_add(i.checked_sub(1).map_or(0, |i| shifts[i].1))
            }));
        }
    }

    /// Distinct roots, ascending.
    #[inline]
    pub(crate) fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The entries of the root at directory position `i`.
    #[inline]
    fn entries(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    /// The most postings any one root owns (0 for an empty directory).
    pub(crate) fn max_paths(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Bytes allocated for the columns.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.roots)
            + vec_bytes(&self.starts)
            + vec_bytes(&self.order)
            + vec_bytes(&self.patterns)
    }
}

/// The `(pattern, postings)` runs of one root's entries: each stretch of
/// equal patterns, whose positions are consecutive in the pattern-first
/// array.
struct Runs<'a> {
    patterns: &'a [u32],
    order: &'a [u32],
    postings: &'a [Posting],
}

impl<'a> Runs<'a> {
    fn new(
        dir: &'a RootDirectory,
        postings: &'a [Posting],
        entries: std::ops::Range<usize>,
    ) -> Self {
        Runs {
            patterns: &dir.patterns[entries.clone()],
            order: &dir.order[entries],
            postings,
        }
    }
}

impl<'a> Iterator for Runs<'a> {
    type Item = (u32, &'a [Posting]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (&pattern, rest) = self.patterns.split_first()?;
        let len = 1 + rest.iter().take_while(|&&p| p == pattern).count();
        let at = self.order[0] as usize;
        self.patterns = &self.patterns[len..];
        self.order = &self.order[len..];
        Some((pattern, &self.postings[at..at + len]))
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
    /// The pattern-first array the directory's positions index into.
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
        self.dir.entries(self.position()).len()
    }

    /// `(pattern, paths)` runs of the current root, ascending by pattern.
    #[inline]
    pub fn runs(&self) -> impl Iterator<Item = (u32, &'a [Posting])> {
        Runs::new(self.dir, self.postings, self.dir.entries(self.position()))
    }
}

impl<'a> AsMut<KeyCursor<'a>> for RootCursor<'a> {
    fn as_mut(&mut self) -> &mut KeyCursor<'a> {
        &mut self.roots
    }
}

/// Forward cursor over one pattern's `(root, postings)` runs. It steps as
/// its [`KeyCursor`] over the group's root column, which stands on the
/// first posting of the run it found (peek semantics) and steps past the
/// whole run, so [`RunCursor::postings`] returns that run's slice.
pub struct RunCursor<'a> {
    /// The group's postings.
    postings: &'a [Posting],
    /// The group's root column, one root per posting, ascending.
    roots: KeyCursor<'a>,
}

impl<'a> RunCursor<'a> {
    /// The current run's postings (valid after a successful
    /// `seek`/`advance`).
    #[inline]
    pub fn postings(&self) -> &'a [Posting] {
        &self.postings[self.roots.run()]
    }
}

impl<'a> AsMut<KeyCursor<'a>> for RunCursor<'a> {
    fn as_mut(&mut self) -> &mut KeyCursor<'a> {
        &mut self.roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternId;
    use patternkb_graph::NodeId;

    /// A one-node posting with the `(pattern, root)` key, told apart from
    /// the others by `id` (its arena offset).
    pub(super) fn keyed(pattern: u32, root: u32, id: u32) -> KeyedPosting {
        KeyedPosting {
            pattern: PatternId(pattern),
            root: NodeId(root),
            posting: Posting {
                nodes_start: id,
                score: 0,
                nodes_len: 1,
                edge_terminal: false,
            },
        }
    }

    /// Both orders of postings sorted by `(pattern, root)`: the splice
    /// into an empty base.
    pub(super) fn from_sorted(postings: Vec<KeyedPosting>) -> (GroupedPostings, RootDirectory) {
        let (pf, dir, _) = splice(
            (&GroupedPostings::default(), &RootDirectory::default()),
            &[],
            postings,
        );
        (pf, dir)
    }

    fn sample() -> GroupedPostings {
        // Sorted by (pattern, root); the id is the position.
        let keys = [(1, 5), (1, 5), (1, 9), (3, 2), (3, 5), (3, 5), (3, 5)];
        let postings = (0..).zip(keys).map(|(i, (p, r))| keyed(p, r, i)).collect();
        from_sorted(postings).0
    }

    fn ids(postings: &[Posting]) -> Vec<u32> {
        postings.iter().map(|p| p.nodes_start).collect()
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
        assert_eq!(g.group_roots(i1), &[5, 5, 9]);
        assert_eq!(g.group_postings(i1).len(), 3);
        let i3 = g.find_primary(3).unwrap();
        assert_eq!(g.group_roots(i3), &[2, 5, 5, 5]);
        assert_eq!(g.group_postings(i3).len(), 4);
        assert_eq!(g.find_primary(2), None);
    }

    #[test]
    fn runs_iteration() {
        let g = sample();
        let i1 = g.find_primary(1).unwrap();
        let mut c = g.run_cursor(i1);
        let mut runs = Vec::new();
        let mut root = c.as_mut().seek(0);
        while let Some(r) = root {
            runs.push((r, ids(c.postings())));
            root = c.as_mut().advance();
        }
        assert_eq!(runs, vec![(5, vec![0, 1]), (9, vec![2])]);
    }

    #[test]
    fn empty() {
        let (g, dir) = from_sorted(vec![]);
        assert!(g.validate());
        assert!(g.is_empty());
        assert_eq!(g.find_primary(0), None);
        assert_eq!(dir.max_paths(), 0);
        assert_eq!(RootCursor::new(&dir, g.postings()).as_mut().seek(0), None);
    }

    #[test]
    fn run_cursor_seeks_runs() {
        let g = sample();
        let i3 = g.find_primary(3).unwrap();
        let mut c = g.run_cursor(i3);
        assert_eq!(c.as_mut().remaining(), 4, "one root per posting");
        assert_eq!(c.as_mut().seek(0), Some(2));
        assert_eq!(ids(c.postings()), [3]);
        assert_eq!(c.as_mut().seek(3), Some(5));
        assert_eq!(ids(c.postings()), [4, 5, 6]);
        assert_eq!(c.as_mut().advance(), None);
        assert_eq!(c.as_mut().seek(9), None);
        assert!(c.postings().is_empty());
    }

    #[test]
    fn root_runs_are_stretches_of_the_permutation() {
        let keys = [(1, 5), (1, 5), (1, 9), (3, 2), (3, 5), (3, 5), (3, 5)];
        let postings = (0..).zip(keys).map(|(i, (p, r))| keyed(p, r, i)).collect();
        let (g, dir) = from_sorted(postings);
        assert_eq!(dir.roots(), &[2, 5, 9]);
        assert_eq!(dir.order, [3, 0, 1, 4, 5, 6, 2]);
        assert_eq!(dir.patterns, [3, 1, 1, 3, 3, 3, 1]);
        let mut c = RootCursor::new(&dir, g.postings());
        assert_eq!(c.as_mut().seek(5), Some(5));
        let runs: Vec<(u32, Vec<u32>)> = c.runs().map(|(p, ps)| (p, ids(ps))).collect();
        assert_eq!(runs, vec![(1, vec![0, 1]), (3, vec![4, 5, 6])]);
        assert_eq!((c.num_paths(), dir.max_paths()), (5, 5));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{from_sorted, keyed};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The radix transposition equals the comparison sort by `(root,
        /// pattern)` on entries given in `(pattern, root)` order: up to
        /// 3 000 entries, with roots below 2^8, below 2^16, at or above
        /// 2^24, or sharing — all of them, or all but a few — their low or
        /// their high digit.
        #[test]
        fn transposition_equals_the_comparison_sort(
            pairs in proptest::collection::vec((0u32..64, any::<u32>()), 0..3000),
            roots in 0u32..5,
            digit in any::<u8>(),
            bound in any::<u32>(),
            spread in 0u32..3,
        ) {
            // `bound` varies the largest root's bit width, so the top
            // digit is not always a full byte; `spread` / 16 of the
            // entries keep their own shared digit, so it is nearly
            // constant.
            let digit = digit as u32;
            let mut keys: Vec<(u32, u32)> = pairs
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
            keys.sort_unstable();
            let mut fresh: Vec<FreshEntry> = (0..)
                .zip(&keys)
                .map(|(i, &(pattern, root))| (root, pattern, i))
                .collect();
            let mut expected = fresh.clone();
            expected.sort_by_key(|&(root, pattern, _)| (root, pattern));
            prop_assert_eq!(transpose(&mut fresh), &expected[..]);
        }
    }

    proptest! {
        /// Both orders over any sorted input reproduce exactly the original
        /// postings: the pattern-first groups' runs in order, and every
        /// `(pattern, root)` run through either order's cursor.
        #[test]
        fn partition_is_lossless(pairs in proptest::collection::vec((0u32..8, 0u32..8), 0..40)) {
            let mut pairs = pairs;
            pairs.sort_unstable();
            let postings: Vec<KeyedPosting> =
                (0..).zip(&pairs).map(|(i, &(p, r))| keyed(p, r, i)).collect();
            let (g, dir) = from_sorted(postings.clone());
            prop_assert!(g.validate());
            let mut rebuilt = Vec::new();
            for i in 0..g.num_primary() {
                let mut c = g.run_cursor(i);
                let mut root = c.as_mut().seek(0);
                while root.is_some() {
                    rebuilt.extend_from_slice(c.postings());
                    root = c.as_mut().advance();
                }
            }
            let bare: Vec<Posting> = postings.iter().map(|p| p.posting).collect();
            prop_assert_eq!(rebuilt, bare);
            for &(p, r) in &pairs {
                let want: Vec<Posting> = postings
                    .iter()
                    .filter(|x| (x.pattern.0, x.root.0) == (p, r))
                    .map(|x| x.posting)
                    .collect();
                let mut c = g.run_cursor(g.find_primary(p).unwrap());
                prop_assert_eq!(c.as_mut().seek(r), Some(r));
                prop_assert_eq!(c.postings(), &want[..]);
                let mut c = RootCursor::new(&dir, g.postings());
                prop_assert_eq!(c.as_mut().seek(r), Some(r));
                let run = c.runs().find(|&(q, _)| q == p).map(|(_, ps)| ps);
                prop_assert_eq!(run, Some(&want[..]));
            }
        }
    }

    /// Everything the two orders answer, against a naive filter of
    /// `sorted` (keyed postings in `(pattern, root)` order): per pattern,
    /// a run cursor driven by `seeks` (a target, or `None` to advance);
    /// per root, a root cursor's runs and counts; and the permutation.
    fn check_against_filter(
        g: &GroupedPostings,
        dir: &RootDirectory,
        sorted: &[KeyedPosting],
        seeks: &[Option<u32>],
    ) {
        let filter = |f: &dyn Fn(&KeyedPosting) -> bool| -> Vec<Posting> {
            sorted.iter().filter(|x| f(x)).map(|x| x.posting).collect()
        };
        let mut patterns: Vec<u32> = sorted.iter().map(|p| p.pattern.0).collect();
        patterns.dedup();
        prop_assert_eq!(g.primary_keys(), &patterns[..]);
        for (i, &p) in patterns.iter().enumerate() {
            let mut roots: Vec<u32> = sorted
                .iter()
                .filter(|x| x.pattern.0 == p)
                .map(|x| x.root.0)
                .collect();
            roots.dedup();
            // The naive cursor: an index into the distinct roots.
            let mut at = 0;
            let mut c = g.run_cursor(i);
            for &step in seeks {
                let got = match step {
                    Some(target) => {
                        at += roots[at.min(roots.len())..].partition_point(|&r| r < target);
                        c.as_mut().seek(target)
                    }
                    None => {
                        at += 1;
                        c.as_mut().advance()
                    }
                };
                let want = roots.get(at).copied();
                prop_assert_eq!(got, want);
                let Some(r) = want else { break };
                let run = filter(&|x| (x.pattern.0, x.root.0) == (p, r));
                prop_assert_eq!(c.postings(), &run[..]);
            }
        }
        let mut roots: Vec<u32> = sorted.iter().map(|p| p.root.0).collect();
        roots.sort_unstable();
        roots.dedup();
        prop_assert_eq!(dir.roots(), &roots[..]);
        let mut c = RootCursor::new(dir, g.postings());
        for &r in &roots {
            prop_assert_eq!(c.as_mut().seek(r), Some(r));
            prop_assert_eq!(c.num_paths(), filter(&|x| x.root.0 == r).len());
            let want: Vec<(u32, Vec<Posting>)> = patterns
                .iter()
                .map(|&p| (p, filter(&|x| (x.pattern.0, x.root.0) == (p, r))))
                .filter(|(_, run)| !run.is_empty())
                .collect();
            let got: Vec<(u32, Vec<Posting>)> = c.runs().map(|(p, ps)| (p, ps.to_vec())).collect();
            prop_assert_eq!(got, want);
        }
        // The permutation is a bijection onto the pattern-first positions,
        // and each entry's pattern and root are its posting's.
        let mut order = dir.order.clone();
        order.sort_unstable();
        prop_assert!(order.iter().copied().eq(0..sorted.len() as u32));
        for (i, &r) in dir.roots.iter().enumerate() {
            for k in dir.entries(i) {
                let at = dir.order[k] as usize;
                prop_assert_eq!(
                    (sorted[at].pattern.0, sorted[at].root.0),
                    (dir.patterns[k], r)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Random `(pattern, root)` multisets — small key ranges, so runs
        /// of several postings are common — spliced with random affected
        /// roots and fresh postings on them (some under patterns the base
        /// lacks): both orders of the base and of the splice answer every
        /// cursor step and run as a naive filter does, and the splice
        /// equals the from-scratch build of the same postings.
        #[test]
        fn columns_answer_as_a_filter_and_splice_as_a_build(
            base_raw in proptest::collection::vec((0u32..6, 0u32..10), 0..60),
            fresh_raw in proptest::collection::vec((0u32..8, 0u32..10), 0..30),
            affected_mask in 0u32..1 << 10,
            steps in proptest::collection::vec(0u32..14, 0..12),
        ) {
            // A seek to a target in 0..=10, or (11..14) an advance.
            let seeks: Vec<Option<u32>> = steps.iter().map(|&s| (s <= 10).then_some(s)).collect();
            let affected: Vec<u32> = (0..10).filter(|r| affected_mask >> r & 1 == 1).collect();
            let sort = |v: &mut Vec<KeyedPosting>| {
                v.sort_by_key(|p| (p.pattern.0, p.root.0, p.posting.nodes_start));
            };
            let mut base: Vec<KeyedPosting> =
                (0..).zip(&base_raw).map(|(i, &(p, r))| keyed(p, r, i)).collect();
            sort(&mut base);
            let (base_pf, base_dir) = from_sorted(base.clone());
            check_against_filter(&base_pf, &base_dir, &base, &seeks);

            let mut fresh: Vec<KeyedPosting> = (1_000..)
                .zip(&fresh_raw)
                .filter(|(_, (_, r))| affected.binary_search(r).is_ok())
                .map(|(i, &(p, r))| keyed(p, r, i))
                .collect();
            sort(&mut fresh);
            let (pf, dir, unchanged) = splice((&base_pf, &base_dir), &affected, fresh.clone());
            let mut all: Vec<KeyedPosting> = base
                .iter()
                .filter(|p| affected.binary_search(&p.root.0).is_err())
                .chain(&fresh)
                .copied()
                .collect();
            sort(&mut all);
            let (full_pf, full_dir) = from_sorted(all.clone());
            prop_assert_eq!(&pf, &full_pf);
            prop_assert_eq!(&dir, &full_dir);
            check_against_filter(&pf, &dir, &all, &seeks);
            // Exactly sized: the spliced columns hold what they report.
            prop_assert_eq!(pf.heap_bytes(), full_pf.heap_bytes());
            prop_assert_eq!(dir.heap_bytes(), full_dir.heap_bytes());
            // A group marked unchanged holds its base group's postings.
            for (i, from) in unchanged.iter().enumerate() {
                if let Some(b) = *from {
                    prop_assert_eq!(pf.group_postings(i), base_pf.group_postings(b as usize));
                    prop_assert_eq!(pf.group_roots(i), base_pf.group_roots(b as usize));
                }
            }
        }
    }
}
