//! Seekable cursors over sorted id lists and gallop (leapfrog)
//! intersection — the primitive behind candidate-root computation
//! (`R = ∩ᵢ Roots(wᵢ)`, Algorithm 3 line 1) and `PATTERNENUM`'s per-
//! combination emptiness tests.
//!
//! The previous engine intersected by binary-searching **every** element
//! of the shortest list in each other list: `O(n_min · k · log n)` with no
//! way to benefit from skew. Leapfrog intersection instead keeps one
//! cursor per list and repeatedly seeks the lagging cursors to the
//! current candidate; each seek gallops (exponential probe, then binary
//! search inside the bracket) from the cursor's position, so runs of
//! non-matching ids cost `O(log run)` instead of `O(run · log n)` and the
//! whole intersection is `O(k · Σ log jumps)` — within a constant of the
//! information-theoretic lower bound for merging sorted sets.
//!
//! Three cursor types share the discipline (monotone targets, peek
//! semantics): `SliceCursor` over a sorted `&[u32]` key column,
//! [`crate::grouped::RunCursor`] over one pattern's `(root, paths)` runs
//! ([`intersect_runs`]) and [`crate::grouped::RootCursor`] over one
//! word's root directory ([`intersect_roots`]).

use std::ops::ControlFlow;

/// Lower bound of `target` in sorted `keys`, galloping forward from
/// position `from`: exponential probe to bracket the answer in
/// `O(log jump)`, then binary search inside the bracket. The shared
/// kernel behind [`SliceCursor::seek`] and
/// [`crate::grouped::RunCursor::seek`].
#[inline]
pub(crate) fn gallop_lower_bound(keys: &[u32], from: usize, target: u32) -> usize {
    let mut lo = from;
    if lo >= keys.len() || keys[lo] >= target {
        return lo;
    }
    let mut step = 1usize;
    while lo + step < keys.len() && keys[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(keys.len());
    lo + keys[lo..hi].partition_point(|&v| v < target)
}

/// A forward cursor over a plain sorted slice, seeking by galloping from
/// the current position.
///
/// Contract: `seek` targets are non-decreasing across calls; `seek`
/// positions the cursor **at** the returned element (peeking), while
/// `next` consumes.
struct SliceCursor<'a> {
    s: &'a [u32],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// Cursor over `s` (must be sorted ascending).
    fn new(s: &'a [u32]) -> Self {
        debug_assert!(s.windows(2).all(|w| w[0] <= w[1]));
        SliceCursor { s, pos: 0 }
    }

    /// The least remaining element `≥ target`, without consuming it.
    #[inline]
    fn seek(&mut self, target: u32) -> Option<u32> {
        self.pos = gallop_lower_bound(self.s, self.pos, target);
        self.s.get(self.pos).copied()
    }

    /// Consume and return the current element.
    #[inline]
    fn next(&mut self) -> Option<u32> {
        let v = self.s.get(self.pos).copied();
        if v.is_some() {
            self.pos += 1;
        }
        v
    }

    /// Exact number of unconsumed elements.
    fn remaining(&self) -> usize {
        self.s.len() - self.pos
    }
}

/// Leapfrog-intersect `cursors`, calling `emit` for every common value in
/// ascending order. Duplicates within a list are emitted once per common
/// value. Returns the number of `seek` calls issued (the intersection's
/// work measure).
fn intersect_with(cursors: &mut [SliceCursor<'_>], mut emit: impl FnMut(u32)) -> u64 {
    if cursors.is_empty() {
        return 0;
    }
    let mut seeks: u64 = 0;
    // Start from the smallest list: it drives the fewest rounds.
    let lead = cursors
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| c.remaining())
        .map(|(i, _)| i)
        .expect("non-empty cursor set");
    cursors.swap(0, lead);
    let Some(mut candidate) = cursors[0].next() else {
        return seeks;
    };
    'round: loop {
        // Leapfrog every other cursor up to the candidate.
        for c in cursors[1..].iter_mut() {
            seeks += 1;
            match c.seek(candidate) {
                None => break 'round,
                Some(v) if v == candidate => {}
                Some(v) => {
                    // Overshoot: the lead must catch up to v.
                    seeks += 1;
                    match cursors[0].seek(v) {
                        None => break 'round,
                        Some(next) => {
                            candidate = next;
                            cursors[0].next();
                            continue 'round;
                        }
                    }
                }
            }
        }
        emit(candidate);
        match cursors[0].next() {
            Some(next) if next == candidate => {
                // Skip duplicates of an already-emitted value in the lead.
                loop {
                    match cursors[0].next() {
                        Some(v) if v == candidate => continue,
                        Some(v) => {
                            candidate = v;
                            break;
                        }
                        None => break 'round,
                    }
                }
            }
            Some(next) => candidate = next,
            None => break 'round,
        }
    }
    seeks
}

/// Intersect sorted slices, returning the common values (ascending,
/// deduplicated), galloping under the hood.
pub fn intersect_sorted(lists: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::new();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return out;
    }
    let mut cursors: Vec<SliceCursor> = lists.iter().map(|l| SliceCursor::new(l)).collect();
    intersect_with(&mut cursors, |v| out.push(v));
    out
}

/// `|∩ lists|` without materializing the intersection.
pub fn intersect_count(lists: &[&[u32]], seeks: Option<&mut u64>) -> usize {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return 0;
    }
    let mut cursors: Vec<SliceCursor> = lists.iter().map(|l| SliceCursor::new(l)).collect();
    let mut count = 0usize;
    let n = intersect_with(&mut cursors, |_| count += 1);
    if let Some(s) = seeks {
        *s += n;
    }
    count
}

/// Fused intersection + join over per-keyword
/// [`RunCursor`](crate::grouped::RunCursor)s: leapfrog
/// the cursors by their run keys (roots), and for every **common** key
/// call `f(key, slices)` with each cursor's matching posting run — the
/// per-combination inner loop of `PATTERNENUM`, with zero per-match
/// binary searches and no materialized intersection vector. Returns the
/// number of seeks performed.
pub fn intersect_runs<'a>(
    cursors: &mut [crate::grouped::RunCursor<'a>],
    slices: &mut Vec<&'a [crate::posting::Posting]>,
    mut f: impl FnMut(u32, &[&'a [crate::posting::Posting]]),
) -> u64 {
    let mut seeks: u64 = 0;
    if cursors.is_empty() {
        return seeks;
    }
    // Drive from the shortest run list: it bounds the number of rounds,
    // which is what makes provably-empty combinations exit in O(m) seeks.
    let lead = cursors
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| c.remaining())
        .map(|(i, _)| i)
        .expect("non-empty cursor set");
    seeks += 1;
    let Some(mut candidate) = cursors[lead].seek(0) else {
        return seeks;
    };
    'round: loop {
        for ci in 0..cursors.len() {
            if ci == lead {
                continue;
            }
            seeks += 1;
            match cursors[ci].seek(candidate) {
                None => break 'round,
                Some(v) if v == candidate => {}
                Some(v) => {
                    seeks += 1;
                    match cursors[lead].seek(v) {
                        None => break 'round,
                        Some(next) => {
                            candidate = next;
                            continue 'round;
                        }
                    }
                }
            }
        }
        slices.clear();
        for c in cursors.iter() {
            slices.push(c.postings());
        }
        f(candidate, slices);
        match cursors[lead].advance() {
            Some(next) => candidate = next,
            None => break,
        }
    }
    seeks
}

/// How an [`intersect_roots`] walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootWalkEnd {
    /// Cursor seeks issued.
    pub seeks: u64,
    /// The cursor that drove the walk: the one with the fewest roots.
    pub lead: usize,
    /// Whether the visitor stopped the walk before a list ran out.
    pub stopped: bool,
}

/// Leapfrog over per-keyword [`RootCursor`](crate::grouped::RootCursor)s:
/// for every root **all** words reach, in ascending order, call
/// `f(root, cursors)` with every cursor standing on that root — so `f`
/// reads each word's `|Paths(w, r)|`, runs and directory position without
/// a search of its own. `f` may stop the walk by returning
/// `ControlFlow::Break`; the cursors then stay on the root it stopped at.
pub fn intersect_roots<'a>(
    cursors: &mut [crate::grouped::RootCursor<'a>],
    mut f: impl FnMut(u32, &[crate::grouped::RootCursor<'a>]) -> ControlFlow<()>,
) -> RootWalkEnd {
    let mut end = RootWalkEnd {
        seeks: 0,
        lead: 0,
        stopped: false,
    };
    if cursors.is_empty() {
        return end;
    }
    // Drive from the shortest root list: it bounds the number of rounds.
    let lead = cursors
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| c.remaining())
        .map(|(i, _)| i)
        .expect("non-empty cursor set");
    end.lead = lead;
    end.seeks += 1;
    let Some(mut candidate) = cursors[lead].seek_ge(0) else {
        return end;
    };
    'round: loop {
        let (before, rest) = cursors.split_at_mut(lead);
        let (lead_cursor, after) = rest.split_first_mut().expect("lead is in range");
        for c in before.iter_mut().chain(after) {
            end.seeks += 1;
            match c.seek_ge(candidate) {
                None => break 'round,
                Some(v) if v == candidate => {}
                Some(v) => {
                    end.seeks += 1;
                    match lead_cursor.seek_ge(v) {
                        None => break 'round,
                        Some(next) => {
                            candidate = next;
                            continue 'round;
                        }
                    }
                }
            }
        }
        if f(candidate, cursors).is_break() {
            end.stopped = true;
            break;
        }
        match cursors[lead].advance() {
            Some(next) => candidate = next,
            None => break,
        }
    }
    end
}

/// Reference implementation: binary-search each element of the shortest
/// list in all others (what the engine shipped before galloping). Kept
/// for the equivalence proptests and the gallop-vs-naive microbench.
pub fn intersect_naive(lists: &[&[u32]]) -> Vec<u32> {
    if lists.is_empty() {
        return Vec::new();
    }
    let shortest = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("non-empty lists");
    let mut out = Vec::with_capacity(lists[shortest].len());
    let mut prev: Option<u32> = None;
    'outer: for &x in lists[shortest] {
        if prev == Some(x) {
            continue; // dedup, matching the gallop implementation
        }
        for (i, l) in lists.iter().enumerate() {
            if i != shortest && l.binary_search(&x).is_err() {
                continue 'outer;
            }
        }
        prev = Some(x);
        out.push(x);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn slice_cursor_seek_and_next() {
        let s = [2u32, 4, 4, 8, 16, 100, 1000];
        let mut c = SliceCursor::new(&s);
        assert_eq!(c.seek(1), Some(2));
        assert_eq!(c.next(), Some(2));
        assert_eq!(c.seek(4), Some(4));
        assert_eq!(c.seek(5), Some(8));
        assert_eq!(c.seek(999), Some(1000));
        assert_eq!(c.next(), Some(1000));
        assert_eq!(c.seek(1001), None);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn intersect_basic() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 5, 8];
        let c = [3u32, 5, 9];
        assert_eq!(intersect_sorted(&[&a, &b, &c]), vec![3, 5]);
        assert_eq!(intersect_count(&[&a, &b, &c], None), 2);
    }

    #[test]
    fn intersect_empty_cases() {
        let a = [1u32, 2];
        let empty: [u32; 0] = [];
        assert!(intersect_sorted(&[&a, &empty]).is_empty());
        assert!(intersect_sorted(&[]).is_empty());
        assert_eq!(intersect_sorted(&[&a]), vec![1, 2]);
        assert_eq!(intersect_count(&[&a], None), 2);
    }

    #[test]
    fn intersect_dedups_common_duplicates() {
        let a = [3u32, 3, 5];
        let b = [3u32, 5, 5];
        assert_eq!(intersect_sorted(&[&a, &b]), vec![3, 5]);
        assert_eq!(intersect_naive(&[&a, &b]), vec![3, 5]);
    }

    proptest! {
        /// Gallop intersection equals the naive implementation on
        /// arbitrary sorted lists (the satellite equivalence property).
        #[test]
        fn gallop_equals_naive(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u32..400, 0..300), 1..5)
        ) {
            let lists: Vec<Vec<u32>> = raw
                .into_iter()
                .map(|mut l| { l.sort_unstable(); l })
                .collect();
            let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            let gallop = intersect_sorted(&refs);
            let naive = intersect_naive(&refs);
            prop_assert_eq!(&gallop, &naive);
            prop_assert_eq!(intersect_count(&refs, None), naive.len());
        }
    }
}
