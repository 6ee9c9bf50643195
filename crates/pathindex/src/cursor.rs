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
//! One cursor, [`KeyCursor`], steps over a sorted `&[u32]` key column,
//! and one walk, [`leapfrog`], intersects any number of them. A key may
//! repeat: the cursor stands on the first of its copies and steps past
//! all of them. The index's cursors stand on a `KeyCursor` over their own
//! key column and add what they read at the key they stand on:
//! [`crate::grouped::RootCursor`] a word's distinct roots (`|Paths(w,
//! r)|`, a root's runs), [`crate::grouped::RunCursor`] one pattern's root
//! column, one root per path, whose stretch of equal roots is a run. So
//! the walk over the keywords' root directories (candidate roots, the
//! planner's `N`, relaxation counts), the fused join of one pattern
//! combination's runs, and [`intersect_sorted`] over plain slices are the
//! same loop, and seek the same way.

use std::ops::ControlFlow;

/// Lower bound of `target` in sorted `keys`, galloping forward from
/// position `from`: exponential probe to bracket the answer in
/// `O(log jump)`, then binary search inside the bracket. The kernel
/// behind [`KeyCursor::seek`].
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

/// The end of the stretch of keys equal to `keys[at]`: the first position
/// after `at` holding a greater key, galloping forward from `at`.
#[inline]
pub(crate) fn gallop_past(keys: &[u32], at: usize) -> usize {
    match keys[at].checked_add(1) {
        Some(next) => gallop_lower_bound(keys, at + 1, next),
        // Sorted: nothing after the largest key is greater.
        None => keys.len(),
    }
}

/// A forward cursor over a sorted key column, seeking by galloping from
/// the current position.
///
/// Contract: `seek` targets are non-decreasing across calls; `seek`
/// positions the cursor **at** the returned key (peeking), on the first
/// of its copies, while `advance` steps past every copy of it.
#[derive(Clone, Debug)]
pub struct KeyCursor<'a> {
    keys: &'a [u32],
    pos: usize,
}

impl<'a> KeyCursor<'a> {
    /// Cursor before the first of `keys` (must be sorted ascending).
    pub(crate) fn new(keys: &'a [u32]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        KeyCursor { keys, pos: 0 }
    }

    /// The least key `≥ target` at or after the current position, without
    /// consuming it.
    #[inline]
    pub fn seek(&mut self, target: u32) -> Option<u32> {
        self.pos = gallop_lower_bound(self.keys, self.pos, target);
        self.keys.get(self.pos).copied()
    }

    /// Step past the current key and its copies, returning the next key.
    #[inline]
    pub fn advance(&mut self) -> Option<u32> {
        self.pos = if self.pos < self.keys.len() {
            gallop_past(self.keys, self.pos)
        } else {
            self.pos + 1
        };
        self.keys.get(self.pos).copied()
    }

    /// The positions holding the current key: from the current position
    /// up to where [`Self::advance`] steps. Empty past the end.
    #[inline]
    pub(crate) fn run(&self) -> std::ops::Range<usize> {
        if self.pos < self.keys.len() {
            self.pos..gallop_past(self.keys, self.pos)
        } else {
            self.pos..self.pos
        }
    }

    /// Keys not yet stepped past.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.keys.len().saturating_sub(self.pos)
    }

    /// Position of the current key — what [`Self::jump`] returns to.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Stand on the key at position `pos` (one [`Self::position`]
    /// reported), forwards or back, without a search.
    #[inline]
    pub fn jump(&mut self, pos: usize) {
        debug_assert!(pos < self.keys.len());
        self.pos = pos;
    }
}

impl<'a> AsMut<KeyCursor<'a>> for KeyCursor<'a> {
    fn as_mut(&mut self) -> &mut KeyCursor<'a> {
        self
    }
}

/// How a [`leapfrog`] walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkEnd {
    /// Cursor seeks issued.
    pub seeks: u64,
    /// Whether the visitor stopped the walk before a list ran out.
    pub stopped: bool,
}

/// Leapfrog intersection of `cursors`: for every key **all** of them hold,
/// in ascending order, call `f(key, cursors)` with every cursor standing
/// on that key — so `f` reads what each cursor keeps at the key without a
/// search of its own. The cursor with the fewest keys drives the rounds;
/// each other one seeks to its candidate, and an overshoot sends the lead
/// after it. A key is visited once, however often a list repeats it. `f`
/// may stop the walk by returning `ControlFlow::Break`; the cursors then
/// stay on the key it stopped at.
pub fn leapfrog<'a, C: AsMut<KeyCursor<'a>>>(
    cursors: &mut [C],
    mut f: impl FnMut(u32, &[C]) -> ControlFlow<()>,
) -> WalkEnd {
    let mut end = WalkEnd {
        seeks: 0,
        stopped: false,
    };
    let Some((lead, _)) = cursors
        .iter_mut()
        .map(|c| c.as_mut().remaining())
        .enumerate()
        .min_by_key(|&(_, remaining)| remaining)
    else {
        return end;
    };
    end.seeks += 1;
    let Some(mut candidate) = cursors[lead].as_mut().seek(0) else {
        return end;
    };
    'round: loop {
        for c in 0..cursors.len() {
            if c == lead {
                continue;
            }
            end.seeks += 1;
            match cursors[c].as_mut().seek(candidate) {
                None => break 'round,
                Some(v) if v == candidate => {}
                Some(v) => {
                    end.seeks += 1;
                    match cursors[lead].as_mut().seek(v) {
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
        match cursors[lead].as_mut().advance() {
            Some(next) => candidate = next,
            None => break,
        }
    }
    end
}

/// Intersect sorted slices, returning the common values (ascending,
/// deduplicated): [`leapfrog`] over one [`KeyCursor`] per slice.
pub fn intersect_sorted(lists: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut cursors: Vec<KeyCursor> = lists.iter().map(|l| KeyCursor::new(l)).collect();
    leapfrog(&mut cursors, |v, _| {
        out.push(v);
        ControlFlow::Continue(())
    });
    out
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
    use crate::pattern::PatternId;
    use crate::posting::{KeyedPosting, Posting};
    use crate::WordPathIndex;
    use patternkb_graph::NodeId;
    use proptest::prelude::*;

    #[test]
    fn slice_cursor_seek_and_next() {
        let s = [2u32, 4, 4, 8, 16, 100, 1000];
        let mut c = KeyCursor::new(&s);
        assert_eq!(c.seek(1), Some(2));
        assert_eq!(c.advance(), Some(4));
        assert_eq!(c.seek(4), Some(4));
        assert_eq!(c.seek(5), Some(8));
        assert_eq!(c.position(), 3);
        assert_eq!(c.seek(999), Some(1000));
        assert_eq!(c.remaining(), 1);
        // Both copies of 4 are one stretch, stepped past at once.
        c.jump(1);
        assert_eq!(c.run(), 1..3);
        assert_eq!(c.advance(), Some(8));
        assert_eq!(c.seek(1001), None);
        assert_eq!(c.remaining(), 0);
        assert!(c.run().is_empty());
    }

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
    fn intersect_dedups_common_duplicates() {
        let a = [3u32, 3, 5];
        let b = [3u32, 5, 5];
        assert_eq!(intersect_sorted(&[&a, &b]), vec![3, 5]);
        assert_eq!(intersect_naive(&[&a, &b]), vec![3, 5]);
    }

    /// A word with one path per element of `roots`, all of pattern 0:
    /// a root listed `n` times holds one run of `n` paths.
    fn word(roots: &[u32]) -> WordPathIndex {
        let arena: Vec<NodeId> = roots.iter().map(|&r| NodeId(r)).collect();
        let postings = roots
            .iter()
            .enumerate()
            .map(|(i, &r)| KeyedPosting {
                pattern: PatternId(0),
                root: NodeId(r),
                posting: Posting {
                    nodes_start: i as u32,
                    score: 0,
                    nodes_len: 1,
                    edge_terminal: false,
                },
            })
            .collect();
        let scores = vec![crate::ScoreTerms {
            pagerank: 0.0,
            sim: 0.0,
        }];
        WordPathIndex::new(postings, arena, scores)
    }

    proptest! {
        /// Gallop intersection equals the naive implementation on
        /// arbitrary sorted lists — through plain slices, the lists' root
        /// directories and their pattern runs alike, each cursor standing
        /// on a common key holding that key's paths.
        #[test]
        fn gallop_equals_naive(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u32..400, 0..300), 1..5),
            stop in 0usize..8,
        ) {
            let lists: Vec<Vec<u32>> = raw
                .into_iter()
                .map(|mut l| { l.sort_unstable(); l })
                .collect();
            let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            let naive = intersect_naive(&refs);
            prop_assert_eq!(&intersect_sorted(&refs), &naive);

            let paths = |key: u32| -> Vec<usize> {
                lists.iter().map(|l| l.iter().filter(|&&x| x == key).count()).collect()
            };
            let words: Vec<WordPathIndex> = lists.iter().map(|l| word(l)).collect();
            let mut roots = Vec::new();
            let mut cursors: Vec<_> = words.iter().map(|w| w.root_cursor()).collect();
            let end = leapfrog(&mut cursors, |root, cursors| {
                let held: Vec<usize> = cursors.iter().map(|c| c.num_paths()).collect();
                assert_eq!(held, paths(root));
                roots.push(root);
                if roots.len() > stop { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
            });
            let seen = naive.len().min(stop + 1);
            prop_assert_eq!(&roots[..], &naive[..seen]);
            prop_assert_eq!(end.stopped, naive.len() > stop);

            let mut runs = Vec::new();
            let mut cursors: Vec<_> = words
                .iter()
                .map(|w| w.pattern_primary(PatternId(0)).map(|p| w.pattern_run_cursor(p)))
                .collect::<Option<_>>()
                .unwrap_or_default();
            leapfrog(&mut cursors, |root, cursors| {
                let held: Vec<usize> = cursors.iter().map(|c| c.postings().len()).collect();
                assert_eq!(held, paths(root));
                for (c, w) in cursors.iter().zip(&words) {
                    assert!(c.postings().iter().all(|p| w.nodes_of(p)[0] == NodeId(root)));
                }
                runs.push(root);
                ControlFlow::Continue(())
            });
            prop_assert_eq!(&runs, &naive);
        }
    }
}
