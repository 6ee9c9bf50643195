//! The scoring-function class of §2.2.3 (Eqs. (2)–(6)).
//!
//! A valid subtree's score multiplies three decomposable factors:
//!
//! ```text
//! score(T, q) = score1(T,q)^z1 · score2(T,q)^z2 · score3(T,q)^z3
//!   score1 = Σ_w |T(w)|        (path sizes; z1 = −1 prefers compact trees)
//!   score2 = Σ_w PR(f(w))      (PageRank of matched nodes)
//!   score3 = Σ_w sim(w, f(w))  (Jaccard similarity of keyword matches)
//! ```
//!
//! and a tree pattern aggregates subtree scores — `Sum` by default, with
//! `Avg`, `Max` and `Count` as the alternatives the paper names.
//!
//! Every factor is a sum over per-keyword paths, so the per-path terms
//! `(len, pagerank, sim)` precomputed in the path index are all a search
//! algorithm ever reads: the length from the posting, the other two from
//! its list's score table.
//!
//! Pattern scores sum **exactly** ([`ExactSum`]), so any split of a
//! pattern's subtrees — over shards, threads or kernels — merges into the
//! same score bits. A 128-bit fixed-point integer holds every input in
//! the exponent window subtree scores use, and Shewchuk's partials
//! ([`Partials`]) take the rest — subnormals, `−0.0`, inputs outside the
//! window, inf and NaN — and any integer that would overflow. A push costs
//! one shift and one checked add, a [`ScoreAcc`] is 48 bytes, and the
//! result is still the unique correctly-rounded sum.

use patternkb_index::{Posting, WordPathIndex};
use std::sync::Arc;

/// How subtree scores aggregate into a pattern score (Eq. (2) and the
/// surrounding discussion).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// `score(P) = Σ_T score(T)` — favors patterns with many subtrees
    /// (the paper's running choice).
    Sum,
    /// Mean subtree score — favors individually strong subtrees.
    Avg,
    /// Best subtree score.
    Max,
    /// Plain subtree count.
    Count,
}

/// Scoring parameters; defaults are the paper's (`z1 = −1, z2 = z3 = 1`,
/// `Sum` aggregation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoringConfig {
    /// Exponent on `score1` (tree size).
    pub z1: f64,
    /// Exponent on `score2` (PageRank mass).
    pub z2: f64,
    /// Exponent on `score3` (keyword similarity).
    pub z3: f64,
    /// Pattern-level aggregation.
    pub aggregation: Aggregation,
}

impl Default for ScoringConfig {
    fn default() -> Self {
        ScoringConfig {
            z1: -1.0,
            z2: 1.0,
            z3: 1.0,
            aggregation: Aggregation::Sum,
        }
    }
}

impl ScoringConfig {
    /// Score one valid subtree from the per-keyword factor sums
    /// (`Σ|T(w)|`, `ΣPR`, `Σsim`).
    #[inline]
    pub fn tree_score(&self, len_sum: f64, pr_sum: f64, sim_sum: f64) -> f64 {
        powz(len_sum, self.z1) * powz(pr_sum, self.z2) * powz(sim_sum, self.z3)
    }

    /// Score a subtree given its chosen per-keyword postings, each from
    /// the list of `words` at its position.
    #[inline]
    pub fn tree_score_of(&self, words: &[Arc<WordPathIndex>], postings: &[&Posting]) -> f64 {
        let mut len = 0.0;
        let mut pr = 0.0;
        let mut sim = 0.0;
        for (p, w) in postings.iter().zip(words) {
            let terms = w.score_terms(p);
            len += p.score_len() as f64;
            pr += terms.pagerank;
            sim += terms.sim;
        }
        self.tree_score(len, pr, sim)
    }
}

/// `x^z` with the convention `0^0 = 1` and `x ≤ 0 → 0` for fractional `z`
/// (factor sums are non-negative by construction; a zero similarity sum
/// yields a zero score under the default `z3 = 1`). Public because the
/// admissible bounds in [`crate::bound`] must use the *same* exponentiation
/// convention as the scores they bound.
#[inline]
pub fn powz(x: f64, z: f64) -> f64 {
    if z == 0.0 {
        1.0
    } else if z == 1.0 {
        x
    } else if z == -1.0 {
        if x == 0.0 {
            0.0
        } else {
            1.0 / x
        }
    } else {
        x.powf(z)
    }
}

/// Maximum non-overlapping partials an exact f64 sum can need: the finite
/// double exponent range (including subnormals) spans ~2098 bits, i.e. at
/// most ⌈2098 / 53⌉ + slack non-overlapping mantissas.
const MAX_PARTIALS: usize = 44;

/// Exactly-rounded, **order-independent** summation of any `f64`s —
/// Shewchuk's non-overlapping-partials algorithm (the one behind Python's
/// `math.fsum`), with a fixed-capacity partial array so the accumulator
/// stays `Copy`. Each push costs a pass over the partials (18–25 ns on
/// subtree scores), and the accumulator is 368 bytes: [`ExactSum`] keeps
/// one only for the inputs its fixed-point window cannot hold.
#[derive(Clone, Copy, Debug)]
pub struct Partials {
    /// Non-overlapping partials, increasing magnitude; `partials[..len]`.
    partials: [f64; MAX_PARTIALS],
    len: usize,
    /// Non-finite inputs accumulate separately (inf/NaN would corrupt the
    /// two-sum identities); added back in [`Self::value`].
    nonfinite: f64,
}

impl Default for Partials {
    fn default() -> Self {
        Partials {
            partials: [0.0; MAX_PARTIALS],
            len: 0,
            nonfinite: 0.0,
        }
    }
}

impl Partials {
    /// Add one value.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.nonfinite += x;
            return;
        }
        let mut x = x;
        let mut i = 0;
        for j in 0..self.len {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        debug_assert!(i < MAX_PARTIALS, "exact sum partials overflow");
        self.partials[i] = x;
        self.len = i + 1;
    }

    /// Fold another exact sum in; the result is the exact sum of all inputs
    /// to both, so merging is associative and commutative.
    pub fn merge(&mut self, other: &Partials) {
        for j in 0..other.len {
            self.push(other.partials[j]);
        }
        self.nonfinite += other.nonfinite;
    }

    /// The correctly-rounded total (Python `fsum`'s rounding, including the
    /// round-half-even correction).
    pub fn value(&self) -> f64 {
        if self.nonfinite != 0.0 || self.nonfinite.is_nan() {
            return self.nonfinite;
        }
        let p = &self.partials[..self.len];
        if p.is_empty() {
            return 0.0;
        }
        let mut n = p.len();
        let mut hi = p[n - 1];
        let mut lo = 0.0;
        while n > 1 {
            n -= 1;
            let x = hi;
            let y = p[n - 1];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Round half to even: if the remainder and the next partial agree
        // in sign, `hi` may need a one-ulp nudge.
        if n > 1 && ((lo < 0.0 && p[n - 2] < 0.0) || (lo > 0.0 && p[n - 2] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }

    /// Add the fixed-point integer `v` (units of `2^-FRAC_BITS`) as three
    /// exactly representable chunks of at most 44 bits each.
    fn push_fixed(&mut self, v: i128) {
        const LOW: i128 = (1 << 42) - 1;
        self.push((v >> 84) as f64 * pow2(84 - FRAC_BITS));
        self.push(((v >> 42) & LOW) as f64 * pow2(42 - FRAC_BITS));
        self.push((v & LOW) as f64 * pow2(-FRAC_BITS));
    }
}

/// Fraction bits of [`ExactSum`]'s fixed-point integer: it counts units of
/// `2^-FRAC_BITS`.
const FRAC_BITS: i32 = 100;
/// The window's upper edge: inputs below `2^MAX_EXP` in magnitude.
const MAX_EXP: i32 = 20;
/// The window as biased `f64` exponents, `[WINDOW_LO, WINDOW_HI)`: the
/// least is the one whose last mantissa bit is worth `2^-FRAC_BITS`.
const WINDOW_LO: u64 = (1023 + 52 - FRAC_BITS) as u64;
const WINDOW_HI: u64 = (1023 + MAX_EXP) as u64;

/// `2^e` for a normal exponent `e`.
#[inline]
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Exactly-rounded, **order-independent** summation of `f64`s at a fixed
/// cost per input — a small superaccumulator (after Neal,
/// arXiv:1505.05571) over the exponent window subtree scores use, with
/// [`Partials`] as the exact fallback outside it.
///
/// * **The window.** A finite, normal input `x` with `|x| < 2^20` whose
///   last mantissa bit is worth at least `2^-100` (exponents −48 … 19) is
///   an integer number of `2^-100` units below `2^120`: its mantissa
///   shifted into place. It is added to one `i128` with `checked_add` —
///   one shift and one add per push, with ≥ 2^7 inputs of headroom at the
///   window's top and 2^33 at the exponents default scoring produces
///   (−22 … −7 over the benchmark's `cold` pool).
/// * **The fallback.** Everything else — subnormals, `−0.0`, inputs
///   outside the window, inf and NaN — goes to a boxed [`Partials`],
///   allocated on the first such input; default scoring never allocates
///   one. `+0.0` adds nothing.
/// * **The spill.** When an add would overflow, the integer moves into the
///   fallback as three exact `f64` chunks and starts again from the input.
///
/// [`Self::value`] is therefore the exact real sum of every input, rounded
/// once: the integer converts with round-half-even, or, beside a
/// fallback, its chunks join a stack copy of it and [`Partials::value`]
/// rounds the whole. A correctly-rounded sum is unique, so the result is
/// bit for bit what [`Partials`] alone returns for the same inputs,
/// whatever their order or grouping — a proptest checks it against
/// [`Partials`] and against an independent exact reference.
///
/// Why exactness matters here: the shard layer splits every pattern's
/// subtree set across root-range shards and merges partial accumulators at
/// the top-k heap. Naive `+=` folds associate differently under different
/// shard counts, so scores would drift by ULPs and "sharded == unsharded"
/// could only hold approximately. With an exact sum the value is the
/// correctly-rounded real sum no matter how the pushes were grouped, which
/// is what makes sharded execution **bit-identical** to single-shard (and
/// is proptest-enforced in `tests/shard_equivalence.rs`).
#[derive(Clone, Debug, Default)]
pub struct ExactSum {
    /// The in-window inputs, in units of `2^-FRAC_BITS`.
    fixed: i128,
    /// Whether `fixed` has taken an input (`+0.0` included): only then does
    /// it join a fallback, whose lone `−0.0` a `+0.0` turns into `+0.0`,
    /// as [`Partials`] does.
    fixed_used: bool,
    /// Every other input, and the spilled integers.
    fallback: Option<Box<Partials>>,
}

impl ExactSum {
    /// Add one value.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let bits = x.to_bits();
        let shift = ((bits >> 52) & 0x7ff).wrapping_sub(WINDOW_LO);
        if shift < WINDOW_HI - WINDOW_LO {
            let v = (((bits & ((1 << 52) - 1)) | 1 << 52) as i128) << shift;
            self.add_fixed(if x < 0.0 { -v } else { v });
            self.fixed_used = true;
        } else if bits == 0 {
            self.fixed_used = true;
        } else {
            self.fallback.get_or_insert_with(Box::default).push(x);
        }
    }

    /// Add `v` to the integer, spilling it on overflow.
    #[inline]
    fn add_fixed(&mut self, v: i128) {
        match self.fixed.checked_add(v) {
            Some(sum) => self.fixed = sum,
            None => self.spill(v),
        }
    }

    /// Move the integer into the fallback and start again from `v`.
    #[cold]
    fn spill(&mut self, v: i128) {
        let fixed = std::mem::replace(&mut self.fixed, v);
        self.fallback
            .get_or_insert_with(Box::default)
            .push_fixed(fixed);
    }

    /// Fold another exact sum in; the result is the exact sum of all inputs
    /// to both, so merging is associative and commutative.
    pub fn merge(&mut self, other: &ExactSum) {
        self.add_fixed(other.fixed);
        self.fixed_used |= other.fixed_used;
        if let Some(fallback) = &other.fallback {
            self.fallback
                .get_or_insert_with(Box::default)
                .merge(fallback);
        }
    }

    /// The correctly-rounded total (round half to even), bit for bit what
    /// [`Partials::value`] gives for the same inputs.
    pub fn value(&self) -> f64 {
        match &self.fallback {
            // `as` rounds half to even, and the scaling is exact: a nonzero
            // integer times 2^-100 lies in [2^-100, 2^27), all normal.
            None => self.fixed as f64 * pow2(-FRAC_BITS),
            Some(fallback) => {
                let mut all = **fallback;
                if self.fixed_used {
                    all.push_fixed(self.fixed);
                }
                all.value()
            }
        }
    }
}

/// Streaming aggregation of subtree scores into a pattern score.
///
/// The sum is kept **exactly** (see [`ExactSum`]), so accumulators for
/// disjoint subtree subsets — e.g. one per index shard — merge into the
/// same final score bits as a single sequential fold. A push costs one
/// fixed-point add, a max and an increment, and the accumulator is 48
/// bytes; it is not `Copy`, since an input outside [`ExactSum`]'s window
/// boxes a fallback.
#[derive(Clone, Debug, Default)]
pub struct ScoreAcc {
    /// Exact sum of subtree scores.
    sum: ExactSum,
    /// Maximum subtree score.
    pub max: f64,
    /// Number of subtrees.
    pub count: u64,
}

impl ScoreAcc {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one subtree score in.
    #[inline]
    pub fn push(&mut self, tree_score: f64) {
        self.sum.push(tree_score);
        self.max = self.max.max(tree_score);
        self.count += 1;
    }

    /// Merge another accumulator (used when a pattern's subtrees are found
    /// under several roots/partitions/shards). Exact: the merged sum equals
    /// the sum over the union, bit for bit, regardless of how the pushes
    /// were split.
    pub fn merge(&mut self, other: &ScoreAcc) {
        self.sum.merge(&other.sum);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// The correctly-rounded sum of pushed scores.
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// The pattern score under `agg`.
    pub fn finish(&self, agg: Aggregation) -> f64 {
        match agg {
            Aggregation::Sum => self.sum(),
            Aggregation::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum() / self.count as f64
                }
            }
            Aggregation::Max => self.max,
            Aggregation::Count => self.count as f64,
        }
    }

    /// The sampling-corrected pattern score: with root-sampling rate
    /// `rate`, `Sum` and `Count` are Horvitz–Thompson scaled by `1/rate`
    /// (unbiased, Theorem 5); `Avg` and `Max` are returned unscaled (the
    /// sample mean/max are the natural estimators).
    pub fn finish_estimated(&self, agg: Aggregation, rate: f64) -> f64 {
        match agg {
            Aggregation::Sum => self.sum() / rate,
            Aggregation::Count => self.count as f64 / rate,
            Aggregation::Avg | Aggregation::Max => self.finish(agg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_matches_paper() {
        let s = ScoringConfig::default();
        assert_eq!(s.z1, -1.0);
        assert_eq!(s.z2, 1.0);
        assert_eq!(s.z3, 1.0);
        assert_eq!(s.aggregation, Aggregation::Sum);
    }

    #[test]
    fn example_24_arithmetic() {
        // T1: score1 = 8, score2 = 4, score3 = 3.5  → 4·3.5/8 = 1.75
        // T3: score1 = 7, score2 = 4, score3 = 7/3  → 4·(7/3)/7 = 4/3
        let s = ScoringConfig::default();
        let t1 = s.tree_score(8.0, 4.0, 3.5);
        assert!((t1 - 1.75).abs() < 1e-12);
        let t3 = s.tree_score(7.0, 4.0, 0.5 / 3.0 + 0.5 / 3.0 + 1.0 + 1.0);
        assert!((t3 - 4.0 / 3.0).abs() < 1e-12);
        // P1 = {T1, T2} with score(T2) = score(T1) → score(P1) = 3.5
        // P2 = {T3} → 4/3. So score(P1) > score(P2) (Example 2.4).
        let p1 = t1 + t1;
        assert!(p1 > t3);
    }

    #[test]
    fn aggregations() {
        let mut acc = ScoreAcc::new();
        acc.push(1.0);
        acc.push(3.0);
        acc.push(2.0);
        assert_eq!(acc.finish(Aggregation::Sum), 6.0);
        assert_eq!(acc.finish(Aggregation::Avg), 2.0);
        assert_eq!(acc.finish(Aggregation::Max), 3.0);
        assert_eq!(acc.finish(Aggregation::Count), 3.0);
    }

    #[test]
    fn empty_accumulator() {
        let acc = ScoreAcc::new();
        assert_eq!(acc.finish(Aggregation::Sum), 0.0);
        assert_eq!(acc.finish(Aggregation::Avg), 0.0);
        assert_eq!(acc.finish(Aggregation::Count), 0.0);
    }

    #[test]
    fn merge() {
        let mut a = ScoreAcc::new();
        a.push(1.0);
        let mut b = ScoreAcc::new();
        b.push(5.0);
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum(), 8.0);
        assert_eq!(a.max, 5.0);
    }

    #[test]
    fn exact_sum_is_order_and_partition_independent() {
        // Values chosen so naive folds disagree across associations.
        let values: Vec<f64> = (0..200)
            .map(|i| {
                let x = (i as f64 + 1.0) * 0.1;
                x.sin().abs() * 10f64.powi((i % 13) - 6)
            })
            .collect();
        let mut whole = ExactSum::default();
        for &v in &values {
            whole.push(v);
        }
        // Any 2-way split merged must give the same bits.
        for cut in [1usize, 7, 50, 199] {
            let (lo, hi) = values.split_at(cut);
            let mut a = ExactSum::default();
            for &v in lo {
                a.push(v);
            }
            let mut b = ExactSum::default();
            for &v in hi {
                b.push(v);
            }
            a.merge(&b);
            assert_eq!(a.value().to_bits(), whole.value().to_bits(), "cut {cut}");
        }
        // Reversed insertion order too.
        let mut rev = ExactSum::default();
        for &v in values.iter().rev() {
            rev.push(v);
        }
        assert_eq!(rev.value().to_bits(), whole.value().to_bits());
    }

    #[test]
    fn exact_sum_is_correctly_rounded() {
        // 1 + 2^-60 repeated: naive summation loses the tail entirely.
        let mut s = ExactSum::default();
        s.push(1.0);
        for _ in 0..1u32 << 10 {
            s.push(2f64.powi(-60));
        }
        let expected = 1.0 + 2f64.powi(-50);
        assert_eq!(s.value().to_bits(), expected.to_bits());
    }

    #[test]
    fn exact_sum_nonfinite_inputs_degrade_like_naive() {
        let mut s = ExactSum::default();
        s.push(1.0);
        s.push(f64::INFINITY);
        assert_eq!(s.value(), f64::INFINITY);
    }

    /// The exact sum of finite `values`, rounded once to nearest, ties to
    /// even — the oracle both accumulators answer to, sharing no code with
    /// them. Every finite `f64` is a whole number of 2^-1074 units, so the
    /// positive and the negative inputs each sum exactly in 64-bit limbs.
    /// Inputs must not sum past `f64::MAX`.
    fn reference_sum(values: &[f64]) -> f64 {
        const LIMBS: usize = 36;
        let mut sums = [[0u64; LIMBS]; 2];
        for &x in values {
            assert!(x.is_finite());
            let bits = x.to_bits();
            let (biased, frac) = ((bits >> 52) & 0x7ff, bits & ((1 << 52) - 1));
            let (mantissa, shift) = match biased {
                0 => (frac, 0),
                _ => (frac | 1 << 52, biased as usize - 1),
            };
            let limbs = &mut sums[(bits >> 63) as usize];
            let (mut i, mut add) = (shift / 64, u128::from(mantissa) << (shift % 64));
            while add != 0 {
                let sum = u128::from(limbs[i]) + (add & u128::from(u64::MAX));
                limbs[i] = sum as u64;
                add = (add >> 64) + (sum >> 64);
                i += 1;
            }
        }
        let negative = sums[1].iter().rev().cmp(sums[0].iter().rev()).is_gt();
        let (big, small) = if negative {
            (sums[1], sums[0])
        } else {
            (sums[0], sums[1])
        };
        let mut diff = [0u64; LIMBS];
        let mut borrow = false;
        for i in 0..LIMBS {
            let (d, b1) = big[i].overflowing_sub(small[i]);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            (diff[i], borrow) = (d, b1 || b2);
        }
        let bit = |i: usize| diff[i / 64] >> (i % 64) & 1 == 1;
        let Some(top) = (0..LIMBS * 64).rev().find(|&i| bit(i)) else {
            // A zero sum is −0.0 only when every input was −0.0.
            let all_negative_zero = values.iter().all(|x| x.to_bits() == (-0.0f64).to_bits());
            return if !values.is_empty() && all_negative_zero {
                -0.0
            } else {
                0.0
            };
        };
        let magnitude = if top < 53 {
            // Below 2^-1021 every multiple of 2^-1074 is a double whose
            // bits are the multiple itself.
            f64::from_bits(diff[0])
        } else {
            let shift = top - 52;
            let mut mantissa = (0..53).fold(0u64, |m, i| m | u64::from(bit(shift + i)) << i);
            let mut biased = shift as u64 + 1;
            let sticky = (0..shift - 1).any(bit);
            if bit(shift - 1) && (sticky || mantissa & 1 == 1) {
                mantissa += 1;
                if mantissa == 1 << 53 {
                    (mantissa, biased) = (mantissa >> 1, biased + 1);
                }
            }
            assert!(biased < 0x7ff, "the inputs sum past f64::MAX");
            f64::from_bits(biased << 52 | (mantissa & ((1 << 52) - 1)))
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    /// One generated input, `(kind, exponent, mantissa, negative)`: by
    /// `kind`, exponents around the window, over the whole finite range
    /// short of overflow (subnormals below −1022), on either side of both
    /// window edges, at subtree scores' −22 … −7, a signed zero, or — only
    /// where `nonfinite` — ±inf or NaN.
    fn input((kind, exp, mantissa, negative): (u32, i32, u64, bool), nonfinite: bool) -> f64 {
        let e = match kind {
            0..=4 => -60 + exp.rem_euclid(91),
            5..=8 => exp,
            9..=12 => [-49, -48, 19, 20][kind as usize - 9],
            13 => return if negative { -0.0 } else { 0.0 },
            14 if nonfinite => {
                return [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][exp.rem_euclid(3) as usize]
            }
            _ => -22 + exp.rem_euclid(16),
        };
        let frac = mantissa & ((1 << 52) - 1);
        let bits = if e < -1022 {
            frac
        } else {
            ((e + 1023) as u64) << 52 | frac
        };
        let x = f64::from_bits(bits);
        if negative {
            -x
        } else {
            x
        }
    }

    fn inputs() -> impl Strategy<Value = Vec<(u32, i32, u64, bool)>> {
        proptest::collection::vec(
            (0u32..20, -1074i32..=1000, any::<u64>(), any::<bool>()),
            0..48,
        )
    }

    /// A SplitMix64 stream: the seeded choices of push order and merge tree.
    fn stream(mut seed: u64) -> impl FnMut(usize) -> usize {
        move |n| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// `ExactSum` and `Partials` over the same inputs, pushed in order
    /// into `groups` accumulators each (input `i` into group `i % groups`),
    /// then merged pairwise in the order `pick` draws: both sides see the
    /// same sequence of pushes and merges.
    fn both(
        values: &[f64],
        groups: usize,
        mut pick: impl FnMut(usize) -> usize,
    ) -> (ExactSum, Partials) {
        let mut exact = vec![ExactSum::default(); groups];
        let mut partials = vec![Partials::default(); groups];
        for (i, &x) in values.iter().enumerate() {
            exact[i % groups].push(x);
            partials[i % groups].push(x);
        }
        while exact.len() > 1 {
            let from = pick(exact.len());
            let (e, p) = (exact.swap_remove(from), partials.swap_remove(from));
            let into = pick(exact.len());
            exact[into].merge(&e);
            partials[into].merge(&p);
        }
        (exact.pop().unwrap(), partials.pop().unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `ExactSum` returns what `Partials` — the algorithm it replaced —
        /// returns, bit for bit, and for finite inputs both are the
        /// reference sum: over random magnitudes, subnormals, ±0.0, both
        /// window edges, ±inf and NaN, with inputs pushed beside their
        /// negations (cancellation), in a random order, into random
        /// groups merged in a random tree.
        #[test]
        fn exact_sum_is_partials_bit_for_bit(
            raw in inputs(),
            negate in proptest::collection::vec(any::<bool>(), 48),
            nonfinite in 0u32..4,
            seed in any::<u64>(),
            groups in 1usize..6,
        ) {
            let nonfinite = nonfinite == 0;
            let mut values: Vec<f64> = raw.iter().map(|&r| input(r, nonfinite)).collect();
            values.extend(values.clone().iter().zip(&negate).filter(|(_, &n)| n).map(|(x, _)| -x));
            let mut pick = stream(seed);
            for i in (1..values.len()).rev() {
                values.swap(i, pick(i + 1));
            }
            let (exact, partials) = both(&values, 1, &mut pick);
            let sum = exact.value();
            prop_assert_eq!(sum.to_bits(), partials.value().to_bits(), "{:?}", values);
            if values.iter().all(|x| x.is_finite()) {
                prop_assert_eq!(sum.to_bits(), reference_sum(&values).to_bits(), "{:?}", values);
            }
            let in_window = |x: &f64| (2f64.powi(-48)..2f64.powi(20)).contains(&x.abs()) || x.to_bits() == 0;
            if values.iter().all(in_window) {
                prop_assert!(exact.fallback.is_none(), "{:?}", values);
            }
            let (exact, partials) = both(&values, groups, &mut pick);
            prop_assert_eq!(exact.value().to_bits(), partials.value().to_bits(), "{:?}", values);
            if !sum.is_nan() {
                prop_assert_eq!(exact.value().to_bits(), sum.to_bits(), "{:?}", values);
            }
        }

        /// Sums of hundreds of inputs at the window's top overflow the
        /// integer, which spills into the fallback and stays exact.
        #[test]
        fn long_sums_spill_exactly(
            top in proptest::collection::vec(any::<u64>(), 256..600),
            raw in inputs(),
            groups in 1usize..4,
        ) {
            let mut values: Vec<f64> =
                top.iter().map(|&m| input((11, 0, m, m % 16 == 0), false)).collect();
            values.extend(raw.iter().map(|&r| input(r, false)));
            let (exact, partials) = both(&values, groups, stream(top[0]));
            let sum = exact.value();
            prop_assert!(exact.fallback.is_some());
            prop_assert_eq!(sum.to_bits(), partials.value().to_bits());
            prop_assert_eq!(sum.to_bits(), reference_sum(&values).to_bits());
        }
    }

    #[test]
    fn estimation_scaling() {
        let mut acc = ScoreAcc::new();
        acc.push(2.0);
        acc.push(4.0);
        assert_eq!(acc.finish_estimated(Aggregation::Sum, 0.5), 12.0);
        assert_eq!(acc.finish_estimated(Aggregation::Count, 0.1), 20.0);
        assert_eq!(acc.finish_estimated(Aggregation::Max, 0.1), 4.0);
        assert_eq!(acc.finish_estimated(Aggregation::Avg, 0.1), 3.0);
    }

    #[test]
    fn zero_factor_behaviour() {
        let s = ScoringConfig::default();
        // Zero size sum can't occur, but must not produce inf/NaN.
        assert_eq!(s.tree_score(0.0, 1.0, 1.0), 0.0);
        assert!(s.tree_score(4.0, 0.0, 1.0) == 0.0);
    }

    #[test]
    fn custom_exponents() {
        let s = ScoringConfig {
            z1: -2.0,
            z2: 0.5,
            z3: 0.0,
            aggregation: Aggregation::Sum,
        };
        let v = s.tree_score(2.0, 4.0, 123.0);
        assert!((v - (2.0f64.powf(-2.0) * 2.0)).abs() < 1e-12);
    }
}
