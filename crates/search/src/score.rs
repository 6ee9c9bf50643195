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

/// Exactly-rounded, **order-independent** summation of `f64`s — Shewchuk's
/// non-overlapping-partials algorithm (the one behind Python's
/// `math.fsum`), with a fixed-capacity partial array so the accumulator
/// stays `Copy`.
///
/// Why exactness matters here: the shard layer splits every pattern's
/// subtree set across root-range shards and merges partial accumulators at
/// the top-k heap. Naive `+=` folds associate differently under different
/// shard counts, so scores would drift by ULPs and "sharded == unsharded"
/// could only hold approximately. With an exact sum the value is the
/// correctly-rounded real sum no matter how the pushes were grouped, which
/// is what makes sharded execution **bit-identical** to single-shard (and
/// is proptest-enforced in `tests/shard_equivalence.rs`).
#[derive(Clone, Copy, Debug)]
pub struct ExactSum {
    /// Non-overlapping partials, increasing magnitude; `partials[..len]`.
    partials: [f64; MAX_PARTIALS],
    len: usize,
    /// Non-finite inputs accumulate separately (inf/NaN would corrupt the
    /// two-sum identities); added back in [`Self::value`].
    nonfinite: f64,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            partials: [0.0; MAX_PARTIALS],
            len: 0,
            nonfinite: 0.0,
        }
    }
}

impl ExactSum {
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
    pub fn merge(&mut self, other: &ExactSum) {
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
}

/// Streaming aggregation of subtree scores into a pattern score.
///
/// The sum is kept **exactly** (see [`ExactSum`]), so accumulators for
/// disjoint subtree subsets — e.g. one per index shard — merge into the
/// same final score bits as a single sequential fold.
#[derive(Clone, Copy, Debug, Default)]
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
