//! The ranking-quality metric of the §5.2 reproduction.
//!
//! The paper's "precision" is the fraction of true top-k answers an
//! approximate run recovered (Figures 11–12). It is computed over opaque
//! answer keys, so it applies to pattern rankings and subtree rankings
//! alike; for same-length lists it equals recall.

/// Fraction of `truth` present in `approx` (the paper's precision; §5.2).
/// Empty truth → 1.0 by convention.
pub fn precision<K: PartialEq>(truth: &[K], approx: &[K]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = truth.iter().filter(|t| approx.contains(t)).count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_basics() {
        assert_eq!(precision(&[1, 2, 3], &[3, 2, 1]), 1.0);
        assert_eq!(precision(&[1, 2, 3, 4], &[1, 2]), 0.5);
        assert_eq!(precision::<u32>(&[], &[1]), 1.0);
        assert_eq!(precision(&[1], &[]), 0.0);
    }
}
