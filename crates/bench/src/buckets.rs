//! Bucketing queries by answer counts, as in Figures 7–9 ("group 10²
//! contains all queries with 10–99 tree patterns").

/// The paper's log₁₀ bucket of a count: `10^⌈log10(c+1)⌉`-style grouping —
/// bucket `10` holds counts 1–9, bucket `100` holds 10–99, etc. Zero counts
/// land in bucket 1.
pub fn bucket_of(count: u64) -> u64 {
    let mut bucket = 1u64;
    let mut c = count;
    while c > 0 {
        bucket = bucket.saturating_mul(10);
        c /= 10;
    }
    bucket.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 1);
        assert_eq!(bucket_of(1), 10);
        assert_eq!(bucket_of(9), 10);
        assert_eq!(bucket_of(10), 100);
        assert_eq!(bucket_of(99), 100);
        assert_eq!(bucket_of(100), 1000);
        assert_eq!(bucket_of(123_456), 1_000_000);
    }
}
