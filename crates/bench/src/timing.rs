//! The paper's min / geometric-mean / max error bars ("we report the
//! min / (geometric) average / max execution time in the form of error
//! bars", §5).

use std::time::Duration;

/// Min / geometric-mean / max summary of a set of durations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBar {
    /// Fastest observation (ms).
    pub min_ms: f64,
    /// Geometric mean (ms) — the paper's "average".
    pub geo_ms: f64,
    /// Slowest observation (ms).
    pub max_ms: f64,
    /// Number of observations.
    pub n: usize,
}

impl ErrorBar {
    /// Summarize durations; `None` for an empty input.
    pub fn of(durations: &[Duration]) -> Option<ErrorBar> {
        if durations.is_empty() {
            return None;
        }
        let ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ms.iter().copied().fold(0.0f64, f64::max);
        // Geometric mean over max(x, tiny) to tolerate sub-microsecond zeros.
        let geo = (ms.iter().map(|&x| x.max(1e-6).ln()).sum::<f64>() / ms.len() as f64).exp();
        Some(ErrorBar {
            min_ms: min,
            geo_ms: geo,
            max_ms: max,
            n: ms.len(),
        })
    }
}

impl std::fmt::Display for ErrorBar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} / {:.2} / {:.2} ms (n={})",
            self.min_ms, self.geo_ms, self.max_ms, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bar_math() {
        let ds = [Duration::from_millis(1), Duration::from_millis(100)];
        let eb = ErrorBar::of(&ds).unwrap();
        assert_eq!(eb.min_ms, 1.0);
        assert_eq!(eb.max_ms, 100.0);
        // geo mean of 1 and 100 is 10.
        assert!((eb.geo_ms - 10.0).abs() < 1e-9);
        assert_eq!(eb.n, 2);
    }

    #[test]
    fn empty_is_none() {
        assert!(ErrorBar::of(&[]).is_none());
    }

    #[test]
    fn display() {
        let eb = ErrorBar::of(&[Duration::from_millis(5)]).unwrap();
        assert!(format!("{eb}").contains("n=1"));
    }
}
