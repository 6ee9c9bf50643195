//! Order statistics the benchmark reports, and the host-interference
//! counters recorded beside them.

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between the
/// two closest ranks. Panics on an empty input: every caller has at least
/// one sample by construction.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The 99th percentile of a pass, as the mean of the samples from the
/// 98.5th to the 99.5th percentile: ten of a thousand, centred on p99. A
/// single order statistic of a pass over a thousand distinct queries is
/// one query's latency, and the same query moves ±10 % from pass to pass;
/// its ten neighbours average that out without leaving the tail.
pub fn p99(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "p99 of no samples");
    let last = v.len() - 1;
    let lo = (985 * last).div_ceil(1000);
    let hi = (995 * last / 1000).max(lo);
    v[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// The across-repeats estimator of a long op that can only be held up
/// (a boot or a set-up repeat waits on page faults and on the disk, never
/// the other way round): the mean of the better — here always lower —
/// half of the repeats, the middle one included when their number is odd.
/// Half of the repeats may stall without moving it, and unlike a single
/// quantile it still averages what is left.
pub fn better_half_mean(times: &[f64]) -> f64 {
    let v = sorted(times);
    assert!(!v.is_empty(), "no repeat to report");
    let kept = &v[..v.len().div_ceil(2)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the driver's own
/// spread rule, reproduced so `--selfcheck` prints the number the driver
/// will see. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (the driver's spread).
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles_exclusive(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One reading of the counters that tell an interfered run from a slow
/// one: system-wide steal time and this process's run-queue delay.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    steal: u64,
    total: u64,
    run_ns: u64,
    delay_ns: u64,
}

impl HostSample {
    /// Reads `/proc/stat` and `/proc/self/schedstat`; all zeros where the
    /// files are missing (non-Linux), which yields ratios of 0.
    pub fn now() -> HostSample {
        let mut s = HostSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().next() {
                let f: Vec<u64> = cpu
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal; guest
                // time is already inside user/nice.
                s.total = f.iter().take(8).sum();
                s.steal = f.get(7).copied().unwrap_or(0);
            }
        }
        if let Ok(sched) = std::fs::read_to_string("/proc/self/schedstat") {
            let f: Vec<u64> = sched
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            s.run_ns = f.first().copied().unwrap_or(0);
            s.delay_ns = f.get(1).copied().unwrap_or(0);
        }
        s
    }

    /// `(steal_ratio, run_delay_ratio)` between `self` (earlier) and
    /// `later`: stolen share of all CPU time, and time the main thread
    /// sat runnable-but-not-running per unit of time it ran.
    pub fn ratios_until(&self, later: &HostSample) -> (f64, f64) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        (
            ratio(later.steal - self.steal, later.total - self.total),
            ratio(later.delay_ns - self.delay_ns, later.run_ns - self.run_ns),
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        // Between ranks: position 0.9 * 4 = 3.6 → 4 + 0.6.
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1001).map(f64::from).collect();
        let p99 = percentile(&v, 0.99);
        assert_eq!(p99, 991.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn p99_averages_the_ten_samples_around_the_99th_percentile() {
        // 1..=1001: the values 986..=996, centred on the classical p99
        // (991); five samples stay beyond the window.
        let v: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(p99(&v), 991.0);
        assert_eq!(p99(&v), percentile(&v, 0.99));
        // One outlier at the very top does not enter.
        let mut spiked = v.clone();
        spiked[1000] = 1e9;
        assert_eq!(p99(&spiked), 991.0);
        // A thousand samples: ten of them.
        assert_eq!(p99(&v[..1000]), (986..=995).sum::<i32>() as f64 / 10.0);
        // Too few samples for a window: the nearest rank.
        assert_eq!(p99(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn median_of_passes_ignores_one_odd_pass_on_either_side() {
        // Per-pass values of a time: one interfered pass, one lucky one.
        assert_eq!(median(&[1.2, 9.0, 1.0, 1.3, 0.4]), 1.2);
        // An even number of passes: the mean of the middle two.
        assert_eq!(median(&[100.0, 98.0, 97.0, 20.0]), 97.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn better_half_mean_ignores_the_stalled_half() {
        // Two of four boots stalled on heap growth: they do not count.
        assert_eq!(better_half_mean(&[0.81, 1.72, 0.79, 2.4]), 0.80);
        // Odd: the middle repeat counts.
        assert_eq!(better_half_mean(&[3.0, 1.0, 2.0]), 1.5);
        assert_eq!(better_half_mean(&[0.5]), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_exclusive(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            (1.5, 4.0, 12.0)
        );
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn host_ratios_are_shares_of_the_interval() {
        let a = HostSample {
            steal: 10,
            total: 1000,
            run_ns: 5_000,
            delay_ns: 100,
        };
        let b = HostSample {
            steal: 30,
            total: 2000,
            run_ns: 15_000,
            delay_ns: 600,
        };
        let (steal, delay) = a.ratios_until(&b);
        assert!((steal - 0.02).abs() < 1e-12);
        assert!((delay - 0.05).abs() < 1e-12);
        assert_eq!(a.ratios_until(&a), (0.0, 0.0));
    }
}
