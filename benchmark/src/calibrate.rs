//! The calibrated clock every reported time is read on.
//!
//! On the shared VMs this benchmark has to repeat on, the same
//! instructions run up to 1.5× slower for seconds at a time, depending on
//! what the host's other tenants do (see README, "Noise"). A *probe* is a
//! fixed piece of work from this file — no library code, so no change
//! under test can move it — timed where the measured work is: between two
//! chunks of ops, before and after a boot or an ingest. Its time over its
//! nominal time, damped by [`SENSITIVITY`], is the slow-down *factor* the
//! measured work suffers at that moment, and a stretch of wall time counts
//! as `seconds ÷ factor around it`. On a machine in its nominal state the
//! calibrated clock is the wall clock.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`kernel`] takes on the machine this benchmark was built
/// on, in its usual state. It fixes the unit of every reported time; a
/// comparison between two commits does not depend on it.
pub const NOMINAL_KERNEL_S: f64 = 0.65e-3;

/// How much of the probe's slow-down the measured work shares: a stretch
/// of work takes `probe slow-down ^ SENSITIVITY` times its undisturbed
/// time. Fitted over 240 passes and 460 boots of all four workloads taken
/// while the probe read between 0.8 and 1.6 times its nominal time: the
/// slope of log(time) on log(probe time) was 0.65–0.9 for searches and
/// 0.71–0.75 for boots (their stalls on memory do not stretch when the
/// core is shared; the kernel has none). At 1 the clock over-corrects —
/// `hot/search_p50_ms` read 0.29 ms where the probe ran 1.5× slow and
/// 0.345 ms where it ran at nominal speed — and the spread over all those
/// passes is lowest at 0.7 (hot p50: 10.6 % uncorrected, 5.7 % at 1,
/// 4.3 % at 0.7).
pub const SENSITIVITY: f64 = 0.7;

/// Kernels per probe between two chunks of searches (a chunk is ≈ 50 ms).
pub const CHUNK_KERNELS: u32 = 2;
/// Kernels per probe before and after a long op (boot, ingest, set-up
/// repeat: 0.3–1 s each). Measured: a 1 ms probe around a 350 ms op adds
/// more noise than it removes, a 10–15 ms one halves the spread.
pub const LONG_KERNELS: u32 = 16;

/// Work shaped like the request path's — integer formatting into a
/// string, short copies, sorting small keys — with no allocation, so the
/// heap the library under test leaves behind cannot move it. Of the
/// kernels tried (a dependent multiply chain, a 64 MiB pointer chase, a
/// block copy, formatting with and without allocation) the formatting
/// ones are those whose time follows the search, boot and ingest times
/// (correlation 0.7–0.85 per 50 ms chunk).
fn kernel(text: &mut String, keys: &mut [u32; 256]) -> usize {
    let mut total = 0;
    for round in 0..100u32 {
        text.clear();
        for i in 0..100u32 {
            write!(text, "value {i} of {round},").expect("writing to a String");
        }
        total += text.len();
        let mut x = round.wrapping_mul(2_654_435_761) | 1;
        for key in keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *key = x;
        }
        keys.sort_unstable();
        total += keys[17] as usize & 1;
    }
    total
}

/// One reading of the machine's slow-down factor, and the window of wall
/// time the reading itself took (which the calibrated clock skips).
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub start: Instant,
    pub end: Instant,
    pub factor: f64,
}

impl Probe {
    pub fn take(kernels: u32) -> Probe {
        // 100 × 16 bytes per round fit; the one allocation is outside the
        // timed part.
        let mut text = String::with_capacity(2048);
        let mut keys = [0u32; 256];
        let start = Instant::now();
        for _ in 0..kernels {
            black_box(kernel(black_box(&mut text), &mut keys));
        }
        let end = Instant::now();
        Probe {
            start,
            end,
            factor: ((end - start).as_secs_f64() / (f64::from(kernels) * NOMINAL_KERNEL_S))
                .powf(SENSITIVITY),
        }
    }
}

/// The probes of one measured stretch, in time order. Probes whose
/// windows overlap (driver threads probing at the same barrier) count as
/// one: the union of the windows, the mean of the factors.
pub struct Timeline {
    probes: Vec<Probe>,
}

impl Timeline {
    pub fn new(mut probes: Vec<Probe>) -> Timeline {
        probes.sort_by_key(|p| p.start);
        let mut merged: Vec<(Probe, u32)> = Vec::new();
        for p in probes {
            match merged.last_mut() {
                Some((last, n)) if p.start <= last.end => {
                    last.end = last.end.max(p.end);
                    last.factor += p.factor;
                    *n += 1;
                }
                _ => merged.push((p, 1)),
            }
        }
        Timeline {
            probes: merged
                .into_iter()
                .map(|(p, n)| Probe {
                    factor: p.factor / f64::from(n),
                    ..p
                })
                .collect(),
        }
    }

    /// Calibrated seconds from `from` to `to`: the wall time outside
    /// probe windows, each stretch divided by the mean factor of the two
    /// probes around it (by the one factor before the first and after the
    /// last probe). Without probes: the wall time.
    pub fn seconds(&self, from: Instant, to: Instant) -> f64 {
        let n = self.probes.len();
        if n == 0 {
            return to.saturating_duration_since(from).as_secs_f64();
        }
        // Stretch `i` lies between probe `i - 1` and probe `i`.
        let first = self.probes.partition_point(|p| p.end <= from);
        let mut total = 0.0;
        for i in first..=n {
            let lo = match i {
                0 => from,
                _ => self.probes[i - 1].end.max(from),
            };
            if lo >= to {
                break;
            }
            let hi = self.probes.get(i).map_or(to, |p| p.start.min(to));
            let factor = match (i.checked_sub(1), self.probes.get(i)) {
                (Some(before), Some(after)) => (self.probes[before].factor + after.factor) / 2.0,
                (Some(before), None) => self.probes[before].factor,
                (None, Some(after)) => after.factor,
                (None, None) => unreachable!("n > 0"),
            };
            total += hi.saturating_duration_since(lo).as_secs_f64() / factor;
        }
        total
    }

    /// Mean factor of the probes (1 without probes): printed beside the
    /// metrics so a reader sees how far the machine was from nominal.
    pub fn mean_factor(&self) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        self.probes.iter().map(|p| p.factor).sum::<f64>() / self.probes.len() as f64
    }
}

/// Run `call` between two long probes. Returns its result, the calibrated
/// seconds it took, and the wall seconds.
pub fn calibrated<T>(call: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = Probe::take(LONG_KERNELS);
    let start = Instant::now();
    let out = call();
    let end = Instant::now();
    let after = Probe::take(LONG_KERNELS);
    let timeline = Timeline::new(vec![before, after]);
    (
        out,
        timeline.seconds(start, end),
        (end - start).as_secs_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    fn probe(epoch: Instant, start: u64, end: u64, factor: f64) -> Probe {
        Probe {
            start: at(epoch, start),
            end: at(epoch, end),
            factor,
        }
    }

    #[test]
    fn a_stretch_counts_by_the_factors_around_it() {
        let e = Instant::now();
        // Probes at [10,12) ×1.0, [50,52) ×2.0, [90,92) ×1.0.
        let t = Timeline::new(vec![
            probe(e, 50, 52, 2.0),
            probe(e, 10, 12, 1.0),
            probe(e, 90, 92, 1.0),
        ]);
        let s = |a, b| t.seconds(at(e, a), at(e, b)) * 1e3;
        // Between the first two probes: factor 1.5.
        assert!((s(20, 35) - 15.0 / 1.5).abs() < 1e-9);
        // Before the first probe: its factor alone; after the last: its.
        assert!((s(0, 10) - 10.0).abs() < 1e-9);
        assert!((s(92, 100) - 8.0).abs() < 1e-9);
        // Across a probe: its window is skipped, each side has its factor.
        let expected = (50.0 - 40.0) / 1.5 + (60.0 - 52.0) / 1.5;
        assert!((s(40, 60) - expected).abs() < 1e-9);
        // A stretch inside a probe window takes no calibrated time.
        assert_eq!(s(50, 52), 0.0);
        // The whole line: 10 + 38/1.5 + 38/1.5 + 8.
        assert!((s(0, 100) - (18.0 + 76.0 / 1.5)).abs() < 1e-9);
        assert!((t.mean_factor() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_probes_merge_and_no_probes_is_the_wall_clock() {
        let e = Instant::now();
        // Two drivers probing at one barrier: [10,13) ×1.2 and [11,14) ×1.6.
        let t = Timeline::new(vec![probe(e, 10, 13, 1.2), probe(e, 11, 14, 1.6)]);
        assert!((t.mean_factor() - 1.4).abs() < 1e-12);
        assert!((t.seconds(at(e, 0), at(e, 20)) * 1e3 - (10.0 + 6.0) / 1.4).abs() < 1e-9);
        let none = Timeline::new(Vec::new());
        assert!((none.seconds(at(e, 5), at(e, 25)) - 0.020).abs() < 1e-12);
        assert_eq!(none.seconds(at(e, 25), at(e, 5)), 0.0);
    }

    #[test]
    fn a_probe_reads_a_positive_factor_and_calibrated_brackets_the_call() {
        let p = Probe::take(1);
        assert!(p.factor > 0.0 && p.end > p.start);
        let (value, cal_s, wall_s) = calibrated(|| {
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(value, 7);
        assert!(wall_s >= 0.005 && cal_s > 0.0);
    }
}
