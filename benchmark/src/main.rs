//! `patternkb-benchmark`: the gated benchmark of this repository. See
//! `README.md` beside this crate for the protocol and `../BENCHMARK.json`
//! for the contract.
//!
//! ```text
//! patternkb-benchmark --workload hot|cold|mixed-write|coldstart
//!                     [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! patternkb-benchmark --all         [--seed N] [--smoke]
//! patternkb-benchmark --selfcheck N [--seed N] [--smoke]
//! ```
//!
//! `--seconds` is the driver's; a run's length is fixed by the op and
//! pass counts in [`workload::Scale`] (sized for about ten seconds of
//! passes), never by a timer, so the value only has to be a positive number.
//!
//! A run is two processes: this one sets up (dataset, artefacts, op list,
//! expected answers) and then `exec`s itself with `--measure <dir>`; that
//! measured process sees only the artefacts and the plan.

mod calibrate;
mod measure;
mod probes;
mod report;
mod setup;
mod stats;
mod trace;
mod workload;

use report::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Scale, Workload};

fn value_of<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// `--trace`, `--trace 1` and `--trace 0`.
fn trace_flag(args: &[String]) -> bool {
    match args.iter().position(|a| a == "--trace") {
        None => false,
        Some(i) => args.get(i + 1).map(String::as_str) != Some("0"),
    }
}

/// Make glibc's allocator keep freed memory instead of handing it back to
/// the kernel. On the VMs this benchmark has to repeat on, touching a
/// page the guest does not currently hold costs a host-side fault: fresh
/// memory came in at 0.16–0.22 GB/s where re-used memory came in at
/// 2.2 GB/s, and which of the two an 800 MB index clone met was a coin
/// toss (see README, "Memory"). With these settings a process pays that
/// once, while it grows to its high-water mark, and the warm-up passes
/// absorb it. The settings are part of the measurement conditions, the
/// same on both sides of any comparison.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` takes two plain integers and is called here
    // before this process starts any thread.
    unsafe {
        // 32 MiB is the largest threshold glibc accepts; setting it also
        // switches off the dynamic adjustment of both thresholds.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 256 << 20);
        mallopt(M_MMAP_MAX, 0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn run(args: &[String]) -> Result<bool, String> {
    keep_freed_memory();
    let smoke = args.iter().any(|a| a == "--smoke");
    if value_of::<f64>(args, "--seconds")?.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }

    // The measured process (started by `report::run_workload`).
    if let Some(dir) = value_of::<PathBuf>(args, "--measure")? {
        let scale = if smoke { Scale::smoke() } else { Scale::full() };
        let measured = if trace_flag(args) {
            let file =
                value_of::<PathBuf>(args, "--trace-file")?.ok_or("--trace-file is required")?;
            probes::run(&dir, scale, &file)?
        } else {
            measure::run_untraced(&dir, scale)?
        };
        println!("{}", report::measured_json(&measured));
        return Ok(true);
    }

    let opts = RunOptions {
        seed: value_of(args, "--seed")?.unwrap_or(42),
        trace: trace_flag(args),
        smoke,
    };
    std::fs::create_dir_all(report::out_dir())
        .map_err(|e| format!("{}: {e}", report::out_dir().display()))?;
    if args.iter().any(|a| a == "--all") {
        return report::all(&opts);
    }
    if let Some(n) = value_of::<usize>(args, "--selfcheck")? {
        return report::selfcheck(n.max(1), &opts);
    }
    let name: String = value_of(args, "--workload")?.ok_or(
        "usage: patternkb-benchmark --workload hot|cold|mixed-write|coldstart \
         [--seed N] [--seconds S] [--trace [0|1]] | --all | --selfcheck N",
    )?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = report::run_workload(workload, &opts)?;
    report.print();
    // Last line: the one JSON object the driver reads. Failed ops are
    // reported in it (`correct`, `failed`), not through the exit code.
    println!("{}", report.result_json());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("patternkb-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
