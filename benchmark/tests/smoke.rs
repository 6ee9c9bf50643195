//! Runs the real binary at `--smoke` scale (2 000 entities, one pass per
//! phase) and holds its output to `BENCHMARK.json`: the same workloads,
//! and per run exactly the metrics the file names, with its units.

use patternkb_serve::Json;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of the file's metric lists.
fn declared(file: &Json, list: &str) -> Vec<(String, String)> {
    file.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// One driver-style run; returns the JSON object of its last stdout line.
fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_patternkb-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn smoke_runs_emit_exactly_what_benchmark_json_names() {
    let file = benchmark_json();
    let workloads: Vec<String> = file
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["hot", "cold", "mixed-write", "coldstart"]);

    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let Json::Obj(fields) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}/{trace}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}/{trace}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);

            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let mut emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} has a value"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            let mut expected = declared(&file, list);
            emitted.sort();
            expected.sort();
            assert_eq!(
                emitted, expected,
                "{workload} --trace {trace} against {list}"
            );
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(
                        value > 0.0,
                        "{workload}: end-to-end metric {name} is never 0"
                    );
                }
            }
        }
    }
}
