#!/bin/sh
# One command for the whole benchmark: build, then every workload
# untraced and traced, every metric printed by name with its unit.
# Exits non-zero if any op failed or a metric named in BENCHMARK.json is
# missing. Extra arguments go to the binary (e.g. --seed 7, --smoke).
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --all "$@"
