#!/usr/bin/env bash
# Runs two full sets of the benchmark on the checked-out commit and
# compares them: prints both values of every (end-to-end metric, workload)
# pair and fails if a pair differs by more than the metric's bound or an
# exact ([x]) layer metric differs at all. Extra arguments go to both sets
# (for example `--seed 7` or `--reps 5`).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
perf="$CARGO_TARGET_DIR/release/jitgc-perf"

# BENCHMARK.json is generated from the tables the binary prints from.
"$perf" --emit-spec | diff - BENCHMARK.json

"$perf" "$@" --out benchmark/results/set-a.json
"$perf" "$@" --out benchmark/results/set-b.json
"$perf" --compare benchmark/results/set-a.json benchmark/results/set-b.json
