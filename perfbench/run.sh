#!/usr/bin/env bash
# Builds the release `qross-serve` and the benchmark from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload predict-qbin|instance-ndjson|tune-tsp \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result. Builds land in $CARGO_TARGET_DIR
# (default .bench_build) and run artefacts in .bench_runs.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline -q --manifest-path Cargo.toml -p bench --bin qross-serve >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/qross-serve" "$@"
