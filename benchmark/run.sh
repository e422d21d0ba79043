#!/usr/bin/env bash
# Builds the vmsim CLI and the benchmark harness from source, then runs the
# benchmark from the repository root:
#
#   benchmark/run.sh --workload fig6|fault|fleet|serve --seed N \
#                    --seconds S --trace 0|1
#   benchmark/run.sh [--seed N]     # every workload, untraced and traced
#
# Build output goes to $CARGO_TARGET_DIR (default: target); scratch files
# and result.json go to $CARGO_TARGET_DIR/benchmark.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p vmsim-sim --bin vmsim >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/vmsim-benchmark" \
    --vmsim "$target/release/vmsim" --work "$target/benchmark" "$@"
