#!/usr/bin/env bash
# Builds `eelserved` and the benchmark from source, then runs one
# benchmark pass:
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root (or anywhere: the script changes to the
# root itself). Build products go to $CARGO_TARGET_DIR, default
# .bench_build. Cargo's own output goes to stderr; the last line of
# stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release -q -p eel-serve --bin eelserved >&2
cargo build --offline --release -q --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --eelserved "$CARGO_TARGET_DIR/release/eelserved" "$@"
