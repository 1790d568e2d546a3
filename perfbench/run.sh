#!/usr/bin/env bash
# Builds the daemon under test (`moche`, from the workspace) and the
# benchmark (`perfbench`, a package of its own) from source into one target
# directory, then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve_drift --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr; stdout carries only the benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p moche-cli --bin moche >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --moche "$CARGO_TARGET_DIR/release/moche" "$@"
