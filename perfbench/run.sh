#!/usr/bin/env bash
# Builds the release tcdp-serve daemon and the perfbench binary from
# source, then runs perfbench with the arguments given, e.g.
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
# Run it from the root of a checkout; build output goes to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
bench="$(dirname "$0")"
root="$(dirname "$bench")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin tcdp-serve >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/tcdp-serve" "$@"
