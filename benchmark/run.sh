#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. With `--workload NAME --seed N --seconds S --trace 0|1` it makes
# one run and ends with the result line of BENCHMARK.json's contract;
# without `--trace` it runs the suite (see README.md).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The workspace's own target directory unless the caller chose one, so a
# developer's `cargo build --release` and this share their artefacts.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec "$CARGO_TARGET_DIR/release/instencil-benchmark" "$@"
