#!/usr/bin/env bash
# CI entry point: build, test, lint — the same three gates a PR must pass.
#
# Offline operation
# -----------------
# The workspace has zero external dependencies (randomness / property
# testing / benches come from the in-tree `instencil-testkit` crate), so
# no step below ever needs the crates.io registry. Should a dependency
# ever be added, vendor it first:
#
#     cargo vendor vendor/
#     mkdir -p .cargo && cat >> .cargo/config.toml <<'EOF'
#     [source.crates-io]
#     replace-with = "vendored-sources"
#     [source.vendored-sources]
#     directory = "vendor"
#     EOF
#
# and keep `vendor/` in the tree; `--offline` below then still works.
set -euo pipefail
cd "$(dirname "$0")"

# --offline is best-effort: older cargo versions accept it everywhere we
# use it, but if the local toolchain rejects it, drop the flag (the build
# is still network-free because there is nothing to download).
OFFLINE="--offline"
cargo --offline --version >/dev/null 2>&1 || OFFLINE=""

echo "==> cargo build --release"
cargo build $OFFLINE --workspace --release

echo "==> cargo test (tier-1: default-members cover the whole workspace)"
cargo test $OFFLINE -q

echo "==> cargo clippy -D warnings"
cargo clippy $OFFLINE --workspace --all-targets -- -D warnings

echo "==> overlap checker (debug profile — the checker compiles out in release)"
# The non-atomic tile views of the run-specialized engine are sound only
# under Eq. (3) disjoint scheduling; these tests prove the debug checker
# both accepts a correct schedule and panics on a deliberate mis-schedule.
cargo test $OFFLINE --test overlap_checker

echo "==> dataflow scheduler ordering property (debug profile)"
# The dataflow pool replaces the per-level barrier with per-edge atomic
# in-degrees; these property tests stamp every block with a shared
# logical clock on random graphs and assert no block ever starts before
# its predecessors finish, at 1/2/4/8 workers — both the intra-sweep
# Eq. (3) ordering and the sweep-extended ordering of batched drains
# (self anti dependence + forward-neighbor flow dependence into the
# next sweep).
cargo test $OFFLINE --test dataflow_trace

echo "==> batched sweep equivalence (debug profile — sweep checker active)"
# Cross-sweep batching must stay bit- and stats-identical to eager
# sweep-by-sweep execution on SOR Tr2, gs5, and LU-SGS, across both
# wavefront schedulers and 1/2/4/8 threads at depths 1/2/4. The debug
# profile keeps the cross-sweep overlap checker armed, so a mis-batched
# schedule panics instead of silently producing matching bits.
cargo test $OFFLINE --test engine_equiv batched

echo "==> engines bench smoke (engines matrix + vectorization + scaling gates, writes BENCH_exec.json)"
# Besides the engine comparison this runs the vectorization gate (every
# run-specialized gs5-vf* row must beat its scalar sibling — the fence
# for the partial-vectorization pessimization) and the three scaling
# gates: dataflow@8 within tolerance of levels@8, monotone 1→2→4 steps,
# and dataflow@8 vs levels@1 on LU-SGS (the seed inversion), each with a
# single re-measure on breach; accepted re-measurements are what the
# JSON persists. The temporal section measures batched sweeps at depths
# 1/2/4/8 and gates batched LU-SGS at the cost-model depth at <= 0.9x
# eager (the >= 1.1x amortization bar).
INSTENCIL_BENCH_FAST=1 cargo bench $OFFLINE -p instencil-bench --bench engines

echo "==> bench report schema gate (BENCH_exec_report.json vs obs schema)"
# Also asserts worker records carry the steal_dist/fused counters, that
# the gs5-vf4/gs5-vf8 rows exist on every engine and beat gs5-scalar on
# the run-specialized one, that the scaling matrix
# (levels/dataflow x 1/2/4/8 threads) is complete, and that the
# temporal rows (eager + k1/k2/k4/k8 on LU-SGS and SOR Tr2) exist with
# the stored batched best under 0.9x eager on the coarse LU-SGS case.
cargo run $OFFLINE --release --example validate_bench_report

echo "==> obs report smoke (Trace pipeline run, schema-validates the JSON)"
# The example fails if the emitted report does not validate against the
# current report schema version, so this doubles as the schema gate.
cargo run $OFFLINE --release --example obs_report

echo "==> scheduler trace export (LU-SGS under both schedulers, validates the Perfetto JSON)"
# Runs the §4.3 LU-SGS solver at ObsLevel::Trace with the levels and the
# dataflow scheduler, folds the per-worker event rings into Chrome
# trace_event JSON (results/TRACE_lusgs_*.json), and validates the
# emitted documents against the trace_event shape plus the run report
# against the obs schema — the example panics on any violation, so this
# is the trace-export schema gate. The Trace-ring ≤1.10x overhead gate
# itself runs inside the engines bench above.
cargo run $OFFLINE --release --example trace_export

echo "CI OK"
