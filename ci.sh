#!/usr/bin/env bash
# CI entry point: build, test, lint — the same three gates a PR must pass.
#
# Offline operation
# -----------------
# The workspace has zero external dependencies (randomness and property
# testing come from the in-tree `instencil-testkit` crate), so
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

echo "==> cargo build --release (workspace + benchmark)"
cargo build $OFFLINE --workspace --release
# The benchmark is its own workspace, so the build above never compiles
# it, yet it drives the exec API (`Runner`, `Interpreter`, `Engine`,
# `run_until_converged`): build it here so an API break fails CI. The
# shared target directory is the one benchmark/run.sh builds into.
CARGO_TARGET_DIR=target cargo build --release $OFFLINE --manifest-path benchmark/Cargo.toml
# The executor takes its schedule from the program and no machine model:
# no dependency on the model crate, and no process-global state.
if cargo tree $OFFLINE -p instencil-exec -e normal | grep instencil-machine; then echo "instencil-exec depends on instencil-machine" >&2; exit 1; fi
if grep -rn OnceLock crates/exec/src crates/pattern/src; then echo "process-global state in exec/pattern" >&2; exit 1; fi

echo "==> cargo test (tier-1: default-members cover the whole workspace)"
# Runs in the debug profile, so the wavefront overlap checkers are armed
# for every test: the overlap_checker, dataflow_trace and batched
# engine_equiv suites included.
cargo test $OFFLINE -q
# The benchmark runs the run-specialized loops' release codegen, which
# the debug run above never executes: check engine equivalence there too.
cargo test $OFFLINE -q --release --test engine_equiv

echo "==> cargo clippy -D warnings (+ warning-free rustdoc)"
cargo clippy $OFFLINE --workspace --all-targets -- -D warnings
# Intra-doc links to deleted or private names fail here instead of
# rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc $OFFLINE --no-deps --workspace

echo "==> obs report smoke (Trace pipeline run, schema-validates the JSON; fused heat 3D rung check)"
# The example fails if the emitted report does not validate against the
# current report schema version, so this doubles as the schema gate.
cargo run $OFFLINE --release --example obs_report
# Fused + vectorized heat 3D: fails if its run report shows a
# runspec-decline or no reused run plan, i.e. if a fused tile loop fell
# off the run-specialized rung.
cargo run $OFFLINE --release --example heat3d

echo "==> scheduler trace export (LU-SGS under both schedulers, validates the Perfetto JSON)"
# Runs the §4.3 LU-SGS solver at ObsLevel::Trace with the levels and the
# dataflow scheduler, folds the per-worker event rings into Chrome
# trace_event JSON (results/TRACE_lusgs_*.json), and validates the
# emitted documents against the trace_event shape plus the run report
# against the obs schema — the example panics on any violation, so this
# is the trace-export schema gate.
cargo run $OFFLINE --release --example trace_export

echo "CI OK"
