#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, rustdoc, and the full test suite (including
# the workspace conformance linter and the paranoid invariant audits).
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# Warnings are errors, so the panic lints the panic-free crates warn on
# and clippy.toml's disallowed wall-clock reads and hash types (whose
# iteration order is the hasher's) fail the gate; `unsafe` is forbidden
# even in a crate root that lacks `#![forbid(unsafe_code)]`.
echo "== cargo clippy (warnings are errors, unsafe forbidden)"
cargo clippy --workspace --all-targets -- -D warnings -F unsafe_code

# The paranoid audit's `panic!` exists only under this feature.
echo "== cargo clippy (paranoid feature)"
cargo clippy -p coopcache-core --features paranoid --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (interleave: bounded model checking)"
cargo test -q -p coopcache-interleave

# The root package is a workspace member, so this also runs tests/chaos.rs
# (live cluster under injected faults), tests/determinism.rs (byte-identical
# DES streams, trees, series, alerts, rollups and the pinned hashes) and
# tests/proptests.rs — each exactly once — and crates/lint's
# the_real_workspace_is_clean, the conformance linter over the tree.
echo "== cargo test"
cargo test -q --workspace

# The responder frame loop's deep harness: more seeds, streams and
# corruptions than the tier-1 run, in release.
echo "== cargo test (deep frame-loop harness)"
cargo test -q --release -p coopcache-net -- --ignored

# The reference-store model check run on to ten times its seeded cases per
# policy, in release.
echo "== cargo test (deep reference-store run)"
cargo test -q --release --test reference_store -- --ignored

# The full-scale trace's pinned records (tie order included), in release.
echo "== cargo test (deep trace pin)"
cargo test -q --release --test determinism -- --ignored

# Every store mutation re-runs the invariant audit here, and
# `every_mutator_runs_the_paranoid_audit` fails if a mutator skips it.
echo "== cargo test (paranoid invariant audits)"
cargo test -q -p coopcache-core --features paranoid

echo "== ThreadSanitizer storm test (advisory; needs nightly + rust-src)"
if cargo +nightly --version >/dev/null 2>&1 &&
  [[ -f "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]]; then
  RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -q --test concurrency_storm \
    --target x86_64-unknown-linux-gnu -Z build-std || true
else
  echo "   skipped: no nightly toolchain with rust-src available offline"
fi

# Every workload's built-in checks gate (the benchmark builds against this
# tree): sim-sync and des-health replay the BENCH_9 hit cells and must
# repeat byte-identically; store-churn / store-read check hit counts per
# block, store invariants and used <= capacity; live-coop / live-pipelined
# check origin fetches = origin outcomes, per-daemon store invariants and
# that no request failed (live-pipelined also requires connection reuse).
# Building coopbench rewrites benchmark/Cargo.lock (it drops a stale
# dependency line); the committed file is put back on exit, failure
# included, so the gate leaves the tree as it found it.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
echo "== coopbench (all six workloads, 1 s each; their checks gate)"
for workload in sim-sync des-health store-churn store-read live-coop live-pipelined; do
  echo "   $workload"
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seconds 1
done

# The examples run end to end; any non-zero exit fails the gate
# (quickstart also asserts EA's hit rate is at least ad-hoc's).
echo "== examples (each must exit 0)"
for example in quickstart campus_group hierarchy live_sockets trace_studio; do
  echo "   $example"
  cargo run --release --offline --quiet --example "$example" >/dev/null
done

# The sweep's wall time (the experiments binary built first, so the build
# is not in it) is printed for the record; it gates nothing.
echo "== results/ (full-scale regeneration must match the committed tables)"
cargo build --release -q -p coopcache-bench
SECONDS=0
scripts/regen_results.sh
echo "   regen_results.sh took ${SECONDS} s"
git diff --exit-code results/

# Code lines per crate (comments, blank lines and test items excluded) are
# printed for the record, like the sweep's wall time; they gate nothing.
echo "== production lines per crate"
cargo run -q --offline -p coopcache-lint --example loc

echo "All checks passed."
