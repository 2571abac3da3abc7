#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, rustdoc, the workspace conformance linter, and
# the full test suite (including the paranoid invariant audits).
# Usage: scripts/check.sh              run the whole gate
#        scripts/check.sh lint         run only the conformance linter
#        scripts/check.sh concurrency  run only the concurrency rules
set -euo pipefail
cd "$(dirname "$0")/.."

run_lint() {
  echo "== coopcache-lint (workspace conformance)"
  cargo run -q -p coopcache-lint
}

run_concurrency_lint() {
  echo "== coopcache-lint --concurrency (lock/atomic soundness)"
  cargo run -q -p coopcache-lint -- --concurrency
}

if [[ "${1:-}" == "lint" ]]; then
  run_lint
  exit 0
fi

if [[ "${1:-}" == "concurrency" ]]; then
  run_concurrency_lint
  exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

run_lint

run_concurrency_lint

echo "== cargo test (interleave: bounded model checking)"
cargo test -q -p coopcache-interleave

# The root package is a workspace member, so this also runs tests/chaos.rs
# (live cluster under injected faults), tests/determinism.rs (byte-identical
# DES streams, trees, series, alerts, rollups and the pinned hashes) and
# tests/proptests.rs — each exactly once.
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
echo "== coopbench (all six workloads, 1 s each; their checks gate)"
for workload in sim-sync des-health store-churn store-read live-coop live-pipelined; do
  echo "   $workload"
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seconds 1
done

echo "== results/ (full-scale regeneration must match the committed tables)"
scripts/regen_results.sh
git diff --exit-code results/

echo "All checks passed."
