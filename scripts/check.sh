#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, the workspace conformance linter, and
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

run_lint

run_concurrency_lint

echo "== cargo test (interleave: bounded model checking)"
cargo test -q -p coopcache-interleave

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test (paranoid invariant audits)"
cargo test -q -p coopcache-core --features paranoid

echo "== cargo test (hot-path profiling feature)"
cargo test -q -p coopcache-core --features profile

echo "== cargo test (chaos: live cluster under injected faults)"
cargo test -q --test chaos

echo "== trace determinism (two same-seed DES runs, byte-identical trees)"
cargo test -q --test determinism des_trace_trees_are_identical_across_runs

echo "== series determinism (DES + replayed series, byte-identical)"
cargo test -q --test determinism des_series_rings_are_identical_across_runs
cargo test -q --test determinism series_replay_is_byte_identical_across_runs

echo "== sampling determinism (sampled stream = reproducible subsequence)"
cargo test -q --test determinism sampled_event_streams_are_deterministic_subsequences
cargo test -q --test proptests sampling_is_a_deterministic_subsequence_for_any_seed_and_rate

echo "== alert determinism (same-seed DES runs fire byte-identical alerts)"
cargo test -q --test determinism des_alert_firings_are_identical_across_runs

echo "== rollup sweep (64-node DES under bounded aggregator memory)"
cargo test -q --test determinism des_rollup_sweep_64_nodes_is_bounded_and_byte_identical

echo "== ThreadSanitizer storm test (advisory; needs nightly + rust-src)"
if cargo +nightly --version >/dev/null 2>&1 &&
  [[ -f "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]]; then
  RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -q --test concurrency_storm \
    --target x86_64-unknown-linux-gnu -Z build-std || true
else
  echo "   skipped: no nightly toolchain with rust-src available offline"
fi

echo "== bench-daemon smoke (pooled transport + sampled-telemetry overhead)"
cargo run --release -q -p coopcache-cli --bin coopcache -- bench-daemon --smoke true --events both

echo "== coopbench des-health (benchmark builds against this tree; its checks gate)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload des-health --seconds 1

echo "== coopbench store-churn / store-read (hit counts per block, invariants, used <= capacity)"
for workload in store-churn store-read; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seconds 1
done

echo "== coopbench live-coop / live-pipelined (origin fetches = origin outcomes, per-daemon store invariants, no failed request)"
for workload in live-coop live-pipelined; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seconds 1
done

echo "== results/ (full-scale regeneration must match the committed tables)"
scripts/regen_results.sh
git diff --exit-code results/

echo "== bench drift (advisory; compares the last two snapshots)"
if [[ -s BENCH_8.json && -s BENCH_9.json ]]; then
  scripts/bench_diff.sh BENCH_8.json BENCH_9.json || true
else
  echo "   skipped: run scripts/bench.sh to produce BENCH_9.json"
fi

echo "== bench trend (advisory; collates all snapshots)"
scripts/bench_trend.sh || true

echo "All checks passed."
