#!/usr/bin/env bash
# Reproduce the paper benchmarks with fixed seeds and snapshot the
# result tables into BENCH_9.json.
#
# Runs (from the repo root):
#   cargo run --release -p coopcache-bench --bin fig1_hit_rates -- --json
#   cargo run --release -p coopcache-bench --bin des_latency -- --json
#   cargo run --release -p coopcache-cli --bin coopcache -- bench-daemon --events both --json ...
#
# then merges the results/ JSON files into a single document:
#
#   {"bench":"BENCH_9","experiments":[<fig1_hit_rates>,<des_latency>,<bench_daemon>]}
#
# Each experiment keeps the standard results/ shape
# ({"id","title","trace","headers":[...],"rows":[[...]]}).  The seeds
# live in the benchmark binaries, so the paper-figure tables are
# byte-identical run to run; no timestamps are recorded for exactly
# that reason.  The bench_daemon experiment reports measured wall-clock
# throughput of the live pooled daemon transport, so its numbers vary
# run to run — bench_diff treats them as advisory, and the paper-figure
# cells must not drift.  (Store throughput is coopbench's: see
# benchmark/README.md, workloads store-read and store-churn.)
#
# The bench_daemon experiment now runs twice — events off, then with
# the deterministic head sampler always on — so the snapshot records
# the sampled telemetry overhead (the acceptance bar is <= 5% req/s).
#
# When the previous snapshot (BENCH_8.json) is present, the run closes
# with an advisory scripts/bench_diff.sh report of any drift.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p coopcache-bench --bin fig1_hit_rates -- --json
cargo run --release -q -p coopcache-bench --bin des_latency -- --json
# Best-of-7 per mode, modes interleaved across repeats: loopback
# throughput is noisy run to run (single-core CI boxes especially), and
# the off/sampled overhead comparison needs both sides at their
# sustained rate rather than whichever run the scheduler disturbed.
cargo run --release -q -p coopcache-cli --bin coopcache -- bench-daemon --events both --repeat 7 --json results/bench_daemon.json

for f in results/fig1_hit_rates.json results/des_latency.json results/bench_daemon.json; do
    [ -s "$f" ] || { echo "bench.sh: missing $f" >&2; exit 1; }
done

{
    printf '{"bench":"BENCH_9","experiments":['
    printf '%s' "$(cat results/fig1_hit_rates.json)"
    printf ','
    printf '%s' "$(cat results/des_latency.json)"
    printf ','
    printf '%s' "$(cat results/bench_daemon.json)"
    printf ']}\n'
} > BENCH_9.json

echo "wrote BENCH_9.json"

if [ -s BENCH_8.json ]; then
    scripts/bench_diff.sh BENCH_8.json BENCH_9.json
fi

if [ -s BENCH_5.json ]; then
    scripts/bench_trend.sh
fi
