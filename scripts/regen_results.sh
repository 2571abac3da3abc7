#!/usr/bin/env bash
# Regenerates every experiment table under results/ at full scale: each
# binary in crates/bench/src/bin replays the full BU-94-scale trace
# (575,775 requests) in release mode and rewrites its results/<id>.csv
# and results/<id>.json. Everything is seeded, so a clean tree must come
# out byte-identical (scripts/check.sh gates that with git diff).
# Usage: scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p coopcache-bench --bins
for src in crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  echo "== $bin"
  cargo run --release -q -p coopcache-bench --bin "$bin" -- --json >/dev/null
done
