#!/usr/bin/env bash
# Regenerates every experiment table under results/ at full scale: the
# `experiments` binary replays the full BU-94-scale trace (575,775
# requests) in release mode and rewrites each results/<id>.csv and
# results/<id>.json. Everything is seeded, so a clean tree must come out
# byte-identical (scripts/check.sh gates that with git diff).
# Usage: scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p coopcache-bench >/dev/null
