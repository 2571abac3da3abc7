#!/usr/bin/env bash
# Regenerates every experiment table under results/ at full scale: the
# `experiments` binary replays the full BU-94-scale trace (575,775
# requests) in release mode and rewrites each results/<id>.csv and
# results/<id>.json. Everything is seeded, so a clean tree must come out
# byte-identical (scripts/check.sh gates that with git diff).
#
# Prints each experiment's wall time. The driver prints an experiment's
# `== <id>: <title>` header once its table is done, so the time since the
# previous header is that experiment's; the first one also covers building
# the trace and the paper sweep its successors share.
# Usage: scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# EPOCHREALTIME in whole microseconds, whatever the decimal separator.
micros() { echo "${EPOCHREALTIME//[!0-9]/}"; }

last=$(micros)
cargo run --release -q -p coopcache-bench | while IFS= read -r line; do
  if [[ $line == "== "* ]]; then
    now=$(micros)
    id=${line#== }
    cs=$(((now - last) / 10000))
    printf '   %-24s %3d.%02d s\n' "${id%%:*}" $((cs / 100)) $((cs % 100))
    last=$now
  fi
done
