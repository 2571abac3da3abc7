#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs every workload RUNS times in each of three sets — A and B
# without --seed (the published trace), C at a second seed — and fails if
# the median of any end-to-end metric in B or C is worse than A's by more
# than its bound in BENCHMARK.json. Set C's inputs differ, so only its
# timing metrics are compared (hit_ratio is an output of the inputs, not
# of the machine).
#
#   benchmark/repeat.sh                    # 3 runs of 8 s per set, ~10 min
#   RUNS=10 benchmark/repeat.sh            # what a performance claim needs
#   SECONDS_PER_RUN=20 benchmark/repeat.sh
set -euo pipefail
cd "$(dirname "$0")/.."

seconds="${SECONDS_PER_RUN:-8}"
runs="${RUNS:-3}"
out=benchmark/out/repeat

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

run_set() { # <set name> [--seed <n>]
    local set="$1"
    shift
    for i in $(seq "$runs"); do
        mkdir -p "$out/$set/$i"
        for w in $workloads; do
            echo "set $set, run $i: $w $*"
            if ! bench run --workload "$w" "$@" --seconds "$seconds" \
                --out "$out/$set/$i" >"$out/$set/$i/$w.log"; then
                cat "$out/$set/$i/$w.log"
                echo "repeat.sh: $w failed its checks in set $set" >&2
                exit 1
            fi
        done
    done
}

results() { # <set name> <workload> -> comma-separated result files
    local files=()
    for i in $(seq "$runs"); do
        files+=("$out/$1/$i/$2.json")
    done
    (IFS=,; echo "${files[*]}")
}

workloads="$(bench list)"
run_set a
run_set b
run_set c --seed 1

status=0
for w in $workloads; do
    bench compare "$(results a "$w")" "$(results b "$w")" || status=1
    bench compare "$(results a "$w")" "$(results c "$w")" --skip hit_ratio || status=1
done
if [ "$status" -ne 0 ]; then
    echo "repeat.sh: two sets of runs of the same code disagree beyond the bounds" >&2
fi
exit "$status"
