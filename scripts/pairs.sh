#!/usr/bin/env bash
# Alternating pairs of one coopbench workload: a parent revision against
# the working tree, the evidence a performance claim needs.
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs]      # 10 pairs by default
#
# The parent's tree is exported with `git archive` into
# target/pairs/src-<sha> (kept between calls) and its coopbench built
# there; the working tree's coopbench is built into target/pairs/target.
# Each pair runs both binaries once for coopbench's default run length,
# parent first in odd pairs and the change first in even ones, so a drift
# of the machine during the pairs favours neither side. Results go to
# target/pairs/out/<workload>/{base,new}/<i>/. At the end it prints
# `coopbench compare` of the two sets' medians, then for every metric
# each side's median and quartiles and in how many pairs the change was
# better, and exits with compare's status. Building coopbench rewrites
# benchmark/Cargo.lock; the committed file is put back on exit, failure
# included, and nothing else under benchmark/ is written. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload> [pairs]" >&2
    exit 2
fi
sha=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=${3:-10}
root=target/pairs
src=$root/src-$sha
out=$root/out/$workload

lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT

if [ ! -f "$src/benchmark/Cargo.toml" ]; then
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$sha" | tar -x -C "$src"
fi
echo "== building coopbench at ${sha:0:12} and in the working tree"
CARGO_TARGET_DIR="$PWD/$root/target/base" cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$PWD/$root/target/new" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
base_bin=$root/target/base/release/coopbench
new_bin=$root/target/new/release/coopbench

run() { # <side> <pair>
    local bin=$base_bin dir="$out/$1/$2"
    [ "$1" = new ] && bin=$new_bin
    rm -rf "$dir"
    mkdir -p "$dir"
    if ! "$bin" run --workload "$workload" --out "$dir" >"$dir/log"; then
        cat "$dir/log"
        echo "pairs.sh: the $1 run of pair $2 failed its checks" >&2
        exit 1
    fi
    jq -r --arg side "$1" '"   \($side) req_per_s=\(.metrics.req_per_s.value | floor)"' \
        "$dir/$workload.json"
}

for i in $(seq "$pairs"); do
    echo "pair $i/$pairs"
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run new "$i"
    else
        run new "$i"
        run base "$i"
    fi
done

files() { # <side> -> comma-separated result files
    local list=()
    for i in $(seq "$pairs"); do
        list+=("$out/$1/$i/$workload.json")
    done
    (IFS=,; echo "${list[*]}")
}
status=0
"$new_bin" compare "$(files base)" "$(files new)" || status=$?

# One line per (pair, metric): pair, metric, better, base value, new value.
table=$(for i in $(seq "$pairs"); do
    jq -r --arg i "$i" --slurpfile new "$out/new/$i/$workload.json" '
        .metrics | to_entries[]
        | [$i, .key, (.value.better // "none"), .value.value,
           $new[0].metrics[.key].value] | @tsv' "$out/base/$i/$workload.json"
done)
echo "== $workload: $pairs pairs (median [q1, q3]; pairs the change won)"
printf '%s\n' "$table" | awk -F'\t' '
    # Linear-interpolation quantile of the sorted array v[1..n].
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(list,    v, n, i, j, t) {
        n = split(list, v, " ")
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
        return num(quantile(v, n, 0.5)) " [" num(quantile(v, n, 0.25)) ", " \
            num(quantile(v, n, 0.75)) "]"
    }
    function num(x) {
        return sprintf(x >= 1000 || x <= -1000 ? "%.0f" : "%.4g", x)
    }
    {
        if (!($2 in better)) order[++metrics] = $2
        better[$2] = $3
        base[$2] = base[$2] " " $4
        new[$2] = new[$2] " " $5
        won[$2] += ($3 == "higher" && $5 > $4) || ($3 == "lower" && $5 < $4)
        n[$2]++
    }
    END {
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            printf "   %-16s base %-30s new %-30s won %d/%d\n", m,
                summary(base[m]), summary(new[m]), won[m], n[m]
        }
    }'
# compare exits non-zero when a metric is worse than its BENCHMARK.json bound.
exit "$status"
