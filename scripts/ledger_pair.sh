#!/usr/bin/env bash
# Paired ledger runs: the benchmark of an older revision against the
# benchmark of the checkout, run alternately so that slow spells of the
# host fall on both sides alike.
#
#   scripts/ledger_pair.sh <parent-rev> <workload> [runs] [run.sh args...]
#
# The parent's tree is exported with `git archive` into
# target/pair/parent (replaced on every call); the checkout is the change,
# uncommitted edits included. Each side's ledger is built by its own
# benchmark/run.sh into its own CARGO_TARGET_DIR (target/pair/parent-target
# and target/pair/change-target), then `runs` pairs (default 5) run, the
# parent first in odd pairs and second in even ones, each as
# `benchmark/run.sh --workload <workload> --trace 0` plus
# the extra arguments (say `--seed 7 --seconds 20`). Every run's output is
# kept in target/pair/out/. For each end-to-end metric of BENCHMARK.json
# the script prints both sides' median and inter-quartile range over their
# runs' last (JSON) lines, the change's median relative to the parent's,
# and in how many pairs each side had the better figure. A run whose
# `correct` is false or whose `failed` is nonzero is flagged.
#
# Its limit: these are whole-process runs, one at a time, on whatever the
# host is doing; on a noisy 2-vCPU guest a host-time median moves by
# several percent between calls. Read the pairs-won column next to the
# medians, and repeat a close call. The simulated metrics are exact and
# must tie.

set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: scripts/ledger_pair.sh <parent-rev> <workload> [runs] [run.sh args...]" >&2
    exit 2
fi
rev=$1
workload=$2
runs=${3:-5}
shift $(($# < 3 ? $# : 3))

cd "$(dirname "$0")/.."
root=$PWD
pair=$root/target/pair
rm -rf "$pair/parent" "$pair/out"
mkdir -p "$pair/parent" "$pair/out"
git archive "$rev" | tar -x -C "$pair/parent"

side_tree() {
    case $1 in
    parent) echo "$pair/parent" ;;
    change) echo "$root" ;;
    esac
}

for side in parent change; do
    echo "building the $side ledger" >&2
    CARGO_TARGET_DIR=$pair/$side-target bash "$(side_tree $side)/benchmark/run.sh" --self-check >/dev/null
done

for i in $(seq 1 "$runs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        out=$pair/out/$side-$i.txt
        CARGO_TARGET_DIR=$pair/$side-target bash "$(side_tree $side)/benchmark/run.sh" \
            --workload "$workload" --trace 0 "$@" >"$out" 2>/dev/null || true
        tail -n 1 "$out" >>"$pair/out/$side.jsonl"
        echo "pair $i $side done" >&2
    done
done

# "name better" per end-to-end metric, in BENCHMARK.json's order.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')

awk -v metrics="$metrics" -v workload="$workload" '
    # The value of "name" in a one-line JSON result: a bare one, or the
    # "value" of a metric object; "" if absent.
    function field(line, name,    at, rest) {
        at = index(line, "\"" name "\":")
        if (at == 0) return ""
        rest = substr(line, at + length(name) + 3)
        sub(/^ */, "", rest)
        if (substr(rest, 1, 1) == "{") {
            rest = substr(rest, index(rest, ":") + 1)
            sub(/^ */, "", rest)
        }
        match(rest, /^[^,}]*/)
        return substr(rest, 1, RLENGTH)
    }
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Quantile q of sorted a[1..n], linear between order statistics.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    FNR == 1 { side = (FILENAME ~ /parent\.jsonl$/) ? "parent" : "change" }
    {
        n[side]++
        k = n[side]
        if (field($0, "correct") != "true" || field($0, "failed") + 0 != 0)
            printf "FLAG: %s run %d: correct=%s failed=%s\n", side, k, field($0, "correct"), field($0, "failed")
        for (m = 1; m <= count; m++) v[side, names[m], k] = field($0, names[m])
    }
    BEGIN {
        count = split(metrics, words, /[ \n]+/) / 2
        for (m = 1; m <= count; m++) { names[m] = words[2 * m - 1]; better[m] = words[2 * m] }
    }
    END {
        pairs = n["parent"] < n["change"] ? n["parent"] : n["change"]
        printf "%s: %d pairs\n", workload, pairs
        printf "%-26s %12s %10s %12s %10s %8s %7s\n", "metric", "parent", "IQR", "change", "IQR", "change", "won p:c"
        for (m = 1; m <= count; m++) {
            name = names[m]
            won_p = won_c = 0
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "parent" : "change"
                delete a
                for (k = 1; k <= n[side]; k++) a[k] = v[side, name, k] + 0
                sort(a, n[side])
                med[side] = quantile(a, n[side], 0.5)
                iqr[side] = quantile(a, n[side], 0.75) - quantile(a, n[side], 0.25)
            }
            for (k = 1; k <= pairs; k++) {
                p = v["parent", name, k] + 0
                c = v["change", name, k] + 0
                if (p == c) continue
                if ((c < p) == (better[m] == "lower")) won_c++; else won_p++
            }
            rel = med["parent"] == 0 ? 0 : 100 * (med["change"] / med["parent"] - 1)
            printf "%-26s %12.4f %10.4f %12.4f %10.4f %+7.2f%% %3d:%d\n", name, med["parent"], iqr["parent"], med["change"], iqr["change"], rel, won_p, won_c
        }
    }' "$pair/out/parent.jsonl" "$pair/out/change.jsonl"
