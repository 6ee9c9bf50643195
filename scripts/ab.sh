#!/bin/sh
# A/B the gated benchmark between a parent revision and this checkout:
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=7] [trace]
#
# Builds the parent in a git worktree under target/ab/ (offline) and the
# change where it stands, then runs <pairs> pairs of the benchmark's
# untraced <workload>, alternating which side goes first, and prints per
# end-to-end metric both medians, both inter-quartile ranges and the pairs
# the change won — the protocol a claimed gain is judged by (ten pairs,
# nine wins, medians apart by more than the parent's own spread). A
# metric whose change median is worse than the parent's by more than its
# `bound` in BENCHMARK.json is marked WORSE, as is any rise in failed
# ops, and then the script exits 1. A metric whose change median beats
# the parent's by more than the parent's inter-quartile range is marked
# apart — the spread test of a claimed gain; the marker never changes the
# exit status. A run that exits non-zero, or whose last line is not the
# benchmark's result object, is listed as a failed run after the table,
# and then the script exits 1 too. Every invocation keeps its runs'
# metrics in a file of its own,
# target/ab/runs-<workload>-<parent commit>-<traced|untraced>.txt (with
# -2, -3, ... before .txt when an earlier invocation took the name), and
# prints its path.
# Nothing under benchmark/ is read except what its binary prints and its
# exit status, and each side's benchmark/Cargo.lock is left as it was.
#
# With a fifth argument `trace`, both sides run traced (`--trace 1`) and
# the table lists BENCHMARK.json's `per_layer` rows instead, followed by
# each span's self time from the printed layer table (`self:<span>`, ms
# per run). Those rows are evidence, not gates: none is marked WORSE;
# only a rise in failed ops is.
set -eu

usage="usage: $0 <parent-rev> <workload> [pairs=10] [seed=7] [trace]"
[ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-7}
case ${5:-} in
    '') trace=0 ;;
    trace) trace=1 ;;
    *) echo "$usage" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
root=$(pwd)
ab=$root/target/ab
parent=$ab/parent
mkdir -p "$ab"
mode=untraced
[ "$trace" -eq 0 ] || mode=traced
name=runs-$workload-$(git rev-parse --short "$rev")-$mode
runs=$ab/$name.txt
n=1
while [ -e "$runs" ]; do
    n=$((n + 1))
    runs=$ab/$name-$n.txt
done
: >"$runs"
echo "raw runs: $runs" >&2

# The worktree stays for the next invocation, so the parent is rebuilt
# only as far as <parent-rev> moved.
if [ -e "$parent" ]; then
    git -C "$parent" checkout --quiet --detach "$rev"
else
    git worktree add --quiet --detach "$parent" "$rev"
fi

# Building the benchmark prunes stale entries from its Cargo.lock; each
# side's lock is put back as it was after its build, failed or not.
for side in "$parent" "$root"; do
    cp "$side/benchmark/Cargo.lock" "$ab/Cargo.lock"
    built=0
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml" || built=$?
    cp "$ab/Cargo.lock" "$side/benchmark/Cargo.lock"
    [ "$built" -eq 0 ] || exit "$built"
done

# One run of <side>'s binary: its metric lines (and, traced, its layer
# table's self times) as "<pair> <side> <name> <value>", whether every op
# succeeded, the run's exit status, and whether its last line is the
# result object (1) or not (0).
run() {
    status=0
    "$2/benchmark/target/release/patternkb-benchmark" \
        --workload "$workload" --seed "$seed" --seconds 12 --trace "$trace" \
        >"$ab/run.out" || status=$?
    awk -v pair="$1" -v side="$3" -v status="$status" '
        / ops [0-9]+ failed [0-9]+$/ { print pair, side, "failed_ops", $NF }
        /^  [a-z_0-9.]+ +[-0-9.e+]+ +[^ ]+$/ { print pair, side, $1, $2 }
        /^# +[a-z_0-9.]+ +[0-9.]+ ms +[0-9.]+ %/ { print pair, side, "self:" $2, $3 }
        { last = $0 }
        END {
            print pair, side, "exit_status", status
            print pair, side, "result_line", last ~ /^[{]"correct":(true|false),.*[}]$/
        }
    ' "$ab/run.out" >>"$runs"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" "$parent" parent
        run "$pair" "$root" change
    else
        run "$pair" "$root" change
        run "$pair" "$parent" parent
    fi
    echo "pair $pair of $pairs done" >&2
    pair=$((pair + 1))
done

# Which way each metric is better, and by how much an end-to-end one may
# get worse, come from BENCHMARK.json (one field per line); the table from
# the recorded runs.
awk -v workload="$workload" -v rev="$rev" -v seed="$seed" -v trace="$trace" '
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p
        lo = int(h)
        if (lo + 1 >= n) return v[n]
        return v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
    }
    # Sorted values of <side>/<name> into s[1..n]; returns n.
    function sorted(side, name, s,    n, i, j, t) {
        n = 0
        for (i = 1; i <= pairs; i++)
            if ((i, side, name) in val) s[++n] = val[i, side, name]
        for (i = 2; i <= n; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
            s[j + 1] = t
        }
        return n
    }
    FNR == NR {
        if ($0 ~ /"end_to_end"/) section = "end_to_end"
        if ($0 ~ /"per_layer"/) section = "per_layer"
        if (section == "") next
        if ($1 == "\"name\":") {
            name = $2; gsub(/[",]/, "", name)
            if (section == (trace ? "per_layer" : "end_to_end")) order[++metrics] = name
        }
        if ($1 == "\"better\":") { better[name] = $2; gsub(/[",]/, "", better[name]) }
        if ($1 == "\"bound\":") { bound[name] = $2; gsub(/[",]/, "", bound[name]) }
        next
    }
    {
        val[$1, $2, $3] = $4
        if ($1 > pairs) pairs = $1
        if ($3 ~ /^self:/ && !($3 in better)) { better[$3] = "lower"; spans[++nspans] = $3 }
    }
    END {
        printf "%s%s, seed %s: parent %s vs change, %d pairs\n", workload, trace ? " (traced)" : "", seed, rev, pairs
        printf "%-34s %12s %12s %10s %10s %6s %6s\n", "metric", "parent p50", "change p50", "parent iqr", "change iqr", "won", "lost"
        for (i = 1; i <= nspans; i++) order[++metrics] = spans[i]
        better["failed_ops"] = "lower"
        bound["failed_ops"] = 0
        order[++metrics] = "failed_ops"
        for (m = 1; m <= metrics; m++) {
            name = order[m]
            np = sorted("parent", name, a)
            nc = sorted("change", name, b)
            if (np == 0 || nc == 0) continue
            won = lost = 0
            for (i = 1; i <= pairs; i++) {
                if (!((i, "parent", name) in val) || !((i, "change", name) in val)) continue
                d = val[i, "change", name] - val[i, "parent", name]
                if (better[name] == "higher") d = -d
                if (d < 0) won++
                if (d > 0) lost++
            }
            p = quantile(a, np, 0.5)
            c = quantile(b, nc, 0.5)
            # How much worse the change median is, as a share of the
            # parent median (a rise from 0 counts as infinitely worse).
            worse = better[name] == "higher" ? p - c : c - p
            # Better by more than the parent spread (its IQR): apart.
            piqr = quantile(a, np, 0.75) - quantile(a, np, 0.25)
            flag = -worse > piqr ? " apart" : ""
            if (!(name in bound)) {
                # A traced row: shown, never gated.
            } else if (worse > 0 && (p == 0 || worse / (p < 0 ? -p : p) > bound[name])) {
                flag = " WORSE"
                flagged = flagged " " name
            }
            printf "%-34s %12.4f %12.4f %10.4f %10.4f %6d %6d%s\n", name, p, c, piqr, quantile(b, nc, 0.75) - quantile(b, nc, 0.25), won, lost, flag
        }
        if (flagged != "") printf "worse than the parent beyond the bound:%s\n", flagged
        # A run that failed or printed no result object: its metrics are
        # missing from, or not to be trusted in, the medians above.
        for (i = 1; i <= pairs; i++) {
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "parent" : "change"
                why = ""
                if (val[i, side, "exit_status"] != 0) why = "exited " val[i, side, "exit_status"]
                if (val[i, side, "result_line"] != 1) why = why (why == "" ? "" : ", ") "last line is not the result object"
                if (why != "") {
                    printf "failed run: pair %d %s: %s\n", i, side, why
                    failed = 1
                }
            }
        }
        if (flagged != "" || failed) exit 1
    }
' "$root/BENCHMARK.json" "$runs" || status=$?
echo "raw runs: $runs"
exit "${status:-0}"
