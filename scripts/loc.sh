#!/bin/sh
# Count the Rust code of this checkout, per crate and in total:
#
#   scripts/loc.sh [rev]
#
# A line counts when it is not blank and not a `//` comment (doc comments
# included), in a `.rs` file under `crates/*/src` or `src/`; a file is read
# only up to its first column-0 `#[cfg(test)]` or `#![cfg(test)]`, so unit
# tests, in the file or in a test module of its own, do not count.
# Comment or format churn therefore moves the total little, and a change
# that deletes code shows as a negative difference. With <rev>, the same
# count of that revision (read with `git archive`, nothing checked out)
# is printed beside the worktree's, with the difference per crate.
set -eu

[ $# -le 1 ] || { echo "usage: $0 [rev]" >&2; exit 2; }
cd "$(dirname "$0")/.."

# "<crate> <lines>" per crate of the tree at $1; `src/` is the facade
# package, `patternkb`.
count() {
    for dir in "$1"/crates/*/src "$1"/src; do
        [ -d "$dir" ] || continue
        name=$(basename "$(dirname "$dir")")
        [ "$dir" = "$1/src" ] && name=patternkb
        lines=$(find "$dir" -name '*.rs' -type f | sort | xargs awk '
            FNR == 1 { tests = 0 }
            /^#!?\[cfg\(test\)\]/ { tests = 1 }
            tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
            { n++ }
            END { print n + 0 }
        ')
        echo "$name $lines"
    done
}

if [ $# -eq 0 ]; then
    count . | awk '
        { printf "%-12s %8d\n", $1, $2; total += $2 }
        END { printf "%-12s %8d\n", "total", total }
    '
    exit 0
fi

rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" crates src | tar -x -C "$tmp"
{ count "$tmp" | sed 's/^/rev /'; count . | sed 's/^/tree /'; } | awk -v rev="$rev" '
    $1 == "rev" { old[$2] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 } }
    $1 == "tree" { new[$2] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 } }
    END {
        printf "%-12s %8s %8s %8s\n", "crate", substr(rev, 1, 8), "tree", "diff"
        for (i = 1; i <= n; i++) {
            c = order[i]
            printf "%-12s %8d %8d %+8d\n", c, old[c], new[c], new[c] - old[c]
            to += old[c]; tn += new[c]
        }
        printf "%-12s %8d %8d %+8d\n", "total", to, tn, tn - to
    }
'
