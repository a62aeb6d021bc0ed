#!/usr/bin/env sh
# Per-crate line counts: the table CHANGES.md quotes when a PR claims to
# shrink (or bounds how much it grows) the code.
#
# The method, pinned so two people get the same numbers. First column
# (`src`): for every <package>/src/**/*.rs — `src/bin` included — count the
# non-blank lines before the first `#[cfg(test)]` at column 0, i.e. the
# first test module (the whole file when it has none). Second column
# (`test`): the non-blank lines those files hold from that marker on, plus
# every non-blank line of the package's tests/, benches/ and examples/
# *.rs, so a deletion outside src/ shows up too. Comments count in both.
# One row per crate, one for the root package, then the total.
#
#   ./scripts/loc.sh

set -eu

cd "$(dirname "$0")/.."

# Prints "<src> <test>" for the package rooted at $1.
count() {
    dirs=
    for d in src tests benches examples; do
        [ -d "$1/$d" ] && dirs="$dirs $1/$d"
    done
    find $dirs -name '*.rs' -exec awk -v src="$1/src/" '
        FNR == 1 { in_tests = (index(FILENAME, src) != 1) }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        NF { if (in_tests) t++; else n++ }
        END { print n + 0, t + 0 }' {} +
}

printf '%-10s %6s %6s\n' package src test
total_src=0
total_test=0
for dir in crates/*/ .; do
    dir=${dir%/}
    name=$(basename "$dir")
    [ "$dir" = . ] && name=root
    set -- $(count "$dir")
    printf '%-10s %6d %6d\n' "$name" "$1" "$2"
    total_src=$((total_src + $1))
    total_test=$((total_test + $2))
done
printf '%-10s %6d %6d\n' total "$total_src" "$total_test"
