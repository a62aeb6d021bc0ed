#!/usr/bin/env sh
# Per-crate non-test line count: the table CHANGES.md quotes when a PR
# claims to shrink (or bounds how much it grows) the code.
#
# The method, pinned so two people get the same number: for every
# crates/<crate>/src/**/*.rs, count the non-blank lines before the first
# `#[cfg(test)]` at column 0, i.e. the first test module (the whole file
# when it has none). Comments count; integration tests, benches, examples
# and the root package do not.
#
#   ./scripts/loc.sh            # one row per crate, then the total

set -eu

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && NF { n++ }
        END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
