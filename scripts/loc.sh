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
# A dev-only package — `publish = false` in its manifest, and named under
# no manifest's [dependencies] — is test support: all of its lines count
# as test. One row per crate, one for the root package, then the total.
#
#   ./scripts/loc.sh

set -eu

cd "$(dirname "$0")/.."

# Succeeds when the package rooted at $1 is dev-only.
dev_only() {
    grep -q '^publish *= *false' "$1/Cargo.toml" || return 1
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$1/Cargo.toml" | head -n 1)
    awk -v name="$name" '
        /^\[/ { deps = ($0 == "[dependencies]") }
        deps && index($0, name) == 1 && substr($0, length(name) + 1) ~ /^[ .=]/ { named = 1 }
        END { exit named }' $(ls Cargo.toml */Cargo.toml crates/*/Cargo.toml 2>/dev/null || true)
}

# Prints "<src> <test>" for the package rooted at $1.
count() {
    dirs=
    for d in src tests benches examples; do
        [ -d "$1/$d" ] && dirs="$dirs $1/$d"
    done
    # A dev-only package has no product source: every line is test.
    src=$1/src/
    if dev_only "$1"; then src=none; fi
    find $dirs -name '*.rs' -exec awk -v src="$src" '
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
