#!/usr/bin/env sh
# Mutation checks that run themselves: every scripts/mutants/*.patch is a
# seeded bug some test must catch. Each is applied with `git apply`, the
# tests of the package its `package:` header names are run, and the patch
# is reversed again (also on interrupt). The script fails when a mutant
# survives (its package's tests still pass) and when a patch no longer
# applies — a mutant that has drifted from the code checks nothing. The
# `killed-by:` header names the test(s) expected to catch it.
#
#   ./scripts/mutants.sh                 # all mutants
#   ./scripts/mutants.sh <name>...       # scripts/mutants/<name>.patch only
#
# Std tools only: git, cargo, sed. One incremental debug test run per
# mutant; CI's fast lane runs it right after the debug test suite, whose
# build it reuses.

set -eu

cd "$(dirname "$0")/.."

applied=
restore() {
    if [ -n "$applied" ]; then
        git apply -R "$applied"
        applied=
    fi
}
trap restore EXIT
trap 'exit 130' INT TERM

if [ $# -eq 0 ]; then
    set -- scripts/mutants/*.patch
else
    for name; do
        set -- "$@" "scripts/mutants/$name.patch"
        shift
    done
fi

survivors=0
for patch; do
    package=$(sed -n 's/^package: *//p' "$patch")
    if [ -z "$package" ]; then
        echo "mutants: $patch has no 'package:' header" >&2
        exit 2
    fi
    if ! git apply --check "$patch" 2>/dev/null; then
        echo "STALE     $patch (no longer applies: re-cut it against the code)"
        survivors=$((survivors + 1))
        continue
    fi
    git apply "$patch"
    applied=$patch
    if ! cargo test -q --offline -p "$package" --no-run >/dev/null 2>&1; then
        echo "BROKEN    $patch (does not compile: a build error is not a kill)"
        survivors=$((survivors + 1))
    elif cargo test -q --offline -p "$package" >/dev/null 2>&1; then
        echo "SURVIVED  $patch ($package tests pass with the bug in)"
        survivors=$((survivors + 1))
    else
        echo "killed    $patch"
    fi
    restore
done

if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors of $# not killed" >&2
    exit 1
fi
echo "mutants: all $# killed"
