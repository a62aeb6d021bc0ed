#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh <workload|all> [--seed S] [--seconds N] [--trace] [--verbose]
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --self-check
#
# Prints `name value unit` lines and, as the last line of standard output,
# the one-line JSON result; `all` prints one table with a row per workload.
# Build output goes to standard error. The build lands in CARGO_TARGET_DIR
# when the caller sets it, else in benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/flashtier-benchmark" --bench-dir "$here" "$@"
