#!/usr/bin/env sh
# Wall-time profile of the replay pipeline, as folded stacks.
#
# Builds the release harness, runs a replay with the self-instrumented
# profiler enabled, and leaves a folded-stacks file that any flamegraph
# renderer accepts:
#
#   ./scripts/profile.sh                     # 1M events
#   EVENTS=300000 ./scripts/profile.sh
#   flamegraph.pl target/profile.folded > flame.svg   # if you have it
#
# The folds are coarse by design — one per pipeline stage
# (workload generation, then each system's replay) — because external
# profilers (perf, gprofng) are unavailable in the build sandbox. For
# finer attribution, the harness composes with the usual suspects when
# you do have them:
#
#   perf record -g -- target/release/perf_replay --events 1000000
#   perf script | stackcollapse-perf.pl > out.folded
#
# Interpreting the folds: `perf_replay;workload_gen` is trace synthesis
# (host-only, excluded from the measured region);
# `perf_replay;replay;<system>` is that system's full replay wall time.
# Compare systems against each other to see where simulated work (GC,
# merges, metadata persistence) dominates host work.

set -eu

EVENTS="${EVENTS:-1000000}"
OUT="${OUT:-target/profile.folded}"

cargo build --release -p flashtier-bench

./target/release/perf_replay \
    --events "$EVENTS" \
    --profile "$OUT"

echo "folded stacks written to $OUT:" >&2
cat "$OUT" >&2
