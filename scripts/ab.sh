#!/usr/bin/env bash
# In-process A/B: an older revision (A) and the checkout (B) linked into
# one binary, replaying the performance ledger's workloads chunk by chunk
# in alternation, so that slow spells of the host fall on both sides alike.
#
#   scripts/ab.sh [--aa] [--seconds S] <rev> [workload...]
#
# Workloads are the ledger's: hot-read, cold-read, write-heavy, mixed (all
# four when none is named). A is `git archive <rev>` exported to
# target/ab/a with its workspace version rewritten to a prerelease
# (`<version>-a`): cargo refuses two path packages of one name and
# version, and with the rewrite both crate graphs link into one binary. B
# is the checkout, uncommitted edits included. `--aa` exports <rev> a
# second time as B (`<version>-b`): the self-check, whose ratios should sit
# at 1.00.
#
# A generated harness crate (target/ab/harness, its own workspace, the
# root's release profile) depends on both graphs under renamed names and
# instantiates one `macro_rules!` body per side. Each side builds the
# ledger's three stacks (FlashTier WT over the SSC, WB over the SSC-R,
# Native WB over the hybrid FTL, 64 MiB of flash before a 4 GiB disk)
# through `cachemgr::StackSpec`, from public API only. One trace per
# workload feeds both sides: the harness includes A's
# benchmark/src/workloads.rs, with A's trace crate under its own name, and
# calls the ledger's `Workload::trace` at its default seed. Per system both
# sides replay the warm prefix untimed, then the timed slice, pass after
# pass until S seconds (default 3) are spent, in 4,096-event chunks timed
# A B, B A, A B, ... For each workload and system the tool prints the
# median of the per-chunk ratios B/A, a bootstrap 95% interval of that
# median and the chunks B won. At the end it asserts that both sides
# reached the same simulated time and the same `MgrCounters` on every
# stack, and exits 1 naming the stack if not: a change that moves them is
# not invisible to the simulation, and its timings compare different work.
#
# Its limit: both sides share one binary, so code placement differs from
# the production build, and a few percent of drift on code neither side
# changed can be placement. The A/B finds and sizes a change quickly;
# scripts/ledger_pair.sh confirms it on the production build.

set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh [--aa] [--seconds S] <rev> [workload...]" >&2
    exit 2
}

aa=0
seconds=3
while [ $# -gt 0 ]; do
    case $1 in
    --aa) aa=1 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift ;;
    -*) usage ;;
    *) break ;;
    esac
    shift
done
[ $# -ge 1 ] || usage
rev=$1
shift
workloads=${*:-hot-read cold-read write-heavy mixed}
for w in $workloads; do
    case $w in
    hot-read | cold-read | write-heavy | mixed) ;;
    *) echo "ab.sh: unknown workload '$w'" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."
root=$PWD
ab=$root/target/ab

# export <rev> <dir> <suffix>: the tree of <rev> in <dir>, its workspace
# version made the prerelease <version>-<suffix>.
export_rev() {
    rm -rf "$2"
    mkdir -p "$2"
    git archive "$1" | tar -x -C "$2"
    sed -i '/^\[workspace.package\]/,/^\[/ s/^version = "\([^"-]*\)"/version = "\1-'"$3"'"/' "$2/Cargo.toml"
    grep -q '^version = "[^"]*-'"$3"'"' "$2/Cargo.toml" || {
        echo "ab.sh: no [workspace.package] version to rewrite in $1" >&2
        exit 1
    }
}

export_rev "$rev" "$ab/a" a
if [ "$aa" -eq 1 ]; then
    export_rev "$rev" "$ab/b" b
    b_tree=$ab/b
else
    rm -rf "$ab/b"
    b_tree=$root
fi

harness=$ab/harness
mkdir -p "$harness/src"
{
    echo '[package]'
    echo 'name = "ab-harness"'
    echo 'version = "0.0.0"'
    echo 'edition = "2021"'
    echo 'publish = false'
    echo
    echo '[workspace]'
    echo
    echo '[dependencies]'
    for side in a b; do
        tree=$ab/a
        [ "$side" = b ] && tree=$b_tree
        echo "${side}_cachemgr = { package = \"cachemgr\", path = \"$tree/crates/cachemgr\" }"
        echo "${side}_core = { package = \"flashtier-core\", path = \"$tree/crates/core\" }"
        echo "${side}_flashsim = { package = \"flashsim\", path = \"$tree/crates/flashsim\" }"
    done
    echo "trace = { path = \"$ab/a/crates/trace\" }"
    echo "b_trace = { package = \"trace\", path = \"$b_tree/crates/trace\" }"
    echo
    sed -n '/^\[profile.release\]/,/^$/p' "$root/Cargo.toml"
} >"$harness/Cargo.toml"

{
    echo '//! Generated by scripts/ab.sh: the ledger'"'"'s stacks of two revisions in one'
    echo '//! binary, replayed chunk by chunk in alternation.'
    echo
    echo '/// The ledger'"'"'s workloads, as of A.'
    echo "#[path = \"$ab/a/benchmark/src/workloads.rs\"]"
    echo '#[allow(dead_code)]'
    echo 'mod workloads;'
} >"$harness/src/main.rs"
cat >>"$harness/src/main.rs" <<'EOF'

use std::ops::Range;
use std::time::{Duration, Instant};

use workloads::{Workload, DEFAULT_SEED, FLASH_BYTES, RANGE_BLOCKS};

const CHUNK: usize = 4096;
const SYSTEMS: [&str; 3] = ["wt", "wb", "native"];

/// One stack of one side, with its side's copy of the trace.
trait Side {
    /// Replays `events[range]` and returns the simulated time in µs.
    fn replay(&mut self, range: Range<usize>) -> u64;
    /// The manager counters, printed for comparison across the sides.
    fn counters(&self) -> String;
}

macro_rules! side {
    ($side:ident, $cm:ident, $core:ident, $flash:ident, $trace:ident) => {
        mod $side {
            use std::ops::Range;
            use std::rc::Rc;

            use $cm::{replay, CacheSystem, NativeConsistency, NativeMode, StackSpec};
            use $core::ConsistencyMode;
            use $trace::TraceEvent;

            struct Driven<S> {
                system: S,
                events: Rc<Vec<TraceEvent>>,
            }

            impl<S: CacheSystem> crate::Side for Driven<S> {
                fn replay(&mut self, range: Range<usize>) -> u64 {
                    let stats = replay(&mut self.system, &self.events[range]).expect("replay failed");
                    stats.sim_time.as_micros()
                }

                fn counters(&self) -> String {
                    format!("{:?}", self.system.counters())
                }
            }

            /// The ledger's stacks, in the order of `crate::SYSTEMS`, over
            /// `trace` as `(lba, is_write)`.
            pub fn stacks(trace: &[(u64, bool)]) -> Vec<Box<dyn crate::Side>> {
                let events: Vec<TraceEvent> = trace
                    .iter()
                    .map(|&(lba, write)| if write { TraceEvent::write(lba) } else { TraceEvent::read(lba) })
                    .collect();
                let events = Rc::new(events);
                let flash = $flash::FlashConfig::with_capacity_bytes(crate::FLASH_BYTES);
                let spec = StackSpec::new(flash, crate::RANGE_BLOCKS);
                vec![
                    Box::new(Driven { system: spec.wt(false, ConsistencyMode::CleanAndDirty), events: events.clone() }),
                    Box::new(Driven { system: spec.wb(true, ConsistencyMode::DirtyOnly), events: events.clone() }),
                    Box::new(Driven { system: spec.native(NativeMode::WriteBack, NativeConsistency::Durable), events }),
                ]
            }
        }
    };
}

side!(side_a, a_cachemgr, a_core, a_flashsim, trace);
side!(side_b, b_cachemgr, b_core, b_flashsim, b_trace);

/// Quantile `q` of sorted `v`, linear between order statistics.
fn quantile(v: &[f64], q: f64) -> f64 {
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// A bootstrap 95% interval of the median of `ratios` (2,000 resamples,
/// a fixed generator, so a rerun on the same ratios prints the same).
fn bootstrap(ratios: &[f64]) -> (f64, f64) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % ratios.len()
    };
    let mut sample = vec![0.0; ratios.len()];
    let mut medians: Vec<f64> = (0..2000)
        .map(|_| {
            for s in sample.iter_mut() {
                *s = ratios[next()];
            }
            median(&mut sample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    (quantile(&medians, 0.025), quantile(&medians, 0.975))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seconds: f64 = args[1].parse().expect("seconds");
    let budget = Duration::from_secs_f64(seconds);
    let mut mismatches = Vec::new();
    println!("{:<12} {:<7} {:>8} {:>17} {:>12}", "workload", "system", "B/A", "95% interval", "B won");
    for name in &args[2..] {
        let w = Workload::by_name(name).expect("known workload");
        let trace: Vec<(u64, bool)> = w
            .trace(DEFAULT_SEED)
            .events
            .iter()
            .map(|e| ({ e.lba }, e.is_write()))
            .collect();
        let mut a = side_a::stacks(&trace);
        let mut b = side_b::stacks(&trace);
        for (i, system) in SYSTEMS.iter().enumerate() {
            let (a, b) = (&mut a[i], &mut b[i]);
            let warm = 0..w.warm_events;
            let mut sim = (a.replay(warm.clone()), b.replay(warm));
            let mut ratios = Vec::new();
            let started = Instant::now();
            'passes: loop {
                for at in (w.warm_events..trace.len()).step_by(CHUNK) {
                    let range = at..(at + CHUNK).min(trace.len());
                    let time = |side: &mut Box<dyn Side>, sim: &mut u64| {
                        let t = Instant::now();
                        *sim += side.replay(range.clone());
                        t.elapsed().as_secs_f64()
                    };
                    let (ta, tb) = if ratios.len() % 2 == 0 {
                        let ta = time(a, &mut sim.0);
                        (ta, time(b, &mut sim.1))
                    } else {
                        let tb = time(b, &mut sim.1);
                        (time(a, &mut sim.0), tb)
                    };
                    ratios.push(tb / ta);
                    if started.elapsed() >= budget {
                        break 'passes;
                    }
                }
            }
            let won = ratios.iter().filter(|&&r| r < 1.0).count();
            let (lo, hi) = bootstrap(&ratios);
            let mid = median(&mut ratios);
            println!(
                "{:<12} {:<7} {:>8.4} {:>8.4}..{:<7.4} {:>5}/{:<6}",
                w.name, system, mid, lo, hi, won, ratios.len()
            );
            let counters = (a.counters(), b.counters());
            if sim.0 != sim.1 || counters.0 != counters.1 {
                mismatches.push(format!(
                    "{} {system}: sim_time_us A {} B {}\n  A {}\n  B {}",
                    w.name, sim.0, sim.1, counters.0, counters.1
                ));
            }
        }
    }
    if mismatches.is_empty() {
        println!("sim_time_us and MgrCounters equal on both sides");
    } else {
        for m in &mismatches {
            eprintln!("MISMATCH {m}");
        }
        eprintln!("the sides simulate different work: the change is not behaviour-invisible");
        std::process::exit(1);
    }
}
EOF

echo "building A ($rev) and B ($([ "$aa" -eq 1 ] && echo "$rev again" || echo checkout)) into one binary" >&2
CARGO_TARGET_DIR=$ab/target cargo build --offline --release -q --manifest-path "$harness/Cargo.toml"
"$ab/target/release/ab-harness" "$seconds" $workloads
