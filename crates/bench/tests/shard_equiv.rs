//! Sharded-replay equivalence and determinism gates.
//!
//! Three invariants back the sharded build:
//!
//! 1. **N=1 is the unsharded system, bit for bit.** A single-shard
//!    partitioned replay must produce the exact `SscCounters` and
//!    `sim_time_us` of the plain sequential replay on the Zipf gate
//!    workload — the shard layer adds routing and merging but no
//!    semantics.
//! 2. **Partitioning preserves per-LBA order.** The router is a pure
//!    function of the LBA, so each block's operation subsequence is
//!    unchanged; this is the property that makes partitioned replay
//!    correct at all.
//! 3. **Merged results are rerun-deterministic at every N.** Per-shard
//!    clocks are advanced independently and max-merged, so the outcome
//!    cannot depend on host scheduling.

use flashtier_bench::replay::{partition_events, run_sharded_detail, ReplaySetup, ReplaySystem};
use flashtier_core::ShardRouter;

/// Full gate size in release; trimmed in debug so `cargo test` stays fast
/// (tier-1 runs the debug profile).
#[cfg(debug_assertions)]
const EVENTS: u64 = 100_000;
#[cfg(not(debug_assertions))]
const EVENTS: u64 = 1_000_000;

/// The perf-gate workload on a quarter of its volume and cache.
fn small_setup() -> ReplaySetup {
    ReplaySetup {
        range_blocks: 1 << 18,
        unique_blocks: 1 << 14,
        flash_bytes: 16 << 20,
        ..ReplaySetup::perf(EVENTS / 4)
    }
}

#[test]
fn one_shard_replay_is_bit_identical_to_unsharded() {
    let setup = ReplaySetup::perf(EVENTS);
    let t = setup.workload();

    for kind in [ReplaySystem::FlashtierWt, ReplaySystem::FlashtierWb] {
        let detail = run_sharded_detail(kind, &setup, &t, 1);
        assert_eq!(detail.shard_counters.len(), 1);
        assert_eq!(detail.result.shard_events.as_deref(), Some(&[EVENTS][..]));

        // The plain sequential replay of the same workload.
        let (plain_counters, plain_sim_us) = match kind {
            ReplaySystem::FlashtierWt => {
                let mut s = setup.flashtier_wt();
                let stats = cachemgr::replay(&mut s, &t.events).unwrap();
                (s.ssc().counters(), stats.sim_time.as_micros())
            }
            ReplaySystem::FlashtierWb => {
                let mut s = setup.flashtier_wb();
                let stats = cachemgr::replay(&mut s, &t.events).unwrap();
                (s.ssc().counters(), stats.sim_time.as_micros())
            }
            _ => unreachable!(),
        };

        assert_eq!(
            detail.shard_counters[0], plain_counters,
            "{}: N=1 sharded counters diverge from unsharded",
            detail.result.name
        );
        assert_eq!(
            detail.result.sim_time_us, plain_sim_us,
            "{}: N=1 sharded sim_time diverges from unsharded",
            detail.result.name
        );
    }
}

#[test]
fn partitioning_preserves_per_lba_order() {
    let setup = small_setup();
    let t = setup.workload();
    for n in [2usize, 4, 8] {
        let router = ShardRouter::new(n, 64);
        let parts = partition_events(&t.events, router);
        assert_eq!(parts.len(), n);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, t.events.len(), "partition loses or invents events");

        // Each shard's subsequence must equal the original filtered by the
        // router — same events, same order. Per-LBA order preservation
        // follows because every LBA routes to exactly one shard.
        for (i, part) in parts.iter().enumerate() {
            let expect: Vec<_> = t
                .events
                .iter()
                .copied()
                .filter(|e| router.shard_of(e.lba) == i)
                .collect();
            assert_eq!(part, &expect, "shard {i} order broken");
        }
    }
}

#[test]
fn sharded_replay_is_rerun_deterministic() {
    let setup = small_setup();
    let t = setup.workload();
    for kind in [ReplaySystem::FlashtierWt, ReplaySystem::FlashtierWb] {
        for n in [2usize, 4] {
            let a = run_sharded_detail(kind, &setup, &t, n);
            let b = run_sharded_detail(kind, &setup, &t, n);
            assert_eq!(
                a.shard_counters, b.shard_counters,
                "{} N={n}: per-shard counters differ across reruns",
                a.result.name
            );
            assert_eq!(
                a.shard_sim_time_us, b.shard_sim_time_us,
                "{} N={n}: per-shard sim times differ across reruns",
                a.result.name
            );
            assert_eq!(a.result.sim_time_us, b.result.sim_time_us);
            assert_eq!(a.result.shard_events, b.result.shard_events);
            assert_eq!(
                a.result.events,
                t.events.len() as u64,
                "all events must be replayed"
            );
        }
    }
}
