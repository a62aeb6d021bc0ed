//! Sharded-replay equivalence and determinism gates.
//!
//! Three invariants back the sharded build:
//!
//! 1. **N=1 is the unsharded system, bit for bit.** A single-shard
//!    partitioned replay must produce the exact `SscCounters` and
//!    `sim_time_us` of the plain sequential replay on the pinned Zipf
//!    workload — the shard layer adds routing and merging but no
//!    semantics.
//! 2. **Partitioning preserves per-LBA order.** The router is a pure
//!    function of the LBA, so each block's operation subsequence is
//!    unchanged; this is the property that makes partitioned replay
//!    correct at all.
//! 3. **Merged results are rerun-deterministic at every N.** Per-shard
//!    clocks are advanced independently and max-merged, so the outcome
//!    cannot depend on host scheduling.

use cachemgr::{FlashTierWb, FlashTierWt};
use flashtier_bench::replay::{partition_events, replay_sharded, ReplaySetup, ShardedRun};
use flashtier_core::{ShardRouter, SscCounters};

/// Full pinned size in release; trimmed in debug so `cargo test` stays fast
/// (tier-1 runs the debug profile).
#[cfg(debug_assertions)]
const EVENTS: u64 = 100_000;
#[cfg(not(debug_assertions))]
const EVENTS: u64 = 1_000_000;

/// The pinned workload on a quarter of its volume and cache.
fn small_setup() -> ReplaySetup {
    ReplaySetup {
        range_blocks: 1 << 18,
        unique_blocks: 1 << 14,
        flash_bytes: 16 << 20,
        ..ReplaySetup::perf(EVENTS / 4)
    }
}

/// A one-shard run must be the plain sequential replay: every event in
/// its one shard, the same device counters and the same simulated time.
fn assert_matches_unsharded(label: &str, run: &ShardedRun, counters: SscCounters, sim_us: u64) {
    assert_eq!(run.shard_events, [EVENTS], "{label}: N=1 lost events");
    assert_eq!(
        run.shard_counters,
        [counters],
        "{label}: N=1 sharded counters diverge from unsharded"
    );
    assert_eq!(
        run.sim_time_us(),
        sim_us,
        "{label}: N=1 sharded sim_time diverges from unsharded"
    );
}

#[test]
fn one_shard_replay_is_bit_identical_to_unsharded() {
    let setup = ReplaySetup::perf(EVENTS);
    let t = setup.workload();

    let mut wt = setup.flashtier_wt();
    let wt_us = cachemgr::replay(&mut wt, &t.events).unwrap().sim_time;
    assert_matches_unsharded(
        "wt",
        &replay_sharded(setup.wt_shard_set(1), &t, FlashTierWt::ssc),
        wt.ssc().counters(),
        wt_us.as_micros(),
    );

    let mut wb = setup.flashtier_wb();
    let wb_us = cachemgr::replay(&mut wb, &t.events).unwrap().sim_time;
    assert_matches_unsharded(
        "wb",
        &replay_sharded(setup.wb_shard_set(1), &t, FlashTierWb::ssc),
        wb.ssc().counters(),
        wb_us.as_micros(),
    );
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
    for n in [2usize, 4] {
        let wt = || replay_sharded(setup.wt_shard_set(n), &t, FlashTierWt::ssc);
        let wb = || replay_sharded(setup.wb_shard_set(n), &t, FlashTierWb::ssc);
        for (label, run) in [("wt", &wt as &dyn Fn() -> ShardedRun), ("wb", &wb)] {
            let (a, b) = (run(), run());
            assert_eq!(
                a, b,
                "{label} N={n}: per-shard events, times or counters differ across reruns"
            );
            assert_eq!(a.shard_events.len(), n);
            assert_eq!(
                a.shard_events.iter().sum::<u64>(),
                t.events.len() as u64,
                "{label} N={n}: all events must be replayed"
            );
        }
    }
}
