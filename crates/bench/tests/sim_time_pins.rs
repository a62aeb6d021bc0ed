//! The 1M-event Zipf replay, pinned: simulated time and injected faults of
//! every system, unsharded and over four shards.
//!
//! Every pinned figure is simulated time or a counter, a pure function of
//! the model and the seed, so it is the same on every host. A change that
//! only makes the simulator faster keeps all of them; a deliberate model
//! change moves some and re-records them here, reviewed like any other
//! re-baseline (`experiments_golden` plays the same role for the tables).

use cachemgr::{replay, FlashTierWb, FlashTierWt};
use flashtier_bench::replay::{replay_sharded, ReplaySetup};
use trace::Trace;

const EVENTS: u64 = 1_000_000;

/// `(sim_time_us, injected faults)` of wt, wb and native replaying `t`
/// under `setup`.
fn replay_each_system(setup: &ReplaySetup, t: &Trace) -> [(u64, u64); 3] {
    let mut wt = setup.flashtier_wt();
    let wt_us = replay(&mut wt, &t.events).expect("wt replay").sim_time;
    let mut wb = setup.flashtier_wb();
    let wb_us = replay(&mut wb, &t.events).expect("wb replay").sim_time;
    let mut native = setup.native_wb();
    let native_us = replay(&mut native, &t.events)
        .expect("native replay")
        .sim_time;
    [
        (wt_us.as_micros(), wt.ssc().fault_counters().total()),
        (wb_us.as_micros(), wb.ssc().fault_counters().total()),
        (native_us.as_micros(), native.fault_counters().total()),
    ]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight 1M-event replays; `cargo test --release` runs it"
)]
fn one_million_event_replay_is_pinned() {
    let setup = ReplaySetup::perf(EVENTS);
    let t = setup.workload();
    assert_eq!(
        replay_each_system(&setup, &t),
        [(445_758_121, 0), (322_494_362, 0), (1_040_575_126, 0)],
        "wt / wb / native, faults off"
    );

    // The program-failure re-issue paths are timed only under faults.
    let faulted = setup.with_faults(500);
    assert_eq!(
        replay_each_system(&faulted, &t),
        [(447_421_818, 580), (324_319_895, 793), (1_041_971_782, 858)],
        "wt / wb / native, 500 ppm faults"
    );

    let wt = replay_sharded(faulted.wt_shard_set(4), &t, FlashTierWt::ssc);
    let wb = replay_sharded(faulted.wb_shard_set(4), &t, FlashTierWb::ssc);
    assert_eq!(
        (wt.sim_time_us(), wt.injected_faults),
        (139_086_576, 601),
        "wt, 4 shards, 500 ppm faults"
    );
    assert_eq!(
        (wb.sim_time_us(), wb.injected_faults),
        (94_850_375, 821),
        "wb, 4 shards, 500 ppm faults"
    );
    for run in [&wt, &wb] {
        assert_eq!(run.shard_events, [205_875, 302_977, 164_156, 326_992]);
    }
}
