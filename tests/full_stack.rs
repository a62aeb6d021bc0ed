//! End-to-end integration tests: whole systems (manager + cache device +
//! disk) replaying generated workloads in Store mode, with every read
//! checked against the guarantee model of `flashtier_testkit` — including
//! across crashes.

use flashtier::cachemgr::StackSpec;
use flashtier::cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, NativeConsistency, NativeMode};
use flashtier::flashsim::{DataMode, FlashConfig};
use flashtier::simkit::SimRng;
use flashtier::ssc::ConsistencyMode;
use flashtier_testkit::{Codec, Driven, Tagged};

const VOLUME_BLOCKS: u64 = 4096;

/// Stacks with a 4 MB cache over the volume, keeping every payload.
fn stack() -> StackSpec {
    StackSpec::new(FlashConfig::with_capacity_bytes(4 << 20), VOLUME_BLOCKS)
        .with_data_mode(DataMode::Store)
}

/// FlashTier write-through and write-back with full consistency.
fn wt() -> FlashTierWt {
    stack().wt(false, ConsistencyMode::CleanAndDirty)
}

fn wb() -> FlashTierWb {
    stack().wb(false, ConsistencyMode::CleanAndDirty)
}

/// One of 24 hot extents of 64 blocks.
fn clustered(rng: &mut SimRng) -> u64 {
    rng.gen_range(24) * 64 + rng.gen_range(64)
}

/// Clustered mixed workload beside the model; checks every read and sweeps
/// every written block at the end.
fn churn_and_verify<S: CacheSystem>(system: S, ops: u64, writes: f64, seed: u64) -> Driven<S> {
    let mut rng = SimRng::seed_from(seed);
    let mut run = Driven::new(system);
    run.context = format!("seed {seed}");
    run.churn(ops, || (clustered(&mut rng), rng.gen_bool(writes)));
    run.sweep_written();
    run
}

#[test]
fn flashtier_write_through_integrity() {
    let run = churn_and_verify(wt(), 6_000, 0.5, 1);
    assert!(run.system.counters().read_hits > 0);
}

#[test]
fn flashtier_write_back_integrity() {
    let run = churn_and_verify(wb(), 6_000, 0.7, 2);
    assert!(
        run.system.counters().writebacks > 0,
        "the cleaner must have run"
    );
}

#[test]
fn native_write_back_integrity() {
    let system = stack().native(NativeMode::WriteBack, NativeConsistency::Durable);
    churn_and_verify(system, 6_000, 0.7, 3);
}

#[test]
fn native_write_through_integrity() {
    let system = stack().native(NativeMode::WriteThrough, NativeConsistency::None);
    churn_and_verify(system, 6_000, 0.5, 4);
}

#[test]
fn write_back_crash_preserves_all_dirty_data() {
    let mut run = Driven::new(wb());
    let mut rng = SimRng::seed_from(9);
    // Interleave several crash points into the churn.
    for round in 0..4u64 {
        run.context = format!("round {round}");
        run.churn(1_500, || (clustered(&mut rng), rng.gen_bool(0.6)));
        run.system.crash_and_recover().unwrap();
        // After recovery every write must still read back correctly: the
        // newest version came from write-dirty (durable), or was cleaned
        // and written to disk, or was refetched — never stale.
        run.context = format!("after crash {round}");
        run.sweep_written();
    }
}

#[test]
fn write_through_crash_is_instantly_usable() {
    let mut run = churn_and_verify(wt(), 3_000, 0.5, 5);
    let hits_before = run.system.counters().read_hits;
    run.system.crash_and_recover().unwrap();
    // Every read is served (cache or disk) and exact, and the cache still
    // hits after recovery (clean data was persisted).
    run.context = "after the crash".into();
    let mut rng = SimRng::seed_from(5);
    run.churn(500, || (clustered(&mut rng), false));
    assert!(
        run.system.counters().read_hits > hits_before,
        "some hits came from recovered cache"
    );
}

#[test]
fn scattered_dirty_overload_degrades_gracefully() {
    // Pathological anti-cache workload: uniform random dirty writes over a
    // span far larger than the cache, never clustered. The system must
    // keep serving (cleaning as needed) and never corrupt data or panic.
    let mut run = Driven::new(wb());
    let mut rng = SimRng::seed_from(13);
    run.churn(8_000, || (rng.gen_range(VOLUME_BLOCKS), true));
    assert!(run.system.counters().writebacks > 0);
    let written: Vec<u64> = run.model.lbas().take(1_000).collect();
    run.sweep(written);
}

#[test]
fn ssc_beats_ssd_on_write_heavy_churn() {
    // The headline claim at integration scale: same churn, same disk, the
    // SSC-based system spends less simulated time than the SSD-based one.
    let mut ft = stack().wt(false, ConsistencyMode::None);
    let mut native = stack().native(NativeMode::WriteThrough, NativeConsistency::None);

    let mut rng = SimRng::seed_from(21);
    let mut ft_time = 0u64;
    let mut native_time = 0u64;
    // Warm both, then measure sustained overwrite churn.
    for i in 0..20_000u64 {
        let lba = rng.gen_range(16) * 64 + rng.gen_range(64);
        let fill = Tagged.encode(lba, i, 4096);
        let a = ft.write(lba, &fill).unwrap();
        let b = native.write(lba, &fill).unwrap();
        if i >= 4_000 {
            ft_time += a.as_micros();
            native_time += b.as_micros();
        }
    }
    assert!(
        ft_time < native_time,
        "silent eviction should beat copy-GC: {ft_time} vs {native_time}"
    );
}
