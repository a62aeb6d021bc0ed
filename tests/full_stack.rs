//! End-to-end integration tests: whole systems (manager + cache device +
//! disk) replaying generated workloads in Store mode, with data verified
//! against a shadow model — including across crashes.

use flashtier::cachemgr::{CacheSystem, NativeConsistency, NativeMode, StackSpec};
use flashtier::flashsim::{DataMode, FlashConfig};
use flashtier::simkit::SimRng;
use flashtier::ssc::ConsistencyMode;
use std::collections::HashMap;

const VOLUME_BLOCKS: u64 = 4096;

/// Stacks with a 4 MB cache over the volume, keeping every payload.
fn stack() -> StackSpec {
    StackSpec::new(FlashConfig::with_capacity_bytes(4 << 20), VOLUME_BLOCKS)
        .with_data_mode(DataMode::Store)
}

fn page(fill: u8) -> Vec<u8> {
    vec![fill; 4096]
}

/// Clustered mixed workload with a shadow model; verifies every read
/// against it and sweeps the full state at the end.
fn churn_and_verify<S: CacheSystem>(system: &mut S, ops: u64, write_fraction: f64, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut shadow: HashMap<u64, u8> = HashMap::new();
    for i in 0..ops {
        // 24 hot extents of 64 blocks.
        let lba = rng.gen_range(24) * 64 + rng.gen_range(64);
        if rng.gen_bool(write_fraction) {
            let fill = (i % 251) as u8;
            system.write(lba, &page(fill)).unwrap();
            shadow.insert(lba, fill);
        } else {
            let (data, _) = system.read(lba).unwrap();
            match shadow.get(&lba) {
                Some(&fill) => assert_eq!(data, page(fill), "stale read at {lba}"),
                None => assert!(data.iter().all(|&b| b == 0), "phantom data at {lba}"),
            }
        }
    }
    for (&lba, &fill) in &shadow {
        let (data, _) = system.read(lba).unwrap();
        assert_eq!(data, page(fill), "final sweep at {lba}");
    }
}

#[test]
fn flashtier_write_through_integrity() {
    let mut system = stack().wt(false, ConsistencyMode::CleanAndDirty);
    churn_and_verify(&mut system, 6_000, 0.5, 1);
    assert!(system.counters().read_hits > 0);
}

#[test]
fn flashtier_write_back_integrity() {
    let mut system = stack().wb(false, ConsistencyMode::CleanAndDirty);
    churn_and_verify(&mut system, 6_000, 0.7, 2);
    assert!(
        system.counters().writebacks > 0,
        "the cleaner must have run"
    );
}

#[test]
fn native_write_back_integrity() {
    let mut system = stack().native(NativeMode::WriteBack, NativeConsistency::Durable);
    churn_and_verify(&mut system, 6_000, 0.7, 3);
}

#[test]
fn native_write_through_integrity() {
    let mut system = stack().native(NativeMode::WriteThrough, NativeConsistency::None);
    churn_and_verify(&mut system, 6_000, 0.5, 4);
}

#[test]
fn write_back_crash_preserves_all_dirty_data() {
    let mut system = stack().wb(false, ConsistencyMode::CleanAndDirty);
    let mut rng = SimRng::seed_from(9);
    let mut shadow: HashMap<u64, u8> = HashMap::new();
    // Interleave several crash points into the churn.
    for round in 0..4u64 {
        for i in 0..1_500u64 {
            let lba = rng.gen_range(24) * 64 + rng.gen_range(64);
            let fill = ((round * 1500 + i) % 251) as u8;
            if rng.gen_bool(0.6) {
                system.write(lba, &page(fill)).unwrap();
                shadow.insert(lba, fill);
            } else {
                system.read(lba).unwrap();
            }
        }
        system.crash_and_recover().unwrap();
        // After recovery every write must still read back correctly: the
        // newest version came from write-dirty (durable), or was cleaned
        // and written to disk, or was refetched — never stale.
        for (&lba, &fill) in &shadow {
            let (data, _) = system.read(lba).unwrap();
            assert_eq!(data, page(fill), "lost write at {lba} after crash {round}");
        }
    }
}

#[test]
fn write_through_crash_is_instantly_usable() {
    let mut system = stack().wt(false, ConsistencyMode::CleanAndDirty);
    churn_and_verify(&mut system, 3_000, 0.5, 5);
    let hits_before = system.counters().read_hits;
    system.crash_and_recover().unwrap();
    // The cache still hits after recovery (clean data was persisted).
    let mut rng = SimRng::seed_from(5);
    let mut hits = 0;
    for _ in 0..500 {
        let lba = rng.gen_range(24) * 64 + rng.gen_range(64);
        if system.read(lba).is_ok() {
            hits += 1;
        }
    }
    assert_eq!(hits, 500, "reads served (cache or disk)");
    assert!(
        system.counters().read_hits > hits_before,
        "some hits came from recovered cache"
    );
}

#[test]
fn scattered_dirty_overload_degrades_gracefully() {
    // Pathological anti-cache workload: uniform random dirty writes over a
    // span far larger than the cache, never clustered. The system must
    // keep serving (cleaning as needed) and never corrupt data or panic.
    let mut system = stack().wb(false, ConsistencyMode::CleanAndDirty);
    let mut rng = SimRng::seed_from(13);
    let mut shadow: HashMap<u64, u8> = HashMap::new();
    for i in 0..8_000u64 {
        let lba = rng.gen_range(VOLUME_BLOCKS);
        let fill = (i % 251) as u8;
        system.write(lba, &page(fill)).unwrap();
        shadow.insert(lba, fill);
    }
    assert!(system.counters().writebacks > 0);
    for (&lba, &fill) in shadow.iter().take(1_000) {
        let (data, _) = system.read(lba).unwrap();
        assert_eq!(data, page(fill), "lba {lba}");
    }
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
        let fill = page((i % 251) as u8);
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
