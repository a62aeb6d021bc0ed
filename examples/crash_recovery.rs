//! Crash-recovery walkthrough: why a durable cache matters.
//!
//! §2: "filling a 100 GB cache from a 500 IOPS disk system takes over 14
//! hours. Thus, caching data persistently across system restarts can
//! greatly improve cache effectiveness." This example measures exactly
//! that trade on a scaled-down system:
//!
//! 1. warm a write-back cache,
//! 2. crash it,
//! 3. recover (milliseconds), verify every dirty block survived,
//! 4. compare against a cache that must be reset and re-warmed from disk.
//!
//! Run with: `cargo run --release --example crash_recovery`

use flashtier::cachemgr::{CacheSystem, StackSpec};
use flashtier::disksim::DiskConfig;
use flashtier::flashsim::{DataMode, FlashConfig};
use flashtier::simkit::SimRng;
use flashtier::ssc::ConsistencyMode;

const VOLUME_BLOCKS: u64 = (1 << 30) / 4096;
const CACHE_BYTES: u64 = 64 << 20;
const WARM_OPS: u64 = 40_000;

fn main() {
    let mut system = StackSpec::new(FlashConfig::with_capacity_bytes(CACHE_BYTES), VOLUME_BLOCKS)
        .with_data_mode(DataMode::Store)
        .wb(false, ConsistencyMode::CleanAndDirty);

    // Warm the cache: mixed reads and writes over hot extents sized well
    // within the cache (a cache only works when the working set fits).
    let mut rng = SimRng::seed_from(11);
    let mut dirty_written: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..WARM_OPS {
        let lba = rng.gen_range(160) * 64 + rng.gen_range(64);
        if rng.gen_bool(0.5) {
            let page = vec![(i % 251) as u8; 4096];
            system.write(lba, &page).unwrap();
            dirty_written.retain(|(l, _)| *l != lba);
            dirty_written.push((lba, page));
        } else {
            system.read(lba).unwrap();
        }
    }
    let cached_before = system.ssc().cached_pages();
    let dirty_before = system.dirty_blocks();
    println!("warmed: {cached_before} pages cached, {dirty_before} dirty");

    // Crash and recover.
    let recovery_time = system.crash_and_recover().unwrap();
    println!("power failure! recovered in {recovery_time} (simulated device time)");
    println!(
        "dirty table rebuilt from exists(): {} blocks",
        system.dirty_blocks()
    );
    assert_eq!(system.dirty_blocks(), dirty_before);

    // Every dirty block must read back with its newest contents.
    for (lba, page) in dirty_written.iter().rev().take(500) {
        let (data, _) = system.read(*lba).unwrap();
        assert_eq!(&data, page, "dirty block {lba} corrupted by the crash");
    }
    println!("all dirty data verified intact after recovery");

    // What a non-durable cache would pay instead: refetch everything.
    let disk_cfg = DiskConfig::paper_default();
    let refill_time = disk_cfg.random_cost() * cached_before;
    println!(
        "a cache without durability would re-warm {cached_before} blocks from disk: ~{refill_time}"
    );
    println!(
        "durable recovery is {:.0}x faster",
        refill_time.as_secs_f64() / recovery_time.as_secs_f64().max(1e-9)
    );
}
