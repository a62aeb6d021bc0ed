//! A write-heavy scenario: an OLTP-style database volume behind a
//! write-back flash cache.
//!
//! Random page updates hammer a hot working set; the write-back manager
//! absorbs them in the SSC with `write-dirty`, tracks them in its
//! dirty-block table, and destages contiguous runs to disk in the
//! background path — §3.1's "performs better with write-heavy workloads and
//! local disks" mode. Compares against write-through on the same device to
//! show why write-back exists.
//!
//! Run with: `cargo run --release --example database_writeback`

use flashtier::cachemgr::{CacheSystem, StackSpec};
use flashtier::flashsim::FlashConfig;
use flashtier::simkit::{Duration, SimRng};
use flashtier::ssc::ConsistencyMode;

/// 1 GB database volume.
const VOLUME_BLOCKS: u64 = (1 << 30) / 4096;
/// 96 MB cache.
const CACHE_BYTES: u64 = 96 << 20;
const TXNS: u64 = 60_000;

/// 80% updates / 20% point reads over 64-block-aligned hot extents
/// (B-tree leaves of the hot tables).
fn transactions() -> Vec<(u64, bool)> {
    let mut rng = SimRng::seed_from(77);
    let hot_extents = 128u64;
    (0..TXNS)
        .map(|_| {
            let extent = rng.gen_range(hot_extents);
            let lba = extent * 64 + rng.gen_range(64);
            (lba, rng.gen_bool(0.8))
        })
        .collect()
}

fn run(system: &mut dyn CacheSystem, txns: &[(u64, bool)]) -> Duration {
    let page = vec![7u8; 4096];
    let mut total = Duration::ZERO;
    for &(lba, is_write) in txns {
        total += if is_write {
            system.write(lba, &page).unwrap()
        } else {
            system.read(lba).unwrap().1
        };
    }
    total
}

fn main() {
    let txns = transactions();
    let stack = StackSpec::new(FlashConfig::with_capacity_bytes(CACHE_BYTES), VOLUME_BLOCKS);

    let mut wt = stack.wt(false, ConsistencyMode::CleanAndDirty);
    let wt_time = run(&mut wt, &txns);

    let mut wb = stack.wb(false, ConsistencyMode::CleanAndDirty);
    let wb_time = run(&mut wb, &txns);

    let iops = |t: Duration| TXNS as f64 / t.as_secs_f64();
    println!("database volume, {TXNS} transactions (80% updates):");
    println!(
        "  write-through: {:8.0} IOPS (every update waits for the disk)",
        iops(wt_time)
    );
    println!(
        "  write-back:    {:8.0} IOPS (updates absorbed by the SSC)",
        iops(wb_time)
    );
    println!("  speedup:       {:.1}x", iops(wb_time) / iops(wt_time));
    println!(
        "  write-back destaged {} blocks to disk in {} contiguous-friendly writes",
        wb.counters().writebacks,
        wb.disk().counters().writes
    );
    println!(
        "  dirty blocks still cached: {} (threshold {})",
        wb.dirty_blocks(),
        wb.dirty_limit()
    );
    println!(
        "  host metadata: {} bytes for {} dirty blocks (14 B each)",
        wb.host_memory().modeled_bytes,
        wb.host_memory().entries
    );
    assert!(
        wb_time < wt_time,
        "write-back must beat write-through on this workload"
    );
}
