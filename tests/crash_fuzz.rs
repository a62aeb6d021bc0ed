//! Crash-point recovery fuzzer.
//!
//! Scripted power failures fire *inside* the SSC's consistency machinery —
//! mid-group-commit, mid-checkpoint (clean and torn), mid-merge and
//! mid-destage — while a seeded workload runs through a full cache system.
//! After every crash the system recovers, each cache device passes its
//! structural check (`Ssc::check`, `HybridFtl::check`: the maps against
//! the flash, every block pooled, owned once or retired), and every block
//! is checked against the guarantee model of `flashtier_testkit`:
//!
//! * no acknowledged write is ever lost (write-back: dirty data is durable;
//!   write-through: the disk is authoritative),
//! * the one in-flight operation may land old or new, never corrupt and
//!   never some third version,
//! * recovery leaves the system fully operational.
//!
//! The native write-back cache has no SSC crash sites; it is fuzzed by
//! crashing at random operation boundaries instead, on one shard and on
//! two, which its per-change durable metadata must survive exactly. The
//! last campaigns crash while media faults fire, on one shard and on two.

use flashtier::cachemgr::{FlashTierWb, FlashTierWt, MgrCounters, NativeCache};
use flashtier::cachemgr::{NativeConsistency, NativeMode, ShardSet};
use flashtier::disksim::Disk;
use flashtier::flashsim::{DataMode, FaultPlan};
use flashtier::ftl::{HybridFtl, SsdConfig};
use flashtier::ssc::{CrashSite, ShardRouter, Ssc, SscConfig};
use flashtier_testkit::{aggressive_faults, fuzz_scale, fuzz_sites, test_disk};
use flashtier_testkit::{Crash, Driven, PowerCycle, Shards};

/// Write-through never issues `clean`, so the Clean site is unreachable.
const WT_SITES: &[CrashSite] = &[
    CrashSite::GroupCommit,
    CrashSite::Checkpoint,
    CrashSite::CheckpointTorn,
    CrashSite::Merge,
];

const WB_SITES: &[CrashSite] = &[
    CrashSite::GroupCommit,
    CrashSite::Checkpoint,
    CrashSite::CheckpointTorn,
    CrashSite::Merge,
    CrashSite::Clean,
];

/// `seeds` (times `FLASHTIER_FUZZ_SCALE`) campaigns per site over `n`
/// hash-partitioned stacks of `manager`; with two, the crash is armed in
/// one shard only (alternating with the armed trigger count).
fn fuzz<S: PowerCycle>(
    n: usize,
    faults: Option<FaultPlan>,
    manager: fn(Ssc, Disk) -> S,
    sites: &[CrashSite],
    seeds: u64,
) -> MgrCounters {
    let mut config = SscConfig::small_test();
    // Checkpoint often enough that the Checkpoint/CheckpointTorn sites are
    // reachable within one campaign.
    config.checkpoint_write_interval = 30;
    let build = || Shards::new(&config, n, faults, test_disk, manager);
    fuzz_sites(build, sites, seeds * fuzz_scale())
}

#[test]
fn flashtier_wt_survives_crashes_at_every_site() {
    fuzz(1, None, FlashTierWt::new, WT_SITES, 15);
}

#[test]
fn flashtier_wb_survives_crashes_at_every_site() {
    fuzz(1, None, FlashTierWb::new, WB_SITES, 12);
}

#[test]
fn native_wb_survives_crashes_at_operation_boundaries() {
    let build = || {
        let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
        let (mode, consistency) = (NativeMode::WriteBack, NativeConsistency::Durable);
        NativeCache::new(ssd, test_disk(), mode, consistency)
    };
    let ppb = SsdConfig::small_test().flash.geometry.pages_per_block();
    for seed in 0..60 * fuzz_scale() {
        Driven::new(build()).crash_campaign(seed, Crash::Boundary);
        let two = ShardSet::from_parts(vec![build(), build()], ShardRouter::new(2, ppb));
        Driven::new(Shards(two)).crash_campaign(seed, Crash::Boundary);
    }
}

/// Two hash-partitioned write-through stacks, the crash armed inside a
/// *single* shard's SSC: after the power failure every stack must roll
/// forward and the full-span sweep must hold — a crash in one shard can
/// never cost another shard's acknowledged writes.
#[test]
fn sharded_flashtier_wt_survives_single_shard_crashes() {
    fuzz(2, None, FlashTierWt::new, WT_SITES, 15);
}

/// Same single-shard crash campaigns for the write-back manager, where
/// each stack additionally rebuilds its own dirty table with `exists`
/// after every recovery.
#[test]
fn sharded_flashtier_wb_survives_single_shard_crashes() {
    fuzz(2, None, FlashTierWb::new, WB_SITES, 12);
}

/// Crash sites × the fault suite's media faults × 1 and 2 shards,
/// write-through: the disk is authoritative, so a faulted cache copy
/// changes nothing a read may return and every acked write still reads
/// back exactly.
#[test]
fn flashtier_wt_survives_crashes_under_media_faults() {
    for n in [1, 2] {
        let faults = Some(aggressive_faults());
        let c = fuzz(n, faults, FlashTierWt::new, WT_SITES, 6);
        assert!(c.read_fault_fallbacks > 0, "{n} shards: no read fault");
    }
}

/// The same for write-back, where a faulted dirty copy is legally lost:
/// each drop the manager reports (a faulted read of a dirty block, or a
/// destage that could not read one) excuses one block acked before it
/// reading as an older version or zeros, never another block's data, a
/// corrupted payload or a version never written. Any other stale read —
/// an acked dirty write lost at the crash — fails, unless a reported drop
/// whose block was overwritten before being read is left to excuse it.
#[test]
fn flashtier_wb_survives_crashes_under_media_faults() {
    for n in [1, 2] {
        let faults = Some(aggressive_faults());
        let c = fuzz(n, faults, FlashTierWb::new, WB_SITES, 6);
        assert!(c.lost_dirty_reads > 0, "{n} shards: no dirty copy lost");
    }
}
