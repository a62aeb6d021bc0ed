//! Crash-point recovery fuzzer.
//!
//! Scripted power failures fire *inside* the SSC's consistency machinery —
//! mid-group-commit, mid-checkpoint (clean and torn), mid-merge and
//! mid-destage — while a seeded workload runs through a full cache system.
//! After every crash the system recovers and a shadow model checks the
//! paper's guarantees:
//!
//! * no acknowledged write is ever lost (write-back: dirty data is durable;
//!   write-through: the disk is authoritative),
//! * the one in-flight operation may land old or new, never corrupt and
//!   never some third version,
//! * recovery leaves the system fully operational.
//!
//! The native write-back cache has no SSC crash sites; it is fuzzed by
//! crashing at random operation boundaries instead, which its per-change
//! durable metadata must survive exactly.

use flashtier::cachemgr::{
    CacheSystem, CmError, FlashTierWb, FlashTierWt, MgrCounters, NativeCache, NativeConsistency,
    NativeMode, PageBuf, ShardSet,
};
use flashtier::disksim::{Disk, DiskConfig, DiskDataMode};
use flashtier::flashsim::DataMode;
use flashtier::ftl::{HybridFtl, SsdConfig};
use flashtier::simkit::Duration;
use flashtier::sparsemap::MapMemory;
use flashtier::ssc::{shard_config, CrashSite, ShardRouter, Ssc, SscConfig, SscError};
use std::collections::HashMap;

const BLOCK: usize = 512;
const SPAN: u64 = 48;
const WARM_OPS: u64 = 30;
const FUZZ_OPS: u64 = 600;
const POST_OPS: u64 = 60;

/// Campaign-count multiplier from `FLASHTIER_FUZZ_SCALE` (default 1).
/// The scheduled deep-CI job sets it to 3 to run longer campaigns than
/// the per-PR gate can afford; any positive integer works locally.
fn fuzz_scale() -> u64 {
    std::env::var("FLASHTIER_FUZZ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn encode(lba: u64, version: u64) -> Vec<u8> {
    let mut data = vec![(lba as u8) ^ (version as u8); BLOCK];
    data[0..8].copy_from_slice(&lba.to_le_bytes());
    data[8..16].copy_from_slice(&version.to_le_bytes());
    data
}

fn decode(lba: u64, data: &[u8]) -> Option<u64> {
    if data.iter().all(|&b| b == 0) {
        return None;
    }
    let got_lba = u64::from_le_bytes(data[0..8].try_into().unwrap());
    let got_ver = u64::from_le_bytes(data[8..16].try_into().unwrap());
    assert_eq!(got_lba, lba, "read returned another block's data");
    assert_eq!(
        data,
        encode(got_lba, got_ver).as_slice(),
        "payload corrupted"
    );
    Some(got_ver)
}

fn disk() -> Disk {
    Disk::new(DiskConfig::small_test(), DiskDataMode::Store)
}

/// `crash_and_recover` is inherent on each manager, not on [`CacheSystem`].
trait CrashRecover: CacheSystem {
    fn power_cycle(&mut self) -> Result<(), CmError>;
}

impl CrashRecover for FlashTierWt {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        self.crash_and_recover().map(|_| ())
    }
}

impl CrashRecover for FlashTierWb {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        self.crash_and_recover().map(|_| ())
    }
}

fn config() -> SscConfig {
    let mut config = SscConfig::small_test();
    // Checkpoint often enough that the Checkpoint/CheckpointTorn sites are
    // reachable within one campaign.
    config.checkpoint_write_interval = 30;
    config
}

/// Reads `lba` and asserts it holds exactly `shadow`'s version, except for
/// the one in-flight `(lba, new_version)` pair, which may legally be old or
/// new.
fn check_exact<S: CacheSystem>(
    system: &mut S,
    shadow: &HashMap<u64, u64>,
    inflight: Option<(u64, u64)>,
    lba: u64,
    context: &str,
) {
    let (data, _) = system
        .read(lba)
        .unwrap_or_else(|e| panic!("{context}: read({lba}) failed after recovery: {e}"));
    let got = decode(lba, &data);
    let acked = shadow.get(&lba).copied();
    if let Some((in_lba, new_version)) = inflight {
        if in_lba == lba {
            assert!(
                got == acked || got == Some(new_version),
                "{context}: in-flight lba {lba} read {got:?}, \
                 want acked {acked:?} or in-flight {new_version}"
            );
            return;
        }
    }
    assert_eq!(
        got, acked,
        "{context}: lba {lba} lost or served a stale acknowledged write"
    );
}

/// One fuzz campaign against an SSC-backed system: warm up, arm `site`
/// (via the `arm` hook, which may target a specific shard), run until the
/// power failure fires (or the op budget runs out), recover, then sweep
/// the whole span against the shadow model and keep operating. Returns
/// whether the armed crash actually fired.
fn ssc_campaign<S, A, Dis>(
    mut system: S,
    mut arm: A,
    mut disarm: Dis,
    seed: u64,
    site: CrashSite,
) -> bool
where
    S: CrashRecover,
    A: FnMut(&mut S, CrashSite, u64),
    Dis: FnMut(&mut S),
{
    let mut rng = seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(site as u64)
        | 1;
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut version = 0u64;
    let mut inflight: Option<(u64, u64)> = None;

    let op = |system: &mut S,
              shadow: &mut HashMap<u64, u64>,
              rng: &mut u64,
              version: &mut u64|
     -> Result<(), (u64, Option<u64>)> {
        let lba = lcg(rng) % SPAN;
        if lcg(rng).is_multiple_of(3) {
            match system.read(lba) {
                Ok((data, _)) => {
                    let got = decode(lba, &data);
                    assert_eq!(
                        got,
                        shadow.get(&lba).copied(),
                        "seed {seed} {site:?}: stale read before any crash"
                    );
                    Ok(())
                }
                // A read modifies no logical state: recovery must still
                // serve the acknowledged version.
                Err(CmError::Ssc(SscError::PowerLoss)) => Err((lba, None)),
                Err(e) => panic!("seed {seed} {site:?}: read({lba}): {e}"),
            }
        } else {
            *version += 1;
            match system.write(lba, &encode(lba, *version)) {
                Ok(_) => {
                    shadow.insert(lba, *version);
                    Ok(())
                }
                Err(CmError::Ssc(SscError::PowerLoss)) => Err((lba, Some(*version))),
                Err(e) => panic!("seed {seed} {site:?}: write({lba}): {e}"),
            }
        }
    };

    for _ in 0..WARM_OPS {
        op(&mut system, &mut shadow, &mut rng, &mut version)
            .expect("no crash can fire before arming");
    }
    let after = lcg(&mut rng) % 3;
    arm(&mut system, site, after);
    let mut fired = false;
    for _ in 0..FUZZ_OPS {
        if let Err((lba, wrote)) = op(&mut system, &mut shadow, &mut rng, &mut version) {
            inflight = wrote.map(|v| (lba, v));
            fired = true;
            break;
        }
    }
    if !fired {
        disarm(&mut system);
    }

    system
        .power_cycle()
        .unwrap_or_else(|e| panic!("seed {seed} {site:?}: recovery failed: {e}"));
    let context = format!("seed {seed} {site:?} (fired: {fired})");
    for lba in 0..SPAN {
        check_exact(&mut system, &shadow, inflight, lba, &context);
    }

    // Fully operational after recovery: the workload continues and stays
    // exact (the in-flight block is overwritten or re-read consistently).
    shadow.retain(|&lba, _| inflight.map(|(l, _)| l != lba).unwrap_or(true));
    if let Some((lba, _)) = inflight {
        let (data, _) = system.read(lba).expect("in-flight block readable");
        if let Some(v) = decode(lba, &data) {
            shadow.insert(lba, v);
        }
        version += 1;
        system.write(lba, &encode(lba, version)).unwrap();
        shadow.insert(lba, version);
    }
    for _ in 0..POST_OPS {
        op(&mut system, &mut shadow, &mut rng, &mut version)
            .expect("no crash is armed after recovery");
    }
    fired
}

/// Runs `seeds`-many campaigns per site and demands every site actually
/// fired its power failure in most of them.
fn fuzz_ssc_system<S, A, Dis, B>(mut build: B, arm: A, disarm: Dis, sites: &[CrashSite], seeds: u64)
where
    S: CrashRecover,
    B: FnMut() -> S,
    A: FnMut(&mut S, CrashSite, u64) + Copy,
    Dis: FnMut(&mut S) + Copy,
{
    for &site in sites {
        let fired = (0..seeds)
            .filter(|&seed| ssc_campaign(build(), arm, disarm, seed, site))
            .count();
        assert!(
            fired * 2 > seeds as usize,
            "{site:?}: power failure fired in only {fired}/{seeds} campaigns — \
             the workload no longer reaches this site"
        );
    }
}

#[test]
fn flashtier_wt_survives_crashes_at_every_site() {
    // Write-through never issues `clean`, so the Clean site is unreachable.
    let sites = [
        CrashSite::GroupCommit,
        CrashSite::Checkpoint,
        CrashSite::CheckpointTorn,
        CrashSite::Merge,
    ];
    fuzz_ssc_system(
        || FlashTierWt::new(Ssc::new(config()), disk()),
        |s: &mut FlashTierWt, site, after| s.ssc_mut().arm_crash(site, after),
        |s: &mut FlashTierWt| s.ssc_mut().disarm_crash(),
        &sites,
        15 * fuzz_scale(),
    );
}

#[test]
fn flashtier_wb_survives_crashes_at_every_site() {
    let sites = [
        CrashSite::GroupCommit,
        CrashSite::Checkpoint,
        CrashSite::CheckpointTorn,
        CrashSite::Merge,
        CrashSite::Clean,
    ];
    fuzz_ssc_system(
        || FlashTierWb::new(Ssc::new(config()), disk()),
        |s: &mut FlashTierWb, site, after| s.ssc_mut().arm_crash(site, after),
        |s: &mut FlashTierWb| s.ssc_mut().disarm_crash(),
        &sites,
        12 * fuzz_scale(),
    );
}

#[test]
fn native_wb_survives_crashes_at_operation_boundaries() {
    for seed in 0..60u64 * fuzz_scale() {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
        let mut system = NativeCache::new(
            ssd,
            disk(),
            NativeMode::WriteBack,
            NativeConsistency::Durable,
        );
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        let crash_at = WARM_OPS + lcg(&mut rng) % 300;
        let mut version = 0u64;
        for i in 0..(crash_at + POST_OPS) {
            if i == crash_at {
                system
                    .crash_and_recover()
                    .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
                for lba in 0..SPAN {
                    check_exact(&mut system, &shadow, None, lba, &format!("seed {seed}"));
                }
            }
            let lba = lcg(&mut rng) % SPAN;
            if lcg(&mut rng).is_multiple_of(3) {
                let (data, _) = system.read(lba).unwrap();
                assert_eq!(
                    decode(lba, &data),
                    shadow.get(&lba).copied(),
                    "seed {seed} op {i}: lba {lba}"
                );
            } else {
                version += 1;
                system.write(lba, &encode(lba, version)).unwrap();
                shadow.insert(lba, version);
            }
        }
    }
}

/// Two complete manager stacks behind one [`CacheSystem`] face, routed by
/// the same [`ShardRouter`] the server and `perf_replay --shards` use.
struct TwoShards<S>(ShardSet<S>);

impl<S: CacheSystem> TwoShards<S> {
    fn new(build: impl Fn(Ssc, Disk) -> S) -> Self {
        let per_shard = shard_config(&config(), 2);
        let ppb = per_shard.flash.geometry.pages_per_block();
        let shards = (0..2).map(|_| build(Ssc::new(per_shard), disk()));
        TwoShards(ShardSet::from_parts(
            shards.collect(),
            ShardRouter::new(2, ppb),
        ))
    }

    fn sum(&self, memory: impl Fn(&S) -> MapMemory) -> MapMemory {
        let mut out = MapMemory::default();
        for m in self.0.shards().iter().map(memory) {
            out.entries += m.entries;
            out.modeled_bytes += m.modeled_bytes;
            out.heap_bytes += m.heap_bytes;
        }
        out
    }
}

impl<S: CacheSystem> CacheSystem for TwoShards<S> {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration, CmError> {
        self.0.route_mut(lba).read_into(lba, buf)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration, CmError> {
        self.0.route_mut(lba).write(lba, data)
    }
    fn counters(&self) -> MgrCounters {
        self.0.counters()
    }
    fn host_memory(&self) -> MapMemory {
        self.sum(S::host_memory)
    }
    fn device_memory(&self) -> MapMemory {
        self.sum(S::device_memory)
    }
    fn block_size(&self) -> usize {
        self.0.shard(0).block_size()
    }
    fn name(&self) -> &'static str {
        self.0.shard(0).name()
    }
}

/// A power failure takes down every stack, armed or not.
impl<S: CrashRecover> CrashRecover for TwoShards<S> {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        (0..2).try_for_each(|i| self.0.shard_mut(i).power_cycle())
    }
}

/// Two hash-partitioned write-through stacks. The crash is armed inside a
/// *single* shard's SSC (the shard alternates with the armed trigger
/// count); after the power failure every stack must roll forward and the
/// full-span shadow sweep must hold — a crash in one shard can never cost
/// another shard's acknowledged writes.
#[test]
fn sharded_flashtier_wt_survives_single_shard_crashes() {
    let sites = [
        CrashSite::GroupCommit,
        CrashSite::Checkpoint,
        CrashSite::CheckpointTorn,
        CrashSite::Merge,
    ];
    fuzz_ssc_system(
        || TwoShards::new(FlashTierWt::new),
        |s: &mut TwoShards<FlashTierWt>, site, after| {
            let ssc = s.0.shard_mut(after as usize % 2).ssc_mut();
            ssc.arm_crash(site, after);
        },
        |s: &mut TwoShards<FlashTierWt>| {
            (0..2).for_each(|i| s.0.shard_mut(i).ssc_mut().disarm_crash())
        },
        &sites,
        15 * fuzz_scale(),
    );
}

/// Same single-shard crash campaigns for the write-back manager, where
/// each stack additionally rebuilds its own dirty table with `exists`
/// after every recovery.
#[test]
fn sharded_flashtier_wb_survives_single_shard_crashes() {
    let sites = [
        CrashSite::GroupCommit,
        CrashSite::Checkpoint,
        CrashSite::CheckpointTorn,
        CrashSite::Merge,
        CrashSite::Clean,
    ];
    fuzz_ssc_system(
        || TwoShards::new(FlashTierWb::new),
        |s: &mut TwoShards<FlashTierWb>, site, after| {
            let ssc = s.0.shard_mut(after as usize % 2).ssc_mut();
            ssc.arm_crash(site, after);
        },
        |s: &mut TwoShards<FlashTierWb>| {
            (0..2).for_each(|i| s.0.shard_mut(i).ssc_mut().disarm_crash())
        },
        &sites,
        12 * fuzz_scale(),
    );
}
