//! Graceful degradation under injected media faults.
//!
//! Every manager must convert an unrecoverable cache read into a
//! disk-served miss with the faulted mapping invalidated — never a panic,
//! never another block's data, never a wedged cleaner. The oracle encodes
//! `(lba, version)` into every written block, so any read can be checked
//! for identity (right block) and freshness (no version newer than what
//! was written, and for write-through, exactly the newest).

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FaultPlan};
use flashtier_core::{Ssc, SscConfig};
use ftl::{HybridFtl, SsdConfig};
use std::collections::HashMap;

const BLOCK: usize = 512;
const SPAN: u64 = 48;
const OPS: u64 = 3_000;

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x000F_A117,
        read_transient_ppm: 10_000,
        read_permanent_ppm: 15_000,
        read_corrupt_ppm: 15_000,
        program_fail_ppm: 5_000,
        erase_fail_ppm: 1_000,
    }
}

fn encode(lba: u64, version: u64) -> Vec<u8> {
    let mut data = vec![(lba as u8) ^ (version as u8); BLOCK];
    data[0..8].copy_from_slice(&lba.to_le_bytes());
    data[8..16].copy_from_slice(&version.to_le_bytes());
    data
}

/// Checks one read result against the shadow model. `exact` demands the
/// newest version (write-through: the disk is always current); otherwise
/// any version up to the newest is acceptable (write-back may lose a dirty
/// copy to the media and legally serve the last destaged version — or
/// zeros, when the block was lost before its first destage).
fn check_read(lba: u64, data: &[u8], newest: Option<u64>, exact: bool) {
    let Some(newest) = newest else {
        assert!(
            data.iter().all(|&b| b == 0),
            "never-written lba {lba} must read zeros"
        );
        return;
    };
    if !exact && data.iter().all(|&b| b == 0) {
        return;
    }
    let got_lba = u64::from_le_bytes(data[0..8].try_into().unwrap());
    let got_ver = u64::from_le_bytes(data[8..16].try_into().unwrap());
    assert_eq!(got_lba, lba, "read returned another block's data");
    assert!(
        got_ver <= newest,
        "lba {lba}: version {got_ver} from the future (newest {newest})"
    );
    if exact {
        assert_eq!(got_ver, newest, "write-through must never serve stale data");
    }
    assert_eq!(
        data,
        encode(got_lba, got_ver).as_slice(),
        "payload corrupted past the CRC layer"
    );
}

/// Mixed read/write churn with an aggressive fault plan; asserts the
/// oracle on every read and that fallbacks actually happened.
fn churn<S: CacheSystem>(system: &mut S, exact_reads: bool) {
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut rng = 0xC0FFEE_u64;
    for i in 0..OPS {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lba = (rng >> 33) % SPAN;
        if (rng >> 13).is_multiple_of(3) {
            let (data, _) = system.read(lba).expect("reads must degrade, not fail");
            check_read(lba, &data, shadow.get(&lba).copied(), exact_reads);
        } else {
            system.write(lba, &encode(lba, i)).expect("write failed");
            shadow.insert(lba, i);
        }
    }
    let c = system.counters();
    assert!(
        c.read_fault_fallbacks > 0,
        "plan was aggressive enough that fallbacks must have fired"
    );
}

fn disk() -> Disk {
    Disk::new(DiskConfig::small_test(), DiskDataMode::Store)
}

#[test]
fn flashtier_wt_serves_faulted_reads_from_disk() {
    let mut s = FlashTierWt::new(Ssc::new(SscConfig::small_test()), disk());
    s.set_fault_plan(faulty_plan());
    // Write-through: the disk always holds the newest version.
    churn(&mut s, true);
    assert_eq!(
        s.counters().lost_dirty_reads,
        0,
        "write-through has no dirty data to lose"
    );
}

#[test]
fn flashtier_wb_degrades_to_last_destaged_version() {
    let mut s = FlashTierWb::new(Ssc::new(SscConfig::small_test()), disk());
    s.set_fault_plan(faulty_plan());
    churn(&mut s, false);
}

#[test]
fn native_wb_invalidates_faulted_slots() {
    let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
    let mut s = NativeCache::new(
        ssd,
        disk(),
        NativeMode::WriteBack,
        NativeConsistency::Durable,
    );
    s.set_fault_plan(faulty_plan());
    churn(&mut s, false);
    assert!(
        s.fault_counters().total() > 0,
        "faults were injected at the flash layer"
    );
}

#[test]
fn native_wb_recovers_after_faulted_run() {
    let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
    let mut s = NativeCache::new(
        ssd,
        disk(),
        NativeMode::WriteBack,
        NativeConsistency::Durable,
    );
    s.set_fault_plan(faulty_plan());
    churn(&mut s, false);
    // Metadata persisted through the faulted run must still recover to a
    // consistent cache: every read after recovery obeys the same oracle.
    s.crash_and_recover().unwrap();
    for lba in 0..SPAN {
        let (data, _) = s.read(lba).expect("post-recovery reads must succeed");
        if data.iter().all(|&b| b == 0) {
            continue; // clean contents are legally lost at recovery
        }
        let got_lba = u64::from_le_bytes(data[0..8].try_into().unwrap());
        assert_eq!(got_lba, lba, "recovery resurrected a stale mapping");
    }
}
