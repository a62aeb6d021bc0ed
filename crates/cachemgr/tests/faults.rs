//! Graceful degradation under injected media faults.
//!
//! Every manager must convert an unrecoverable cache read into a
//! disk-served miss with the faulted mapping invalidated — never a panic,
//! never another block's data, never a wedged cleaner. Every read is
//! checked against the guarantee model of `flashtier_testkit`, whose
//! payloads name their `(lba, version)`: the right block, uncorrupted, and
//! a version that was written — exactly the newest, except that write-back
//! may lose a dirty copy to the media and serve the last destaged version
//! (or zeros) instead, once per drop the manager reports.

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode};
use flashsim::DataMode;
use flashtier_core::{Ssc, SscConfig};
use flashtier_testkit::{aggressive_faults, test_disk, Driven};
use ftl::{HybridFtl, SsdConfig};

const SPAN: u64 = 48;
const OPS: u64 = 3_000;

/// Mixed read/write churn with an aggressive fault plan; checks every
/// read against the model (reads must degrade, not fail) and that
/// fallbacks actually happened.
fn churn<S: CacheSystem>(system: S) -> Driven<S> {
    let mut run = Driven::new(system);
    let mut rng = 0xC0FFEE_u64;
    run.churn(OPS, || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((rng >> 33) % SPAN, !(rng >> 13).is_multiple_of(3))
    });
    let c = run.system.counters();
    assert!(
        c.read_fault_fallbacks > 0,
        "plan was aggressive enough that fallbacks must have fired"
    );
    run
}

/// Native write-back with durable metadata over a faulty SSD.
fn native() -> NativeCache<HybridFtl> {
    let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
    let (mode, consistency) = (NativeMode::WriteBack, NativeConsistency::Durable);
    let mut s = NativeCache::new(ssd, test_disk(), mode, consistency);
    s.set_fault_plan(aggressive_faults());
    s
}

#[test]
fn flashtier_wt_serves_faulted_reads_from_disk() {
    let mut s = FlashTierWt::new(Ssc::new(SscConfig::small_test()), test_disk());
    s.set_fault_plan(aggressive_faults());
    // Write-through: the disk always holds the newest version.
    let run = churn(s);
    assert_eq!(
        run.system.counters().lost_dirty_reads,
        0,
        "write-through has no dirty data to lose"
    );
}

#[test]
fn flashtier_wb_degrades_to_last_destaged_version() {
    let mut s = FlashTierWb::new(Ssc::new(SscConfig::small_test()), test_disk());
    s.set_fault_plan(aggressive_faults());
    churn(s);
}

#[test]
fn native_wb_invalidates_faulted_slots() {
    let run = churn(native());
    assert!(
        run.system.fault_counters().total() > 0,
        "faults were injected at the flash layer"
    );
}

#[test]
fn native_wb_recovers_after_faulted_run() {
    let mut run = churn(native());
    // Metadata persisted through the faulted run must still recover to a
    // consistent cache: every read after recovery obeys the same model
    // (clean contents are legally lost at recovery; a resurrected stale
    // mapping shows as another block's data or a corrupted payload).
    run.context = "after recovery".into();
    run.power_cycle();
    run.sweep(0..SPAN);
}
