//! Fault-injection regression tests for the FTLs.
//!
//! Satellite coverage: a long write workload against a device with a tiny
//! erase-endurance limit must *complete* — worn-out blocks are retired from
//! the free pool and the device keeps serving from the blocks that remain —
//! rather than surfacing `WornOut` to the host. Injected program failures
//! must likewise be absorbed by re-issuing the write to a fresh page.

use flashsim::{DataMode, FaultPlan, FlashConfig};
use ftl::{BlockDev, HybridFtl, PageFtl, SsdConfig};

fn tiny_endurance_config(cycles: u64) -> SsdConfig {
    SsdConfig {
        flash: FlashConfig::small_test().with_endurance(cycles),
        ..SsdConfig::small_test()
    }
}

/// Churns a handful of LBAs hard enough to wear blocks out, then verifies
/// the run finished without an error and actually retired capacity.
fn churn<D: BlockDev>(dev: &mut D, writes: u64, lbas: u64) {
    let page = vec![0x5A_u8; 512];
    for i in 0..writes {
        dev.write(i % lbas, &page)
            .unwrap_or_else(|e| panic!("write {i} failed: {e}"));
    }
    let retired = dev.ftl_counters().blocks_retired;
    assert!(retired > 0, "expected worn blocks to retire, got {retired}");
    // Retired capacity must still leave the data readable.
    let (got, _) = dev.read(0).unwrap();
    assert_eq!(got, page);
}

#[test]
fn hybrid_survives_wearout_by_retiring_blocks() {
    let mut ssd = HybridFtl::new(tiny_endurance_config(12), DataMode::Store);
    churn(&mut ssd, 1200, 6);
    // Every worn block is out of the pool and counted once.
    ssd.check().unwrap();
}

#[test]
fn pagemap_survives_wearout_by_retiring_blocks() {
    let mut ssd = PageFtl::new(tiny_endurance_config(12), DataMode::Store);
    churn(&mut ssd, 1200, 6);
}

/// Shadow-model workload under injected program failures: every failure is
/// re-issued transparently and read-your-writes still holds.
fn program_fault_workload<D: BlockDev>(dev: &mut D) {
    let mut shadow = std::collections::HashMap::new();
    let mut state = 0x51CC_u64;
    for i in 0..600u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lba = (state >> 33) % 24;
        let fill = (i % 251) as u8;
        dev.write(lba, &vec![fill; 512]).unwrap();
        shadow.insert(lba, fill);
    }
    for (&lba, &fill) in &shadow {
        let (got, _) = dev.read(lba).unwrap();
        assert_eq!(got, vec![fill; 512], "lba {lba}");
    }
    assert!(
        dev.ftl_counters().program_reissues > 0,
        "fault plan should have tripped at least one program failure"
    );
}

#[test]
fn hybrid_reissues_failed_programs() {
    let mut ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
    ssd.set_fault_plan(FaultPlan {
        seed: 0xBEEF,
        program_fail_ppm: 20_000, // 2 %
        ..FaultPlan::default()
    });
    program_fault_workload(&mut ssd);
    ssd.check().unwrap();
}

#[test]
fn pagemap_reissues_failed_programs() {
    let mut ssd = PageFtl::new(SsdConfig::small_test(), DataMode::Store);
    ssd.set_fault_plan(FaultPlan {
        seed: 0xBEEF,
        program_fail_ppm: 20_000,
        ..FaultPlan::default()
    });
    program_fault_workload(&mut ssd);
}
