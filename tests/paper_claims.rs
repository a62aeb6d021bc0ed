//! The paper's three headline claims, verified end to end at the default
//! experiment scale. These replay full workloads: about a quarter of a
//! minute for the four tests in a debug build, inside the tier-1 run.
//!
//! (The fast per-figure smoke checks live in `tests/experiments_smoke.rs`.)

use flashtier_bench::experiments::{fig3_performance, fig5_recovery, gc_experiment, table4_memory};

/// "FlashTier reduces total memory usage by more than 60% compared to
/// existing systems using an SSD cache."
#[test]
fn claim_memory_reduction_over_60_percent() {
    let rows = table4_memory(1.0);
    for r in &rows {
        let native_total = r.device_full[0] + r.host_full[0];
        let ssc_total = r.device_full[1] + r.host_full[1];
        let ssc_r_total = r.device_full[2] + r.host_full[1];
        let ssc_saving = 1.0 - ssc_total as f64 / native_total as f64;
        let ssc_r_saving = 1.0 - ssc_r_total as f64 / native_total as f64;
        assert!(
            ssc_saving > 0.60,
            "{}: SSC saves only {:.0}%",
            r.workload,
            ssc_saving * 100.0
        );
        assert!(
            ssc_r_saving > 0.55,
            "{}: SSC-R saves only {:.0}%",
            r.workload,
            ssc_r_saving * 100.0
        );
    }
}

/// "FlashTier's free space management improves performance by up to 167%"
/// (Figure 3: SSC-R write-back vs native write-back on write-intensive
/// workloads) and performs comparably on read-intensive ones.
#[test]
fn claim_performance_improvement() {
    let rows = fig3_performance(1.0);
    // Write-heavy: homes and mail must show a substantial SSC-R WB win.
    let homes = &rows[0];
    assert!(
        homes.ssc_r_wb / homes.native_wb > 1.6,
        "homes SSC-R WB should win by >60%: {:.0}%",
        100.0 * homes.ssc_r_wb / homes.native_wb
    );
    let mail = &rows[1];
    assert!(
        mail.ssc_r_wb / mail.native_wb > 1.3,
        "mail SSC-R WB should win by >30%: {:.0}%",
        100.0 * mail.ssc_r_wb / mail.native_wb
    );
    // Read-heavy: within 25% of native either way.
    for r in &rows[2..] {
        for (label, pct) in r.percents() {
            assert!(
                (75.0..=135.0).contains(&pct),
                "{} {label} diverged from native: {pct:.0}%",
                r.workload
            );
        }
    }
}

/// "and requires up to 57% fewer erase cycles than an SSD cache" (Table 5,
/// write-intensive workloads).
#[test]
fn claim_erase_reduction() {
    let rows = gc_experiment(1.0);
    let homes = &rows[0];
    let reduction = 1.0 - homes.devices[2].erases as f64 / homes.devices[0].erases as f64;
    assert!(
        reduction > 0.35,
        "homes SSC-R should erase >35% less: {:.0}%",
        reduction * 100.0
    );
    // SSC sits between SSD and SSC-R on write-heavy workloads.
    assert!(homes.devices[1].erases < homes.devices[0].erases);
    assert!(homes.devices[2].erases < homes.devices[1].erases);
}

/// "FlashTier can recover a 100 GB cache in less than 2.4 seconds, much
/// faster than existing systems" — checked through the full-scale model
/// (the same arithmetic the paper's own estimate rests on).
#[test]
fn claim_fast_recovery() {
    let rows = fig5_recovery(1.0);
    let proj = rows.iter().find(|r| r.workload == "proj").unwrap();
    assert!(
        proj.cache_bytes_full > 100 << 30,
        "proj cache is 100 GB-class"
    );
    assert!(
        proj.full_scale[0].as_secs_f64() < 3.0,
        "100 GB recovery should be seconds: {}",
        proj.full_scale[0]
    );
    assert!(proj.full_scale[0].as_micros() * 5 < proj.full_scale[1].as_micros());
    assert!(proj.full_scale[1] < proj.full_scale[2]);
}
