//! Printers for the paper's tables and figures: each takes the `--scale`
//! multiplier, runs its experiment from [`flashtier_bench::experiments`]
//! and prints the rows in the paper's layout.

use flashsim::{FlashConfig, FlashTiming};
use flashtier_bench::experiments;
use flashtier_bench::tablefmt::{mb, pct};
use simkit::Duration;

use crate::print_table;

/// Bytes as GB with one decimal.
fn gb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1u64 << 30) as f64)
}

/// Table 2: emulation parameters.
pub fn table2_params(_scale: f64) {
    let t = FlashTiming::paper_default();
    let g = FlashConfig::paper_default().geometry;
    let us = |d: Duration| format!("{} us", d.as_micros());
    let rows = [
        ("Page read", us(t.page_read)),
        ("Page write", us(t.page_write)),
        ("Block erase", us(t.block_erase)),
        ("Bus control delay", us(t.bus_control)),
        ("Control delay", us(t.control)),
        ("Flash planes", g.planes().to_string()),
        ("Erase block/plane", g.blocks_per_plane().to_string()),
        ("Pages/erase block", g.pages_per_block().to_string()),
        ("Page size", format!("{} bytes", g.page_size())),
        ("Derived: page read cost", us(t.read_cost())),
        ("Derived: page write cost", us(t.write_cost())),
        ("Derived: erase cost", us(t.erase_cost())),
    ];
    println!("Table 2: emulation parameters (paper values reproduced as defaults)\n");
    print_table(
        &["parameter", "value"],
        rows.into_iter().map(|(k, v)| vec![k.to_string(), v]),
    );
}

/// Table 3: workload characteristics of the synthetic traces.
pub fn table3_workloads(scale: f64) {
    let rows = experiments::table3_workloads(scale);
    println!("Table 3: workload characteristics (synthetic traces calibrated to the paper)");
    println!("Paper (full scale): homes 532GB/1,684,407/17,836,701/95.9%  mail 277GB/15,136,141/20M/88.5%");
    println!(
        "                    usr 530GB/99,450,142/100M/5.9%  proj 816GB/107,509,907/100M/14.2%\n"
    );
    print_table(
        &[
            "workload",
            "range",
            "unique blocks",
            "total ops",
            "% writes",
            "hot-write ratio",
            "scale",
        ],
        rows.iter().map(|r| {
            vec![
                r.workload.clone(),
                format!("{} GB", gb(r.range_bytes)),
                r.unique_blocks.to_string(),
                r.total_ops.to_string(),
                format!("{:.1}", r.write_fraction * 100.0),
                format!("{:.1}x", r.hot_writes_ratio),
                format!("1/{:.0}", r.scale),
            ]
        }),
    );
    println!(
        "hot-write ratio: mean writes/block of the top-25% hot set vs all blocks (§2 reports ~4x)."
    );
}

/// Figure 1: logical block address distribution — the CDF of unique block
/// accesses across 100,000-block regions, restricted to the top-25% hot set.
pub fn fig1_density(scale: f64) {
    let rows = experiments::fig1_density(scale);
    println!("Figure 1: logical block address distribution (top-25% hot blocks)");
    println!("Paper: >55% of regions have <1% of blocks referenced; ~25% have >10%.\n");
    print_table(
        &[
            "workload",
            "touched regions",
            "% regions <1% dense",
            "% regions >10% dense",
        ],
        rows.iter().map(|r| {
            vec![
                r.workload.clone(),
                r.regions.to_string(),
                pct(r.under_1pct),
                pct(r.over_10pct),
            ]
        }),
    );
    println!("CDF series (x = unique blocks referenced in region, y = % of regions):");
    for r in &rows {
        println!("\n{}:", r.workload);
        for (x, y) in &r.cdf {
            println!("  {:>10.0}  {:>6.2}", x, y * 100.0);
        }
    }
}

/// Figure 3: application performance of FlashTier configurations
/// normalized to the native write-back system.
pub fn fig3_performance(scale: f64) {
    let rows = experiments::fig3_performance(scale);
    println!("Figure 3: application performance (% of Native write-back IOPS)");
    println!("Paper: homes/mail SSC WB +59-128%, SSC-R WB +101-167%, WT +38-102%;");
    println!("       usr/proj near-identical to native.\n");
    print_table(
        &[
            "workload",
            "Native WB IOPS",
            "SSC WT",
            "SSC-R WT",
            "SSC WB",
            "SSC-R WB",
        ],
        rows.iter().map(|r| {
            let mut row = vec![r.workload.clone(), format!("{:.0}", r.native_wb)];
            row.extend(r.percents().iter().map(|(_, p)| format!("{p:.0}%")));
            row
        }),
    );
}

/// Table 4: memory consumption of device and host mapping structures.
pub fn table4_memory(scale: f64) {
    let rows = experiments::table4_memory(scale);
    println!("Table 4: memory consumption (MB)");
    println!("Paper (device SSD/SSC/SSC-R; host Native/FTCM):");
    println!("  homes 1.13/1.33/3.07; 8.83/0.96   mail 10.3/12.1/27.4; 79.3/8.66");
    println!("  usr 66.8/71.1/174; 521/56.9       proj 72.1/78.2/189; 564/61.5");
    println!("  proj-50 144/152/374; 1128/123\n");
    println!("Paper-scale model (from the full Table 3 cache sizes):");
    print_table(
        &[
            "workload",
            "cache GB",
            "SSD",
            "SSC",
            "SSC-R",
            "Native host",
            "FTCM host",
        ],
        rows.iter().map(|r| {
            let mut row = vec![r.workload.clone(), gb(r.cache_bytes_full)];
            row.extend(r.device_full.iter().chain(&r.host_full).map(|&b| mb(b)));
            row
        }),
    );
    println!("Measured on the scaled replay (modeled bytes of the live structures):");
    print_table(
        &[
            "workload",
            "SSD",
            "SSC",
            "SSC-R",
            "Native host",
            "FTCM host",
        ],
        rows.iter().map(|r| {
            let mut row = vec![r.workload.clone()];
            row.extend(
                r.device_measured
                    .iter()
                    .chain(&r.host_measured)
                    .map(|&b| mb(b)),
            );
            row
        }),
    );
    // Headline claims.
    let homes = &rows[0];
    let total_native = homes.device_full[0] + homes.host_full[0];
    let total_ssc = homes.device_full[1] + homes.host_full[1];
    let total_ssc_r = homes.device_full[2] + homes.host_full[1];
    println!(
        "homes totals: SSC saves {:.0}% of combined memory, SSC-R saves {:.0}% (paper: 78% / 60%).",
        100.0 * (1.0 - total_ssc as f64 / total_native as f64),
        100.0 * (1.0 - total_ssc_r as f64 / total_native as f64),
    );
}

/// Figure 4: the cost of crash consistency for write-back caching.
pub fn fig4_consistency(scale: f64) {
    const SYSTEMS: [&str; 4] = ["workload", "Native-D", "FlashTier-D", "FlashTier-C/D"];
    let rows = experiments::fig4_consistency(scale);
    println!("Figure 4: consistency cost (% of each architecture's no-consistency IOPS)");
    println!("Paper: homes/mail Native-D 71-82%, FlashTier-D 85-92%, FlashTier-C/D 84-89%;");
    println!("       usr/proj Native-D 95-98%, FlashTier-D ~100%, FlashTier-C/D ~93%.\n");
    print_table(
        &SYSTEMS,
        rows.iter().map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.0}%", r.native_d_pct),
                format!("{:.0}%", r.flashtier_d_pct),
                format!("{:.0}%", r.flashtier_cd_pct),
            ]
        }),
    );
    println!("Mean response-time increase over the no-consistency build (§6.4):");
    print_table(
        &SYSTEMS,
        rows.iter().map(|r| {
            let mut row = vec![r.workload.clone()];
            row.extend(
                r.response_increase
                    .iter()
                    .map(|x| format!("+{:.0}%", x * 100.0)),
            );
            row
        }),
    );
    println!("Paper: native +24-37% on write-heavy; FlashTier +18-32%; read-heavy +3-5%.");
}

/// Figure 5: recovery time after a crash.
pub fn fig5_recovery(scale: f64) {
    let rows = experiments::fig5_recovery(scale);
    println!("Figure 5: recovery time");
    println!("Paper (full scale): FlashTier 34ms (homes) .. 2.4s (proj);");
    println!("  Native-FC 133ms .. 9.4s; Native-SSD 468ms .. 30s.\n");
    println!("Paper-scale model (from the full cache sizes):");
    print_table(
        &[
            "workload",
            "cache GB",
            "FlashTier",
            "Native-FC",
            "Native-SSD",
        ],
        rows.iter().map(|r| {
            let mut row = vec![r.workload.clone(), gb(r.cache_bytes_full)];
            row.extend(r.full_scale.iter().map(Duration::to_string));
            row
        }),
    );
    println!("Measured on the scaled caches (FlashTier = actual crash+recover):");
    print_table(
        &["workload", "FlashTier", "Native-FC", "Native-SSD"],
        rows.iter().map(|r| {
            let mut row = vec![r.workload.clone(), r.flashtier_measured.to_string()];
            row.extend(r.native_measured.iter().map(Duration::to_string));
            row
        }),
    );
}

/// Figure 6: garbage-collection performance — SSD vs SSC vs SSC-R,
/// write-through, logging/checkpointing disabled.
pub fn fig6_gc(scale: f64) {
    let rows = experiments::gc_experiment(scale);
    println!("Figure 6: garbage collection performance (% of SSD IOPS)");
    println!("Paper: homes/mail SSC +34-52%, SSC-R +71-83%; usr/proj near-identical.\n");
    print_table(
        &["workload", "SSD IOPS", "SSC", "SSC-R"],
        rows.iter().map(|r| {
            let base = r.devices[0].iops;
            vec![
                r.workload.clone(),
                format!("{:.0}", base),
                format!("{:.0}%", 100.0 * r.devices[1].iops / base),
                format!("{:.0}%", 100.0 * r.devices[2].iops / base),
            ]
        }),
    );
}

/// Table 5: wear distribution — erases, wear difference, write
/// amplification and miss rate for SSD, SSC and SSC-R.
pub fn table5_wear(scale: f64) {
    let rows = experiments::gc_experiment(scale);
    println!("Table 5: wear distribution (write-through, logging disabled)");
    println!("Paper shape: on homes/mail SSC/SSC-R erase 26%/35% less with lower wear");
    println!("difference and write amplification (2.30 -> 1.84 -> 1.30 on homes); miss");
    println!("rate rises by <2.5 points; on usr/proj all three are close.\n");
    print_table(
        &[
            "workload",
            "device",
            "erases",
            "wear diff",
            "write amp",
            "miss rate %",
        ],
        rows.iter().flat_map(|r| {
            r.devices.iter().map(|d| {
                vec![
                    r.workload.clone(),
                    d.device.to_string(),
                    d.erases.to_string(),
                    d.wear_diff.to_string(),
                    format!("{:.2}", d.write_amp),
                    format!("{:.1}", d.miss_rate_pct),
                ]
            })
        }),
    );
}
