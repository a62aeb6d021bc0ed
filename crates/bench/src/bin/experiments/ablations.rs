//! Ablations of the design choices DESIGN.md calls out, each on the
//! write-heavy homes workload (except the mapping-structure comparison,
//! which needs no trace). Sizing comes from [`build`] and the 15% warm-up
//! split from [`warm_and_measure`], as for the paper's own figures.

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode};
use flashsim::DataMode;
use flashtier_bench::build;
use flashtier_bench::experiments::warm_and_measure;
use flashtier_bench::scaled::{build_workload, ScaledWorkload};
use flashtier_bench::tablefmt::mb;
use flashtier_core::{ConsistencyMode, Ssc, VictimSelection};
use ftl::{BlockDev, HybridFtl, PageFtl};
use sparsemap::{DenseMap, SparseHashMap};
use trace::WorkloadSpec;

use crate::print_table;

/// Ablation: the SSC-R log-block reserve (0–30% of capacity) vs write
/// performance and device-memory cost, on the write-heavy homes workload.
///
/// DESIGN.md calls out the SE-Merge trade: "more log blocks ... reduces
/// garbage collection costs ... however, this approach increases memory
/// usage to store fine-grained translations."
pub fn ablate_logreserve(scale: f64) {
    let w = build_workload(WorkloadSpec::homes(), scale);
    println!("Ablation: SSC-R log-block fraction sweep on homes (write-through)\n");
    let mut rows = Vec::new();
    for log_fraction in [0.02, 0.05, 0.07, 0.10, 0.20, 0.30] {
        let mut config = build::ablation_ssc_config(w.cache_blocks, true, ConsistencyMode::None);
        config.log_fraction = log_fraction;
        let mut system = FlashTierWt::new(Ssc::new(config), build::disk(w.spec.range_blocks));
        let stats = warm_and_measure(&mut system, &w);
        let c = system.ssc().counters();
        rows.push(vec![
            format!("{:.0}%", log_fraction * 100.0),
            format!("{:.0}", stats.iops()),
            format!("{:.2}", system.ssc().write_amplification()),
            c.full_merges.to_string(),
            c.switch_merges.to_string(),
            c.silent_evictions.to_string(),
            mb(system.device_memory().modeled_bytes),
        ]);
    }
    print_table(
        &[
            "log reserve",
            "IOPS",
            "write amp",
            "full merges",
            "switch merges",
            "evictions",
            "device MB",
        ],
        rows,
    );
    println!("Expected: larger log -> fewer full merges and higher IOPS, but more");
    println!("device memory for page-level mappings (the SSC-R trade of §4.3/§6.3).");
}

/// Ablation: silent-eviction victim selection on homes (write-through).
///
/// The paper's SE-Util picks the block with the fewest valid pages and
/// concedes that "it may evict recently referenced data" — the cause of
/// its miss-rate increase in Table 5. This sweep compares the paper's
/// policy against recency-aware selectors.
pub fn ablate_eviction(scale: f64) {
    let w = build_workload(WorkloadSpec::homes(), scale);
    println!("Ablation: eviction victim selection on homes (write-through)\n");
    let selectors = [
        ("utilization (paper)", VictimSelection::Utilization),
        (
            "least-recently-written",
            VictimSelection::LeastRecentlyWritten,
        ),
        ("util-then-recency", VictimSelection::UtilizationThenRecency),
    ];
    let mut rows = Vec::new();
    for (label, selection) in selectors {
        let mut config = build::ablation_ssc_config(w.cache_blocks, false, ConsistencyMode::None);
        config.victim_selection = selection;
        let mut system = FlashTierWt::new(Ssc::new(config), build::disk(w.spec.range_blocks));
        let stats = warm_and_measure(&mut system, &w);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", stats.iops()),
            format!("{:.1}", 100.0 * stats.counters.miss_rate()),
            system.ssc().counters().silent_evictions.to_string(),
            system.ssc().counters().silently_evicted_pages.to_string(),
            format!("{:.2}", system.ssc().write_amplification()),
        ]);
    }
    print_table(
        &[
            "selector",
            "IOPS",
            "miss rate %",
            "evictions",
            "pages dropped",
            "write amp",
        ],
        rows,
    );
    println!("Expected: recency-aware selectors trade eviction efficiency (they drop");
    println!("fuller blocks) for a lower miss rate than pure utilization.");
}

/// One FTL's row of [`ablate_ftl`]: the Native write-through system over
/// `ssd`, as Figure 6 runs it.
fn ftl_row<D: BlockDev>(label: &str, ssd: D, w: &ScaledWorkload) -> Vec<String>
where
    NativeCache<D>: CacheSystem,
{
    let mut system = NativeCache::new(
        ssd,
        build::disk(w.spec.range_blocks),
        NativeMode::WriteThrough,
        NativeConsistency::None,
    );
    let stats = warm_and_measure(&mut system, w);
    vec![
        label.to_string(),
        format!("{:.0}", stats.iops()),
        format!("{:.2}", system.ssd().write_amplification()),
        mb(system.device_memory().modeled_bytes),
        system.ssd().flash_counters().erases.to_string(),
    ]
}

/// Ablation: the Native baseline's FTL — hybrid (FAST-like, the paper's)
/// vs pure page-mapped with greedy GC — on the write-heavy homes workload.
///
/// Quantifies how much of the SSD's problem is the *hybrid mapping* (merge
/// costs) vs flash itself, and what page-level mapping costs in device
/// memory — the §4.1 trade-off from the SSD side.
pub fn ablate_ftl(scale: f64) {
    let w = build_workload(WorkloadSpec::homes(), scale);
    println!("Ablation: Native SSD FTL — hybrid vs page-mapped, homes write-through\n");
    let config = build::ftl_ablation_ssd_config(w.cache_blocks);
    let rows = vec![
        ftl_row(
            "hybrid (FAST)",
            HybridFtl::new(config, DataMode::Discard),
            &w,
        ),
        ftl_row("page-mapped", PageFtl::new(config, DataMode::Discard), &w),
    ];
    print_table(
        &["FTL", "IOPS", "write amp", "device map MB", "erases"],
        rows,
    );
    println!("Expected: page mapping avoids merges (lower WA, higher IOPS) but its");
    println!("dense page table costs ~8x the hybrid map — the reason SSDs use hybrid");
    println!("mapping and the reason the SSC's sparse map matters (§4.1).");
}

/// Ablation: group-commit interval vs consistency cost, on homes
/// (write-back, FlashTier-D mode, where `clean` records batch).
///
/// The paper flushes "every 10,000 write operations"; this sweep shows what
/// that buys over per-record commits.
pub fn ablate_commit(scale: f64) {
    let w = build_workload(WorkloadSpec::homes(), scale);
    println!("Ablation: group-commit batch size on homes (write-back, FlashTier-D)\n");
    let mut rows = Vec::new();
    for batch in [1usize, 10, 100, 1_000, 10_000] {
        let mut config =
            build::ablation_ssc_config(w.cache_blocks, false, ConsistencyMode::DirtyOnly);
        config.group_commit_records = batch;
        let mut system = FlashTierWb::new(Ssc::new(config), build::disk(w.spec.range_blocks));
        let stats = warm_and_measure(&mut system, &w);
        let wal = system.ssc().wal_counters();
        rows.push(vec![
            batch.to_string(),
            format!("{:.0}", stats.iops()),
            wal.flushes.to_string(),
            wal.pages_written.to_string(),
            format!("{:.1}", stats.response_hist.mean()),
        ]);
    }
    print_table(
        &[
            "batch records",
            "IOPS",
            "log flushes",
            "log pages",
            "mean resp us",
        ],
        rows,
    );
    println!("Expected: batching amortizes flush pages; synchronous write-dirty");
    println!("commits bound the benefit (they flush whatever is buffered anyway).");
}

/// Ablation: checkpoint policy (log-size ratio) vs runtime overhead and
/// recovery time, on homes write-back.
///
/// The paper checkpoints when the log exceeds two-thirds of the checkpoint
/// size, which "limits both the number of log records flushed on a commit
/// and the log size replayed on recovery".
pub fn ablate_checkpoint(scale: f64) {
    // Run homes 4x larger than the default experiments: the checkpoint
    // policy only differentiates once the map outgrows the one-page floor.
    let w = build_workload(WorkloadSpec::homes(), scale * 0.25);
    println!("Ablation: checkpoint log/checkpoint ratio on homes (write-back)\n");
    let mut rows = Vec::new();
    for ratio in [0.1, 0.33, 0.67, 2.0, 8.0] {
        let mut config =
            build::ablation_ssc_config(w.cache_blocks, false, ConsistencyMode::CleanAndDirty);
        config.checkpoint_log_ratio = ratio;
        let mut system = FlashTierWb::new(Ssc::new(config), build::disk(w.spec.range_blocks));
        let stats = warm_and_measure(&mut system, &w);
        let checkpoints = system.ssc().counters().checkpoints;
        let ckpt_pages = system.ssc().checkpoint_counters().pages_written;
        let recovery = system.crash_and_recover().expect("recovery");
        rows.push(vec![
            format!("{ratio:.2}"),
            format!("{:.0}", stats.iops()),
            checkpoints.to_string(),
            ckpt_pages.to_string(),
            recovery.to_string(),
        ]);
    }
    print_table(
        &[
            "log/ckpt ratio",
            "IOPS",
            "checkpoints",
            "ckpt pages",
            "recovery",
        ],
        rows,
    );
    println!("Expected: small ratios checkpoint constantly (runtime cost), large");
    println!("ratios leave long logs to replay (recovery cost) — 2/3 balances both.");
}

/// The address span [`ablate_mapping`] sweeps: 4M blocks (16 GB) at the
/// default scale, shrunk by `scale` but never grown past that (the
/// ablation has no paper size to reach) nor shrunk below 100 blocks, where
/// the 1% row would hold no entry. The ratios do not depend on the span.
fn mapping_span(scale: f64) -> u64 {
    ((1u64 << 22) as f64 / scale.max(1.0)).max(100.0) as u64
}

/// Ablation: sparse vs dense mapping memory as address-space density
/// varies — the §4.1 design choice in isolation.
///
/// A dense table costs memory proportional to the address span; the sparse
/// hash map costs ~16.4 bytes per occupied entry. The crossover is the
/// density below which an SSC-style map wins.
pub fn ablate_mapping(scale: f64) {
    println!("Ablation: sparse vs dense map memory vs address-space density\n");
    let span = mapping_span(scale);
    let mut rows = Vec::new();
    for density_pct in [1u64, 5, 10, 25, 50, 75, 100] {
        let entries = span * density_pct / 100;
        let mut sparse: SparseHashMap<u64> = SparseHashMap::with_capacity(entries as usize);
        let mut dense: DenseMap<u64> = DenseMap::new(span as usize);
        let stride = (span / entries.max(1)).max(1);
        for i in 0..entries {
            let key = (i * stride) % span;
            sparse.insert(key, i);
            dense.insert(key, i).unwrap();
        }
        let s = sparse.memory();
        let d = dense.memory();
        rows.push(vec![
            format!("{density_pct}%"),
            entries.to_string(),
            mb(s.modeled_bytes),
            mb(d.modeled_bytes),
            format!("{:.2}x", d.modeled_bytes as f64 / s.modeled_bytes as f64),
            format!("{:.1}", sparse.probe_stats()),
        ]);
    }
    print_table(
        &[
            "density",
            "entries",
            "sparse MB",
            "dense MB",
            "dense/sparse",
            "avg probes",
        ],
        rows,
    );
    println!("Expected: sparse wins below ~50% density (a cache holds a few GB out of");
    println!("TBs of disk: 1-25% density), dense wins for a full SSD address space.");
    println!("Probes stay bounded (~1-5) as the paper reports for the sparse map.");
}

#[cfg(test)]
mod tests {
    use super::mapping_span;

    #[test]
    fn mapping_span_is_clamped_at_both_ends() {
        // Unclamped, 0.002 would allocate a 2.1G-slot dense map.
        assert_eq!(mapping_span(0.002), 1 << 22);
        assert_eq!(mapping_span(1.0), 1 << 22);
        assert_eq!(mapping_span(20.0), 209_715);
        // Unclamped, every row would be empty and print `NaNx`.
        assert_eq!(mapping_span(1e9), 100);
    }
}
