//! The experiment implementations, one per table/figure of §6.

use cachemgr::{replay, CacheSystem, NativeConsistency, NativeMode, ReplayStats, StackSpec};
use flashtier_core::ConsistencyMode;
use ftl::BlockDev;
use simkit::Duration;
use trace::TraceStats;

use crate::build;
use crate::scaled::{paper_workloads, ScaledWorkload};

/// Fraction of each trace replayed (uncounted) to warm the cache, as in
/// §6.5: "To warm the cache, we replay the first 15% of the trace before
/// gathering statistics."
pub const WARMUP_FRACTION: f64 = 0.15;

/// Warm a system with the trace prefix, then measure the suffix.
pub fn warm_and_measure<S: CacheSystem>(system: &mut S, workload: &ScaledWorkload) -> ReplayStats {
    let warm = workload.trace.prefix(WARMUP_FRACTION);
    replay(system, warm).expect("warmup replay failed");
    let measured = workload.trace.suffix(WARMUP_FRACTION);
    replay(system, measured).expect("measured replay failed")
}

// ---------------------------------------------------------------------
// Figure 1: address-space density.
// ---------------------------------------------------------------------

/// One workload's region-density distribution (Figure 1).
#[derive(Debug, Clone)]
pub struct DensityRow {
    /// Workload name.
    pub workload: String,
    /// Touched 100k-block regions.
    pub regions: usize,
    /// Fraction of touched regions with <1% of their blocks referenced.
    pub under_1pct: f64,
    /// Fraction of touched regions with >10% of their blocks referenced.
    pub over_10pct: f64,
    /// CDF points `(unique blocks in region, cumulative fraction)`,
    /// decimated for plotting.
    pub cdf: Vec<(f64, f64)>,
}

/// Figure 1: the distribution of unique block accesses across 100,000-block
/// regions, for the top-25% most-accessed blocks of each workload.
///
/// Region statistics need a large address range to be meaningful, and this
/// experiment only generates traces (no replay), so it runs its workloads
/// ~20x larger than the replay experiments with the operation count capped.
pub fn fig1_density(multiplier: f64) -> Vec<DensityRow> {
    // One trace at a time: each is generated, summarised and dropped before
    // the next (every trace seeds its own RNG, so the order is immaterial).
    trace::WorkloadSpec::paper_four()
        .into_iter()
        .map(|full| {
            let factor = (crate::scaled::default_scale(&full.name) * multiplier * 0.05).max(1.0);
            let mut spec = full.scaled(factor);
            spec.total_ops = spec.total_ops.min(8_000_000);
            let stats = TraceStats::compute(&trace::generate(&spec));
            let cdf = stats.region_density_cdf(0.25);
            // Region size scales with the workload so the <1% and >10%
            // thresholds stay meaningful at reduced scale.
            let scale = full.range_blocks as f64 / spec.range_blocks as f64;
            let region_blocks = (100_000.0 / scale).max(1.0);
            let all: Vec<(f64, f64)> = cdf.points().collect();
            let step = (all.len() / 64).max(1);
            DensityRow {
                workload: spec.name,
                regions: cdf.len(),
                under_1pct: cdf.fraction_le(region_blocks * 0.01),
                over_10pct: 1.0 - cdf.fraction_le(region_blocks * 0.10),
                cdf: all.into_iter().step_by(step).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 3: workload characteristics.
// ---------------------------------------------------------------------

/// One workload's measured statistics vs the paper's Table 3.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Workload name.
    pub workload: String,
    /// Generated address range in bytes.
    pub range_bytes: u64,
    /// Measured unique blocks.
    pub unique_blocks: u64,
    /// Measured operations.
    pub total_ops: u64,
    /// Measured write fraction.
    pub write_fraction: f64,
    /// Mean writes per block over the top 25% vs over all blocks (§2).
    pub hot_writes_ratio: f64,
    /// The shrink factor applied to the paper spec.
    pub scale: f64,
}

/// Table 3: regenerates the workload characteristics from the synthetic
/// traces.
pub fn table3_workloads(multiplier: f64) -> Vec<WorkloadRow> {
    paper_workloads(multiplier)
        .into_iter()
        .map(|w| {
            let stats = TraceStats::compute(&w.trace);
            let (hot, all) = stats.writes_per_block(0.25);
            WorkloadRow {
                workload: w.spec.name.clone(),
                range_bytes: w.spec.range_blocks * build::BLOCK_BYTES,
                unique_blocks: stats.unique_blocks,
                total_ops: stats.total_ops,
                write_fraction: stats.write_fraction(),
                hot_writes_ratio: if all > 0.0 { hot / all } else { 0.0 },
                scale: w.full_spec.total_ops as f64 / w.spec.total_ops as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3: application performance.
// ---------------------------------------------------------------------

/// One workload's IOPS for the five systems of Figure 3.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Workload name.
    pub workload: String,
    /// Native write-back baseline IOPS (the 100% mark).
    pub native_wb: f64,
    /// SSC write-through IOPS.
    pub ssc_wt: f64,
    /// SSC-R write-through IOPS.
    pub ssc_r_wt: f64,
    /// SSC write-back IOPS.
    pub ssc_wb: f64,
    /// SSC-R write-back IOPS.
    pub ssc_r_wb: f64,
}

impl PerfRow {
    /// The four comparison points as percent of the native baseline, in the
    /// figure's order.
    pub fn percents(&self) -> [(&'static str, f64); 4] {
        let pct = |x: f64| 100.0 * x / self.native_wb;
        [
            ("SSC WT", pct(self.ssc_wt)),
            ("SSC-R WT", pct(self.ssc_r_wt)),
            ("SSC WB", pct(self.ssc_wb)),
            ("SSC-R WB", pct(self.ssc_r_wb)),
        ]
    }
}

/// Figure 3: write-through and write-back FlashTier performance normalized
/// to the native write-back system.
pub fn fig3_performance(multiplier: f64) -> Vec<PerfRow> {
    paper_workloads(multiplier)
        .into_iter()
        .map(|w| {
            let stack = StackSpec::for_cache(w.cache_blocks, w.spec.range_blocks);
            let native_wb = {
                let mut s = stack.native(NativeMode::WriteBack, NativeConsistency::Durable);
                warm_and_measure(&mut s, &w).iops()
            };
            let ssc_wt = {
                let mut s = stack.wt(false, ConsistencyMode::CleanAndDirty);
                warm_and_measure(&mut s, &w).iops()
            };
            let ssc_r_wt = {
                let mut s = stack.wt(true, ConsistencyMode::CleanAndDirty);
                warm_and_measure(&mut s, &w).iops()
            };
            let ssc_wb = {
                let mut s = stack.wb(false, ConsistencyMode::CleanAndDirty);
                warm_and_measure(&mut s, &w).iops()
            };
            let ssc_r_wb = {
                let mut s = stack.wb(true, ConsistencyMode::CleanAndDirty);
                warm_and_measure(&mut s, &w).iops()
            };
            PerfRow {
                workload: w.spec.name.clone(),
                native_wb,
                ssc_wt,
                ssc_r_wt,
                ssc_wb,
                ssc_r_wb,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 4: memory consumption.
// ---------------------------------------------------------------------

/// Memory consumption for one workload (measured at the experiment scale
/// and modeled at full paper scale).
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Workload label (`proj-50` for the 50% variant).
    pub workload: String,
    /// Cache size in bytes at paper scale.
    pub cache_bytes_full: u64,
    /// Device memory, paper scale, modeled: SSD / SSC / SSC-R.
    pub device_full: [u64; 3],
    /// Host memory, paper scale, modeled: Native / FlashTier WB manager.
    pub host_full: [u64; 2],
    /// Device memory measured on the scaled run: SSD / SSC / SSC-R.
    pub device_measured: [u64; 3],
    /// Host memory measured on the scaled run: Native / FlashTier.
    pub host_measured: [u64; 2],
}

/// Paper-scale analytic device-memory model (bytes) for a cache of
/// `cache_blocks` 4 KB blocks.
pub fn device_memory_model(cache_blocks: u64, kind: &str) -> u64 {
    const PPB: u64 = 64;
    match kind {
        // Dense block table (8 B/LBN) + log directory (16 B/log page,
        // 7% of raw) + 8 B per-block state; raw = cache / 0.86.
        "ssd" => {
            let raw_pages = (cache_blocks as f64 / 0.86) as u64;
            let raw_blocks = raw_pages / PPB;
            cache_blocks / PPB * 8 + (raw_pages * 7 / 100) * 16 + raw_blocks * 8
        }
        // Sparse block entries (16 B + 3.5 bits each) + reserved sparse
        // page entries (8 B + 3.5 bits) for the log fraction + block state.
        "ssc" | "ssc-r" => {
            let log_fraction = if kind == "ssc" { 0.07 } else { 0.20 };
            let raw_pages = (cache_blocks as f64 / (1.0 - log_fraction - 0.02)) as u64;
            let raw_blocks = raw_pages / PPB;
            let block_entries = cache_blocks / PPB;
            let page_entries = (raw_pages as f64 * log_fraction) as u64;
            sparsemap::memory::sparse_modeled_bytes(block_entries as usize, 8 + 16)
                + sparsemap::memory::sparse_modeled_bytes(page_entries as usize, 8 + 8)
                + raw_blocks * 8
        }
        _ => unreachable!("unknown device kind"),
    }
}

/// Paper-scale analytic host-memory model (bytes).
pub fn host_memory_model(cache_blocks: u64, kind: &str, dirty_fraction: f64) -> u64 {
    match kind {
        // 22 B for every cached block.
        "native" => cache_blocks * cachemgr::native::NATIVE_ENTRY_BYTES,
        // 14 B for dirty blocks only.
        "flashtier" => {
            (cache_blocks as f64 * dirty_fraction) as u64 * cachemgr::dirty_table::ENTRY_BYTES
        }
        _ => unreachable!("unknown host kind"),
    }
}

/// Table 4: memory consumption of device and host structures. Includes the
/// paper's `proj-50` row (cache sized to the top 50% of proj).
pub fn table4_memory(multiplier: f64) -> Vec<MemoryRow> {
    let mut workloads = paper_workloads(multiplier);
    // proj-50: same trace, cache covers 50% of unique blocks.
    let proj50 = {
        let mut w = workloads[3].clone();
        w.spec.name = "proj-50".into();
        w.full_spec.name = "proj-50".into();
        w.cache_blocks = w.spec.cache_blocks(0.50);
        w
    };
    workloads.push(proj50);

    workloads
        .into_iter()
        .map(|w| {
            let hot_fraction = if w.spec.name == "proj-50" { 0.50 } else { 0.25 };
            let full_cache = w.full_spec.cache_blocks(hot_fraction);
            let stack = StackSpec::for_cache(w.cache_blocks, w.spec.range_blocks);

            // Measured: replay the trace on each system, then read the maps.
            let mut native = stack.native(NativeMode::WriteBack, NativeConsistency::None);
            warm_and_measure(&mut native, &w);
            let mut ssc = stack.wb(false, ConsistencyMode::None);
            warm_and_measure(&mut ssc, &w);
            let mut ssc_r = stack.wb(true, ConsistencyMode::None);
            warm_and_measure(&mut ssc_r, &w);

            MemoryRow {
                workload: w.spec.name.clone(),
                cache_bytes_full: full_cache * build::BLOCK_BYTES,
                device_full: [
                    device_memory_model(full_cache, "ssd"),
                    device_memory_model(full_cache, "ssc"),
                    device_memory_model(full_cache, "ssc-r"),
                ],
                host_full: [
                    host_memory_model(full_cache, "native", 0.0),
                    host_memory_model(full_cache, "flashtier", 0.20),
                ],
                device_measured: [
                    native.device_memory().modeled_bytes,
                    ssc.device_memory().modeled_bytes,
                    ssc_r.device_memory().modeled_bytes,
                ],
                host_measured: [
                    native.host_memory().modeled_bytes,
                    ssc.host_memory().modeled_bytes,
                ],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4: consistency cost.
// ---------------------------------------------------------------------

/// Consistency-cost results for one workload. Every architecture is
/// normalized against its own no-consistency build, isolating the cost of
/// the durability machinery from device differences.
#[derive(Debug, Clone)]
pub struct ConsistencyRow {
    /// Workload name.
    pub workload: String,
    /// Native-D as percent of the no-consistency Native system.
    pub native_d_pct: f64,
    /// FlashTier-D as percent of the no-consistency FlashTier system.
    pub flashtier_d_pct: f64,
    /// FlashTier-C/D as percent of the no-consistency FlashTier system.
    pub flashtier_cd_pct: f64,
    /// Mean response-time increases (fractions) for the same three systems.
    pub response_increase: [f64; 3],
}

/// Figure 4: the cost of crash consistency for write-back caching.
pub fn fig4_consistency(multiplier: f64) -> Vec<ConsistencyRow> {
    paper_workloads(multiplier)
        .into_iter()
        .map(|w| {
            let stack = StackSpec::for_cache(w.cache_blocks, w.spec.range_blocks);
            let run_native = |consistency: NativeConsistency| {
                let mut s = stack.native(NativeMode::WriteBack, consistency);
                warm_and_measure(&mut s, &w)
            };
            let run_ft = |mode: ConsistencyMode| {
                let mut s = stack.wb(false, mode);
                warm_and_measure(&mut s, &w)
            };
            let native_none = run_native(NativeConsistency::None);
            let native_d = run_native(NativeConsistency::Durable);
            let ft_none = run_ft(ConsistencyMode::None);
            let ft_d = run_ft(ConsistencyMode::DirtyOnly);
            let ft_cd = run_ft(ConsistencyMode::CleanAndDirty);
            let pct = |x: &ReplayStats, base: &ReplayStats| 100.0 * x.iops() / base.iops();
            let resp = |x: &ReplayStats, base: &ReplayStats| {
                x.response_hist.mean() / base.response_hist.mean() - 1.0
            };
            ConsistencyRow {
                workload: w.spec.name.clone(),
                native_d_pct: pct(&native_d, &native_none),
                flashtier_d_pct: pct(&ft_d, &ft_none),
                flashtier_cd_pct: pct(&ft_cd, &ft_none),
                response_increase: [
                    resp(&native_d, &native_none),
                    resp(&ft_d, &ft_none),
                    resp(&ft_cd, &ft_none),
                ],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 5: recovery time.
// ---------------------------------------------------------------------

/// Recovery times for one workload.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Workload name.
    pub workload: String,
    /// Cache size at paper scale, bytes.
    pub cache_bytes_full: u64,
    /// Measured at experiment scale: FlashTier SSC crash recovery.
    pub flashtier_measured: Duration,
    /// Measured models at experiment scale: Native-FC, Native-SSD.
    pub native_measured: [Duration; 2],
    /// Paper-scale analytic: FlashTier / Native-FC / Native-SSD.
    pub full_scale: [Duration; 3],
}

/// Paper-scale recovery model.
///
/// FlashTier reloads its checkpoint (block entries at 32 B per 64-page
/// erase block + page entries at 16 B for the 7% log) with 4 KB page reads;
/// Native-FC reads back 22 B/block of manager metadata; Native-SSD scans
/// OOB areas, "reading just enough OOB area to equal the size of the
/// mapping table" (224 B per 75 µs scan).
pub fn recovery_model(cache_blocks: u64) -> [Duration; 3] {
    const PPB: u64 = 64;
    let read_us = 77u64;
    let ft_bytes = cache_blocks / PPB * 32 + (cache_blocks as f64 * 0.07) as u64 * 16;
    let ft = ft_bytes.div_ceil(4096) * read_us;
    let fc_bytes = cache_blocks * cachemgr::native::NATIVE_ENTRY_BYTES;
    let fc = fc_bytes.div_ceil(4096) * read_us;
    let ssd_map_bytes = device_memory_model(cache_blocks, "ssd");
    let ssd = ssd_map_bytes.div_ceil(224) * 75;
    [
        Duration::from_micros(ft),
        Duration::from_micros(fc),
        Duration::from_micros(ssd),
    ]
}

/// Figure 5: time to recover cache state after a crash.
pub fn fig5_recovery(multiplier: f64) -> Vec<RecoveryRow> {
    paper_workloads(multiplier)
        .into_iter()
        .map(|w| {
            let stack = StackSpec::for_cache(w.cache_blocks, w.spec.range_blocks);
            // Populate a write-back FlashTier system, then crash it.
            let mut ft = stack.wb(false, ConsistencyMode::CleanAndDirty);
            warm_and_measure(&mut ft, &w);
            let flashtier_measured = ft.crash_and_recover().expect("recovery failed");
            // Populate the native system for its recovery models.
            let mut native = stack.native(NativeMode::WriteBack, NativeConsistency::Durable);
            warm_and_measure(&mut native, &w);
            let native_measured = [
                native.manager_recovery_cost(),
                native.ssd_recovery_cost(224, 75),
            ];
            RecoveryRow {
                workload: w.spec.name.clone(),
                cache_bytes_full: w.full_spec.cache_bytes_25(),
                flashtier_measured,
                native_measured,
                full_scale: recovery_model(w.full_spec.cache_blocks(0.25)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6 + Table 5: silent eviction (GC performance and wear).
// ---------------------------------------------------------------------

/// Per-device results of the write-through GC experiment.
#[derive(Debug, Clone)]
pub struct GcDevice {
    /// Device label: `SSD`, `SSC` or `SSC-R`.
    pub device: &'static str,
    /// Measured IOPS over the post-warmup window.
    pub iops: f64,
    /// Total erase operations (whole run).
    pub erases: u64,
    /// Maximum wear difference between blocks.
    pub wear_diff: u64,
    /// Write amplification.
    pub write_amp: f64,
    /// Cache read miss rate (percent).
    pub miss_rate_pct: f64,
}

/// One workload's Figure 6 / Table 5 results.
#[derive(Debug, Clone)]
pub struct GcRow {
    /// Workload name.
    pub workload: String,
    /// SSD, SSC, SSC-R in that order.
    pub devices: [GcDevice; 3],
}

/// Figure 6 and Table 5: write-through caching with logging and
/// checkpointing disabled ("to isolate the performance effects of silent
/// eviction"), on SSD vs SSC vs SSC-R.
pub fn gc_experiment(multiplier: f64) -> Vec<GcRow> {
    paper_workloads(multiplier)
        .into_iter()
        .map(|w| {
            let stack = StackSpec::for_cache(w.cache_blocks, w.spec.range_blocks);

            let ssd = {
                let mut s = stack.native(NativeMode::WriteThrough, NativeConsistency::None);
                let stats = warm_and_measure(&mut s, &w);
                GcDevice {
                    device: "SSD",
                    iops: stats.iops(),
                    erases: s.ssd().flash_counters().erases,
                    wear_diff: s.ssd().wear().wear_difference(),
                    write_amp: s.ssd().write_amplification(),
                    miss_rate_pct: 100.0 * s.counters().miss_rate(),
                }
            };
            let run_ssc = |ssc_r: bool, label: &'static str| {
                let mut s = stack.wt(ssc_r, ConsistencyMode::None);
                let stats = warm_and_measure(&mut s, &w);
                GcDevice {
                    device: label,
                    iops: stats.iops(),
                    erases: s.ssc().flash_counters().erases,
                    wear_diff: s.ssc().wear().wear_difference(),
                    write_amp: s.ssc().write_amplification(),
                    miss_rate_pct: 100.0 * s.counters().miss_rate(),
                }
            };
            let ssc = run_ssc(false, "SSC");
            let ssc_r = run_ssc(true, "SSC-R");
            GcRow {
                workload: w.spec.name.clone(),
                devices: [ssd, ssc, ssc_r],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment smoke tests run at an extreme shrink so CI stays fast; the
    // real runs happen through the `experiments` binary.
    const TINY: f64 = 40.0;

    #[test]
    fn fig1_rows_shape() {
        let rows = fig1_density(TINY);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.regions > 0, "{} had no regions", r.workload);
            assert!((0.0..=1.0).contains(&r.under_1pct));
            assert!((0.0..=1.0).contains(&r.over_10pct));
            assert!(!r.cdf.is_empty());
        }
    }

    #[test]
    fn table3_matches_specs() {
        let rows = table3_workloads(TINY);
        assert_eq!(rows.len(), 4);
        let homes = &rows[0];
        assert!(homes.write_fraction > 0.9, "homes is write-heavy");
        let usr = &rows[2];
        assert!(usr.write_fraction < 0.12, "usr is read-heavy");
        // §2: hot blocks see several times the average write rate.
        assert!(homes.hot_writes_ratio > 1.0);
    }

    #[test]
    fn table4_models_match_paper_magnitudes() {
        // Full-scale model vs the paper's Table 4 (MB), shape check within
        // a factor of ~3.
        let homes_cache = trace::WorkloadSpec::homes().cache_blocks(0.25);
        let ssd = device_memory_model(homes_cache, "ssd") as f64 / (1024.0 * 1024.0);
        let ssc = device_memory_model(homes_cache, "ssc") as f64 / (1024.0 * 1024.0);
        let ssc_r = device_memory_model(homes_cache, "ssc-r") as f64 / (1024.0 * 1024.0);
        // Paper: 1.13 / 1.33 / 3.07 MB.
        assert!((0.3..4.0).contains(&ssd), "ssd model {ssd} MB");
        assert!(ssc > ssd * 0.9, "SSC should not be much smaller than SSD");
        assert!(
            ssc_r > 1.8 * ssc,
            "SSC-R roughly doubles device memory: {ssc_r} vs {ssc}"
        );
        // Host: native 8.83 MB vs FTCM 0.96 MB (≈89% reduction).
        let native = host_memory_model(homes_cache, "native", 0.0) as f64;
        let ftcm = host_memory_model(homes_cache, "flashtier", 0.20) as f64;
        assert!(
            ftcm / native < 0.2,
            "FlashTier manager must save ≥80% host memory"
        );
    }

    #[test]
    fn recovery_model_matches_paper_order() {
        // proj: paper reports FlashTier 2.4 s, Native-FC 9.4 s,
        // Native-SSD 30 s for a 102 GB cache.
        let proj_cache = trace::WorkloadSpec::proj().cache_blocks(0.25);
        let [ft, fc, ssd] = recovery_model(proj_cache);
        assert!(ft < fc && fc < ssd, "ordering: {ft} < {fc} < {ssd}");
        let secs = |d: Duration| d.as_secs_f64();
        assert!((0.3..8.0).contains(&secs(ft)), "flashtier {}", ft);
        assert!((3.0..30.0).contains(&secs(fc)), "native-fc {}", fc);
        assert!((8.0..90.0).contains(&secs(ssd)), "native-ssd {}", ssd);
    }
}
