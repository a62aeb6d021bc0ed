//! System constructors for the evaluation.
//!
//! All three cache devices are sized so their *data* capacity equals the
//! workload's cache size (25% hot set):
//!
//! * the **SSD** hides 7% over-provisioning plus 7% log blocks;
//! * the **SSC** needs no over-provisioning (§3.3) — only its 7% log budget;
//! * the **SSC-R** statically reserves its maximum 20% log fraction (the
//!   paper grows it dynamically from eviction proceeds; the static reserve
//!   is the closest deterministic equivalent and is noted in DESIGN.md).

use cachemgr::{FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FlashConfig};
use flashtier_core::{ConsistencyMode, Ssc, SscConfig};
use ftl::{HybridFtl, SsdConfig};

/// 4 KB pages.
pub const BLOCK_BYTES: u64 = 4096;

/// Builds the backing disk for a workload range.
pub fn disk(range_blocks: u64) -> Disk {
    let config = DiskConfig {
        capacity_blocks: range_blocks.max(1),
        ..DiskConfig::paper_default()
    };
    Disk::new(config, DiskDataMode::Discard)
}

/// Raw bytes whose usable data capacity is `cache_blocks` after hiding
/// `hidden_fraction` of them.
fn raw_bytes(cache_blocks: u64, hidden_fraction: f64) -> u64 {
    ((cache_blocks * BLOCK_BYTES) as f64 / (1.0 - hidden_fraction)) as u64
}

/// Raw flash sized so that usable data capacity is `cache_blocks` after
/// reserving `hidden_fraction` of it, padded by the four-block GC reserve.
fn flash_for(cache_blocks: u64, hidden_fraction: f64) -> FlashConfig {
    FlashConfig::with_capacity_bytes(raw_bytes(cache_blocks, hidden_fraction) + 4 * 256 * 1024)
}

/// SSC (SE-Util, 7% log) or SSC-R (SE-Merge, log up to 20%) configuration
/// over `flash`, in the `Discard` data mode every experiment replays in.
fn ssc_config(flash: FlashConfig, ssc_r: bool, consistency: ConsistencyMode) -> SscConfig {
    let base = if ssc_r {
        SscConfig::ssc_r(flash)
    } else {
        SscConfig::ssc(flash)
    };
    base.with_consistency(consistency)
        .with_data_mode(DataMode::Discard)
}

/// The Native SSD's configuration for a given cache size: 7%
/// over-provisioning + 7% log + GC reserve.
pub fn ssd_config(cache_blocks: u64) -> SsdConfig {
    SsdConfig::paper_default(flash_for(cache_blocks, 0.16))
}

/// The Native SSD for a given cache size.
pub fn ssd_device(cache_blocks: u64) -> HybridFtl {
    HybridFtl::new(ssd_config(cache_blocks), DataMode::Discard)
}

/// The SSC (SE-Util, 7% log) or SSC-R (SE-Merge, log fraction up to 20%) on
/// the *same raw flash* as the SSD: the SSC "does not require over
/// provisioning" (§3.3), so the SSD's hidden 7% becomes usable cache space;
/// the SSC-R's larger log budget trades data capacity for cheaper merges.
pub fn ssc_device(cache_blocks: u64, ssc_r: bool, consistency: ConsistencyMode) -> Ssc {
    Ssc::new(ssc_config(
        flash_for(cache_blocks, 0.16),
        ssc_r,
        consistency,
    ))
}

/// SSC configuration on ablation-sized flash: the same 16% hidden fraction
/// as the paper devices without `flash_for`'s GC-reserve pad, which is the
/// sizing every single-workload SSC ablation has reported against. The
/// caller overrides the one knob it sweeps.
pub fn ablation_ssc_config(
    cache_blocks: u64,
    ssc_r: bool,
    consistency: ConsistencyMode,
) -> SscConfig {
    let flash = FlashConfig::with_capacity_bytes(raw_bytes(cache_blocks, 0.16));
    ssc_config(flash, ssc_r, consistency)
}

/// The Native SSD's configuration for the FTL ablation, which runs the
/// page-mapped FTL on it too: [`ssd_config`], floored at the smallest
/// device `PageFtl` can make progress on. `PageFtl` hides `op_blocks +
/// gc_reserve_blocks` erase blocks and will not start a host write until
/// more than `gc_reserve_blocks` of them are pooled, while its host and GC
/// streams each hold a partly written block open. With one over-provisioned
/// block (any device under `1 / over_provision` = 15 blocks) the hidden
/// space is exactly that pooled minimum and collection can never get ahead;
/// two is the least that leaves a block of slack. The floor is inactive up
/// to `--scale 20` or so, where this *is* Figure 6's SSD.
pub fn ftl_ablation_ssd_config(cache_blocks: u64) -> SsdConfig {
    let mut config = ssd_config(cache_blocks);
    let pooled_minimum = config.gc_reserve_blocks as u64 + 1;
    while config.op_blocks() + (config.gc_reserve_blocks as u64) <= pooled_minimum {
        let bytes = config.flash.geometry.capacity_bytes() + 1;
        config.flash = FlashConfig::with_capacity_bytes(bytes);
    }
    config
}

/// FlashTier write-through system.
pub fn flashtier_wt(
    cache_blocks: u64,
    range_blocks: u64,
    ssc_r: bool,
    consistency: ConsistencyMode,
) -> FlashTierWt {
    FlashTierWt::new(
        ssc_device(cache_blocks, ssc_r, consistency),
        disk(range_blocks),
    )
}

/// FlashTier write-back system.
pub fn flashtier_wb(
    cache_blocks: u64,
    range_blocks: u64,
    ssc_r: bool,
    consistency: ConsistencyMode,
) -> FlashTierWb {
    FlashTierWb::new(
        ssc_device(cache_blocks, ssc_r, consistency),
        disk(range_blocks),
    )
}

/// Native system over the hybrid-FTL SSD.
pub fn native(
    cache_blocks: u64,
    range_blocks: u64,
    mode: NativeMode,
    consistency: NativeConsistency,
) -> NativeCache<HybridFtl> {
    NativeCache::new(
        ssd_device(cache_blocks),
        disk(range_blocks),
        mode,
        consistency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::BlockDev;

    #[test]
    fn devices_meet_cache_capacity() {
        let cache = 4096; // blocks
        let ssd = ssd_device(cache);
        assert!(
            ssd.capacity_pages() >= cache,
            "ssd {} < {cache}",
            ssd.capacity_pages()
        );
        let ssc = ssc_device(cache, false, ConsistencyMode::None);
        assert!(ssc.data_capacity_pages() >= cache);
        let sscr = ssc_device(cache, true, ConsistencyMode::None);
        assert!(sscr.data_capacity_pages() >= cache);
    }

    #[test]
    fn systems_assemble_and_serve() {
        use cachemgr::CacheSystem;
        let mut wt = flashtier_wt(1024, 1 << 20, false, ConsistencyMode::None);
        let mut wb = flashtier_wb(1024, 1 << 20, true, ConsistencyMode::CleanAndDirty);
        let mut nat = native(
            1024,
            1 << 20,
            NativeMode::WriteBack,
            NativeConsistency::Durable,
        );
        let data = vec![1u8; 4096];
        wt.write(5, &data).unwrap();
        wb.write(5, &data).unwrap();
        nat.write(5, &data).unwrap();
        assert_eq!(wt.read(5).unwrap().0.len(), 4096);
        assert_eq!(wb.read(5).unwrap().0.len(), 4096);
        assert_eq!(nat.read(5).unwrap().0.len(), 4096);
    }
}
