//! Device sizing the evaluation's stacks do not share.
//!
//! The paper's figures build every system through
//! [`cachemgr::StackSpec::for_cache`]: one raw flash whose SSD data
//! capacity equals the workload's cache size (25% hot set), the SSC and
//! SSC-R on that same flash. What stays here is the ablations' sizing.

use cachemgr::StackSpec;
use flashsim::FlashConfig;
use ftl::SsdConfig;

/// 4 KB pages.
pub const BLOCK_BYTES: u64 = 4096;

/// Stacks on ablation-sized flash: the same 16% hidden fraction as the
/// paper devices without their GC-reserve pad, which is the sizing every
/// single-workload SSC ablation has reported against. The caller takes
/// [`StackSpec::ssc_config`] and overrides the one knob it sweeps.
pub fn ablation_stack(cache_blocks: u64, range_blocks: u64) -> StackSpec {
    let raw_bytes = ((cache_blocks * BLOCK_BYTES) as f64 / (1.0 - 0.16)) as u64;
    StackSpec::new(FlashConfig::with_capacity_bytes(raw_bytes), range_blocks)
}

/// The Native SSD's configuration for the FTL ablation, which runs the
/// page-mapped FTL on it too: the evaluation's SSD, floored at the
/// smallest device `PageFtl` can make progress on. `PageFtl` hides
/// `op_blocks + gc_reserve_blocks` erase blocks and will not start a host
/// write until more than `gc_reserve_blocks` of them are pooled, while its
/// host and GC streams each hold a partly written block open. With one
/// over-provisioned block (any device under `1 / over_provision` = 15
/// blocks) the hidden space is exactly that pooled minimum and collection
/// can never get ahead; two is the least that leaves a block of slack. The
/// floor is inactive up to `--scale 20` or so, where this *is* Figure 6's
/// SSD.
pub fn ftl_ablation_ssd_config(cache_blocks: u64) -> SsdConfig {
    let mut config = SsdConfig::paper_default(StackSpec::for_cache(cache_blocks, 1).flash);
    let pooled_minimum = config.gc_reserve_blocks as u64 + 1;
    while config.op_blocks() + (config.gc_reserve_blocks as u64) <= pooled_minimum {
        let bytes = config.flash.geometry.capacity_bytes() + 1;
        config.flash = FlashConfig::with_capacity_bytes(bytes);
    }
    config
}
