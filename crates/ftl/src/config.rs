//! SSD configuration.

use flashsim::FlashConfig;

/// Configuration for the baseline SSD FTLs.
#[derive(Debug, Clone, Copy)]
pub struct SsdConfig {
    /// The underlying flash device.
    pub flash: FlashConfig,
    /// Fraction of raw capacity reserved (hidden) for garbage collection.
    ///
    /// "Most SSDs reserve 5-20% of their capacity to create free erased
    /// blocks to accept writes. ... On the SSD, we over provision by 7% of
    /// the capacity for garbage collection" (§3.3, §6.1).
    pub over_provision: f64,
    /// Fraction of raw capacity used as page-mapped log blocks (hybrid FTL
    /// only). "We fix log blocks at 7% of capacity" (§5).
    pub log_fraction: f64,
    /// Minimum free blocks the FTL keeps in reserve before foreground
    /// merging/GC kicks in. At least 2 so a merge always has a destination.
    pub gc_reserve_blocks: usize,
}

impl SsdConfig {
    /// The paper's SSD configuration over a given flash device.
    pub fn paper_default(flash: FlashConfig) -> Self {
        SsdConfig {
            flash,
            over_provision: 0.07,
            log_fraction: 0.07,
            gc_reserve_blocks: 4,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn small_test() -> Self {
        SsdConfig {
            flash: FlashConfig::small_test(),
            over_provision: 0.10,
            log_fraction: 0.15,
            gc_reserve_blocks: 2,
        }
    }

    /// Number of raw erase blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.flash.geometry.total_blocks()
    }

    /// Blocks reserved for over-provisioning.
    pub fn op_blocks(&self) -> u64 {
        ((self.total_blocks() as f64 * self.over_provision).ceil() as u64).max(1)
    }

    /// Maximum simultaneous log blocks (hybrid FTL).
    pub fn log_block_limit(&self) -> u64 {
        ((self.total_blocks() as f64 * self.log_fraction).ceil() as u64).max(1)
    }

    /// Logical blocks (erase-block-sized) the hybrid FTL exposes.
    pub fn exposed_lbns_hybrid(&self) -> u64 {
        self.total_blocks()
            .saturating_sub(self.op_blocks())
            .saturating_sub(self.log_block_limit())
            .saturating_sub(self.gc_reserve_blocks as u64)
    }

    /// Logical pages the page-mapped FTL exposes (no log blocks, only
    /// over-provisioning and GC reserve).
    pub fn exposed_pages_pagemap(&self) -> u64 {
        self.total_blocks()
            .saturating_sub(self.op_blocks())
            .saturating_sub(self.gc_reserve_blocks as u64)
            * self.flash.geometry.pages_per_block() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_budgets() {
        let c = SsdConfig::paper_default(FlashConfig::paper_default());
        assert_eq!(c.total_blocks(), 2560);
        assert_eq!(c.op_blocks(), 180); // ceil(2560 * 0.07)
        assert_eq!(c.log_block_limit(), 180);
        assert_eq!(c.exposed_lbns_hybrid(), 2560 - 180 - 180 - 4);
        assert!(c.exposed_pages_pagemap() > c.exposed_lbns_hybrid() * 64);
    }

    #[test]
    fn small_test_is_consistent() {
        let c = SsdConfig::small_test();
        assert!(c.exposed_lbns_hybrid() >= 1);
        assert!(c.op_blocks() >= 1);
        assert!(c.log_block_limit() >= 1);
    }
}
