//! Hash partitioning of the sparse LBA space: the router and the per-shard
//! geometry split.
//!
//! The LBA space is partitioned by a hash of the *logical block number*
//! (`lba / pages_per_block`) into N shards. Routing by LBN (not raw LBA)
//! keeps every page of a logical block inside one shard, which preserves
//! block-level mappings and switch-merge behavior exactly. This module is
//! only the placement policy — [`ShardRouter`], the [`shard_config`]
//! geometry split and per-shard fault-seed decorrelation; the shards
//! themselves are complete manager stacks owned by `cachemgr::ShardSet`,
//! each over its own [`crate::Ssc`].
//!
//! The router is a pure function of the LBA, so each shard's subsequence
//! of operations is independent of host scheduling. At N=1 the router and
//! the split are both the identity: a single shard is bit-identical to an
//! unsharded stack over the same geometry.

use crate::config::SscConfig;

/// `splitmix64` finalizer: a cheap, well-mixed 64-bit hash.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the fault-plan seed for shard `i` from a device-wide seed:
/// shard 0 keeps the seed verbatim (so a 1-shard device faults identically
/// to an unsharded one); other shards get decorrelated streams.
pub fn decorrelate_fault_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        seed
    } else {
        seed ^ mix64(shard as u64)
    }
}

/// Routes LBAs to shards: `mix64(lba / ppb) % n`, the division a shift.
///
/// Pure and stateless — the same LBA always lands on the same shard, and
/// every page of a logical block lands together.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    n: usize,
    /// `log2(ppb)`.
    shift: u32,
}

impl ShardRouter {
    /// Creates a router over `n` shards for a device with `ppb` pages per
    /// erase block.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `ppb` is not a power of two.
    pub fn new(n: usize, ppb: u32) -> Self {
        assert!(n > 0, "need at least one shard");
        assert!(
            ppb.is_power_of_two(),
            "pages per block must be a power of two"
        );
        ShardRouter {
            n,
            shift: ppb.trailing_zeros(),
        }
    }

    /// Number of shards routed over.
    pub fn num_shards(&self) -> usize {
        self.n
    }

    /// The shard owning `lba`. Always 0 when there is a single shard, so
    /// the N=1 configuration is exactly the unsharded device.
    #[inline]
    pub fn shard_of(&self, lba: u64) -> usize {
        if self.n == 1 {
            return 0;
        }
        (mix64(lba >> self.shift) % self.n as u64) as usize
    }
}

/// Derives the per-shard configuration for an `n`-way split of `config`:
/// each shard keeps the plane count and per-block geometry but owns
/// `blocks_per_plane / n` (rounded up) blocks per plane. At `n == 1` this
/// is the identity, which is what makes the single-shard device
/// bit-identical to the unsharded one.
pub fn shard_config(config: &SscConfig, n: usize) -> SscConfig {
    assert!(n > 0, "need at least one shard");
    let g = config.flash.geometry;
    let per_shard = flashsim::Geometry::new(
        g.planes(),
        g.blocks_per_plane().div_ceil(n as u32),
        g.pages_per_block(),
        g.page_size(),
        g.oob_size(),
    );
    let mut cfg = *config;
    cfg.flash.geometry = per_shard;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_keeps_logical_blocks_together() {
        let router = ShardRouter::new(4, 8);
        for lbn in 0..256u64 {
            let shard = router.shard_of(lbn * 8);
            for page in 1..8 {
                assert_eq!(
                    router.shard_of(lbn * 8 + page),
                    shard,
                    "pages of lbn {lbn} split across shards"
                );
            }
        }
        // The hash actually spreads blocks around.
        let hit: std::collections::HashSet<usize> =
            (0..256u64).map(|lbn| router.shard_of(lbn * 8)).collect();
        assert_eq!(hit.len(), 4, "256 blocks should touch all 4 shards");
    }

    #[test]
    fn single_shard_router_is_identity() {
        let router = ShardRouter::new(1, 8);
        for lba in (0..10_000u64).step_by(37) {
            assert_eq!(router.shard_of(lba), 0);
        }
    }

    #[test]
    fn shard_config_is_identity_at_one() {
        let cfg = SscConfig::small_test();
        let split = shard_config(&cfg, 1);
        assert_eq!(split.flash.geometry, cfg.flash.geometry);
        assert_eq!(split.total_blocks(), cfg.total_blocks());
    }

    #[test]
    fn shard_config_splits_blocks() {
        let mut cfg = SscConfig::small_test();
        let g = cfg.flash.geometry;
        cfg.flash.geometry = flashsim::Geometry::new(
            g.planes(),
            32,
            g.pages_per_block(),
            g.page_size(),
            g.oob_size(),
        );
        let split = shard_config(&cfg, 4);
        assert_eq!(split.flash.geometry.blocks_per_plane(), 8);
        assert_eq!(split.flash.geometry.planes(), g.planes());
        assert_eq!(split.flash.geometry.pages_per_block(), g.pages_per_block());
    }

    #[test]
    fn fault_seed_keeps_shard_zero_and_decorrelates_the_rest() {
        let seed = 0xABCD;
        assert_eq!(decorrelate_fault_seed(seed, 0), seed);
        let seeds: std::collections::HashSet<u64> =
            (0..16).map(|i| decorrelate_fault_seed(seed, i)).collect();
        assert_eq!(seeds.len(), 16, "every shard gets its own fault stream");
    }
}
