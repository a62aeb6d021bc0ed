//! One builder for the cache stacks the evaluation compares.
//!
//! The paper's comparisons rest on every system being assembled alike: the
//! SSC and SSC-R sit on the same raw flash as the SSD (§3.3), and every
//! manager fronts the same disk. A [`StackSpec`] holds that shared part —
//! one flash configuration, one disk span, one payload mode for both tiers
//! and an optional fault plan — and builds each manager over it. Deriving
//! the disk's payload mode from the cache's leaves no way to build the
//! tier mismatch the managers refuse at construction.

use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FaultPlan, FlashConfig};
use flashtier_core::{
    decorrelate_fault_seed, shard_config, ConsistencyMode, ShardRouter, Ssc, SscConfig,
};
use ftl::{HybridFtl, SsdConfig};

use crate::{
    CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode, ShardSet,
};

/// 4 KB blocks.
const BLOCK_BYTES: u64 = 4096;

/// Share of the evaluation's raw flash the SSD hides from data: 7%
/// over-provisioning plus 7% log blocks, with slack.
const HIDDEN_FRACTION: f64 = 0.16;

/// Four erase blocks of 256 KiB: the evaluation's pad for the GC reserve.
const GC_PAD_BYTES: u64 = 4 * 256 * 1024;

/// The raw flash, disk and payload mode that one family of stacks shares.
///
/// The constructors never touch a device, so the fault plan a stack is
/// built with acts exactly as one installed after construction would.
#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    /// Raw flash under the cache device, whether an SSC, SSC-R or SSD.
    pub flash: FlashConfig,
    /// Disk address span in blocks.
    pub disk_blocks: u64,
    /// Payload mode of the cache device and the disk alike.
    pub data_mode: DataMode,
    /// Media faults injected into the cache device's flash (`None`: off).
    pub faults: Option<FaultPlan>,
}

impl StackSpec {
    /// Stacks over `flash` fronting a `disk_blocks`-block disk, discarding
    /// payloads, faults off.
    pub fn new(flash: FlashConfig, disk_blocks: u64) -> Self {
        StackSpec {
            flash,
            disk_blocks,
            data_mode: DataMode::Discard,
            faults: None,
        }
    }

    /// The evaluation's stacks for a `cache_blocks` cache. The raw flash is
    /// sized so the SSD's data capacity is `cache_blocks` after it hides
    /// 16%, padded by the four-block GC reserve. The SSC "does not require
    /// over provisioning" (§3.3), so on the same flash the SSD's hidden
    /// share becomes cache space; the SSC-R's larger log budget trades data
    /// capacity for cheaper merges.
    pub fn for_cache(cache_blocks: u64, disk_blocks: u64) -> Self {
        let data_bytes = ((cache_blocks * BLOCK_BYTES) as f64 / (1.0 - HIDDEN_FRACTION)) as u64;
        Self::new(
            FlashConfig::with_capacity_bytes(data_bytes + GC_PAD_BYTES),
            disk_blocks,
        )
    }

    /// The same stacks with both tiers in `mode`.
    pub fn with_data_mode(mut self, mode: DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// The same stacks with `plan` injected into the cache device.
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// The SSC (SE-Util, 7% log) or SSC-R (SE-Merge) configuration over
    /// this flash. The SSC-R statically reserves its maximum 20% log
    /// fraction: the paper grows it from eviction proceeds, and the static
    /// reserve is the closest deterministic equivalent (DESIGN.md §3).
    pub fn ssc_config(&self, ssc_r: bool, consistency: ConsistencyMode) -> SscConfig {
        let base = if ssc_r {
            SscConfig::ssc_r(self.flash)
        } else {
            SscConfig::ssc(self.flash)
        };
        base.with_consistency(consistency)
            .with_data_mode(self.data_mode)
    }

    /// The disk tier every stack fronts.
    pub fn disk(&self) -> Disk {
        let mode = match self.data_mode {
            DataMode::Store => DiskDataMode::Store,
            DataMode::Discard => DiskDataMode::Discard,
        };
        let config = DiskConfig {
            capacity_blocks: self.disk_blocks.max(1),
            ..DiskConfig::paper_default()
        };
        Disk::new(config, mode)
    }

    /// FlashTier write-through over an SSC or SSC-R.
    pub fn wt(&self, ssc_r: bool, consistency: ConsistencyMode) -> FlashTierWt {
        FlashTierWt::new(
            self.ssc(self.ssc_config(ssc_r, consistency), 0),
            self.disk(),
        )
    }

    /// FlashTier write-back over an SSC or SSC-R.
    pub fn wb(&self, ssc_r: bool, consistency: ConsistencyMode) -> FlashTierWb {
        FlashTierWb::new(
            self.ssc(self.ssc_config(ssc_r, consistency), 0),
            self.disk(),
        )
    }

    /// The Native manager over the hybrid-FTL SSD on this flash.
    pub fn native(
        &self,
        mode: NativeMode,
        consistency: NativeConsistency,
    ) -> NativeCache<HybridFtl> {
        let mut ssd = HybridFtl::new(SsdConfig::paper_default(self.flash), self.data_mode);
        if let Some(plan) = self.faults {
            ssd.set_fault_plan(plan);
        }
        NativeCache::new(ssd, self.disk(), mode, consistency)
    }

    /// `n` share-nothing write-through stacks (see [`StackSpec::wt`]).
    pub fn wt_shards(
        &self,
        n: usize,
        ssc_r: bool,
        consistency: ConsistencyMode,
    ) -> ShardSet<FlashTierWt> {
        self.shards(n, self.ssc_config(ssc_r, consistency), FlashTierWt::new)
    }

    /// `n` share-nothing write-back stacks (see [`StackSpec::wb`]).
    pub fn wb_shards(
        &self,
        n: usize,
        ssc_r: bool,
        consistency: ConsistencyMode,
    ) -> ShardSet<FlashTierWb> {
        self.shards(n, self.ssc_config(ssc_r, consistency), FlashTierWb::new)
    }

    /// Shard stacks over the 1/n geometry split of `config`, each with its
    /// own disk tier and fault stream, and the pure LBA router.
    fn shards<S: CacheSystem>(
        &self,
        n: usize,
        config: SscConfig,
        manager: fn(Ssc, Disk) -> S,
    ) -> ShardSet<S> {
        let per_shard = shard_config(&config, n);
        ShardSet::from_parts(
            (0..n)
                .map(|i| manager(self.ssc(per_shard, i), self.disk()))
                .collect(),
            ShardRouter::new(n, config.flash.geometry.pages_per_block()),
        )
    }

    /// An SSC over `config` with the fault plan's seed decorrelated for
    /// shard `shard` (shard 0 keeps it verbatim, so an unsharded device and
    /// a one-shard set fault alike).
    fn ssc(&self, config: SscConfig, shard: usize) -> Ssc {
        let mut ssc = Ssc::new(config);
        if let Some(mut plan) = self.faults {
            plan.seed = decorrelate_fault_seed(plan.seed, shard);
            ssc.set_fault_plan(plan);
        }
        ssc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::BlockDev;

    #[test]
    fn devices_meet_cache_capacity() {
        let cache = 4096; // blocks
        let spec = StackSpec::for_cache(cache, 1 << 20);
        let ssd = spec.native(NativeMode::WriteThrough, NativeConsistency::None);
        let ssd = ssd.ssd().capacity_pages();
        assert!(ssd >= cache, "ssd {ssd} < {cache}");
        for ssc_r in [false, true] {
            let ssc = spec.wt(ssc_r, ConsistencyMode::None);
            assert!(ssc.ssc().data_capacity_pages() >= cache, "ssc_r {ssc_r}");
        }
    }

    #[test]
    fn systems_assemble_and_serve() {
        let spec = StackSpec::for_cache(1024, 1 << 20);
        let mut wt = spec.wt(false, ConsistencyMode::None);
        let mut wb = spec.wb(true, ConsistencyMode::CleanAndDirty);
        let mut nat = spec.native(NativeMode::WriteBack, NativeConsistency::Durable);
        let data = vec![1u8; 4096];
        wt.write(5, &data).unwrap();
        wb.write(5, &data).unwrap();
        nat.write(5, &data).unwrap();
        assert_eq!(wt.read(5).unwrap().0.len(), 4096);
        assert_eq!(wb.read(5).unwrap().0.len(), 4096);
        assert_eq!(nat.read(5).unwrap().0.len(), 4096);
    }

    /// What one shard's faults did to the same writes and reads: which
    /// operations failed and the device's fault counters. Shards with one
    /// seed give equal outcomes; distinct seeds, at this rate, do not.
    fn fault_outcome<S: CacheSystem>(
        mut shard: S,
        faults: impl Fn(&S) -> flashsim::FaultCounters,
    ) -> (Vec<bool>, flashsim::FaultCounters) {
        let data = vec![7u8; BLOCK_BYTES as usize];
        let mut failed = Vec::new();
        for lba in 0..512 {
            failed.push(shard.write(lba, &data).is_err());
        }
        for lba in 0..512 {
            failed.push(shard.read(lba).is_err());
        }
        (failed, faults(&shard))
    }

    fn assert_pairwise_distinct<T: PartialEq + std::fmt::Debug>(outcomes: &[T], what: &str) {
        for (i, a) in outcomes.iter().enumerate() {
            for (j, b) in outcomes.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{what}: shards {i} and {j} drew the same faults");
            }
        }
    }

    #[test]
    fn faulted_shards_draw_distinct_fault_seeds() {
        let spec = StackSpec::new(FlashConfig::with_capacity_bytes(16 << 20), 1 << 16)
            .with_faults(Some(FaultPlan::uniform(0xFA17_5EED, 20_000)));
        let (wt, _) = spec
            .wt_shards(4, false, ConsistencyMode::CleanAndDirty)
            .into_shards();
        let wt: Vec<_> = wt
            .into_iter()
            .map(|s| fault_outcome(s, |s| s.ssc().fault_counters()))
            .collect();
        assert_pairwise_distinct(&wt, "wt");
        let (wb, _) = spec
            .wb_shards(4, true, ConsistencyMode::DirtyOnly)
            .into_shards();
        let wb: Vec<_> = wb
            .into_iter()
            .map(|s| fault_outcome(s, |s| s.ssc().fault_counters()))
            .collect();
        assert_pairwise_distinct(&wb, "wb");
    }
}
