//! SSC configuration: eviction policies and consistency modes.

use flashsim::FlashConfig;

/// Silent-eviction policy (§4.3 "Policies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// `SE-Util`: evict the erase blocks with the fewest valid pages; erased
    /// blocks become data blocks only. The paper's **SSC** configuration,
    /// with a fixed log-block fraction.
    SeUtil,
    /// `SE-Merge`: same victim selection, but erased blocks may be used for
    /// data *or* logging, letting the log fraction grow (more switch merges,
    /// fewer full merges) at the cost of more page-level map memory. The
    /// paper's **SSC-R** configuration.
    SeMerge,
}

/// How silent eviction picks victim blocks among clean data blocks.
///
/// The paper evaluates utilization only ("SE-Util selects the erase block
/// with the smallest number of valid pages") and notes its weakness: "it
/// may evict recently referenced data." The other selectors explore that
/// design space; the `ablate_eviction` experiment compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimSelection {
    /// Fewest valid pages first (the paper's policy).
    Utilization,
    /// Least recently written block first (recency, ignoring utilization).
    LeastRecentlyWritten,
    /// Utilization bucketed coarsely (quarters of a block), recency within
    /// a bucket — drops nearly-empty blocks but spares hot ones.
    UtilizationThenRecency,
}

/// How much consistency machinery is active (§6.4's comparison points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// No logging or checkpointing at all — the "No-Consistency" baseline of
    /// Figure 4. Nothing survives a crash.
    None,
    /// FlashTier-D: `write-dirty`/`evict` commit synchronously; fresh
    /// `write-clean` inserts and `clean` are buffered (group commit). Clean
    /// blocks may be lost on crash; mapping overwrites still flush so stale
    /// data is never returned.
    DirtyOnly,
    /// FlashTier-C/D: all mapping changes from `write-clean` also commit
    /// synchronously; clean data survives crashes too.
    CleanAndDirty,
}

/// Full SSC configuration.
#[derive(Debug, Clone, Copy)]
pub struct SscConfig {
    /// The underlying flash device.
    pub flash: FlashConfig,
    /// Silent-eviction policy.
    pub policy: EvictionPolicy,
    /// Maximum fraction of blocks used as page-mapped log blocks:
    /// 7% fixed for SSC (SE-Util), up to 20% for SSC-R (SE-Merge) (§5).
    pub log_fraction: f64,
    /// Consistency machinery mode.
    pub consistency: ConsistencyMode,
    /// Buffered log records that trigger an asynchronous group commit
    /// ("group commit to flush the log buffer every 10,000 write
    /// operations", §6.4).
    pub group_commit_records: usize,
    /// Checkpoint when the log exceeds this fraction of the checkpoint size
    /// ("if the log size exceeds two-thirds of the checkpoint size", §6.4).
    pub checkpoint_log_ratio: f64,
    /// Checkpoint at least every this many writes ("or after 1 million
    /// writes, whichever occurs earlier", §6.4).
    pub checkpoint_write_interval: u64,
    /// Minimum pooled free blocks before foreground eviction/GC runs.
    pub gc_reserve_blocks: usize,
    /// Erase blocks freed per silent-eviction cycle (the paper's "top-k
    /// victim blocks").
    pub evict_batch: usize,
    /// Victim selector for silent eviction.
    pub victim_selection: VictimSelection,
    /// Minimum live pages for a logical block to earn a dedicated
    /// (block-mapped) data block at merge time. Sparser content is either
    /// silently evicted (clean) or compacted forward in the log (dirty),
    /// so thin logical blocks never waste a whole erase block.
    pub min_merge_pages: u32,
    /// Whether the flash device stores payloads.
    pub data_mode: flashsim::DataMode,
}

impl SscConfig {
    /// The paper's **SSC** configuration (SE-Util, 7% log blocks) over a
    /// given flash device.
    pub fn ssc(flash: FlashConfig) -> Self {
        SscConfig {
            flash,
            policy: EvictionPolicy::SeUtil,
            log_fraction: 0.07,
            consistency: ConsistencyMode::CleanAndDirty,
            group_commit_records: 10_000,
            checkpoint_log_ratio: 2.0 / 3.0,
            checkpoint_write_interval: 1_000_000,
            gc_reserve_blocks: 4,
            evict_batch: 4,
            victim_selection: VictimSelection::Utilization,
            min_merge_pages: 16,
            data_mode: flashsim::DataMode::Store,
        }
    }

    /// The paper's **SSC-R** configuration (SE-Merge, log fraction up to
    /// 20%).
    pub fn ssc_r(flash: FlashConfig) -> Self {
        SscConfig {
            policy: EvictionPolicy::SeMerge,
            log_fraction: 0.20,
            ..Self::ssc(flash)
        }
    }

    /// A tiny configuration for unit tests.
    pub fn small_test() -> Self {
        SscConfig {
            gc_reserve_blocks: 2,
            evict_batch: 2,
            victim_selection: VictimSelection::Utilization,
            min_merge_pages: 2,
            log_fraction: 0.15,
            group_commit_records: 64,
            checkpoint_write_interval: 100_000,
            ..Self::ssc(FlashConfig::small_test())
        }
    }

    /// Sets the consistency mode.
    pub fn with_consistency(mut self, mode: ConsistencyMode) -> Self {
        self.consistency = mode;
        self
    }

    /// Sets the data retention mode of the flash device.
    pub fn with_data_mode(mut self, mode: flashsim::DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// Total erase blocks of the device.
    pub fn total_blocks(&self) -> u64 {
        self.flash.geometry.total_blocks()
    }

    /// Maximum simultaneous log blocks.
    pub fn log_block_limit(&self) -> u64 {
        ((self.total_blocks() as f64 * self.log_fraction).ceil() as u64).max(1)
    }

    /// Approximate data capacity in pages: everything except the log
    /// budget and GC reserve. The SSC "does not promise a fixed capacity"
    /// (§3.3) — this is advisory for cache sizing.
    pub fn data_capacity_pages(&self) -> u64 {
        self.total_blocks()
            .saturating_sub(self.log_block_limit())
            .saturating_sub(self.gc_reserve_blocks as u64)
            * self.flash.geometry.pages_per_block() as u64
    }

    /// Capacity hints `(page_entries, block_entries)` for pre-sizing the
    /// forward map: the page level fills up to the log-block budget (one
    /// entry per log page), the block level up to one entry per erase
    /// block. Sizing the map for these bounds at construction avoids rehash
    /// churn during warm-up.
    pub(crate) fn map_capacity_hints(&self) -> (usize, usize) {
        let ppb = self.flash.geometry.pages_per_block() as u64;
        let pages = self.log_block_limit() * ppb;
        let blocks = self.total_blocks();
        (pages as usize, blocks as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let flash = FlashConfig::paper_default();
        let ssc = SscConfig::ssc(flash);
        assert_eq!(ssc.policy, EvictionPolicy::SeUtil);
        assert!((ssc.log_fraction - 0.07).abs() < 1e-12);
        assert_eq!(ssc.group_commit_records, 10_000);
        assert_eq!(ssc.checkpoint_write_interval, 1_000_000);
        let sscr = SscConfig::ssc_r(flash);
        assert_eq!(sscr.policy, EvictionPolicy::SeMerge);
        assert!((sscr.log_fraction - 0.20).abs() < 1e-12);
        // SSC-R shares everything else.
        assert_eq!(sscr.group_commit_records, ssc.group_commit_records);
    }

    #[test]
    fn capacity_excludes_log_and_reserve() {
        let c = SscConfig::small_test();
        let total_pages = c.total_blocks() * c.flash.geometry.pages_per_block() as u64;
        assert!(c.data_capacity_pages() < total_pages);
        assert!(c.data_capacity_pages() > 0);
    }

    #[test]
    fn builders() {
        let c = SscConfig::small_test()
            .with_consistency(ConsistencyMode::None)
            .with_data_mode(flashsim::DataMode::Discard);
        assert_eq!(c.consistency, ConsistencyMode::None);
        assert_eq!(c.data_mode, flashsim::DataMode::Discard);
    }
}
