//! Constructors for the three cache stacks and one uniform view of the
//! counters below each manager.
//!
//! The configurations are the ones `perf_replay` uses (SSC with
//! clean+dirty durable maps under the write-through manager, SSC-R with
//! dirty-only maps under the write-back manager, a FlashCache-style
//! durable write-back manager over the hybrid FTL as the native baseline),
//! built here from the product's public constructors only.

use cachemgr::{
    CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode, ShardSet,
};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FlashConfig};
use flashtier_core::{shard_config, ConsistencyMode, ShardRouter, Ssc, SscConfig};
use ftl::{BlockDev, HybridFtl, SsdConfig};
use simkit::Duration;

use crate::workloads::RANGE_BLOCKS;

/// Device sizing and payload mode for one family of stacks.
#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    /// Flash cache capacity in bytes.
    pub flash_bytes: u64,
    /// Keep payload bytes (the verify pass) or discard them (timing).
    pub store: bool,
}

impl StackSpec {
    fn flash(&self) -> FlashConfig {
        FlashConfig::with_capacity_bytes(self.flash_bytes)
    }

    fn data_mode(&self) -> DataMode {
        if self.store {
            DataMode::Store
        } else {
            DataMode::Discard
        }
    }

    /// The disk tier under every stack.
    pub fn disk(&self) -> Disk {
        Disk::new(
            DiskConfig {
                capacity_blocks: RANGE_BLOCKS,
                ..DiskConfig::paper_default()
            },
            if self.store {
                DiskDataMode::Store
            } else {
                DiskDataMode::Discard
            },
        )
    }

    /// SSC configuration under the write-through manager.
    pub fn wt_config(&self) -> SscConfig {
        SscConfig::ssc(self.flash())
            .with_data_mode(self.data_mode())
            .with_consistency(ConsistencyMode::CleanAndDirty)
    }

    /// SSC-R configuration under the write-back manager.
    pub fn wb_config(&self) -> SscConfig {
        SscConfig::ssc_r(self.flash())
            .with_data_mode(self.data_mode())
            .with_consistency(ConsistencyMode::DirtyOnly)
    }

    /// FlashTier write-through.
    pub fn wt(&self) -> FlashTierWt {
        FlashTierWt::new(Ssc::new(self.wt_config()), self.disk())
    }

    /// FlashTier write-back.
    pub fn wb(&self) -> FlashTierWb {
        FlashTierWb::new(Ssc::new(self.wb_config()), self.disk())
    }

    /// Native write-back with durable metadata over the hybrid FTL.
    pub fn native(&self) -> NativeCache<HybridFtl> {
        NativeCache::new(
            HybridFtl::new(SsdConfig::paper_default(self.flash()), self.data_mode()),
            self.disk(),
            NativeMode::WriteBack,
            NativeConsistency::Durable,
        )
    }

    /// Share-nothing write-back stacks for the server, `wrap`ped one by
    /// one (identity for the plain run, `Traced::new` for the traced one).
    pub fn wb_shards<S: CacheSystem>(
        &self,
        shards: usize,
        wrap: impl Fn(FlashTierWb) -> S,
    ) -> ShardSet<S> {
        let config = self.wb_config();
        let per_shard = shard_config(&config, shards);
        ShardSet::from_parts(
            (0..shards)
                .map(|_| wrap(FlashTierWb::new(Ssc::new(per_shard), self.disk())))
                .collect(),
            ShardRouter::new(shards, config.flash.geometry.pages_per_block()),
        )
    }
}

/// Counters of the layers below a manager, flattened so the three stack
/// types report through one shape. A field a stack does not have stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Flash pages read.
    pub flash_page_reads: u64,
    /// Flash pages programmed (data path and merges).
    pub flash_page_writes: u64,
    /// Flash blocks erased.
    pub flash_erases: u64,
    /// Cache-device reads (SSC `read` or FTL host reads).
    pub dev_reads: u64,
    /// SSC reads that returned not-present.
    pub dev_read_misses: u64,
    /// SSC `write-clean` operations.
    pub writes_clean: u64,
    /// SSC `write-dirty` operations, or FTL host writes.
    pub writes_dirty: u64,
    /// SSC `evict` operations.
    pub evict_ops: u64,
    /// SSC `clean` operations.
    pub clean_ops: u64,
    /// Erase blocks reclaimed by silent eviction.
    pub silent_evictions: u64,
    /// Pages copied by merges or garbage collection.
    pub gc_copies: u64,
    /// Full merges.
    pub full_merges: u64,
    /// Switch merges.
    pub switch_merges: u64,
    /// WAL flushes.
    pub wal_flushes: u64,
    /// Flash pages consumed by WAL flushes.
    pub wal_pages: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Flash pages consumed by checkpoints.
    pub checkpoint_pages: u64,
    /// Disk blocks read.
    pub disk_reads: u64,
    /// Disk blocks written.
    pub disk_writes: u64,
    /// Disk accesses that continued the previous transfer.
    pub disk_seq_hits: u64,
}

impl LayerCounts {
    /// Difference of two snapshots (`self` later than `earlier`).
    pub fn since(&self, e: &LayerCounts) -> LayerCounts {
        LayerCounts {
            flash_page_reads: self.flash_page_reads - e.flash_page_reads,
            flash_page_writes: self.flash_page_writes - e.flash_page_writes,
            flash_erases: self.flash_erases - e.flash_erases,
            dev_reads: self.dev_reads - e.dev_reads,
            dev_read_misses: self.dev_read_misses - e.dev_read_misses,
            writes_clean: self.writes_clean - e.writes_clean,
            writes_dirty: self.writes_dirty - e.writes_dirty,
            evict_ops: self.evict_ops - e.evict_ops,
            clean_ops: self.clean_ops - e.clean_ops,
            silent_evictions: self.silent_evictions - e.silent_evictions,
            gc_copies: self.gc_copies - e.gc_copies,
            full_merges: self.full_merges - e.full_merges,
            switch_merges: self.switch_merges - e.switch_merges,
            wal_flushes: self.wal_flushes - e.wal_flushes,
            wal_pages: self.wal_pages - e.wal_pages,
            checkpoints: self.checkpoints - e.checkpoints,
            checkpoint_pages: self.checkpoint_pages - e.checkpoint_pages,
            disk_reads: self.disk_reads - e.disk_reads,
            disk_writes: self.disk_writes - e.disk_writes,
            disk_seq_hits: self.disk_seq_hits - e.disk_seq_hits,
        }
    }
}

/// A cache stack the ledger can look underneath.
pub trait Probe: CacheSystem {
    /// Cumulative counters of the layers below the manager.
    fn layer_counts(&self) -> LayerCounts;

    /// Largest minus smallest per-block erase count on the cache device.
    fn wear_spread(&self) -> u64;

    /// Simulates a power failure and the recovery that follows; returns
    /// the simulated recovery time.
    ///
    /// # Errors
    ///
    /// Device failures during recovery.
    fn crash_and_recover(&mut self) -> cachemgr::Result<Duration>;
}

fn ssc_counts(ssc: &Ssc, disk: &Disk) -> LayerCounts {
    let f = ssc.flash_counters();
    let s = ssc.counters();
    let w = ssc.wal_counters();
    let c = ssc.checkpoint_counters();
    let d = disk.counters();
    LayerCounts {
        flash_page_reads: f.page_reads,
        flash_page_writes: f.page_writes,
        flash_erases: f.erases,
        dev_reads: s.host_reads,
        dev_read_misses: s.read_misses,
        writes_clean: s.writes_clean,
        writes_dirty: s.writes_dirty,
        evict_ops: s.evict_ops,
        clean_ops: s.clean_ops,
        silent_evictions: s.silent_evictions,
        gc_copies: s.gc_copies,
        full_merges: s.full_merges,
        switch_merges: s.switch_merges,
        wal_flushes: w.flushes,
        wal_pages: w.pages_written,
        checkpoints: c.written,
        checkpoint_pages: c.pages_written,
        disk_reads: d.reads,
        disk_writes: d.writes,
        disk_seq_hits: d.sequential_hits,
    }
}

impl Probe for FlashTierWt {
    fn layer_counts(&self) -> LayerCounts {
        ssc_counts(self.ssc(), self.disk())
    }

    fn wear_spread(&self) -> u64 {
        self.ssc().wear().wear_difference()
    }

    fn crash_and_recover(&mut self) -> cachemgr::Result<Duration> {
        FlashTierWt::crash_and_recover(self)
    }
}

impl Probe for FlashTierWb {
    fn layer_counts(&self) -> LayerCounts {
        ssc_counts(self.ssc(), self.disk())
    }

    fn wear_spread(&self) -> u64 {
        self.ssc().wear().wear_difference()
    }

    fn crash_and_recover(&mut self) -> cachemgr::Result<Duration> {
        FlashTierWb::crash_and_recover(self)
    }
}

impl Probe for NativeCache<HybridFtl> {
    fn layer_counts(&self) -> LayerCounts {
        let f = self.ssd().flash_counters();
        let t = self.ssd().ftl_counters();
        let d = self.disk().counters();
        LayerCounts {
            flash_page_reads: f.page_reads,
            flash_page_writes: f.page_writes,
            flash_erases: f.erases,
            dev_reads: t.host_reads,
            writes_dirty: t.host_writes,
            gc_copies: t.gc_copies,
            full_merges: t.full_merges,
            switch_merges: t.switch_merges,
            disk_reads: d.reads,
            disk_writes: d.writes,
            disk_seq_hits: d.sequential_hits,
            ..LayerCounts::default()
        }
    }

    fn wear_spread(&self) -> u64 {
        self.ssd().wear().wear_difference()
    }

    fn crash_and_recover(&mut self) -> cachemgr::Result<Duration> {
        NativeCache::crash_and_recover(self)
    }
}
