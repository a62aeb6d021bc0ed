//! The SSC device: the hybrid FTL of the `ftl` crate with a cache interface
//! on top. [`Ssc`] is one type; its methods are split by the paper's
//! sections:
//!
//! * `ops` — the six interface operations (§4.2.1);
//! * `log` — the operation log, group commit and checkpoints (§4.2.2);
//! * `merge` — log blocks, switch and full merges, compaction and block
//!   retirement: the FAST-style FTL underneath;
//! * `evict` — silent eviction's victim selection over the maps'
//!   clean-block table (§4.3);
//! * `inspect` — read-only views for tests and debugging.
//!
//! Crash and roll-forward recovery live in `recovery.rs`.

use std::collections::VecDeque;

use flashsim::{FlashCounters, FlashDevice, Pbn, Ppn, WearStats};
use ftl::FreeBlockPool;
use sparsemap::{memory, MapMemory};

use crate::checkpoint::CheckpointStore;
use crate::config::{EvictionPolicy, SscConfig};
use crate::error::SscError;
use crate::map::SscMaps;
use crate::wal::Wal;
use crate::Result;

mod evict;
mod inspect;
mod log;
mod merge;
mod ops;

simkit::counter_set! {
    /// Cumulative SSC statistics.
    pub struct SscCounters {
        /// `read` operations served.
        pub host_reads: u64,
        /// `read` operations that returned not-present.
        pub read_misses: u64,
        /// `write-clean` operations.
        pub writes_clean: u64,
        /// `write-dirty` operations.
        pub writes_dirty: u64,
        /// `evict` operations.
        pub evict_ops: u64,
        /// `clean` operations.
        pub clean_ops: u64,
        /// `exists` operations.
        pub exists_ops: u64,
        /// Erase blocks reclaimed by silent eviction.
        pub silent_evictions: u64,
        /// Valid (clean) pages dropped by silent eviction.
        pub silently_evicted_pages: u64,
        /// Log recycling rounds forced because no clean victim existed.
        pub eviction_fallbacks: u64,
        /// Switch merges.
        pub switch_merges: u64,
        /// Full merges.
        pub full_merges: u64,
        /// Pages copied by merges (the copying silent eviction avoids).
        pub gc_copies: u64,
        /// Checkpoints triggered.
        pub checkpoints: u64,
        /// Blocks permanently retired after a worn-out or failed erase (never
        /// returned to the free pool; capacity shrinks, the device keeps going).
        pub blocks_retired: u64,
        /// Host writes re-issued to a fresh page after an injected program
        /// failure consumed the original target.
        pub program_reissues: u64,
    }
}

impl SscCounters {
    /// Total host writes (clean + dirty).
    pub fn host_writes(&self) -> u64 {
        self.writes_clean + self.writes_dirty
    }
}

/// A multi-step SSC operation a scripted power failure can interrupt.
///
/// The crash-point fuzzer arms one of these sites (plus a hit count) via
/// [`Ssc::arm_crash`]; when the running operation reaches the armed site the
/// SSC returns [`SscError::PowerLoss`] mid-operation, leaving device RAM in
/// whatever half-updated state the operation had built. The harness then
/// simulates the power failure ([`Ssc::crash`], optionally with a torn WAL
/// tail) and recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Inside a log flush, before buffered records become durable.
    GroupCommit,
    /// Inside checkpoint policy, before the new snapshot is written.
    Checkpoint,
    /// Just after the new checkpoint slot is written: the slot is left
    /// *corrupted* (torn mid-write) so recovery must fall back to the
    /// older slot.
    CheckpointTorn,
    /// At the start of a log-block recycle (switch/full merge, silent
    /// eviction fallback).
    Merge,
    /// Inside `clean`, before the dirty→clean metadata update — models a
    /// crash between a manager's destage write and its acknowledgement.
    Clean,
}

/// The solid-state cache device.
///
/// See the [crate documentation](crate) for the interface overview and an
/// example. All operations return the simulated device time they consumed,
/// including any merge, eviction, logging or checkpoint work they triggered.
#[derive(Debug)]
pub struct Ssc {
    pub(crate) config: SscConfig,
    pub(crate) dev: FlashDevice,
    pub(crate) maps: SscMaps,
    pub(crate) log_blocks: VecDeque<Pbn>,
    pub(crate) pool: FreeBlockPool,
    pub(crate) wal: Wal,
    pub(crate) ckpt: CheckpointStore,
    seq: u64,
    writes_since_ckpt: u64,
    /// Data blocks fully invalidated by overwrite/eviction, awaiting erase.
    /// Drained only after the mapping records that emptied them are durable,
    /// so a crash can never resurrect a mapping into an erased block.
    pub(crate) pending_retire: Vec<Pbn>,
    /// Device erase count at the moment of the last WAL flush. An erase
    /// after a flush certifies that the flush completed (the firmware
    /// orders them), so a "torn" power failure can no longer affect it.
    pub(crate) erases_at_last_flush: u64,
    /// Scripted power failure: fire at the `.1`-th future hit of site `.0`.
    pub(crate) armed_crash: Option<(CrashSite, u64)>,
    pub(crate) counters: SscCounters,
    /// Scratch buffers reused across merges: the log pages of one LBN by
    /// offset and the sorted LBAs of one victim log block.
    overlay_scratch: Vec<(u32, Ppn)>,
    lba_scratch: Vec<u64>,
    /// Memoized checkpoint trigger: `(base_lsn, appended_bytes threshold)`.
    /// Both inputs of the log-size policy — the base checkpoint's LSN
    /// offset and its size-derived threshold — are fixed between
    /// checkpoint writes, so the per-write policy check reduces to one
    /// monotonic byte-counter comparison. Invalidated by base-LSN change
    /// (a new checkpoint, recovery).
    pub(crate) ckpt_trigger: Option<(u64, u64)>,
    /// Scratch buffer of one silent-eviction batch's victims.
    victim_scratch: Vec<evict::VictimKey>,
}

impl Ssc {
    /// Creates a freshly erased SSC.
    pub fn new(config: SscConfig) -> Self {
        let dev = FlashDevice::new(config.flash, config.data_mode);
        let pool = FreeBlockPool::full(dev.geometry());
        let ppb = config.flash.geometry.pages_per_block();
        let timing = config.flash.timing;
        let page_size = config.flash.geometry.page_size();
        let (page_hint, block_hint) = config.map_capacity_hints();
        Ssc {
            config,
            dev,
            maps: SscMaps::with_capacity(ppb, page_hint, block_hint),
            log_blocks: VecDeque::new(),
            pool,
            wal: Wal::new(timing, page_size),
            ckpt: CheckpointStore::new(timing, page_size),
            seq: 0,
            writes_since_ckpt: 0,
            pending_retire: Vec::new(),
            erases_at_last_flush: 0,
            armed_crash: None,
            counters: SscCounters::default(),
            overlay_scratch: Vec::new(),
            lba_scratch: Vec::new(),
            ckpt_trigger: None,
            victim_scratch: Vec::new(),
        }
    }

    /// Device page size in bytes.
    pub fn page_size(&self) -> usize {
        self.config.flash.geometry.page_size()
    }

    /// The configuration this SSC was built with.
    pub fn config(&self) -> &SscConfig {
        &self.config
    }

    /// Data-retention mode of the underlying flash (store vs discard-mode
    /// emulation).
    pub fn data_mode(&self) -> flashsim::DataMode {
        self.dev.mode()
    }

    /// Advisory data capacity in pages (§3.3: the SSC "does not promise a
    /// fixed capacity").
    pub fn data_capacity_pages(&self) -> u64 {
        self.config.data_capacity_pages()
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> u64 {
        self.maps.cached_pages()
    }

    /// Cumulative SSC statistics.
    pub fn counters(&self) -> SscCounters {
        self.counters
    }

    /// Raw flash counters.
    pub fn flash_counters(&self) -> FlashCounters {
        self.dev.counters()
    }

    /// Installs a deterministic media-fault plan on the underlying flash.
    pub fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        self.dev.set_fault_plan(plan);
    }

    /// Injected-fault statistics (all zeros when no plan is installed).
    pub fn fault_counters(&self) -> flashsim::FaultCounters {
        self.dev.fault_counters()
    }

    /// Blocks the media has grown bad (failed erases).
    pub fn grown_bad_blocks(&self) -> u64 {
        self.dev.grown_bad_blocks() as u64
    }

    /// Corrupts the newest checkpoint slot in place, as a media scribble
    /// would. Recovery must detect the bad CRC and fall back to the older
    /// slot. Test/fuzzing aid.
    pub fn corrupt_latest_checkpoint(&mut self) {
        self.ckpt.corrupt_latest();
    }

    /// Arms a scripted power failure: the `after`-th future hit of `site`
    /// returns [`SscError::PowerLoss`] from whatever operation is running.
    /// Only one site can be armed at a time; re-arming replaces the
    /// schedule. The harness must follow the error with [`Ssc::crash`] and
    /// [`Ssc::recover`].
    pub fn arm_crash(&mut self, site: CrashSite, after: u64) {
        self.armed_crash = Some((site, after));
    }

    /// Disarms any scripted power failure.
    pub fn disarm_crash(&mut self) {
        self.armed_crash = None;
    }

    /// Whether a scripted power failure is still pending.
    pub fn crash_armed(&self) -> bool {
        self.armed_crash.is_some()
    }

    /// Counts a hit of `site`; returns `true` exactly when the armed
    /// schedule says this hit is the power failure (and disarms itself).
    fn crash_fires(&mut self, site: CrashSite) -> bool {
        match &mut self.armed_crash {
            Some((armed, after)) if *armed == site => {
                if *after == 0 {
                    self.armed_crash = None;
                    true
                } else {
                    *after -= 1;
                    false
                }
            }
            _ => false,
        }
    }

    /// Crash point: fail with [`SscError::PowerLoss`] if the schedule fires.
    fn crash_point(&mut self, site: CrashSite) -> Result<()> {
        if self.crash_fires(site) {
            Err(SscError::PowerLoss)
        } else {
            Ok(())
        }
    }

    /// Wear statistics across erase blocks.
    pub fn wear(&self) -> WearStats {
        self.dev.wear()
    }

    /// Write amplification: flash page writes per host page write (data
    /// path only; log/checkpoint traffic is tracked separately by
    /// [`Ssc::wal_counters`] and [`Ssc::checkpoint_counters`]).
    pub fn write_amplification(&self) -> f64 {
        let host = self.counters.host_writes();
        if host == 0 {
            0.0
        } else {
            self.dev.counters().page_writes as f64 / host as f64
        }
    }

    /// WAL activity statistics.
    pub fn wal_counters(&self) -> crate::wal::WalCounters {
        self.wal.counters()
    }

    /// Checkpoint activity statistics.
    pub fn checkpoint_counters(&self) -> crate::checkpoint::CheckpointCounters {
        self.ckpt.counters()
    }

    /// Device-memory footprint of the mapping structures, using the paper's
    /// Table 4 accounting: sparse block-level entries at 16 bytes (physical
    /// block + dirty bitmap) plus 3.5 bits of occupancy bitmap, page-level
    /// capacity *reserved* for the maximum log fraction ("SSC-R ... must
    /// reserve memory capacity for the maximum fraction at page level"),
    /// and 8 bytes of per-erase-block state.
    pub fn map_memory(&self) -> MapMemory {
        let reserved_page_entries = self.config.log_block_limit() * self.maps.ppb() as u64;
        // Fully-associative sparse entries encode the complete 8-byte block
        // address alongside the value (16 B for block entries with their
        // dirty bitmap, 8 B for page entries).
        let modeled = memory::sparse_modeled_bytes(self.maps.block_count(), 8 + 16)
            + memory::sparse_modeled_bytes(reserved_page_entries as usize, 8 + 8)
            + self.config.total_blocks() * 8;
        MapMemory {
            entries: self.maps.block_count() + self.maps.page_count(),
            modeled_bytes: modeled,
            heap_bytes: self.maps.heap_bytes(),
        }
    }

    /// Number of live log blocks.
    pub fn log_blocks_in_use(&self) -> usize {
        self.log_blocks.len()
    }

    /// Free blocks currently pooled.
    pub fn free_blocks(&self) -> usize {
        self.pool.len()
    }

    /// The silent-eviction policy in effect.
    pub fn policy(&self) -> EvictionPolicy {
        self.config.policy
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn ppb(&self) -> u32 {
        self.maps.ppb()
    }
}

#[cfg(test)]
mod tests {
    use simkit::PageBuf;

    use super::*;
    use crate::config::ConsistencyMode;

    fn ssc() -> Ssc {
        Ssc::new(SscConfig::small_test())
    }

    fn page(ssc: &Ssc, fill: u8) -> Vec<u8> {
        vec![fill; ssc.page_size()]
    }

    #[test]
    fn read_after_write_dirty_returns_data() {
        let mut s = ssc();
        let p = page(&s, 1);
        s.write_dirty(10, &p).unwrap();
        assert_eq!(s.read(10).unwrap().0, p);
        assert!(s.maps.is_dirty(10));
    }

    #[test]
    fn read_after_write_clean_returns_data() {
        let mut s = ssc();
        let p = page(&s, 2);
        s.write_clean(10, &p).unwrap();
        assert_eq!(s.read(10).unwrap().0, p);
        assert!(!s.maps.is_dirty(10));
    }

    #[test]
    fn read_miss_is_not_present() {
        let mut s = ssc();
        assert!(matches!(s.read(99), Err(SscError::NotPresent(99))));
        assert_eq!(s.counters().read_misses, 1);
        assert_eq!(s.counters().host_reads, 1);
    }

    #[test]
    fn read_after_evict_is_not_present() {
        let mut s = ssc();
        s.write_dirty(5, &page(&s, 3)).unwrap();
        s.evict(5).unwrap();
        assert!(matches!(s.read(5), Err(SscError::NotPresent(5))));
        // Evicting an absent block is a successful no-op.
        s.evict(5).unwrap();
        assert_eq!(s.counters().evict_ops, 2);
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut s = ssc();
        for i in 0..20u8 {
            s.write_clean(7, &page(&s, i)).unwrap();
        }
        assert_eq!(s.read(7).unwrap().0, page(&s, 19));
    }

    #[test]
    fn dirty_then_clean_changes_state_not_data() {
        let mut s = ssc();
        let p = page(&s, 4);
        s.write_dirty(3, &p).unwrap();
        assert!(s.maps.is_dirty(3));
        s.clean(3).unwrap();
        assert!(!s.maps.is_dirty(3));
        assert_eq!(s.read(3).unwrap().0, p, "clean keeps the data readable");
        // Cleaning an absent block is fine.
        s.clean(77).unwrap();
    }

    #[test]
    fn exists_reports_only_dirty_blocks() {
        let mut s = ssc();
        s.write_dirty(1, &page(&s, 1)).unwrap();
        s.write_clean(2, &page(&s, 2)).unwrap();
        s.write_dirty(100, &page(&s, 3)).unwrap();
        let (dirty, _) = s.exists(0, 1000);
        assert_eq!(dirty, vec![1, 100]);
        let (dirty, _) = s.exists(0, 50);
        assert_eq!(dirty, vec![1]);
        s.clean(1).unwrap();
        let (dirty, _) = s.exists(0, 1000);
        assert_eq!(dirty, vec![100]);
    }

    #[test]
    fn bad_page_size_rejected() {
        let mut s = ssc();
        assert!(matches!(
            s.write_dirty(0, &[1, 2, 3]),
            Err(SscError::BadPageSize { got: 3, .. })
        ));
        assert!(matches!(
            s.write_clean(0, &[]),
            Err(SscError::BadPageSize { got: 0, .. })
        ));
    }

    #[test]
    fn unified_address_space_accepts_sparse_lbas() {
        // Disk addresses far beyond the flash capacity are fine — the whole
        // point of the unified sparse address space.
        let mut s = ssc();
        let far = 1 << 40;
        s.write_clean(far, &page(&s, 9)).unwrap();
        assert_eq!(s.read(far).unwrap().0, page(&s, 9));
        let top = u64::MAX - 1;
        s.write_dirty(top, &page(&s, 8)).unwrap();
        assert_eq!(s.read(top).unwrap().0, page(&s, 8));
    }

    #[test]
    fn the_internal_page_marker_is_not_an_address() {
        let mut s = ssc();
        let before = s.flash_counters().page_writes;
        for dirty in [false, true] {
            let p = page(&s, 1);
            let r = if dirty {
                s.write_dirty(u64::MAX, &p)
            } else {
                s.write_clean(u64::MAX, &p)
            };
            assert_eq!(r, Err(SscError::LbaOutOfRange(u64::MAX)));
        }
        assert_eq!(s.flash_counters().page_writes, before);
        s.write_dirty(0, &page(&s, 2)).unwrap();
        assert_eq!(s.read(0).unwrap().0, page(&s, 2));
    }

    #[test]
    fn silent_eviction_reclaims_clean_blocks_without_copying() {
        let mut s = ssc();
        // Fill the cache with clean sequential data until well past
        // capacity; silent eviction must kick in and keep the device
        // operational without OutOfSpace.
        let capacity = s.data_capacity_pages();
        for lba in 0..capacity * 3 {
            s.write_clean(lba, &page(&s, lba as u8)).unwrap();
        }
        assert!(s.counters().silent_evictions > 0, "{:?}", s.counters());
        assert!(s.counters().silently_evicted_pages > 0);
        // Cached content is bounded by the device size.
        assert!(s.cached_pages() <= capacity + s.config.log_block_limit() * 8);
        // Newest blocks are still readable.
        let last = capacity * 3 - 1;
        assert_eq!(s.read(last).unwrap().0, page(&s, last as u8));
    }

    #[test]
    fn evicted_clean_data_reads_not_present() {
        let mut s = ssc();
        let capacity = s.data_capacity_pages();
        for lba in 0..capacity * 3 {
            s.write_clean(lba, &page(&s, lba as u8)).unwrap();
        }
        // The earliest blocks must have been silently evicted.
        let misses = (0..16u64)
            .filter(|&lba| matches!(s.read(lba), Err(SscError::NotPresent(_))))
            .count();
        assert!(misses > 0, "early blocks should have been evicted");
    }

    #[test]
    fn dirty_blocks_are_never_silently_evicted() {
        let mut s = ssc();
        let p = page(&s, 0xDD);
        // One dirty block, then flood with clean data to force eviction.
        s.write_dirty(0, &p).unwrap();
        let capacity = s.data_capacity_pages();
        for lba in 8..8 + capacity * 3 {
            s.write_clean(lba, &page(&s, lba as u8)).unwrap();
        }
        assert!(s.counters().silent_evictions > 0);
        assert_eq!(
            s.read(0).unwrap().0,
            p,
            "dirty data must survive eviction pressure"
        );
    }

    #[test]
    fn cleaned_blocks_become_evictable() {
        let mut s = ssc();
        // Fill with dirty data, clean everything, then flood: the cleaned
        // blocks must be evicted rather than erroring out.
        for lba in 0..32u64 {
            s.write_dirty(lba, &page(&s, lba as u8)).unwrap();
        }
        for lba in 0..32u64 {
            s.clean(lba).unwrap();
        }
        let capacity = s.data_capacity_pages();
        for lba in 100..100 + capacity * 2 {
            s.write_clean(lba, &page(&s, lba as u8)).unwrap();
        }
        assert!(s.counters().silent_evictions > 0);
    }

    #[test]
    fn all_dirty_cache_eventually_reports_out_of_space() {
        let mut s = ssc();
        let mut failed = false;
        for lba in 0..s.data_capacity_pages() * 2 {
            match s.write_dirty(lba, &page(&s, 1)) {
                Ok(_) => {}
                Err(SscError::OutOfSpace) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "an all-dirty cache cannot grow forever");
        // The cache manager cleans some blocks; writes work again.
        let (dirty, _) = s.exists(0, u64::MAX);
        for lba in dirty.iter().take(dirty.len() / 2) {
            s.clean(*lba).unwrap();
        }
        s.write_dirty(1 << 30, &page(&s, 2))
            .expect("writes resume after cleaning");
    }

    #[test]
    fn write_amplification_lower_than_ssd_baseline_shape() {
        // Clean churn on the SSC should be absorbed by silent eviction with
        // minimal copying.
        let mut s = ssc();
        let capacity = s.data_capacity_pages();
        for round in 0..4u64 {
            for lba in 0..capacity {
                s.write_clean(lba, &page(&s, (round + lba) as u8)).unwrap();
            }
        }
        let wa = s.write_amplification();
        assert!(wa < 1.6, "silent eviction should keep WA low, got {wa}");
    }

    #[test]
    fn sequential_fill_uses_switch_merges() {
        let mut s = ssc();
        let ppb = s.ppb() as u64;
        for pass in 0..3u8 {
            for lba in 0..4 * ppb {
                s.write_clean(lba, &page(&s, pass)).unwrap();
            }
        }
        assert!(s.counters().switch_merges > 0, "{:?}", s.counters());
    }

    #[test]
    fn counters_and_memory_reporting() {
        let mut s = ssc();
        s.write_clean(1, &page(&s, 1)).unwrap();
        s.write_dirty(2, &page(&s, 2)).unwrap();
        s.read(1).unwrap();
        let c = s.counters();
        assert_eq!(c.host_writes(), 2);
        assert_eq!(c.writes_clean, 1);
        assert_eq!(c.writes_dirty, 1);
        assert_eq!((c.host_reads, c.read_misses), (1, 0));
        let mem = s.map_memory();
        assert!(mem.modeled_bytes > 0);
        assert!(mem.entries >= 2);
        assert!(s.wal_counters().flushes >= 1, "sync commits flush");
    }

    #[test]
    fn group_commit_batches_clean_records() {
        // DirtyOnly mode: fresh clean inserts buffer until the group-commit
        // threshold.
        let mut config = SscConfig::small_test().with_consistency(ConsistencyMode::DirtyOnly);
        config.group_commit_records = 8;
        let mut s = Ssc::new(config);
        for lba in 0..7u64 {
            s.write_clean(lba, &page(&s, 1)).unwrap();
        }
        assert_eq!(
            s.wal_counters().flushes,
            0,
            "below the threshold nothing flushes"
        );
        for lba in 7..10u64 {
            s.write_clean(lba, &page(&s, 1)).unwrap();
        }
        assert!(
            s.wal_counters().flushes >= 1,
            "group commit flushes at the threshold"
        );
        assert!(s.wal_counters().records_flushed >= 8);
    }

    #[test]
    fn checkpoints_trigger_under_sustained_writes() {
        let mut config = SscConfig::small_test();
        config.checkpoint_write_interval = 200;
        let mut s = Ssc::new(config);
        for lba in 0..400u64 {
            s.write_dirty(lba % 40, &page(&s, lba as u8)).unwrap();
        }
        assert!(s.counters().checkpoints >= 1);
        assert!(s.checkpoint_counters().written >= 1);
    }

    #[test]
    fn no_consistency_mode_never_logs() {
        let config = SscConfig::small_test().with_consistency(ConsistencyMode::None);
        let mut s = Ssc::new(config);
        for lba in 0..100u64 {
            s.write_dirty(lba % 20, &page(&s, lba as u8)).unwrap();
        }
        assert_eq!(s.wal_counters().flushes, 0);
        assert_eq!(s.checkpoint_counters().written, 0);
    }

    #[test]
    fn consistency_costs_time() {
        // The same workload must be strictly slower with full consistency
        // than with none (Figure 4's effect).
        let run = |mode: ConsistencyMode| -> u64 {
            let mut s = Ssc::new(SscConfig::small_test().with_consistency(mode));
            let mut total = 0;
            for lba in 0..200u64 {
                total += s
                    .write_dirty(lba % 30, &vec![lba as u8; s.page_size()])
                    .unwrap()
                    .as_micros();
            }
            total
        };
        let none = run(ConsistencyMode::None);
        let full = run(ConsistencyMode::CleanAndDirty);
        assert!(full > none, "consistency must cost time: {full} vs {none}");
    }

    #[test]
    fn policy_accessors() {
        let s = ssc();
        assert_eq!(s.policy(), EvictionPolicy::SeUtil);
        assert!(s.free_blocks() > 0);
        assert_eq!(s.log_blocks_in_use(), 0);
        let r = Ssc::new(SscConfig::ssc_r(flashsim::FlashConfig::small_test()));
        assert_eq!(r.policy(), EvictionPolicy::SeMerge);
    }

    #[test]
    fn ssc_r_has_more_log_blocks_fewer_full_merges() {
        let run = |config: SscConfig| -> SscCounters {
            let mut s = Ssc::new(config);
            let mut x = 1u64;
            // Random overwrites over a working set sized near capacity.
            let span = s.data_capacity_pages() / 2;
            for _ in 0..3_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lba = x % span;
                s.write_clean(lba, &vec![x as u8; s.page_size()]).unwrap();
            }
            s.counters()
        };
        let flash = flashsim::FlashConfig::small_test();
        let mut ssc_cfg = SscConfig::ssc(flash);
        ssc_cfg.gc_reserve_blocks = 2;
        ssc_cfg.evict_batch = 2;
        let mut sscr_cfg = SscConfig::ssc_r(flash);
        sscr_cfg.gc_reserve_blocks = 2;
        sscr_cfg.evict_batch = 2;
        let base = run(ssc_cfg);
        let merged = run(sscr_cfg);
        assert!(
            merged.full_merges <= base.full_merges,
            "SE-Merge should not full-merge more: {} vs {}",
            merged.full_merges,
            base.full_merges
        );
    }

    /// A discard-mode read is a store-mode read minus the bytes: same cost
    /// or error (hits, misses, injected faults), same counters, same fault
    /// stream, op for op; its buffer comes back one page long with the
    /// caller's bytes untouched.
    #[test]
    fn discard_read_matches_a_store_read_minus_the_bytes() {
        let plan = flashsim::FaultPlan {
            seed: 0x51_4B,
            read_transient_ppm: 150_000,
            read_permanent_ppm: 50_000,
            read_corrupt_ppm: 50_000,
            ..flashsim::FaultPlan::default()
        };
        let config = SscConfig::small_test();
        let mut stored = Ssc::new(config);
        let mut discarded = Ssc::new(config.with_data_mode(flashsim::DataMode::Discard));
        let page = page(&stored, 7);
        for d in [&mut stored, &mut discarded] {
            d.set_fault_plan(plan);
            for lba in 0..48u64 {
                if lba % 3 == 0 {
                    d.write_dirty(lba, &page).unwrap();
                } else {
                    d.write_clean(lba, &page).unwrap();
                }
            }
        }
        let (mut buf, mut poisoned) = (PageBuf::new(), PageBuf::new());
        // LBAs 48..64 were never written: misses on both sides.
        for i in 0..400u64 {
            let lba = (i * 7) % 64;
            poisoned.fill_with(2 * page.len(), 0xA5);
            let want = stored.read_into(lba, &mut buf);
            assert_eq!(
                discarded.read_into(lba, &mut poisoned),
                want,
                "read {i} lba {lba}"
            );
            if want.is_ok() {
                assert_eq!(buf.as_slice(), &page[..]);
                assert_eq!(poisoned.to_vec(), vec![0xA5; page.len()], "read {i}");
            }
        }
        assert_eq!(stored.counters(), discarded.counters());
        assert_eq!(stored.fault_counters(), discarded.fault_counters());
        assert!(stored.fault_counters().total() > 0, "plan never fired");
        assert!(stored.counters().read_misses > 0);
    }
}

#[cfg(test)]
mod index_oracle_tests {
    use std::collections::HashMap;

    use super::*;
    use crate::config::VictimSelection;

    /// [`Ssc::check`], with the context of the step that broke it.
    fn check(s: &Ssc, at: impl std::fmt::Display) {
        if let Err(broken) = s.check() {
            panic!("{at}: {broken}");
        }
    }

    /// The test's own model of the dirty flags: every address in `span`
    /// that resolves carries the flag `dirty` predicts, and nothing
    /// outside `span` is mapped.
    fn assert_dirty_flags(s: &Ssc, span: u64, dirty: &HashMap<u64, bool>) {
        let ppb = s.ppb() as u64;
        assert!(s.maps.lbns().all(|(lbn, _)| lbn < span.div_ceil(ppb)));
        for lba in 0..span {
            if let Some(found) = s.maps.lookup(lba) {
                assert_eq!(found.dirty(), dirty[&lba], "dirty flag of {lba}");
            }
        }
    }

    /// The addresses to write so logical block `lbn` gets a log block to
    /// itself: its first page as often as the active log block has room,
    /// then the block start to end.
    fn whole_block_lbas(s: &Ssc, lbn: u64) -> impl Iterator<Item = u64> {
        let ppb = s.ppb() as u64;
        let first = lbn * ppb;
        let room = s.log_blocks.back().map_or(0, |&active| {
            ppb - u64::from(s.dev.block_state(active).unwrap().write_ptr)
        });
        std::iter::repeat_n(first, room as usize).chain(first..first + ppb)
    }

    fn step(rng: &mut u64) -> u64 {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *rng >> 33
    }

    /// Drives an arbitrary operation trace (all six interface ops plus
    /// whole-logical-block writes and clean or torn crash/recovery),
    /// checks the dirty flags after every operation, and runs
    /// [`Ssc::check`] after every `check_every`-th and after every
    /// recovery: 1 checks each mutation on its own (and each write of a
    /// whole logical block), and a longer stride lets several go by
    /// unchecked, as they do in the product.
    fn run_trace(policy: VictimSelection, seed: u64, ops: u64, check_every: u64) {
        let mut config = SscConfig::small_test();
        config.victim_selection = policy;
        let mut s = Ssc::new(config);
        let span = s.data_capacity_pages() * 2;
        let psize = s.page_size();
        let mut rng = seed;
        // The dirty flag each address must carry for as long as it stays
        // cached: set by the write that cached it, cleared by `clean`.
        // Merges and compaction keep it; silent eviction only uncaches.
        let mut dirty: HashMap<u64, bool> = HashMap::new();
        for i in 0..ops {
            let op = step(&mut rng) % 100;
            let lba = step(&mut rng) % span;
            let fill = vec![(i % 251) as u8; psize];
            match op {
                0..=69 => {
                    let as_dirty = op >= 45;
                    let written = if as_dirty {
                        s.write_dirty(lba, &fill)
                    } else {
                        s.write_clean(lba, &fill)
                    };
                    // An all-dirty cache refuses the write at some point of
                    // it; whatever is cached then is the older copy.
                    if written.is_ok() {
                        dirty.insert(lba, as_dirty);
                    }
                }
                70..=79 => {
                    s.clean(lba).unwrap();
                    dirty.insert(lba, false);
                }
                80..=86 => {
                    s.evict(lba).unwrap();
                }
                87..=90 => {
                    let _ = s.read(lba);
                }
                91..=97 => {
                    // A whole logical block start to end, after filling up
                    // the active log block: unless recycling compacts dirty
                    // pages into the fresh one first, the logical block has
                    // it to itself and it switch-merges.
                    for lba in whole_block_lbas(&s, lba / s.ppb() as u64) {
                        if s.write_clean(lba, &fill).is_ok() {
                            dirty.insert(lba, false);
                        }
                        if check_every == 1 {
                            check(&s, format_args!("op {i}, lba {lba}"));
                        }
                    }
                }
                _ => {
                    // Half the power failures also tear the final log flush.
                    if step(&mut rng).is_multiple_of(2) {
                        s.wal_crash_torn((step(&mut rng) % 200) as usize);
                    }
                    s.crash();
                    s.recover().unwrap();
                    check(&s, format_args!("op {i}, recovery"));
                    // Buffered cleans (and a torn tail's records) are lost:
                    // take the recovered flags as the new baseline.
                    dirty = (0..span)
                        .filter_map(|lba| Some((lba, s.maps.lookup(lba)?.dirty())))
                        .collect();
                }
            }
            if (i + 1) % check_every == 0 {
                check(&s, format_args!("op {i}"));
            }
            assert_dirty_flags(&s, span, &dirty);
        }
        check(&s, "end");
        assert!(
            s.counters().silent_evictions > 0,
            "trace too tame to exercise eviction"
        );
        assert!(s.counters().switch_merges > 0 && s.counters().full_merges > 0);
    }

    #[test]
    fn index_matches_scan_under_utilization_policy() {
        run_trace(VictimSelection::Utilization, 0xBEEF_0001, 700, 1);
        run_trace(VictimSelection::Utilization, 0xBEEF_0001, 700, 23);
    }

    #[test]
    fn index_matches_scan_under_lrw_policy() {
        run_trace(VictimSelection::LeastRecentlyWritten, 0xBEEF_0002, 700, 1);
        run_trace(VictimSelection::LeastRecentlyWritten, 0xBEEF_0002, 700, 23);
    }

    #[test]
    fn index_matches_scan_under_utilization_then_recency_policy() {
        run_trace(VictimSelection::UtilizationThenRecency, 0xBEEF_0003, 700, 1);
        run_trace(
            VictimSelection::UtilizationThenRecency,
            0xBEEF_0003,
            700,
            23,
        );
    }

    /// `small_test` with 64 erase blocks: room for a 16-block hot set and
    /// the log with the free pool never near the eviction threshold.
    fn roomy() -> Ssc {
        let mut config = SscConfig::small_test().with_data_mode(flashsim::DataMode::Discard);
        config.flash.geometry = flashsim::Geometry::new(2, 32, 8, 512, 16);
        Ssc::new(config)
    }

    /// Writes logical block `lbn` as clean data so that it switch-merges
    /// once the log recycles that far (see [`whole_block_lbas`]).
    fn write_whole_block(s: &mut Ssc, lbn: u64) {
        let fill = vec![0u8; s.page_size()];
        for lba in whole_block_lbas(s, lbn) {
            s.write_clean(lba, &fill).unwrap();
        }
    }

    #[test]
    fn clean_table_never_holds_more_slots_than_the_device_has_blocks() {
        let mut s = roomy();
        let blocks = s.config.total_blocks() as usize;
        let hot = 16 * s.ppb() as u64;
        let fill = vec![0u8; s.page_size()];
        let mut rng = 0xBEEF_0004;
        let mut most = 0;
        for i in 0..20_000 {
            let lba = step(&mut rng) % hot;
            let done = match i % 10 {
                0 => s.evict(lba),
                1 => s.clean(lba),
                2 => s.write_dirty(lba, &fill),
                _ => s.write_clean(lba, &fill),
            };
            done.unwrap();
            let clean = s.maps.clean_blocks();
            let rows = clean.rows().unwrap().len();
            most = most.max(rows);
            assert!(rows <= s.maps.block_count(), "op {i}");
            assert_eq!(clean.slots(), blocks, "op {i}");
        }
        assert!(most > 0, "no clean data block was ever filed");
        s.crash();
        s.recover().unwrap();
        // A restored table is sized from the checkpoint and grows only to
        // cover a physical block that holds a clean data block.
        assert!(s.maps.clean_blocks().slots() <= blocks, "recovered");
        check(&s, "end");
    }

    #[test]
    fn a_block_unmapped_page_by_page_and_mapped_again_leaves_one_slot() {
        let mut s = roomy();
        let ppb = s.ppb() as u64;
        let mut filler = 100;
        let mut map_block_0 = |s: &mut Ssc| {
            write_whole_block(s, 0);
            while s.maps.block(0).is_none() {
                write_whole_block(s, filler);
                filler += 1;
            }
        };
        let slots_of_0 = |s: &Ssc| {
            let rows = s.maps.clean_blocks().rows().unwrap();
            rows.iter().filter(|&&(_, lbn, _)| lbn == 0).count()
        };
        map_block_0(&mut s);
        check(&s, "block 0 mapped");
        assert_eq!(slots_of_0(&s), 1);
        // Unmap the block page by page: each page moves it one bucket down
        // until the last one unfiles it.
        for lba in 0..ppb {
            s.evict(lba).unwrap();
            check(&s, format_args!("lba {lba} evicted"));
        }
        assert!(s.maps.block(0).is_none());
        assert_eq!(slots_of_0(&s), 0);
        map_block_0(&mut s);
        assert_eq!(slots_of_0(&s), 1);
        check(&s, "end");
    }

    #[test]
    fn dirty_blocks_survive_index_driven_eviction_pressure() {
        let mut s = Ssc::new(SscConfig::small_test());
        let dirty_page = vec![0xDDu8; s.page_size()];
        let ppb = s.ppb() as u64;
        // Park dirty data across two logical blocks, then flood with clean
        // traffic so every eviction decision flows through the table.
        for lba in 0..2 * ppb {
            s.write_dirty(lba, &dirty_page).unwrap();
        }
        let capacity = s.data_capacity_pages();
        for lba in 1000..1000 + capacity * 3 {
            s.write_clean(lba, &vec![lba as u8; s.page_size()]).unwrap();
        }
        assert!(s.counters().silent_evictions > 0);
        for lba in 0..2 * ppb {
            assert_eq!(
                s.read(lba).unwrap().0,
                dirty_page,
                "dirty lba {lba} was silently evicted"
            );
        }
        check(&s, "end");
    }
}
