//! The SSC device: interface operations, internal FTL, silent eviction.

use std::collections::VecDeque;

use flashsim::{set_bits, FlashCounters, FlashDevice, OobData, Pbn, Ppn, WearStats};
use ftl::FreeBlockPool;
use simkit::{Duration, PageBuf};
use sparsemap::{memory, MapMemory};

use crate::checkpoint::CheckpointStore;
use crate::config::{ConsistencyMode, EvictionPolicy, SscConfig};
use crate::error::SscError;
use crate::evict_index::CleanBlockIndex;
use crate::map::{BlockEntry, PagePtr, Removed, SscMaps};
use crate::wal::{LogRecord, Wal};
use crate::Result;

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
    /// Ordered mirror of the clean block-level entries, so victim selection
    /// is an ordered lookup instead of a full-map scan. Current only for
    /// LBNs not in `index_stale`: read it through [`Ssc::flush_index`]. See
    /// [`crate::evict_index`].
    clean_index: CleanBlockIndex,
    /// LBNs whose block-level entry changed since `clean_index` last saw
    /// them (duplicates allowed); never longer than the device has blocks.
    index_stale: Vec<u64>,
}

impl Ssc {
    /// Creates a freshly erased SSC.
    pub fn new(config: SscConfig) -> Self {
        let dev = FlashDevice::new(config.flash, config.data_mode);
        let pool = FreeBlockPool::full(dev.geometry());
        let planes = dev.geometry().planes();
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
            clean_index: CleanBlockIndex::new(planes),
            index_stale: Vec::new(),
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

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Marks `lbn`'s eviction-index key stale. Call after any mutation that
    /// can change its block-level entry (insert/remove/mask/clean); the key
    /// is re-derived by the next [`Ssc::flush_index`]. The list is flushed
    /// once it is as long as the device has blocks — the most keys the index
    /// itself can hold — so it is bounded however rarely eviction runs.
    fn index_mark(&mut self, lbn: u64) {
        self.index_stale.push(lbn);
        if self.index_stale.len() as u64 >= self.config.total_blocks() {
            self.flush_index();
        }
    }

    /// Brings the eviction index up to date — re-derives the key of every
    /// marked LBN from its block-level entry and the device state as they
    /// stand — and returns it. The only way `clean_index` is read.
    fn flush_index(&mut self) -> &CleanBlockIndex {
        self.index_stale.sort_unstable();
        self.index_stale.dedup();
        for i in 0..self.index_stale.len() {
            let lbn = self.index_stale[i];
            match self.maps.block(lbn) {
                Some(entry) if entry.is_clean() => {
                    let score = self.victim_score(&entry);
                    let plane = self.dev.geometry().plane_of(Pbn(entry.pbn));
                    self.clean_index.upsert(lbn, score, plane);
                }
                _ => self.clean_index.remove(lbn),
            }
        }
        self.index_stale.clear();
        &self.clean_index
    }

    /// Rebuilds the eviction index from scratch — needed when the maps are
    /// replaced wholesale (crash wipe, roll-forward recovery) rather than
    /// mutated through the tracked paths.
    pub(crate) fn rebuild_clean_index(&mut self) {
        self.clean_index = CleanBlockIndex::new(self.dev.geometry().planes());
        self.index_stale.clear();
        self.index_stale
            .extend(self.maps.blocks().map(|(lbn, _)| lbn));
        self.flush_index();
    }

    fn ppb(&self) -> u32 {
        self.maps.ppb()
    }

    fn check_size(&self, data: &[u8]) -> Result<()> {
        if data.len() == self.page_size() {
            Ok(())
        } else {
            Err(SscError::BadPageSize {
                got: data.len(),
                expected: self.page_size(),
            })
        }
    }

    fn logging_enabled(&self) -> bool {
        self.config.consistency != ConsistencyMode::None
    }

    fn log_append(&mut self, record: LogRecord) {
        if self.logging_enabled() {
            self.wal.append(record);
        }
    }

    /// Synchronous commit of every buffered record (atomic append).
    fn commit_sync(&mut self) -> Result<Duration> {
        if self.logging_enabled() {
            if self.wal.buffered() > 0 {
                // Power fails before the buffered records reach the media.
                self.crash_point(CrashSite::GroupCommit)?;
            }
            let cost = self.wal.flush();
            if !cost.is_zero() {
                self.erases_at_last_flush = self.dev.counters().erases;
            }
            Ok(cost)
        } else {
            Ok(Duration::ZERO)
        }
    }

    /// Barrier flush: synchronously commits any buffered log records.
    /// Public so a sharded front-end can drain every shard's group-commit
    /// buffer at an explicit sync point.
    ///
    /// # Errors
    ///
    /// [`SscError::PowerLoss`] if a scripted crash is armed at the
    /// group-commit site.
    pub fn commit_log(&mut self) -> Result<Duration> {
        self.commit_sync()
    }

    /// Group commit: flush only once enough records have accumulated.
    fn maybe_group_commit(&mut self) -> Result<Duration> {
        if self.logging_enabled() && self.wal.buffered() >= self.config.group_commit_records {
            self.commit_sync()
        } else {
            Ok(Duration::ZERO)
        }
    }

    /// Checkpoint policy: log larger than the configured fraction of the
    /// checkpoint, or the write-interval reached.
    fn maybe_checkpoint(&mut self) -> Result<Duration> {
        if !self.logging_enabled() {
            return Ok(Duration::ZERO);
        }
        let base_lsn = self.ckpt.latest().map(|c| c.lsn).unwrap_or(0);
        // The size half of the policy compares bytes appended past the base
        // checkpoint against a threshold derived from that checkpoint's
        // size. Both the base offset and the threshold only change when a
        // new checkpoint lands, so the hot path is one comparison of the
        // monotonic appended-bytes counter against a memoized trigger —
        // exactly equivalent to recomputing `bytes_since` and the scaled
        // threshold every write.
        let trigger = match self.ckpt_trigger {
            Some((lsn, trigger)) if lsn == base_lsn => trigger,
            _ => {
                let threshold = (self.ckpt.latest_bytes() as f64 * self.config.checkpoint_log_ratio)
                    .max(self.page_size() as f64) as u64;
                let base_offset = self.wal.appended_bytes() - self.wal.bytes_since(base_lsn);
                let trigger = base_offset + threshold;
                self.ckpt_trigger = Some((base_lsn, trigger));
                trigger
            }
        };
        if self.wal.appended_bytes() <= trigger
            && self.writes_since_ckpt < self.config.checkpoint_write_interval
        {
            return Ok(Duration::ZERO);
        }
        // Power fails after deciding to checkpoint but before the new
        // snapshot exists: both old slots stay intact.
        self.crash_point(CrashSite::Checkpoint)?;
        let mut cost = self.commit_sync()?;
        let lsn = self.wal.durable_lsn();
        cost += self.ckpt.write(&self.maps, lsn);
        // Power fails mid-slot-write: the fresh snapshot is torn. Recovery
        // must detect the bad CRC and fall back to the older slot.
        if self.crash_fires(CrashSite::CheckpointTorn) {
            self.ckpt.corrupt_latest();
            return Err(SscError::PowerLoss);
        }
        // Keep the log long enough for the *older* checkpoint slot: if the
        // newest snapshot turns out corrupted, recovery falls back to the
        // previous one and must be able to roll forward from its LSN.
        if let Some(previous) = self.ckpt.previous() {
            let safe_lsn = previous.lsn;
            self.wal.truncate_through(safe_lsn);
        }
        self.writes_since_ckpt = 0;
        self.counters.checkpoints += 1;
        Ok(cost)
    }

    /// Erases `pbn` and returns it to the pool. A worn-out or erase-failed
    /// block is retired instead — permanently removed from circulation
    /// (capacity shrinks, the cache keeps going) rather than surfacing an
    /// error.
    fn retire_block(&mut self, pbn: Pbn) -> Result<Duration> {
        let cost = match self.dev.erase_block(pbn) {
            Ok(cost) => cost,
            Err(flashsim::FlashError::WornOut(_) | flashsim::FlashError::EraseFailed(_)) => {
                self.counters.blocks_retired += 1;
                return Ok(Duration::ZERO);
            }
            Err(e) => return Err(e.into()),
        };
        let erases = self.dev.block_state(pbn)?.erase_count;
        let geometry = *self.dev.geometry();
        self.pool.release(pbn, erases, &geometry);
        Ok(cost)
    }

    /// Invalidates every valid page of `pbn` (a block whose mapping was just
    /// dropped or replaced) and returns how many there were.
    fn invalidate_valid_pages(&mut self, pbn: Pbn) -> Result<u64> {
        let first = self.dev.geometry().first_page(pbn).raw();
        let valid = self.dev.valid_mask(pbn)?;
        for page in set_bits(valid) {
            self.dev.invalidate_page(Ppn(first + u64::from(page)))?;
        }
        Ok(u64::from(valid.count_ones()))
    }

    /// Invalidates the current copy of `lba` (both levels), appending the
    /// matching log records.
    fn invalidate_lba(&mut self, lba: u64) -> Result<()> {
        match self.maps.remove_lba(lba) {
            Some(Removed::Page(ptr)) => {
                self.dev.invalidate_page(ptr.ppn())?;
                self.log_append(LogRecord::RemovePage { lba });
            }
            Some(Removed::BlockPage { pbn, survivor }) => {
                let (lbn, offset) = self.maps.split(lba);
                let ppn = Ppn(pbn * self.ppb() as u64 + offset as u64);
                self.dev.invalidate_page(ppn)?;
                self.index_mark(lbn);
                self.log_append(LogRecord::MaskBlockPage { lba });
                if survivor.is_none() {
                    // Last live page gone: the physical block is reclaimable
                    // once the mask record is durable.
                    self.pending_retire.push(Pbn(pbn));
                }
            }
            None => {}
        }
        Ok(())
    }

    /// Erases blocks emptied by earlier invalidations. Callers invoke this
    /// only after the corresponding records were committed (or with logging
    /// off).
    fn drain_retires(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        while let Some(pbn) = self.pending_retire.pop() {
            cost += self.retire_block(pbn)?;
        }
        Ok(cost)
    }

    // ------------------------------------------------------------------
    // The six interface operations (§4.2.1).
    // ------------------------------------------------------------------

    /// `write-dirty`: insert or update `lba` with dirty data. Durable (data
    /// *and* mapping) before the call returns.
    ///
    /// # Errors
    ///
    /// [`SscError::BadPageSize`], [`SscError::LbaOutOfRange`] (`lba` is
    /// `u64::MAX`), [`SscError::OutOfSpace`] (cache full of dirty data), or a
    /// flash fault.
    pub fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let mut cost = self.insert(lba, data, true)?;
        cost += self.commit_sync()?;
        cost += self.drain_retires()?;
        cost += self.bookkeeping()?;
        self.counters.writes_dirty += 1;
        Ok(cost)
    }

    /// `write-clean`: insert or update `lba` with clean data. Buffered
    /// unless it replaces existing data (the mapping change must be durable
    /// so a later read can never see the stale version); in
    /// [`ConsistencyMode::CleanAndDirty`] it always commits synchronously.
    ///
    /// # Errors
    ///
    /// Same as [`Ssc::write_dirty`].
    pub fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let had_old = self.maps.lookup(lba).is_some();
        let mut cost = self.insert(lba, data, false)?;
        let must_sync = had_old || self.config.consistency == ConsistencyMode::CleanAndDirty;
        cost += if must_sync {
            self.commit_sync()?
        } else {
            self.maybe_group_commit()?
        };
        cost += self.drain_retires()?;
        cost += self.bookkeeping()?;
        self.counters.writes_clean += 1;
        Ok(cost)
    }

    /// `read` into the caller's buffer, resized to one page (in
    /// `DataMode::Discard` its bytes are left as they were): the
    /// allocation-free form of [`Ssc::read`].
    ///
    /// # Errors
    ///
    /// [`SscError::NotPresent`] on a miss (the normal cache-miss signal).
    #[inline]
    pub fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.counters.host_reads += 1;
        match self.maps.lookup(lba) {
            Some(resolved) => Ok(self.dev.read_page_into(resolved.ppn(), buf)?),
            None => {
                self.counters.read_misses += 1;
                Err(SscError::NotPresent(lba))
            }
        }
    }

    /// `read`: return the cached data for `lba`. Convenience wrapper over
    /// [`Ssc::read_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ssc::read_into`].
    pub fn read(&mut self, lba: u64) -> Result<(Vec<u8>, Duration)> {
        let mut buf = PageBuf::new();
        let cost = self.read_into(lba, &mut buf)?;
        Ok((buf.into_vec(), cost))
    }

    /// `evict`: force `lba` out of the cache; a subsequent read returns
    /// not-present. Durable before the call returns, like `write-dirty`.
    /// Evicting an absent block is a successful no-op.
    ///
    /// # Errors
    ///
    /// Flash faults only.
    pub fn evict(&mut self, lba: u64) -> Result<Duration> {
        let mut cost = self.dev.timing().metadata_cost();
        self.invalidate_lba(lba)?;
        cost += self.commit_sync()?;
        // If the eviction emptied a data block, reclaim it (records are
        // already durable, so the erase cannot expose stale mappings).
        cost += self.drain_retires()?;
        cost += self.bookkeeping()?;
        self.counters.evict_ops += 1;
        Ok(cost)
    }

    /// `clean`: mark `lba` eligible for silent eviction. Asynchronous —
    /// after a crash, cleaned blocks may return to their dirty state.
    /// Cleaning an absent block is a successful no-op.
    ///
    /// # Errors
    ///
    /// Flash faults only (none in practice; the signature is uniform with
    /// the other operations).
    pub fn clean(&mut self, lba: u64) -> Result<Duration> {
        let mut cost = self.dev.timing().metadata_cost();
        // Power fails between a manager's destage write and this
        // acknowledgement: the block stays dirty, destage is not recorded.
        self.crash_point(CrashSite::Clean)?;
        if let Some(level) = self.maps.set_clean(lba) {
            // A log page's flag is not the eviction index's business.
            if level.is_some() {
                let (lbn, _) = self.maps.split(lba);
                self.index_mark(lbn);
            }
            self.log_append(LogRecord::SetClean { lba });
            cost += self.maybe_group_commit()?;
        }
        self.counters.clean_ops += 1;
        Ok(cost)
    }

    /// `exists`: the dirty blocks within `[start, end)`. Served from device
    /// memory — no flash scan. Used by the write-back cache manager to
    /// rebuild its dirty-block table after a crash.
    pub fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        self.counters.exists_ops += 1;
        (
            self.maps.dirty_in_range(start, end),
            self.dev.timing().metadata_cost(),
        )
    }

    /// Per-write bookkeeping: group commit high-water mark and checkpoint
    /// policy.
    fn bookkeeping(&mut self) -> Result<Duration> {
        self.writes_since_ckpt += 1;
        Ok(self.maybe_group_commit()? + self.maybe_checkpoint()?)
    }

    // ------------------------------------------------------------------
    // Internal FTL: log-structured writes, merges, silent eviction.
    // ------------------------------------------------------------------

    /// Common insert path for both write flavours (excluding commit policy).
    fn insert(&mut self, lba: u64, data: &[u8], dirty: bool) -> Result<Duration> {
        self.check_size(data)?;
        // The OOB area reserves this address for internal pages.
        if lba == u64::MAX {
            return Err(SscError::LbaOutOfRange(lba));
        }
        let mut cost = Duration::ZERO;
        let mut active = self.log_block_with_space(&mut cost)?;
        self.invalidate_lba(lba)?;
        // An injected program failure consumes the target page; re-issue the
        // write to the next free page (recycling as needed) until it lands.
        let ppn = loop {
            let seq = self.next_seq();
            match self
                .dev
                .program_next(active, data, OobData::for_lba(lba, dirty, seq))
            {
                Ok((ppn, wcost)) => {
                    cost += wcost;
                    break ppn;
                }
                Err(flashsim::FlashError::ProgramFailed(_)) => {
                    self.counters.program_reissues += 1;
                    active = self.log_block_with_space(&mut cost)?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.maps.insert_page(lba, PagePtr::new(ppn, dirty));
        self.log_append(LogRecord::InsertPage {
            lba,
            ppn: ppn.raw(),
            dirty,
        });
        Ok(cost)
    }

    /// Ensures a log block with free space exists, recycling and evicting as
    /// needed. The fresh block is allocated *before* the oldest log block is
    /// recycled so the recycler can compact sparse dirty pages forward into
    /// it.
    fn log_block_with_space(&mut self, cost: &mut Duration) -> Result<Pbn> {
        // Recycling compacts dirty pages forward into the newest log block,
        // which can fill it before the caller writes — hence the loop.
        for _ in 0..64 {
            if let Some(&active) = self.log_blocks.back() {
                if !self.dev.block_state(active)?.is_full(self.ppb()) {
                    return Ok(active);
                }
            }
            if self.pool.len() <= self.config.gc_reserve_blocks {
                *cost += self.make_free_space()?;
            }
            let fresh = self.pool.alloc().ok_or(SscError::OutOfSpace)?;
            self.log_blocks.push_back(fresh);
            if self.log_blocks.len() as u64 > self.config.log_block_limit() {
                *cost += self.recycle_log()?;
            }
        }
        // Unreachable unless every recycle round re-fills the fresh block
        // with circulating dirty data — the cache is effectively all dirty.
        Err(SscError::OutOfSpace)
    }

    /// Recycles the oldest log block with a switch merge when possible and a
    /// full merge otherwise.
    fn recycle_log(&mut self) -> Result<Duration> {
        // Power fails as GC starts relocating the oldest log block.
        self.crash_point(CrashSite::Merge)?;
        let victim = self
            .log_blocks
            .pop_front()
            .expect("recycle with no log blocks");
        match self.switch_candidate(victim)? {
            Some(lbn) => self.switch_merge(victim, lbn),
            None => self.full_merge(victim),
        }
    }

    /// A log block qualifies for a switch merge when it holds exactly one
    /// LBN, fully valid, in logical order.
    fn switch_candidate(&self, victim: Pbn) -> Result<Option<u64>> {
        let ppb = self.ppb() as u64;
        if u64::from(self.dev.block_state(victim)?.valid_pages) != ppb {
            return Ok(None);
        }
        let mut valid = self.dev.valid_pages_iter(victim)?;
        let Some(first_lba) = valid
            .next()
            .and_then(|(_, oob)| oob.lba())
            .filter(|lba| lba % ppb == 0)
        else {
            return Ok(None);
        };
        Ok(valid
            .zip(first_lba + 1..)
            .all(|((_, oob), lba)| oob.lba() == Some(lba))
            .then_some(first_lba / ppb))
    }

    /// Switch merge: the victim log block becomes the LBN's data block with
    /// no copying ("which convert a sequentially written log block into a
    /// data block without copying data", §4.3).
    fn switch_merge(&mut self, victim: Pbn, lbn: u64) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let ppb = self.ppb() as u64;
        let mut dirty = 0u64;
        for (offset, ptr) in self.maps.take_log(lbn) {
            if ptr.dirty() {
                dirty |= 1 << offset;
            }
            let lba = lbn * ppb + u64::from(offset);
            self.log_append(LogRecord::RemovePage { lba });
        }
        let valid = if ppb == 64 {
            u64::MAX
        } else {
            (1u64 << ppb) - 1
        };
        let entry = BlockEntry::new(victim.raw(), valid, dirty);
        let old = self.maps.insert_block(lbn, entry);
        self.index_mark(lbn);
        self.log_append(LogRecord::InsertBlock {
            lbn,
            pbn: victim.raw(),
            valid,
            dirty,
        });
        // Make the re-mapping durable before destroying the old copies.
        cost += self.commit_sync()?;
        if let Some(old_entry) = old {
            self.invalidate_valid_pages(Pbn(old_entry.pbn))?;
            cost += self.retire_block(Pbn(old_entry.pbn))?;
        }
        self.counters.switch_merges += 1;
        Ok(cost)
    }

    /// Full merge of a victim log block. Logical blocks with enough live
    /// pages are rebuilt into data blocks; for the rest, the cache exploits
    /// its freedom (§4.3): clean pages are *silently evicted* instead of
    /// copied, and the (few) dirty pages are compacted forward into the
    /// active log block. Thin logical blocks therefore never consume a
    /// whole erase block.
    fn full_merge(&mut self, victim: Pbn) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let ppb = self.ppb() as u64;
        // Sorted LBAs of the victim's valid pages, in the reusable scratch
        // vector (taken out of `self` for the merge; an early `?` return
        // just costs a future re-growth). Grouping the sorted list by LBN
        // visits logical blocks in ascending order, and within a group the
        // candidates come out in ascending page offset — the same visit
        // order as a `0..ppb` scan.
        let mut lbas = std::mem::take(&mut self.lba_scratch);
        lbas.clear();
        lbas.extend(
            self.dev
                .valid_pages_iter(victim)?
                .filter_map(|(_, oob)| oob.lba()),
        );
        lbas.sort_unstable();
        lbas.dedup();
        let mut next = 0;
        while next < lbas.len() {
            let lbn = lbas[next] / ppb;
            let group_start = next;
            while next < lbas.len() && lbas[next] / ppb == lbn {
                next += 1;
            }
            // Live pages of this LBN across its data block and the log.
            let live = self.maps.lbn(lbn).map_or(0, |e| e.live_pages());
            if live >= self.config.min_merge_pages {
                cost += self.merge_lbn(lbn)?;
                continue;
            }
            // Thin LBN: drop clean pages, compact dirty ones forward. Only
            // pages physically in the victim need handling, and every such
            // page's LBA is in the candidate group (OOB metadata names the
            // mapped LBA, and a mapped PPN is always a valid page), so the
            // group replaces the old probe over every offset of the LBN.
            for &lba in &lbas[group_start..next] {
                let Some(ptr) = self.maps.page(lba) else {
                    continue;
                };
                // Live pages in younger log blocks stay where they are.
                if self.dev.geometry().block_of(ptr.ppn()) != victim {
                    continue;
                }
                if ptr.dirty() {
                    cost += self.compact_forward(lba, ptr)?;
                } else {
                    self.maps.remove_page(lba);
                    self.log_append(LogRecord::RemovePage { lba });
                    self.dev.invalidate_page(ptr.ppn())?;
                    self.counters.silently_evicted_pages += 1;
                }
            }
        }
        self.lba_scratch = lbas;
        // Durable un-mappings before the erase destroys the old copies.
        cost += self.commit_sync()?;
        debug_assert_eq!(self.dev.block_state(victim)?.valid_pages, 0);
        cost += self.retire_block(victim)?;
        self.counters.full_merges += 1;
        Ok(cost)
    }

    /// Moves one live dirty page out of a victim log block into the newest
    /// log block (a log-structured copy-forward).
    fn compact_forward(&mut self, lba: u64, ptr: PagePtr) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        // Charge the read, then copy device-internally: same timing and
        // counters as read + program, no host round-trip for the payload.
        cost += self.dev.read_page_charge(ptr.ppn())?;
        // The newest log block was allocated before recycling began; if
        // compaction filled it, take another (pool reserve covers this).
        let dest = match self.log_blocks.back() {
            Some(&b) if !self.dev.block_state(b)?.is_full(self.ppb()) => b,
            _ => {
                let fresh = self.pool.alloc().ok_or(SscError::OutOfSpace)?;
                self.log_blocks.push_back(fresh);
                fresh
            }
        };
        let seq = self.next_seq();
        let (new_ppn, wcost) =
            self.dev
                .copy_page_from(dest, ptr.ppn(), OobData::for_lba(lba, true, seq))?;
        cost += wcost;
        self.dev.invalidate_page(ptr.ppn())?;
        self.maps.insert_page(lba, PagePtr::new(new_ppn, true));
        self.log_append(LogRecord::RemovePage { lba });
        self.log_append(LogRecord::InsertPage {
            lba,
            ppn: new_ppn.raw(),
            dirty: true,
        });
        self.counters.gc_copies += 1;
        Ok(cost)
    }

    /// Allocates a data block for a merge, silently evicting clean blocks
    /// first when the pool is nearly empty. Merges can consume up to one
    /// block per logical block in the victim, so they cannot rely on the
    /// caller's headroom check alone.
    fn alloc_for_merge(&mut self, cost: &mut Duration) -> Result<Pbn> {
        if self.pool.len() <= 1 {
            *cost += self.evict_clean_batch()?;
        }
        self.pool.alloc().ok_or(SscError::OutOfSpace)
    }

    /// Copies the newest version of every cached page of `lbn` into a fresh
    /// data block, preserving dirty flags.
    fn merge_lbn(&mut self, lbn: u64) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let ppb = self.ppb() as u64;
        // Allocate before resolving sources: the allocation may trigger
        // silent eviction, which can remove (clean) data blocks — including
        // this LBN's.
        let fresh = self.alloc_for_merge(&mut cost)?;
        // Newest copy of each offset: log page first, then old data block.
        let (old, logged) = match self.maps.lbn(lbn) {
            Some(entry) => (entry.block, entry.log.bits()),
            None => (None, 0),
        };
        let in_data = old.map_or(0, |e| e.valid);
        debug_assert_eq!(logged & in_data, 0, "two valid copies of one LBA");
        let live = logged | in_data;
        if live == 0 {
            // Nothing live for this LBN; return the unused block.
            let erases = self.dev.block_state(fresh)?.erase_count;
            let geometry = *self.dev.geometry();
            self.pool.release(fresh, erases, &geometry);
            if self.maps.remove_block(lbn).is_some() {
                self.index_mark(lbn);
                self.log_append(LogRecord::RemoveBlock { lbn });
                cost += self.commit_sync()?;
                if let Some(e) = old {
                    cost += self.retire_block(Pbn(e.pbn))?;
                }
            }
            return Ok(cost);
        }
        // Rebuild offsets `0..=last live`: the old data block's pages, over
        // which go the log's — the whole row is taken, the copy supersedes
        // it. The scratch vector is taken out of `self` for the duration of
        // the merge (it starts and ends empty, so an early `?` return just
        // costs a future re-growth).
        let mut overlay = std::mem::take(&mut self.overlay_scratch);
        let mut dirty = old.map_or(0, |e| e.dirty);
        for (offset, ptr) in self.maps.take_log(lbn) {
            self.log_append(LogRecord::RemovePage {
                lba: lbn * ppb + u64::from(offset),
            });
            if ptr.dirty() {
                dirty |= 1 << offset;
            }
            overlay.push((offset, ptr.ppn()));
        }
        // One device-internal rebuild: a multi-plane batch read of the
        // sources (§5's multi-plane device) and one program per offset; the
        // payloads never cross to the host.
        let len = (u64::BITS - live.leading_zeros()) as usize;
        let seq0 = self.seq;
        let base = old.map(|e| (Pbn(e.pbn), e.valid));
        cost += self.dev.rebuild_block(fresh, len, base, &overlay, |i| {
            let dirty = dirty & (1 << i) != 0;
            OobData::for_lba(lbn * ppb + i as u64, dirty, seq0 + 1 + i as u64)
        })?;
        self.seq += len as u64;
        self.counters.gc_copies += len as u64;
        // Zero-filled holes are physically present but never mapped.
        let first = self.dev.geometry().first_page(fresh).raw();
        for hole in set_bits(!live & (u64::MAX >> live.leading_zeros())) {
            self.dev.invalidate_page(Ppn(first + u64::from(hole)))?;
        }
        overlay.clear();
        self.overlay_scratch = overlay;
        // Power fails mid-merge: pages were copied and their sources
        // invalidated in device RAM, but the new block mapping is not yet
        // durable. Recovery must roll back to the durable mappings.
        self.crash_point(CrashSite::Merge)?;
        let entry = BlockEntry::new(fresh.raw(), live, dirty);
        self.maps.insert_block(lbn, entry);
        self.index_mark(lbn);
        self.log_append(LogRecord::InsertBlock {
            lbn,
            pbn: fresh.raw(),
            valid: live,
            dirty,
        });
        // Durable before the old block is erased.
        cost += self.commit_sync()?;
        if let Some(e) = old {
            debug_assert_eq!(self.dev.block_state(Pbn(e.pbn))?.valid_pages, 0);
            cost += self.retire_block(Pbn(e.pbn))?;
        }
        Ok(cost)
    }

    /// Silent eviction (§4.3): free space by *dropping* clean data blocks
    /// instead of copying them; fall back to log recycling when no clean
    /// candidate exists.
    fn make_free_space(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let mut rounds = 0u64;
        while self.pool.len() <= self.config.gc_reserve_blocks {
            rounds += 1;
            if rounds > 4 * self.config.total_blocks() {
                return Err(SscError::OutOfSpace);
            }
            let evicted = self.evict_clean_batch()?;
            if evicted.is_zero() && self.flush_index().is_empty() {
                // "If there are not enough candidate blocks to provide free
                // space, it reverts to regular garbage collection."
                self.counters.eviction_fallbacks += 1;
                if self.log_blocks.len() > 1 {
                    cost += self.recycle_log()?;
                } else {
                    return Err(SscError::OutOfSpace);
                }
                continue;
            }
            cost += evicted;
        }
        Ok(cost)
    }

    /// One batch of silent eviction: drop up to `evict_batch` clean data
    /// blocks. Returns zero time when no candidate exists. Never merges or
    /// allocates, so it is safe to call from inside a merge.
    fn evict_clean_batch(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        for (lbn, entry) in self.select_eviction_victims() {
            // Log the un-mapping and make it durable before erasing.
            self.maps.remove_block(lbn);
            self.index_mark(lbn);
            self.log_append(LogRecord::RemoveBlock { lbn });
            cost += self.commit_sync()?;
            let pbn = Pbn(entry.pbn);
            self.counters.silently_evicted_pages += self.invalidate_valid_pages(pbn)?;
            cost += self.retire_block(pbn)?;
            self.counters.silent_evictions += 1;
        }
        Ok(cost)
    }

    /// Picks up to `evict_batch` clean data blocks by the configured
    /// victim selector, preferring the plane with the fewest free blocks
    /// ("selects a flash plane to clean and then selects the top-k victim
    /// blocks"). Served by the index, brought up to date first; must agree
    /// with [`Ssc::select_eviction_victims_scan`] (oracle-tested).
    fn select_eviction_victims(&mut self) -> Vec<(u64, BlockEntry)> {
        let preferred_plane = self.pool.emptiest_plane();
        let batch = self.config.evict_batch;
        self.flush_index()
            .select_victims(preferred_plane, batch)
            .into_iter()
            .map(|lbn| {
                let entry = self.maps.block(lbn).expect("indexed lbn is mapped");
                (lbn, entry)
            })
            .collect()
    }

    /// Brute-force rebuild-and-sort victim selection — the reference
    /// implementation the index is checked against. Retained solely for the
    /// index/scan oracle tests.
    #[cfg(test)]
    pub(crate) fn select_eviction_victims_scan(&self) -> Vec<(u64, BlockEntry)> {
        let geometry = self.dev.geometry();
        let preferred_plane = self.pool.emptiest_plane();
        let mut candidates: Vec<(u64, u64, bool, u64, BlockEntry)> = self
            .maps
            .blocks()
            .filter(|(_, e)| e.is_clean())
            .map(|(lbn, e)| {
                let plane = geometry.plane_of(Pbn(e.pbn));
                let primary = self.victim_score(e);
                (primary.0, primary.1, plane != preferred_plane, lbn, *e)
            })
            .collect();
        // Lowest score first; same-plane victims preferred; LBN for
        // determinism.
        candidates.sort_by_key(|&(a, b, off_plane, lbn, _)| (a, b, off_plane, lbn));
        candidates
            .into_iter()
            .take(self.config.evict_batch)
            .map(|(_, _, _, lbn, e)| (lbn, e))
            .collect()
    }

    /// Two-level victim score (smaller evicts first) per the configured
    /// [`crate::config::VictimSelection`].
    fn victim_score(&self, entry: &BlockEntry) -> (u64, u64) {
        let newest_seq = || -> u64 {
            self.dev
                .valid_pages_iter(Pbn(entry.pbn))
                .map(|pages| pages.map(|(_, oob)| oob.seq()).max().unwrap_or(0))
                .unwrap_or(0)
        };
        match self.config.victim_selection {
            crate::config::VictimSelection::Utilization => (entry.valid_count() as u64, 0),
            crate::config::VictimSelection::LeastRecentlyWritten => (newest_seq(), 0),
            crate::config::VictimSelection::UtilizationThenRecency => {
                let quarter = (self.ppb() / 4).max(1);
                ((entry.valid_count() / quarter) as u64, newest_seq())
            }
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
}

impl Ssc {
    /// Test/debug helper: block-level entries.
    pub fn debug_block_entries(&self) -> Vec<(u64, u64, u32, bool)> {
        self.maps
            .blocks()
            .map(|(lbn, e)| (lbn, e.pbn, e.valid_count(), e.is_clean()))
            .collect()
    }

    /// Test/debug helper: page-level entry count.
    pub fn debug_page_entries(&self) -> usize {
        self.maps.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Asserts the flushed index agrees with its brute-force scan reference:
    /// eviction selection and the full index contents (membership, scores,
    /// planes, one ordered key per row). Reaches the index the way the
    /// product does — through `flush_index()`.
    fn assert_index_agrees(s: &mut Ssc) {
        assert_eq!(
            s.select_eviction_victims(),
            s.select_eviction_victims_scan(),
            "eviction victims diverged from scan"
        );
        let mut expect: Vec<(u64, (u64, u64), u32)> = s
            .maps
            .blocks()
            .filter(|(_, e)| e.is_clean())
            .map(|(lbn, e)| {
                (
                    lbn,
                    s.victim_score(e),
                    s.dev.geometry().plane_of(Pbn(e.pbn)),
                )
            })
            .collect();
        expect.sort_unstable();
        let index = s.flush_index();
        assert_eq!(index.snapshot(), expect, "index contents diverged");
        assert_eq!(index.ordered_keys(), expect.len(), "stray ordered key");
    }

    /// The forward map against the flash it describes. Every valid flash
    /// page is some LBA's one live copy and the map files it under exactly
    /// that LBA (rows by OOB address, data blocks by position); a row never
    /// shadows a valid data-block page; the entry counters equal a recount;
    /// nothing empty is retained; and `lookup` of every address in `span`
    /// returns what the walk found, with the dirty flag `dirty` predicts.
    fn assert_maps_agree(s: &Ssc, span: u64, dirty: &HashMap<u64, bool>) {
        let ppb = s.ppb() as u64;
        let geometry = s.dev.geometry();
        let mut on_flash: HashMap<u64, Ppn> = HashMap::new();
        for pbn in (0..geometry.total_blocks()).map(Pbn) {
            for (ppn, oob) in s.dev.valid_pages_iter(pbn).unwrap() {
                let lba = oob.lba().expect("a valid page carries its LBA");
                assert_eq!(on_flash.insert(lba, ppn), None, "two valid copies of {lba}");
            }
        }
        let mut mapped: HashMap<u64, (Ppn, bool)> = HashMap::new();
        let (mut pages, mut blocks) = (0, 0);
        for (lbn, entry) in s.maps.lbns() {
            let row = &entry.log;
            assert!(
                entry.block.is_some() || !row.is_empty(),
                "empty entry kept for lbn {lbn}"
            );
            if row.is_empty() {
                assert_eq!(row.heap_bytes(), 0, "lbn {lbn}: empty row holds heap");
            }
            pages += row.len();
            for (offset, ptr) in row.iter() {
                mapped.insert(lbn * ppb + u64::from(offset), (ptr.ppn(), ptr.dirty()));
            }
            let Some(block) = entry.block else {
                continue;
            };
            blocks += 1;
            assert_ne!(block.valid, 0, "lbn {lbn}: data block with no live page");
            assert_eq!(row.bits() & block.valid, 0, "lbn {lbn}: two live copies");
            assert_eq!(s.dev.valid_mask(Pbn(block.pbn)).unwrap(), block.valid);
            for offset in set_bits(block.valid) {
                let at = u64::from(offset);
                let found = (Ppn(block.pbn * ppb + at), block.is_dirty(offset));
                mapped.insert(lbn * ppb + at, found);
            }
        }
        assert_eq!((s.maps.page_count(), s.maps.block_count()), (pages, blocks));
        let pointers: HashMap<u64, Ppn> =
            mapped.iter().map(|(&lba, &(ppn, _))| (lba, ppn)).collect();
        assert_eq!(pointers, on_flash, "map and valid flash pages diverged");
        assert!(mapped.keys().all(|&lba| lba < span));
        for lba in 0..span {
            let found = s.maps.lookup(lba).map(|r| (r.ppn(), r.dirty()));
            assert_eq!(found, mapped.get(&lba).copied(), "lookup of {lba}");
            if let Some((_, is_dirty)) = found {
                assert_eq!(is_dirty, dirty[&lba], "dirty flag of {lba}");
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
    /// whole-logical-block writes and clean or torn crash/recovery) and
    /// checks the map/flash agreement after every single operation and the
    /// index/scan agreement after every `check_every`-th: the check flushes
    /// the index, so 1 pins each mutation's mark on its own and a longer
    /// stride lets marks pile up between flushes as they do in the product.
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
                        assert_maps_agree(&s, span, &dirty);
                    }
                }
                _ => {
                    // Half the power failures also tear the final log flush.
                    if step(&mut rng).is_multiple_of(2) {
                        s.wal_crash_torn((step(&mut rng) % 200) as usize);
                    }
                    s.crash();
                    s.recover().unwrap();
                    // Buffered cleans (and a torn tail's records) are lost:
                    // take the recovered flags as the new baseline.
                    dirty = (0..span)
                        .filter_map(|lba| Some((lba, s.maps.lookup(lba)?.dirty())))
                        .collect();
                }
            }
            if (i + 1) % check_every == 0 {
                assert_index_agrees(&mut s);
            }
            assert_maps_agree(&s, span, &dirty);
        }
        assert_index_agrees(&mut s);
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
    fn stale_list_stays_bounded_without_eviction() {
        let mut s = roomy();
        let bound = s.config.total_blocks() as usize;
        let hot = 16 * s.ppb() as u64;
        let fill = vec![0u8; s.page_size()];
        let mut rng = 0xBEEF_0004;
        let mut peak = 0;
        for _ in 0..100_000 {
            s.write_clean(step(&mut rng) % hot, &fill).unwrap();
            peak = peak.max(s.index_stale.len());
            assert!(s.index_stale.len() < bound, "stale list reached its bound");
        }
        // Nothing consulted the index, so only the bound can have flushed it.
        assert_eq!(s.counters().silent_evictions, 0);
        assert_eq!(peak, bound - 1, "the bound never came into play");
        assert_index_agrees(&mut s);
    }

    #[test]
    fn remove_and_reinsert_between_flushes_leaves_one_key() {
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
        map_block_0(&mut s);
        assert_index_agrees(&mut s);
        // Unmap the block page by page, then map it again, with no flush in
        // between: the removal and the insertion both wait in the list.
        for lba in 0..ppb {
            s.evict(lba).unwrap();
        }
        assert!(s.maps.block(0).is_none());
        map_block_0(&mut s);
        let pending = s.index_stale.iter().filter(|&&lbn| lbn == 0).count();
        assert_eq!(pending as u64, ppb + 1, "a flush ran in between");
        let index = s.flush_index();
        let rows = index.snapshot();
        assert_eq!(rows.iter().filter(|row| row.0 == 0).count(), 1);
        assert_eq!(index.ordered_keys(), rows.len(), "stray ordered key");
        assert_index_agrees(&mut s);
    }

    #[test]
    fn dirty_blocks_survive_index_driven_eviction_pressure() {
        let mut s = Ssc::new(SscConfig::small_test());
        let dirty_page = vec![0xDDu8; s.page_size()];
        let ppb = s.ppb() as u64;
        // Park dirty data across two logical blocks, then flood with clean
        // traffic so every eviction decision flows through the index.
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
        assert_index_agrees(&mut s);
    }
}

impl Ssc {
    /// Test/debug helper: current page-map target of an LBA.
    pub fn debug_lookup(&self, lba: u64) -> Option<(u64, bool, &'static str)> {
        self.maps.lookup(lba).map(|r| {
            let level = match r {
                crate::map::Resolved::PageLevel { .. } => "page",
                crate::map::Resolved::BlockLevel { .. } => "block",
            };
            (r.ppn().raw(), r.dirty(), level)
        })
    }
}
