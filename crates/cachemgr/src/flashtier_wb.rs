//! The FlashTier write-back cache manager (§4.4).
//!
//! "On a write, the cache manager uses write-dirty to write the data to the
//! SSC only. The cache manager maintains an in-memory table of cached dirty
//! blocks. Using its table, the manager can detect when the percentage of
//! dirty blocks within the SSC exceeds a set threshold, and if so issues
//! clean commands for LRU blocks. Within the set of LRU blocks, the cache
//! manager prioritizes cleaning of contiguous dirty blocks, which can be
//! merged together for writing to disk."

use disksim::Disk;
use flashtier_core::{Result as SscResult, Ssc, SscError};
use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::dirty_table::DirtyTable;
use crate::metrics::MgrCounters;
use crate::system::{check_disk_lba, tiers_discard, CacheSystem};
use crate::Result;

/// Longest contiguous dirty run merged into one disk write.
const CLEAN_RUN_MAX: usize = 64;

// The cleaner tracks run membership in a u64 bitmask.
const _: () = assert!(CLEAN_RUN_MAX <= 64);

/// Write-back FlashTier system: SSC + disk + dirty-block table.
#[derive(Debug)]
pub struct FlashTierWb {
    ssc: Ssc,
    disk: Disk,
    dirty: DirtyTable,
    /// Clean when tracked dirty blocks exceed this count.
    dirty_limit: usize,
    /// Cleaning stops once the count falls to this.
    dirty_low: usize,
    counters: MgrCounters,
    /// Reusable concatenated-run buffer for the cleaner.
    gather_buf: PageBuf,
    /// Reusable single-block buffer for the cleaner's SSC reads.
    block_buf: PageBuf,
    /// Reusable LBA list of the run the cleaner is destaging.
    run_buf: Vec<u64>,
    /// Both tiers run in discard mode: payload bytes are never retained,
    /// produced or read back, so destage reads skip the copy into
    /// `gather_buf`.
    payload_discarded: bool,
}

impl FlashTierWb {
    /// Assembles the system with the paper's default 20% dirty threshold.
    pub fn new(ssc: Ssc, disk: Disk) -> Self {
        Self::with_dirty_fraction(ssc, disk, 0.20)
    }

    /// Assembles the system with a custom dirty threshold as a fraction of
    /// the cache's data capacity.
    ///
    /// # Panics
    ///
    /// Panics on a block-size mismatch, on tiers of different data modes
    /// (one keeps payloads, the other discards them) or on a fraction
    /// outside `(0, 1]`.
    pub(crate) fn with_dirty_fraction(ssc: Ssc, disk: Disk, fraction: f64) -> Self {
        assert_eq!(
            ssc.page_size(),
            disk.block_size(),
            "cache/disk block size mismatch"
        );
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "dirty fraction must be in (0,1]"
        );
        let capacity = ssc.data_capacity_pages() as usize;
        let dirty_limit = ((capacity as f64 * fraction) as usize).max(1);
        let payload_discarded =
            tiers_discard(ssc.data_mode() == flashsim::DataMode::Discard, &disk);
        FlashTierWb {
            ssc,
            disk,
            dirty: DirtyTable::new(capacity.max(dirty_limit * 2)),
            dirty_limit,
            dirty_low: (dirty_limit * 4 / 5).max(1),
            counters: MgrCounters::default(),
            gather_buf: PageBuf::new(),
            block_buf: PageBuf::new(),
            run_buf: Vec::new(),
            payload_discarded,
        }
    }

    /// The cache device.
    pub fn ssc(&self) -> &Ssc {
        &self.ssc
    }

    /// Mutable access to the cache device (crash injection in tests).
    pub fn ssc_mut(&mut self) -> &mut Ssc {
        &mut self.ssc
    }

    /// The disk tier.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Installs a deterministic media-fault plan on the cache device.
    pub fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        self.ssc.set_fault_plan(plan);
    }

    /// Currently tracked dirty blocks.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.len()
    }

    /// The cleaning threshold in blocks.
    pub fn dirty_limit(&self) -> usize {
        self.dirty_limit
    }

    /// One destage read: fetches `lba` from the SSC into slot `i` of the
    /// gather buffer. When both tiers discard payloads the read produces no
    /// bytes and the gather slot is left stale — the discard-mode disk the
    /// run is written to never looks at it.
    fn destage_read(&mut self, lba: u64, i: usize, bs: usize) -> SscResult<Duration> {
        let (cost, _) = self.ssc.read_into(lba, &mut self.block_buf)?;
        if !self.payload_discarded {
            self.gather_buf[i * bs..(i + 1) * bs].copy_from_slice(&self.block_buf);
        }
        Ok(cost)
    }

    /// Writes back contiguous LRU runs until the dirty count reaches the low
    /// watermark, returning the simulated time consumed. `acking` names the
    /// block a write is about to acknowledge, and its bytes.
    fn clean_down_to(&mut self, target: usize, acking: Option<(u64, &[u8])>) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let bs = self.ssc.page_size();
        // Taken out of `self` for the loop; an early `?` return just costs
        // a future re-growth.
        let mut run = std::mem::take(&mut self.run_buf);
        while self.dirty.len() > target {
            self.dirty.lru_run(CLEAN_RUN_MAX, &mut run);
            if run.is_empty() {
                break;
            }
            // Gather the run's data into one concatenated buffer, then write
            // it to disk as one positioned transfer.
            self.gather_buf.prepare(run.len() * bs);
            let mut present: u64 = 0;
            let mut dropped: u64 = 0;
            for (i, &lba) in run.iter().enumerate() {
                let mut read = self.destage_read(lba, i, bs);
                if matches!(&read, Err(SscError::Flash(e)) if e.is_media_fault()) {
                    // One retry, then invalidate: an unreadable dirty copy
                    // can never be destaged and would only wedge the
                    // cleaner; the disk keeps the last destaged version,
                    // unless the caller still holds the block's bytes.
                    read = self.destage_read(lba, i, bs);
                    if read.is_err() {
                        cost += self.ssc.evict(lba)?;
                        let tracked = self.dirty.remove(lba);
                        debug_assert!(tracked, "cleaned untracked block {lba}");
                        match acking {
                            Some((acked, data)) if acked == lba => {
                                cost += self.disk.write(lba, data)?;
                                self.counters.writebacks += 1;
                            }
                            _ => self.counters.destage_fault_invalidations += 1,
                        }
                        dropped |= 1 << i;
                        continue;
                    }
                }
                match read {
                    Ok(rcost) => {
                        cost += rcost;
                        present |= 1 << i;
                    }
                    // Defensive: the SSC never silently evicts dirty data,
                    // but a stale table entry just gets dropped.
                    Err(SscError::NotPresent(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            if present.count_ones() as usize == run.len() {
                cost += self.disk.write_run_concat(run[0], &self.gather_buf)?;
            } else {
                for (i, &lba) in run.iter().enumerate() {
                    if present & (1 << i) != 0 {
                        cost += self
                            .disk
                            .write(lba, &self.gather_buf[i * bs..(i + 1) * bs])?;
                    }
                }
            }
            for (i, &lba) in run.iter().enumerate() {
                if dropped & (1 << i) != 0 {
                    // Already invalidated above; nothing was written back.
                    continue;
                }
                cost += self.ssc.clean(lba)?;
                self.counters.cleans_issued += 1;
                // The run came from the table: a failed removal would keep
                // the loop above from ever reaching its target.
                let tracked = self.dirty.remove(lba);
                debug_assert!(tracked, "cleaned untracked block {lba}");
                self.counters.writebacks += 1;
            }
        }
        self.run_buf = run;
        Ok(cost)
    }

    /// Durability barrier: drains the SSC's buffered group-commit records
    /// so every acknowledged operation is crash-durable. `write-dirty` is
    /// already synchronously committed; the barrier additionally hardens
    /// buffered `write-clean`/`clean` records before a planned stop.
    ///
    /// # Errors
    ///
    /// Flash faults during the synchronous commit.
    pub fn barrier_flush(&mut self) -> Result<Duration> {
        Ok(self.ssc.commit_log()?)
    }

    /// Simulates a crash followed by recovery: the SSC recovers its maps
    /// (the returned time), then the manager repopulates the dirty table
    /// with `exists` — which "can overlap normal activity and thus does not
    /// delay recovery".
    ///
    /// # Errors
    ///
    /// Flash faults during device recovery.
    pub fn crash_and_recover(&mut self) -> Result<Duration> {
        self.ssc.crash();
        let t = self.ssc.recover()?;
        self.dirty = DirtyTable::new(self.dirty.capacity());
        let (dirty_lbas, _) = self.ssc.exists(0, u64::MAX);
        for lba in dirty_lbas {
            self.dirty.touch(lba);
        }
        Ok(t)
    }
}

impl CacheSystem for FlashTierWb {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.counters.reads += 1;
        match self.ssc.read_into(lba, buf) {
            Ok((cost, dirty)) => {
                self.counters.read_hits += 1;
                // Clean blocks are untracked: a block enters the table with
                // its write-dirty and leaves it with the clean after its
                // destage or the eviction of an unreadable copy, and a crash
                // rebuilds the table from `exists`. A clean hit has nothing
                // to refresh.
                if dirty {
                    self.dirty.touch_if_present(lba);
                } else {
                    debug_assert!(
                        !self.dirty.contains(lba),
                        "clean hit on block {lba}, which the dirty table tracks"
                    );
                }
                Ok(cost)
            }
            Err(SscError::NotPresent(_)) => {
                self.counters.read_misses += 1;
                let disk_cost = self.disk.read_into(lba, buf)?;
                let fill_cost = match self.ssc.write_clean(lba, buf) {
                    Ok(c) => c,
                    Err(SscError::OutOfSpace) => {
                        // Scattered dirty pages can pin every erase block;
                        // clean some and retry, or serve without caching.
                        let cleaned = self.clean_down_to(self.dirty_low, None)?;
                        match self.ssc.write_clean(lba, buf) {
                            Ok(c) => cleaned + c,
                            Err(SscError::OutOfSpace) => cleaned,
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Err(e) => return Err(e.into()),
                };
                Ok(disk_cost + fill_cost)
            }
            Err(SscError::Flash(e)) if e.is_media_fault() => {
                // Unrecoverable cache read: drop the faulted copy and serve
                // the last destaged (disk) version. When the lost copy was
                // dirty this trades staleness for availability — counted
                // separately so callers can see it.
                let evict_cost = self.ssc.evict(lba)?;
                if self.dirty.remove(lba) {
                    self.counters.lost_dirty_reads += 1;
                }
                self.counters.read_fault_fallbacks += 1;
                self.counters.read_misses += 1;
                Ok(evict_cost + self.disk.read_into(lba, buf)?)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn payload_discarded(&self) -> bool {
        self.payload_discarded
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.counters.writes += 1;
        check_disk_lba(&self.disk, lba)?;
        let mut cost = Duration::ZERO;
        let write_result = self.ssc.write_dirty(lba, data);
        let wcost = match write_result {
            Ok(c) => c,
            Err(SscError::OutOfSpace) => {
                // The device ran out of clean victims; clean aggressively
                // and retry once.
                cost += self.clean_down_to(self.dirty_low / 2, None)?;
                self.ssc.write_dirty(lba, data)?
            }
            Err(e) => return Err(e.into()),
        };
        cost += wcost;
        // The table holds at least 2 x `dirty_limit` blocks and every write
        // past the limit cleans back below it, so it always has room: an
        // untracked dirty block would be acked and never destaged.
        let tracked = self.dirty.touch(lba);
        debug_assert!(tracked, "dirty table full at block {lba}");
        if self.dirty.len() > self.dirty_limit {
            cost += self.clean_down_to(self.dirty_low, Some((lba, data)))?;
        }
        Ok(cost)
    }

    fn counters(&self) -> MgrCounters {
        self.counters
    }

    fn host_memory(&self) -> MapMemory {
        self.dirty.memory()
    }

    fn device_memory(&self) -> MapMemory {
        self.ssc.map_memory()
    }

    fn block_size(&self) -> usize {
        self.ssc.page_size()
    }

    fn name(&self) -> &'static str {
        "flashtier-wb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskConfig, DiskDataMode};
    use flashtier_core::SscConfig;

    fn system() -> FlashTierWb {
        let ssc = Ssc::new(SscConfig::small_test());
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        FlashTierWb::new(ssc, disk)
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 512]
    }

    #[test]
    #[should_panic(expected = "data mode mismatch")]
    fn discard_cache_over_store_disk_is_refused() {
        let config = SscConfig::small_test().with_data_mode(flashsim::DataMode::Discard);
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        FlashTierWb::with_dirty_fraction(Ssc::new(config), disk, 0.2);
    }

    #[test]
    fn write_goes_to_cache_only() {
        let mut s = system();
        s.write(5, &block(1)).unwrap();
        assert_eq!(
            s.disk.counters().writes,
            0,
            "write-back never writes through"
        );
        assert_eq!(s.dirty_blocks(), 1);
        let (data, _) = s.read(5).unwrap();
        assert_eq!(data, block(1));
    }

    #[test]
    fn cleaning_triggers_above_threshold_and_writes_back() {
        let mut s = system();
        let limit = s.dirty_limit();
        for lba in 0..(limit as u64 + 4) {
            s.write(lba, &block(lba as u8)).unwrap();
        }
        assert!(s.counters().writebacks > 0, "cleaner should have run");
        assert!(s.dirty_blocks() <= s.dirty_limit());
        assert!(s.disk.counters().writes > 0);
        // Written-back data really is on disk.
        let cleaned_lba = 0u64; // LRU block was cleaned first
        let (disk_data, _) = s.disk.read(cleaned_lba).unwrap();
        assert_eq!(disk_data, block(0));
        // And still readable through the cache (clean ≠ evicted).
        let (data, _) = s.read(cleaned_lba).unwrap();
        assert_eq!(data, block(0));
    }

    #[test]
    fn contiguous_runs_are_merged_for_disk() {
        let mut s = system();
        let limit = s.dirty_limit() as u64;
        // Dirty a contiguous region to overflow the threshold.
        for lba in 0..limit + 4 {
            s.write(lba, &block(lba as u8)).unwrap();
        }
        let d = s.disk.counters();
        assert!(
            d.sequential_hits > 0,
            "contiguous cleaning should stream: {d:?}"
        );
    }

    #[test]
    fn an_acked_write_its_own_clean_cannot_read_back_reaches_the_disk() {
        let mut s = system();
        // Every other block up to the limit, so the cleaner's first run is
        // block 0 and the blocks written next to it.
        for i in 0..s.dirty_limit() as u64 {
            s.write(2 * i, &block(1)).unwrap();
        }
        assert_eq!(s.counters().writebacks, 0, "no clean yet");
        s.set_fault_plan(flashsim::FaultPlan {
            read_permanent_ppm: 1_000_000,
            ..flashsim::FaultPlan::default()
        });
        // Block 1 joins block 0's run and takes the count past the limit;
        // the clean then cannot read any of the run back.
        s.write(1, &block(7)).unwrap();
        assert!(s.counters().destage_fault_invalidations > 0);
        assert_eq!(s.disk.read(1).unwrap().0, block(7), "acked, then lost");
    }

    #[test]
    fn read_miss_fills_clean() {
        let mut s = system();
        s.disk.write(50, &block(9)).unwrap();
        let (data, _) = s.read(50).unwrap();
        assert_eq!(data, block(9));
        assert_eq!(s.dirty_blocks(), 0, "fills are clean");
        assert_eq!(s.counters().read_misses, 1);
        let (_, hit_cost) = s.read(50).unwrap();
        assert!(hit_cost.as_micros() < 2000);
    }

    #[test]
    fn dirty_data_survives_crash_and_table_rebuilds() {
        let mut s = system();
        for lba in 0..8u64 {
            s.write(lba, &block(lba as u8 + 1)).unwrap();
        }
        let dirty_before = s.dirty_blocks();
        let t = s.crash_and_recover().unwrap();
        assert!(t.as_micros() > 0);
        assert_eq!(
            s.dirty_blocks(),
            dirty_before,
            "exists() rebuilds the dirty table"
        );
        for lba in 0..8u64 {
            let (data, _) = s.read(lba).unwrap();
            assert_eq!(data, block(lba as u8 + 1), "dirty lba {lba} lost");
        }
    }

    #[test]
    fn write_past_the_disk_is_refused_before_caching() {
        // Cached and acked, such a block would fail the cleaner on every
        // later pass and surface on unrelated writes.
        let mut s = system();
        let lba = s.disk.capacity_blocks() + 5;
        let err = s.write(lba, &block(1)).unwrap_err();
        assert_eq!(
            err,
            crate::CmError::Disk(disksim::DiskError::LbaOutOfRange(lba))
        );
        assert_eq!(s.dirty_blocks(), 0);
        for lba in 0..200u64 {
            s.write(lba, &block(lba as u8)).unwrap();
        }
        assert!(s.dirty_blocks() <= s.dirty_limit());
    }

    #[test]
    fn sustained_writes_never_wedge() {
        let mut s = system();
        // Far more writes than the cache can hold dirty.
        for i in 0..2_000u64 {
            let lba = (i * 7) % 64;
            s.write(lba, &block(i as u8)).unwrap();
        }
        assert!(s.counters().writebacks > 0);
        // Every block readable with its newest value via cache or disk.
        for lba in 0..64u64 {
            s.read(lba).unwrap();
        }
    }

    /// The dirty table holds records only for the blocks it has tracked at
    /// once: a new manager holds no record, and writes grow the table with
    /// the dirty count, which the cleaner bounds, not with the cache size.
    #[test]
    fn dirty_table_grows_with_the_dirty_count() {
        let mut s = system();
        assert!(s.host_memory().heap_bytes < 1024, "{:?}", s.host_memory());
        for lba in 0..4 * s.dirty_limit() as u64 {
            s.write(lba, &block(1)).unwrap();
        }
        assert!(s.counters().writebacks > 0, "the cleaner never ran");
        let most = s.dirty_limit() + 1;
        let heads = (8 * most).next_power_of_two();
        let grown = (most.next_power_of_two() * 32 + heads * 4) as u64;
        assert!(s.host_memory().heap_bytes <= grown, "{:?}", s.host_memory());
        assert!(
            grown < s.dirty.capacity() as u64 * 32,
            "no smaller than eager"
        );
    }

    #[test]
    fn host_memory_tracks_only_dirty() {
        let mut s = system();
        s.disk.write(1, &block(1)).unwrap();
        s.read(1).unwrap(); // clean fill
        assert_eq!(s.host_memory().entries, 0);
        s.write(2, &block(2)).unwrap();
        assert_eq!(s.host_memory().entries, 1);
        assert_eq!(
            s.host_memory().modeled_bytes,
            crate::dirty_table::ENTRY_BYTES
        );
    }

    /// A system whose SSC is so full of dirty data that the next insert
    /// reports `OutOfSpace` (the manager's threshold cleaner is bypassed by
    /// writing to the device directly and mirroring the dirty table).
    fn system_full_of_dirty_data() -> FlashTierWb {
        let ssc = Ssc::new(SscConfig::small_test());
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        // Threshold 1.0 sizes the dirty table for more than the device holds.
        let mut s = FlashTierWb::with_dirty_fraction(ssc, disk, 1.0);
        for lba in 0..s.ssc.data_capacity_pages() * 2 {
            match s.ssc.write_dirty(lba, &block(1)) {
                Ok(_) => assert!(s.dirty.touch(lba)),
                Err(SscError::OutOfSpace) => return s,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        panic!("an all-dirty cache cannot grow forever");
    }

    #[test]
    fn miss_fill_retry_propagates_power_loss() {
        const MISS: u64 = 1 << 20;
        // Unarmed, the miss cleans to make room and the retried fill lands.
        let mut s = system_full_of_dirty_data();
        s.read(MISS).unwrap();
        assert!(s.counters().writebacks > 0, "first fill found space");
        assert_eq!(s.ssc.counters().writes_clean, 1, "retried fill landed");

        // Arm the group-commit crash site at every hit the read makes, one
        // fresh system per position. The last position is the retried
        // fill's own commit; wherever the power fails, the read must say so
        // — the server's quarantine logic keys on that error.
        let mut fired = 0;
        for after in 0.. {
            let mut s = system_full_of_dirty_data();
            s.ssc
                .arm_crash(flashtier_core::CrashSite::GroupCommit, after);
            let outcome = s.read(MISS);
            if s.ssc.crash_armed() {
                outcome.expect("no power loss, no error");
                break;
            }
            fired += 1;
            assert_eq!(
                outcome.map(|_| ()),
                Err(crate::CmError::Ssc(SscError::PowerLoss)),
                "power loss at commit {after} was swallowed"
            );
        }
        assert!(fired >= 2, "cleaning and the retry both commit");
    }

    /// A dirty read hit moves its block to the back of the cleaning order;
    /// a clean hit leaves the order, and the table, alone.
    #[test]
    fn only_dirty_read_hits_move_in_the_cleaning_order() {
        let mut s = system();
        s.disk.write(9, &block(9)).unwrap();
        s.read(9).unwrap(); // a clean fill
        for lba in [2, 4, 6] {
            s.write(lba, &block(lba as u8)).unwrap();
        }
        s.read(9).unwrap();
        assert_eq!(s.counters().read_hits, 1);
        assert!(!s.dirty.contains(9), "a clean hit is not tracked");
        assert_eq!((s.dirty_blocks(), s.dirty.lru_block()), (3, Some(2)));
        s.read(2).unwrap();
        // Block 2 is now the most recently used: cleaned last.
        let mut order = Vec::new();
        while let Some(lba) = s.dirty.lru_block() {
            order.push(lba);
            s.dirty.remove(lba);
        }
        assert_eq!(order, [4, 6, 2]);
    }

    #[test]
    fn reads_refresh_dirty_recency() {
        let mut s = system();
        s.write(1, &block(1)).unwrap();
        s.write(2, &block(2)).unwrap();
        s.read(1).unwrap(); // touch 1 so 2 becomes LRU
        assert_eq!(s.dirty.lru_block(), Some(2));
    }
}
