//! The Native cache manager — FlashCache over a conventional SSD (§6.1).
//!
//! "We compare the FlashTier system against the Native system, which uses
//! the unmodified Facebook FlashCache cache manager and the FlashSim SSD
//! simulator. ... The write-back cache manager stores its metadata on the
//! SSD, so it can recover after a crash, while the write-through cache
//! manager cannot."
//!
//! Because the SSD is a plain block device, the *manager* owns everything a
//! cache needs (§3.2): a host mapping table from disk LBA to SSD location
//! (22 bytes for every cached block — not just dirty ones), LRU replacement,
//! and eviction. For crash safety in write-back mode it persists per-block
//! metadata to a reserved SSD region on every dirty-state change — the
//! consistency cost FlashTier's logging replaces (Figure 4).

use disksim::Disk;
use ftl::BlockDev;
use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::metrics::MgrCounters;
use crate::slot_cache::SlotCache;
use crate::system::{check_disk_lba, tiers_discard, CacheSystem};
use crate::Result;

/// Caching policy of the Native manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeMode {
    /// Write-through: writes go to disk and cache; no dirty data.
    WriteThrough,
    /// Write-back: writes go to the cache only; dirty data is written back
    /// by the cleaner.
    WriteBack,
}

/// Whether the manager persists its metadata (Native-D of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeConsistency {
    /// No metadata persistence; nothing survives a crash.
    None,
    /// Dirty-block metadata is persisted to the SSD on every state change
    /// ("Native-D only saves metadata for dirty blocks at runtime").
    Durable,
}

/// Paper model: host metadata bytes per cached block ("the native system
/// requires 22 bytes/block for a disk block number, checksum, LRU indexes
/// and block state").
pub const NATIVE_ENTRY_BYTES: u64 = 22;

/// Encodes a slot's `(lba, dirty)` as a 22-byte entry: `[disk lba (8)]
/// [flags (1)] [reserved (9)] [crc32 (4)]`, flags bit 0 = occupied, bit 1 = dirty.
fn encode_entry(meta: Option<(u64, bool)>, entry: &mut [u8]) {
    entry.fill(0);
    if let Some((lba, dirty)) = meta {
        entry[0..8].copy_from_slice(&lba.to_le_bytes());
        entry[8] = 1 | if dirty { 2 } else { 0 };
    }
    let crc = simkit::crc32(&entry[0..18]);
    entry[18..22].copy_from_slice(&crc.to_le_bytes());
}

/// The Native caching system over any [`BlockDev`] SSD.
#[derive(Debug)]
pub struct NativeCache<D: BlockDev> {
    ssd: D,
    disk: Disk,
    mode: NativeMode,
    consistency: NativeConsistency,
    /// The host mapping table, probed on every host read and write. Its
    /// dirty list keeps the replacement list's order, so the cleaner finds
    /// its LRU dirty victim in O(1) (oracle-tested below).
    cache: SlotCache,
    dirty_limit: usize,
    /// First SSD page of the reserved metadata region.
    md_base: u64,
    md_entries_per_page: u64,
    counters: MgrCounters,
    /// Reusable buffer for victim write-backs and cleaner reads.
    victim_buf: PageBuf,
    /// Both tiers run in discard mode: payload bytes are never retained,
    /// produced or read back.
    payload_discarded: bool,
    /// Encoded metadata pages, kept in lockstep with `cache`. Each slot's
    /// 22-byte entry is re-encoded when that slot changes, so persisting a
    /// page is a single device write instead of a full page re-encode
    /// (zero-fill plus one CRC per entry) on every dirty-state change.
    /// Empty unless the configuration persists metadata to an SSD that
    /// keeps it: under `payload_discarded` the FTL drops the bytes and
    /// recovery reads back no entry whatever was written, so the writes
    /// are issued (and counted, and charged) with a scratch page.
    md_cache: Vec<Box<[u8]>>,
}

impl<D: BlockDev> NativeCache<D> {
    /// Assembles the system with the paper's 20% dirty threshold.
    ///
    /// A slice of the SSD address space is reserved for persisted metadata;
    /// the rest becomes cache slots.
    ///
    /// # Panics
    ///
    /// On tiers of different data modes (one keeps payloads, the other
    /// discards them).
    pub fn new(ssd: D, disk: Disk, mode: NativeMode, consistency: NativeConsistency) -> Self {
        let block_size = disk.block_size() as u64;
        let total = ssd.capacity_pages();
        let md_entries_per_page = (block_size / NATIVE_ENTRY_BYTES).max(1);
        // Solve slots + ceil(slots/entries_per_page) <= total.
        let slots = (total * md_entries_per_page / (md_entries_per_page + 1)).max(1);
        let dirty_limit = ((slots as f64 * 0.20) as usize).max(1);
        let payload_discarded = tiers_discard(ssd.payload_discarded(), &disk);
        let mut cache = NativeCache {
            ssd,
            disk,
            mode,
            consistency,
            cache: SlotCache::new(slots as usize),
            dirty_limit,
            md_base: slots,
            md_entries_per_page,
            counters: MgrCounters::default(),
            victim_buf: PageBuf::new(),
            payload_discarded,
            md_cache: Vec::new(),
        };
        cache.rebuild_md_cache();
        cache
    }

    /// Whether this configuration persists (and therefore caches) metadata.
    fn persists_metadata(&self) -> bool {
        self.consistency == NativeConsistency::Durable && self.mode == NativeMode::WriteBack
    }

    /// The SSD cache device.
    pub fn ssd(&self) -> &D {
        &self.ssd
    }

    /// Installs a deterministic media-fault plan on the SSD's flash layer.
    pub fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        self.ssd.set_fault_plan(plan);
    }

    /// Media-fault counters of the SSD's flash layer.
    pub fn fault_counters(&self) -> flashsim::FaultCounters {
        self.ssd.fault_counters()
    }

    /// The disk tier.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Number of cache slots.
    pub fn slots(&self) -> usize {
        self.cache.capacity()
    }

    /// Currently dirty slots.
    pub fn dirty_blocks(&self) -> usize {
        self.cache.dirty_len()
    }

    /// Encodes metadata page `page_index` into `out`.
    fn encode_md_page(&self, page_index: u64, out: &mut PageBuf) {
        let payload = out.fill_with(self.disk.block_size(), 0);
        let first = page_index * self.md_entries_per_page;
        let last = (first + self.md_entries_per_page).min(self.slots() as u64);
        let entries = payload.chunks_exact_mut(NATIVE_ENTRY_BYTES as usize);
        for (entry, slot) in entries.zip(first as u32..last as u32) {
            encode_entry(self.cache.entry(slot), entry);
        }
    }

    /// Re-encodes every metadata page from the slot table into the cache (or
    /// clears it in configurations whose encoded metadata nothing can read back).
    /// The resulting bytes are exactly what [`NativeCache::encode_md_page`]
    /// would produce.
    fn rebuild_md_cache(&mut self) {
        if !self.persists_metadata() || self.payload_discarded {
            self.md_cache.clear();
            return;
        }
        let md_pages = (self.slots() as u64).div_ceil(self.md_entries_per_page);
        let mut buf = PageBuf::new();
        let mut cache = Vec::with_capacity(md_pages as usize);
        for page_index in 0..md_pages {
            self.encode_md_page(page_index, &mut buf);
            cache.push(buf.as_slice().to_vec().into_boxed_slice());
        }
        self.md_cache = cache;
    }

    /// Re-encodes the cached 22-byte entry for `slot` after its entry
    /// changed. Must be called wherever a slot is filled, emptied or changes
    /// dirty bit, so the cache stays bit-identical to a fresh
    /// [`NativeCache::encode_md_page`].
    fn sync_md_entry(&mut self, slot: u32) {
        if self.md_cache.is_empty() {
            return;
        }
        let page = (slot as u64 / self.md_entries_per_page) as usize;
        let offset = (slot as u64 % self.md_entries_per_page * NATIVE_ENTRY_BYTES) as usize;
        let entry = &mut self.md_cache[page][offset..offset + NATIVE_ENTRY_BYTES as usize];
        encode_entry(self.cache.entry(slot), entry);
    }

    /// Persists the metadata page covering `slot` to the SSD (a no-op
    /// without durability or in write-through mode, which cannot recover).
    fn persist_metadata(&mut self, slot: u32) -> Result<Duration> {
        if !self.persists_metadata() {
            return Ok(Duration::ZERO);
        }
        let page_index = slot as u64 / self.md_entries_per_page;
        self.counters.metadata_writes += 1;
        let page: &[u8] = match self.md_cache.get(page_index as usize) {
            Some(encoded) => encoded,
            // Discard mode: the SSD wants a page-sized buffer, not its bytes.
            None => self.victim_buf.prepare(self.disk.block_size()),
        };
        Ok(self.ssd.write(self.md_base + page_index, page)?)
    }

    /// Simulates a crash followed by recovery of the manager's state from
    /// the persisted metadata region, returning the simulated time spent
    /// reading it back. Requires write-back mode with durability; in any
    /// other configuration the cache is simply reset ("the write-through
    /// cache manager cannot" recover — §6.1).
    ///
    /// Note: entries persisted reflect dirty-state changes only (clean
    /// fills are not persisted — "Native-D only saves metadata for dirty
    /// blocks at runtime"), so recovery restores the dirty working set and
    /// loses clean cache contents, exactly as the paper describes.
    ///
    /// # Errors
    ///
    /// Device failures while reading the metadata region.
    pub fn crash_and_recover(&mut self) -> Result<Duration> {
        // Volatile manager state is gone.
        self.cache = SlotCache::new(self.slots());
        if self.consistency != NativeConsistency::Durable || self.mode != NativeMode::WriteBack {
            return Ok(Duration::ZERO);
        }
        // Read back every metadata page and rebuild the table.
        let slots = self.slots();
        let md_pages = (slots as u64).div_ceil(self.md_entries_per_page);
        let mut cost = Duration::ZERO;
        let mut entries = Vec::new();
        for page_index in 0..md_pages {
            let (payload, rcost) = self.ssd.read(self.md_base + page_index)?;
            cost += rcost;
            for i in 0..self.md_entries_per_page {
                let slot = page_index * self.md_entries_per_page + i;
                if slot >= slots as u64 {
                    break;
                }
                let offset = (i * NATIVE_ENTRY_BYTES) as usize;
                let entry = &payload[offset..offset + NATIVE_ENTRY_BYTES as usize];
                let crc = u32::from_le_bytes(entry[18..22].try_into().expect("4 bytes"));
                if crc != simkit::crc32(&entry[0..18]) {
                    continue; // never-written or torn page region
                }
                if entry[8] & 1 == 0 {
                    continue;
                }
                let lba = u64::from_le_bytes(entry[0..8].try_into().expect("8 bytes"));
                entries.push((slot as u32, lba, entry[8] & 2 != 0));
            }
        }
        self.cache.restore(entries);
        // The table was replaced wholesale; re-derive the encoded pages.
        self.rebuild_md_cache();
        Ok(cost)
    }

    /// Invalidates `slot` after an unrecoverable media fault: the mapping,
    /// LRU presence and (persisted) metadata entry are removed and the slot
    /// returns to the free list, so recovery can never resurrect it onto
    /// unreadable flash. Returns the persistence cost and whether the
    /// dropped block was dirty.
    fn drop_faulted_slot(&mut self, slot: u32) -> Result<(Duration, bool)> {
        let (_, dirty) = self.cache.entry(slot).expect("faulted slot in use");
        self.cache.remove(slot);
        self.sync_md_entry(slot);
        let cost = self.persist_metadata(slot)?;
        Ok((cost, dirty))
    }

    /// The read-fault fallback: invalidate the faulted slot and serve a
    /// disk miss — never stale or wrong data. A dirty block's newest
    /// version is lost to the media; the last destaged disk version is
    /// served instead (availability over staleness).
    fn read_fault_fallback(&mut self, slot: u32, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        let (pcost, was_dirty) = self.drop_faulted_slot(slot)?;
        if was_dirty {
            self.counters.lost_dirty_reads += 1;
        }
        self.counters.read_fault_fallbacks += 1;
        Ok(pcost + self.read_miss(lba, buf)?)
    }

    /// The read-miss path: disk fetch plus a clean install.
    fn read_miss(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.counters.read_misses += 1;
        let mut cost = self.disk.read_into(lba, buf)?;
        self.install(lba, buf, false, &mut cost)?;
        Ok(cost)
    }

    /// Writes dirty `slot` back to `lba` on disk through `victim_buf`,
    /// retrying its flash read once on a media fault. `Ok(None)` means the
    /// block is unrecoverable and must be dropped rather than destaged.
    fn write_back(&mut self, slot: u32, lba: u64) -> Result<Option<Duration>> {
        let mut read = self.ssd.read_into(slot as u64, &mut self.victim_buf);
        if matches!(&read, Err(ftl::FtlError::Flash(e)) if e.is_media_fault()) {
            read = self.ssd.read_into(slot as u64, &mut self.victim_buf);
        }
        let rcost = match read {
            Ok(rcost) => rcost,
            Err(ftl::FtlError::Flash(e)) if e.is_media_fault() => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let wcost = self.disk.write(lba, &self.victim_buf)?;
        self.counters.writebacks += 1;
        Ok(Some(rcost + wcost))
    }

    /// Dirtying always happens right after the slot moved to the front of
    /// the replacement list, which keeps the dirty list in its order.
    fn set_dirty(&mut self, slot: u32, dirty: bool) -> Result<Duration> {
        if !self.cache.set_dirty(slot, dirty) {
            return Ok(Duration::ZERO);
        }
        self.sync_md_entry(slot);
        self.persist_metadata(slot)
    }

    /// Takes a free slot, evicting the LRU block if necessary.
    fn take_slot(&mut self, cost: &mut Duration) -> Result<u32> {
        if let Some(slot) = self.cache.pop_free() {
            return Ok(slot);
        }
        let victim = self.cache.lru().expect("no free slot and empty LRU");
        let (lba, dirty) = self.cache.entry(victim).expect("victim in use");
        if dirty {
            // Write the dirty victim back to disk first. If the flash copy
            // is unrecoverable even after a retry, drop the block instead of
            // destaging garbage — the last destaged version on disk stays
            // the authoritative copy.
            match self.write_back(victim, lba)? {
                Some(wcost) => *cost += wcost,
                None => self.counters.destage_fault_invalidations += 1,
            }
        }
        self.cache.evict(victim);
        self.sync_md_entry(victim);
        // Invalidation is a metadata update (§2): persist it so recovery
        // can never resurrect the old mapping onto reused data.
        *cost += self.persist_metadata(victim)?;
        self.counters.evictions += 1;
        Ok(victim)
    }

    /// Installs `data` for `lba` in the cache with the given dirty state.
    fn install(&mut self, lba: u64, data: &[u8], dirty: bool, cost: &mut Duration) -> Result<u32> {
        if let Some(slot) = self.cache.get(lba) {
            *cost += self.ssd.write(slot as u64, data)?;
            self.cache.touch(slot);
            *cost += self.set_dirty(slot, dirty)?;
            return Ok(slot);
        }
        let slot = self.take_slot(cost)?;
        *cost += self.ssd.write(slot as u64, data)?;
        self.cache.fill(slot, lba, dirty);
        self.sync_md_entry(slot);
        if dirty {
            *cost += self.persist_metadata(slot)?;
        }
        Ok(slot)
    }

    /// Writes back LRU dirty blocks until below the threshold.
    fn clean_down_to(&mut self, target: usize) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        while self.cache.dirty_len() > target {
            // The dirty list mirrors the main list's order, so its back is
            // exactly what a tail-to-head scan for a dirty slot would find.
            let Some(slot) = self.cache.lru_dirty() else {
                break;
            };
            let (lba, _) = self.cache.entry(slot).expect("dirty slot in use");
            match self.write_back(slot, lba)? {
                Some(wcost) => {
                    cost += wcost;
                    cost += self.set_dirty(slot, false)?;
                }
                None => {
                    // Unrecoverable dirty block: it can serve neither reads
                    // nor a destage, so invalidate the whole entry rather
                    // than leaving unreadable bytes marked clean.
                    let (pcost, _) = self.drop_faulted_slot(slot)?;
                    cost += pcost;
                    self.counters.destage_fault_invalidations += 1;
                }
            }
        }
        Ok(cost)
    }

    /// Modeled recovery time for the manager's own state (Figure 5's
    /// "Native-FC"): read back the persisted metadata region.
    pub fn manager_recovery_cost(&self) -> Duration {
        let md_bytes = self.slots() as u64 * NATIVE_ENTRY_BYTES;
        let pages = md_bytes.div_ceil(self.disk.block_size() as u64);
        // Sequential page reads from the SSD region.
        Duration::from_micros(pages * 77)
    }

    /// Modeled recovery time for the SSD's mapping (Figure 5's
    /// "Native-SSD"): an out-of-band scan reading "just enough OOB area to
    /// equal the size of the mapping table".
    pub fn ssd_recovery_cost(&self, oob_bytes_per_page: u64, oob_read_us: u64) -> Duration {
        let map_bytes = self.ssd.map_memory().modeled_bytes;
        let scans = map_bytes.div_ceil(oob_bytes_per_page.max(1));
        Duration::from_micros(scans * oob_read_us)
    }
}

impl<D: BlockDev> CacheSystem for NativeCache<D> {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.counters.reads += 1;
        let Some(slot) = self.cache.get(lba) else {
            return self.read_miss(lba, buf);
        };
        match self.ssd.read_into(slot as u64, buf) {
            Ok(cost) => {
                self.counters.read_hits += 1;
                self.cache.touch(slot);
                Ok(cost)
            }
            Err(ftl::FtlError::Flash(e)) if e.is_media_fault() => {
                self.read_fault_fallback(slot, lba, buf)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn payload_discarded(&self) -> bool {
        self.payload_discarded
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.counters.writes += 1;
        let mut cost = Duration::ZERO;
        match self.mode {
            NativeMode::WriteThrough => {
                let disk_cost = self.disk.write(lba, data)?;
                let mut cache_cost = Duration::ZERO;
                self.install(lba, data, false, &mut cache_cost)?;
                cost += disk_cost.max(cache_cost);
            }
            NativeMode::WriteBack => {
                check_disk_lba(&self.disk, lba)?;
                self.install(lba, data, true, &mut cost)?;
                if self.cache.dirty_len() > self.dirty_limit {
                    cost += self.clean_down_to(self.dirty_limit * 4 / 5)?;
                }
            }
        }
        Ok(cost)
    }

    fn counters(&self) -> MgrCounters {
        self.counters
    }

    /// The paper's model: 22 bytes for *every* cache slot, write-back and
    /// write-through alike ("the native system uses the same amount of
    /// memory for both"). Real bytes are the whole slot table.
    fn host_memory(&self) -> MapMemory {
        MapMemory {
            entries: self.cache.len(),
            modeled_bytes: self.slots() as u64 * NATIVE_ENTRY_BYTES,
            heap_bytes: self.cache.heap_bytes() as u64,
        }
    }

    fn device_memory(&self) -> MapMemory {
        self.ssd.map_memory()
    }

    fn block_size(&self) -> usize {
        self.disk.block_size()
    }

    fn name(&self) -> &'static str {
        match self.mode {
            NativeMode::WriteThrough => "native-wt",
            NativeMode::WriteBack => "native-wb",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_cache::Model;
    use disksim::{DiskConfig, DiskDataMode};
    use ftl::{HybridFtl, SsdConfig};

    fn system(mode: NativeMode) -> NativeCache<HybridFtl> {
        let ssd = HybridFtl::new(SsdConfig::small_test(), flashsim::DataMode::Store);
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        NativeCache::new(ssd, disk, mode, NativeConsistency::Durable)
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 512]
    }

    #[test]
    #[should_panic(expected = "data mode mismatch")]
    fn discard_ssd_over_store_disk_is_refused() {
        let ssd = HybridFtl::new(SsdConfig::small_test(), flashsim::DataMode::Discard);
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        NativeCache::new(ssd, disk, NativeMode::WriteBack, NativeConsistency::None);
    }

    #[test]
    fn write_back_caches_without_disk_write() {
        let mut s = system(NativeMode::WriteBack);
        s.write(5, &block(1)).unwrap();
        assert_eq!(s.disk.counters().writes, 0);
        assert_eq!(s.dirty_blocks(), 1);
        let (data, _) = s.read(5).unwrap();
        assert_eq!(data, block(1));
        assert_eq!(s.counters().read_hits, 1);
        // Metadata was persisted for the dirty insert.
        assert!(s.counters().metadata_writes >= 1);
    }

    #[test]
    fn write_through_hits_both_tiers() {
        let mut s = system(NativeMode::WriteThrough);
        s.write(5, &block(2)).unwrap();
        assert_eq!(s.disk.counters().writes, 1);
        assert_eq!(s.dirty_blocks(), 0);
        assert_eq!(
            s.counters().metadata_writes,
            0,
            "write-through persists nothing"
        );
    }

    #[test]
    fn miss_fetches_and_fills() {
        let mut s = system(NativeMode::WriteBack);
        s.disk.write(9, &block(7)).unwrap();
        let (data, cost) = s.read(9).unwrap();
        assert_eq!(data, block(7));
        assert!(cost.as_micros() >= 2000);
        let (_, hit) = s.read(9).unwrap();
        assert!(hit < cost);
    }

    #[test]
    fn lru_eviction_when_full_preserves_dirty_data() {
        let mut s = system(NativeMode::WriteBack);
        let slots = s.slots() as u64;
        // Overfill the cache with dirty writes.
        for lba in 0..slots + 8 {
            s.write(lba, &block(lba as u8)).unwrap();
        }
        assert!(s.counters().evictions + s.counters().writebacks > 0);
        // Every block must read back correctly (from cache or disk).
        for lba in 0..slots + 8 {
            let (data, _) = s.read(lba).unwrap();
            assert_eq!(data, block(lba as u8), "lba {lba}");
        }
    }

    #[test]
    fn write_back_refuses_a_write_past_the_disk_before_caching() {
        let mut s = system(NativeMode::WriteBack);
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
        assert!(s.dirty_blocks() <= s.dirty_limit);
    }

    #[test]
    fn cleaner_bounds_dirty_count() {
        let mut s = system(NativeMode::WriteBack);
        for i in 0..200u64 {
            s.write(i % 40, &block(i as u8)).unwrap();
        }
        assert!(s.dirty_blocks() <= s.dirty_limit + 1);
    }

    #[test]
    fn durable_mode_pays_metadata_writes() {
        let mut durable = system(NativeMode::WriteBack);
        let ssd = HybridFtl::new(SsdConfig::small_test(), flashsim::DataMode::Store);
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        let mut volatile =
            NativeCache::new(ssd, disk, NativeMode::WriteBack, NativeConsistency::None);
        let mut durable_time = Duration::ZERO;
        let mut volatile_time = Duration::ZERO;
        for i in 0..100u64 {
            durable_time += durable.write(i % 20, &block(i as u8)).unwrap();
            volatile_time += volatile.write(i % 20, &block(i as u8)).unwrap();
        }
        assert!(durable.counters().metadata_writes > 0);
        assert_eq!(volatile.counters().metadata_writes, 0);
        assert!(
            durable_time > volatile_time,
            "{durable_time} vs {volatile_time}"
        );
    }

    /// The index finds exactly the occupied slots: each under its own LBA,
    /// and no other slot at all.
    fn assert_index_matches_meta(s: &NativeCache<HybridFtl>, step: u64) {
        let mut occupied = 0;
        for slot in 0..s.slots() as u32 {
            if let Some((lba, _)) = s.cache.entry(slot) {
                occupied += 1;
                assert_eq!(s.cache.get(lba), Some(slot), "step {step}");
            }
        }
        assert_eq!(s.cache.chained(), occupied, "step {step}: index vs meta");
    }

    #[test]
    fn churn_at_constant_live_size_never_resizes_the_table() {
        // The miss path at steady state: once the cache is full every fill
        // evicts, so the index loses one key and gains another per event
        // while its live size stays at the slot count.
        let mut s = system(NativeMode::WriteThrough);
        // The table grows while it fills; from then on its size is fixed.
        let mut heap = None;
        let span = 3 * s.slots() as u64;
        let mut rng = simkit::SimRng::seed_from(0x7AB1E);
        for step in 0..100_000u64 {
            let lba = rng.gen_range(span);
            if step % 8 == 0 {
                s.write(lba, &block(step as u8)).unwrap();
            } else {
                s.read(lba).unwrap();
            }
            assert_index_matches_meta(&s, step);
            if s.cache.len() == s.slots() {
                let full = *heap.get_or_insert(s.cache.heap_bytes());
                assert_eq!(s.cache.heap_bytes(), full, "step {step}: index grew");
            }
        }
        assert!(heap.is_some(), "the table never filled");
        assert!(s.counters().evictions > 50_000, "{:?}", s.counters());
    }

    /// Oracle under forced collisions: every key shares one bucket, so the
    /// whole cache hangs off one chain, and evictions and faulted-slot drops
    /// unlink its head, middle and tail. After every step the index, the slots
    /// and the LRU order must equal the reference model, which also fixes
    /// the slot every fill takes.
    #[test]
    fn colliding_keys_match_the_model() {
        let mut s = system(NativeMode::WriteThrough);
        let keys = s.cache.colliding(s.slots() + s.slots() / 2);
        let mut model = Model::new(s.slots());
        let mut rng = simkit::SimRng::seed_from(0xC011_1DE5);
        for step in 0..3000u64 {
            let mut lba = keys[rng.gen_range(keys.len() as u64) as usize];
            let chain = s.cache.chain(lba);
            if step % 8 == 0 && !chain.is_empty() {
                // Fault the chain's head, middle or tail in turn.
                let slot = [0, chain.len() / 2, chain.len() - 1][step as usize / 8 % 3];
                lba = s.cache.entry(chain[slot]).unwrap().0;
                s.drop_faulted_slot(chain[slot]).unwrap();
                model.remove(lba, &chain);
            } else {
                if step % 3 == 0 {
                    s.write(lba, &block(step as u8)).unwrap();
                } else {
                    s.read(lba).unwrap();
                }
                model.touch(lba, true, &chain);
            }
            for &k in &keys {
                let want = model.slot_of.get(&k).copied();
                assert_eq!(s.cache.get(k), want, "step {step}: lba {k}");
            }
            let lba_of = |slot: u32| s.cache.entry(slot).unwrap().0;
            let order: Vec<u64> = s.cache.lru_order().into_iter().map(lba_of).collect();
            assert_eq!(order, model.lru_order(), "step {step}");
            assert_index_matches_meta(&s, step);
        }
        assert!(
            model.removed_at.iter().all(|&n| n > 50),
            "{:?}",
            model.removed_at
        );
    }

    /// Native's slot numbers are SSD LBAs, so the slot a fill takes moves
    /// every simulated figure. Pins it through fills, LRU eviction of clean
    /// and dirty victims, a crash and recovery, and fills after it.
    #[test]
    fn slot_reuse_order_is_pinned() {
        let mut s = system(NativeMode::WriteBack);
        let n = s.slots() as u64;
        let slots_of = |s: &NativeCache<HybridFtl>, lbas: std::ops::Range<u64>| -> Vec<u32> {
            lbas.map(|lba| s.cache.get(lba).expect("cached")).collect()
        };
        // Fills take the lowest free slot first; two of them are dirty.
        for lba in 100..100 + n {
            if lba == 101 || lba == 103 {
                s.write(lba, &block(1)).unwrap();
            } else {
                s.read(lba).unwrap();
            }
        }
        assert_eq!(
            slots_of(&s, 100..100 + n),
            (0..n as u32).collect::<Vec<_>>()
        );
        // Refresh slot 0; the next fills reuse the LRU victims' slots
        // directly, clean and dirty alike (the dirty ones written back).
        s.read(100).unwrap();
        for lba in 500..504 {
            s.read(lba).unwrap();
        }
        assert_eq!(slots_of(&s, 500..504), [1, 2, 3, 4]);
        assert_eq!((s.counters().evictions, s.counters().writebacks), (4, 2));
        for lba in 600..603 {
            s.write(lba, &block(2)).unwrap();
        }
        assert_eq!(slots_of(&s, 600..603), [5, 6, 7]);
        // A faulted slot goes back on the free list and fills next.
        s.drop_faulted_slot(6).unwrap();
        s.read(650).unwrap();
        assert_eq!(s.cache.get(650), Some(6));
        s.drop_faulted_slot(2).unwrap();
        // Recovery restores the entries metadata page 0 (slots 0-22) held
        // when slot 2's drop last wrote it, and rebuilds the free list from
        // the unused slots, lowest first again.
        s.crash_and_recover().unwrap();
        let recovered: Vec<u32> = (0..n as u32)
            .filter(|&slot| s.cache.entry(slot).is_some())
            .collect();
        assert_eq!(
            recovered,
            (0..23).filter(|&slot| slot != 2).collect::<Vec<_>>()
        );
        assert_eq!(slots_of(&s, 600..601), [5]);
        assert_eq!(slots_of(&s, 650..651), [6]);
        for lba in 700..704 {
            s.read(lba).unwrap();
        }
        assert_eq!(slots_of(&s, 700..704), [2, 23, 24, 25]);
    }

    #[test]
    fn host_memory_charges_all_slots() {
        let s = system(NativeMode::WriteBack);
        let m = s.host_memory();
        assert_eq!(m.modeled_bytes, s.slots() as u64 * NATIVE_ENTRY_BYTES);
    }

    /// Real bytes are the slot table grown so far: one record (which also
    /// carries the free list) per slot its allocation holds, doubling and
    /// clipped at the slot count, and the bucket heads, a power of two,
    /// eight per record up to twice the slot count.
    #[test]
    fn host_heap_bytes_count_records_and_heads() {
        let mut s = system(NativeMode::WriteThrough);
        let slots = s.slots();
        let record = crate::slot_cache::SlotCache::RECORD_BYTES;
        let part = slots / 3 + 1;
        let mut filled = 0;
        for (len, records) in [(0, 0), (part, part.next_power_of_two()), (slots, slots)] {
            while filled < len {
                s.read(1000 + filled as u64).unwrap();
                filled += 1;
            }
            assert_eq!(s.cache.len(), len);
            let full = (2 * slots).next_power_of_two();
            let heads = (8 * len).next_power_of_two().clamp(2, full);
            assert_eq!(s.cache.buckets(), heads, "{len} of {slots} slots");
            let heap = s.host_memory().heap_bytes as usize;
            assert_eq!(heap, records * record + heads * 4, "{len} of {slots} slots");
        }
        assert!(
            part.next_power_of_two() < slots,
            "{slots} slots: part-full is not full"
        );
    }

    #[test]
    fn recovery_cost_models_scale_with_size() {
        let s = system(NativeMode::WriteBack);
        let fc = s.manager_recovery_cost();
        let ssd = s.ssd_recovery_cost(224, 75);
        assert!(fc.as_micros() > 0);
        assert!(ssd.as_micros() > 0);
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use disksim::{DiskConfig, DiskDataMode};
    use ftl::{HybridFtl, SsdConfig};

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 512]
    }

    fn durable_wb() -> NativeCache<HybridFtl> {
        let ssd = HybridFtl::new(SsdConfig::small_test(), flashsim::DataMode::Store);
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        NativeCache::new(ssd, disk, NativeMode::WriteBack, NativeConsistency::Durable)
    }

    #[test]
    fn dirty_state_survives_crash() {
        let mut s = durable_wb();
        for lba in 0..6u64 {
            s.write(lba, &block(lba as u8 + 1)).unwrap();
        }
        let dirty_before = s.dirty_blocks();
        let t = s.crash_and_recover().unwrap();
        assert!(t.as_micros() > 0, "recovery reads the metadata region");
        assert_eq!(s.dirty_blocks(), dirty_before);
        for lba in 0..6u64 {
            let (data, _) = s.read(lba).unwrap();
            assert_eq!(data, block(lba as u8 + 1), "dirty lba {lba} lost");
        }
    }

    #[test]
    fn recovery_never_returns_stale_mappings() {
        let mut s = durable_wb();
        let slots = s.slots() as u64;
        // Fill with dirty data (persisted), then churn far enough that
        // every original slot is evicted and reused by new addresses.
        for lba in 0..slots {
            s.write(lba, &block(1)).unwrap();
        }
        for lba in slots..3 * slots {
            s.write(lba, &block(2)).unwrap();
        }
        s.crash_and_recover().unwrap();
        // Whatever recovered must read back its own newest content, never
        // another block's.
        for lba in 0..3 * slots {
            let (data, _) = s.read(lba).unwrap();
            let expect = if lba < slots { block(1) } else { block(2) };
            assert_eq!(data, expect, "lba {lba} corrupted after recovery");
        }
    }

    /// Oracle: the incrementally maintained metadata-page cache must be
    /// bit-identical to a fresh full encode of the live slot table.
    fn assert_md_cache_fresh(s: &NativeCache<HybridFtl>) {
        let md_pages = (s.slots() as u64).div_ceil(s.md_entries_per_page);
        assert_eq!(s.md_cache.len(), md_pages as usize);
        let mut buf = PageBuf::new();
        for page_index in 0..md_pages {
            s.encode_md_page(page_index, &mut buf);
            assert_eq!(
                buf.as_slice(),
                &s.md_cache[page_index as usize][..],
                "cached md page {page_index} diverged from the encoder"
            );
        }
    }

    #[test]
    fn md_cache_matches_full_encoder_after_churn() {
        let mut s = durable_wb();
        let span = 3 * s.slots() as u64;
        let mut rng = 0x11D_CAFEu64;
        for i in 0..600u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = (rng >> 33) % span;
            if i % 5 == 0 {
                s.read(lba).unwrap();
            } else {
                s.write(lba, &block(i as u8)).unwrap();
            }
            assert_md_cache_fresh(&s);
        }
        assert!(s.counters().evictions > 0, "churn should evict");
        s.crash_and_recover().unwrap();
        assert_md_cache_fresh(&s);
    }

    /// Oracle: the dirty-LRU index must equal a tail-to-head scan of the
    /// main replacement list filtered to dirty slots — same membership,
    /// same order — so the cleaner's O(1) victim pick is exactly what the
    /// scan it replaced would have chosen.
    fn assert_dirty_index_matches_scan(s: &NativeCache<HybridFtl>) {
        let scanned: Vec<u32> = s
            .cache
            .lru_order()
            .into_iter()
            .filter(|&slot| s.cache.entry(slot).is_some_and(|(_, dirty)| dirty))
            .collect();
        let indexed: Vec<u32> = s.cache.dirty_order();
        assert_eq!(indexed, scanned, "dirty index diverged from LRU scan");
        assert_eq!(indexed.len(), s.dirty_blocks(), "dirty count out of sync");
    }

    #[test]
    fn dirty_lru_index_matches_scan_under_churn() {
        let mut s = durable_wb();
        let span = 3 * s.slots() as u64;
        let mut rng = 0xD187_D187_u64;
        for i in 0..900u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = (rng >> 33) % span;
            if i % 4 == 0 {
                s.read(lba).unwrap();
            } else {
                s.write(lba, &block(i as u8)).unwrap();
            }
            assert_dirty_index_matches_scan(&s);
        }
        assert!(s.counters().writebacks > 0, "churn should run the cleaner");
        assert!(s.counters().evictions > 0, "churn should evict");
        s.crash_and_recover().unwrap();
        assert_dirty_index_matches_scan(&s);
    }

    #[test]
    fn volatile_configurations_reset_on_crash() {
        let ssd = HybridFtl::new(SsdConfig::small_test(), flashsim::DataMode::Store);
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        let mut s = NativeCache::new(ssd, disk, NativeMode::WriteBack, NativeConsistency::None);
        s.write(1, &block(1)).unwrap();
        // Write-back without durability: dirty data is simply LOST at a
        // crash (the disk never saw it) — the hazard the paper's durable
        // modes exist to prevent.
        let t = s.crash_and_recover().unwrap();
        assert!(t.is_zero());
        assert_eq!(s.dirty_blocks(), 0);
        let (data, _) = s.read(1).unwrap();
        assert!(
            data.iter().all(|&b| b == 0),
            "nothing recoverable without metadata"
        );
    }
}
