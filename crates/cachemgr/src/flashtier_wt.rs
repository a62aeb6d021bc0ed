//! The FlashTier write-through cache manager (§4.4).
//!
//! "The write-through policy consults the cache on every read. ... The cache
//! manager fetches the data from the disk on a miss and writes it to the SSC
//! with write-clean. Similarly, the cache manager sends new data from writes
//! both to the disk and to the SSC with write-clean. As all data is clean,
//! the manager never sends any clean requests. We optimize the design for
//! memory consumption assuming a high hit rate: the manager stores no data
//! about cached blocks, and consults the cache on every request."

use disksim::Disk;
use flashtier_core::{Ssc, SscError};
use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::metrics::MgrCounters;
use crate::system::{tiers_discard, CacheSystem};
use crate::Result;

/// Write-through FlashTier system: SSC + disk and no host metadata. All
/// cached data is clean and the disk is authoritative, so every read consults
/// the SSC and every miss or unreadable cache page is served from the disk.
#[derive(Debug)]
pub struct FlashTierWt {
    ssc: Ssc,
    disk: Disk,
    counters: MgrCounters,
    /// Both tiers run in discard mode: payload bytes are never retained,
    /// produced or read back.
    payload_discarded: bool,
}

impl FlashTierWt {
    /// Assembles the system. The SSC page size must match the disk block
    /// size, and both tiers must keep payloads or both discard them.
    ///
    /// # Panics
    ///
    /// Panics on a block-size mismatch, or on tiers of different data
    /// modes (one keeps payloads, the other discards them).
    pub fn new(ssc: Ssc, disk: Disk) -> Self {
        assert_eq!(
            ssc.page_size(),
            disk.block_size(),
            "cache/disk block size mismatch"
        );
        let payload_discarded =
            tiers_discard(ssc.data_mode() == flashsim::DataMode::Discard, &disk);
        FlashTierWt {
            ssc,
            disk,
            counters: MgrCounters::default(),
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

    /// Durability barrier: drains the SSC's buffered group-commit records
    /// so every acknowledged operation is crash-durable. The server's
    /// graceful shutdown runs each shard's drain through this.
    ///
    /// # Errors
    ///
    /// Flash faults during the synchronous commit.
    pub fn barrier_flush(&mut self) -> Result<Duration> {
        Ok(self.ssc.commit_log()?)
    }

    /// Simulates a crash followed by recovery. A write-through manager "may
    /// immediately begin using the SSC; it maintains no transient in-memory
    /// state" — the returned time is the SSC's recovery alone.
    ///
    /// # Errors
    ///
    /// Flash faults during device recovery.
    pub fn crash_and_recover(&mut self) -> Result<Duration> {
        self.ssc.crash();
        Ok(self.ssc.recover()?)
    }

    /// Disk fetch + cache fill shared by the miss and read-fault paths; the
    /// fetched block ends up in `buf`.
    fn fetch_and_fill(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        let disk_cost = self.disk.read_into(lba, buf)?;
        // Populate the cache with the fetched block; a cache that cannot
        // make space right now simply skips the fill.
        let fill_cost = match self.ssc.write_clean(lba, buf) {
            Ok(c) => c,
            Err(SscError::OutOfSpace) => Duration::ZERO,
            Err(e) => return Err(e.into()),
        };
        Ok(disk_cost + fill_cost)
    }
}

impl CacheSystem for FlashTierWt {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.counters.reads += 1;
        match self.ssc.read_into(lba, buf) {
            Ok((cost, _)) => {
                self.counters.read_hits += 1;
                Ok(cost)
            }
            Err(SscError::NotPresent(_)) => {
                self.counters.read_misses += 1;
                self.fetch_and_fill(lba, buf)
            }
            Err(SscError::Flash(e)) if e.is_media_fault() => {
                // Unrecoverable cache read. All write-through data is clean,
                // so the disk is authoritative: drop the faulted mapping and
                // serve the read as a miss. Never stale data, never a panic.
                let evict_cost = self.ssc.evict(lba)?;
                self.counters.read_fault_fallbacks += 1;
                self.counters.read_misses += 1;
                Ok(evict_cost + self.fetch_and_fill(lba, buf)?)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn payload_discarded(&self) -> bool {
        self.payload_discarded
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.counters.writes += 1;
        // Both tiers receive the write; they proceed in parallel, so the
        // request completes when the slower one does.
        let disk_cost = self.disk.write(lba, data)?;
        let ssc_cost = self.ssc.write_clean(lba, data)?;
        Ok(disk_cost.max(ssc_cost))
    }

    fn counters(&self) -> MgrCounters {
        self.counters
    }

    /// Zero: in write-through mode "its memory usage is effectively zero".
    fn host_memory(&self) -> MapMemory {
        MapMemory::default()
    }

    fn device_memory(&self) -> MapMemory {
        self.ssc.map_memory()
    }

    fn block_size(&self) -> usize {
        self.ssc.page_size()
    }

    fn name(&self) -> &'static str {
        "flashtier-wt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskConfig, DiskDataMode};
    use flashtier_core::SscConfig;

    fn system() -> FlashTierWt {
        let ssc = Ssc::new(SscConfig::small_test());
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        FlashTierWt::new(ssc, disk)
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 512]
    }

    #[test]
    #[should_panic(expected = "data mode mismatch")]
    fn store_cache_over_discard_disk_is_refused() {
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Discard);
        FlashTierWt::new(Ssc::new(SscConfig::small_test()), disk);
    }

    #[test]
    fn write_reaches_both_tiers() {
        let mut s = system();
        s.write(5, &block(7)).unwrap();
        // Cache hit returns the data without disk involvement.
        let reads_before = s.disk.counters().reads;
        let (data, _) = s.read(5).unwrap();
        assert_eq!(data, block(7));
        assert_eq!(
            s.disk.counters().reads,
            reads_before,
            "hit must not touch the disk"
        );
        assert_eq!(s.counters().read_hits, 1);
    }

    #[test]
    fn miss_fetches_from_disk_and_fills_cache() {
        let mut s = system();
        // Data only on disk.
        s.disk.write(9, &block(3)).unwrap();
        let (data, cost) = s.read(9).unwrap();
        assert_eq!(data, block(3));
        assert!(cost.as_micros() >= 2000, "miss pays the disk seek");
        assert_eq!(s.counters().read_misses, 1);
        // Second read is a hit.
        let (_, cost2) = s.read(9).unwrap();
        assert!(cost2 < cost);
        assert_eq!(s.counters().read_hits, 1);
    }

    #[test]
    fn miss_of_unwritten_block_returns_zeros() {
        let mut s = system();
        let (data, _) = s.read(1234).unwrap();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn hits_are_much_faster_than_misses() {
        let mut s = system();
        s.disk.write(1, &block(1)).unwrap();
        let (_, miss) = s.read(1).unwrap();
        let (_, hit) = s.read(1).unwrap();
        assert!(
            hit.as_micros() * 5 < miss.as_micros(),
            "hit {hit} vs miss {miss}"
        );
    }

    #[test]
    fn cache_survives_crash_without_manager_state() {
        let mut s = system();
        s.write(3, &block(9)).unwrap();
        let t = s.crash_and_recover().unwrap();
        assert!(t.as_micros() > 0);
        // All data was clean and committed (CleanAndDirty default); the
        // cache can serve it immediately.
        let (data, _) = s.read(3).unwrap();
        assert_eq!(data, block(9));
        assert_eq!(s.host_memory().modeled_bytes, 0);
    }

    #[test]
    fn eviction_pressure_falls_back_to_disk_transparently() {
        let mut s = system();
        let span = s.ssc.data_capacity_pages() * 3;
        for lba in 0..span {
            s.write(lba, &block(lba as u8)).unwrap();
        }
        // Every block still readable — silently evicted ones via disk.
        for lba in (0..span).step_by(7) {
            let (data, _) = s.read(lba).unwrap();
            assert_eq!(data, block(lba as u8), "lba {lba}");
        }
        assert!(s.ssc.counters().silent_evictions > 0);
        assert!(
            s.counters().read_misses > 0,
            "some reads must have gone to disk"
        );
    }

    #[test]
    fn prefill_warms_cache() {
        let mut s = system();
        s.disk.write(42, &block(5)).unwrap();
        let (data, _) = s.disk.read(42).unwrap();
        s.ssc.write_clean(42, &data).unwrap();
        let reads_before = s.disk.counters().reads;
        let (data, _) = s.read(42).unwrap();
        assert_eq!(data, block(5));
        assert_eq!(s.disk.counters().reads, reads_before);
    }
}
