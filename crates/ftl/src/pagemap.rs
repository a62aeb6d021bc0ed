//! Pure page-mapped FTL with greedy garbage collection.
//!
//! Used as an ablation point against the hybrid FTL: page-level mapping
//! eliminates merge costs entirely but pays for it in mapping memory (one
//! entry per page instead of one per erase block — the trade-off DFTL and
//! the paper's §4.1 discussion revolve around).
//!
//! Writes append log-structured to an active block; when the free pool dips
//! to its reserve, the collector greedily picks the block with the fewest
//! valid pages, relocates them (to another plane when imbalanced, matching
//! the inter-plane copy of §5), and erases it.

use std::collections::HashMap;

use flashsim::{
    DataMode, FaultCounters, FaultPlan, FlashCounters, FlashDevice, FlashError, OobData, Pbn, Ppn,
    WearStats,
};
use simkit::{Duration, PageBuf};
use sparsemap::{memory, MapMemory};

use crate::config::SsdConfig;
use crate::error::FtlError;
use crate::pool::FreeBlockPool;
use crate::ssd::{read_unwritten, BlockDev, FtlCounters};
use crate::Result;

/// A page-mapped SSD.
///
/// # Examples
///
/// ```
/// use ftl::{BlockDev, PageFtl, SsdConfig};
///
/// let mut ssd = PageFtl::new(SsdConfig::small_test(), flashsim::DataMode::Store);
/// let page = vec![9u8; 512];
/// ssd.write(17, &page).unwrap();
/// assert_eq!(ssd.read(17).unwrap().0, page);
/// ```
#[derive(Debug)]
pub struct PageFtl {
    config: SsdConfig,
    dev: FlashDevice,
    /// Page-level map: LBA -> physical page.
    map: HashMap<u64, Ppn>,
    /// Block receiving host writes.
    active: Option<Pbn>,
    /// Block receiving GC relocations (kept separate so GC does not mix
    /// hot incoming data with cold relocated data).
    gc_active: Option<Pbn>,
    pool: FreeBlockPool,
    /// Blocks permanently out of circulation (worn out or erase-failed);
    /// the GC victim scan must skip them.
    retired: std::collections::BTreeSet<u64>,
    counters: FtlCounters,
    seq: u64,
    exposed_pages: u64,
}

impl PageFtl {
    /// Creates a freshly erased page-mapped SSD.
    pub fn new(config: SsdConfig, mode: DataMode) -> Self {
        let dev = FlashDevice::new(config.flash, mode);
        let pool = FreeBlockPool::full(dev.geometry());
        PageFtl {
            config,
            dev,
            map: HashMap::new(),
            active: None,
            gc_active: None,
            pool,
            retired: std::collections::BTreeSet::new(),
            counters: FtlCounters::default(),
            seq: 0,
            exposed_pages: config.exposed_pages_pagemap(),
        }
    }

    fn check_lba(&self, lba: u64) -> Result<()> {
        if lba < self.exposed_pages {
            Ok(())
        } else {
            Err(FtlError::LbaOutOfRange(lba))
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Returns a block (host or GC stream) with at least one free page.
    fn stream_block(&mut self, gc: bool, cost: &mut Duration) -> Result<Pbn> {
        let slot = if gc { self.gc_active } else { self.active };
        if let Some(pbn) = slot {
            if !self
                .dev
                .block_state(pbn)?
                .is_full(self.dev.geometry().pages_per_block())
            {
                return Ok(pbn);
            }
        }
        if !gc {
            // A single collection can be block-neutral (victim freed, one
            // fresh block consumed by the relocation stream); loop until the
            // pool has real headroom. Utilization is bounded by the
            // over-provisioning budget, so this converges; the iteration cap
            // turns a misconfiguration into an error instead of a hang.
            let mut rounds = 0;
            while self.pool.len() <= self.config.gc_reserve_blocks {
                *cost += self.collect()?;
                rounds += 1;
                if rounds > 4 * self.config.total_blocks() {
                    return Err(FtlError::OutOfSpace);
                }
            }
        }
        let fresh = self.pool.alloc().ok_or(FtlError::OutOfSpace)?;
        if gc {
            self.gc_active = Some(fresh);
        } else {
            self.active = Some(fresh);
        }
        Ok(fresh)
    }

    /// Greedy garbage collection: pick the non-active block with the fewest
    /// valid pages, relocate them, erase it.
    fn collect(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let geometry = *self.dev.geometry();
        let mut victim: Option<(u32, Pbn)> = None;
        for plane in 0..geometry.planes() {
            for block in 0..geometry.blocks_per_plane() {
                let pbn = geometry.pbn(plane, block);
                if Some(pbn) == self.active
                    || Some(pbn) == self.gc_active
                    || self.retired.contains(&pbn.raw())
                {
                    continue;
                }
                let state = self.dev.block_state(pbn)?;
                if state.is_empty() {
                    continue; // pooled or untouched
                }
                let score = state.valid_pages;
                if victim.is_none_or(|(best, _)| score < best) {
                    victim = Some((score, pbn));
                }
            }
        }
        let (_, victim) = victim.ok_or(FtlError::OutOfSpace)?;
        let first = geometry.first_page(victim).raw();
        for page in flashsim::set_bits(self.dev.valid_mask(victim)?) {
            let ppn = Ppn(first + u64::from(page));
            let oob = self.dev.peek_oob(ppn)?;
            // Charge the read, then relocate the payload device-internally:
            // same timing and counters as read + program, no host copy.
            cost += self.dev.read_page_charge(ppn)?;
            let dest = self.stream_block(true, &mut cost)?;
            let lba = oob.lba().expect("user pages carry an LBA");
            let seq = self.next_seq();
            let (new_ppn, wcost) =
                self.dev
                    .copy_page_from(dest, ppn, OobData::for_lba(lba, oob.dirty(), seq))?;
            cost += wcost;
            self.dev.invalidate_page(ppn)?;
            self.map.insert(lba, new_ppn);
            self.counters.gc_copies += 1;
        }
        match self.pool.erase_or_retire(&mut self.dev, victim)? {
            Some(erase) => cost += erase,
            None => {
                self.retired.insert(victim.raw());
                self.counters.blocks_retired += 1;
            }
        }
        self.counters.gc_collections += 1;
        Ok(cost)
    }
}

impl BlockDev for PageFtl {
    fn capacity_pages(&self) -> u64 {
        self.exposed_pages
    }

    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.check_lba(lba)?;
        self.counters.host_reads += 1;
        match self.map.get(&lba) {
            Some(&ppn) => Ok(self.dev.read_page_into(ppn, buf)?),
            None => Ok(read_unwritten(&self.dev, buf)),
        }
    }

    fn payload_discarded(&self) -> bool {
        self.dev.mode() == flashsim::DataMode::Discard
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.check_lba(lba)?;
        let mut cost = Duration::ZERO;
        let mut dest = self.stream_block(false, &mut cost)?;
        if let Some(old) = self.map.remove(&lba) {
            self.dev.invalidate_page(old)?;
        }
        // Re-issue after injected program failures; each failure consumes a
        // page, so the loop always advances.
        let ppn = loop {
            let seq = self.next_seq();
            match self
                .dev
                .program_next(dest, data, OobData::for_lba(lba, false, seq))
            {
                Ok((ppn, wcost)) => {
                    cost += wcost;
                    break ppn;
                }
                Err(FlashError::ProgramFailed(_)) => {
                    self.counters.program_reissues += 1;
                    dest = self.stream_block(false, &mut cost)?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.map.insert(lba, ppn);
        self.counters.host_writes += 1;
        Ok(cost)
    }

    fn trim(&mut self, lba: u64) -> Result<Duration> {
        self.check_lba(lba)?;
        if let Some(old) = self.map.remove(&lba) {
            self.dev.invalidate_page(old)?;
        }
        Ok(self.dev.timing().metadata_cost())
    }

    fn ftl_counters(&self) -> FtlCounters {
        self.counters
    }

    fn flash_counters(&self) -> FlashCounters {
        self.dev.counters()
    }

    fn wear(&self) -> WearStats {
        self.dev.wear()
    }

    /// Device-memory model: a dense page-level table over the exposed pages
    /// (8 B per page) plus 8 B of per-erase-block state.
    fn map_memory(&self) -> MapMemory {
        MapMemory {
            entries: self.map.len(),
            modeled_bytes: memory::dense_modeled_bytes(self.exposed_pages as usize, 8)
                + self.config.total_blocks() * 8,
            heap_bytes: (self.map.capacity() * 2 * std::mem::size_of::<(u64, Ppn)>()) as u64,
        }
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.dev.set_fault_plan(plan);
    }

    fn fault_counters(&self) -> FaultCounters {
        self.dev.fault_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PageFtl {
        PageFtl::new(SsdConfig::small_test(), DataMode::Store)
    }

    fn page(ftl: &PageFtl, fill: u8) -> Vec<u8> {
        vec![fill; ftl.dev.geometry().page_size()]
    }

    #[test]
    fn read_your_write_and_overwrite() {
        let mut ssd = small();
        ssd.write(11, &page(&ssd, 1)).unwrap();
        ssd.write(11, &page(&ssd, 2)).unwrap();
        assert_eq!(ssd.read(11).unwrap().0, page(&ssd, 2));
    }

    #[test]
    fn unmapped_read_is_zeros() {
        let mut ssd = small();
        let (d, _) = ssd.read(1).unwrap();
        assert!(d.iter().all(|&b| b == 0));
    }

    #[test]
    fn gc_reclaims_space_under_churn() {
        let mut ssd = small();
        let span = ssd.capacity_pages();
        let mut shadow: HashMap<u64, u8> = HashMap::new();
        let mut x = 99u64;
        for i in 0..3_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = x % span;
            let fill = (i % 250) as u8;
            ssd.write(lba, &page(&ssd, fill)).unwrap();
            shadow.insert(lba, fill);
        }
        assert!(ssd.ftl_counters().gc_collections > 0);
        for (&lba, &fill) in &shadow {
            assert_eq!(ssd.read(lba).unwrap().0, page(&ssd, fill), "lba {lba}");
        }
        // Greedy GC over uniform churn keeps WA moderate.
        let wa = ssd.write_amplification();
        assert!(wa < 4.0, "WA {wa}");
    }

    #[test]
    fn trim_unmaps() {
        let mut ssd = small();
        ssd.write(2, &page(&ssd, 5)).unwrap();
        ssd.trim(2).unwrap();
        assert!(ssd.read(2).unwrap().0.iter().all(|&b| b == 0));
        // Trim of unmapped LBA is fine.
        ssd.trim(3).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ssd = small();
        let cap = ssd.capacity_pages();
        assert!(matches!(ssd.read(cap), Err(FtlError::LbaOutOfRange(_))));
    }

    #[test]
    fn map_memory_dense_in_exposed_span() {
        let ssd = small();
        let mem = ssd.map_memory();
        assert_eq!(
            mem.modeled_bytes,
            ssd.exposed_pages * 8 + ssd.config.total_blocks() * 8
        );
    }

    #[test]
    fn page_ftl_avoids_merge_costs() {
        // Same scattered workload on both FTLs: the page FTL should do
        // fewer total flash writes (no full-merge copying of cold pages).
        let mut hybrid = crate::HybridFtl::new(SsdConfig::small_test(), DataMode::Store);
        let mut paged = small();
        let span = hybrid.capacity_pages().min(paged.capacity_pages());
        let mut x = 7u64;
        for _ in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = x % span;
            let data = vec![(x % 255) as u8; 512];
            hybrid.write(lba, &data).unwrap();
            paged.write(lba, &data).unwrap();
        }
        assert!(
            paged.flash_counters().page_writes <= hybrid.flash_counters().page_writes,
            "paged {} vs hybrid {}",
            paged.flash_counters().page_writes,
            hybrid.flash_counters().page_writes
        );
    }
}
