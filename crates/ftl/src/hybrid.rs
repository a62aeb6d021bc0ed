//! The FAST-style hybrid FTL — the paper's Native SSD.
//!
//! Layout: logical space is divided into erase-block-sized **logical blocks**
//! (LBNs). Each LBN maps, via a dense block-level table, to at most one
//! **data block** whose page order mirrors the logical order. All host
//! writes append to page-mapped **log blocks** (at most
//! [`SsdConfig::log_block_limit`] of them). When the log is exhausted the
//! oldest log block is merged:
//!
//! * **switch merge** if it holds exactly one LBN, fully and in order — the
//!   log block *becomes* the data block, no copying;
//! * **full merge** otherwise — every LBN with live pages in the victim is
//!   rebuilt into a fresh block by copying the newest version of each page
//!   (from any log block or the old data block), then the old data block and
//!   the victim are erased.
//!
//! The log directory is one [`SparseRow`] per LBN, slot `i` naming the log
//! page that holds offset `i`: a host operation indexes its LBN's row and a
//! merge takes the row whole. The rows' arrays come from a [`RowPool`] the
//! FTL owns and go back to it, so sustained merging makes no allocator
//! call. Table 4 still charges the directory as the LBA-keyed table of a
//! real FAST device (16 B per log page).
//!
//! All merge work is charged to the write that triggered it, so sustained
//! random writes see the full garbage-collection cost — the behaviour
//! FlashTier's silent eviction removes (§4.3, Figure 6).

use std::collections::{HashMap, VecDeque};

use flashsim::{
    set_bits, DataMode, FaultCounters, FaultPlan, FlashCounters, FlashDevice, FlashError, OobData,
    Pbn, Ppn, WearStats,
};
use simkit::{Duration, PageBuf};
use sparsemap::{memory, MapMemory, RowPool, SparseRow};

use crate::config::SsdConfig;
use crate::error::FtlError;
use crate::pool::FreeBlockPool;
use crate::ssd::{read_unwritten, BlockDev, FtlCounters};
use crate::Result;

/// The hybrid-mapped SSD.
///
/// # Examples
///
/// ```
/// use ftl::{BlockDev, HybridFtl, SsdConfig};
///
/// let mut ssd = HybridFtl::new(SsdConfig::small_test(), flashsim::DataMode::Store);
/// let page = vec![7u8; 512];
/// ssd.write(3, &page).unwrap();
/// let (data, _cost) = ssd.read(3).unwrap();
/// assert_eq!(data, page);
/// ```
#[derive(Debug)]
pub struct HybridFtl {
    config: SsdConfig,
    dev: FlashDevice,
    /// Block-level map: LBN -> data block.
    data_map: Vec<Option<Pbn>>,
    /// Page-level map for log-block contents, one row per LBN: slot `i`
    /// holds the log page of `lbn * ppb + i`. A merged LBN's row is empty;
    /// its array is back in `row_pool`.
    log_rows: Vec<SparseRow<Ppn>>,
    /// The log rows' spare arrays.
    row_pool: RowPool<Ppn>,
    /// Entries across all rows.
    log_pages: usize,
    /// Log blocks in allocation order; the front is the next merge victim.
    log_blocks: VecDeque<Pbn>,
    pool: FreeBlockPool,
    counters: FtlCounters,
    seq: u64,
    exposed_pages: u64,
    /// Scratch buffers reused across merges: the taken log row of one LBN
    /// and the distinct LBNs of one victim.
    overlay_scratch: Vec<(u32, Ppn)>,
    lbn_scratch: Vec<u64>,
}

impl HybridFtl {
    /// Creates a freshly erased SSD.
    pub fn new(config: SsdConfig, mode: DataMode) -> Self {
        let dev = FlashDevice::new(config.flash, mode);
        let pool = FreeBlockPool::full(dev.geometry());
        let exposed_lbns = config.exposed_lbns_hybrid();
        HybridFtl {
            config,
            dev,
            data_map: vec![None; exposed_lbns as usize],
            log_rows: std::iter::repeat_with(SparseRow::new)
                .take(exposed_lbns as usize)
                .collect(),
            row_pool: RowPool::new(),
            log_pages: 0,
            log_blocks: VecDeque::new(),
            pool,
            counters: FtlCounters::default(),
            seq: 0,
            exposed_pages: exposed_lbns * config.flash.geometry.pages_per_block() as u64,
            overlay_scratch: Vec::new(),
            lbn_scratch: Vec::new(),
        }
    }

    /// Number of live log blocks.
    pub fn log_blocks_in_use(&self) -> usize {
        self.log_blocks.len()
    }

    fn ppb(&self) -> u32 {
        self.config.flash.geometry.pages_per_block()
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

    /// Erases `pbn` and returns it to the pool, or retires it (see
    /// [`FreeBlockPool::erase_or_retire`]).
    fn retire_block(&mut self, pbn: Pbn) -> Result<Duration> {
        let cost = self.pool.erase_or_retire(&mut self.dev, pbn)?;
        if cost.is_none() {
            self.counters.blocks_retired += 1;
        }
        Ok(cost.unwrap_or(Duration::ZERO))
    }

    /// Invalidate the current physical copy of `lba` wherever it lives.
    fn invalidate_lba(&mut self, lba: u64) -> Result<()> {
        let (lbn, offset) = self.split(lba);
        if let Some(ppn) = self.log_rows[lbn].remove(offset, &mut self.row_pool) {
            self.log_pages -= 1;
            self.dev.invalidate_page(ppn)?;
        } else if let Some(ppn) = self.data_page(lbn, offset)? {
            self.dev.invalidate_page(ppn)?;
        }
        Ok(())
    }

    /// Splits `lba` into its logical block and the page offset within it.
    fn split(&self, lba: u64) -> (usize, u32) {
        let g = &self.config.flash.geometry;
        let offset = lba & (g.pages_per_block() as u64 - 1);
        ((lba >> g.page_shift()) as usize, offset as u32)
    }

    /// The live copy of offset `offset` of `lbn`: its log page where the
    /// directory has one, else its data-block page if still valid.
    fn live_page(&self, lbn: usize, offset: u32) -> Result<Option<Ppn>> {
        match self.log_rows[lbn].get(offset) {
            Some(&ppn) => Ok(Some(ppn)),
            None => self.data_page(lbn, offset),
        }
    }

    /// The valid data-block page backing offset `offset` of `lbn`, if any.
    fn data_page(&self, lbn: usize, offset: u32) -> Result<Option<Ppn>> {
        let Some(pbn) = self.data_map[lbn] else {
            return Ok(None);
        };
        let valid = self.dev.valid_mask(pbn)? & (1 << offset) != 0;
        Ok(valid.then(|| Ppn(self.dev.geometry().first_page(pbn).raw() + u64::from(offset))))
    }

    /// Ensures a log block with at least one free page exists and returns it,
    /// merging the oldest log block first if the log is at its limit.
    fn log_block_with_space(&mut self, cost: &mut Duration) -> Result<Pbn> {
        if let Some(&active) = self.log_blocks.back() {
            if !self.dev.block_state(active)?.is_full(self.ppb()) {
                return Ok(active);
            }
        }
        if self.log_blocks.len() as u64 >= self.config.log_block_limit() {
            *cost += self.merge_oldest()?;
        }
        let fresh = self.pool.alloc().ok_or(FtlError::OutOfSpace)?;
        debug_assert!(self.dev.block_state(fresh)?.is_empty());
        self.log_blocks.push_back(fresh);
        Ok(fresh)
    }

    /// Merges the oldest log block (switch merge when possible, full merge
    /// otherwise) and returns the time consumed.
    fn merge_oldest(&mut self) -> Result<Duration> {
        let victim = self
            .log_blocks
            .pop_front()
            .expect("merge with no log blocks");
        if let Some(lbn) = switch_candidate(&self.dev, victim)? {
            self.switch_merge(victim, lbn)
        } else {
            self.full_merge(victim)
        }
    }

    /// Switch merge: re-point the LBN's data block at the victim log block.
    fn switch_merge(&mut self, victim: Pbn, lbn: u64) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        // Drop the page-level mappings; the block-level map takes over.
        let row = &mut self.log_rows[lbn as usize];
        self.log_pages -= row.len();
        row.drain(&mut self.row_pool, |_, _| {});
        if let Some(old) = self.data_map[lbn as usize].take() {
            cost += self.retire_block(old)?;
        }
        self.data_map[lbn as usize] = Some(victim);
        self.counters.switch_merges += 1;
        Ok(cost)
    }

    /// Full merge: rebuild every LBN with live pages in the victim, then
    /// erase the victim.
    fn full_merge(&mut self, victim: Pbn) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let ppb = self.ppb() as u64;
        // Distinct LBNs in ascending order, via the reusable scratch vector
        // (sort + dedup) rather than a freshly allocated set per merge.
        let mut lbns = std::mem::take(&mut self.lbn_scratch);
        lbns.clear();
        lbns.extend(
            self.dev
                .valid_pages_iter(victim)?
                .filter_map(|(_, oob)| oob.lba())
                .map(|lba| lba / ppb),
        );
        lbns.sort_unstable();
        lbns.dedup();
        for &lbn in &lbns {
            cost += self.merge_lbn(lbn)?;
        }
        lbns.clear();
        self.lbn_scratch = lbns;
        debug_assert_eq!(self.dev.block_state(victim)?.valid_pages, 0);
        cost += self.retire_block(victim)?;
        self.counters.full_merges += 1;
        Ok(cost)
    }

    /// Copies the newest version of every page of `lbn` into a fresh data
    /// block; the old data block (if any) is erased. The merge's own lists
    /// live in reusable scratch buffers, and the row's array goes back to
    /// the pool.
    fn merge_lbn(&mut self, lbn: u64) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let ppb = self.ppb() as u64;
        let old = self.data_map[lbn as usize];
        // The newest copy of each offset is a log page where the directory
        // has one, else the old data block's page if still valid.
        let logged = self.log_rows[lbn as usize].bits();
        let in_data = match old {
            Some(pbn) => self.dev.valid_mask(pbn)?,
            None => 0,
        };
        debug_assert_eq!(logged & in_data, 0, "two valid copies of one LBA");
        let live = logged | in_data;
        if live == 0 {
            // Nothing live for this LBN (raced with trim); just drop the map.
            if let Some(oldb) = self.data_map[lbn as usize].take() {
                cost += self.retire_block(oldb)?;
            }
            return Ok(cost);
        }
        let fresh = self.pool.alloc().ok_or(FtlError::OutOfSpace)?;
        // Rebuild offsets `0..=last live` from the old data block overlaid
        // with the log row, which the copy supersedes and so is taken whole;
        // never-written offsets are zero-filled. The scratch vector is taken
        // out of `self` for the duration of the merge (it starts and ends
        // empty, so an early `?` return just costs a future re-growth).
        let mut overlay = std::mem::take(&mut self.overlay_scratch);
        self.log_rows[lbn as usize].drain(&mut self.row_pool, |offset, ppn| {
            overlay.push((offset, ppn));
        });
        self.log_pages -= overlay.len();
        let len = (u64::BITS - live.leading_zeros()) as usize;
        let seq0 = self.seq;
        let base = old.map(|pbn| (pbn, in_data));
        cost += self.dev.rebuild_block(fresh, len, base, &overlay, |i| {
            OobData::for_lba(lbn * ppb + i as u64, false, seq0 + 1 + i as u64)
        })?;
        self.seq += len as u64;
        self.counters.gc_copies += len as u64;
        overlay.clear();
        self.overlay_scratch = overlay;
        if let Some(oldb) = old {
            debug_assert_eq!(self.dev.block_state(oldb)?.valid_pages, 0);
            cost += self.retire_block(oldb)?;
        }
        self.data_map[lbn as usize] = Some(fresh);
        Ok(cost)
    }

    /// Checks the FTL's bookkeeping against the flash it describes and
    /// names the first broken rule:
    ///
    /// * the device's own rules ([`FlashDevice::check`]);
    /// * the forward map — each row's log pages, each data block's valid
    ///   pages by position — equals the flash walk
    ///   ([`FlashDevice::check_forward_map`]); a row never shadows a valid
    ///   data-block page, and every log page lies in a log block;
    /// * `log_pages` equals a recount, and an empty row holds no heap;
    /// * the block census ([`FreeBlockPool::census`]) over the data and
    ///   log blocks.
    ///
    /// Holds between operations. Test support: no operation calls it.
    pub fn check(&self) -> std::result::Result<(), String> {
        self.dev.check()?;
        let geometry = self.dev.geometry();
        let ppb = u64::from(self.ppb());
        let mut forward = HashMap::new();
        let mut pages = 0;
        for (lbn, (row, data)) in (0u64..).zip(self.log_rows.iter().zip(&self.data_map)) {
            if row.is_empty() && row.heap_bytes() != 0 {
                return Err(format!("lbn {lbn}: an empty row holds heap"));
            }
            pages += row.len();
            for (offset, &ppn) in row.iter() {
                if !self.log_blocks.contains(&geometry.block_of(ppn)) {
                    return Err(format!(
                        "lbn {lbn}: log page {ppn:?} outside the log blocks"
                    ));
                }
                forward.insert(lbn * ppb + u64::from(offset), ppn);
            }
            let Some(pbn) = *data else {
                continue;
            };
            let valid = self.dev.valid_mask(pbn).map_err(|e| e.to_string())?;
            if row.bits() & valid != 0 {
                return Err(format!("lbn {lbn}: a log page shadows a valid data page"));
            }
            let first = geometry.first_page(pbn).raw();
            for offset in set_bits(valid).map(u64::from) {
                forward.insert(lbn * ppb + offset, Ppn(first + offset));
            }
        }
        if pages != self.log_pages {
            let counted = self.log_pages;
            return Err(format!("{pages} log pages in the rows, {counted} counted"));
        }
        self.dev.check_forward_map(&forward)?;
        let owners = self.data_map.iter().flatten().chain(&self.log_blocks);
        let retired = self.counters.blocks_retired;
        self.pool.census(&self.dev, owners.copied(), retired)
    }
}

impl BlockDev for HybridFtl {
    fn capacity_pages(&self) -> u64 {
        self.exposed_pages
    }

    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.check_lba(lba)?;
        self.counters.host_reads += 1;
        let (lbn, offset) = self.split(lba);
        match self.live_page(lbn, offset)? {
            Some(ppn) => Ok(self.dev.read_page_into(ppn, buf)?),
            None => Ok(read_unwritten(&self.dev, buf)),
        }
    }

    fn payload_discarded(&self) -> bool {
        self.dev.mode() == flashsim::DataMode::Discard
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.check_lba(lba)?;
        let mut cost = Duration::ZERO;
        let mut active = self.log_block_with_space(&mut cost)?;
        let (lbn, offset) = self.split(lba);
        // Supersede the current copy. A log page keeps its row slot, which
        // the final insert overwrites in place; until then the slot is stale.
        if let Some(ppn) = self.live_page(lbn, offset)? {
            self.dev.invalidate_page(ppn)?;
        }
        let mut stale_slot = self.log_rows[lbn].bits() & (1 << offset) != 0;
        // An injected program failure consumes the target page; re-issue the
        // write to the next free page (allocating/merging as needed) until
        // it lands.
        let ppn = loop {
            let seq = self.next_seq();
            match self
                .dev
                .program_next(active, data, OobData::for_lba(lba, false, seq))
            {
                Ok((ppn, wcost)) => {
                    cost += wcost;
                    break ppn;
                }
                Err(e) => {
                    // The row must not name the dead page past this attempt:
                    // a merge below would copy it as live.
                    if std::mem::take(&mut stale_slot) {
                        self.log_rows[lbn].remove(offset, &mut self.row_pool);
                        self.log_pages -= 1;
                    }
                    let FlashError::ProgramFailed(_) = e else {
                        return Err(e.into());
                    };
                    self.counters.program_reissues += 1;
                    active = self.log_block_with_space(&mut cost)?;
                    // That call may have merged this LBA's block, leaving a
                    // fresh (zero-filled) valid copy; drop it so the invariant
                    // of one valid physical copy per LBA survives the retry.
                    self.invalidate_lba(lba)?;
                }
            }
        };
        let old = self.log_rows[lbn].insert(offset, ppn, &mut self.row_pool);
        self.log_pages += usize::from(old.is_none());
        self.counters.host_writes += 1;
        Ok(cost)
    }

    fn trim(&mut self, lba: u64) -> Result<Duration> {
        self.check_lba(lba)?;
        let mut cost = self.dev.timing().metadata_cost();
        self.invalidate_lba(lba)?;
        // Reclaim a data block that no longer holds live pages.
        let (lbn, _) = self.split(lba);
        if let Some(pbn) = self.data_map[lbn] {
            if self.dev.block_state(pbn)?.valid_pages == 0 {
                self.data_map[lbn] = None;
                cost += self.retire_block(pbn)?;
            }
        }
        Ok(cost)
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

    /// Device-memory model for Table 4: a dense block-level table over the
    /// exposed LBNs (8 B per entry), a page-level log directory sized for the
    /// maximum log population (16 B per log page: LBA + physical page), and
    /// 8 B of per-erase-block state.
    fn map_memory(&self) -> MapMemory {
        let log_pages = self.config.log_block_limit() * self.ppb() as u64;
        let modeled = memory::dense_modeled_bytes(self.data_map.len(), 8)
            + log_pages * 16
            + self.config.total_blocks() * 8;
        let rows: usize = self.log_rows.iter().map(SparseRow::heap_bytes).sum();
        let heap = self.data_map.capacity() * std::mem::size_of::<Option<Pbn>>()
            + self.log_rows.capacity() * std::mem::size_of::<SparseRow<Ppn>>()
            + rows
            + self.row_pool.heap_bytes();
        MapMemory {
            entries: self.data_map.iter().filter(|e| e.is_some()).count() + self.log_pages,
            modeled_bytes: modeled,
            heap_bytes: heap as u64,
        }
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.dev.set_fault_plan(plan);
    }

    fn fault_counters(&self) -> FaultCounters {
        self.dev.fault_counters()
    }
}

/// The logical block a switch merge can turn log block `victim` into, if
/// any: every page valid, in logical order from a first LBA that starts a
/// logical block. Both the hybrid FTL and the SSC choose their merge by it.
pub fn switch_candidate(
    dev: &FlashDevice,
    victim: Pbn,
) -> std::result::Result<Option<u64>, FlashError> {
    let ppb = u64::from(dev.geometry().pages_per_block());
    if u64::from(dev.block_state(victim)?.valid_pages) != ppb {
        return Ok(None);
    }
    let mut valid = dev.valid_pages_iter(victim)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> HybridFtl {
        HybridFtl::new(SsdConfig::small_test(), DataMode::Store)
    }

    fn page(ftl: &HybridFtl, fill: u8) -> Vec<u8> {
        vec![fill; ftl.dev.geometry().page_size()]
    }

    #[test]
    fn read_your_write() {
        let mut ssd = small();
        let p = page(&ssd, 0x42);
        ssd.write(5, &p).unwrap();
        let (got, _) = ssd.read(5).unwrap();
        assert_eq!(got, p);
    }

    #[test]
    fn unwritten_reads_return_zeros_cheaply() {
        let mut ssd = small();
        let (got, cost) = ssd.read(0).unwrap();
        assert!(got.iter().all(|&b| b == 0));
        assert!(cost < ssd.dev.timing().read_cost());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ssd = small();
        let cap = ssd.capacity_pages();
        let p = page(&ssd, 0);
        assert_eq!(ssd.write(cap, &p), Err(FtlError::LbaOutOfRange(cap)));
        assert!(matches!(ssd.read(cap), Err(FtlError::LbaOutOfRange(_))));
        assert!(matches!(ssd.trim(cap), Err(FtlError::LbaOutOfRange(_))));
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut ssd = small();
        for i in 0..10u8 {
            ssd.write(3, &page(&ssd, i)).unwrap();
        }
        let (got, _) = ssd.read(3).unwrap();
        assert_eq!(got, page(&ssd, 9));
    }

    #[test]
    fn sequential_fill_triggers_switch_merges() {
        let mut ssd = small();
        // Write several logical blocks start-to-end, repeatedly; sequential
        // log blocks should become data blocks without copies.
        let ppb = ssd.ppb() as u64;
        for pass in 0..3u8 {
            for lba in 0..4 * ppb {
                ssd.write(lba, &page(&ssd, pass)).unwrap();
            }
        }
        assert!(
            ssd.ftl_counters().switch_merges > 0,
            "sequential workload should switch-merge: {:?}",
            ssd.ftl_counters()
        );
        // Data integrity across merges.
        for lba in 0..4 * ppb {
            let (got, _) = ssd.read(lba).unwrap();
            assert_eq!(got, page(&ssd, 2), "lba {lba}");
        }
    }

    #[test]
    fn random_overwrites_trigger_full_merges() {
        let mut ssd = small();
        let ppb = ssd.ppb() as u64;
        let span = 4 * ppb;
        // Scattered writes across several LBNs force fully-associative log
        // blocks to hold mixed content -> full merges.
        let mut lba = 0;
        for i in 0..(span * 6) {
            lba = (lba + 7) % span;
            ssd.write(lba, &page(&ssd, (i % 251) as u8)).unwrap();
        }
        assert!(
            ssd.ftl_counters().full_merges > 0,
            "{:?}",
            ssd.ftl_counters()
        );
        assert!(ssd.ftl_counters().gc_copies > 0);
        assert!(ssd.write_amplification() > 1.0);
    }

    #[test]
    fn contents_survive_heavy_churn() {
        let mut ssd = small();
        let span = ssd.capacity_pages();
        // Deterministic pseudo-random churn with a shadow model.
        let mut shadow: HashMap<u64, u8> = HashMap::new();
        let mut x = 12345u64;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = x % span;
            let fill = (i % 255) as u8;
            ssd.write(lba, &page(&ssd, fill)).unwrap();
            shadow.insert(lba, fill);
        }
        for (&lba, &fill) in &shadow {
            let (got, _) = ssd.read(lba).unwrap();
            assert_eq!(got, page(&ssd, fill), "lba {lba}");
        }
    }

    #[test]
    fn trim_makes_reads_zero() {
        let mut ssd = small();
        ssd.write(9, &page(&ssd, 0xAA)).unwrap();
        ssd.trim(9).unwrap();
        let (got, _) = ssd.read(9).unwrap();
        assert!(got.iter().all(|&b| b == 0));
    }

    #[test]
    fn trim_of_merged_block_reclaims_it() {
        let mut ssd = small();
        let ppb = ssd.ppb() as u64;
        // Fill four LBNs sequentially twice; the log-block limit forces
        // merges, so LBN 0 ends up block-mapped.
        for pass in 0..2u8 {
            for lba in 0..4 * ppb {
                ssd.write(lba, &page(&ssd, pass + 1)).unwrap();
            }
        }
        assert!(ssd.ftl_counters().switch_merges + ssd.ftl_counters().full_merges > 0);
        let free_before = ssd.pool.len();
        for lba in 0..ppb {
            ssd.trim(lba).unwrap();
        }
        assert!(
            ssd.pool.len() > free_before,
            "trim should free the data block"
        );
        for lba in 0..ppb {
            let (got, _) = ssd.read(lba).unwrap();
            assert!(got.iter().all(|&b| b == 0), "lba {lba} not zeroed");
        }
    }

    #[test]
    fn switch_candidate_needs_one_whole_aligned_block_in_order() {
        let config = flashsim::FlashConfig::small_test();
        let ppb = u64::from(config.geometry.pages_per_block());
        let data = vec![0u8; config.geometry.page_size()];
        let mut dev = FlashDevice::new(config, DataMode::Store);
        let swapped = |i| match i {
            1 => 2,
            2 => 1,
            i => i,
        };
        let runs: [Vec<u64>; 4] = [
            (ppb..2 * ppb).collect(),
            (ppb + 1..2 * ppb + 1).collect(),
            (0..ppb).map(swapped).collect(),
            (0..ppb - 1).collect(),
        ];
        for (pbn, lbas) in (0..).map(Pbn).zip(&runs) {
            for (seq, &lba) in (1..).zip(lbas) {
                let oob = OobData::for_lba(lba, false, seq);
                dev.program_next(pbn, &data, oob).unwrap();
            }
        }
        let found: Vec<_> = (0..4)
            .map(|pbn| switch_candidate(&dev, Pbn(pbn)).unwrap())
            .collect();
        // Only the whole, aligned, in-order run qualifies: not one that
        // starts mid-block, one out of order, or one a page short.
        assert_eq!(found, [Some(1), None, None, None]);
    }

    #[test]
    fn write_amp_near_one_for_sequential_single_pass() {
        let mut ssd = small();
        let ppb = ssd.ppb() as u64;
        for lba in 0..6 * ppb {
            ssd.write(lba, &page(&ssd, 1)).unwrap();
        }
        let wa = ssd.write_amplification();
        assert!(wa < 1.2, "sequential WA should be ~1, got {wa}");
    }

    #[test]
    fn counters_track_host_ops() {
        let mut ssd = small();
        let p = page(&ssd, 1);
        ssd.write(0, &p).unwrap();
        ssd.write(1, &p).unwrap();
        ssd.read(0).unwrap();
        let c = ssd.ftl_counters();
        assert_eq!(c.host_writes, 2);
        assert_eq!(c.host_reads, 1);
    }

    #[test]
    fn map_memory_is_dense_in_span() {
        let ssd = small();
        let mem = ssd.map_memory();
        // Dense model: nonzero even when empty.
        assert!(mem.modeled_bytes > 0);
        assert_eq!(mem.entries, 0);
    }

    #[test]
    fn reissued_log_rewrite_merges_without_the_superseded_page() {
        // A plan whose first program fails and whose second lands.
        let plan = (0..)
            .map(|seed| FaultPlan {
                seed,
                program_fail_ppm: 500_000,
                ..FaultPlan::default()
            })
            .find(|&plan| {
                let mut draws = flashsim::FaultInjector::new(plan);
                draws.on_program() && !draws.on_program()
            })
            .unwrap();
        let mut ssd = small();
        let ppb = ssd.ppb() as u64;
        assert_eq!((ppb, ssd.config.log_block_limit()), (8, 3));
        // LBAs 0 and 1 of LBN 0 open the oldest log block; LBNs 1..=3 fill
        // the log up to its last page.
        for lba in (0..2).chain(ppb..4 * ppb - 3) {
            ssd.write(lba, &page(&ssd, lba as u8)).unwrap();
        }
        assert_eq!((ssd.log_blocks_in_use(), ssd.log_pages), (3, 23));
        // The rewrite of LBA 0 fails into that last page, so its re-issue
        // needs a log block and the merge that makes room rebuilds LBN 0
        // (for LBA 1) and LBN 1 — with LBA 0's superseded log page dead.
        ssd.set_fault_plan(plan);
        let reads_before = ssd.flash_counters().page_reads;
        ssd.write(0, &page(&ssd, 0xEE)).unwrap();
        let c = ssd.ftl_counters();
        assert_eq!((c.program_reissues, c.full_merges), (1, 1));
        // Copied: LBA 1 and the eight live pages of LBN 1, nothing else.
        assert_eq!(ssd.flash_counters().page_reads - reads_before, 9);
        assert_eq!(c.gc_copies, 2 + 8);
        // One valid physical copy of the rewritten LBA, and the page count
        // still a recount.
        ssd.check().unwrap();
        assert_eq!(ssd.read(0).unwrap().0, page(&ssd, 0xEE));
        for lba in (1..2).chain(ppb..4 * ppb - 3) {
            assert_eq!(ssd.read(lba).unwrap().0, page(&ssd, lba as u8), "lba {lba}");
        }
    }

    #[test]
    fn paper_config_sustains_full_device_overwrites() {
        // Larger config: write the whole exposed space twice with a stride
        // pattern, then verify a sample.
        let config = SsdConfig::paper_default(flashsim::FlashConfig::small_test());
        let mut ssd = HybridFtl::new(config, DataMode::Store);
        let span = ssd.capacity_pages();
        assert!(span > 0);
        for pass in 0..2u8 {
            for i in 0..span {
                let lba = (i * 13) % span;
                ssd.write(lba, &page(&ssd, pass)).unwrap();
            }
        }
        for lba in (0..span).step_by(17) {
            let (got, _) = ssd.read(lba).unwrap();
            assert_eq!(got[0], 1, "lba {lba}");
        }
    }
}

#[cfg(test)]
mod log_bits_oracle_tests {
    use std::collections::HashSet;

    use super::*;
    use simkit::SimRng;

    /// [`HybridFtl::check`], then the test's own model: every log page is
    /// one the test wrote and has not trimmed since, and every such LBA
    /// still resolves.
    fn assert_written(ssd: &HybridFtl, written: &HashSet<u64>, at: &str) {
        if let Err(broken) = ssd.check() {
            panic!("{at}: {broken}");
        }
        let ppb = ssd.ppb() as u64;
        for (lbn, row) in (0u64..).zip(&ssd.log_rows) {
            for (offset, _) in row.iter() {
                let lba = lbn * ppb + u64::from(offset);
                assert!(written.contains(&lba), "{at}: log page for unwritten {lba}");
            }
        }
        for &lba in written {
            let (lbn, offset) = ssd.split(lba);
            assert!(
                ssd.live_page(lbn, offset).unwrap().is_some(),
                "{at}: {lba} lost"
            );
        }
    }

    #[test]
    fn log_bitmap_mirrors_the_log_directory_under_churn() {
        let reissue_plan = FaultPlan {
            seed: 17,
            program_fail_ppm: 120_000,
            ..FaultPlan::default()
        };
        let mut runs = Vec::new();
        for (seed, plan) in [(1, None), (2, Some(reissue_plan)), (3, None)] {
            let mut ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Discard);
            if let Some(plan) = plan {
                ssd.set_fault_plan(plan);
            }
            let mut rng = SimRng::seed_from(0xB175 ^ seed);
            let ppb = ssd.ppb() as u64;
            let span = ssd.capacity_pages();
            let page = vec![0u8; ssd.dev.geometry().page_size()];
            // LBAs written and not trimmed since.
            let mut written: HashSet<u64> = HashSet::new();
            for step in 0..1500 {
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(16) {
                    0..=8 => {
                        let lba = rng.gen_range(span);
                        ssd.write(lba, &page).unwrap();
                        written.insert(lba);
                    }
                    9..=11 => {
                        let lba = rng.gen_range(span);
                        ssd.trim(lba).unwrap();
                        written.remove(&lba);
                    }
                    12 => {
                        // A whole logical block start to end: with a little
                        // luck it fills one log block and switch-merges.
                        let lbn = rng.gen_range(span / ppb);
                        for lba in lbn * ppb..(lbn + 1) * ppb {
                            ssd.write(lba, &page).unwrap();
                            written.insert(lba);
                            assert_written(&ssd, &written, &at);
                        }
                    }
                    _ => drop(ssd.read(rng.gen_range(span)).unwrap()),
                }
                assert_written(&ssd, &written, &at);
            }
            runs.push(ssd.ftl_counters());
        }
        // The schedule reached every site that edits the directory.
        assert!(runs.iter().all(|c| c.switch_merges > 0), "{runs:?}");
        assert!(runs.iter().all(|c| c.full_merges > 0), "{runs:?}");
        assert!(runs[1].program_reissues > 0, "{runs:?}");
    }
}
