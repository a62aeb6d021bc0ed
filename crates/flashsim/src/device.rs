//! The simulated flash device.

use crate::addr::{Pbn, Ppn};
use crate::block::{low_bits, set_bits, Block, BlockState};
use crate::config::{FlashConfig, Geometry};
use crate::counters::{FlashCounters, WearStats, WearTracker};
use crate::error::FlashError;
use crate::fault::{FaultCounters, FaultInjector, FaultPlan, ReadFault};
use crate::oob::OobData;
use crate::page::PageState;
use crate::timing::FlashTiming;
use crate::Result;
use simkit::{Duration, PageBuf};

/// Whether the device stores page payloads.
///
/// [`DataMode::Discard`] reproduces the paper's emulation technique for
/// caches larger than host DRAM: "it stores the metadata of all cached blocks
/// in memory but discards data on writes and returns fake data on reads,
/// similar to David". Here the fake data is whatever the caller's buffer
/// already held: no simulated number depends on payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Keep page payloads; reads return exactly what was programmed.
    Store,
    /// Neither store nor produce payloads; a read sizes the caller's buffer
    /// to one page and writes nothing into it.
    Discard,
}

/// A simulated NAND flash device.
///
/// See the [crate documentation](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    config: FlashConfig,
    mode: DataMode,
    blocks: Vec<Block>,
    /// OOB area of every page, indexed by PPN. Entries at or above a
    /// block's write pointer are stale and unobservable: every accessor
    /// checks the page is programmed first.
    oob: Vec<OobData>,
    /// Page payloads, indexed by PPN; empty in [`DataMode::Discard`].
    payloads: Vec<Option<Box<[u8]>>>,
    counters: FlashCounters,
    /// Erase-count histogram kept in lockstep with the blocks so
    /// [`FlashDevice::wear`] is O(1) instead of a full-device scan.
    wear: WearTracker,
    /// Per-plane read tally reused by [`FlashDevice::rebuild_block`] so
    /// batch reads stay allocation-free.
    plane_scratch: Vec<u64>,
    /// Deterministic media-fault injection; `None` (the default) disables
    /// faults entirely — no hashes drawn, no timing changed.
    faults: Option<FaultInjector>,
}

impl FlashDevice {
    /// Creates a device with every block erased.
    pub fn new(config: FlashConfig, mode: DataMode) -> Self {
        let total_blocks = config.geometry.total_blocks() as usize;
        let total_pages = config.geometry.total_pages() as usize;
        FlashDevice {
            config,
            mode,
            blocks: vec![Block::default(); total_blocks],
            oob: vec![OobData::default(); total_pages],
            payloads: match mode {
                DataMode::Store => vec![None; total_pages],
                DataMode::Discard => Vec::new(),
            },
            counters: FlashCounters::default(),
            wear: WearTracker::new(total_blocks as u64),
            plane_scratch: vec![0; config.geometry.planes() as usize],
            faults: None,
        }
    }

    /// Installs a deterministic media-fault plan. Faults survive simulated
    /// power failures (media damage lives in the cells, not controller RAM);
    /// installing a plan resets any previous fault state.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Cumulative injected-fault statistics (all zero when faults are off).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(FaultInjector::counters)
            .unwrap_or_default()
    }

    /// Number of grown bad blocks.
    pub fn grown_bad_blocks(&self) -> usize {
        self.faults
            .as_ref()
            .map_or(0, FaultInjector::bad_block_count)
    }

    /// Device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// Timing model.
    pub fn timing(&self) -> &FlashTiming {
        &self.config.timing
    }

    /// Data retention mode.
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    /// Cumulative operation counters.
    pub fn counters(&self) -> FlashCounters {
        self.counters
    }

    /// Wear statistics over all erase blocks. O(1): maintained incrementally
    /// by [`FlashDevice::erase_block`] rather than recomputed per query.
    pub fn wear(&self) -> WearStats {
        self.wear.stats()
    }

    fn check_pbn(&self, pbn: Pbn) -> Result<()> {
        if self.config.geometry.pbn_in_range(pbn) {
            Ok(())
        } else {
            Err(FlashError::PbnOutOfRange(pbn))
        }
    }

    fn block(&self, pbn: Pbn) -> &Block {
        &self.blocks[pbn.raw() as usize]
    }

    fn block_mut(&mut self, pbn: Pbn) -> &mut Block {
        &mut self.blocks[pbn.raw() as usize]
    }

    /// Range-checks `ppn` and splits it into its block and in-block index.
    #[inline]
    fn locate(&self, ppn: Ppn) -> Result<(Pbn, u32)> {
        let g = &self.config.geometry;
        if !g.ppn_in_range(ppn) {
            return Err(FlashError::PpnOutOfRange(ppn));
        }
        Ok((g.block_of(ppn), g.page_in_block(ppn)))
    }

    /// [`FlashDevice::locate`] for a page that must have been programmed
    /// since its block's last erase.
    #[inline]
    fn locate_programmed(&self, ppn: Ppn) -> Result<(Pbn, u32)> {
        let (pbn, idx) = self.locate(ppn)?;
        if self.block(pbn).is_free(idx) {
            return Err(FlashError::ReadFree(ppn));
        }
        Ok((pbn, idx))
    }

    /// The first of the next `count` programmable pages of `pbn`.
    fn next_free(&self, pbn: Pbn, count: usize) -> Result<Ppn> {
        self.check_pbn(pbn)?;
        let g = &self.config.geometry;
        let first = g.first_page(pbn);
        let wp = self.block(pbn).write_ptr;
        if wp as usize + count > g.pages_per_block() as usize {
            return Err(FlashError::ProgramNotFree(first));
        }
        Ok(Ppn(first.raw() + u64::from(wp)))
    }

    /// The single source of truth for what a programmed page reads back as:
    /// the stored payload in store mode, zeros for a page a failed program
    /// consumed; discard mode writes nothing.
    fn payload_into(&self, ppn: Ppn, out: &mut [u8]) {
        match self.mode {
            DataMode::Discard => {}
            DataMode::Store => match &self.payloads[ppn.raw() as usize] {
                Some(data) => out.copy_from_slice(data),
                None => out.fill(0),
            },
        }
    }

    /// A *host* read of a programmed page into `buf`, resized to one page
    /// (in [`DataMode::Discard`] its bytes are left as they were). Unlike
    /// [`FlashDevice::read_page_charge`], which models a device-internal
    /// read, it draws from the fault plan.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadFree`] if the page has not been programmed since the
    /// last erase; [`FlashError::PpnOutOfRange`] for bad addresses. Reading an
    /// `Invalid` page succeeds — the cells still hold the superseded content
    /// until the block is erased, and GC relies on reading pages it is about
    /// to invalidate. With a fault plan installed, injected
    /// [`FlashError::ReadFailed`]/[`FlashError::ReadCorrupt`] faults charge
    /// nothing; a transient fault succeeds at double read time (the internal
    /// retry).
    #[inline]
    pub fn read_page_into(&mut self, ppn: Ppn, buf: &mut PageBuf) -> Result<Duration> {
        self.locate_programmed(ppn)?;
        let mut retries = 0u64;
        if let Some(inj) = &mut self.faults {
            match inj.on_read(ppn) {
                ReadFault::None => {}
                ReadFault::Transient => retries = 1,
                ReadFault::Failed => return Err(FlashError::ReadFailed(ppn)),
                ReadFault::Corrupt => return Err(FlashError::ReadCorrupt(ppn)),
            }
        }
        let out = buf.prepare(self.config.geometry.page_size());
        self.payload_into(ppn, out);
        self.counters.page_reads += 1;
        Ok(self.config.timing.read_cost() * (1 + retries))
    }

    /// Reads a programmed page, returning its payload and the simulated cost.
    /// Convenience wrapper over [`FlashDevice::read_page_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::read_page_into`].
    pub fn read_page(&mut self, ppn: Ppn) -> Result<(Vec<u8>, Duration)> {
        let mut buf = PageBuf::new();
        let cost = self.read_page_into(ppn, &mut buf)?;
        Ok((buf.into_vec(), cost))
    }

    /// Charges the cost and counters of reading one programmed page without
    /// materializing its payload — the read half of a device-internal copy
    /// ([`FlashDevice::copy_page_from`]), where the data never crosses to
    /// the host. Validation, counters and timing are identical to
    /// [`FlashDevice::read_page_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::read_page_into`].
    pub fn read_page_charge(&mut self, ppn: Ppn) -> Result<Duration> {
        self.locate_programmed(ppn)?;
        self.counters.page_reads += 1;
        Ok(self.config.timing.read_cost())
    }

    /// Returns OOB metadata without charging simulated time.
    ///
    /// This models the FTL/SSC controller consulting state it already has in
    /// device RAM (the simulator keeps OOB mirrored in memory, as real
    /// controllers cache it for the blocks they manage).
    ///
    /// # Errors
    ///
    /// Same addressing/state errors as [`FlashDevice::read_page`].
    pub fn peek_oob(&self, ppn: Ppn) -> Result<OobData> {
        self.locate_programmed(ppn)?;
        Ok(self.oob[ppn.raw() as usize])
    }

    /// Programs a page with data and OOB metadata, returning the simulated
    /// cost.
    ///
    /// # Errors
    ///
    /// * [`FlashError::ProgramNotFree`] if the page was already programmed.
    /// * [`FlashError::ProgramOutOfOrder`] if an earlier page of the block is
    ///   still free (NAND requires sequential in-block programming).
    /// * [`FlashError::BadPageSize`] if `data` is not exactly one page.
    pub fn program_page(&mut self, ppn: Ppn, data: &[u8], oob: OobData) -> Result<Duration> {
        let (pbn, idx) = self.locate(ppn)?;
        let page_size = self.config.geometry.page_size();
        if data.len() != page_size {
            return Err(FlashError::BadPageSize {
                got: data.len(),
                expected: page_size,
            });
        }
        let block = self.block(pbn);
        if !block.is_free(idx) {
            return Err(FlashError::ProgramNotFree(ppn));
        }
        if idx != block.write_ptr {
            return Err(FlashError::ProgramOutOfOrder {
                ppn,
                expected: block.write_ptr,
            });
        }
        let at = ppn.raw() as usize;
        self.oob[at] = oob;
        if let Some(inj) = &mut self.faults {
            if inj.on_program() {
                // The failed page is consumed: programmed with indeterminate
                // content and immediately invalid. The caller re-issues the
                // write to the next free page.
                self.block_mut(pbn).consume();
                return Err(FlashError::ProgramFailed(ppn));
            }
        }
        if self.mode == DataMode::Store {
            self.payloads[at] = Some(data.into());
        }
        self.block_mut(pbn).program(1);
        self.counters.page_writes += 1;
        Ok(self.config.timing.write_cost())
    }

    /// Programs the next free page of `pbn` (the block's write pointer),
    /// returning the page chosen and the cost. This is the natural primitive
    /// for log-structured writing.
    ///
    /// # Errors
    ///
    /// [`FlashError::ProgramNotFree`] if the block is full, plus the errors of
    /// [`FlashDevice::program_page`].
    pub fn program_next(&mut self, pbn: Pbn, data: &[u8], oob: OobData) -> Result<(Ppn, Duration)> {
        let ppn = self.next_free(pbn, 1)?;
        let cost = self.program_page(ppn, data, oob)?;
        Ok((ppn, cost))
    }

    /// Programs the next free page of `pbn` with the payload of `src` — a
    /// device-internal copy, the program half of a single-page relocation.
    /// The data never crosses to the host: store mode clones the retained
    /// payload, discard mode moves nothing at all. Timing and counters are
    /// identical to [`FlashDevice::program_next`]; the read side is charged
    /// separately via [`FlashDevice::read_page_charge`]. Whole-block rebuilds
    /// use [`FlashDevice::rebuild_block`] instead.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadFree`] if `src` has not been programmed, plus the
    /// errors of [`FlashDevice::program_next`].
    pub fn copy_page_from(&mut self, pbn: Pbn, src: Ppn, oob: OobData) -> Result<(Ppn, Duration)> {
        self.locate_programmed(src)?;
        let ppn = self.next_free(pbn, 1)?;
        let at = ppn.raw() as usize;
        if self.mode == DataMode::Store {
            self.payloads[at] = self.payloads[src.raw() as usize].clone();
        }
        self.oob[at] = oob;
        self.block_mut(pbn).program(1);
        self.counters.page_writes += 1;
        Ok((ppn, self.config.timing.write_cost()))
    }

    /// Rebuilds a run of a block device-internally — the one merge-copy
    /// primitive of both the hybrid FTL and the SSC, shaped like what a merge
    /// has in hand: an old data block with its validity mask, and the
    /// logical block's log pages. Programs the next `len` pages of `dst` in
    /// order. Page `i` takes the payload of `overlay`'s page for offset `i`
    /// if it has one, else of page `i` of `base.0` if bit `i` of `base.1` is
    /// set, else zeros (an offset that was never written); its OOB is
    /// `oob(i)`. Every source page is then invalidated. All new pages are
    /// `Valid`; a caller that does not map its holes invalidates them.
    ///
    /// The base block costs the host a few word operations whatever its
    /// population; only overlay pages are handled one by one.
    ///
    /// Charges what the per-page sequence it replaces charged: one
    /// multi-plane batch read of the sources (control delay, the busiest
    /// plane's serialized cell reads, one bus transfer per page — cell reads
    /// on different planes overlap) plus one page program per slot. Like
    /// every relocation primitive it draws no injected faults (see
    /// [`crate::FaultInjector`]).
    ///
    /// # Errors
    ///
    /// [`FlashError::ProgramNotFree`] if `dst` lacks room for the run,
    /// [`FlashError::ReadFree`] for an unprogrammed source, and the range
    /// errors; of several bad sources the lowest slot's is reported.
    /// Everything is validated first: an error charges nothing and mutates
    /// nothing.
    ///
    /// # Panics
    ///
    /// If `overlay` is not strictly ascending by offset or names an offset
    /// at or above `len`.
    pub fn rebuild_block(
        &mut self,
        dst: Pbn,
        len: usize,
        base: Option<(Pbn, u64)>,
        overlay: &[(u32, Ppn)],
        mut oob: impl FnMut(usize) -> OobData,
    ) -> Result<Duration> {
        let first = self.next_free(dst, len)?.raw() as usize;
        let g = self.config.geometry;
        self.plane_scratch.fill(0);
        // The first bad source by slot, should there be one.
        let mut bad: Option<(u32, FlashError)> = None;
        let mut overlaid = 0u64;
        for &(offset, src) in overlay {
            assert!(
                (offset as usize) < len && overlaid >> offset == 0,
                "overlay offset {offset} out of order or beyond {len}"
            );
            overlaid |= 1 << offset;
            match self.locate_programmed(src) {
                Ok((pbn, _)) => self.plane_scratch[g.plane_of(pbn) as usize] += 1,
                Err(e) => bad = bad.or(Some((offset, e))),
            }
        }
        // The base supplies the slots its mask names and the overlay leaves.
        let base = base
            .map(|(pbn, mask)| (pbn, mask & low_bits(len as u32) & !overlaid))
            .filter(|&(_, mask)| mask != 0);
        if let Some((pbn, mask)) = base {
            let base_bad = match self.check_pbn(pbn) {
                Err(e) => Some((mask.trailing_zeros(), e)),
                Ok(()) => {
                    self.plane_scratch[g.plane_of(pbn) as usize] += u64::from(mask.count_ones());
                    let free = mask & !low_bits(self.block(pbn).write_ptr);
                    let page = free.trailing_zeros();
                    let ppn = Ppn(g.first_page(pbn).raw() + u64::from(page));
                    (free != 0).then_some((page, FlashError::ReadFree(ppn)))
                }
            };
            bad = bad
                .into_iter()
                .chain(base_bad)
                .min_by_key(|&(slot, _)| slot);
        }
        if let Some((_, e)) = bad {
            return Err(e);
        }
        // No base block is an empty mask over any block.
        let (base, base_mask) = base.unwrap_or((dst, 0));
        for (i, slot) in self.oob[first..first + len].iter_mut().enumerate() {
            *slot = oob(i);
        }
        if self.mode == DataMode::Store {
            let base_first = g.first_page(base).raw() as usize;
            for i in (0..len).filter(|&i| overlaid & (1 << i) == 0) {
                self.payloads[first + i] = if base_mask & (1 << i) != 0 {
                    self.payloads[base_first + i].clone()
                } else {
                    Some(vec![0; g.page_size()].into())
                };
            }
            for &(offset, src) in overlay {
                self.payloads[first + offset as usize] = self.payloads[src.raw() as usize].clone();
            }
        }
        let mut invalidated = u64::from(self.block_mut(base).invalidate_mask(base_mask));
        for &(_, src) in overlay {
            let (pbn, idx) = (g.block_of(src), g.page_in_block(src));
            invalidated += u64::from(self.block_mut(pbn).invalidate(idx));
        }
        if len > 0 {
            self.block_mut(dst).program(len as u32);
        }
        let reads = u64::from(base_mask.count_ones()) + overlay.len() as u64;
        self.counters.invalidations += invalidated;
        self.counters.page_reads += reads;
        self.counters.page_writes += len as u64;
        let t = self.config.timing;
        let mut cost = t.write_cost() * len as u64;
        if reads > 0 {
            let busiest_plane = self.plane_scratch.iter().copied().max().unwrap_or(0);
            cost += t.control + t.page_read * busiest_plane + t.bus_control * reads;
        }
        Ok(cost)
    }

    /// Erases a block, freeing all its pages, and returns the cost.
    ///
    /// # Errors
    ///
    /// [`FlashError::WornOut`] if the block reached the configured endurance
    /// limit; [`FlashError::PbnOutOfRange`] for bad addresses.
    pub fn erase_block(&mut self, pbn: Pbn) -> Result<Duration> {
        self.check_pbn(pbn)?;
        if let Some(limit) = self.config.endurance {
            if self.block(pbn).erase_count >= limit {
                return Err(FlashError::WornOut(pbn));
            }
        }
        if let Some(inj) = &mut self.faults {
            if inj.on_erase(pbn) {
                return Err(FlashError::EraseFailed(pbn));
            }
        }
        let g = self.config.geometry;
        let first = g.first_page(pbn).raw();
        let Block {
            write_ptr,
            erase_count,
            ..
        } = *self.block(pbn);
        if self.mode == DataMode::Store {
            let first = first as usize;
            self.payloads[first..first + write_ptr as usize].fill(None);
        }
        self.block_mut(pbn).erase();
        self.wear.record_erase(erase_count);
        self.counters.erases += 1;
        if let Some(inj) = &mut self.faults {
            inj.erased(first, g.pages_per_block());
        }
        Ok(self.config.timing.erase_cost())
    }

    /// Marks a valid page invalid (its content is superseded). This is a
    /// controller-RAM metadata operation with no flash cost; idempotent on
    /// already-invalid pages.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadFree`] if the page was never programmed;
    /// [`FlashError::PpnOutOfRange`] for bad addresses.
    pub fn invalidate_page(&mut self, ppn: Ppn) -> Result<()> {
        let (pbn, idx) = self.locate_programmed(ppn)?;
        if self.block_mut(pbn).invalidate(idx) {
            self.counters.invalidations += 1;
        }
        Ok(())
    }

    /// Restores an `Invalid` page to `Valid` — the controller re-deriving
    /// page validity from a recovered forward map (the cells were never
    /// erased, so the content is intact). Idempotent on valid pages.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadFree`] if the page was never programmed;
    /// [`FlashError::PpnOutOfRange`] for bad addresses.
    pub fn revalidate_page(&mut self, ppn: Ppn) -> Result<()> {
        let (pbn, idx) = self.locate_programmed(ppn)?;
        self.block_mut(pbn).revalidate(idx);
        Ok(())
    }

    /// Aggregate state of a block.
    ///
    /// # Errors
    ///
    /// [`FlashError::PbnOutOfRange`] for bad addresses.
    pub fn block_state(&self, pbn: Pbn) -> Result<BlockState> {
        self.check_pbn(pbn)?;
        Ok(self.block(pbn).state())
    }

    /// State of a single page.
    ///
    /// # Errors
    ///
    /// [`FlashError::PpnOutOfRange`] for bad addresses.
    pub fn page_state(&self, ppn: Ppn) -> Result<PageState> {
        let (pbn, idx) = self.locate(ppn)?;
        Ok(self.block(pbn).page_state(idx))
    }

    /// Validity bitmap of `pbn`: bit `i` is set iff page `i` is `Valid`.
    /// A free policy peek, like [`FlashDevice::block_state`].
    ///
    /// # Errors
    ///
    /// [`FlashError::PbnOutOfRange`] for bad addresses.
    pub fn valid_mask(&self, pbn: Pbn) -> Result<u64> {
        self.check_pbn(pbn)?;
        Ok(self.block(pbn).valid)
    }

    /// Returns `(ppn, oob)` for every valid page of `pbn`, in programming
    /// order. A free policy peek used by recovery and tests.
    ///
    /// # Errors
    ///
    /// [`FlashError::PbnOutOfRange`] for bad addresses.
    pub fn valid_pages_of(&self, pbn: Pbn) -> Result<Vec<(Ppn, OobData)>> {
        Ok(self.valid_pages_iter(pbn)?.collect())
    }

    /// Iterates `(ppn, oob)` over the valid pages of `pbn` in programming
    /// order — the allocation-free core of [`FlashDevice::valid_pages_of`],
    /// for policy code (merges, eviction) that only walks the pages once.
    ///
    /// # Errors
    ///
    /// [`FlashError::PbnOutOfRange`] for bad addresses.
    pub fn valid_pages_iter(&self, pbn: Pbn) -> Result<impl Iterator<Item = (Ppn, OobData)> + '_> {
        let first = self.config.geometry.first_page(pbn).raw();
        Ok(set_bits(self.valid_mask(pbn)?).map(move |page| {
            let ppn = first + u64::from(page);
            (Ppn(ppn), self.oob[ppn as usize])
        }))
    }

    /// Iterates the erase counts of every block (the wear-statistics oracle).
    pub fn erase_counts(&self) -> impl Iterator<Item = (Pbn, u64)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (Pbn(i as u64), b.erase_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(FlashConfig::small_test(), DataMode::Store)
    }

    fn page_of(dev: &FlashDevice, fill: u8) -> Vec<u8> {
        vec![fill; dev.geometry().page_size()]
    }

    #[test]
    fn program_read_round_trip() {
        let mut d = dev();
        let ppn = d.geometry().ppn(0, 0, 0);
        let data = page_of(&d, 0x5A);
        let cost = d
            .program_page(ppn, &data, OobData::for_lba(9, false, 1))
            .unwrap();
        assert_eq!(cost.as_micros(), 97);
        let (read, rcost) = d.read_page(ppn).unwrap();
        assert_eq!(read, data);
        assert_eq!(rcost.as_micros(), 77);
        assert_eq!(d.counters().page_writes, 1);
        assert_eq!(d.counters().page_reads, 1);
    }

    #[test]
    fn read_free_page_fails() {
        let mut d = dev();
        let ppn = d.geometry().ppn(0, 0, 0);
        assert_eq!(d.read_page(ppn), Err(FlashError::ReadFree(ppn)));
    }

    #[test]
    fn double_program_fails() {
        let mut d = dev();
        let ppn = d.geometry().ppn(0, 0, 0);
        let data = page_of(&d, 1);
        d.program_page(ppn, &data, OobData::default()).unwrap();
        assert_eq!(
            d.program_page(ppn, &data, OobData::default()),
            Err(FlashError::ProgramNotFree(ppn))
        );
    }

    #[test]
    fn out_of_order_program_fails() {
        let mut d = dev();
        let ppn2 = d.geometry().ppn(0, 0, 2);
        let data = page_of(&d, 1);
        assert_eq!(
            d.program_page(ppn2, &data, OobData::default()),
            Err(FlashError::ProgramOutOfOrder {
                ppn: ppn2,
                expected: 0
            })
        );
    }

    #[test]
    fn wrong_page_size_fails() {
        let mut d = dev();
        let ppn = d.geometry().ppn(0, 0, 0);
        assert_eq!(
            d.program_page(ppn, &[0u8; 3], OobData::default()),
            Err(FlashError::BadPageSize {
                got: 3,
                expected: d.geometry().page_size()
            })
        );
    }

    #[test]
    fn out_of_range_addresses_fail() {
        let mut d = dev();
        let bad_ppn = Ppn(d.geometry().total_pages());
        let bad_pbn = Pbn(d.geometry().total_blocks());
        assert_eq!(
            d.read_page(bad_ppn),
            Err(FlashError::PpnOutOfRange(bad_ppn))
        );
        assert_eq!(
            d.erase_block(bad_pbn),
            Err(FlashError::PbnOutOfRange(bad_pbn))
        );
        assert!(d.block_state(bad_pbn).is_err());
        assert!(d.page_state(bad_ppn).is_err());
        assert!(d.valid_pages_of(bad_pbn).is_err());
        assert!(d.peek_oob(bad_ppn).is_err());
    }

    #[test]
    fn program_next_appends_sequentially() {
        let mut d = dev();
        let pbn = d.geometry().pbn(1, 2);
        let data = page_of(&d, 7);
        let mut last = None;
        for i in 0..d.geometry().pages_per_block() {
            let (ppn, _) = d
                .program_next(pbn, &data, OobData::for_lba(i as u64, false, 0))
                .unwrap();
            assert_eq!(d.geometry().page_in_block(ppn), i);
            last = Some(ppn);
        }
        // Block is now full.
        assert!(d.program_next(pbn, &data, OobData::default()).is_err());
        assert!(d
            .block_state(pbn)
            .unwrap()
            .is_full(d.geometry().pages_per_block()));
        assert_eq!(d.geometry().block_of(last.unwrap()), pbn);
    }

    #[test]
    fn erase_frees_pages_and_counts_wear() {
        let mut d = dev();
        let pbn = d.geometry().pbn(0, 1);
        let data = page_of(&d, 3);
        d.program_next(pbn, &data, OobData::default()).unwrap();
        let cost = d.erase_block(pbn).unwrap();
        assert_eq!(cost.as_micros(), 1010);
        assert_eq!(d.block_state(pbn).unwrap().erase_count, 1);
        assert_eq!(
            d.page_state(d.geometry().first_page(pbn)).unwrap(),
            PageState::Free
        );
        assert_eq!(d.counters().erases, 1);
        // Programming works again after erase.
        d.program_next(pbn, &data, OobData::default()).unwrap();
    }

    #[test]
    fn invalidate_marks_pages_and_reads_still_work() {
        let mut d = dev();
        let pbn = d.geometry().pbn(0, 0);
        let data = page_of(&d, 9);
        let (ppn, _) = d
            .program_next(pbn, &data, OobData::for_lba(5, true, 1))
            .unwrap();
        d.invalidate_page(ppn).unwrap();
        assert_eq!(d.page_state(ppn).unwrap(), PageState::Invalid);
        assert_eq!(d.counters().invalidations, 1);
        // Idempotent.
        d.invalidate_page(ppn).unwrap();
        assert_eq!(d.counters().invalidations, 1);
        // Reads of invalid pages still succeed (GC relies on this).
        assert!(d.read_page(ppn).is_ok());
        // Invalidating a free page is an error.
        let free = Ppn(ppn.raw() + 1);
        assert_eq!(d.invalidate_page(free), Err(FlashError::ReadFree(free)));
    }

    #[test]
    fn valid_pages_of_reports_oob() {
        let mut d = dev();
        let pbn = d.geometry().pbn(1, 0);
        let data = page_of(&d, 2);
        let (p0, _) = d
            .program_next(pbn, &data, OobData::for_lba(10, false, 1))
            .unwrap();
        let (p1, _) = d
            .program_next(pbn, &data, OobData::for_lba(11, true, 2))
            .unwrap();
        d.invalidate_page(p0).unwrap();
        let valid = d.valid_pages_of(pbn).unwrap();
        assert_eq!(valid.len(), 1);
        assert_eq!(valid[0].0, p1);
        assert_eq!(valid[0].1.lba(), Some(11));
        assert!(valid[0].1.dirty());
    }

    #[test]
    fn endurance_limit_blocks_erases() {
        let config = FlashConfig::small_test().with_endurance(2);
        let mut d = FlashDevice::new(config, DataMode::Store);
        let pbn = d.geometry().pbn(0, 0);
        d.erase_block(pbn).unwrap();
        d.erase_block(pbn).unwrap();
        assert_eq!(d.erase_block(pbn), Err(FlashError::WornOut(pbn)));
        assert_eq!(d.wear().max_erases, 2);
    }

    #[test]
    fn wear_tracker_matches_full_scan_after_random_erases() {
        // Oracle: the incremental histogram must agree with a brute-force
        // recount after an arbitrary erase sequence (skewed so some blocks
        // wear far faster than others, exercising min advancement).
        let mut d = dev();
        let total = d.geometry().total_blocks();
        let mut rng = 0x5EED_0001u64;
        for _ in 0..500 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Square the draw to bias toward low block numbers.
            let r = (rng >> 33) % (total * total);
            let pbn = Pbn(r.isqrt().min(total - 1));
            d.erase_block(pbn).unwrap();
            let scan = WearStats::from_counts(d.erase_counts().map(|(_, c)| c));
            assert_eq!(d.wear(), scan, "tracker diverged from scan");
        }
        assert!(
            d.wear().wear_difference() > 0,
            "skew should create a spread"
        );
    }

    #[test]
    fn wear_stats_and_erase_counts() {
        let mut d = dev();
        let pbn0 = d.geometry().pbn(0, 0);
        d.erase_block(pbn0).unwrap();
        d.erase_block(pbn0).unwrap();
        d.erase_block(d.geometry().pbn(1, 1)).unwrap();
        let w = d.wear();
        assert_eq!(w.max_erases, 2);
        assert_eq!(w.min_erases, 0);
        assert_eq!(w.total_erases, 3);
        assert_eq!(w.wear_difference(), 2);
        let counts: Vec<_> = d.erase_counts().filter(|(_, c)| *c > 0).collect();
        assert_eq!(counts.len(), 2);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    /// A store-mode device with four pages programmed on plane 0 and four
    /// on plane 1 (page `i` filled with `i` resp. `100 + i`), the plane-0
    /// pages, and an alternating cross-plane selection.
    pub(super) fn dev_with_pages() -> (FlashDevice, Vec<Ppn>, Vec<Ppn>) {
        let mut d = FlashDevice::new(FlashConfig::small_test(), DataMode::Store);
        let g = *d.geometry();
        let mut same_plane = Vec::new();
        let mut cross_plane = Vec::new();
        for i in 0..4u8 {
            let (p0, _) = d
                .program_next(
                    g.pbn(0, 0),
                    &vec![i; g.page_size()],
                    OobData::for_lba(i as u64, false, 1),
                )
                .unwrap();
            let (p1, _) = d
                .program_next(
                    g.pbn(1, 0),
                    &vec![100 + i; g.page_size()],
                    OobData::for_lba(100 + i as u64, false, 1),
                )
                .unwrap();
            same_plane.push(p0);
            cross_plane.push(if i % 2 == 0 { p0 } else { p1 });
        }
        (d, same_plane, cross_plane)
    }

    fn test_oob(i: usize) -> OobData {
        OobData::for_lba(i as u64, false, 50 + i as u64)
    }

    /// A rebuild with no base block: every source is an overlay page.
    fn copy(d: &mut FlashDevice, dst: Pbn, sources: &[Option<Ppn>]) -> Result<Duration> {
        let overlay: Vec<_> = (0u32..)
            .zip(sources)
            .filter_map(|(i, s)| Some((i, (*s)?)))
            .collect();
        d.rebuild_block(dst, sources.len(), None, &overlay, test_oob)
    }

    #[test]
    fn base_pages_go_by_mask_and_overlay_pages_win() {
        let (mut d, same, cross) = dev_with_pages();
        let g = *d.geometry();
        let (base, dst) = (g.pbn(0, 0), g.pbn(1, 2));
        // Base page 1 is already superseded: still copied, not counted again.
        d.invalidate_page(same[1]).unwrap();
        let before = d.clone();
        // A mask bit at the base block's write pointer names a free page.
        assert_eq!(
            d.rebuild_block(dst, 5, Some((base, 0b1_0111)), &[], test_oob),
            Err(FlashError::ReadFree(Ppn(same[0].raw() + 4)))
        );
        // Of two bad sources the lower slot's error is reported.
        let free = Ppn(g.total_pages() - 1);
        assert_eq!(
            d.rebuild_block(dst, 5, Some((base, 0b1_0000)), &[(3, free)], test_oob),
            Err(FlashError::ReadFree(free))
        );
        assert_eq!(d.counters(), before.counters());
        assert_eq!(d.valid_mask(base), before.valid_mask(base));
        assert!(d.block_state(dst).unwrap().is_empty());
        // Offsets 0 and 1 from the base, 2 from the overlay (over the base's
        // own page 2, which stays valid), 3 and 4 never written. Mask bits
        // at or above `len` name no slot.
        let cost = d
            .rebuild_block(
                dst,
                5,
                Some((base, 0b1110_0111)),
                &[(2, cross[1])],
                test_oob,
            )
            .unwrap();
        // Two cell reads on plane 0 overlap one on plane 1.
        assert_eq!(cost.as_micros(), 10 + 2 * 65 + 3 * 2 + 5 * 97);
        let first = g.first_page(dst).raw();
        for (i, fill) in [0u8, 1, 101, 0, 0].into_iter().enumerate() {
            let ppn = Ppn(first + i as u64);
            assert_eq!(d.read_page(ppn).unwrap().0, vec![fill; g.page_size()]);
            assert_eq!(d.peek_oob(ppn).unwrap(), test_oob(i));
        }
        assert_eq!(d.valid_mask(dst).unwrap(), 0b1_1111);
        assert_eq!(d.valid_mask(base).unwrap(), 0b1100);
        assert_eq!(d.page_state(cross[1]).unwrap(), PageState::Invalid);
        let (c, c0) = (d.counters(), before.counters());
        assert_eq!(c.page_reads - c0.page_reads, 3 + 5);
        assert_eq!(c.page_writes - c0.page_writes, 5);
        assert_eq!(c.invalidations - c0.invalidations, 2);
    }

    #[test]
    fn cross_plane_batches_are_cheaper() {
        let (mut d, same, cross) = dev_with_pages();
        let g = *d.geometry();
        let some = |ppns: &[Ppn]| ppns.iter().copied().map(Some).collect::<Vec<_>>();
        let same_cost = copy(&mut d, g.pbn(0, 1), &some(&same)).unwrap();
        let cross_cost = copy(&mut d, g.pbn(0, 2), &some(&cross)).unwrap();
        // Same plane: 4 serialized cell reads. Cross plane: 2 per plane
        // overlap. Both then program four pages.
        assert!(cross_cost < same_cost, "{cross_cost} !< {same_cost}");
        assert_eq!(same_cost.as_micros(), 10 + 4 * 65 + 4 * 2 + 4 * 97);
        assert_eq!(cross_cost.as_micros(), 10 + 2 * 65 + 4 * 2 + 4 * 97);
        // A run of holes reads nothing, so it pays no batch set-up either.
        let holes = copy(&mut d, g.pbn(0, 3), &[None, None]).unwrap();
        assert_eq!(holes.as_micros(), 2 * 97);
    }

    #[test]
    fn batch_returns_data_in_order() {
        let (mut d, _, cross) = dev_with_pages();
        let g = *d.geometry();
        let dst = g.pbn(1, 3);
        let sources = [Some(cross[3]), None, Some(cross[0]), Some(cross[1])];
        copy(&mut d, dst, &sources).unwrap();
        let first = g.first_page(dst).raw();
        for (i, fill) in [103u8, 0, 0, 101].into_iter().enumerate() {
            let ppn = Ppn(first + i as u64);
            assert_eq!(d.read_page(ppn).unwrap().0, vec![fill; g.page_size()]);
            assert_eq!(d.peek_oob(ppn).unwrap().seq(), 50 + i as u64);
            assert_eq!(d.page_state(ppn).unwrap(), PageState::Valid);
        }
        // Counters counted each page; every source is now superseded.
        let c = d.counters();
        assert_eq!((c.page_reads, c.page_writes), (4 + 3, 8 + 4));
        assert_eq!(c.invalidations, 3);
        for src in sources.into_iter().flatten() {
            assert_eq!(d.page_state(src).unwrap(), PageState::Invalid);
        }
        assert_eq!(d.valid_mask(dst).unwrap(), 0b1111);
    }

    #[test]
    fn batch_errors_charge_nothing() {
        let (mut d, same, _) = dev_with_pages();
        let g = *d.geometry();
        let dst = g.pbn(1, 1);
        let before = d.clone();
        let free = Ppn(g.total_pages() - 1);
        let mut sources: Vec<_> = same.iter().copied().map(Some).collect();
        sources.push(Some(free));
        assert_eq!(copy(&mut d, dst, &sources), Err(FlashError::ReadFree(free)));
        let out_of_range = Ppn(g.total_pages());
        assert_eq!(
            copy(&mut d, dst, &[Some(same[0]), Some(out_of_range)]),
            Err(FlashError::PpnOutOfRange(out_of_range))
        );
        // A run longer than the room left in the destination.
        assert_eq!(
            copy(&mut d, g.pbn(0, 0), &[None; 5]),
            Err(FlashError::ProgramNotFree(g.first_page(g.pbn(0, 0))))
        );
        let bad_block = Pbn(g.total_blocks());
        assert_eq!(
            copy(&mut d, bad_block, &[None]),
            Err(FlashError::PbnOutOfRange(bad_block))
        );
        assert_eq!(
            d.counters(),
            before.counters(),
            "failed batches charge nothing"
        );
        for pbn in (0..g.total_blocks()).map(Pbn) {
            assert_eq!(d.block_state(pbn), before.block_state(pbn));
            assert_eq!(d.valid_mask(pbn), before.valid_mask(pbn));
        }
        // Empty batch is free.
        assert!(copy(&mut d, dst, &[]).unwrap().is_zero());
        assert!(d.block_state(dst).unwrap().is_empty());
    }
}

#[cfg(test)]
mod relocation_tests {
    use super::*;

    #[test]
    fn charge_matches_materializing_reads() {
        // The charge-only read must bill exactly what the materializing read
        // bills — same Duration, same counter increment — or GC relocation
        // would drift from the modeled timing.
        let (mut d, same, _) = super::batch_tests::dev_with_pages();
        let mut buf = PageBuf::new();
        let single = same[2];
        let into_cost = d.read_page_into(single, &mut buf).unwrap();
        let reads_mid = d.counters().page_reads;
        assert_eq!(d.read_page_charge(single).unwrap(), into_cost);
        assert_eq!(d.counters().page_reads, reads_mid + 1);
        // Errors charge nothing, like the materializing variant.
        let free = Ppn(d.geometry().total_pages() - 1);
        assert_eq!(d.read_page_charge(free), Err(FlashError::ReadFree(free)));
        assert_eq!(d.counters().page_reads, reads_mid + 1);
    }

    #[test]
    fn copy_page_from_preserves_payload_in_store_mode() {
        let mut d = FlashDevice::new(FlashConfig::small_test(), DataMode::Store);
        let g = *d.geometry();
        let data = vec![0xA7u8; g.page_size()];
        let (src, _) = d
            .program_next(g.pbn(0, 0), &data, OobData::for_lba(4, false, 1))
            .unwrap();
        let dest_block = g.pbn(1, 1);
        let oob = OobData::for_lba(4, true, 2);
        let (new_ppn, cost) = d.copy_page_from(dest_block, src, oob).unwrap();
        // Same cost and counter as a host program of the same page.
        assert_eq!(cost, d.timing().write_cost());
        assert_eq!(d.counters().page_writes, 2);
        assert_eq!(g.block_of(new_ppn), dest_block);
        assert_eq!(d.read_page(new_ppn).unwrap().0, data);
        assert_eq!(d.peek_oob(new_ppn).unwrap(), oob);
    }

    #[test]
    fn copy_page_from_in_discard_mode_matches_a_program() {
        // In Discard mode a copy moves no payload; everything else about the
        // new page is what a program of it would leave.
        let config = FlashConfig::small_test();
        let mut copied = FlashDevice::new(config, DataMode::Discard);
        let mut programmed = FlashDevice::new(config, DataMode::Discard);
        let g = *copied.geometry();
        let data = vec![0u8; g.page_size()];
        let (src, _) = copied
            .program_next(g.pbn(0, 0), &data, OobData::for_lba(8, false, 1))
            .unwrap();
        programmed
            .program_next(g.pbn(0, 0), &data, OobData::for_lba(8, false, 1))
            .unwrap();
        let oob = OobData::for_lba(8, false, 2);
        let via_copy = copied.copy_page_from(g.pbn(1, 0), src, oob).unwrap();
        let via_program = programmed.program_next(g.pbn(1, 0), &data, oob).unwrap();
        assert_eq!(via_copy, via_program);
        assert_eq!(copied.peek_oob(via_copy.0), Ok(oob));
        assert_eq!(
            copied.read_page(via_copy.0).unwrap(),
            programmed.read_page(via_program.0).unwrap()
        );
        assert_eq!(copied.counters(), programmed.counters());
    }

    #[test]
    fn copy_page_from_validates_both_ends() {
        let mut d = FlashDevice::new(FlashConfig::small_test(), DataMode::Store);
        let g = *d.geometry();
        let data = vec![1u8; g.page_size()];
        let (src, _) = d
            .program_next(g.pbn(0, 0), &data, OobData::for_lba(1, false, 1))
            .unwrap();
        // Free source page rejected.
        let free = Ppn(src.raw() + 1);
        assert_eq!(
            d.copy_page_from(g.pbn(1, 0), free, OobData::default()),
            Err(FlashError::ReadFree(free))
        );
        // Full destination block rejected.
        let full = g.pbn(1, 1);
        for i in 0..g.pages_per_block() {
            d.program_next(full, &data, OobData::for_lba(i as u64, false, 1))
                .unwrap();
        }
        assert!(matches!(
            d.copy_page_from(full, src, OobData::default()),
            Err(FlashError::ProgramNotFree(_))
        ));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn dev_with(plan: FaultPlan) -> FlashDevice {
        let mut d = FlashDevice::new(FlashConfig::small_test(), DataMode::Store);
        d.set_fault_plan(plan);
        d
    }

    #[test]
    fn zero_rate_plan_changes_nothing_observable() {
        let mut plain = FlashDevice::new(FlashConfig::small_test(), DataMode::Store);
        let mut faulty = dev_with(FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        });
        let g = *plain.geometry();
        let data = vec![7u8; g.page_size()];
        for d in [&mut plain, &mut faulty] {
            for i in 0..4u64 {
                d.program_next(g.pbn(0, 0), &data, OobData::for_lba(i, false, 1))
                    .unwrap();
            }
        }
        for i in 0..4u64 {
            let ppn = Ppn(g.first_page(g.pbn(0, 0)).raw() + i);
            assert_eq!(
                plain.read_page(ppn).unwrap(),
                faulty.read_page(ppn).unwrap()
            );
        }
        assert_eq!(
            plain.erase_block(g.pbn(0, 0)),
            faulty.erase_block(g.pbn(0, 0))
        );
        assert_eq!(plain.counters(), faulty.counters());
        assert_eq!(
            faulty.fault_counters(),
            crate::fault::FaultCounters::default()
        );
        assert!(faulty.faults.is_some() && plain.faults.is_none());
    }

    #[test]
    fn discard_read_matches_read_page_into_exactly() {
        // A discard-mode read is a store-mode read minus the bytes: same
        // cost or error and the same fault stream, under a plan that mixes
        // transient, permanent and corrupt outcomes. Its buffer comes back
        // one page long with the caller's bytes untouched.
        let plan = FaultPlan {
            seed: 9,
            read_transient_ppm: 200_000,
            read_permanent_ppm: 100_000,
            read_corrupt_ppm: 100_000,
            ..FaultPlan::default()
        };
        let mut stored = dev_with(plan);
        let mut discarded = FlashDevice::new(FlashConfig::small_test(), DataMode::Discard);
        discarded.set_fault_plan(plan);
        let g = *stored.geometry();
        let data = vec![5u8; g.page_size()];
        for d in [&mut stored, &mut discarded] {
            for i in 0..8u64 {
                d.program_next(g.pbn(0, 0), &data, OobData::for_lba(i, false, 1))
                    .unwrap();
            }
        }
        let first = g.first_page(g.pbn(0, 0)).raw();
        let (mut buf, mut poisoned) = (PageBuf::new(), PageBuf::new());
        // Programmed pages (some faulting), a free page and a bad address.
        for round in 0..41u64 {
            let ppn = Ppn(if round == 40 {
                u64::MAX
            } else {
                first + round % 10
            });
            poisoned.fill_with(2 * g.page_size(), 0xA5);
            let want = stored.read_page_into(ppn, &mut buf);
            assert_eq!(
                discarded.read_page_into(ppn, &mut poisoned),
                want,
                "round {round} ppn {ppn:?}"
            );
            if want.is_ok() {
                assert_eq!(buf.as_slice(), &data[..]);
                assert_eq!(
                    poisoned.to_vec(),
                    vec![0xA5; g.page_size()],
                    "round {round}"
                );
            }
        }
        assert_eq!(stored.counters(), discarded.counters());
        assert_eq!(stored.fault_counters(), discarded.fault_counters());
        assert!(stored.fault_counters().total() > 0, "plan never fired");
    }

    #[test]
    fn transient_read_succeeds_at_double_cost() {
        let mut d = dev_with(FaultPlan {
            seed: 2,
            read_transient_ppm: 1_000_000,
            ..FaultPlan::default()
        });
        let g = *d.geometry();
        let data = vec![3u8; g.page_size()];
        let (ppn, _) = d
            .program_next(g.pbn(0, 0), &data, OobData::for_lba(5, false, 1))
            .unwrap();
        let (read, cost) = d.read_page(ppn).unwrap();
        assert_eq!(read, data, "transient faults never lose data");
        assert_eq!(cost, d.timing().read_cost() * 2);
        assert_eq!(d.fault_counters().read_transients, 1);
        assert_eq!(d.counters().page_reads, 1);
    }

    #[test]
    fn permanent_read_failure_sticks_until_erase() {
        let mut d = dev_with(FaultPlan {
            seed: 3,
            read_permanent_ppm: 1_000_000,
            ..FaultPlan::default()
        });
        let g = *d.geometry();
        let data = vec![9u8; g.page_size()];
        let pbn = g.pbn(0, 0);
        let (ppn, _) = d
            .program_next(pbn, &data, OobData::for_lba(5, false, 1))
            .unwrap();
        let reads_before = d.counters().page_reads;
        assert_eq!(d.read_page(ppn).unwrap_err(), FlashError::ReadFailed(ppn));
        assert_eq!(d.read_page(ppn).unwrap_err(), FlashError::ReadFailed(ppn));
        assert_eq!(
            d.counters().page_reads,
            reads_before,
            "failures charge nothing"
        );
        assert_eq!(d.fault_counters().read_failures, 2);
        // Device-internal relocation is exempt: it neither draws nor
        // surfaces read faults.
        d.read_page_charge(ppn).unwrap();
        // Erase heals the page (plan still faults the next read, but the
        // grown-bad entry itself is gone).
        d.erase_block(pbn).unwrap();
        d.program_next(pbn, &data, OobData::for_lba(5, false, 2))
            .unwrap();
    }

    #[test]
    fn corruption_is_detected_not_returned() {
        let mut d = dev_with(FaultPlan {
            seed: 4,
            read_corrupt_ppm: 1_000_000,
            ..FaultPlan::default()
        });
        let g = *d.geometry();
        let data = vec![1u8; g.page_size()];
        let (ppn, _) = d
            .program_next(g.pbn(1, 0), &data, OobData::for_lba(8, false, 1))
            .unwrap();
        assert_eq!(d.read_page(ppn).unwrap_err(), FlashError::ReadCorrupt(ppn));
        assert_eq!(d.fault_counters().read_corruptions, 1);
        // peek_oob models controller RAM, immune to media faults.
        assert_eq!(d.peek_oob(ppn).unwrap().lba(), Some(8));
    }

    #[test]
    fn program_failure_consumes_the_page() {
        let mut d = dev_with(FaultPlan {
            seed: 6,
            program_fail_ppm: 500_000,
            ..FaultPlan::default()
        });
        let g = *d.geometry();
        let data = vec![2u8; g.page_size()];
        let pbn = g.pbn(0, 2);
        let mut failures = 0;
        let mut programmed = Vec::new();
        // Keep re-issuing, as an FTL would, until the block fills.
        loop {
            match d.program_next(pbn, &data, OobData::for_lba(1, false, 1)) {
                Ok((ppn, _)) => programmed.push(ppn),
                Err(FlashError::ProgramFailed(ppn)) => {
                    failures += 1;
                    assert_eq!(d.page_state(ppn).unwrap(), PageState::Invalid);
                }
                Err(FlashError::ProgramNotFree(_)) => break, // block full
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(failures > 0, "50% rate must fire");
        assert!(!programmed.is_empty(), "50% rate must also pass");
        assert_eq!(
            programmed.len() + failures,
            g.pages_per_block() as usize,
            "every page is either programmed or consumed"
        );
        assert_eq!(d.fault_counters().program_failures, failures as u64);
        assert_eq!(d.counters().page_writes, programmed.len() as u64);
        for ppn in programmed {
            assert_eq!(d.read_page(ppn).unwrap().0, data);
        }
    }

    #[test]
    fn erase_failure_grows_a_permanent_bad_block() {
        let mut d = dev_with(FaultPlan {
            seed: 7,
            erase_fail_ppm: 1_000_000,
            ..FaultPlan::default()
        });
        let g = *d.geometry();
        let pbn = g.pbn(1, 1);
        let erases_before = d.counters().erases;
        assert_eq!(
            d.erase_block(pbn).unwrap_err(),
            FlashError::EraseFailed(pbn)
        );
        assert_eq!(
            d.erase_block(pbn).unwrap_err(),
            FlashError::EraseFailed(pbn)
        );
        assert_eq!(d.grown_bad_blocks(), 1);
        assert_eq!(
            d.counters().erases,
            erases_before,
            "failed erases uncounted"
        );
        assert_eq!(d.block_state(pbn).unwrap().erase_count, 0);
        assert_eq!(d.fault_counters().grown_bad_blocks, 1);
    }

    #[test]
    fn media_fault_classification() {
        assert!(FlashError::WornOut(Pbn(0)).is_media_fault());
        assert!(FlashError::ReadFailed(Ppn(0)).is_media_fault());
        assert!(FlashError::ReadCorrupt(Ppn(0)).is_media_fault());
        assert!(FlashError::ProgramFailed(Ppn(0)).is_media_fault());
        assert!(FlashError::EraseFailed(Pbn(0)).is_media_fault());
        assert!(!FlashError::ReadFree(Ppn(0)).is_media_fault());
        assert!(!FlashError::PpnOutOfRange(Ppn(0)).is_media_fault());
    }
}
