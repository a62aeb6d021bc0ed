//! Read-only views of the device's maps for tests and debugging, and the
//! structural check: the maps, the block lists and the clean-block index
//! against the flash they describe.

use std::collections::HashMap;

use flashsim::{set_bits, Pbn, Ppn};

use super::Ssc;
use crate::map::Resolved;

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

    /// Test/debug helper: current page-map target of an LBA.
    pub fn debug_lookup(&self, lba: u64) -> Option<(u64, bool, &'static str)> {
        self.maps.lookup(lba).map(|r| {
            let level = match r {
                Resolved::PageLevel { .. } => "page",
                Resolved::BlockLevel { .. } => "block",
            };
            (r.ppn().raw(), r.dirty(), level)
        })
    }
}

impl Ssc {
    /// Checks the device's bookkeeping against the flash it describes and
    /// names the first broken rule:
    ///
    /// * the flash device's own rules ([`flashsim::FlashDevice::check`]);
    /// * the forward map — row pointers by OOB address, data blocks by
    ///   position — equals the flash walk
    ///   ([`flashsim::FlashDevice::check_forward_map`]), and `lookup`
    ///   resolves every mapped LBA to its page;
    /// * no empty entry is kept and an empty row holds no heap; a data
    ///   block has a live page, its valid bits are the device's and its
    ///   dirty bits name only valid offsets; a row never shadows a valid
    ///   data-block page, and every log page lies in a log block;
    /// * the page and block counts equal a recount;
    /// * the block census ([`ftl::FreeBlockPool::census`]) over the data
    ///   blocks, the log blocks and the blocks awaiting erase;
    /// * the clean-block index equals the scan: the same victims, and one
    ///   row per clean data block with its score and plane. It flushes the
    ///   index first, as every read of it does, which nothing can observe
    ///   (DESIGN.md §7, invariant 3);
    /// * the LBN table's own invariants, which panic rather than return.
    ///
    /// Holds at operation boundaries, not between a
    /// [`SscError::PowerLoss`](crate::SscError::PowerLoss) and
    /// [`Ssc::crash`]. Test support: no operation calls it.
    pub fn check(&mut self) -> Result<(), String> {
        self.dev.check()?;
        let geometry = *self.dev.geometry();
        let ppb = u64::from(self.ppb());
        let mut forward = HashMap::new();
        let (mut pages, mut blocks) = (0, 0);
        for (lbn, entry) in self.maps.lbns() {
            let row = &entry.log;
            if row.is_empty() && (entry.block.is_none() || row.heap_bytes() != 0) {
                return Err(format!("lbn {lbn}: an empty entry or row is kept"));
            }
            pages += row.len();
            for (offset, ptr) in row.iter() {
                if !self.log_blocks.contains(&geometry.block_of(ptr.ppn())) {
                    return Err(format!(
                        "lbn {lbn}: log page {:?} outside the log blocks",
                        ptr.ppn()
                    ));
                }
                forward.insert(lbn * ppb + u64::from(offset), ptr.ppn());
            }
            let Some(block) = entry.block else {
                continue;
            };
            blocks += 1;
            let on_device = self
                .dev
                .valid_mask(Pbn(block.pbn))
                .map_err(|e| e.to_string())?;
            let (valid, dirty) = (block.valid, block.dirty);
            if valid == 0 || valid != on_device || dirty & !valid != 0 {
                return Err(format!(
                    "lbn {lbn}: data block {} valid {valid:#x} dirty {dirty:#x}, on device {on_device:#x}",
                    block.pbn
                ));
            }
            if row.bits() & valid != 0 {
                return Err(format!("lbn {lbn}: a log page shadows a valid data page"));
            }
            for offset in set_bits(valid).map(u64::from) {
                forward.insert(lbn * ppb + offset, Ppn(block.pbn * ppb + offset));
            }
        }
        let counted = (self.maps.page_count(), self.maps.block_count());
        if (pages, blocks) != counted {
            return Err(format!(
                "(pages, blocks) {:?} mapped, {counted:?} counted",
                (pages, blocks)
            ));
        }
        self.dev.check_forward_map(&forward)?;
        for (&lba, &ppn) in &forward {
            if self.maps.lookup(lba).map(|r| r.ppn()) != Some(ppn) {
                return Err(format!("lookup of {lba} misses {ppn:?}"));
            }
        }
        let data_blocks = self.maps.blocks().map(|(_, e)| Pbn(e.pbn));
        let owners = data_blocks
            .chain(self.log_blocks.iter().copied())
            .chain(self.pending_retire.iter().copied());
        self.pool
            .census(&self.dev, owners, self.counters.blocks_retired)?;
        self.maps.check_invariants();
        let scan = self.select_eviction_victims_scan();
        if self.select_eviction_victims() != scan {
            return Err("eviction victims differ from the scan's".into());
        }
        let mut rows: Vec<(u64, (u64, u64), u32)> = self
            .maps
            .blocks()
            .filter(|(_, e)| e.is_clean())
            .map(|(lbn, e)| (lbn, self.victim_score(e), geometry.plane_of(Pbn(e.pbn))))
            .collect();
        rows.sort_unstable();
        let index = self.flush_index();
        if index.snapshot() != rows || index.ordered_keys() != rows.len() {
            return Err("the clean-block index differs from the scan".into());
        }
        Ok(())
    }

    /// Brute-force rebuild-and-sort victim selection — the reference the
    /// clean-block index is checked against by [`Ssc::check`].
    fn select_eviction_victims_scan(&self) -> Vec<(u64, crate::map::BlockEntry)> {
        let geometry = self.dev.geometry();
        let preferred_plane = self.pool.emptiest_plane();
        let mut candidates: Vec<_> = self
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
}
