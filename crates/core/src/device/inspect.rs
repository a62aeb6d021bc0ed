//! Read-only views of the device's maps for tests and debugging, and the
//! structural check: the maps, the block lists and the clean-block table
//! against the flash they describe.

use std::collections::HashMap;

use flashsim::{set_bits, Pbn, Ppn};

use super::evict::VictimKey;
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
    ///   block has a live page, its valid bits are the device's, its dirty
    ///   bits name only valid offsets and its valid pages' OOB sequence
    ///   numbers rise with the offset; a row never shadows a valid
    ///   data-block page, and every log page lies in a log block;
    /// * the page and block counts equal a recount;
    /// * the block census ([`ftl::FreeBlockPool::census`]) over the data
    ///   blocks, the log blocks and the blocks awaiting erase;
    /// * the clean-block table equals a scan of the data blocks, row for
    ///   row (physical block, LBN, valid pages), and selects the victims
    ///   the brute-force scan selects;
    /// * the LBN table's own invariants, which panic rather than return.
    ///
    /// Holds at operation boundaries, not between a
    /// [`SscError::PowerLoss`](crate::SscError::PowerLoss) and
    /// [`Ssc::crash`]. Test support: no operation calls it.
    pub fn check(&self) -> Result<(), String> {
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
            let pages = self.dev.valid_pages_iter(Pbn(block.pbn));
            let seqs = pages.map_err(|e| e.to_string())?.map(|(_, oob)| oob.seq());
            if !seqs.is_sorted_by(|a, b| a < b) {
                return Err(format!(
                    "lbn {lbn}: data block {} not programmed in offset order",
                    block.pbn
                ));
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
        let clean = self.maps.blocks().filter(|(_, e)| e.is_clean());
        let mut want: Vec<_> = clean
            .map(|(lbn, e)| (e.pbn, lbn, e.valid_count()))
            .collect();
        want.sort_unstable();
        if self.maps.clean_blocks().rows()? != want {
            return Err("the clean-block table differs from the scan".into());
        }
        let mut victims = Vec::new();
        self.select_eviction_victims(&mut victims);
        if victims != self.select_eviction_victims_scan() {
            return Err("eviction victims differ from the scan's".into());
        }
        Ok(())
    }

    /// Brute-force score-and-sort victim selection over every data block —
    /// the reference [`Ssc::check`] holds the clean-block table's selection
    /// to.
    fn select_eviction_victims_scan(&self) -> Vec<VictimKey> {
        let geometry = self.dev.geometry();
        let preferred_plane = self.pool.emptiest_plane();
        let mut candidates: Vec<VictimKey> = self
            .maps
            .blocks()
            .filter(|(_, e)| e.is_clean())
            .map(|(lbn, e)| {
                let pbn = Pbn(e.pbn);
                let off_plane = geometry.plane_of(pbn) != preferred_plane;
                (self.victim_score(pbn, e.valid_count()), off_plane, lbn)
            })
            .collect();
        // Lowest score first; same-plane victims preferred; LBN for
        // determinism.
        candidates.sort_unstable();
        candidates.truncate(self.config.evict_batch);
        candidates
    }
}
