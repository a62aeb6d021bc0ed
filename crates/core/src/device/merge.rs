//! The FTL under the cache interface: log blocks, switch and full merges,
//! copy-forward compaction of thin logical blocks, and erasing or retiring
//! the blocks they empty. Switch candidacy and erase-or-retire are the
//! `ftl` crate's rules, shared with the SSD's FTLs.

use flashsim::{set_bits, OobData, Pbn, Ppn};
use simkit::Duration;

use super::{CrashSite, Ssc};
use crate::error::SscError;
use crate::map::{BlockEntry, PagePtr};
use crate::wal::LogRecord;
use crate::Result;

impl Ssc {
    /// Ensures a log block with free space exists, recycling and evicting as
    /// needed. The fresh block is allocated *before* the oldest log block is
    /// recycled so the recycler can compact sparse dirty pages forward into
    /// it.
    pub(super) fn log_block_with_space(&mut self, cost: &mut Duration) -> Result<Pbn> {
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
    /// full merge otherwise. A full merge that runs out of space leaves the
    /// victim holding live pages, so it goes back to the head of the log to
    /// be merged again; a switch merge never runs out of space.
    pub(super) fn recycle_log(&mut self) -> Result<Duration> {
        // Power fails as GC starts relocating the oldest log block.
        self.crash_point(CrashSite::Merge)?;
        let victim = self
            .log_blocks
            .pop_front()
            .expect("recycle with no log blocks");
        match ftl::switch_candidate(&self.dev, victim)? {
            Some(lbn) => self.switch_merge(victim, lbn),
            None => self.full_merge(victim).inspect_err(|e| {
                if *e == SscError::OutOfSpace {
                    self.log_blocks.push_front(victim);
                }
            }),
        }
    }

    /// Switch merge: the victim log block becomes the LBN's data block with
    /// no copying ("which convert a sequentially written log block into a
    /// data block without copying data", §4.3).
    fn switch_merge(&mut self, victim: Pbn, lbn: u64) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let ppb = self.ppb() as u64;
        // The row goes through the merge scratch vector; see `merge_lbn`.
        let mut taken = std::mem::take(&mut self.overlay_scratch);
        let dirty = self.maps.take_log(lbn, &mut taken);
        for &(offset, _) in &taken {
            let lba = lbn * ppb + u64::from(offset);
            self.log_append(LogRecord::RemovePage { lba });
        }
        taken.clear();
        self.overlay_scratch = taken;
        let valid = if ppb == 64 {
            u64::MAX
        } else {
            (1u64 << ppb) - 1
        };
        let entry = BlockEntry::new(victim.raw(), valid, dirty);
        let old = self.maps.insert_block(lbn, entry);
        self.log_append(LogRecord::InsertBlock {
            lbn,
            pbn: victim.raw(),
            valid,
            dirty,
        });
        // Make the re-mapping durable before destroying the old copies.
        cost += self.commit_log()?;
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
        cost += self.commit_log()?;
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
            self.pool.release(fresh, erases, self.dev.geometry());
            if self.maps.remove_block(lbn).is_some() {
                self.log_append(LogRecord::RemoveBlock { lbn });
                cost += self.commit_log()?;
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
        let dirty = old.map_or(0, |e| e.dirty) | self.maps.take_log(lbn, &mut overlay);
        for &(offset, _) in &overlay {
            self.log_append(LogRecord::RemovePage {
                lba: lbn * ppb + u64::from(offset),
            });
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
        self.log_append(LogRecord::InsertBlock {
            lbn,
            pbn: fresh.raw(),
            valid: live,
            dirty,
        });
        // Durable before the old block is erased.
        cost += self.commit_log()?;
        if let Some(e) = old {
            debug_assert_eq!(self.dev.block_state(Pbn(e.pbn))?.valid_pages, 0);
            cost += self.retire_block(Pbn(e.pbn))?;
        }
        Ok(cost)
    }

    /// Invalidates every valid page of `pbn` (a block whose mapping was just
    /// dropped or replaced) and returns how many there were.
    pub(super) fn invalidate_valid_pages(&mut self, pbn: Pbn) -> Result<u64> {
        let first = self.dev.geometry().first_page(pbn).raw();
        let valid = self.dev.valid_mask(pbn)?;
        for page in set_bits(valid) {
            self.dev.invalidate_page(Ppn(first + u64::from(page)))?;
        }
        Ok(u64::from(valid.count_ones()))
    }

    /// Erases `pbn` and returns it to the pool, or retires it (see
    /// [`ftl::FreeBlockPool::erase_or_retire`]).
    pub(super) fn retire_block(&mut self, pbn: Pbn) -> Result<Duration> {
        let cost = self.pool.erase_or_retire(&mut self.dev, pbn)?;
        if cost.is_none() {
            self.counters.blocks_retired += 1;
        }
        Ok(cost.unwrap_or(Duration::ZERO))
    }

    /// Erases blocks emptied by earlier invalidations. Callers invoke this
    /// only after the corresponding records were committed (or with logging
    /// off).
    pub(super) fn drain_retires(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        while let Some(pbn) = self.pending_retire.pop() {
            cost += self.retire_block(pbn)?;
        }
        Ok(cost)
    }
}
