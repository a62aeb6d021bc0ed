//! The six interface operations (§4.2.1) — `write-dirty`, `write-clean`,
//! `read`, `evict`, `clean` and `exists` — and the insert path both writes
//! share.

use flashsim::{OobData, Pbn, Ppn};
use simkit::{Duration, PageBuf};

use super::{CrashSite, Ssc};
use crate::config::ConsistencyMode;
use crate::error::SscError;
use crate::map::{PagePtr, Removed};
use crate::wal::LogRecord;
use crate::Result;

impl Ssc {
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
        cost += self.commit_log()?;
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
            self.commit_log()?
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
    /// allocation-free form of [`Ssc::read`]. Returns the cost and whether
    /// the cached copy is dirty, which the lookup resolves anyway. Always
    /// inlined, so that a caller that ignores the flag does not pay for it:
    /// out of line, returning it slowed the write-through manager's
    /// all-hit reads by about 3%.
    ///
    /// # Errors
    ///
    /// [`SscError::NotPresent`] on a miss (the normal cache-miss signal).
    #[inline(always)]
    pub fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<(Duration, bool)> {
        self.counters.host_reads += 1;
        match self.maps.lookup(lba) {
            Some(resolved) => {
                let cost = self.dev.read_page_into(resolved.ppn(), buf)?;
                Ok((cost, resolved.dirty()))
            }
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
        let (cost, _) = self.read_into(lba, &mut buf)?;
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
        cost += self.commit_log()?;
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

    /// Common insert path for both write flavours (excluding commit policy).
    fn insert(&mut self, lba: u64, data: &[u8], dirty: bool) -> Result<Duration> {
        let expected = self.page_size();
        if data.len() != expected {
            let got = data.len();
            return Err(SscError::BadPageSize { got, expected });
        }
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
}
