//! Silent eviction (§4.3): free space by dropping clean data blocks, picked
//! from the maps' clean-block table ([`crate::map`]), which files them by
//! valid-page count.

use flashsim::{Pbn, Ppn};
use simkit::Duration;

use super::Ssc;
use crate::config::VictimSelection;
use crate::error::SscError;
use crate::wal::LogRecord;
use crate::Result;

/// A clean data block's place in victim order, smallest first:
/// `(score, off the preferred plane, lbn)`.
pub(super) type VictimKey = ((u64, u64), bool, u64);

impl Ssc {
    /// Silent eviction (§4.3): free space by *dropping* clean data blocks
    /// instead of copying them; fall back to log recycling when no clean
    /// candidate exists.
    pub(super) fn make_free_space(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        let mut rounds = 0u64;
        while self.pool.len() <= self.config.gc_reserve_blocks {
            rounds += 1;
            if rounds > 4 * self.config.total_blocks() {
                return Err(SscError::OutOfSpace);
            }
            let evicted = self.evict_clean_batch()?;
            if evicted.is_zero() && self.maps.clean_blocks().is_empty() {
                // "If there are not enough candidate blocks to provide free
                // space, it reverts to regular garbage collection."
                self.counters.eviction_fallbacks += 1;
                if self.log_blocks.len() > 1 {
                    cost += self.recycle_log()?;
                } else {
                    return Err(SscError::OutOfSpace);
                }
                continue;
            }
            cost += evicted;
        }
        Ok(cost)
    }

    /// One batch of silent eviction: drop up to `evict_batch` clean data
    /// blocks. Returns zero time when no candidate exists. Never merges or
    /// allocates, so it is safe to call from inside a merge.
    pub(super) fn evict_clean_batch(&mut self) -> Result<Duration> {
        let mut cost = Duration::ZERO;
        // The victims go through a scratch vector taken out of `self` (an
        // early `?` return just costs a future re-growth).
        let mut victims = std::mem::take(&mut self.victim_scratch);
        self.select_eviction_victims(&mut victims);
        for &(_, _, lbn) in &victims {
            // Log the un-mapping and make it durable before erasing.
            let entry = self.maps.remove_block(lbn).expect("a victim is mapped");
            self.log_append(LogRecord::RemoveBlock { lbn });
            cost += self.commit_log()?;
            let pbn = Pbn(entry.pbn);
            self.counters.silently_evicted_pages += self.invalidate_valid_pages(pbn)?;
            cost += self.retire_block(pbn)?;
            self.counters.silent_evictions += 1;
        }
        self.victim_scratch = victims;
        Ok(cost)
    }

    /// Fills `out` with the first `evict_batch` clean data blocks in victim
    /// order, preferring the plane with the fewest free blocks ("selects a
    /// flash plane to clean and then selects the top-k victim blocks"), as
    /// the scan [`Ssc::check`] compares it with does. Walks the buckets up
    /// from the fewest valid pages, the preferred plane's blocks first, and
    /// skips whatever cannot sort before the worst block it holds.
    pub(super) fn select_eviction_victims(&self, out: &mut Vec<VictimKey>) {
        out.clear();
        let batch = self.config.evict_batch;
        let geometry = self.dev.geometry();
        let first = geometry.pbn(self.pool.emptiest_plane(), 0).raw();
        let end = first + u64::from(geometry.blocks_per_plane());
        let clean = self.maps.clean_blocks();
        let beaten = |out: &Vec<VictimKey>, floor: VictimKey| {
            out.len() == batch && out.last().is_none_or(|worst| *worst < floor)
        };
        for count in clean.counts() {
            let rank = self.utilization_rank(count);
            for (pbns, off_plane) in [(first..end, false), (0..first, true), (end..u64::MAX, true)]
            {
                if beaten(out, ((rank, 0), off_plane, 0)) {
                    break;
                }
                for (pbn, lbn) in clean.with_count(count, pbns) {
                    let key = (self.victim_score(Pbn(pbn), count), off_plane, lbn);
                    if out.len() == batch {
                        if out.last().is_none_or(|worst| key >= *worst) {
                            continue;
                        }
                        out.pop();
                    }
                    out.insert(out.partition_point(|k| *k < key), key);
                }
            }
            if beaten(out, ((rank, 0), false, 0)) {
                break;
            }
        }
    }

    /// The utilization part of the victim score of a block with `count`
    /// valid pages: blocks of one rank are ordered by the rest of the score.
    fn utilization_rank(&self, count: u32) -> u64 {
        match self.config.victim_selection {
            VictimSelection::Utilization => u64::from(count),
            VictimSelection::LeastRecentlyWritten => 0,
            VictimSelection::UtilizationThenRecency => u64::from(count / (self.ppb() / 4).max(1)),
        }
    }

    /// Two-level victim score (smaller evicts first) of the clean data block
    /// `pbn` with `count` valid pages, per the configured
    /// [`crate::config::VictimSelection`].
    pub(super) fn victim_score(&self, pbn: Pbn, count: u32) -> (u64, u64) {
        let rank = self.utilization_rank(count);
        match self.config.victim_selection {
            VictimSelection::Utilization => (rank, 0),
            VictimSelection::LeastRecentlyWritten => (self.newest_seq(pbn), 0),
            VictimSelection::UtilizationThenRecency => (rank, self.newest_seq(pbn)),
        }
    }

    /// The newest OOB sequence number among the valid pages of data block
    /// `pbn`: its highest valid page's, since a data block is programmed in
    /// offset order ([`Ssc::check`] holds every data block to that).
    fn newest_seq(&self, pbn: Pbn) -> u64 {
        let valid = self.dev.valid_mask(pbn).unwrap_or(0);
        let Some(last) = valid.checked_ilog2() else {
            return 0;
        };
        let ppn = Ppn(self.dev.geometry().first_page(pbn).raw() + u64::from(last));
        self.dev.peek_oob(ppn).map_or(0, |oob| oob.seq())
    }
}
