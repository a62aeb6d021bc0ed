//! Silent eviction (§4.3): free space by dropping clean data blocks, picked
//! through the clean-block index and its mark/flush protocol (see
//! [`crate::evict_index`]).

use flashsim::Pbn;
use simkit::Duration;

use super::Ssc;
use crate::error::SscError;
use crate::evict_index::CleanBlockIndex;
use crate::map::BlockEntry;
use crate::wal::LogRecord;
use crate::Result;

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
            if evicted.is_zero() && self.flush_index().is_empty() {
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
        for (lbn, entry) in self.select_eviction_victims() {
            // Log the un-mapping and make it durable before erasing.
            self.maps.remove_block(lbn);
            self.index_mark(lbn);
            self.log_append(LogRecord::RemoveBlock { lbn });
            cost += self.commit_log()?;
            let pbn = Pbn(entry.pbn);
            self.counters.silently_evicted_pages += self.invalidate_valid_pages(pbn)?;
            cost += self.retire_block(pbn)?;
            self.counters.silent_evictions += 1;
        }
        Ok(cost)
    }

    /// Picks up to `evict_batch` clean data blocks by the configured
    /// victim selector, preferring the plane with the fewest free blocks
    /// ("selects a flash plane to clean and then selects the top-k victim
    /// blocks"). Served by the index, brought up to date first; must agree
    /// with the brute-force scan [`Ssc::check`] compares it with.
    pub(super) fn select_eviction_victims(&mut self) -> Vec<(u64, BlockEntry)> {
        let preferred_plane = self.pool.emptiest_plane();
        let batch = self.config.evict_batch;
        self.flush_index()
            .select_victims(preferred_plane, batch)
            .into_iter()
            .map(|lbn| {
                let entry = self.maps.block(lbn).expect("indexed lbn is mapped");
                (lbn, entry)
            })
            .collect()
    }

    /// Two-level victim score (smaller evicts first) per the configured
    /// [`crate::config::VictimSelection`].
    pub(super) fn victim_score(&self, entry: &BlockEntry) -> (u64, u64) {
        let newest_seq = || -> u64 {
            self.dev
                .valid_pages_iter(Pbn(entry.pbn))
                .map(|pages| pages.map(|(_, oob)| oob.seq()).max().unwrap_or(0))
                .unwrap_or(0)
        };
        match self.config.victim_selection {
            crate::config::VictimSelection::Utilization => (entry.valid_count() as u64, 0),
            crate::config::VictimSelection::LeastRecentlyWritten => (newest_seq(), 0),
            crate::config::VictimSelection::UtilizationThenRecency => {
                let quarter = (self.ppb() / 4).max(1);
                ((entry.valid_count() / quarter) as u64, newest_seq())
            }
        }
    }

    /// Marks `lbn`'s eviction-index key stale. Call after any mutation that
    /// can change its block-level entry (insert/remove/mask/clean); the key
    /// is re-derived by the next [`Ssc::flush_index`]. The list is flushed
    /// once it is as long as the device has blocks — the most keys the index
    /// itself can hold — so it is bounded however rarely eviction runs.
    pub(super) fn index_mark(&mut self, lbn: u64) {
        self.index_stale.push(lbn);
        if self.index_stale.len() as u64 >= self.config.total_blocks() {
            self.flush_index();
        }
    }

    /// Brings the eviction index up to date — re-derives the key of every
    /// marked LBN from its block-level entry and the device state as they
    /// stand — and returns it. The only way `clean_index` is read.
    pub(super) fn flush_index(&mut self) -> &CleanBlockIndex {
        self.index_stale.sort_unstable();
        self.index_stale.dedup();
        for i in 0..self.index_stale.len() {
            let lbn = self.index_stale[i];
            match self.maps.block(lbn) {
                Some(entry) if entry.is_clean() => {
                    let score = self.victim_score(&entry);
                    let plane = self.dev.geometry().plane_of(Pbn(entry.pbn));
                    self.clean_index.upsert(lbn, score, plane);
                }
                _ => self.clean_index.remove(lbn),
            }
        }
        self.index_stale.clear();
        &self.clean_index
    }

    /// Rebuilds the eviction index from scratch — needed when the maps are
    /// replaced wholesale (crash wipe, roll-forward recovery) rather than
    /// mutated through the tracked paths.
    pub(crate) fn rebuild_clean_index(&mut self) {
        self.clean_index = CleanBlockIndex::new(self.dev.geometry().planes());
        self.index_stale.clear();
        self.index_stale
            .extend(self.maps.blocks().map(|(lbn, _)| lbn));
        self.flush_index();
    }
}
