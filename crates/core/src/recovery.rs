//! Crash and recovery (§4.2.2 "Recovery").
//!
//! "The recovery operation reconstructs the different mappings in device
//! memory after a power failure or reboot. It first computes the difference
//! between the sequence number of the most recent committed log record and
//! the log sequence number corresponding to the beginning of the most recent
//! checkpoint. It then loads the mapping checkpoint and replays the log
//! records falling in the range of the computed difference. The SSC performs
//! roll-forward recovery for both the page-level and block-level maps, and
//! reconstructs the reverse-mapping table from the forward tables."
//!
//! [`Ssc::crash`] models the power failure: buffered (unflushed) log records
//! and all device-RAM state vanish. [`Ssc::recover`] rebuilds the maps from
//! the newest checkpoint plus the durable log suffix and returns the
//! simulated recovery time — the quantity of Figure 5.

use std::collections::HashSet;

use flashsim::{PageState, Pbn, Ppn};
use ftl::FreeBlockPool;
use simkit::Duration;

use crate::config::ConsistencyMode;
use crate::device::Ssc;
use crate::map::{PagePtr, SscMaps};
use crate::wal::LogRecord;
use crate::Result;

impl Ssc {
    /// Simulates a power failure: unflushed log records are lost and the
    /// in-memory maps are wiped (as device RAM would be). Flash contents —
    /// data pages, the durable log, both checkpoints — survive.
    ///
    /// Call [`Ssc::recover`] before issuing further operations; in
    /// [`ConsistencyMode::None`] recovery produces an empty cache.
    pub fn crash(&mut self) -> usize {
        let lost = self.wal.crash();
        let (page_hint, block_hint) = self.config.map_capacity_hints();
        self.maps = SscMaps::with_capacity(self.maps.ppb(), page_hint, block_hint);
        self.rebuild_clean_index();
        self.log_blocks.clear();
        self.pending_retire.clear();
        // A pending crash schedule dies with the power, and so does the
        // memoized checkpoint trigger (its absolute WAL offsets are stale
        // once a torn tail can rewind the durable stream).
        self.armed_crash = None;
        self.ckpt_trigger = None;
        // The free pool is RAM state too; recovery rebuilds it.
        self.pool = FreeBlockPool::new(self.dev.geometry().planes());
        lost
    }

    /// Simulates a torn (non-atomic) final log flush: the last
    /// `lose_tail_bytes` of the durable log vanish mid-frame. Combine with
    /// [`Ssc::crash`] + [`Ssc::recover`]; the CRC-framed codec guarantees
    /// recovery replays only the intact prefix. Durability of the affected
    /// records is lost — this models hardware *without* the atomic-write
    /// primitive of Ouyang et al. — but the never-stale guarantee must
    /// survive, which is what the torn-crash property tests check.
    pub fn wal_crash_torn(&mut self, lose_tail_bytes: usize) -> usize {
        // An erase performed after the last flush proves the flush hit the
        // media before power was lost (the firmware orders erase after
        // commit); in that case nothing is tearable.
        if self.dev.counters().erases > self.erases_at_last_flush {
            return self.wal.crash_torn(0);
        }
        // Tearing the tail rewinds absolute WAL offsets; drop the memoized
        // checkpoint trigger rather than trust them.
        self.ckpt_trigger = None;
        self.wal.crash_torn(lose_tail_bytes)
    }

    /// Roll-forward recovery: load the newest checkpoint, replay the durable
    /// log suffix, rebuild reverse maps and block accounting, and return the
    /// simulated recovery time.
    ///
    /// # Errors
    ///
    /// Flash faults while reconciling block state.
    pub fn recover(&mut self) -> Result<Duration> {
        let mut cost = self.dev.timing().metadata_cost();
        let (page_hint, block_hint) = self.config.map_capacity_hints();
        let mut maps = SscMaps::with_capacity(self.maps.ppb(), page_hint, block_hint);
        let mut base_lsn = 0;
        if self.config.consistency != ConsistencyMode::None {
            // Newest checkpoint first; a snapshot that fails validation
            // (torn/corrupted region) falls back to the older slot — the
            // reason the SSC "maintains two checkpoints on dedicated
            // regions".
            let restored = self
                .ckpt
                .latest()
                .and_then(|c| c.restore(self.maps.ppb()).map(|m| (m, c.lsn)))
                .or_else(|| {
                    self.ckpt
                        .previous()
                        .and_then(|c| c.restore(self.maps.ppb()).map(|m| (m, c.lsn)))
                });
            if let Some((m, lsn)) = restored {
                maps = m;
                base_lsn = lsn;
            }
            cost += self.ckpt.load_cost();
            // Replay the log suffix.
            let replay_bytes = self.wal.bytes_since(base_lsn);
            let replay_pages = replay_bytes.div_ceil(self.page_size() as u64);
            cost += self.dev.timing().read_cost() * replay_pages;
            for (_, record) in self.wal.records_since(base_lsn) {
                Self::apply(&mut maps, record);
            }
        }
        self.maps = maps;
        self.reconcile()?;
        // The maps were replaced wholesale (and reconcile adjusted device
        // page validity), so the eviction index must be rebuilt rather than
        // incrementally patched.
        self.rebuild_clean_index();
        Ok(cost)
    }

    /// Applies one log record to the maps (used by roll-forward replay).
    fn apply(maps: &mut SscMaps, record: LogRecord) {
        match record {
            LogRecord::InsertPage { lba, ppn, dirty } => {
                maps.insert_page(lba, PagePtr::new(Ppn(ppn), dirty));
            }
            LogRecord::RemovePage { lba } => {
                maps.remove_page(lba);
            }
            LogRecord::InsertBlock {
                lbn,
                pbn,
                valid,
                dirty,
            } => {
                maps.insert_block(lbn, crate::map::BlockEntry::new(pbn, valid, dirty));
            }
            LogRecord::RemoveBlock { lbn } => {
                maps.remove_block(lbn);
            }
            LogRecord::MaskBlockPage { lba } => {
                maps.mask_block_page(lba);
            }
            LogRecord::SetClean { lba } => {
                maps.set_clean(lba);
            }
        }
    }

    /// Rebuilds everything derivable from the forward maps: the reverse
    /// mapping (page validity), the log-block list, and the free pool.
    /// In-RAM work — the paper reconstructs the reverse map "from the
    /// forward tables" without extra flash reads.
    fn reconcile(&mut self) -> Result<()> {
        let geometry = *self.dev.geometry();
        let ppb = self.maps.ppb() as u64;

        // Physical pages referenced by the recovered maps.
        let mut referenced: HashSet<Ppn> = HashSet::new();
        // Blocks serving as data blocks.
        let mut data_blocks: HashSet<Pbn> = HashSet::new();
        for (_, entry) in self.maps.lbns() {
            referenced.extend(entry.log.iter().map(|(_, ptr)| ptr.ppn()));
            let Some(block) = entry.block else {
                continue;
            };
            data_blocks.insert(Pbn(block.pbn));
            for offset in 0..ppb as u32 {
                if block.is_valid(offset) {
                    referenced.insert(Ppn(block.pbn * ppb + offset as u64));
                }
            }
        }
        // Page validity is device-RAM state, rebuilt from the recovered
        // forward map: a rolled-back (torn) mapping may point at a page
        // that was invalidated in RAM before the crash — the cells still
        // hold it, so it becomes valid again.
        for &ppn in &referenced {
            self.dev.revalidate_page(ppn)?;
        }
        // Blocks holding referenced page-level entries are log blocks;
        // order them by their newest write for a deterministic recycle
        // order.
        let mut log_blocks: Vec<(u64, Pbn)> = Vec::new();

        let mut pool = FreeBlockPool::new(geometry.planes());
        for plane in 0..geometry.planes() {
            for block in 0..geometry.blocks_per_plane() {
                let pbn = geometry.pbn(plane, block);
                let state = self.dev.block_state(pbn)?;
                if data_blocks.contains(&pbn) {
                    continue;
                }
                let mut newest_seq = None;
                for (ppn, oob) in self.dev.valid_pages_of(pbn)? {
                    if referenced.contains(&ppn) {
                        newest_seq = Some(newest_seq.unwrap_or(0).max(oob.seq()));
                    } else {
                        // Orphaned by lost (buffered) records: behaves as if
                        // silently evicted.
                        self.dev.invalidate_page(ppn)?;
                    }
                }
                match newest_seq {
                    Some(seq) => log_blocks.push((seq, pbn)),
                    None => {
                        if state.is_empty() {
                            pool.release(pbn, state.erase_count, &geometry);
                        } else {
                            // Fully stale block: erase lazily in the
                            // background; modelled as an immediate erase
                            // whose time is not charged to recovery. A block
                            // that refuses the erase (worn out or grown bad)
                            // stays retired: it never enters the pool.
                            match self.dev.erase_block(pbn) {
                                Ok(_) => {
                                    let erased = self.dev.block_state(pbn)?;
                                    pool.release(pbn, erased.erase_count, &geometry);
                                }
                                Err(
                                    flashsim::FlashError::WornOut(_)
                                    | flashsim::FlashError::EraseFailed(_),
                                ) => {}
                                Err(e) => return Err(e.into()),
                            }
                        }
                    }
                }
            }
        }
        log_blocks.sort_unstable();
        self.log_blocks = log_blocks.into_iter().map(|(_, pbn)| pbn).collect();
        self.pool = pool;
        // Data-block pages not referenced by the recovered entry are stale.
        let entries: Vec<(u64, crate::map::BlockEntry)> =
            self.maps.blocks().map(|(lbn, e)| (lbn, *e)).collect();
        for (_, entry) in entries {
            for offset in 0..ppb as u32 {
                let ppn = Ppn(entry.pbn * ppb + offset as u64);
                if !entry.is_valid(offset) && self.dev.page_state(ppn)? == PageState::Valid {
                    self.dev.invalidate_page(ppn)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SscConfig;
    use crate::error::SscError;

    fn page(ssc: &Ssc, fill: u8) -> Vec<u8> {
        vec![fill; ssc.page_size()]
    }

    #[test]
    fn dirty_data_survives_crash() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        let p = page(&ssc, 0xD1);
        ssc.write_dirty(123, &p).unwrap();
        ssc.crash();
        let t = ssc.recover().unwrap();
        assert!(t.as_micros() > 0);
        assert_eq!(
            ssc.read(123).unwrap().0,
            p,
            "guarantee 1: dirty data durable"
        );
        assert!(ssc.maps.is_dirty(123), "dirty state preserved");
    }

    #[test]
    fn buffered_clean_writes_vanish_like_silent_eviction() {
        let config = SscConfig::small_test().with_consistency(ConsistencyMode::DirtyOnly);
        let mut ssc = Ssc::new(config);
        let p = page(&ssc, 0xC1);
        ssc.write_clean(7, &p).unwrap();
        ssc.crash();
        ssc.recover().unwrap();
        // Guarantee 2: either the data or not-present — with the insert
        // record lost, not-present.
        assert!(matches!(ssc.read(7), Err(SscError::NotPresent(7))));
        // The cache remains fully usable.
        ssc.write_clean(7, &p).unwrap();
        assert_eq!(ssc.read(7).unwrap().0, p);
    }

    #[test]
    fn synced_clean_writes_survive() {
        let mut ssc = Ssc::new(SscConfig::small_test()); // CleanAndDirty
        let p = page(&ssc, 0xC2);
        ssc.write_clean(9, &p).unwrap();
        ssc.crash();
        ssc.recover().unwrap();
        assert_eq!(ssc.read(9).unwrap().0, p);
    }

    #[test]
    fn eviction_survives_crash() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        let p = page(&ssc, 0xE1);
        ssc.write_dirty(5, &p).unwrap();
        ssc.evict(5).unwrap();
        ssc.crash();
        ssc.recover().unwrap();
        assert!(
            matches!(ssc.read(5), Err(SscError::NotPresent(5))),
            "guarantee 3: read after evict is not-present, even after crash"
        );
    }

    #[test]
    fn overwrite_never_resurrects_stale_data() {
        let config = SscConfig::small_test().with_consistency(ConsistencyMode::DirtyOnly);
        let mut ssc = Ssc::new(config);
        let old = page(&ssc, 0x01);
        let new = page(&ssc, 0x02);
        ssc.write_clean(3, &old).unwrap();
        // Force the first insert durable via an unrelated sync op.
        ssc.write_dirty(1000, &page(&ssc, 0xFF)).unwrap();
        // Overwrite: the mapping change must be durable even in DirtyOnly.
        ssc.write_clean(3, &new).unwrap();
        ssc.crash();
        ssc.recover().unwrap();
        match ssc.read(3) {
            Ok((data, _)) => assert_eq!(data, new, "stale data returned after crash"),
            Err(SscError::NotPresent(_)) => {} // acceptable per guarantee 2
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn clean_state_may_regress_but_data_survives() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        let p = page(&ssc, 0x44);
        ssc.write_dirty(11, &p).unwrap();
        ssc.clean(11).unwrap(); // buffered, may be lost
        ssc.crash();
        ssc.recover().unwrap();
        assert_eq!(ssc.read(11).unwrap().0, p);
        // The paper allows cleaned blocks to "return to their dirty state".
        assert!(ssc.maps.is_dirty(11));
    }

    #[test]
    fn recovery_after_heavy_traffic_preserves_all_dirty_data() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        // Dense LBAs: dirty data at block granularity occupies one erase
        // block per LBN, so a cache-sized working set must cluster.
        let span = 40u64;
        for round in 0..6u64 {
            for lba in 0..span {
                let fill = (round * span + lba) as u8;
                ssc.write_dirty(lba, &page(&ssc, fill)).unwrap();
            }
        }
        ssc.crash();
        ssc.recover().unwrap();
        for lba in 0..span {
            let fill = (5 * span + lba) as u8;
            assert_eq!(ssc.read(lba).unwrap().0, page(&ssc, fill), "lba {lba}");
        }
        // Device still fully operational after recovery.
        ssc.write_dirty(12345, &page(&ssc, 0xAB)).unwrap();
        assert_eq!(ssc.read(12345).unwrap().0, page(&ssc, 0xAB));
    }

    #[test]
    fn no_consistency_mode_loses_everything() {
        let config = SscConfig::small_test().with_consistency(ConsistencyMode::None);
        let mut ssc = Ssc::new(config);
        ssc.write_dirty(1, &page(&ssc, 1)).unwrap();
        ssc.crash();
        let t = ssc.recover().unwrap();
        assert!(matches!(ssc.read(1), Err(SscError::NotPresent(1))));
        // Recovery is nearly instant: nothing to load.
        assert!(t.as_micros() < 100);
    }

    #[test]
    fn recovery_time_grows_with_map_size() {
        let mut small = Ssc::new(SscConfig::small_test());
        let mut big = Ssc::new(SscConfig::small_test());
        small.write_dirty(1, &page(&small, 1)).unwrap();
        for lba in 0..48u64 {
            big.write_dirty(lba, &page(&big, lba as u8)).unwrap();
        }
        small.crash();
        big.crash();
        let ts = small.recover().unwrap();
        let tb = big.recover().unwrap();
        assert!(
            tb >= ts,
            "bigger map should take at least as long: {tb} vs {ts}"
        );
    }

    #[test]
    fn double_crash_recover_is_stable() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        let p = page(&ssc, 0x77);
        ssc.write_dirty(50, &p).unwrap();
        ssc.crash();
        ssc.recover().unwrap();
        ssc.crash();
        ssc.recover().unwrap();
        assert_eq!(ssc.read(50).unwrap().0, p);
    }
}

#[cfg(test)]
mod corruption_tests {
    use super::*;
    use crate::config::SscConfig;

    fn page(ssc: &Ssc, fill: u8) -> Vec<u8> {
        vec![fill; ssc.page_size()]
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_older_slot() {
        let mut config = SscConfig::small_test();
        config.checkpoint_write_interval = 30; // checkpoint often
        let mut ssc = Ssc::new(config);
        for round in 0..4u64 {
            for lba in 0..30u64 {
                ssc.write_dirty(lba, &page(&ssc, (round * 30 + lba) as u8))
                    .unwrap();
            }
        }
        assert!(
            ssc.counters().checkpoints >= 2,
            "need two checkpoint slots populated"
        );
        // Corrupt the newest snapshot, then crash.
        ssc.ckpt.corrupt_latest();
        ssc.crash();
        ssc.recover().unwrap();
        // Recovery fell back to the older slot and replayed the longer log
        // suffix; every dirty block still holds its newest value.
        for lba in 0..30u64 {
            let expect = page(&ssc, (3 * 30 + lba) as u8);
            assert_eq!(ssc.read(lba).unwrap().0, expect, "lba {lba}");
        }
    }

    #[test]
    fn torn_log_tail_recovers_prefix_without_stale_data() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        let p1 = page(&ssc, 1);
        ssc.write_dirty(5, &p1).unwrap();
        ssc.write_clean(6, &page(&ssc, 2)).unwrap();
        // Tear half a frame off the durable log, as a non-atomic final
        // flush would, then recover.
        ssc.wal.crash_torn(crate::wal::RECORD_BYTES as usize / 2);
        ssc.crash();
        ssc.recover().unwrap();
        // The intact prefix must replay; anything torn away behaves like a
        // silent eviction (clean) — never stale data.
        match ssc.read(5) {
            Ok((data, _)) => assert_eq!(data, p1),
            Err(crate::error::SscError::NotPresent(_)) => {}
            Err(e) => panic!("unexpected {e}"),
        }
        match ssc.read(6) {
            Ok((data, _)) => assert_eq!(data, page(&ssc, 2)),
            Err(crate::error::SscError::NotPresent(_)) => {}
            Err(e) => panic!("unexpected {e}"),
        }
        // Fully operational afterwards.
        ssc.write_dirty(7, &page(&ssc, 3)).unwrap();
        assert_eq!(ssc.read(7).unwrap().0, page(&ssc, 3));
    }
}
