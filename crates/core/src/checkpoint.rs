//! Checkpointing (§4.2.2 "Checkpointing").
//!
//! "SSCs checkpoint the mapping data structure periodically so that the log
//! size is less than a fixed fraction of the size of checkpoint. ... It only
//! checkpoints the forward mappings because of the high degree of sparseness
//! in the logical address space. ... FlashTier maintains two checkpoints on
//! dedicated regions spread across different planes of the SSC that bypass
//! address translation."
//!
//! The store keeps the two alternating checkpoint slots; writing snapshots
//! the forward maps and charges sequential flash-write time for their
//! serialized size, loading charges sequential read time. Both sizes feed
//! the Figure 5 recovery model. The wire bytes themselves are materialised
//! on demand: every restore (so every recovery) encodes the snapshot and
//! decodes it back through the CRC check, and `corrupt` scribbles on the
//! encoded form; a checkpoint superseded unread is never encoded.

use flashsim::FlashTiming;
use simkit::Duration;

use crate::map::{BlockEntry, PagePtr, SscMaps};

/// Serialized bytes per page-level entry (one CRC-framed record).
pub(crate) const PAGE_ENTRY_BYTES: u64 = crate::wal::RECORD_BYTES;
/// Serialized bytes per block-level entry (a two-frame record).
pub(crate) const BLOCK_ENTRY_BYTES: u64 = 2 * crate::wal::RECORD_BYTES;

/// One durable snapshot of the forward maps.
///
/// The snapshot stands for the encoded bytes a real device would write —
/// a CRC-framed stream of insert records (see the `codec` module) — and
/// restoring it encodes, decodes and validates that wire format, so a
/// corrupted slot is *detected* rather than trusted (which is what the
/// two-slot scheme exists for).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The log position this snapshot covers: records with LSN greater than
    /// this must be replayed on top.
    pub lsn: u64,
    /// Entry counts at write time (pages, blocks) — sizing metadata kept in
    /// the checkpoint header.
    pub entry_counts: (usize, usize),
    /// The captured snapshot, encoded lazily.
    snapshot: Snapshot,
}

/// Checkpoint body representation. Every wire frame has a fixed size, so
/// the encoded length — the only thing the per-write checkpoint policy and
/// the cost model consume — is known from the entry counts alone. Capture
/// therefore copies the entries out and defers serialization until a
/// consumer actually needs wire bytes (every [`Checkpoint::restore`], i.e.
/// every recovery, and [`Checkpoint::corrupt`]); the hot write path never
/// pays for encoding checkpoints that are superseded unread.
#[derive(Debug, Clone)]
enum Snapshot {
    /// Materialized wire bytes (after corruption or torn-tail surgery).
    Encoded(Vec<u8>),
    /// The captured entries, each level in the map's iteration order;
    /// [`Checkpoint::encode`] produces the exact bytes eager capture would
    /// have written.
    Deferred {
        pages: Vec<(u64, PagePtr)>,
        blocks: Vec<(u64, BlockEntry)>,
    },
}

impl Checkpoint {
    /// Snapshots the forward maps at `lsn` into two flat vectors, filled in
    /// one walk of the map; their encoded size is exact (fixed-size frames)
    /// and their bytes are produced on demand. `recycled` — the checkpoint
    /// whose slot this one overwrites — donates its vectors, so steady-state
    /// capture does not allocate.
    pub(crate) fn capture(maps: &SscMaps, lsn: u64, recycled: Option<Checkpoint>) -> Self {
        let (mut pages, mut blocks) = match recycled.map(|c| c.snapshot) {
            Some(Snapshot::Deferred { pages, blocks }) => (pages, blocks),
            _ => (Vec::new(), Vec::new()),
        };
        pages.clear();
        pages.reserve(maps.page_count());
        blocks.clear();
        blocks.reserve(maps.block_count());
        let ppb = u64::from(maps.ppb());
        for (lbn, entry) in maps.lbns() {
            let logged = entry.log.iter();
            pages.extend(logged.map(|(offset, ptr)| (lbn * ppb + u64::from(offset), *ptr)));
            blocks.extend(entry.block.map(|block| (lbn, block)));
        }
        Checkpoint {
            lsn,
            entry_counts: (pages.len(), blocks.len()),
            snapshot: Snapshot::Deferred { pages, blocks },
        }
    }

    /// Encodes captured entries into the checkpoint wire format covering
    /// `lsn` — page entries first, then block entries.
    fn encode(pages: &[(u64, PagePtr)], blocks: &[(u64, BlockEntry)], lsn: u64) -> Vec<u8> {
        use crate::wal::LogRecord;
        let mut bytes = Vec::with_capacity(
            pages.len() * PAGE_ENTRY_BYTES as usize + blocks.len() * BLOCK_ENTRY_BYTES as usize,
        );
        for &(lba, ptr) in pages {
            let record = LogRecord::InsertPage {
                lba,
                ppn: ptr.ppn().raw(),
                dirty: ptr.dirty(),
            };
            crate::codec::encode_record_into(lsn, &record, &mut bytes);
        }
        for &(lbn, entry) in blocks {
            let record = LogRecord::InsertBlock {
                lbn,
                pbn: entry.pbn,
                valid: entry.valid,
                dirty: entry.dirty,
            };
            crate::codec::encode_record_into(lsn, &record, &mut bytes);
        }
        bytes
    }

    /// Serialized size in bytes (the real encoded length; frames have
    /// fixed sizes, so a deferred snapshot knows it without encoding).
    pub fn bytes(&self) -> u64 {
        match &self.snapshot {
            Snapshot::Encoded(bytes) => bytes.len() as u64,
            Snapshot::Deferred { .. } => {
                self.entry_counts.0 as u64 * PAGE_ENTRY_BYTES
                    + self.entry_counts.1 as u64 * BLOCK_ENTRY_BYTES
            }
        }
    }

    /// Materializes the wire bytes (encoding a deferred snapshot).
    fn materialize(&mut self) -> &mut Vec<u8> {
        if let Snapshot::Deferred { pages, blocks } = &self.snapshot {
            self.snapshot = Snapshot::Encoded(Self::encode(pages, blocks, self.lsn));
        }
        match &mut self.snapshot {
            Snapshot::Encoded(bytes) => bytes,
            Snapshot::Deferred { .. } => unreachable!("just materialized"),
        }
    }

    /// Decodes and rebuilds the in-memory maps from the snapshot.
    ///
    /// Returns `None` if the snapshot fails validation (torn or corrupted)
    /// — the caller falls back to the other slot.
    pub fn restore(&self, ppb: u32) -> Option<SscMaps> {
        // A deferred snapshot round-trips through the identical encoding an
        // eager capture would have flushed, so recovery exercises the same
        // decode-and-validate path either way.
        let encoded;
        let bytes = match &self.snapshot {
            Snapshot::Encoded(bytes) => bytes.as_slice(),
            Snapshot::Deferred { pages, blocks } => {
                encoded = Self::encode(pages, blocks, self.lsn);
                encoded.as_slice()
            }
        };
        let (records, end) = crate::codec::decode_records(bytes);
        if end != crate::codec::DecodeEnd::Clean {
            return None;
        }
        // The snapshot header records exactly how many entries follow;
        // pre-size the maps so restore never rehashes mid-replay.
        let mut maps = SscMaps::with_capacity(ppb, self.entry_counts.0, self.entry_counts.1);
        for (_, record) in records {
            match record {
                crate::wal::LogRecord::InsertPage { lba, ppn, dirty } => {
                    maps.insert_page(lba, PagePtr::new(flashsim::Ppn(ppn), dirty));
                }
                crate::wal::LogRecord::InsertBlock {
                    lbn,
                    pbn,
                    valid,
                    dirty,
                } => {
                    maps.insert_block(lbn, BlockEntry::new(pbn, valid, dirty));
                }
                // Checkpoints hold only insert records.
                _ => return None,
            }
        }
        Some(maps)
    }

    /// Test hook: flips one byte of the snapshot, simulating media
    /// corruption of this checkpoint region.
    pub fn corrupt(&mut self) {
        if let Some(byte) = self.materialize().get_mut(0) {
            *byte ^= 0xFF;
        }
    }
}

/// Statistics for checkpoint activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Checkpoints written.
    pub written: u64,
    /// Flash pages consumed writing checkpoints.
    pub pages_written: u64,
}

/// The two-slot checkpoint store.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    slots: [Option<Checkpoint>; 2],
    next_slot: usize,
    timing: FlashTiming,
    page_size: usize,
    counters: CheckpointCounters,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new(timing: FlashTiming, page_size: usize) -> Self {
        CheckpointStore {
            slots: [None, None],
            next_slot: 0,
            timing,
            page_size,
            counters: CheckpointCounters::default(),
        }
    }

    /// Serializes `maps` as a new checkpoint covering `lsn`, overwriting the
    /// older slot, and returns the simulated write cost.
    pub fn write(&mut self, maps: &SscMaps, lsn: u64) -> Duration {
        let ckpt = Checkpoint::capture(maps, lsn, self.slots[self.next_slot].take());
        let pages = ckpt.bytes().div_ceil(self.page_size as u64).max(1);
        self.counters.written += 1;
        self.counters.pages_written += pages;
        self.slots[self.next_slot] = Some(ckpt);
        self.next_slot ^= 1;
        self.timing.metadata_cost() + self.timing.write_cost() * pages
    }

    /// The newest complete checkpoint (possibly corrupted; callers validate
    /// via [`Checkpoint::restore`] and fall back to
    /// [`CheckpointStore::previous`]).
    pub fn latest(&self) -> Option<&Checkpoint> {
        match (&self.slots[0], &self.slots[1]) {
            (Some(a), Some(b)) => Some(if a.lsn >= b.lsn { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// The older of the two slots — the fallback when the newest snapshot
    /// fails validation.
    pub fn previous(&self) -> Option<&Checkpoint> {
        match (&self.slots[0], &self.slots[1]) {
            (Some(a), Some(b)) => Some(if a.lsn >= b.lsn { b } else { a }),
            _ => None,
        }
    }

    /// Test hook: corrupts the newest snapshot in place.
    pub(crate) fn corrupt_latest(&mut self) {
        let newest = match (&self.slots[0], &self.slots[1]) {
            (Some(a), Some(b)) => {
                if a.lsn >= b.lsn {
                    0
                } else {
                    1
                }
            }
            (Some(_), None) => 0,
            (None, Some(_)) => 1,
            (None, None) => return,
        };
        if let Some(slot) = &mut self.slots[newest] {
            slot.corrupt();
        }
    }

    /// Size of the newest checkpoint in bytes (0 when none) — the reference
    /// point for the log-size policy.
    pub(crate) fn latest_bytes(&self) -> u64 {
        self.latest().map(|c| c.bytes()).unwrap_or(0)
    }

    /// Simulated cost of reading the newest checkpoint back at recovery.
    pub(crate) fn load_cost(&self) -> Duration {
        match self.latest() {
            Some(c) => {
                let pages = c.bytes().div_ceil(self.page_size as u64).max(1);
                self.timing.metadata_cost() + self.timing.read_cost() * pages
            }
            None => Duration::ZERO,
        }
    }

    /// Cumulative statistics.
    pub fn counters(&self) -> CheckpointCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::Ppn;

    fn sample_maps() -> SscMaps {
        let mut m = SscMaps::new(64);
        for i in 0..100 {
            m.insert_page(i * 7, PagePtr::new(Ppn(i), i % 2 == 0));
        }
        for i in 0..10 {
            m.insert_block(i, BlockEntry::new(i + 50, u64::MAX, i));
        }
        m
    }

    #[test]
    fn write_and_restore_round_trip() {
        let maps = sample_maps();
        let mut store = CheckpointStore::new(FlashTiming::paper_default(), 4096);
        let cost = store.write(&maps, 42);
        assert!(cost.as_micros() > 0);
        let ckpt = store.latest().unwrap();
        assert_eq!(ckpt.lsn, 42);
        let restored = ckpt.restore(64).expect("intact snapshot decodes");
        assert_eq!(restored.page_count(), maps.page_count());
        assert_eq!(restored.block_count(), maps.block_count());
        for i in 0..100u64 {
            assert_eq!(
                restored.lookup(i * 7).map(|r| r.ppn()),
                maps.lookup(i * 7).map(|r| r.ppn())
            );
        }
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous() {
        let maps = sample_maps();
        let mut store = CheckpointStore::new(FlashTiming::paper_default(), 4096);
        store.write(&maps, 10);
        store.write(&maps, 20);
        store.corrupt_latest();
        assert!(
            store.latest().unwrap().restore(64).is_none(),
            "corruption detected"
        );
        let fallback = store.previous().unwrap();
        assert_eq!(fallback.lsn, 10);
        assert!(fallback.restore(64).is_some(), "older slot still intact");
    }

    #[test]
    fn two_slots_alternate_and_latest_wins() {
        let mut store = CheckpointStore::new(FlashTiming::paper_default(), 4096);
        let maps = sample_maps();
        store.write(&maps, 10);
        store.write(&maps, 20);
        assert_eq!(store.latest().unwrap().lsn, 20);
        store.write(&maps, 30);
        // Slot holding lsn=10 was overwritten; 20 and 30 remain.
        assert_eq!(store.latest().unwrap().lsn, 30);
        assert_eq!(store.counters().written, 3);
    }

    #[test]
    fn bytes_and_costs_scale_with_entries() {
        let maps = sample_maps();
        let mut store = CheckpointStore::new(FlashTiming::paper_default(), 4096);
        store.write(&maps, 1);
        // Page entries take one 40-byte frame, block entries two.
        let expect = 100 * 40 + 10 * 80;
        assert_eq!(store.latest_bytes(), expect);
        assert_eq!(store.latest().unwrap().entry_counts, (100, 10));
        assert!(store.load_cost().as_micros() >= 77);
    }

    #[test]
    fn empty_store() {
        let store = CheckpointStore::new(FlashTiming::paper_default(), 4096);
        assert!(store.latest().is_none());
        assert_eq!(store.latest_bytes(), 0);
        assert_eq!(store.load_cost(), Duration::ZERO);
    }
}
