//! The operation log (§4.2.2 "Logging").
//!
//! "An SSC uses an operation log to persist changes to the sparse hash map.
//! A log record consists of a monotonically increasing log sequence number,
//! the logical and physical block addresses, and an identifier indicating
//! whether this is a page-level or block-level mapping."
//!
//! Records are appended to a device-memory buffer and become durable when
//! flushed to flash — synchronously (for `write-dirty`/`evict`, using the
//! atomic-write primitive of Ouyang et al. so multi-record groups land
//! all-or-nothing) or by asynchronous group commit (for `write-clean`/
//! `clean`). A crash discards the buffer; recovery replays flushed records.
//!
//! The simulator keeps durable records structurally and materialises their
//! wire bytes (the CRC frames of the `codec` module) on demand: a flush is
//! priced by its frame count, and the bytes exist whenever something reads
//! the log back — every [`crate::Ssc::recover`] decodes them, every torn
//! crash cuts them mid-frame and keeps what the CRCs still vouch for. A
//! checkpoint truncates most records unread; those are never framed.

use std::collections::VecDeque;

use flashsim::FlashTiming;
use simkit::Duration;

/// Which mapping level a record touches (kept explicit, as in the paper's
/// record format, so replay needs no guessing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapLevel {
    /// Page-granularity (log-block) mapping.
    Page,
    /// Erase-block-granularity (data-block) mapping.
    Block,
}

/// A mapping-change record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord {
    /// Insert/update a page-level mapping.
    InsertPage {
        /// Disk address.
        lba: u64,
        /// Physical page.
        ppn: u64,
        /// Whether the cached data is dirty.
        dirty: bool,
    },
    /// Remove a page-level mapping.
    RemovePage {
        /// Disk address.
        lba: u64,
    },
    /// Insert/update a block-level mapping with its bitmaps.
    InsertBlock {
        /// Logical block number (LBA / pages-per-block).
        lbn: u64,
        /// Physical erase block.
        pbn: u64,
        /// Valid-page bitmap.
        valid: u64,
        /// Dirty-page bitmap.
        dirty: u64,
    },
    /// Remove a block-level mapping.
    RemoveBlock {
        /// Logical block number.
        lbn: u64,
    },
    /// Invalidate one page within a block-level mapping.
    MaskBlockPage {
        /// Disk address of the masked page.
        lba: u64,
    },
    /// Mark a cached page clean (asynchronous; may be lost on crash —
    /// "after a crash cleaned blocks may return to their dirty state").
    SetClean {
        /// Disk address.
        lba: u64,
    },
}

impl LogRecord {
    /// Which level the record applies to.
    pub fn level(&self) -> MapLevel {
        match self {
            LogRecord::InsertPage { .. }
            | LogRecord::RemovePage { .. }
            | LogRecord::SetClean { .. } => MapLevel::Page,
            LogRecord::InsertBlock { .. }
            | LogRecord::RemoveBlock { .. }
            | LogRecord::MaskBlockPage { .. } => MapLevel::Block,
        }
    }
}

/// Serialized size of one record: LSN (8) + type tag (1) + addresses and
/// bitmaps (up to 32), padded for alignment.
pub const RECORD_BYTES: u64 = 40;

/// Cumulative WAL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Synchronous + group-commit flushes performed.
    pub flushes: u64,
    /// Records made durable.
    pub records_flushed: u64,
    /// Flash pages consumed by flushes.
    pub pages_written: u64,
}

/// The write-ahead operation log.
///
/// Records stay structural on both sides of a flush (see the module docs):
/// the bytes a device would write are a pure function of the durable
/// records, so [`Wal::flush`] only moves the durable watermark and the byte
/// accounting, and [`Wal::records_since`] and [`Wal::crash_torn`] encode,
/// cut and *decode* the wire form — a torn tail is still found by CRC, not
/// assumed away.
#[derive(Debug, Clone)]
pub struct Wal {
    /// Every record not yet truncated, oldest first, LSNs ascending: the
    /// first `durable_len` are on flash, the rest are the volatile buffer.
    records: VecDeque<(u64, LogRecord)>,
    durable_len: usize,
    /// Wire bytes of the buffered records — what the next flush writes.
    buffered_bytes: u64,
    /// Wire bytes ever flushed and not torn away — the log's write pointer.
    appended_bytes: u64,
    /// Bytes written by the most recent flush — the only bytes a torn
    /// (mid-flush) power failure can destroy.
    last_flush_bytes: u64,
    next_lsn: u64,
    timing: FlashTiming,
    page_size: usize,
    counters: WalCounters,
}

/// Encoded size of one record.
fn wire_bytes(record: &LogRecord) -> u64 {
    crate::codec::record_frames(record) * RECORD_BYTES
}

impl Wal {
    /// Creates an empty log for a device with the given timing and page
    /// size.
    pub fn new(timing: FlashTiming, page_size: usize) -> Self {
        Wal {
            records: VecDeque::new(),
            durable_len: 0,
            buffered_bytes: 0,
            appended_bytes: 0,
            last_flush_bytes: 0,
            next_lsn: 1,
            timing,
            page_size,
            counters: WalCounters::default(),
        }
    }

    /// Appends a record to the in-memory buffer, returning its LSN.
    pub fn append(&mut self, record: LogRecord) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.buffered_bytes += wire_bytes(&record);
        self.records.push_back((lsn, record));
        lsn
    }

    /// Records currently buffered (volatile).
    pub fn buffered(&self) -> usize {
        self.records.len() - self.durable_len
    }

    /// The most recently durable LSN (0 if none).
    pub fn durable_lsn(&self) -> u64 {
        let mut durable = self.records.range(..self.durable_len);
        durable.next_back().map_or(0, |(lsn, _)| *lsn)
    }

    /// Flushes every buffered record to flash as one atomic append,
    /// returning the simulated cost. A no-op costing nothing when the
    /// buffer is empty.
    pub fn flush(&mut self) -> Duration {
        let records = self.buffered() as u64;
        if records == 0 {
            return Duration::ZERO;
        }
        let bytes = std::mem::take(&mut self.buffered_bytes);
        self.durable_len = self.records.len();
        self.appended_bytes += bytes;
        self.last_flush_bytes = bytes;
        let pages = bytes.div_ceil(self.page_size as u64);
        self.counters.flushes += 1;
        self.counters.records_flushed += records;
        self.counters.pages_written += pages;
        self.timing.metadata_cost() + self.timing.write_cost() * pages
    }

    /// Durable records with LSN strictly greater than `lsn`, oldest first.
    fn suffix(&self, lsn: u64) -> impl Iterator<Item = &(u64, LogRecord)> {
        self.records
            .range(self.durable_through(lsn)..self.durable_len)
    }

    /// How many durable records have an LSN at or before `lsn`.
    fn durable_through(&self, lsn: u64) -> usize {
        self.records
            .partition_point(|(l, _)| *l <= lsn)
            .min(self.durable_len)
    }

    /// The wire bytes of `records`, exactly as a flush lays them down.
    fn encode<'a>(records: impl Iterator<Item = &'a (u64, LogRecord)>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (lsn, record) in records {
            crate::codec::encode_record_into(*lsn, record, &mut bytes);
        }
        bytes
    }

    /// Durable records with LSN strictly greater than `lsn`, in order,
    /// decoded from their wire bytes — the round trip roll-forward
    /// recovery makes.
    pub fn records_since(&self, lsn: u64) -> Vec<(u64, LogRecord)> {
        let (records, _end) = crate::codec::decode_records(&Self::encode(self.suffix(lsn)));
        records
    }

    /// Durable log size in bytes past `lsn` (drives the checkpoint policy
    /// and prices log replay at recovery).
    pub fn bytes_since(&self, lsn: u64) -> u64 {
        self.suffix(lsn).map(|(_, r)| wire_bytes(r)).sum()
    }

    /// Absolute bytes ever flushed since log creation (truncation trims
    /// the front without rewinding this counter). For a fixed `lsn` whose
    /// durable suffix is intact, `bytes_since(lsn)` equals this counter
    /// minus a constant — the identity the checkpoint-trigger memo in
    /// [`crate::Ssc`] relies on. Only a torn crash can rewind it.
    pub(crate) fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Drops durable records at or before `lsn` (the checkpoint has
    /// superseded them).
    pub fn truncate_through(&mut self, lsn: u64) {
        let superseded = self.durable_through(lsn);
        self.records.drain(..superseded);
        self.durable_len -= superseded;
    }

    /// Simulates a power failure: every buffered (unflushed) record is lost.
    /// Returns how many were dropped.
    pub fn crash(&mut self) -> usize {
        let lost = self.buffered();
        self.records.truncate(self.durable_len);
        self.buffered_bytes = 0;
        lost
    }

    /// Simulates a power failure during a *non-atomic* final flush: the
    /// buffer is lost and up to `lose_tail_bytes` of the durable stream
    /// vanish mid-frame. The loss is capped at the size of the most recent
    /// flush — power dying mid-flush cannot destroy earlier flushes, whose
    /// completion already gated any subsequent erase. Recovery must stop
    /// cleanly at the torn tail.
    pub fn crash_torn(&mut self, lose_tail_bytes: usize) -> usize {
        let lose = (lose_tail_bytes as u64).min(self.last_flush_bytes);
        self.last_flush_bytes = 0;
        // With the buffer gone, `records` is exactly the durable log.
        let lost = self.crash();
        // The records the tear reaches: the shortest tail of the durable
        // log spanning at least `lose` bytes (all of it, if it is shorter).
        let mut reached = 0;
        let mut span = 0;
        for (_, record) in self.records.iter().rev() {
            if span >= lose {
                break;
            }
            reached += 1;
            span += wire_bytes(record);
        }
        // Put those records on the wire, cut the tail off, and keep what
        // still decodes: a record survives only if every byte of every
        // frame of it lies below the cut.
        let first = self.records.len() - reached;
        let mut bytes = Self::encode(self.records.range(first..));
        bytes.truncate(span.saturating_sub(lose) as usize);
        let (intact, _end) = crate::codec::decode_records(&bytes);
        debug_assert!(intact
            .iter()
            .eq(self.records.range(first..).take(intact.len())));
        // Rewind the write pointer past the torn partial frame, as recovery
        // does on a real log: subsequent appends start at a record boundary.
        for (_, record) in self.records.drain(first + intact.len()..) {
            self.appended_bytes -= wire_bytes(&record);
        }
        self.durable_len = self.records.len();
        lost
    }

    /// Cumulative statistics.
    pub fn counters(&self) -> WalCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;

    fn wal() -> Wal {
        Wal::new(FlashTiming::paper_default(), 4096)
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let mut w = wal();
        let a = w.append(LogRecord::RemovePage { lba: 1 });
        let b = w.append(LogRecord::SetClean { lba: 2 });
        assert!(b > a);
        assert_eq!(w.buffered(), 2);
        assert_eq!(w.durable_lsn(), 0);
    }

    #[test]
    fn flush_makes_records_durable_and_costs_pages() {
        let mut w = wal();
        for i in 0..200 {
            w.append(LogRecord::InsertPage {
                lba: i,
                ppn: i,
                dirty: false,
            });
        }
        let cost = w.flush();
        // 200 * 40 = 8000 bytes = 2 pages.
        assert_eq!(w.counters().pages_written, 2);
        assert_eq!(cost.as_micros(), 10 + 2 * 97);
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.durable_lsn(), 200);
        assert_eq!(w.records_since(0).len(), 200);
        assert_eq!(w.records_since(150).len(), 50);
        // Decoded contents round-trip through the wire format.
        let (lsn, record) = w.records_since(150)[0];
        assert_eq!(lsn, 151);
        assert_eq!(
            record,
            LogRecord::InsertPage {
                lba: 150,
                ppn: 150,
                dirty: false
            }
        );
        // Empty flush is free.
        assert_eq!(w.flush(), Duration::ZERO);
        assert_eq!(w.counters().flushes, 1);
    }

    #[test]
    fn crash_drops_only_buffered() {
        let mut w = wal();
        w.append(LogRecord::RemoveBlock { lbn: 1 });
        w.flush();
        w.append(LogRecord::RemoveBlock { lbn: 2 });
        assert_eq!(w.crash(), 1);
        assert_eq!(w.buffered(), 0);
        let records = w.records_since(0);
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].1, LogRecord::RemoveBlock { lbn: 1 }));
    }

    #[test]
    fn truncate_through_drops_prefix() {
        let mut w = wal();
        for i in 0..10 {
            w.append(LogRecord::SetClean { lba: i });
        }
        w.flush();
        assert_eq!(w.bytes_since(0), 10 * RECORD_BYTES);
        w.truncate_through(4);
        assert_eq!(w.records_since(0).len(), 6);
        assert_eq!(w.bytes_since(0), 6 * RECORD_BYTES);
        // LSNs keep increasing after truncation.
        let lsn = w.append(LogRecord::SetClean { lba: 99 });
        assert_eq!(lsn, 11);
    }

    #[test]
    fn two_frame_records_account_double() {
        let mut w = wal();
        w.append(LogRecord::InsertBlock {
            lbn: 1,
            pbn: 2,
            valid: 3,
            dirty: 1,
        });
        w.flush();
        assert_eq!(w.bytes_since(0), 2 * RECORD_BYTES);
        assert_eq!(w.records_since(0).len(), 1);
    }

    #[test]
    fn torn_tail_loses_only_the_tail() {
        let mut w = wal();
        for i in 0..5 {
            w.append(LogRecord::SetClean { lba: i });
        }
        w.flush();
        // Tear half a frame off the end: the last record is unreadable,
        // the first four decode.
        w.crash_torn(RECORD_BYTES as usize / 2);
        let records = w.records_since(0);
        assert_eq!(records.len(), 4);
        assert_eq!(w.durable_lsn(), 4, "index agrees with the torn stream");
        // The log remains appendable after the torn crash.
        w.append(LogRecord::SetClean { lba: 100 });
        w.flush();
        assert_eq!(w.records_since(0).len(), 5);
    }

    #[test]
    fn torn_insert_block_pair_is_dropped_whole() {
        let mut w = wal();
        w.append(LogRecord::SetClean { lba: 1 });
        w.append(LogRecord::InsertBlock {
            lbn: 9,
            pbn: 8,
            valid: 7,
            dirty: 6,
        });
        w.flush();
        // Lose the second half of the pair: the whole InsertBlock vanishes.
        w.crash_torn(RECORD_BYTES as usize);
        let records = w.records_since(0);
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].1, LogRecord::SetClean { lba: 1 }));
    }

    /// The eager log this module used to be: every flush lays the CRC
    /// frames down in one durable byte stream, with a byte-offset index
    /// beside it. Kept only as the reference [`Wal`] is checked against.
    struct EagerWal {
        buffer: Vec<(u64, LogRecord)>,
        durable: Vec<u8>,
        /// `(lsn, absolute byte offset of the record's first frame)`.
        index: Vec<(u64, usize)>,
        trimmed: usize,
        last_flush_bytes: usize,
        next_lsn: u64,
        counters: WalCounters,
    }

    impl EagerWal {
        fn new() -> Self {
            EagerWal {
                buffer: Vec::new(),
                durable: Vec::new(),
                index: Vec::new(),
                trimmed: 0,
                last_flush_bytes: 0,
                next_lsn: 1,
                counters: WalCounters::default(),
            }
        }

        fn append(&mut self, record: LogRecord) -> u64 {
            self.next_lsn += 1;
            self.buffer.push((self.next_lsn - 1, record));
            self.next_lsn - 1
        }

        fn durable_lsn(&self) -> u64 {
            self.index.last().map_or(0, |(lsn, _)| *lsn)
        }

        fn flush(&mut self) -> Duration {
            if self.buffer.is_empty() {
                return Duration::ZERO;
            }
            let start_len = self.durable.len();
            self.counters.records_flushed += self.buffer.len() as u64;
            for (lsn, record) in self.buffer.drain(..) {
                self.index.push((lsn, self.trimmed + self.durable.len()));
                crate::codec::encode_record_into(lsn, &record, &mut self.durable);
            }
            self.last_flush_bytes = self.durable.len() - start_len;
            let pages = (self.last_flush_bytes as u64).div_ceil(4096);
            self.counters.flushes += 1;
            self.counters.pages_written += pages;
            let timing = FlashTiming::paper_default();
            timing.metadata_cost() + timing.write_cost() * pages
        }

        fn offset_after(&self, lsn: u64) -> usize {
            let pos = self.index.partition_point(|(l, _)| *l <= lsn);
            match self.index.get(pos) {
                Some(&(_, offset)) => offset - self.trimmed,
                None => self.durable.len(),
            }
        }

        fn records_since(&self, lsn: u64) -> Vec<(u64, LogRecord)> {
            crate::codec::decode_records(&self.durable[self.offset_after(lsn)..]).0
        }

        fn bytes_since(&self, lsn: u64) -> u64 {
            (self.durable.len() - self.offset_after(lsn)) as u64
        }

        fn appended_bytes(&self) -> u64 {
            (self.trimmed + self.durable.len()) as u64
        }

        fn truncate_through(&mut self, lsn: u64) {
            let cut = self.offset_after(lsn);
            self.durable.drain(..cut);
            self.trimmed += cut;
            let keep = self.index.partition_point(|(l, _)| *l <= lsn);
            self.index.drain(..keep);
        }

        fn crash(&mut self) -> usize {
            let lost = self.buffer.len();
            self.buffer.clear();
            lost
        }

        fn crash_torn(&mut self, lose_tail_bytes: usize) -> usize {
            let lose = lose_tail_bytes.min(self.last_flush_bytes);
            self.last_flush_bytes = 0;
            let lost = self.crash();
            let keep = self.durable.len().saturating_sub(lose);
            self.durable.truncate(keep);
            // What survives is what still decodes; the write pointer
            // rewinds to the end of the last intact record.
            let (intact, _) = crate::codec::decode_records(&self.durable);
            let intact_bytes: u64 = intact.iter().map(|(_, r)| wire_bytes(r)).sum();
            self.durable.truncate(intact_bytes as usize);
            self.index.truncate(intact.len());
            lost
        }
    }

    fn random_record(rng: &mut SimRng) -> LogRecord {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        match rng.gen_range(8) {
            0 | 1 => LogRecord::InsertPage {
                lba: a,
                ppn: b,
                dirty: a % 2 == 0,
            },
            2 => LogRecord::RemovePage { lba: a },
            3 | 4 => LogRecord::InsertBlock {
                lbn: a,
                pbn: b,
                valid: a ^ b,
                dirty: a & b,
            },
            5 => LogRecord::RemoveBlock { lbn: a },
            6 => LogRecord::MaskBlockPage { lba: a },
            _ => LogRecord::SetClean { lba: a },
        }
    }

    /// Every observable of the on-demand log equals the eager reference's,
    /// and the bytes it would put on the wire are the reference's stream.
    fn assert_agrees(w: &Wal, eager: &EagerWal, rng: &mut SimRng) {
        assert_eq!(w.durable_lsn(), eager.durable_lsn());
        assert_eq!(w.appended_bytes(), eager.appended_bytes());
        assert_eq!(w.buffered(), eager.buffer.len());
        assert_eq!(w.counters(), eager.counters);
        assert_eq!(Wal::encode(w.suffix(0)), eager.durable);
        let newest = w.next_lsn;
        for lsn in [0, w.durable_lsn(), newest, rng.gen_range(newest)] {
            assert_eq!(w.records_since(lsn), eager.records_since(lsn), "{lsn}");
            assert_eq!(w.bytes_since(lsn), eager.bytes_since(lsn), "{lsn}");
        }
    }

    #[test]
    fn random_schedules_match_the_eager_byte_stream() {
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from(0x5EED_0000 + seed);
            let (mut w, mut eager) = (wal(), EagerWal::new());
            for _ in 0..250 {
                match rng.gen_range(16) {
                    0..=8 => {
                        let record = random_record(&mut rng);
                        assert_eq!(w.append(record), eager.append(record));
                    }
                    9..=11 => assert_eq!(w.flush(), eager.flush()),
                    12 => {
                        // Anywhere from before the oldest durable record
                        // to past the newest.
                        let lsn = rng.gen_range(w.next_lsn + 2);
                        w.truncate_through(lsn);
                        eager.truncate_through(lsn);
                    }
                    13 => assert_eq!(w.crash(), eager.crash()),
                    _ => {
                        let k = rng.gen_range(5 * RECORD_BYTES) as usize;
                        assert_eq!(w.crash_torn(k), eager.crash_torn(k));
                    }
                }
                assert_agrees(&w, &eager, &mut rng);
            }
        }
    }

    #[test]
    fn every_tear_length_across_frame_boundaries_matches_eager() {
        // Two flushes; the second mixes one- and two-frame records. Tear
        // every length from nothing to more than the whole second flush.
        let flushes: [&[LogRecord]; 2] = [
            &[
                LogRecord::SetClean { lba: 1 },
                LogRecord::RemovePage { lba: 2 },
            ],
            &[
                LogRecord::InsertBlock {
                    lbn: 3,
                    pbn: 4,
                    valid: 5,
                    dirty: 1,
                },
                LogRecord::MaskBlockPage { lba: 6 },
                LogRecord::InsertBlock {
                    lbn: 7,
                    pbn: 8,
                    valid: 9,
                    dirty: 8,
                },
            ],
        ];
        let mut rng = SimRng::seed_from(7);
        for k in 0..=6 * RECORD_BYTES as usize {
            let (mut w, mut eager) = (wal(), EagerWal::new());
            for records in flushes {
                for &record in records {
                    w.append(record);
                    eager.append(record);
                }
                assert_eq!(w.flush(), eager.flush());
            }
            w.append(LogRecord::SetClean { lba: 10 });
            eager.append(LogRecord::SetClean { lba: 10 });
            assert_eq!(w.crash_torn(k), eager.crash_torn(k));
            assert_agrees(&w, &eager, &mut rng);
            assert!(w.durable_lsn() >= 2, "tear {k} reached an earlier flush");
            // A second tear finds nothing tearable; the log stays usable.
            assert_eq!(w.crash_torn(k), eager.crash_torn(k));
            w.append(LogRecord::SetClean { lba: 11 });
            eager.append(LogRecord::SetClean { lba: 11 });
            assert_eq!(w.flush(), eager.flush());
            assert_agrees(&w, &eager, &mut rng);
        }
    }

    #[test]
    fn record_levels() {
        assert_eq!(
            LogRecord::InsertPage {
                lba: 0,
                ppn: 0,
                dirty: true
            }
            .level(),
            MapLevel::Page
        );
        assert_eq!(LogRecord::RemovePage { lba: 0 }.level(), MapLevel::Page);
        assert_eq!(LogRecord::SetClean { lba: 0 }.level(), MapLevel::Page);
        assert_eq!(
            LogRecord::InsertBlock {
                lbn: 0,
                pbn: 0,
                valid: 0,
                dirty: 0
            }
            .level(),
            MapLevel::Block
        );
        assert_eq!(LogRecord::RemoveBlock { lbn: 0 }.level(), MapLevel::Block);
        assert_eq!(LogRecord::MaskBlockPage { lba: 0 }.level(), MapLevel::Block);
    }
}
