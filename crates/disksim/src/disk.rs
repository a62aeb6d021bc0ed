//! The simulated disk device.
//!
//! Discard mode keeps no payloads, only a write version per block so reads
//! return deterministic synthetic bytes. The versions live in *extent
//! pages*: one boxed `[u32; 64]` per 64-block extent that was ever written,
//! keyed by `lba >> 6`, version 0 meaning "never written". Destage runs and
//! sequential fills stay inside an extent, so a run costs one table probe
//! per extent instead of one per block, and a written block costs about
//! 4 bytes of table instead of a hash entry.

use std::collections::HashMap;
use std::fmt;

use simkit::hash::BlockHash;
use simkit::{Duration, PageBuf};

use crate::model::DiskConfig;
use crate::Result;

/// Errors returned by disk operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// Block address beyond the disk capacity.
    LbaOutOfRange(u64),
    /// Data buffer is not exactly one 4 KB block.
    BadBlockSize {
        /// Bytes supplied.
        got: usize,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::LbaOutOfRange(lba) => write!(f, "disk block {lba} out of range"),
            DiskError::BadBlockSize { got } => {
                write!(f, "bad block size: got {got} bytes")
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// Whether the disk stores block payloads (mirrors
/// `flashsim::DataMode` for the disk tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskDataMode {
    /// Keep payloads; reads return what was written.
    Store,
    /// Drop payloads; reads return deterministic synthetic bytes.
    Discard,
}

/// Operation counters for the disk tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Accesses that continued the previous transfer (no positioning cost).
    pub sequential_hits: u64,
}

/// Blocks per extent page of the discard-mode version table.
const EXTENT_BLOCKS: u64 = 64;

/// A simulated disk with positional timing.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    mode: DiskDataMode,
    /// Position after the last transfer: the block that would stream next.
    head: Option<u64>,
    data: HashMap<u64, Box<[u8]>, BlockHash>,
    /// Write version per block, for deterministic discard-mode reads: one
    /// page per touched extent (see module docs), 0 = never written.
    versions: HashMap<u64, Box<[u32; EXTENT_BLOCKS as usize]>, BlockHash>,
    counters: DiskCounters,
}

impl Disk {
    /// Creates a disk; all blocks initially read as zeros.
    pub fn new(config: DiskConfig, mode: DiskDataMode) -> Self {
        Disk {
            config,
            mode,
            head: None,
            data: HashMap::default(),
            versions: HashMap::default(),
            counters: DiskCounters::default(),
        }
    }

    /// Timing configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Operation counters.
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.config.capacity_blocks
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    /// The data-retention mode this disk was built with.
    pub fn mode(&self) -> DiskDataMode {
        self.mode
    }

    fn check(&self, lba: u64) -> Result<()> {
        if lba < self.config.capacity_blocks {
            Ok(())
        } else {
            Err(DiskError::LbaOutOfRange(lba))
        }
    }

    /// Positioning + transfer cost of accessing `lba`, updating the head.
    fn access_cost(&mut self, lba: u64) -> Duration {
        let sequential = self.head == Some(lba);
        self.head = Some(lba + 1);
        if sequential {
            self.counters.sequential_hits += 1;
            self.config.sequential_cost()
        } else {
            self.config.random_cost()
        }
    }

    fn fake_data_into(lba: u64, version: u64, out: &mut [u8]) {
        simkit::fill_pseudo(lba.rotate_left(32) ^ version, out);
    }

    /// Reads one block, parameterised over where the payload goes:
    /// `Some(buf)` fills `buf` (resized to one block; unwritten blocks read
    /// as zeros); `None` is a *discard read* for callers that will not
    /// inspect the data. The bounds check, head movement, counters and
    /// timing do not depend on `dest` — the disk models no data-dependent
    /// behavior.
    ///
    /// # Errors
    ///
    /// [`DiskError::LbaOutOfRange`] for bad addresses.
    pub fn read_to(&mut self, lba: u64, dest: Option<&mut PageBuf>) -> Result<Duration> {
        self.check(lba)?;
        let cost = self.access_cost(lba);
        self.counters.reads += 1;
        if let Some(buf) = dest {
            let out = buf.prepare(self.config.block_size);
            match self.mode {
                DiskDataMode::Store => match self.data.get(&lba) {
                    Some(d) => out.copy_from_slice(d),
                    None => out.fill(0),
                },
                DiskDataMode::Discard => {
                    let page = self.versions.get(&(lba / EXTENT_BLOCKS));
                    match page.map_or(0, |page| page[(lba % EXTENT_BLOCKS) as usize]) {
                        0 => out.fill(0),
                        v => Self::fake_data_into(lba, u64::from(v), out),
                    }
                }
            }
        }
        Ok(cost)
    }

    /// Reads one block into the caller's buffer: the allocation-free form
    /// of [`Disk::read`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Disk::read_to`].
    pub fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.read_to(lba, Some(buf))
    }

    /// A discard read: [`Disk::read_to`] with no destination.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Disk::read_to`].
    pub fn read_sink(&mut self, lba: u64) -> Result<Duration> {
        self.read_to(lba, None)
    }

    /// Reads one block into a fresh `Vec`. Convenience wrapper over
    /// [`Disk::read_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Disk::read_into`].
    pub fn read(&mut self, lba: u64) -> Result<(Vec<u8>, Duration)> {
        let mut buf = PageBuf::new();
        let cost = self.read_into(lba, &mut buf)?;
        Ok((buf.into_vec(), cost))
    }

    /// The timing half of a one-block write: bounds and size checks, head
    /// movement, counters.
    fn admit_write(&mut self, lba: u64, len: usize) -> Result<Duration> {
        self.check(lba)?;
        if len != self.config.block_size {
            return Err(DiskError::BadBlockSize { got: len });
        }
        self.counters.writes += 1;
        Ok(self.access_cost(lba))
    }

    /// The content half of writing the first `blocks` blocks of `data` at
    /// `lba` onward: payloads in store mode, one version bump per block in
    /// discard mode — there with one table probe per extent the run touches.
    fn retain(&mut self, lba: u64, blocks: u64, data: &[u8]) {
        let end = lba + blocks;
        match self.mode {
            DiskDataMode::Store => {
                for (lba, block) in (lba..end).zip(data.chunks(self.config.block_size)) {
                    self.data.insert(lba, block.into());
                }
            }
            DiskDataMode::Discard => {
                let mut next = lba;
                while next < end {
                    let extent = next / EXTENT_BLOCKS;
                    let stop = end.min((extent + 1) * EXTENT_BLOCKS);
                    let page = self
                        .versions
                        .entry(extent)
                        .or_insert_with(|| Box::new([0; EXTENT_BLOCKS as usize]));
                    for v in &mut page[(next % EXTENT_BLOCKS) as usize..][..(stop - next) as usize]
                    {
                        // Never back to 0: that would read as unwritten.
                        *v = v.wrapping_add(1).max(1);
                    }
                    next = stop;
                }
            }
        }
    }

    /// Writes one block.
    ///
    /// # Errors
    ///
    /// [`DiskError::LbaOutOfRange`] / [`DiskError::BadBlockSize`].
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let cost = self.admit_write(lba, data.len())?;
        self.retain(lba, 1, data);
        Ok(cost)
    }

    /// Writes a run of consecutive blocks held in one concatenated buffer
    /// (`data.len()` must be a whole number of blocks) starting at `lba`, as
    /// one positioned run — the operation the write-back cleaner's
    /// contiguity policy exploits.
    ///
    /// # Errors
    ///
    /// Errors of [`Disk::write`]; a trailing partial block fails with
    /// [`DiskError::BadBlockSize`] and nothing past the failing block is
    /// written.
    pub fn write_run_concat(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let mut admitted = 0;
        let total = data
            .chunks(self.config.block_size)
            .try_fold(Duration::ZERO, |total, block| {
                let cost = self.admit_write(lba + admitted, block.len())?;
                admitted += 1;
                Ok(total + cost)
            });
        self.retain(lba, admitted, data);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskConfig::paper_default(), DiskDataMode::Store)
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn read_your_write() {
        let mut d = disk();
        d.write(7, &block(0xEE)).unwrap();
        assert_eq!(d.read(7).unwrap().0, block(0xEE));
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut d = disk();
        assert!(d.read(123).unwrap().0.iter().all(|&b| b == 0));
    }

    #[test]
    fn sequential_detection() {
        let mut d = disk();
        let c0 = d.write(10, &block(1)).unwrap();
        let c1 = d.write(11, &block(2)).unwrap();
        let c2 = d.write(50, &block(3)).unwrap();
        assert_eq!(c0, d.config.random_cost());
        assert_eq!(c1, d.config.sequential_cost());
        assert_eq!(c2, d.config.random_cost());
        assert_eq!(d.counters().sequential_hits, 1);
        // Re-reading block 11 after writing 50: random again.
        let (_, c3) = d.read(11).unwrap();
        assert_eq!(c3, d.config.random_cost());
        // Then 12 streams.
        let (_, c4) = d.read(12).unwrap();
        assert_eq!(c4, d.config.sequential_cost());
    }

    #[test]
    fn write_run_costs_one_seek() {
        let mut d = disk();
        d.write(1000, &block(0)).unwrap(); // move the head away
        let blocks = [block(1), block(2), block(3), block(4)];
        let cost = d.write_run_concat(200, &blocks.concat()).unwrap();
        assert_eq!(cost, d.config.run_cost(4));
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(&d.read(200 + i as u64).unwrap().0, b);
        }
    }

    #[test]
    fn bounds_and_size_checks() {
        let mut d = disk();
        let cap = d.capacity_blocks();
        assert_eq!(d.read(cap).unwrap_err(), DiskError::LbaOutOfRange(cap));
        assert_eq!(
            d.write(0, &[1, 2, 3]).unwrap_err(),
            DiskError::BadBlockSize { got: 3 }
        );
    }

    #[test]
    fn discard_mode_versions_are_deterministic() {
        let mut a = Disk::new(DiskConfig::paper_default(), DiskDataMode::Discard);
        let mut b = Disk::new(DiskConfig::paper_default(), DiskDataMode::Discard);
        for d in [&mut a, &mut b] {
            d.write(5, &block(0)).unwrap();
            d.write(5, &block(0)).unwrap();
        }
        assert_eq!(a.read(5).unwrap().0, b.read(5).unwrap().0);
        // Unwritten blocks are zeros even in discard mode.
        assert!(a.read(6).unwrap().0.iter().all(|&z| z == 0));
        // A third write changes the content.
        a.write(5, &block(0)).unwrap();
        assert_ne!(a.read(5).unwrap().0, b.read(5).unwrap().0);
    }

    #[test]
    fn unwritten_block_in_a_written_extent_reads_zero() {
        let mut d = Disk::new(DiskConfig::paper_default(), DiskDataMode::Discard);
        d.write(64, &block(0)).unwrap();
        assert!(d.read(65).unwrap().0.iter().all(|&z| z == 0));
        assert!(d.read(63).unwrap().0.iter().all(|&z| z == 0));
        assert!(d.read(64).unwrap().0.iter().any(|&z| z != 0));
    }

    #[test]
    fn extent_pages_match_a_per_block_version_model() {
        // Single writes and concatenated runs against one version counter
        // per LBA, on a volume whose last block (130) sits two blocks into
        // its third extent, with the addresses drawn around the extent
        // boundaries (63|64, 127|128) and the end of the volume.
        const CAPACITY: u64 = 131;
        let config = DiskConfig {
            capacity_blocks: CAPACITY,
            ..DiskConfig::paper_default()
        };
        let mut rng = simkit::SimRng::seed_from(0xD15C_2000);
        let mut disk = Disk::new(config, DiskDataMode::Discard);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let hot = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 130];
        let mut expect = vec![0u8; 4096];
        for _ in 0..4000 {
            let lba = if rng.gen_bool(0.8) {
                hot[rng.gen_range(hot.len() as u64) as usize]
            } else {
                rng.gen_range(CAPACITY)
            };
            match rng.gen_range(3) {
                0 => {
                    disk.write(lba, &block(0)).unwrap();
                    *model.entry(lba).or_insert(0) += 1;
                }
                1 => {
                    // Runs that reach past the volume fail at the first
                    // block out of range, with everything before it written.
                    let len = 1 + rng.gen_range(70);
                    let run = disk.write_run_concat(lba, &vec![0u8; 4096 * len as usize]);
                    assert_eq!(run.is_err(), lba + len > CAPACITY);
                    for lba in lba..(lba + len).min(CAPACITY) {
                        *model.entry(lba).or_insert(0) += 1;
                    }
                }
                _ => {
                    match model.get(&lba) {
                        Some(&v) => Disk::fake_data_into(lba, v, &mut expect),
                        None => expect.fill(0),
                    }
                    assert_eq!(disk.read(lba).unwrap().0, expect, "lba {lba}");
                }
            }
        }
        let written = model.values().sum::<u64>();
        assert_eq!(disk.counters().writes, written);
    }

    #[test]
    fn read_sink_matches_read_into_exactly() {
        // Same LBA sequence (mixing sequential and random positioning)
        // through both read paths: identical costs, counters and head
        // state at every step.
        let lbas = [7u64, 8, 9, 3, 4, 100, 7];
        let mut filled = Disk::new(DiskConfig::paper_default(), DiskDataMode::Discard);
        let mut sunk = Disk::new(DiskConfig::paper_default(), DiskDataMode::Discard);
        for d in [&mut filled, &mut sunk] {
            d.write(7, &block(1)).unwrap();
        }
        let mut buf = simkit::PageBuf::new();
        for &lba in &lbas {
            let a = filled.read_into(lba, &mut buf).unwrap();
            let b = sunk.read_sink(lba).unwrap();
            assert_eq!(a, b, "lba {lba}");
        }
        assert_eq!(filled.counters(), sunk.counters());
        assert!(sunk.read_sink(u64::MAX).is_err());
    }

    #[test]
    fn counters_accumulate() {
        let mut d = disk();
        d.write(0, &block(1)).unwrap();
        d.read(0).unwrap();
        d.read(0).unwrap();
        assert_eq!(d.counters().writes, 1);
        assert_eq!(d.counters().reads, 2);
    }
}
