//! The simulated disk device.

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

/// A simulated disk with positional timing.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    mode: DiskDataMode,
    /// Position after the last transfer: the block that would stream next.
    head: Option<u64>,
    data: HashMap<u64, Box<[u8]>, BlockHash>,
    /// Write version per block, for deterministic discard-mode reads.
    versions: HashMap<u64, u64, BlockHash>,
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
                DiskDataMode::Discard => match self.versions.get(&lba) {
                    Some(&v) => Self::fake_data_into(lba, v, out),
                    None => out.fill(0),
                },
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

    /// Writes one block.
    ///
    /// # Errors
    ///
    /// [`DiskError::LbaOutOfRange`] / [`DiskError::BadBlockSize`].
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.check(lba)?;
        if data.len() != self.config.block_size {
            return Err(DiskError::BadBlockSize { got: data.len() });
        }
        let cost = self.access_cost(lba);
        self.counters.writes += 1;
        match self.mode {
            DiskDataMode::Store => {
                self.data.insert(lba, data.to_vec().into_boxed_slice());
            }
            DiskDataMode::Discard => {
                *self.versions.entry(lba).or_insert(0) += 1;
            }
        }
        Ok(cost)
    }

    /// Writes `blocks` contiguously starting at `lba` as one positioned run —
    /// the operation the write-back cleaner's contiguity policy exploits.
    ///
    /// # Errors
    ///
    /// Errors of [`Disk::write`]; on error nothing past the failing block is
    /// written.
    pub fn write_run(&mut self, lba: u64, blocks: &[&[u8]]) -> Result<Duration> {
        let mut total = Duration::ZERO;
        for (i, block) in blocks.iter().enumerate() {
            total += self.write(lba + i as u64, block)?;
        }
        Ok(total)
    }

    /// Writes a run of consecutive blocks held in one concatenated buffer
    /// (`data.len()` must be a whole number of blocks). Equivalent to
    /// [`Disk::write_run`] over `data.chunks(block_size)` without building a
    /// slice-of-slices.
    ///
    /// # Errors
    ///
    /// Errors of [`Disk::write`]; a trailing partial block fails with
    /// [`DiskError::BadBlockSize`] and nothing past the failing block is
    /// written.
    pub fn write_run_concat(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let mut total = Duration::ZERO;
        for (i, block) in data.chunks(self.config.block_size).enumerate() {
            total += self.write(lba + i as u64, block)?;
        }
        Ok(total)
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
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let cost = d.write_run(200, &refs).unwrap();
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
