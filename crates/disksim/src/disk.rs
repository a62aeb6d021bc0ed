//! The simulated disk device.
//!
//! Store mode keeps every written block's payload; discard mode keeps none,
//! and a read there only sizes the caller's buffer. Either way the timing
//! model is the head position and the counters alone.

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
    /// Keep payloads; reads return what was written (zeros if never
    /// written).
    Store,
    /// Neither store nor produce payloads; a read sizes the caller's buffer
    /// to one block and writes nothing into it.
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
    /// Written payloads; empty in [`DiskDataMode::Discard`].
    data: HashMap<u64, Box<[u8]>, BlockHash>,
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

    /// Reads one block into the caller's buffer, resized to one block: the
    /// allocation-free form of [`Disk::read`]. Unwritten blocks read as
    /// zeros; in [`DiskDataMode::Discard`] the bytes are left as they were.
    ///
    /// # Errors
    ///
    /// [`DiskError::LbaOutOfRange`] for bad addresses.
    pub fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.check(lba)?;
        let cost = self.access_cost(lba);
        self.counters.reads += 1;
        let out = buf.prepare(self.config.block_size);
        if self.mode == DiskDataMode::Store {
            match self.data.get(&lba) {
                Some(d) => out.copy_from_slice(d),
                None => out.fill(0),
            }
        }
        Ok(cost)
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
    /// `lba` onward: the payloads, in store mode only.
    fn retain(&mut self, lba: u64, blocks: u64, data: &[u8]) {
        if self.mode == DiskDataMode::Store {
            for (lba, block) in (lba..lba + blocks).zip(data.chunks(self.config.block_size)) {
                self.data.insert(lba, block.into());
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
        // A run past the end fails at its first block out of range, with
        // every block before it written and counted.
        let run = [block(1), block(2)].concat();
        assert_eq!(
            d.write_run_concat(cap - 1, &run).unwrap_err(),
            DiskError::LbaOutOfRange(cap)
        );
        assert_eq!(d.read(cap - 1).unwrap().0, block(1));
        assert_eq!(d.counters().writes, 1);
    }

    #[test]
    fn discard_read_matches_a_store_read_minus_the_bytes() {
        // The same history on a store-mode and a discard-mode disk, with
        // written, unwritten, sequential and random reads: identical costs,
        // counters and head state at every step, and the discard read hands
        // back the caller's bytes, cut to one block.
        let mut stored = disk();
        let mut discarded = Disk::new(DiskConfig::paper_default(), DiskDataMode::Discard);
        for d in [&mut stored, &mut discarded] {
            d.write_run_concat(7, &[block(1), block(2)].concat())
                .unwrap();
        }
        let (mut buf, mut poisoned) = (PageBuf::new(), PageBuf::new());
        for lba in [7u64, 8, 9, 3, 4, 100, 7] {
            poisoned.fill_with(2 * 4096, 0xA5);
            let want = stored.read_into(lba, &mut buf).unwrap();
            assert_eq!(
                discarded.read_into(lba, &mut poisoned),
                Ok(want),
                "lba {lba}"
            );
            assert_eq!(poisoned.to_vec(), block(0xA5), "lba {lba}");
        }
        assert_eq!(stored.counters(), discarded.counters());
        assert!(discarded.read_into(u64::MAX, &mut poisoned).is_err());
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
