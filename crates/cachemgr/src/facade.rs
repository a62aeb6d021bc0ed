//! A byte-granular block-device façade over any cache system.
//!
//! The paper's SSC emulator "is implemented as a block device" (§5): the
//! kernel hands it arbitrary sector-aligned requests, not neat 4 KB pages.
//! [`ByteFacade`] provides that surface over any [`CacheSystem`]: reads
//! assemble spans from whole blocks, writes do read-modify-write on partial
//! head/tail blocks — the standard block-layer treatment that keeps
//! "complete portability for applications by operating at block layer"
//! (§7).

use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::metrics::MgrCounters;
use crate::system::CacheSystem;
use crate::Result;

/// Byte-addressed access over a block-based cache system.
#[derive(Debug)]
pub struct ByteFacade<S: CacheSystem> {
    inner: S,
    /// Reusable whole-block buffer for span assembly and read-modify-write.
    block_buf: PageBuf,
}

impl<S: CacheSystem> ByteFacade<S> {
    /// Wraps a cache system.
    pub fn new(inner: S) -> Self {
        ByteFacade {
            inner,
            block_buf: PageBuf::new(),
        }
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped system.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the façade.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Block size of the data path.
    pub fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    /// Reads `len` bytes starting at byte `offset` into the caller's buffer
    /// (resized to `len`), returning the total simulated time. This is the
    /// allocation-free primitive that [`ByteFacade::read_bytes`] wraps.
    ///
    /// # Errors
    ///
    /// Device failures from the underlying system.
    pub fn read_bytes_into(
        &mut self,
        offset: u64,
        len: usize,
        out: &mut PageBuf,
    ) -> Result<Duration> {
        let bs = self.inner.block_size() as u64;
        out.prepare(len);
        let mut cost = Duration::ZERO;
        let mut pos = offset;
        let end = offset + len as u64;
        let mut filled = 0usize;
        while pos < end {
            let lba = pos / bs;
            let in_block = (pos % bs) as usize;
            let take = ((bs as usize) - in_block).min((end - pos) as usize);
            cost += self.inner.read_into(lba, &mut self.block_buf)?;
            out[filled..filled + take].copy_from_slice(&self.block_buf[in_block..in_block + take]);
            filled += take;
            pos += take as u64;
        }
        Ok(cost)
    }

    /// Reads `len` bytes starting at byte `offset`, returning the data and
    /// total simulated time.
    ///
    /// # Errors
    ///
    /// Device failures from the underlying system.
    pub fn read_bytes(&mut self, offset: u64, len: usize) -> Result<(Vec<u8>, Duration)> {
        let mut out = PageBuf::with_capacity(len);
        let cost = self.read_bytes_into(offset, len, &mut out)?;
        Ok((out.into_vec(), cost))
    }

    /// Writes `data` starting at byte `offset`. Partial head/tail blocks are
    /// read-modified-written; whole blocks are written directly.
    ///
    /// # Errors
    ///
    /// Device failures from the underlying system.
    pub fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<Duration> {
        let bs = self.block_size() as u64;
        let mut cost = Duration::ZERO;
        let mut pos = offset;
        let mut remaining = data;
        while !remaining.is_empty() {
            let lba = pos / bs;
            let in_block = (pos % bs) as usize;
            let take = ((bs as usize) - in_block).min(remaining.len());
            if take == bs as usize {
                // Whole-block write: no read needed.
                cost += self.inner.write(lba, &remaining[..take])?;
            } else {
                // Partial block: read-modify-write through the scratch block.
                cost += self.inner.read_into(lba, &mut self.block_buf)?;
                self.block_buf[in_block..in_block + take].copy_from_slice(&remaining[..take]);
                cost += self.inner.write(lba, &self.block_buf)?;
            }
            pos += take as u64;
            remaining = &remaining[take..];
        }
        Ok(cost)
    }
}

/// The façade as a system of whole blocks: each operation is a one-block,
/// block-aligned span, so the replay harness can drive the span-assembly
/// path like any other system. Reads always assemble the span (no discard
/// fast path — that is the façade's work); writes of a whole block go
/// straight to the inner system, so its payload elision carries over.
impl<S: CacheSystem> CacheSystem for ByteFacade<S> {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        let bs = self.inner.block_size();
        self.read_bytes_into(lba * bs as u64, bs, buf)
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        self.write_bytes(lba * self.inner.block_size() as u64, data)
    }

    fn payload_discarded(&self) -> bool {
        self.inner.payload_discarded()
    }

    fn counters(&self) -> MgrCounters {
        self.inner.counters()
    }

    fn host_memory(&self) -> MapMemory {
        self.inner.host_memory()
    }

    fn device_memory(&self) -> MapMemory {
        self.inner.device_memory()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn name(&self) -> &'static str {
        "byte-facade"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flashtier_wt::FlashTierWt;
    use disksim::{Disk, DiskConfig, DiskDataMode};
    use flashtier_core::{Ssc, SscConfig};

    fn facade() -> ByteFacade<FlashTierWt> {
        let ssc = Ssc::new(SscConfig::small_test());
        let disk = Disk::new(DiskConfig::small_test(), DiskDataMode::Store);
        ByteFacade::new(FlashTierWt::new(ssc, disk))
    }

    #[test]
    fn aligned_whole_block_round_trip() {
        let mut f = facade();
        let bs = f.block_size();
        let data: Vec<u8> = (0..bs).map(|i| (i % 251) as u8).collect();
        f.write_bytes(0, &data).unwrap();
        let (got, _) = f.read_bytes(0, bs).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn unaligned_write_straddling_blocks() {
        let mut f = facade();
        let bs = f.block_size() as u64;
        // Background pattern in blocks 2 and 3.
        f.write_bytes(2 * bs, &vec![0xAA; 2 * bs as usize]).unwrap();
        // Overwrite a span straddling the block boundary.
        let span = vec![0x55; 100];
        f.write_bytes(3 * bs - 50, &span).unwrap();
        // Head of block 2 untouched, tail of the straddle updated, rest of
        // block 3 untouched.
        let (got, _) = f.read_bytes(2 * bs, 2 * bs as usize).unwrap();
        assert!(got[..(bs - 50) as usize].iter().all(|&b| b == 0xAA));
        assert!(got[(bs - 50) as usize..(bs + 50) as usize]
            .iter()
            .all(|&b| b == 0x55));
        assert!(got[(bs + 50) as usize..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn tiny_interior_write() {
        let mut f = facade();
        let bs = f.block_size() as u64;
        f.write_bytes(5 * bs, &vec![1; f.block_size()]).unwrap();
        f.write_bytes(5 * bs + 10, &[9, 9, 9]).unwrap();
        let (got, _) = f.read_bytes(5 * bs, f.block_size()).unwrap();
        assert_eq!(&got[10..13], &[9, 9, 9]);
        assert!(got[..10].iter().all(|&b| b == 1));
        assert!(got[13..].iter().all(|&b| b == 1));
    }

    #[test]
    fn multi_block_span_read() {
        let mut f = facade();
        let bs = f.block_size();
        for i in 0..4u8 {
            f.write_bytes(i as u64 * bs as u64, &vec![i + 1; bs])
                .unwrap();
        }
        let (got, _) = f.read_bytes(bs as u64 / 2, 3 * bs).unwrap();
        assert_eq!(got.len(), 3 * bs);
        assert!(got[..bs / 2].iter().all(|&b| b == 1));
        assert!(got[bs / 2..bs / 2 + bs].iter().all(|&b| b == 2));
    }

    #[test]
    fn whole_block_writes_skip_the_read() {
        let mut f = facade();
        let bs = f.block_size();
        let reads_before = f.inner().counters().reads;
        f.write_bytes(0, &vec![7; 4 * bs]).unwrap();
        assert_eq!(
            f.inner().counters().reads,
            reads_before,
            "aligned writes never read"
        );
        // Unaligned write must read.
        f.write_bytes(10, &[1, 2]).unwrap();
        assert!(f.inner().counters().reads > reads_before);
    }

    #[test]
    fn zero_length_ops_are_free() {
        let mut f = facade();
        let (data, cost) = f.read_bytes(123, 0).unwrap();
        assert!(data.is_empty());
        assert!(cost.is_zero());
        assert!(f.write_bytes(123, &[]).unwrap().is_zero());
    }
}
