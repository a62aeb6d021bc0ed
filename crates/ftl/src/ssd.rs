//! The common block-device interface and counters for both FTLs.

use flashsim::{DataMode, FlashDevice};
use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::Result;

/// Counters every FTL maintains, on top of the raw flash counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlCounters {
    /// Pages written by the host.
    pub host_writes: u64,
    /// Pages read by the host.
    pub host_reads: u64,
    /// Pages copied by garbage collection and merges.
    pub gc_copies: u64,
    /// Switch merges performed (hybrid FTL).
    pub switch_merges: u64,
    /// Full merges performed (hybrid FTL).
    pub full_merges: u64,
    /// Data blocks reclaimed by garbage collection.
    pub gc_collections: u64,
    /// Blocks permanently retired after a failed or endurance-exhausted
    /// erase (never returned to the free pool).
    pub blocks_retired: u64,
    /// Host writes re-issued to a fresh page after an injected program
    /// failure consumed the original target.
    pub program_reissues: u64,
}

impl FtlCounters {
    /// Write amplification observed so far: flash page writes per host page
    /// write. Requires the caller to pass total flash writes (which include
    /// GC copies).
    pub fn write_amplification(&self, flash_page_writes: u64) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            flash_page_writes as f64 / self.host_writes as f64
        }
    }
}

/// The interface the cache manager uses to drive an SSD.
///
/// Reads of never-written (or trimmed) addresses succeed and return zeros —
/// disk-replacement semantics, in contrast to the SSC which returns
/// not-present errors. A device over [`flashsim::DataMode::Discard`] flash
/// neither stores nor produces payload bytes: its reads only size the
/// caller's buffer. All methods return the simulated device time consumed,
/// including any garbage-collection work triggered.
pub trait BlockDev {
    /// Exposed capacity in 4 KB logical pages.
    fn capacity_pages(&self) -> u64;

    /// Reads one logical page into the caller's buffer, resized to one
    /// page: the allocation-free form of [`BlockDev::read`].
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration>;

    /// Reads one logical page into a fresh `Vec`.
    fn read(&mut self, lba: u64) -> Result<(Vec<u8>, Duration)> {
        let mut buf = PageBuf::new();
        let cost = self.read_into(lba, &mut buf)?;
        Ok((buf.into_vec(), cost))
    }

    /// `true` when the device provably ignores payload bytes (discard-mode
    /// emulation): writes retain no data and reads produce none. Managers
    /// use this to skip filling or copying payloads nothing reads back.
    /// The conservative default keeps store-mode semantics.
    fn payload_discarded(&self) -> bool {
        false
    }

    /// Writes one logical page.
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration>;

    /// Discards one logical page (TRIM); subsequent reads return zeros.
    fn trim(&mut self, lba: u64) -> Result<Duration>;

    /// FTL-level counters.
    fn ftl_counters(&self) -> FtlCounters;

    /// Raw flash counters.
    fn flash_counters(&self) -> flashsim::FlashCounters;

    /// Wear statistics.
    fn wear(&self) -> flashsim::WearStats;

    /// Device-memory footprint of the mapping structures.
    fn map_memory(&self) -> MapMemory;

    /// Installs a deterministic media-fault plan on the underlying flash
    /// (replacing any previous plan and its counters). Devices without
    /// fault support ignore the call.
    fn set_fault_plan(&mut self, _plan: flashsim::FaultPlan) {}

    /// Media-fault counters of the underlying flash device (all zero when
    /// no fault plan is installed).
    fn fault_counters(&self) -> flashsim::FaultCounters {
        flashsim::FaultCounters::default()
    }

    /// Write amplification: flash page writes per host page write.
    fn write_amplification(&self) -> f64 {
        self.ftl_counters()
            .write_amplification(self.flash_counters().page_writes)
    }
}

/// A [`BlockDev::read_into`] of a never-written (or trimmed) address on
/// `dev`: zeros, for the cost of the mapping lookup — in discard mode only
/// the buffer's size, like every other read there.
pub(crate) fn read_unwritten(dev: &FlashDevice, buf: &mut PageBuf) -> Duration {
    let out = buf.prepare(dev.geometry().page_size());
    if dev.mode() == DataMode::Store {
        out.fill(0);
    }
    dev.timing().metadata_cost()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_math() {
        let c = FtlCounters {
            host_writes: 100,
            ..Default::default()
        };
        assert!((c.write_amplification(230) - 2.3).abs() < 1e-12);
        let zero = FtlCounters::default();
        assert_eq!(zero.write_amplification(50), 0.0);
    }
}
