//! The cache-system trait and the trace replay driver.

use disksim::{Disk, DiskDataMode, DiskError};
use simkit::{Duration, Histogram, PageBuf};
use sparsemap::MapMemory;
use trace::TraceEvent;

use crate::metrics::MgrCounters;
use crate::Result;

/// A complete caching system: a manager in front of a cache device and a
/// disk. The replay harness drives any implementation uniformly.
pub trait CacheSystem {
    /// Handles one application read, filling the caller's buffer (resized to
    /// one block) with the data and returning the simulated time until
    /// completion; when [`CacheSystem::payload_discarded`] holds, the buffer
    /// is only resized. This is the allocation-free primitive the replay
    /// loop drives; [`CacheSystem::read`] is a convenience wrapper over it.
    ///
    /// # Errors
    ///
    /// Device failures only; cache misses are handled internally.
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration>;

    /// Handles one application read, returning the data and the simulated
    /// time until completion.
    ///
    /// # Errors
    ///
    /// Device failures only; cache misses are handled internally.
    fn read(&mut self, lba: u64) -> Result<(Vec<u8>, Duration)> {
        let mut buf = PageBuf::new();
        let cost = self.read_into(lba, &mut buf)?;
        Ok((buf.into_vec(), cost))
    }

    /// Handles one application write.
    ///
    /// # Errors
    ///
    /// Device failures only.
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration>;

    /// `true` when every tier provably ignores payload bytes (discard-mode
    /// emulation on both the cache device and the disk): reads then produce
    /// no bytes, and a caller that never reads data back may pass
    /// [`CacheSystem::write`] a correctly sized buffer with stale contents.
    /// The conservative default keeps store-mode semantics.
    fn payload_discarded(&self) -> bool {
        false
    }

    /// Manager counters.
    fn counters(&self) -> MgrCounters;

    /// Host (OS) memory consumed by manager metadata.
    fn host_memory(&self) -> MapMemory;

    /// Device memory consumed by cache-device mapping structures.
    fn device_memory(&self) -> MapMemory;

    /// Block size of the data path.
    fn block_size(&self) -> usize;

    /// Short system name for reports.
    fn name(&self) -> &'static str;
}

/// Whether a manager's two tiers discard payloads, which they must do
/// alike: a discard-mode tier's reads produce no bytes, so a store-mode
/// tier behind or in front of it would be handed a stale buffer.
///
/// # Panics
///
/// When one tier keeps payloads and the other discards them.
pub(crate) fn tiers_discard(cache_discards: bool, disk: &Disk) -> bool {
    let disk_discards = disk.mode() == DiskDataMode::Discard;
    assert_eq!(
        cache_discards, disk_discards,
        "cache/disk data mode mismatch"
    );
    disk_discards
}

/// Refuses a write past `disk`'s end, which a write-back cleaner could never destage.
pub(crate) fn check_disk_lba(disk: &Disk, lba: u64) -> Result<()> {
    if lba < disk.capacity_blocks() {
        return Ok(());
    }
    Err(DiskError::LbaOutOfRange(lba).into())
}

/// Results of replaying a trace against a system.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// Events replayed.
    pub ops: u64,
    /// Total simulated time.
    pub sim_time: Duration,
    /// Per-request response times in microseconds: exact count, sum and
    /// maximum plus the log-bucketed distribution for percentiles.
    pub response_hist: Histogram,
    /// Manager counters accumulated over the replay window.
    pub counters: MgrCounters,
}

impl ReplayStats {
    /// Replay throughput in I/O operations per simulated second.
    pub fn iops(&self) -> f64 {
        if self.sim_time.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.sim_time.as_secs_f64()
        }
    }
}

/// Deterministic page content for a write event, filled into the caller's
/// buffer: derived from the LBA and a per-replay sequence number, so
/// Store-mode verification is possible and Discard-mode runs are
/// reproducible.
pub fn write_payload_into(lba: u64, op_index: u64, block_size: usize, buf: &mut PageBuf) {
    let fill = (lba ^ op_index)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .to_le_bytes()[0];
    buf.fill_with(block_size, fill);
}

/// Replays `events` against `system`, accumulating simulated time and
/// response statistics.
///
/// The driver never looks at data, so write payloads are only filled when
/// a tier retains them ([`CacheSystem::payload_discarded`]), which changes
/// no simulated observable. The loop owns two buffers — read scratch and
/// write payload — reused across every event, so steady-state replay
/// performs no per-event heap allocation.
///
/// # Errors
///
/// The first device failure aborts the replay.
pub fn replay<S: CacheSystem + ?Sized>(
    system: &mut S,
    events: &[TraceEvent],
) -> Result<ReplayStats> {
    let before = system.counters();
    let block_size = system.block_size();
    let fill_payloads = !system.payload_discarded();
    let mut sim_time = Duration::ZERO;
    let mut response_hist = Histogram::new();
    let mut scratch = PageBuf::with_capacity(block_size);
    let mut payload_buf = PageBuf::with_capacity(block_size);
    // Sized once so the devices' length checks pass when fills are skipped.
    payload_buf.prepare(block_size);
    for (i, event) in events.iter().enumerate() {
        let cost = if event.is_write() {
            if fill_payloads {
                write_payload_into(event.lba, i as u64, block_size, &mut payload_buf);
            }
            system.write(event.lba, &payload_buf)?
        } else {
            system.read_into(event.lba, &mut scratch)?
        };
        let us = cost.as_micros();
        sim_time += cost;
        response_hist.record(us);
    }
    Ok(ReplayStats {
        ops: events.len() as u64,
        sim_time,
        response_hist,
        counters: system.counters().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference for [`write_payload_into`]: derives the
    /// fill byte and writes the buffer one byte per iteration. The
    /// memset-style fast path must match it exactly.
    fn write_payload_reference(lba: u64, op_index: u64, block_size: usize) -> Vec<u8> {
        let fill = (lba ^ op_index)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .to_le_bytes()[0];
        let mut out = Vec::with_capacity(block_size);
        for _ in 0..block_size {
            out.push(fill);
        }
        out
    }

    #[test]
    fn write_payload_matches_byte_loop_reference() {
        let mut buf = PageBuf::new();
        for (lba, idx) in [(0u64, 0u64), (7, 3), (u64::MAX, 1), (123_456, 999_999)] {
            for bs in [1usize, 512, 4096] {
                write_payload_into(lba, idx, bs, &mut buf);
                assert_eq!(
                    &*buf,
                    &write_payload_reference(lba, idx, bs)[..],
                    "lba {lba} idx {idx} bs {bs}"
                );
            }
        }
    }

    #[test]
    fn payloads_are_deterministic_and_sized() {
        let (mut a, mut b, mut c) = (PageBuf::new(), PageBuf::new(), PageBuf::new());
        write_payload_into(7, 3, 512, &mut a);
        write_payload_into(7, 3, 512, &mut b);
        assert_eq!(*a, *b);
        assert_eq!(a.len(), 512);
        write_payload_into(7, 4, 512, &mut c);
        // Different op index usually changes the fill byte.
        assert!(*a != *c || a[0] == c[0]);
    }

    #[test]
    fn stats_iops() {
        let stats = ReplayStats {
            ops: 1000,
            sim_time: Duration::from_secs(2),
            response_hist: Histogram::new(),
            counters: MgrCounters::default(),
        };
        assert!((stats.iops() - 500.0).abs() < 1e-9);
        let empty = ReplayStats {
            ops: 0,
            sim_time: Duration::ZERO,
            response_hist: Histogram::new(),
            counters: MgrCounters::default(),
        };
        assert_eq!(empty.response_hist.quantile(0.99), None);
        assert_eq!(empty.iops(), 0.0);
    }
}
