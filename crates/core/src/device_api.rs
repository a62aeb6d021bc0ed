//! The cache-device abstraction the managers program against.
//!
//! [`SscDevice`] captures the slice of the SSC interface (§4.2.1 operations
//! plus the crash/recovery and fault-injection hooks) that the cache
//! managers and the replay harness actually use. Both the monolithic
//! [`Ssc`] and the hash-partitioned [`crate::shard::ShardedSsc`] implement
//! it, so a manager is constructed over either interchangeably — the
//! sharded device behaves exactly like one big SSC, it just spreads the
//! sparse address space over independent shards.

use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::device::{Ssc, SscCounters};
use crate::Result;

/// A solid-state cache device: the six interface operations, crash
/// machinery, and the introspection the managers need.
pub trait SscDevice {
    /// Device page size in bytes.
    fn page_size(&self) -> usize;

    /// Advisory data capacity in pages.
    fn data_capacity_pages(&self) -> u64;

    /// Number of pages currently cached.
    fn cached_pages(&self) -> u64;

    /// Cumulative device statistics.
    fn counters(&self) -> SscCounters;

    /// Injected-fault statistics (zeros when no plan is installed).
    fn fault_counters(&self) -> flashsim::FaultCounters;

    /// Installs a deterministic media-fault plan.
    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan);

    /// Device-memory footprint of the mapping structures.
    fn map_memory(&self) -> MapMemory;

    /// `read`, parameterised over where the payload goes: `Some(buf)` fills
    /// `buf` with the cached data for `lba`; `None` is a *discard read* for
    /// callers that will not inspect the data. The lookup, counters, fault
    /// draw and timing do not depend on `dest`.
    ///
    /// # Errors
    ///
    /// [`crate::SscError::NotPresent`] on a miss, or a flash fault.
    fn read_to(&mut self, lba: u64, dest: Option<&mut PageBuf>) -> Result<Duration>;

    /// `read` into the caller's buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SscDevice::read_to`].
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration> {
        self.read_to(lba, Some(buf))
    }

    /// A discard read: [`SscDevice::read_to`] with no destination.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SscDevice::read_to`].
    fn read_sink(&mut self, lba: u64) -> Result<Duration> {
        self.read_to(lba, None)
    }

    /// `true` when the device provably ignores payload bytes (discard-mode
    /// emulation): writes retain no data and reads synthesize it. Managers
    /// use this — together with the same property on the disk tier — to
    /// skip materializing payloads the simulation never looks at. The
    /// conservative default keeps store-mode semantics.
    fn payload_discarded(&self) -> bool {
        false
    }

    /// `write-clean`: insert or update `lba` with clean data.
    ///
    /// # Errors
    ///
    /// Bad page size, out of space, or a flash fault.
    fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration>;

    /// `write-dirty`: insert or update `lba` with dirty data; durable
    /// before the call returns.
    ///
    /// # Errors
    ///
    /// Bad page size, out of space, or a flash fault.
    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration>;

    /// `evict`: force `lba` out of the cache.
    ///
    /// # Errors
    ///
    /// Flash faults only.
    fn evict(&mut self, lba: u64) -> Result<Duration>;

    /// `clean`: mark `lba` eligible for silent eviction.
    ///
    /// # Errors
    ///
    /// Flash faults only.
    fn clean(&mut self, lba: u64) -> Result<Duration>;

    /// `exists`: the dirty blocks within `[start, end)`, sorted.
    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration);

    /// Durability barrier: synchronously commits any buffered
    /// (group-commit) log records, so every previously acknowledged
    /// operation survives a crash. On a sharded device this drains every
    /// shard and max-merges the per-shard clocks — it is the sync point the
    /// server's graceful-shutdown drain runs through.
    ///
    /// # Errors
    ///
    /// Flash faults, or a scripted power loss armed at the commit site.
    fn barrier_flush(&mut self) -> Result<Duration>;

    /// Simulates a power failure; returns the number of buffered log
    /// records lost.
    fn crash(&mut self) -> usize;

    /// Roll-forward recovery after a crash; returns the simulated recovery
    /// time.
    ///
    /// # Errors
    ///
    /// Flash faults while reconciling block state.
    fn recover(&mut self) -> Result<Duration>;
}

impl SscDevice for Ssc {
    fn page_size(&self) -> usize {
        Ssc::page_size(self)
    }

    fn data_capacity_pages(&self) -> u64 {
        Ssc::data_capacity_pages(self)
    }

    fn cached_pages(&self) -> u64 {
        Ssc::cached_pages(self)
    }

    fn counters(&self) -> SscCounters {
        Ssc::counters(self)
    }

    fn fault_counters(&self) -> flashsim::FaultCounters {
        Ssc::fault_counters(self)
    }

    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        Ssc::set_fault_plan(self, plan)
    }

    fn map_memory(&self) -> MapMemory {
        Ssc::map_memory(self)
    }

    fn payload_discarded(&self) -> bool {
        self.data_mode() == flashsim::DataMode::Discard
    }

    fn read_to(&mut self, lba: u64, dest: Option<&mut PageBuf>) -> Result<Duration> {
        Ssc::read_to(self, lba, dest)
    }

    fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        Ssc::write_clean(self, lba, data)
    }

    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        Ssc::write_dirty(self, lba, data)
    }

    fn evict(&mut self, lba: u64) -> Result<Duration> {
        Ssc::evict(self, lba)
    }

    fn clean(&mut self, lba: u64) -> Result<Duration> {
        Ssc::clean(self, lba)
    }

    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        Ssc::exists(self, start, end)
    }

    fn barrier_flush(&mut self) -> Result<Duration> {
        Ssc::commit_log(self)
    }

    fn crash(&mut self) -> usize {
        Ssc::crash(self)
    }

    fn recover(&mut self) -> Result<Duration> {
        Ssc::recover(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedSsc, SscConfig};

    /// A discard read is a filling read minus the bytes: same cost or
    /// error (hits, misses, injected faults), same counters, same fault
    /// stream, op for op.
    fn assert_sink_matches_into<D: SscDevice>(mut filled: D, mut sunk: D) {
        let plan = flashsim::FaultPlan {
            seed: 0x51_4B,
            read_transient_ppm: 150_000,
            read_permanent_ppm: 50_000,
            read_corrupt_ppm: 50_000,
            ..flashsim::FaultPlan::default()
        };
        let page = vec![7u8; filled.page_size()];
        for d in [&mut filled, &mut sunk] {
            d.set_fault_plan(plan);
            for lba in 0..48u64 {
                if lba % 3 == 0 {
                    d.write_dirty(lba, &page).unwrap();
                } else {
                    d.write_clean(lba, &page).unwrap();
                }
            }
        }
        let mut buf = PageBuf::new();
        // LBAs 48..64 were never written: misses on both sides.
        for i in 0..400u64 {
            let lba = (i * 7) % 64;
            assert_eq!(
                filled.read_into(lba, &mut buf),
                sunk.read_sink(lba),
                "read {i} lba {lba}"
            );
        }
        assert_eq!(filled.counters(), sunk.counters());
        assert_eq!(filled.fault_counters(), sunk.fault_counters());
        assert!(filled.fault_counters().total() > 0, "plan never fired");
        assert!(filled.counters().read_misses > 0);
    }

    #[test]
    fn read_sink_matches_read_into_exactly() {
        for mode in [flashsim::DataMode::Store, flashsim::DataMode::Discard] {
            let config = SscConfig::small_test().with_data_mode(mode);
            assert_sink_matches_into(Ssc::new(config), Ssc::new(config));
            assert_sink_matches_into(ShardedSsc::new(config, 2), ShardedSsc::new(config, 2));
        }
    }
}
