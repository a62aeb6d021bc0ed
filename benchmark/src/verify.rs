//! The correctness gate: the workload's mix through all three systems with
//! payloads kept, checked against one oracle.
//!
//! Every read must return the bytes of the last write to that block (zeros
//! if it was never written), through hits, misses, silent evictions,
//! merges and destaging. Then the stack is crashed and recovered, and
//! every block ever written is read back: an acknowledged write that does
//! not survive breaks the paper's §3 guarantee and is a failed operation.
//!
//! The oracle keeps one version number per block and regenerates the
//! expected bytes on demand, so it adds almost nothing to the resident
//! set it runs alongside.

use std::collections::HashMap;

use cachemgr::PageBuf;
use simkit::fill_pseudo;
use trace::TraceEvent;

use crate::serve::OpTally;
use crate::stacks::Probe;

/// Last-written version per block.
#[derive(Debug, Default)]
pub struct Oracle {
    versions: HashMap<u64, u64>,
    expected: Vec<u8>,
}

impl Oracle {
    /// Fills `buf` with the bytes version `version` of block `lba` holds.
    pub fn payload(lba: u64, version: u64, buf: &mut [u8]) {
        fill_pseudo(lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version, buf);
    }

    /// Records that `version` of `lba` was written and acknowledged.
    pub fn note_write(&mut self, lba: u64, version: u64) {
        self.versions.insert(lba, version);
    }

    /// Whether `got` is what a read of `lba` must return.
    pub fn check_read(&mut self, lba: u64, got: &[u8]) -> bool {
        match self.versions.get(&lba) {
            Some(&version) => {
                self.expected.resize(got.len(), 0);
                Self::payload(lba, version, &mut self.expected);
                self.expected == got
            }
            None => got.iter().all(|&b| b == 0),
        }
    }

    /// Blocks written so far, ascending (a fixed read-back order).
    pub fn written_blocks(&self) -> Vec<u64> {
        let mut lbas: Vec<u64> = self.versions.keys().copied().collect();
        lbas.sort_unstable();
        lbas
    }
}

/// Replays `events` through `system` against a fresh oracle, then crashes,
/// recovers and reads every written block back.
pub fn verify_system<S: Probe>(system: &mut S, events: &[TraceEvent]) -> OpTally {
    let mut tally = OpTally::default();
    let mut oracle = Oracle::default();
    let mut payload = vec![0u8; system.block_size()];
    let mut read_buf = PageBuf::with_capacity(system.block_size());
    for (i, e) in events.iter().enumerate() {
        tally.attempted += 1;
        if e.is_write() {
            let version = i as u64 + 1;
            Oracle::payload(e.lba, version, &mut payload);
            match system.write(e.lba, &payload) {
                Ok(_) => oracle.note_write(e.lba, version),
                Err(_) => tally.failed += 1,
            }
        } else {
            match system.read_into(e.lba, &mut read_buf) {
                Ok(_) if oracle.check_read(e.lba, &read_buf) => {}
                _ => tally.failed += 1,
            }
        }
    }
    tally.attempted += 1;
    if system.crash_and_recover().is_err() {
        tally.failed += 1;
    }
    for lba in oracle.written_blocks() {
        tally.attempted += 1;
        match system.read_into(lba, &mut read_buf) {
            Ok(_) if oracle.check_read(lba, &read_buf) => {}
            _ => tally.failed += 1,
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stacks::{LayerCounts, StackSpec};
    use cachemgr::{CacheSystem, MgrCounters};
    use simkit::Duration;
    use sparsemap::MapMemory;

    fn mix(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let lba = (i * 7919) % 3000;
                if i % 3 == 0 {
                    TraceEvent::write(lba)
                } else {
                    TraceEvent::read(lba)
                }
            })
            .collect()
    }

    const SMALL: StackSpec = StackSpec {
        flash_bytes: 8 << 20,
        store: true,
    };

    #[test]
    fn all_three_systems_pass_the_oracle() {
        let events = mix(20_000);
        for tally in [
            verify_system(&mut SMALL.wt(), &events),
            verify_system(&mut SMALL.wb(), &events),
            verify_system(&mut SMALL.native(), &events),
        ] {
            assert!(tally.attempted > 20_000);
            assert_eq!(tally.failed, 0);
        }
    }

    /// A stack that flips one byte of its `n`th read.
    struct FlipNth<S> {
        inner: S,
        reads_left: u64,
    }

    impl<S: CacheSystem> CacheSystem for FlipNth<S> {
        fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> cachemgr::Result<Duration> {
            let cost = self.inner.read_into(lba, buf)?;
            self.reads_left = self.reads_left.wrapping_sub(1);
            if self.reads_left == 0 {
                buf.as_mut_slice()[100] ^= 0x01;
            }
            Ok(cost)
        }
        fn write(&mut self, lba: u64, data: &[u8]) -> cachemgr::Result<Duration> {
            self.inner.write(lba, data)
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
            self.inner.name()
        }
    }

    impl<S: Probe> Probe for FlipNth<S> {
        fn layer_counts(&self) -> LayerCounts {
            self.inner.layer_counts()
        }
        fn wear_spread(&self) -> u64 {
            self.inner.wear_spread()
        }
        fn crash_and_recover(&mut self) -> cachemgr::Result<Duration> {
            self.inner.crash_and_recover()
        }
    }

    /// The oracle catches a single flipped bit in a single read, whether
    /// the block had been written (pseudo-random bytes expected) or not
    /// (zeros expected).
    #[test]
    fn oracle_catches_one_corrupted_read() {
        let events = mix(5_000);
        for nth in [1, 2_000] {
            let mut broken = FlipNth {
                inner: SMALL.wb(),
                reads_left: nth,
            };
            assert_eq!(verify_system(&mut broken, &events).failed, 1, "read {nth}");
        }
    }

    #[test]
    fn oracle_catches_a_lost_write() {
        let mut oracle = Oracle::default();
        let mut old = vec![0u8; 512];
        let mut new = vec![0u8; 512];
        Oracle::payload(9, 1, &mut old);
        Oracle::payload(9, 2, &mut new);
        oracle.note_write(9, 1);
        oracle.note_write(9, 2);
        assert!(oracle.check_read(9, &new));
        assert!(!oracle.check_read(9, &old), "stale version must not pass");
        assert!(oracle.check_read(10, &[0u8; 512]));
        assert!(!oracle.check_read(10, &new));
    }
}
