//! Deterministic media-fault injection.
//!
//! Real NAND fails in ways the base simulator's programming-model errors do
//! not cover: reads fail transiently (and succeed on retry) or permanently
//! (grown bad pages), returned data can be corrupted in a way the per-page
//! ECC/CRC detects, programs fail and force the FTL to re-issue the write to
//! a fresh page, and erases fail and grow bad blocks. This module injects
//! those faults *deterministically*: every fault decision is a pure hash of
//! the plan seed and a per-device operation counter, so the same seed plus
//! the same operation sequence yields bit-identical faults, timings and
//! counters on every run.
//!
//! The injector is strictly opt-in. A device without a plan installed takes
//! no branches through this module beyond a single `Option` check, draws no
//! hashes and charges no extra time — the fault layer is zero-cost when off.
//!
//! Scope: faults apply to *host-visible* operations (page reads, host
//! programs, erases). Device-internal relocation traffic
//! (`read_page_charge`/`copy_page_from` for single pages, `rebuild_block`
//! for whole-block rebuilds) is exempt — it neither draws fresh faults nor
//! surfaces grown bad pages — modelling firmware-level read-retry and
//! redundancy below the interface we simulate. Corruption is modelled at
//! the *detection* level: the device's ECC/CRC catches the flipped bits and
//! reports an uncorrectable read rather than silently returning garbage.

use crate::addr::{Pbn, Ppn};
use std::collections::BTreeSet;

/// Per-operation fault probabilities, expressed in parts per million, plus
/// the seed that makes the injection deterministic.
///
/// `Copy + Eq` so the plan can ride along configuration structs and be
/// compared in determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the per-operation fault hash.
    pub seed: u64,
    /// Transient read failure: the device retries internally and succeeds,
    /// charging one extra page-read time.
    pub read_transient_ppm: u32,
    /// Permanent read failure: the page becomes unreadable (grown bad page)
    /// until its block is next erased successfully.
    pub read_permanent_ppm: u32,
    /// Detected payload corruption: ECC reports an uncorrectable error; the
    /// page is treated as a grown bad page thereafter.
    pub read_corrupt_ppm: u32,
    /// Program failure: the target page is consumed (left unusable) and the
    /// caller must re-issue the write to the next free page.
    pub program_fail_ppm: u32,
    /// Erase failure: the block becomes a grown bad block; every further
    /// erase of it fails too.
    pub erase_fail_ppm: u32,
}

impl FaultPlan {
    /// A plan injecting every fault kind at the same rate — the convenient
    /// knob for smoke tests.
    pub fn uniform(seed: u64, ppm: u32) -> Self {
        FaultPlan {
            seed,
            read_transient_ppm: ppm,
            read_permanent_ppm: ppm,
            read_corrupt_ppm: ppm,
            program_fail_ppm: ppm,
            erase_fail_ppm: ppm,
        }
    }
}

simkit::counter_set! {
    /// Cumulative injected-fault statistics.
    pub struct FaultCounters {
        /// Transient read failures absorbed by the internal retry.
        pub read_transients: u64,
        /// Unrecoverable read failures surfaced to the caller (fresh permanent
        /// faults and re-reads of grown bad pages).
        pub read_failures: u64,
        /// Detected payload corruptions surfaced to the caller.
        pub read_corruptions: u64,
        /// Program failures surfaced to the caller.
        pub program_failures: u64,
        /// Erase failures surfaced to the caller.
        pub erase_failures: u64,
        /// Blocks grown bad by erase failures.
        pub grown_bad_blocks: u64,
    }
}

impl FaultCounters {
    /// Total faults surfaced or absorbed.
    pub fn total(&self) -> u64 {
        self.read_transients
            + self.read_failures
            + self.read_corruptions
            + self.program_failures
            + self.erase_failures
    }
}

/// What the injector decided about one host read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Read succeeds normally.
    None,
    /// Read succeeds after one internal retry (extra read time).
    Transient,
    /// Read fails permanently; the page is now a grown bad page.
    Failed,
    /// ECC detected corruption; the page is now a grown bad page.
    Corrupt,
}

/// SplitMix64 finalizer: a full-avalanche hash of the (seed, op) pair.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic fault state attached to a [`crate::FlashDevice`].
///
/// Survives simulated power failures the way real media damage does: grown
/// bad pages and blocks are properties of the cells, not of controller RAM.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Operations that consulted the hash so far (the determinism anchor).
    ops: u64,
    /// Pages whose reads fail until their block is erased.
    bad_pages: BTreeSet<u64>,
    /// Blocks whose erases fail forever (grown bad blocks).
    bad_blocks: BTreeSet<u64>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ops: 0,
            bad_pages: BTreeSet::new(),
            bad_blocks: BTreeSet::new(),
            counters: FaultCounters::default(),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Cumulative statistics.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// One deterministic draw in `[0, 1_000_000)`, advancing the op counter.
    fn draw(&mut self, salt: u64) -> u32 {
        let op = self.ops;
        self.ops += 1;
        (mix(self.plan.seed ^ op.wrapping_mul(0xA24B_AED4_963E_E407) ^ salt) % 1_000_000) as u32
    }

    /// Decides the fate of one single-page host read.
    pub fn on_read(&mut self, ppn: Ppn) -> ReadFault {
        if self.bad_pages.contains(&ppn.raw()) {
            self.counters.read_failures += 1;
            return ReadFault::Failed;
        }
        let p = self.plan;
        let draw = self.draw(1);
        if draw < p.read_transient_ppm {
            self.counters.read_transients += 1;
            ReadFault::Transient
        } else if draw < p.read_transient_ppm + p.read_permanent_ppm {
            self.counters.read_failures += 1;
            self.bad_pages.insert(ppn.raw());
            ReadFault::Failed
        } else if draw < p.read_transient_ppm + p.read_permanent_ppm + p.read_corrupt_ppm {
            self.counters.read_corruptions += 1;
            self.bad_pages.insert(ppn.raw());
            ReadFault::Corrupt
        } else {
            ReadFault::None
        }
    }

    /// Decides whether a host program of one page fails.
    pub fn on_program(&mut self) -> bool {
        let p = self.plan.program_fail_ppm;
        if p > 0 && self.draw(3) < p {
            self.counters.program_failures += 1;
            true
        } else {
            false
        }
    }

    /// Decides whether an erase of `pbn` fails, growing a bad block.
    pub fn on_erase(&mut self, pbn: Pbn) -> bool {
        if self.bad_blocks.contains(&pbn.raw()) {
            self.counters.erase_failures += 1;
            return true;
        }
        let p = self.plan.erase_fail_ppm;
        if p > 0 && self.draw(4) < p {
            self.counters.erase_failures += 1;
            self.counters.grown_bad_blocks += 1;
            self.bad_blocks.insert(pbn.raw());
            true
        } else {
            false
        }
    }

    /// Notes a successful erase of pages `[first, first + count)`: grown bad
    /// pages inside the block are healed (permanent page damage is modelled
    /// by erase failures growing whole bad blocks instead).
    pub fn erased(&mut self, first_page: u64, pages: u32) {
        if self.bad_pages.is_empty() {
            return;
        }
        for ppn in first_page..first_page + u64::from(pages) {
            self.bad_pages.remove(&ppn);
        }
    }

    /// Number of grown bad blocks.
    pub(crate) fn bad_block_count(&self) -> usize {
        self.bad_blocks.len()
    }

    /// Whether `pbn` has grown bad (every later erase of it fails).
    pub(crate) fn is_bad_block(&self, pbn: Pbn) -> bool {
        self.bad_blocks.contains(&pbn.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_plan(seed: u64) -> FaultPlan {
        FaultPlan::uniform(seed, 200_000) // 20% per kind
    }

    #[test]
    fn same_seed_same_sequence_is_identical() {
        let mut a = FaultInjector::new(heavy_plan(7));
        let mut b = FaultInjector::new(heavy_plan(7));
        for i in 0..500u64 {
            assert_eq!(a.on_read(Ppn(i % 13)), b.on_read(Ppn(i % 13)));
            assert_eq!(a.on_program(), b.on_program());
            assert_eq!(a.on_erase(Pbn(i % 5)), b.on_erase(Pbn(i % 5)));
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "20% rates must fire in 500 ops");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(heavy_plan(1));
        let mut b = FaultInjector::new(heavy_plan(2));
        let mut same = 0;
        for i in 0..200u64 {
            if a.on_read(Ppn(i)) == b.on_read(Ppn(i)) {
                same += 1;
            }
        }
        assert!(same < 200, "seeds must change the fault stream");
    }

    #[test]
    fn permanent_read_faults_stick_until_erase() {
        let plan = FaultPlan {
            seed: 3,
            read_permanent_ppm: 1_000_000,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_read(Ppn(9)), ReadFault::Failed);
        // The second failure is the grown bad page itself: no fresh draw.
        assert_eq!(inj.on_read(Ppn(9)), ReadFault::Failed);
        assert_eq!(inj.ops, 1);
        assert_eq!(inj.counters().read_failures, 2);
        // An erase covering the page heals it: the next read consults the
        // rates again (and, at 100%, re-faults).
        inj.erased(0, 16);
        assert_eq!(inj.on_read(Ppn(9)), ReadFault::Failed);
        assert_eq!(inj.ops, 2);
    }

    #[test]
    fn erase_failures_grow_permanent_bad_blocks() {
        let plan = FaultPlan {
            seed: 5,
            erase_fail_ppm: 1_000_000,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        assert!(inj.on_erase(Pbn(4)));
        assert!(inj.on_erase(Pbn(4)));
        assert_eq!(inj.counters().grown_bad_blocks, 1, "grown once");
        assert_eq!(inj.counters().erase_failures, 2);
        assert_eq!(inj.bad_block_count(), 1);
    }

    #[test]
    fn zero_rates_never_fault() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 11,
            ..FaultPlan::default()
        });
        for i in 0..100u64 {
            assert_eq!(inj.on_read(Ppn(i)), ReadFault::None);
            assert!(!inj.on_program());
            assert!(!inj.on_erase(Pbn(i)));
        }
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn counters_since() {
        let mut inj = FaultInjector::new(heavy_plan(1));
        for i in 0..50u64 {
            inj.on_read(Ppn(i));
        }
        let mid = inj.counters();
        for i in 0..50u64 {
            inj.on_read(Ppn(i));
        }
        let delta = inj.counters().since(&mid);
        assert_eq!(
            delta.read_transients + delta.read_failures + delta.read_corruptions,
            inj.counters().total() - mid.total()
        );
    }
}
