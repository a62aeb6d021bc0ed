//! Property tests for cache-manager data structures: the dirty table's LRU
//! order against a reference deque, and the dirty table against a reference
//! ordered set.
//!
//! Cases come from the deterministic `simkit::SimRng`; failures reproduce
//! by case number.

use cachemgr::DirtyTable;
use simkit::SimRng;
use std::collections::{HashSet, VecDeque};

/// The dirty table's recency list against a reference deque: touches,
/// removals and LRU pops, then the whole order by draining from the back.
#[test]
fn lru_matches_reference_deque() {
    for case in 0..128u64 {
        let mut rng = SimRng::seed_from(0xB100_1000 ^ case);
        let n = 1 + rng.gen_range(399) as usize;
        let mut sut = DirtyTable::new(32);
        // Reference: front = most recent.
        let mut reference: VecDeque<u64> = VecDeque::new();
        for _ in 0..n {
            let lba = rng.gen_range(32);
            match rng.gen_range(3) {
                0 => {
                    assert!(sut.touch(lba));
                    reference.retain(|&l| l != lba);
                    reference.push_front(lba);
                }
                1 => {
                    sut.remove(lba);
                    reference.retain(|&l| l != lba);
                }
                _ => {
                    let victim = sut.lru_block();
                    assert_eq!(victim, reference.pop_back());
                    if let Some(lba) = victim {
                        assert!(sut.remove(lba));
                    }
                }
            }
            assert_eq!(sut.len(), reference.len());
            assert_eq!(sut.lru_block(), reference.back().copied());
        }
        // Full-order check.
        let order: Vec<u64> = std::iter::from_fn(|| {
            let lba = sut.lru_block()?;
            sut.remove(lba);
            Some(lba)
        })
        .collect();
        let expect: Vec<u64> = reference.iter().rev().copied().collect();
        assert_eq!(order, expect);
    }
}

#[test]
fn dirty_table_matches_reference() {
    for case in 0..128u64 {
        let mut rng = SimRng::seed_from(0xB100_2000 ^ case);
        let n = 1 + rng.gen_range(399) as usize;
        let mut sut = DirtyTable::new(64);
        let mut reference: VecDeque<u64> = VecDeque::new(); // front = MRU
        for _ in 0..n {
            let lba = rng.gen_range(64);
            if rng.gen_bool(0.5) {
                assert!(sut.touch(lba));
                reference.retain(|&l| l != lba);
                reference.push_front(lba);
            } else {
                let was_present = reference.iter().any(|&l| l == lba);
                assert_eq!(sut.remove(lba), was_present);
                reference.retain(|&l| l != lba);
            }
            assert_eq!(sut.len(), reference.len());
            assert_eq!(sut.lru_block(), reference.back().copied());
        }
        let mut all: Vec<u64> = sut.iter().collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}

#[test]
fn dirty_table_lru_run_is_contiguous_and_contains_lru() {
    for case in 0..128u64 {
        let mut rng = SimRng::seed_from(0xB100_3000 ^ case);
        let mut lbas: HashSet<u64> = HashSet::new();
        let target = 1 + rng.gen_range(63) as usize;
        while lbas.len() < target {
            lbas.insert(rng.gen_range(128));
        }
        let max_len = 1 + rng.gen_range(15) as usize;
        let mut table = DirtyTable::new(128);
        for &lba in &lbas {
            table.touch(lba);
        }
        let mut run = Vec::new();
        table.lru_run(max_len, &mut run);
        assert!(!run.is_empty());
        assert!(run.len() <= max_len);
        assert!(run.contains(&table.lru_block().unwrap()));
        // Ascending and contiguous, all dirty.
        for w in run.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        for &lba in &run {
            assert!(table.contains(lba));
        }
    }
}
