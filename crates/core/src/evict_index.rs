//! Eviction-candidate index, synchronised when it is consulted.
//!
//! Silent eviction needs "the best clean data block right now". The scan
//! implementation rebuilt and sorted a vector of every block-level entry per
//! query; this index mirrors the clean subset of `SscMaps::blocks` in
//! per-plane ordered sets so a query is an ordered lookup. The SSC does not
//! re-key it on every state transition: a mutation that can change a block's
//! key (insert/remove/mask/clean of a block entry) only *marks* the LBN, and
//! `Ssc::flush_index` re-derives the keys of the marked LBNs before the
//! index is read — selections are rare (§4.3: victims are picked when free
//! space runs out) and overwrites are not, so a hot LBN re-keyed a hundred
//! times between two evictions costs one tree update.
//!
//! **Victim order** — per-plane sets of `(score.0, score.1, lbn)`. The scan
//! sorts globally by `(score, off_plane, lbn)` where `off_plane` depends on
//! the preferred plane *of that query*; since `off_plane` is constant within
//! a plane, a k-way merge across the per-plane sets with the query's
//! preferred plane reproduces the scan's exact order.
//!
//! Invariant (enforced by the oracle tests in `device.rs`): after a flush
//! the index selects exactly what the retained scan implementation selects,
//! for every victim-selection policy.

use std::collections::{BTreeSet, HashMap};

use simkit::hash::BlockHash;

/// The per-block facts the index stores, remembered so an entry can be
/// removed from the ordered sets without recomputing its score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredKey {
    score: (u64, u64),
    plane: u32,
}

/// Ordered view of the clean block-level entries (see module docs).
#[derive(Debug)]
pub(crate) struct CleanBlockIndex {
    /// Per-plane victim candidates ordered by `(score.0, score.1, lbn)`.
    by_score: Vec<BTreeSet<(u64, u64, u64)>>,
    /// `lbn` → the key currently stored in the ordered sets.
    keys: HashMap<u64, StoredKey, BlockHash>,
}

impl CleanBlockIndex {
    pub(crate) fn new(planes: u32) -> Self {
        CleanBlockIndex {
            by_score: vec![BTreeSet::new(); planes as usize],
            keys: HashMap::default(),
        }
    }

    /// Inserts or refreshes one clean block's key; the ordered sets are
    /// touched only when `(score, plane)` changed.
    pub(crate) fn upsert(&mut self, lbn: u64, score: (u64, u64), plane: u32) {
        let key = StoredKey { score, plane };
        match self.keys.get_mut(&lbn) {
            Some(old) if *old == key => return,
            Some(old) => {
                let removed =
                    self.by_score[old.plane as usize].remove(&(old.score.0, old.score.1, lbn));
                debug_assert!(removed, "score set out of sync for lbn {lbn}");
                *old = key;
            }
            None => {
                self.keys.insert(lbn, key);
            }
        }
        self.by_score[plane as usize].insert((score.0, score.1, lbn));
    }

    /// Drops one block from the index (no-op if absent).
    pub(crate) fn remove(&mut self, lbn: u64) {
        if let Some(k) = self.keys.remove(&lbn) {
            let removed = self.by_score[k.plane as usize].remove(&(k.score.0, k.score.1, lbn));
            debug_assert!(removed, "score set out of sync for lbn {lbn}");
        }
    }

    /// `true` when no clean candidate exists.
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Full index contents sorted by lbn: `(lbn, score, plane)`. Oracle-test
    /// hook for comparing against a brute-force recomputation.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<(u64, (u64, u64), u32)> {
        let mut out: Vec<_> = self
            .keys
            .iter()
            .map(|(&lbn, k)| (lbn, k.score, k.plane))
            .collect();
        out.sort_unstable();
        out
    }

    /// Keys held in the ordered sets; equals the row count of
    /// [`CleanBlockIndex::snapshot`] when the two structures agree.
    #[cfg(test)]
    pub(crate) fn ordered_keys(&self) -> usize {
        self.by_score.iter().map(BTreeSet::len).sum()
    }

    /// The first `batch` candidates in the scan's victim order for a query
    /// preferring `preferred_plane`: ascending `(score, off_plane, lbn)`
    /// where `off_plane = plane != preferred_plane`. A k-way merge over the
    /// per-plane sets — `off_plane` is constant within a plane, so each
    /// plane's `(score, lbn)` order is already its global-order suffix.
    pub(crate) fn select_victims(&self, preferred_plane: u32, batch: usize) -> Vec<u64> {
        let mut heads: Vec<_> = self.by_score.iter().map(|s| s.iter().peekable()).collect();
        let mut out = Vec::with_capacity(batch);
        while out.len() < batch {
            let mut best: Option<((u64, u64, bool, u64), usize)> = None;
            for (plane, head) in heads.iter_mut().enumerate() {
                if let Some(&&(a, b, lbn)) = head.peek() {
                    let key = (a, b, plane as u32 != preferred_plane, lbn);
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, plane));
                    }
                }
            }
            let Some((key, plane)) = best else { break };
            heads[plane].next();
            out.push(key.3);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_rekeys_in_place() {
        let mut index = CleanBlockIndex::new(2);
        index.upsert(7, (3, 0), 0);
        index.upsert(5, (3, 0), 0);
        // Same key again: nothing moves.
        index.upsert(7, (3, 0), 0);
        assert_eq!(index.select_victims(0, 2), [5, 7]);
        // Same score on the other plane: the key moves with the block.
        index.upsert(7, (3, 0), 1);
        assert_eq!(index.select_victims(1, 2), [7, 5]);
        // A new score on the same plane reorders it.
        index.upsert(5, (2, 9), 0);
        assert_eq!(index.select_victims(1, 2), [5, 7]);
        assert_eq!(index.snapshot(), [(5, (2, 9), 0), (7, (3, 0), 1)]);
        assert_eq!(index.ordered_keys(), 2);
        index.remove(7);
        index.remove(7);
        assert_eq!(index.snapshot(), [(5, (2, 9), 0)]);
        assert_eq!(index.ordered_keys(), 1);
        index.remove(5);
        assert!(index.is_empty());
    }
}
