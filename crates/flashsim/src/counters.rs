//! Device-wide operation and wear counters.
//!
//! These feed the paper's Table 5 (total erases, maximum wear difference,
//! write amplification) and the performance accounting behind Figures 3
//! and 6.

simkit::counter_set! {
    /// Cumulative operation counts for a flash device.
    pub struct FlashCounters {
        /// Pages read (data reads).
        pub page_reads: u64,
        /// Pages programmed.
        pub page_writes: u64,
        /// Blocks erased.
        pub erases: u64,
        /// Pages invalidated by the layer above.
        pub invalidations: u64,
    }
}

/// Wear statistics across all erase blocks of a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Smallest per-block erase count.
    pub min_erases: u64,
    /// Largest per-block erase count.
    pub max_erases: u64,
    /// Sum of all per-block erase counts.
    pub total_erases: u64,
}

impl WearStats {
    /// Computes wear statistics from per-block erase counts.
    #[cfg(test)]
    pub(crate) fn from_counts(counts: impl Iterator<Item = u64>) -> Self {
        let mut stats = WearStats {
            min_erases: u64::MAX,
            max_erases: 0,
            total_erases: 0,
        };
        let mut any = false;
        for c in counts {
            any = true;
            stats.min_erases = stats.min_erases.min(c);
            stats.max_erases = stats.max_erases.max(c);
            stats.total_erases += c;
        }
        if !any {
            stats.min_erases = 0;
        }
        stats
    }

    /// Maximum wear difference between any two blocks (Table 5's
    /// "Wear Diff." column).
    pub fn wear_difference(&self) -> u64 {
        self.max_erases - self.min_erases
    }
}

/// Incrementally maintained wear statistics: a histogram of per-block erase
/// counts plus running min/max/total, updated on every erase. This replaces
/// the full-device iteration [`WearStats::from_counts`] would need per query,
/// making the device-wide wear snapshot O(1) no matter how often a caller
/// (Table 5 reporting, the ledger's wear spread) asks for it.
///
/// Invariant (checked by the oracle test in `flashsim::device`): after any
/// sequence of erases, `stats()` equals `WearStats::from_counts` over the
/// live per-block counts.
#[derive(Debug, Clone)]
pub(crate) struct WearTracker {
    /// `hist[c]` = number of blocks whose erase count is `c`.
    hist: Vec<u64>,
    min: u64,
    max: u64,
    total: u64,
}

impl WearTracker {
    /// Tracker for a device of `total_blocks` blocks, all starting at zero
    /// erases.
    pub fn new(total_blocks: u64) -> Self {
        WearTracker {
            hist: vec![total_blocks],
            min: 0,
            max: 0,
            total: 0,
        }
    }

    /// Records one block moving from erase count `old` to `old + 1`.
    pub(crate) fn record_erase(&mut self, old: u64) {
        let idx = old as usize;
        debug_assert!(
            self.hist.get(idx).is_some_and(|&n| n > 0),
            "no block tracked at erase count {old}"
        );
        self.hist[idx] -= 1;
        if self.hist.len() <= idx + 1 {
            self.hist.resize(idx + 2, 0);
        }
        self.hist[idx + 1] += 1;
        // The erased block itself lands at old + 1, so when the last block
        // at the old minimum departs the new minimum is exactly old + 1.
        if old == self.min && self.hist[idx] == 0 {
            self.min = old + 1;
        }
        self.max = self.max.max(old + 1);
        self.total += 1;
    }

    /// Current statistics, O(1).
    pub fn stats(&self) -> WearStats {
        WearStats {
            min_erases: self.min,
            max_erases: self.max,
            total_erases: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_since() {
        let a = FlashCounters {
            page_reads: 10,
            page_writes: 5,
            erases: 2,
            invalidations: 3,
        };
        let b = FlashCounters {
            page_reads: 25,
            page_writes: 9,
            erases: 2,
            invalidations: 10,
        };
        let d = b.since(&a);
        assert_eq!(d.page_reads, 15);
        assert_eq!(d.page_writes, 4);
        assert_eq!(d.erases, 0);
        assert_eq!(d.invalidations, 7);
    }

    #[test]
    fn wear_stats_from_counts() {
        let s = WearStats::from_counts([3u64, 7, 5].into_iter());
        assert_eq!(s.min_erases, 3);
        assert_eq!(s.max_erases, 7);
        assert_eq!(s.total_erases, 15);
        assert_eq!(s.wear_difference(), 4);
    }

    #[test]
    fn wear_stats_empty() {
        let s = WearStats::from_counts(std::iter::empty());
        assert_eq!(s.min_erases, 0);
        assert_eq!(s.max_erases, 0);
        assert_eq!(s.wear_difference(), 0);
    }
}
