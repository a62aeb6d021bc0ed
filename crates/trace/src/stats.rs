//! Trace characterization.
//!
//! Recomputes from any trace the properties the paper reports: Table 3's
//! aggregate statistics, Figure 1's region-density distribution over the hot
//! set, and §2's writes-per-block comparison between the hot set and the
//! whole trace.

use std::cmp::Reverse;
use std::collections::HashMap;

use simkit::hash::BlockHash;
use simkit::Cdf;

use crate::event::Trace;
use crate::generator::REGION_BLOCKS;

/// Per-block access counts and derived statistics for a trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Total operations.
    pub total_ops: u64,
    /// Write operations.
    pub write_ops: u64,
    /// Distinct blocks touched.
    pub unique_blocks: u64,
    /// Address range of the trace in blocks.
    pub range_blocks: u64,
    /// Per-block (reads, writes), keyed by LBA. The keys come from a trace
    /// the user chose, not from a peer, so they need no SipHash.
    counts: HashMap<u64, (u64, u64), BlockHash>,
}

impl TraceStats {
    /// Computes statistics in one pass over the trace.
    pub fn compute(trace: &Trace) -> Self {
        let mut counts: HashMap<u64, (u64, u64), BlockHash> = HashMap::default();
        let mut write_ops = 0;
        for e in trace.iter() {
            let slot = counts.entry(e.lba).or_insert((0, 0));
            if e.is_write() {
                slot.1 += 1;
                write_ops += 1;
            } else {
                slot.0 += 1;
            }
        }
        TraceStats {
            total_ops: trace.len() as u64,
            write_ops,
            unique_blocks: counts.len() as u64,
            range_blocks: trace.range_blocks,
            counts,
        }
    }

    /// Fraction of operations that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.write_ops as f64 / self.total_ops as f64
        }
    }

    /// The `fraction` most-accessed blocks, most popular first.
    ///
    /// Ties are broken by a fixed hash of the LBA: deterministic but
    /// unbiased with respect to address order (by-address tie-breaking
    /// would sweep all the once-accessed blocks of the lowest regions into
    /// the hot set). This is the paper's hot set: caches are sized "to
    /// accommodate the 25% most popular blocks".
    pub fn top_blocks(&self, fraction: f64) -> Vec<u64> {
        // `scramble` is a bijection, so the key is a total order.
        let mut by_count: Vec<(Reverse<u64>, u64, u64)> = self
            .counts
            .iter()
            .map(|(&lba, &(r, w))| (Reverse(r + w), crate::zipf::scramble(lba), lba))
            .collect();
        let keep = ((by_count.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize)
            .min(by_count.len());
        if keep < by_count.len() {
            by_count.select_nth_unstable(keep);
            by_count.truncate(keep);
        }
        by_count.sort_unstable();
        by_count.into_iter().map(|(_, _, lba)| lba).collect()
    }

    /// Share of all accesses that land on the `fraction` hottest blocks.
    pub fn hot_access_share(&self, fraction: f64) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        let hot = self.top_blocks(fraction);
        let hot_ops: u64 = hot
            .iter()
            .map(|lba| {
                let (r, w) = self.counts[lba];
                r + w
            })
            .sum();
        hot_ops as f64 / self.total_ops as f64
    }

    /// Figure 1: the distribution of unique-block counts across
    /// 100,000-block regions, restricted to the `hot_fraction`
    /// most-accessed blocks. Returns a CDF over per-region unique-block
    /// counts (only regions containing at least one hot block count, as in
    /// the figure).
    pub fn region_density_cdf(&self, hot_fraction: f64) -> Cdf {
        let hot = self.top_blocks(hot_fraction);
        let mut per_region: HashMap<u64, u64, BlockHash> = HashMap::default();
        for lba in hot {
            *per_region.entry(lba / REGION_BLOCKS).or_insert(0) += 1;
        }
        Cdf::build(per_region.into_values().map(|c| c as f64).collect())
    }

    /// §2 "Wear Management": mean writes per block over the `fraction`
    /// hottest blocks vs over all touched blocks.
    pub fn writes_per_block(&self, fraction: f64) -> (f64, f64) {
        if self.unique_blocks == 0 {
            return (0.0, 0.0);
        }
        let hot = self.top_blocks(fraction);
        let hot_writes: u64 = hot.iter().map(|lba| self.counts[lba].1).sum();
        let hot_mean = if hot.is_empty() {
            0.0
        } else {
            hot_writes as f64 / hot.len() as f64
        };
        let all_mean = self.write_ops as f64 / self.unique_blocks as f64;
        (hot_mean, all_mean)
    }

    /// Total accesses (reads + writes) to one block.
    #[cfg(test)]
    pub(crate) fn accesses_to(&self, lba: u64) -> u64 {
        self.counts.get(&lba).map(|&(r, w)| r + w).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn toy() -> Trace {
        // Block 0: 4 writes; block 1: 2 reads; block 500_000: 1 read.
        Trace::new(
            "toy",
            1_000_000,
            vec![
                TraceEvent::write(0),
                TraceEvent::write(0),
                TraceEvent::write(0),
                TraceEvent::write(0),
                TraceEvent::read(1),
                TraceEvent::read(1),
                TraceEvent::read(500_000),
            ],
        )
    }

    #[test]
    fn aggregates() {
        let s = TraceStats::compute(&toy());
        assert_eq!(s.total_ops, 7);
        assert_eq!(s.write_ops, 4);
        assert_eq!(s.unique_blocks, 3);
        assert!((s.write_fraction() - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.accesses_to(0), 4);
        assert_eq!(s.accesses_to(999), 0);
    }

    #[test]
    fn top_blocks_ordered_by_popularity() {
        let s = TraceStats::compute(&toy());
        assert_eq!(s.top_blocks(1.0), vec![0, 1, 500_000]);
        assert_eq!(s.top_blocks(0.34), vec![0]);
        assert!(s.top_blocks(0.0).is_empty());
    }

    /// The selection equals the head of a full sort by (count desc,
    /// scrambled LBA), with many tied counts, at every cut.
    #[test]
    fn top_blocks_is_the_head_of_the_full_order() {
        let mut rng = simkit::SimRng::seed_from(0x70B);
        let events: Vec<TraceEvent> = (0..5_000)
            .map(|_| TraceEvent::read(rng.gen_range(1_500)))
            .collect();
        let s = TraceStats::compute(&Trace::new("ties", 1_500, events));
        let mut full: Vec<u64> = s.counts.keys().copied().collect();
        full.sort_by_key(|&lba| (Reverse(s.accesses_to(lba)), crate::zipf::scramble(lba)));
        for fraction in [0.0, 0.001, 0.1, 0.25, 0.5, 0.999, 1.0] {
            let keep = (full.len() as f64 * fraction).round() as usize;
            assert_eq!(s.top_blocks(fraction), full[..keep], "fraction {fraction}");
        }
    }

    #[test]
    fn hot_share() {
        let s = TraceStats::compute(&toy());
        assert!((s.hot_access_share(0.34) - 4.0 / 7.0).abs() < 1e-12);
        assert!((s.hot_access_share(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn region_density_counts_regions() {
        let s = TraceStats::compute(&toy());
        // All three blocks hot: blocks 0,1 in region 0; 500_000 in region 5.
        let cdf = s.region_density_cdf(1.0);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(1.0), Some(2.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn writes_per_block_hot_vs_all() {
        let s = TraceStats::compute(&toy());
        let (hot, all) = s.writes_per_block(0.34);
        assert!((hot - 4.0).abs() < 1e-12); // block 0 only
        assert!((all - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new("empty", 10, vec![]);
        let s = TraceStats::compute(&t);
        assert_eq!(s.write_fraction(), 0.0);
        assert_eq!(s.hot_access_share(0.5), 0.0);
        assert_eq!(s.writes_per_block(0.5), (0.0, 0.0));
        assert!(s.region_density_cdf(0.5).is_empty());
    }
}
