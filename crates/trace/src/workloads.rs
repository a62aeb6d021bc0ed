//! Workload specifications calibrated to the paper's Table 3.

/// A parameterized workload specification.
///
/// The four presets carry the published Table 3 statistics; experiments run
/// them through [`WorkloadSpec::scaled`] to shrink unique-block and
/// operation counts proportionally (keeping ops/unique-block, write mix and
/// range/unique sparseness fixed) so a full evaluation completes in seconds.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name (paper's trace name).
    pub name: String,
    /// Traced volume size in 4 KB blocks ("Range" in Table 3).
    pub range_blocks: u64,
    /// Distinct blocks accessed.
    pub unique_blocks: u64,
    /// Total operations to generate ("Total Ops.", capped at the paper's
    /// replay lengths).
    pub total_ops: u64,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Zipf skew of block popularity (workload-specific; write-intensive
    /// server traces are more overwrite-heavy).
    pub zipf_theta: f64,
    /// Probability that an access starts a short sequential run.
    pub seq_run_prob: f64,
    /// Mean sequential run length in blocks.
    pub seq_run_len: u64,
    /// Deterministic generation seed.
    pub seed: u64,
}

const GB: u64 = 1 << 30;
const BLOCK: u64 = 4096;

impl WorkloadSpec {
    /// *homes*: FIU file server, 3 weeks. 532 GB range, 1,684,407 unique
    /// blocks, 17,836,701 ops, 95.9% writes.
    pub fn homes() -> Self {
        WorkloadSpec {
            name: "homes".into(),
            range_blocks: 532 * GB / BLOCK,
            unique_blocks: 1_684_407,
            total_ops: 17_836_701,
            write_fraction: 0.959,
            zipf_theta: 0.90,
            seq_run_prob: 0.30,
            seq_run_len: 24,
            seed: 0x0E0E_0001,
        }
    }

    /// *mail*: FIU departmental email server, 3 weeks. 277 GB range,
    /// 15,136,141 unique blocks, 88.5% writes. The paper replays the first
    /// 20 M of 462 M ops; the preset carries the replayed length.
    ///
    /// Mail has ~3x more overwrites per block than homes (§6.5), hence the
    /// higher skew.
    pub fn mail() -> Self {
        WorkloadSpec {
            name: "mail".into(),
            range_blocks: 277 * GB / BLOCK,
            unique_blocks: 15_136_141,
            total_ops: 20_000_000,
            write_fraction: 0.885,
            zipf_theta: 0.99,
            seq_run_prob: 0.35,
            seq_run_len: 32,
            seed: 0x0E0E_0002,
        }
    }

    /// *usr*: MSR Cambridge user home directories, 1 week. 530 GB range,
    /// 99,450,142 unique blocks, 5.9% writes. Replay length 100 M ops.
    pub fn usr() -> Self {
        WorkloadSpec {
            name: "usr".into(),
            range_blocks: 530 * GB / BLOCK,
            unique_blocks: 99_450_142,
            total_ops: 100_000_000,
            write_fraction: 0.059,
            zipf_theta: 0.95,
            seq_run_prob: 0.45,
            seq_run_len: 48,
            seed: 0x0E0E_0003,
        }
    }

    /// *proj*: MSR Cambridge project directories, 1 week. 816 GB range,
    /// 107,509,907 unique blocks, 14.2% writes. Replay length 100 M ops.
    pub fn proj() -> Self {
        WorkloadSpec {
            name: "proj".into(),
            range_blocks: 816 * GB / BLOCK,
            unique_blocks: 107_509_907,
            total_ops: 100_000_000,
            write_fraction: 0.142,
            zipf_theta: 0.95,
            seq_run_prob: 0.45,
            seq_run_len: 48,
            seed: 0x0E0E_0004,
        }
    }

    /// The paper's four workloads in presentation order.
    pub fn paper_four() -> Vec<WorkloadSpec> {
        vec![Self::homes(), Self::mail(), Self::usr(), Self::proj()]
    }

    /// Shrinks the workload by `factor` (> 1 shrinks), keeping the
    /// write mix, skew, ops-per-unique-block ratio and range/unique
    /// sparseness of the original.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        let scale = |x: u64| ((x as f64 / factor).round() as u64).max(1);
        WorkloadSpec {
            name: self.name.clone(),
            range_blocks: scale(self.range_blocks),
            unique_blocks: scale(self.unique_blocks),
            total_ops: scale(self.total_ops),
            write_fraction: self.write_fraction,
            zipf_theta: self.zipf_theta,
            seq_run_prob: self.seq_run_prob,
            seq_run_len: self.seq_run_len,
            seed: self.seed,
        }
    }

    /// Cache size in 4 KB blocks for this workload: the paper sizes caches
    /// "to accommodate the 25% most popular blocks".
    pub fn cache_blocks(&self, hot_fraction: f64) -> u64 {
        ((self.unique_blocks as f64 * hot_fraction).round() as u64).max(1)
    }

    /// Cache size in bytes for the paper's default 25% hot fraction.
    pub fn cache_bytes_25(&self) -> u64 {
        self.cache_blocks(0.25) * BLOCK
    }

    /// Ratio of operations to unique blocks — how overwrite/reread-heavy the
    /// workload is.
    #[cfg(test)]
    pub(crate) fn ops_per_unique(&self) -> f64 {
        self.total_ops as f64 / self.unique_blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3() {
        let homes = WorkloadSpec::homes();
        assert_eq!(homes.unique_blocks, 1_684_407);
        assert_eq!(homes.total_ops, 17_836_701);
        assert!((homes.write_fraction - 0.959).abs() < 1e-9);
        // 532 GB range.
        assert_eq!(homes.range_blocks * BLOCK / GB, 532);

        let mail = WorkloadSpec::mail();
        assert_eq!(mail.unique_blocks, 15_136_141);
        assert!((mail.write_fraction - 0.885).abs() < 1e-9);

        let usr = WorkloadSpec::usr();
        assert!((usr.write_fraction - 0.059).abs() < 1e-9);
        assert_eq!(usr.total_ops, 100_000_000);

        let proj = WorkloadSpec::proj();
        assert_eq!(proj.range_blocks * BLOCK / GB, 816);
        assert_eq!(WorkloadSpec::paper_four().len(), 4);
    }

    #[test]
    fn cache_sizes_match_table4() {
        // Table 4: homes cache 1.6 GB, mail 14.4 GB, usr 94.8 GB, proj 102 GB.
        let gb = |spec: &WorkloadSpec| spec.cache_bytes_25() as f64 / GB as f64;
        assert!((gb(&WorkloadSpec::homes()) - 1.6).abs() < 0.1);
        assert!((gb(&WorkloadSpec::mail()) - 14.4).abs() < 0.1);
        assert!((gb(&WorkloadSpec::usr()) - 94.8).abs() < 0.2);
        assert!((gb(&WorkloadSpec::proj()) - 102.0).abs() < 0.6);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let base = WorkloadSpec::mail();
        let small = base.scaled(1000.0);
        assert!(
            (small.ops_per_unique() - base.ops_per_unique()).abs() / base.ops_per_unique() < 0.01
        );
        assert!((small.write_fraction - base.write_fraction).abs() < 1e-12);
        let sparseness = |s: &WorkloadSpec| s.unique_blocks as f64 / s.range_blocks as f64;
        assert!((sparseness(&small) - sparseness(&base)).abs() / sparseness(&base) < 0.01);
    }

    #[test]
    fn scaling_never_hits_zero() {
        let tiny = WorkloadSpec::homes().scaled(1e12);
        assert!(tiny.unique_blocks >= 1);
        assert!(tiny.total_ops >= 1);
        assert!(tiny.cache_blocks(0.25) >= 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_scale() {
        WorkloadSpec::homes().scaled(0.0);
    }

    #[test]
    fn mail_is_most_overwrite_heavy_of_fiu_pair() {
        // §6.5: mail "has 3 times more overwrites per disk block" than
        // homes; the preset encodes that as a higher popularity skew.
        assert!(WorkloadSpec::mail().zipf_theta > WorkloadSpec::homes().zipf_theta);
    }
}
