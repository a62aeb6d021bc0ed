//! Manager-level counters.

simkit::counter_set! {
    /// Counters every cache manager maintains.
    pub struct MgrCounters {
        /// Application reads handled.
        pub reads: u64,
        /// Application writes handled.
        pub writes: u64,
        /// Reads served from the cache tier.
        pub read_hits: u64,
        /// Reads that had to go to disk.
        pub read_misses: u64,
        /// Dirty blocks written back to disk by the cleaner.
        pub writebacks: u64,
        /// `clean` notifications sent to the SSC (FlashTier write-back only).
        pub cleans_issued: u64,
        /// Cache-tier evictions driven by the manager (Native only).
        pub evictions: u64,
        /// Metadata pages persisted to the SSD (Native write-back only).
        pub metadata_writes: u64,
        /// Always zero: no manager has a Bloom filter. Kept only because
        /// the performance ledger still reads it.
        pub bloom_skips: u64,
        /// Unrecoverable cache-read media faults converted into disk-served
        /// misses (the faulted mapping is invalidated; never stale data).
        pub read_fault_fallbacks: u64,
        /// Cache entries invalidated after destage/writeback repeatedly failed
        /// on a media fault (bounded retry, then drop).
        pub destage_fault_invalidations: u64,
        /// Reads of *dirty* cache data lost to a media fault, served from the
        /// last destaged (disk) version instead — availability over staleness.
        pub lost_dirty_reads: u64,
    }
}

impl MgrCounters {
    /// Read miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_misses as f64 / self.reads as f64
        }
    }

    /// Read hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let c = MgrCounters {
            reads: 10,
            read_hits: 7,
            read_misses: 3,
            ..Default::default()
        };
        assert!((c.miss_rate() - 0.3).abs() < 1e-12);
        assert!((c.hit_rate() - 0.7).abs() < 1e-12);
        assert_eq!(MgrCounters::default().miss_rate(), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let a = MgrCounters {
            reads: 5,
            writes: 2,
            ..Default::default()
        };
        let b = MgrCounters {
            reads: 9,
            writes: 10,
            read_hits: 1,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.reads, 4);
        assert_eq!(d.writes, 8);
        assert_eq!(d.read_hits, 1);
    }
}
