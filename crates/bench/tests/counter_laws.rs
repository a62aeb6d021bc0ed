//! Algebraic laws of every `simkit::counter_set!` struct in the workspace.
//!
//! Each struct is listed with *all* of its fields (the literals below have
//! no `..Default::default()`, so adding a field without listing it here
//! does not compile) and filled with distinct non-zero values, so a field
//! that `merged` or `since` drops, duplicates or crosses with a neighbour
//! breaks one of the laws.

use cachemgr::MgrCounters;
use flashsim::{FaultCounters, FlashCounters};
use flashtier_core::SscCounters;
use flashtier_server::NetFaultCounters;

macro_rules! check_laws {
    ($ty:ident { $($field:ident),+ $(,)? }) => {{
        let mut n = 0u64;
        let a = $ty { $($field: { n += 1; n }),+ };
        let b = $ty { $($field: { n += 7; n * n }),+ };
        let zero = $ty::default();
        let name = stringify!($ty);
        assert_eq!(a.merged(&zero), a, "{name}: zero is the identity of merged");
        assert_eq!(zero.merged(&a), a, "{name}: merged is symmetric at zero");
        assert_eq!(a.since(&zero), a, "{name}: since a zero snapshot is the identity");
        assert_eq!(a.since(&a), zero, "{name}: since itself is zero");
        assert_eq!(a.merged(&b).since(&b), a, "{name}: since undoes merged");
        $( assert_eq!(a.merged(&b).$field, a.$field + b.$field, "{name}.{}", stringify!($field)); )+
    }};
}

#[test]
fn every_counter_set_obeys_the_merge_and_since_laws() {
    check_laws!(MgrCounters {
        reads,
        writes,
        read_hits,
        read_misses,
        writebacks,
        cleans_issued,
        evictions,
        metadata_writes,
        bloom_skips,
        read_fault_fallbacks,
        destage_fault_invalidations,
        lost_dirty_reads,
    });
    check_laws!(SscCounters {
        host_reads,
        read_misses,
        writes_clean,
        writes_dirty,
        evict_ops,
        clean_ops,
        exists_ops,
        silent_evictions,
        silently_evicted_pages,
        eviction_fallbacks,
        switch_merges,
        full_merges,
        gc_copies,
        checkpoints,
        blocks_retired,
        program_reissues,
    });
    check_laws!(FlashCounters {
        page_reads,
        page_writes,
        erases,
        invalidations,
    });
    check_laws!(FaultCounters {
        read_transients,
        read_failures,
        read_corruptions,
        program_failures,
        erase_failures,
        grown_bad_blocks,
    });
    check_laws!(NetFaultCounters {
        resets,
        partial_writes,
        stalls,
        delays,
    });
}
