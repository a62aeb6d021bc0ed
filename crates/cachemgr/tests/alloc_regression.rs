//! Allocation-regression gate for the data path.
//!
//! The replay loop's value proposition is an allocation-free steady state:
//! after warm-up, a cache-hit read loop in `Discard` mode must perform zero
//! per-op heap allocations. A counting `#[global_allocator]` wrapper makes
//! that a hard assertion instead of a profiling claim.
//!
//! Everything runs inside one `#[test]` so no concurrent test pollutes the
//! global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cachemgr::{replay, CacheSystem, FlashTierWt, PageBuf};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FlashConfig};
use flashtier_core::{ConsistencyMode, Ssc, SscConfig};
use trace::TraceEvent;

/// Counts every allocation and reallocation (frees are irrelevant: a loop
/// that allocates-and-frees per op is exactly the regression to catch).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn cache_hit_reads_do_not_allocate_after_warmup() {
    let config = SscConfig::ssc(FlashConfig::small_test())
        .with_data_mode(DataMode::Discard)
        .with_consistency(ConsistencyMode::CleanAndDirty);
    let disk = Disk::new(
        DiskConfig {
            capacity_blocks: 4096,
            ..DiskConfig::small_test()
        },
        DiskDataMode::Discard,
    );
    let mut system = FlashTierWt::new(Ssc::new(config), disk);

    // Warm-up: first pass faults each block into the cache, second pass
    // exercises the hit path once so every lazily-grown structure (scratch
    // buffers, maps, histograms) reaches steady-state capacity.
    const LBAS: u64 = 64;
    let mut buf = PageBuf::with_capacity(system.block_size());
    for round in 0..2 {
        for lba in 0..LBAS {
            system.read_into(lba, &mut buf).unwrap();
            assert_eq!(buf.len(), system.block_size(), "round {round} lba {lba}");
        }
    }
    let hits_before = system.counters();

    // Measured loop: pure cache hits, zero allocations allowed.
    const OPS: u64 = 10_000;
    let before = allocations();
    for i in 0..OPS {
        system.read_into(i % LBAS, &mut buf).unwrap();
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "cache-hit read loop allocated {during} times over {OPS} ops"
    );
    let hits = system.counters().since(&hits_before);
    assert_eq!(hits.read_hits, OPS, "loop was not pure cache hits");

    // The full replay driver over the same hit set: its cost is a small
    // per-session constant (two scratch buffers), so a session four times
    // as long allocates exactly as often — zero allocations per event.
    let mut session = |ops: u64| {
        let events: Vec<TraceEvent> = (0..ops).map(|i| TraceEvent::read(i % LBAS)).collect();
        let hits_before = system.counters();
        let before = allocations();
        let stats = replay(&mut system, &events).unwrap();
        let during = allocations() - before;
        assert_eq!(stats.ops, ops);
        let hits = system.counters().since(&hits_before);
        assert_eq!(hits.read_hits, ops, "replay was not pure cache hits");
        during
    };
    let short = session(OPS);
    let long = session(4 * OPS);
    assert!(
        short <= 8,
        "replay session allocated {short} times for {OPS} events; \
         expected a per-session constant"
    );
    assert_eq!(
        long, short,
        "replay allocates per event: {short} allocations for {OPS} events, \
         {long} for four times as many"
    );
}
