//! Allocation-regression gate for the data path.
//!
//! The replay loop's value proposition is an allocation-free steady state:
//! after warm-up, a cache-hit read loop in `Discard` mode must perform zero
//! per-op heap allocations. A counting `#[global_allocator]` wrapper makes
//! that a hard assertion instead of a profiling claim.
//!
//! Only the measuring thread's allocations count, and only while it has
//! armed the counter: the libtest harness thread allocates on its own
//! schedule and must not trip the assertion.
//!
//! The same allocator also keeps a live-bytes count, which checks that the
//! host tables' `heap_bytes` are the bytes they really hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cachemgr::{
    replay, CacheSystem, DirtyTable, FlashTierWt, NativeCache, NativeConsistency, NativeMode,
    PageBuf,
};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FlashConfig, Geometry, Ppn};
use flashtier_core::{BlockEntry, ConsistencyMode, PagePtr, Ssc, SscConfig, SscMaps};
use ftl::{BlockDev, HybridFtl, SsdConfig};
use simkit::SimRng;
use trace::TraceEvent;

/// Counts the allocations and reallocations of a thread that has armed it
/// (frees are irrelevant: a loop that allocates-and-frees per op is exactly
/// the regression to catch), and separately the bytes it holds.
struct CountingAlloc;

thread_local! {
    /// `Some(n)`: this thread is measuring and has allocated `n` times
    /// since arming. `const`-initialised and without a destructor, so
    /// reading it inside the allocator never allocates or registers
    /// anything.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
    /// `Some(n)`: this thread is measuring and holds `n` more bytes than
    /// when it armed this count (negative once it frees older blocks).
    static LIVE_BYTES: Cell<Option<isize>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

fn count_live(delta: isize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get().map(|n| n + delta)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_live(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_live(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `measured` with this thread's counter armed; returns how often it
/// allocated, and its result.
fn allocations_of<R>(measured: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.set(Some(0));
    let result = measured();
    (ALLOCATIONS.take().expect("armed above"), result)
}

/// Runs `measured` with this thread's live-bytes count armed at zero; it
/// reads the count with [`live_bytes`].
fn with_live_bytes<R>(measured: impl FnOnce() -> R) -> R {
    LIVE_BYTES.set(Some(0));
    let result = measured();
    LIVE_BYTES.set(None);
    result
}

/// Bytes this thread holds beyond what it held when it armed the count.
fn live_bytes() -> u64 {
    let live = LIVE_BYTES.get().expect("armed by with_live_bytes");
    u64::try_from(live).expect("freed more than it allocated since arming")
}

fn disk() -> Disk {
    Disk::new(
        DiskConfig {
            capacity_blocks: 4096,
            ..DiskConfig::small_test()
        },
        DiskDataMode::Discard,
    )
}

#[test]
fn cache_hit_reads_do_not_allocate_after_warmup() {
    let (seen, ()) = allocations_of(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(64))));
    assert_eq!(seen, 1, "the counter misses this thread's allocations");
    let config = SscConfig::ssc(FlashConfig::small_test())
        .with_data_mode(DataMode::Discard)
        .with_consistency(ConsistencyMode::CleanAndDirty);
    let mut system = FlashTierWt::new(Ssc::new(config), disk());

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
    let (during, ()) = allocations_of(|| {
        for i in 0..OPS {
            system.read_into(i % LBAS, &mut buf).unwrap();
        }
    });
    assert_eq!(
        during, 0,
        "cache-hit read loop allocated {during} times over {OPS} ops"
    );
    let hits = system.counters().since(&hits_before);
    assert_eq!(hits.read_hits, OPS, "loop was not pure cache hits");

    // The same over the two map levels apart: blocks a merge has turned
    // into data-block pages, and blocks written and not yet merged, which
    // resolve through their logical block's log row.
    for level in ["block", "page"] {
        let at_level: Vec<u64> = (0..LBAS)
            .filter(|&lba| {
                system
                    .ssc()
                    .debug_lookup(lba)
                    .is_some_and(|found| found.2 == level)
            })
            .collect();
        assert!(!at_level.is_empty(), "warm-up left nothing {level}-mapped");
        let (during, ()) = allocations_of(|| {
            for i in 0..OPS as usize {
                let lba = at_level[i % at_level.len()];
                system.read_into(lba, &mut buf).unwrap();
            }
        });
        assert_eq!(during, 0, "{level}-level hit loop allocated {during} times");
    }
    let hits = system.counters().since(&hits_before);
    assert_eq!(hits.read_hits, 3 * OPS, "level loops were not pure hits");

    // The full replay driver over the same hit set: its cost is a small
    // per-session constant (two scratch buffers), so a session four times
    // as long allocates exactly as often — zero allocations per event.
    let mut session = |ops: u64| {
        let events: Vec<TraceEvent> = (0..ops).map(|i| TraceEvent::read(i % LBAS)).collect();
        let hits_before = system.counters();
        let (during, stats) = allocations_of(|| replay(&mut system, &events));
        let stats = stats.unwrap();
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

/// The native stack's hit path through the hybrid FTL's log directory:
/// blocks written to the SSD and not yet merged are read through their
/// logical block's log row, which must not allocate either.
#[test]
fn native_log_resident_hits_do_not_allocate() {
    let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Discard);
    let mut system = NativeCache::new(ssd, disk(), NativeMode::WriteBack, NativeConsistency::None);
    // Fewer fills than one log block holds: nothing can have been merged,
    // so every cached block is log-resident.
    const LBAS: u64 = 4;
    let mut buf = PageBuf::with_capacity(system.block_size());
    for _round in 0..2 {
        for lba in 0..LBAS {
            system.read_into(lba, &mut buf).unwrap();
        }
    }
    let ftl = system.ssd().ftl_counters();
    assert_eq!(ftl.host_writes, LBAS);
    assert_eq!((ftl.switch_merges, ftl.full_merges), (0, 0));
    assert_eq!(system.ssd().log_blocks_in_use(), 1);
    let hits_before = system.counters();

    const OPS: u64 = 10_000;
    let (during, ()) = allocations_of(|| {
        for i in 0..OPS {
            system.read_into(i % LBAS, &mut buf).unwrap();
        }
    });
    assert_eq!(during, 0, "log-resident hit loop allocated {during} times");
    let hits = system.counters().since(&hits_before);
    assert_eq!(hits.read_hits, OPS, "loop was not pure cache hits");
}

/// The native stack in steady state off the hit path: one seeded cycle of
/// reads and writes over four times the cache, replayed again and again,
/// misses, fills, evicts and overwrites, so its FTL keeps appending to log
/// blocks and merging them (64-page blocks, so log rows pass through every
/// array class). Once warm, a replay session allocates a per-session
/// constant: a session four times as long allocates exactly as often.
///
/// Two things grow for good, and the warm-up must outlast the first. The
/// row pool holds the most arrays of each class the directory has ever had
/// live at once, a record that random traffic still breaks now and then
/// after 20 cycles here and, repeating one cycle, no longer after that.
/// And flashsim's wear histogram grows, by doubling, with the highest
/// erase count: a handful of allocations over a device's life, which the
/// measured sessions must not straddle — the test checks that they do not.
#[test]
fn native_replay_through_merges_allocates_a_per_session_constant() {
    let flash = FlashConfig {
        geometry: Geometry::new(2, 32, 64, 512, 16),
        ..FlashConfig::small_test()
    };
    let ssd = HybridFtl::new(
        SsdConfig {
            flash,
            ..SsdConfig::small_test()
        },
        DataMode::Discard,
    );
    let span = 4 * 4096;
    let disk = Disk::new(
        DiskConfig {
            capacity_blocks: span,
            ..DiskConfig::small_test()
        },
        DiskDataMode::Discard,
    );
    let mut system = NativeCache::new(ssd, disk, NativeMode::WriteBack, NativeConsistency::Durable);
    assert!(span >= 4 * system.slots() as u64);
    let mut rng = SimRng::seed_from(0x5EED);
    const CYCLE: usize = 5_000;
    let cycle: Vec<TraceEvent> = (0..CYCLE)
        .map(|_| {
            let lba = rng.gen_range(span);
            match rng.gen_range(10) {
                0..=2 => TraceEvent::write(lba),
                _ => TraceEvent::read(lba),
            }
        })
        .collect();
    let mut session = |cycles: usize| {
        let events = cycle.repeat(cycles);
        let ftl_before = system.ssd().ftl_counters();
        let (during, stats) = allocations_of(|| replay(&mut system, &events));
        assert_eq!(stats.unwrap().ops, events.len() as u64);
        let ftl = system.ssd().ftl_counters();
        let merges =
            ftl.full_merges + ftl.switch_merges - ftl_before.full_merges - ftl_before.switch_merges;
        assert!(merges > 0, "{cycles} cycles merged nothing");
        (during, system.ssd().wear().max_erases)
    };
    let (_, wear_before) = session(40);
    let (short, _) = session(1);
    let (long, wear_after) = session(4);
    // The histogram holds `max_erases + 2` counts, in a power-of-two
    // capacity that this keeps the same.
    assert_eq!(
        (wear_before + 1).ilog2(),
        (wear_after + 1).ilog2(),
        "the highest erase count went from {wear_before} to {wear_after}: \
         re-pick the warm-up so that the sessions stay inside one doubling"
    );
    assert!(
        short <= 8,
        "replay session allocated {short} times for {CYCLE} events; \
         expected a per-session constant"
    );
    assert_eq!(
        long, short,
        "native replay allocates per event: {short} allocations for {CYCLE} \
         events, {long} for four times as many"
    );
}

/// A dirty-block table built and driven with the live-bytes count armed
/// holds exactly what `host_memory().heap_bytes` reports: nothing but its
/// bucket heads while empty, then its records and heads as fills cross
/// the doublings, up to the full table.
#[test]
fn dirty_table_heap_bytes_are_the_bytes_it_holds() {
    let mut sizes = Vec::with_capacity(64);
    with_live_bytes(|| {
        let mut table = DirtyTable::new(1000);
        assert_eq!(table.memory().heap_bytes, live_bytes(), "empty");
        assert!(live_bytes() < 64, "an empty table holds {} B", live_bytes());
        sizes.push(live_bytes());
        for lba in 0..1000u64 {
            assert!(table.touch(3 * lba));
            assert_eq!(
                table.memory().heap_bytes,
                live_bytes(),
                "{} blocks",
                lba + 1
            );
            if sizes.last() != Some(&live_bytes()) {
                sizes.push(live_bytes());
            }
        }
        assert!(!table.touch(1), "full");
        assert_eq!(table.memory().heap_bytes, live_bytes(), "full");
        assert!(sizes.len() >= 10, "grew only through {sizes:?}");
        drop(table);
        assert_eq!(live_bytes(), 0, "the dropped table left bytes behind");
    });
}

/// The same for a Native stack built and driven with the count armed. Its
/// construction allocates only its slot table's bucket heads. Its fills
/// also grow the FTL's log directory, and the first one sets up a few
/// bytes of FTL state that neither report counts; after that, every byte
/// the stack comes to hold must be in its host table's `heap_bytes` or in
/// its FTL's, fill by fill, up to the full table.
#[test]
fn native_heap_bytes_are_the_bytes_its_table_holds() {
    let ssd = HybridFtl::new(SsdConfig::small_test(), DataMode::Discard);
    let device_start = ssd.map_memory().heap_bytes;
    let disk = disk();
    let mut buf = PageBuf::with_capacity(disk.block_size());
    let mut sizes = Vec::with_capacity(64);
    with_live_bytes(|| {
        let mut system =
            NativeCache::new(ssd, disk, NativeMode::WriteThrough, NativeConsistency::None);
        let host = |s: &NativeCache<HybridFtl>| s.host_memory().heap_bytes;
        assert_eq!(host(&system), live_bytes(), "empty");
        assert!(live_bytes() < 64, "an empty table holds {} B", live_bytes());
        // What the stack holds beyond the two reports.
        let unreported = |s: &NativeCache<HybridFtl>| {
            live_bytes() - host(s) - (s.device_memory().heap_bytes - device_start)
        };
        system.read_into(0, &mut buf).unwrap();
        let first_write = unreported(&system);
        assert!(
            first_write <= 64,
            "the first fill held {first_write} B unreported"
        );
        for lba in 1..system.slots() as u64 {
            system.read_into(lba, &mut buf).unwrap();
            assert_eq!(unreported(&system), first_write, "{} fills", lba + 1);
            if sizes.last() != Some(&host(&system)) {
                sizes.push(host(&system));
            }
        }
        assert_eq!(system.host_memory().entries, system.slots(), "full");
    });
    assert!(sizes.len() >= 6, "grew only through {sizes:?}");
}

/// The SSC's forward map built and driven with the live-bytes count armed
/// holds exactly what `heap_bytes` reports: nothing while empty, then its
/// table and log rows through page inserts, block upserts and rows growing
/// into the next array class across the table's doublings. The arrays rows
/// give up wait in the row pool, counted: rows started after a drain take
/// them without growing the heap, and dropping the maps frees everything.
#[test]
fn ssc_maps_heap_bytes_are_the_bytes_they_hold() {
    const LBNS: u64 = 2048;
    let mut sizes = Vec::with_capacity(4 * LBNS as usize);
    let mut taken = Vec::with_capacity(64);
    with_live_bytes(|| {
        let mut maps = SscMaps::new(64);
        assert_eq!(maps.heap_bytes(), live_bytes(), "empty");
        // The label is formatted only on failure: a `String` would count.
        let mut check = |maps: &SscMaps, step: &str, lbn: u64| {
            assert_eq!(maps.heap_bytes(), live_bytes(), "{step} lbn {lbn}");
            if sizes.last() != Some(&live_bytes()) {
                sizes.push(live_bytes());
            }
        };
        // A log page for one logical block, a data block for another.
        for lbn in 0..LBNS {
            maps.insert_page(lbn * 64 + lbn % 64, PagePtr::new(Ppn(lbn), true));
            maps.insert_block(LBNS + lbn, BlockEntry::new(lbn, u64::MAX, 0));
            check(&maps, "filled", lbn);
        }
        // Upsert every block, and grow every row past its 4-slot array.
        for lbn in 0..LBNS {
            maps.insert_block(LBNS + lbn, BlockEntry::new(lbn, u64::MAX, 1));
            for offset in (1..5).map(|o| (lbn % 64 + o) % 64) {
                maps.insert_page(lbn * 64 + offset, PagePtr::new(Ppn(offset), false));
            }
            check(&maps, "grew", lbn);
        }
        // Drain the rows: their log-only entries go, the blocks' stay.
        for lbn in 0..LBNS {
            taken.clear();
            assert_eq!(maps.take_log(lbn, &mut taken), 1 << (lbn % 64));
            assert_eq!(taken.len(), 5, "lbn {lbn}");
            check(&maps, "drained", lbn);
        }
        // Every row array is in the pool now, and rows started in the
        // blocks' entries take theirs from it.
        let pooled = live_bytes();
        for lbn in 0..LBNS {
            maps.insert_page((LBNS + lbn) * 64, PagePtr::new(Ppn(lbn), false));
            assert_eq!(live_bytes(), pooled, "refilled lbn {lbn}");
            check(&maps, "refilled", lbn);
        }
        for lbn in LBNS..2 * LBNS {
            taken.clear();
            maps.take_log(lbn, &mut taken);
            assert!(maps.remove_block(lbn).is_some(), "lbn {lbn}");
            check(&maps, "emptied", lbn);
        }
        assert_eq!(maps.cached_pages(), 0, "emptied");
        drop(maps);
        assert_eq!(live_bytes(), 0, "the dropped maps left bytes behind");
    });
    // Every row the fill and growth phases allocate moves the count.
    assert!(sizes.len() >= 2 * LBNS as usize, "{} sizes", sizes.len());
}

/// The SSC's log rows churned through every array class — pages inserted,
/// overwritten, removed one by one and taken whole — make no allocator
/// call once the row pool has seen the churn's busiest moment. Every
/// logical block keeps a data block, so the table never gains or loses an
/// entry and only the rows change.
#[test]
fn ssc_log_row_churn_does_not_allocate_on_a_warm_pool() {
    // A multiple of 63, so that every round has the same multiset of row
    // lengths, rotated among the blocks.
    const LBNS: u64 = 4 * 63;
    let mut maps = SscMaps::new(64);
    for lbn in 0..LBNS {
        maps.insert_block(lbn, BlockEntry::new(lbn, 1, 0));
    }
    let mut taken = Vec::with_capacity(64);
    let mut round = |maps: &mut SscMaps, round: u64| {
        // Offsets 1..=len: offset 0 is the data block's.
        let len = |lbn: u64| 1 + (lbn + round) * 7 % 63;
        for lbn in 0..LBNS {
            for offset in (1..=len(lbn)).rev() {
                maps.insert_page(lbn * 64 + offset, PagePtr::new(Ppn(offset), true));
            }
            maps.insert_page(lbn * 64 + 1, PagePtr::new(Ppn(0), false));
        }
        for lbn in 0..LBNS {
            if (lbn + round).is_multiple_of(2) {
                taken.clear();
                assert_eq!(
                    maps.take_log(lbn, &mut taken).count_ones() as u64,
                    len(lbn) - 1
                );
                assert_eq!(taken.len() as u64, len(lbn), "lbn {lbn}");
            } else {
                for offset in 1..=len(lbn) {
                    maps.remove_page(lbn * 64 + offset).expect("a mapped page");
                }
            }
            assert_eq!(maps.page(lbn * 64 + 1), None, "lbn {lbn}");
        }
        assert_eq!(maps.cached_pages(), LBNS, "the data blocks' pages");
    };
    round(&mut maps, 0);
    let (during, ()) = allocations_of(|| {
        for r in 1..=8 {
            round(&mut maps, r);
        }
    });
    assert_eq!(during, 0, "log-row churn allocated {during} times");
}
