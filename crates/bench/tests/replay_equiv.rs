//! `replay()` against a reference loop.
//!
//! The replay driver takes one liberty the simulation must never see: it
//! skips filling write payloads when `CacheSystem::payload_discarded`
//! holds. The reference loop here does not — it is built only from
//! `read_into`, filled payloads and `write` — and every simulated
//! observable must match it bit for bit: simulated time, the Welford sums,
//! histogram buckets, manager counters, the counters and fault streams of
//! every layer below the manager, and the end state. In `Store` mode the
//! data is read back as well.

use std::collections::HashMap;

use cachemgr::{
    replay, write_payload_into, CacheSystem, FlashTierWb, FlashTierWt, NativeCache, PageBuf,
    ReplayStats,
};
use disksim::DiskCounters;
use flashsim::{FaultCounters, FlashCounters};
use flashtier_bench::replay::{partition_events, ReplaySetup};
use flashtier_core::{Ssc, SscCounters};
use ftl::{BlockDev, FtlCounters, HybridFtl};
use simkit::{Duration, Histogram};
use trace::{generate, Trace, TraceEvent, WorkloadSpec};

const EVENTS: u64 = 20_000;

/// The pinned workload on a quarter of its volume and cache, so every
/// system evicts and merges within a short run.
fn setup() -> ReplaySetup {
    ReplaySetup {
        range_blocks: 1 << 18,
        unique_blocks: 1 << 14,
        flash_bytes: 16 << 20,
        ..ReplaySetup::perf(EVENTS)
    }
}

/// Three trace shapes: the pinned Zipf mix, a sequential scan, and a
/// write-heavy pattern with a flatter popularity curve.
fn traces(setup: &ReplaySetup) -> Vec<Trace> {
    let shape = |name: &str, write_fraction, zipf_theta, seq_run_prob, seq_run_len, salt| {
        generate(&WorkloadSpec {
            name: name.into(),
            range_blocks: setup.range_blocks,
            unique_blocks: setup.unique_blocks,
            total_ops: setup.events,
            write_fraction,
            zipf_theta,
            seq_run_prob,
            seq_run_len,
            seed: setup.seed ^ salt,
        })
    };
    vec![
        setup.workload(),
        shape("scan-equiv", 0.30, 0.01, 1.0, 64, 0x5CA4),
        shape("mixed-equiv", 0.50, 0.60, 0.05, 8, 0x311D),
    ]
}

/// Everything observable below and beside the manager after a run.
#[derive(Debug, PartialEq)]
struct Below {
    ssc: Option<SscCounters>,
    ftl: Option<FtlCounters>,
    flash: FlashCounters,
    faults: FaultCounters,
    disk: DiskCounters,
    cached_pages: u64,
    dirty: Vec<u64>,
}

trait Stack: CacheSystem {
    fn below(&mut self) -> Below;
}

impl Stack for FlashTierWt {
    fn below(&mut self) -> Below {
        Below {
            ssc: Some(self.ssc().counters()),
            ftl: None,
            flash: self.ssc().flash_counters(),
            faults: self.ssc().fault_counters(),
            disk: self.disk().counters(),
            cached_pages: self.ssc().cached_pages(),
            dirty: self.ssc_mut().exists(0, u64::MAX).0,
        }
    }
}

impl Stack for FlashTierWb {
    fn below(&mut self) -> Below {
        let dirty = self.ssc_mut().exists(0, u64::MAX).0;
        assert_eq!(dirty.len(), self.dirty_blocks(), "dirty table out of sync");
        Below {
            ssc: Some(self.ssc().counters()),
            ftl: None,
            flash: self.ssc().flash_counters(),
            faults: self.ssc().fault_counters(),
            disk: self.disk().counters(),
            cached_pages: self.ssc().cached_pages(),
            dirty,
        }
    }
}

impl Stack for NativeCache<HybridFtl> {
    fn below(&mut self) -> Below {
        Below {
            ssc: None,
            ftl: Some(self.ssd().ftl_counters()),
            flash: self.ssd().flash_counters(),
            faults: self.fault_counters(),
            disk: self.disk().counters(),
            cached_pages: self.host_memory().entries as u64,
            dirty: vec![self.dirty_blocks() as u64],
        }
    }
}

/// The reference: one filling `read_into` or one `write` of a filled
/// payload per event, accumulated exactly as `replay` reports.
fn reference_replay<S: CacheSystem>(system: &mut S, events: &[TraceEvent]) -> ReplayStats {
    let before = system.counters();
    let block_size = system.block_size();
    let mut sim_time = Duration::ZERO;
    let mut response_hist = Histogram::new();
    let mut read_buf = PageBuf::new();
    let mut payload = PageBuf::new();
    for (i, event) in events.iter().enumerate() {
        let cost = if event.is_write() {
            write_payload_into(event.lba, i as u64, block_size, &mut payload);
            system.write(event.lba, &payload).expect("reference write")
        } else {
            system
                .read_into(event.lba, &mut read_buf)
                .expect("reference read")
        };
        sim_time += cost;
        response_hist.record(cost.as_micros());
    }
    ReplayStats {
        ops: events.len() as u64,
        sim_time,
        response_hist,
        counters: system.counters().since(&before),
    }
}

/// Bit-level equality of everything a replay reports.
fn assert_stats_identical(want: &ReplayStats, got: &ReplayStats, label: &str) {
    assert_eq!(want.ops, got.ops, "{label}: ops");
    assert_eq!(want.sim_time, got.sim_time, "{label}: sim_time");
    assert_eq!(want.counters, got.counters, "{label}: manager counters");
    assert_eq!(
        want.response_hist.buckets(),
        got.response_hist.buckets(),
        "{label}: histogram buckets"
    );
    let exact = |h: &Histogram| (h.count(), h.sum(), h.max());
    assert_eq!(
        exact(&want.response_hist),
        exact(&got.response_hist),
        "{label}: histogram count/sum/max"
    );
}

/// Drives `events` through `replay()` on one fresh system and through the
/// reference loop on another, and requires identical statistics and
/// identical state below the manager. Returns both systems.
fn check<S: Stack>(build: impl Fn() -> S, events: &[TraceEvent], label: &str) -> (S, S) {
    let (mut driven, mut reference) = (build(), build());
    let got = replay(&mut driven, events).expect("replay");
    let want = reference_replay(&mut reference, events);
    assert_stats_identical(&want, &got, label);
    assert_eq!(reference.below(), driven.below(), "{label}: below manager");
    (driven, reference)
}

/// Store mode only: every block the trace touched reads back, on both
/// systems, as the payload of its last write (zeros if never written).
fn assert_data_intact<S: Stack>(driven: &mut S, reference: &mut S, t: &Trace, label: &str) {
    let bs = driven.block_size();
    let mut last_write: HashMap<u64, Option<u64>> = HashMap::new();
    for (i, e) in t.events.iter().enumerate() {
        let slot = last_write.entry(e.lba).or_default();
        if e.is_write() {
            *slot = Some(i as u64);
        }
    }
    let (mut a, mut b, mut want) = (PageBuf::new(), PageBuf::new(), PageBuf::new());
    for (&lba, &written) in &last_write {
        match written {
            Some(i) => write_payload_into(lba, i, bs, &mut want),
            None => {
                want.fill_with(bs, 0);
            }
        }
        driven.read_into(lba, &mut a).expect("read back");
        reference.read_into(lba, &mut b).expect("read back");
        assert_eq!(a.as_slice(), want.as_slice(), "{label}: lba {lba} (replay)");
        assert_eq!(
            b.as_slice(),
            want.as_slice(),
            "{label}: lba {lba} (reference)"
        );
    }
}

fn wt_bloom(s: &ReplaySetup) -> FlashTierWt {
    FlashTierWt::new(Ssc::new(s.wt_config()), s.disk()).with_bloom_filter(0.01)
}

/// Every system over every trace shape under `s`; `verify_data` adds the
/// Store-mode read-back.
fn check_all_systems(s: &ReplaySetup, mode: &str, verify_data: bool) {
    fn run<S: Stack>(build: impl Fn() -> S, t: &Trace, label: &str, verify_data: bool) {
        let (mut driven, mut reference) = check(build, &t.events, label);
        if verify_data {
            assert_data_intact(&mut driven, &mut reference, t, label);
        }
    }
    for t in traces(s) {
        let label = |system: &str| format!("{system}/{mode}/{}", t.name);
        run(|| s.flashtier_wt(), &t, &label("wt"), verify_data);
        run(|| wt_bloom(s), &t, &label("wt-bloom"), verify_data);
        run(|| s.flashtier_wb(), &t, &label("wb"), verify_data);
        run(|| s.native_wb(), &t, &label("native"), verify_data);
    }
}

#[test]
fn discard_mode_replay_matches_reference() {
    let s = setup();
    assert!(s.flashtier_wt().payload_discarded());
    assert!(s.flashtier_wb().payload_discarded());
    assert!(s.native_wb().payload_discarded());
    check_all_systems(&s, "discard", false);
}

#[test]
fn store_mode_replay_matches_reference_and_keeps_real_bytes() {
    let s = setup().with_stored_data();
    assert!(!s.flashtier_wt().payload_discarded());
    assert!(!s.flashtier_wb().payload_discarded());
    assert!(!s.native_wb().payload_discarded());
    check_all_systems(&s, "store", true);
}

#[test]
fn discard_and_store_modes_agree_on_every_simulated_number() {
    // Whatever host work a stack skips because nothing can read its bytes
    // back (payload fills, destage transfers, native's encoded metadata
    // pages) must leave timing, counters and fault draws where they were.
    fn run<S: Stack>(build: impl Fn(&ReplaySetup) -> S, s: &ReplaySetup, label: &str) -> S {
        let (mut discard, mut store) = (build(s), build(&s.clone().with_stored_data()));
        assert!(discard.payload_discarded() && !store.payload_discarded());
        let got = replay(&mut discard, &s.workload().events).expect("discard replay");
        let want = replay(&mut store, &s.workload().events).expect("store replay");
        assert_stats_identical(&want, &got, label);
        assert_eq!(store.below(), discard.below(), "{label}: below manager");
        discard
    }
    for ppm in [0, 500] {
        let s = setup().with_faults(ppm);
        run(ReplaySetup::flashtier_wt, &s, &format!("wt faults={ppm}"));
        run(ReplaySetup::flashtier_wb, &s, &format!("wb faults={ppm}"));
        let native = run(ReplaySetup::native_wb, &s, &format!("native faults={ppm}"));
        assert!(native.counters().metadata_writes > 0, "faults={ppm}");
    }
}

#[test]
fn faulted_replay_draws_the_same_fault_stream() {
    // `replay()` must advance the fault injector exactly as the reference
    // loop does, or every later fault lands on a different event.
    let s = setup().with_faults(500);
    let t = s.workload();
    let injected = |b: Below| b.faults.total();
    let (mut wt, _) = check(|| s.flashtier_wt(), &t.events, "wt/faults");
    let (mut wb, _) = check(|| s.flashtier_wb(), &t.events, "wb/faults");
    let (mut native, _) = check(|| s.native_wb(), &t.events, "native/faults");
    check(|| wt_bloom(&s), &t.events, "wt-bloom/faults");
    assert!(injected(wt.below()) > 0, "wt: fault plan never fired");
    assert!(injected(wb.below()) > 0, "wb: fault plan never fired");
    assert!(
        injected(native.below()) > 0,
        "native: fault plan never fired"
    );
}

#[test]
fn sharded_replay_matches_reference_per_shard() {
    const SHARDS: usize = 4;
    for ppm in [0, 500] {
        let s = setup().with_faults(ppm);
        let t = s.workload();
        let router = s.wt_shard_set(SHARDS).router();
        let parts = partition_events(&t.events, router);
        for (i, events) in parts.iter().enumerate() {
            // A fresh set per build: `check` takes shard `i` of each.
            let label = format!("shard {i}/{SHARDS} faults={ppm}");
            check(
                || s.wt_shard_set(SHARDS).into_shards().0.swap_remove(i),
                events,
                &format!("wt {label}"),
            );
            check(
                || s.wb_shard_set(SHARDS).into_shards().0.swap_remove(i),
                events,
                &format!("wb {label}"),
            );
        }
    }
}
