//! Serve-path fault-tolerance torture tests (DESIGN.md §12).
//!
//! * **No acked write is lost under network faults** — retrying clients
//!   drive the server while deterministic resets, partial writes, stalls
//!   and delays are injected on both sides of the wire; a shadow model of
//!   each client's last acknowledged PUT per LBA is verified live (GETs)
//!   and again after graceful shutdown + crash + recovery.
//! * **Every call is deadline-bounded** — a `RetryingClient` call either
//!   returns a response or errors within its op deadline, injected faults
//!   or not.
//! * **Quarantine isolates exactly one shard** — an armed unrecoverable
//!   device fault (`PowerLoss` inside group commit) quarantines the
//!   owning shard: its requests answer `SHARD_FAILED`, every other shard
//!   keeps serving, and shutdown still drains the healthy shards.
//! * **A bad address is not a fault** — a PUT the SSC cannot store
//!   answers `ERR` and quarantines nothing.
//!
//! Scaled by `FLASHTIER_FUZZ_SCALE` (nightly deep CI sets 3) like the
//! crash-point fuzzer.

use std::collections::HashMap;
use std::time::{Duration as StdDuration, Instant};

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, ShardSet};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashtier_core::{shard_config, CrashSite, ShardRouter, Ssc, SscConfig};
use flashtier_server::{
    BlockClient, NetFaultPlan, RetryConfig, RetryingClient, ServeSystem, Server, ServerConfig,
    STATUS_ERR,
};

const BLOCK: usize = 512;
const CLIENTS: usize = 4;
/// Transport-fault rate for the torture runs: ~2.5% of transport
/// operations are interfered with, orders of magnitude beyond any real
/// network, so every retry path fires within a few hundred requests.
const TORTURE_PPM: u32 = 25_000;

/// Campaign multiplier from `FLASHTIER_FUZZ_SCALE` (default 1; deep CI
/// sets 3).
fn fuzz_scale() -> u64 {
    std::env::var("FLASHTIER_FUZZ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A roomier geometry than `small_test` so a 4-way split leaves usable
/// shards (mirrors the server concurrency tests).
fn wide_config() -> SscConfig {
    let mut cfg = SscConfig::small_test();
    let g = cfg.flash.geometry;
    cfg.flash.geometry = flashsim::Geometry::new(
        g.planes(),
        32,
        g.pages_per_block(),
        g.page_size(),
        g.oob_size(),
    );
    cfg
}

fn disk() -> Disk {
    Disk::new(DiskConfig::small_test(), DiskDataMode::Store)
}

fn wt_set(shards: usize) -> ShardSet<FlashTierWt> {
    let config = wide_config();
    let per_shard = shard_config(&config, shards);
    let ppb = config.flash.geometry.pages_per_block();
    ShardSet::from_parts(
        (0..shards)
            .map(|_| FlashTierWt::new(Ssc::new(per_shard), disk()))
            .collect(),
        ShardRouter::new(shards, ppb),
    )
}

fn wb_set(shards: usize) -> ShardSet<FlashTierWb> {
    let config = wide_config();
    let per_shard = shard_config(&config, shards);
    let ppb = config.flash.geometry.pages_per_block();
    ShardSet::from_parts(
        (0..shards)
            .map(|_| FlashTierWb::new(Ssc::new(per_shard), disk()))
            .collect(),
        ShardRouter::new(shards, ppb),
    )
}

/// Self-identifying block content for (lba, version k).
fn payload(lba: u64, k: u64) -> Vec<u8> {
    let tag = (lba.wrapping_mul(0x9E37_79B9).wrapping_add(k)) as u8;
    let mut data = vec![tag; BLOCK];
    data[..8].copy_from_slice(&lba.to_le_bytes());
    data[8..16].copy_from_slice(&k.to_le_bytes());
    data
}

/// The torture body, generic over the manager: faulted server, faulted
/// retrying clients on disjoint LBA classes, live read-your-writes
/// checks, then crash + recovery and a full shadow-model read-back.
fn run_torture<S>(set: ShardSet<S>, seed: u64, recover: impl Fn(&mut S))
where
    S: ServeSystem + 'static,
{
    let ops_per_client = 300 * fuzz_scale();
    let config = ServerConfig {
        net_faults: Some(NetFaultPlan::uniform(seed, TORTURE_PPM)),
        ..ServerConfig::default()
    };
    let server = Server::start(set, "127.0.0.1:0", config).expect("bind server");
    let addr = server.addr();
    let op_deadline = RetryConfig::default_for(0).op_deadline;
    // Generous slack over the op deadline: the bound being checked is
    // "bounded", not "fast" — CI machines stall.
    let call_bound = op_deadline + StdDuration::from_secs(5);

    let shadows: Vec<HashMap<u64, u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut cfg = RetryConfig::default_for(seed ^ (c as u64 + 1));
                    cfg.net_faults = Some(
                        NetFaultPlan::uniform(seed ^ 0xC11E_4715, TORTURE_PPM)
                            .decorrelated(c as u64),
                    );
                    let mut client =
                        RetryingClient::connect(addr, c as u64 + 1, cfg).expect("connect client");
                    assert_eq!(client.block_size(), BLOCK);
                    // lba -> version of the last acked PUT whose durability
                    // is certain.
                    let mut shadow: HashMap<u64, u64> = HashMap::new();
                    let mut state = seed ^ (0x51AB_51AB * (c as u64 + 1));
                    for i in 0..ops_per_client {
                        let r = lcg(&mut state);
                        // Disjoint per-client LBA classes (mod CLIENTS) so
                        // "last acked PUT" needs no cross-client ordering.
                        let lba = (r % 64) * CLIENTS as u64 + c as u64;
                        let started = Instant::now();
                        match r % 10 {
                            0 => {
                                // Durability barriers are idempotent and
                                // freely retried; transient failure is
                                // acceptable, a wrong status is not.
                                if let Ok(resp) = client.flush() {
                                    assert!(resp.ok(), "client {c}: FLUSH status {}", resp.status);
                                }
                            }
                            1..=4 => {
                                if let Ok(resp) = client.get(lba) {
                                    assert!(
                                        resp.ok(),
                                        "client {c}: GET of lba {lba} status {}",
                                        resp.status
                                    );
                                    if let Some(&k) = shadow.get(&lba) {
                                        assert_eq!(
                                            resp.payload,
                                            payload(lba, k),
                                            "client {c}: acked write to lba {lba} not visible"
                                        );
                                    }
                                }
                            }
                            _ => match client.put(lba, &payload(lba, i)) {
                                Ok(resp) if resp.ok() => {
                                    shadow.insert(lba, i);
                                }
                                Ok(_) | Err(_) => {
                                    // Not acked: the LBA is old-or-new
                                    // from here on; drop it from the
                                    // certain set.
                                    shadow.remove(&lba);
                                }
                            },
                        }
                        let took = started.elapsed();
                        assert!(
                            took <= call_bound,
                            "client {c}: call {i} took {took:?}, deadline {op_deadline:?}"
                        );
                    }
                    // The injected faults must actually have exercised the
                    // retry machinery somewhere in the fleet; checked
                    // per-fleet below via merged stats.
                    (shadow, client.stats())
                })
            })
            .collect();
        let mut shadows = Vec::new();
        let mut retries = 0u64;
        let mut client_injected = 0u64;
        for h in handles {
            let (shadow, stats) = h.join().expect("torture client thread");
            retries += stats.retries + stats.busy_retries;
            client_injected += stats.net_faults.total();
            assert_eq!(
                stats.deadline_failures, 0,
                "a local server must be survivable within the deadline"
            );
            shadows.push(shadow);
        }
        assert!(client_injected > 0, "client-side fault plan never fired");
        assert!(retries > 0, "faults fired but nothing was ever retried");
        shadows
    });

    let report = server.shutdown();
    assert!(
        report.panics.is_empty(),
        "worker panics: {:?}",
        report.panics
    );
    assert!(
        report.shard_health.iter().all(|h| h.is_healthy()),
        "network faults must never quarantine a shard: {:?}",
        report.shard_health
    );
    assert!(
        report.stats.net_faults_injected > 0,
        "server-side fault plan never fired"
    );
    let (mut stacks, router) = report.stacks.expect("no worker lost").into_shards();
    for stack in &mut stacks {
        recover(stack);
    }
    let mut checked = 0u64;
    for (c, shadow) in shadows.iter().enumerate() {
        for (&lba, &k) in shadow {
            let (data, _) = CacheSystem::read(&mut stacks[router.shard_of(lba)], lba)
                .expect("read back acked write");
            assert_eq!(
                data,
                payload(lba, k),
                "client {c}: acked write to lba {lba} lost across crash+recovery"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "torture run acked no writes");
}

#[test]
fn torture_loses_no_acked_writes_wt() {
    run_torture(wt_set(4), 0xF417_0001, |s| {
        s.crash_and_recover().expect("recover wt shard");
    });
}

#[test]
fn torture_loses_no_acked_writes_wb() {
    run_torture(wb_set(4), 0xF417_0002, |s| {
        s.crash_and_recover().expect("recover wb shard");
    });
}

#[test]
fn put_at_the_top_lba_is_refused_without_quarantine() {
    let set = wb_set(2);
    let router = set.router();
    let owner = router.shard_of(u64::MAX);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let mut client = BlockClient::connect(server.addr()).expect("connect");

    // The SSC reserves u64::MAX for internal pages' OOB: the PUT fails as
    // a plain error, like any other bad address.
    let resp = client
        .put(u64::MAX, &payload(u64::MAX, 1))
        .expect("top put");
    assert_eq!(resp.status, STATUS_ERR);

    // The owning shard keeps serving.
    let lba = (0..1000u64)
        .find(|&l| router.shard_of(l) == owner)
        .expect("an lba on the owning shard");
    let data = payload(lba, 2);
    assert!(client.put(lba, &data).expect("owner put").ok());
    let resp = client.get(lba).expect("owner get");
    assert!(resp.ok());
    assert_eq!(resp.payload, data);

    drop(client);
    let report = server.shutdown();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_eq!(report.stats.shards_quarantined, 0);
    assert!(report.shard_health.iter().all(|h| h.is_healthy()));
}

#[test]
fn unrecoverable_shard_fault_quarantines_only_that_shard() {
    let shards = 4;
    let mut set = wb_set(shards);
    let router = set.router();
    let victim = router.shard_of(0);
    // Arm a PowerLoss inside the victim's next group commit: the worker's
    // apply path hits an unrecoverable device error mid-load.
    set.shard_mut(victim)
        .ssc_mut()
        .arm_crash(CrashSite::GroupCommit, 0);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let mut client = BlockClient::connect(server.addr()).expect("connect");

    // Hammer the victim shard until the armed fault fires and the shard
    // answers SHARD_FAILED (group commit fires within a few dozen
    // buffered records).
    let victim_lbas: Vec<u64> = (0..100_000u64)
        .filter(|&l| router.shard_of(l) == victim)
        .take(600)
        .collect();
    let mut quarantined_at = None;
    for (n, &l) in victim_lbas.iter().enumerate() {
        let resp = client.put(l, &payload(l, 1)).expect("victim put");
        if resp.shard_failed() {
            quarantined_at = Some(n);
            break;
        }
        assert!(resp.ok(), "pre-quarantine PUT status {}", resp.status);
    }
    let quarantined_at = quarantined_at.expect("armed GroupCommit crash never fired");

    // Every further request owned by the victim is refused...
    let resp = client.get(victim_lbas[0]).expect("victim get");
    assert!(resp.shard_failed(), "quarantined shard must refuse GETs");
    let resp = client
        .put(victim_lbas[1], &payload(victim_lbas[1], 2))
        .expect("victim put");
    assert!(resp.shard_failed(), "quarantined shard must refuse PUTs");

    // ...while every other shard keeps serving reads and writes.
    for l in (0..1000u64)
        .filter(|&l| router.shard_of(l) != victim)
        .take(24)
    {
        let data = payload(l, 3);
        assert!(client.put(l, &data).expect("healthy put").ok());
        let resp = client.get(l).expect("healthy get");
        assert!(resp.ok());
        assert_eq!(resp.payload, data, "healthy shard served wrong data");
    }

    // A whole-device FLUSH cannot cover the quarantined shard: the
    // barrier completes but reports the degradation.
    let resp = client.flush().expect("flush");
    assert!(
        resp.shard_failed(),
        "FLUSH over a quarantined shard must answer SHARD_FAILED, got {}",
        resp.status
    );

    drop(client);
    let report = server.shutdown();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_eq!(report.stats.shards_quarantined, 1);
    let unhealthy: Vec<usize> = report
        .shard_health
        .iter()
        .enumerate()
        .filter(|(_, h)| !h.is_healthy())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(unhealthy, vec![victim], "exactly the victim is quarantined");
    // The healthy shards were still drained and every stack comes back.
    let (stacks, _) = report.stacks.expect("no worker thread lost").into_shards();
    assert_eq!(stacks.len(), shards);
    // Sanity on the trigger: quarantine happened mid-load, not at
    // shutdown.
    assert!(quarantined_at < victim_lbas.len());
}
