//! Serve-path fault-tolerance torture tests (DESIGN.md §12).
//!
//! * **No acked write is lost under network faults** — retrying clients
//!   drive the server while deterministic resets, partial writes, stalls
//!   and delays are injected on both sides of the wire; each client's
//!   reads are checked against its own guarantee model (`flashtier_testkit`:
//!   an acked PUT reads back exactly, an un-acked one as the last acked
//!   version or any un-acked version since) live (GETs) and again after
//!   graceful shutdown + crash + recovery. It runs in two
//!   shapes: a hot span that fits in the shards' caches, and a span wider
//!   than a shard's data capacity, which must evict and merge under the
//!   faults.
//! * **Every call is deadline-bounded** — a `RetryingClient` call either
//!   returns a response or errors within its op deadline, injected faults
//!   or not.
//! * **Quarantine isolates exactly one shard** — an armed unrecoverable
//!   device fault (`PowerLoss` inside group commit) quarantines the
//!   owning shard: its requests answer `SHARD_FAILED`, every other shard
//!   keeps serving, and shutdown still drains the healthy shards.
//! * **A bad address is not a fault** — a PUT the SSC cannot store, or
//!   one past the disk's end, answers `ERR`, quarantines nothing and
//!   leaves the shard acking later PUTs.
//! * **Media faults stay below the wire** — pipelined load over shards
//!   whose flash injects seeded faults gets a response to every request
//!   and never a malformed frame.
//! * **A resent PUT is applied at most once** — the same `(session
//!   token, req_id)` on a fresh connection is acknowledged, not applied
//!   again (DESIGN.md §12).
//!
//! The torture runs scale with `FLASHTIER_FUZZ_SCALE` like the crash-point
//! fuzzer: 1,200 operations each by default, 100,800 at the nightly deep
//! CI's 84.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration as StdDuration, Instant};

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, ShardSet};
use flashsim::FaultPlan;
use flashtier_core::{decorrelate_fault_seed, CrashSite};
use flashtier_server::{
    BlockClient, Hello, NetFaultPlan, Request, Response, RetryConfig, RetryingClient, ServeSystem,
    Server, ServerConfig, STATUS_ERR, STATUS_OK,
};
use flashtier_testkit::{fuzz_scale, test_disk, wide_shards, Codec, Model, PowerCycle, Tagged};

const BLOCK: usize = 512;
const CLIENTS: usize = 4;
/// Transport-fault rate for the torture runs: ~2.5% of transport
/// operations are interfered with, orders of magnitude beyond any real
/// network, so every retry path fires within a few hundred requests.
const TORTURE_PPM: u32 = 25_000;
/// LBAs per torture client. The hot span fits in the shards' caches; the
/// pressure span alone is wider than one shard's data capacity.
const HOT_SPAN: u64 = 64;
const PRESSURE_SPAN: u64 = 1024;
/// Media-fault rate of every class for the serve smoke.
const MEDIA_PPM: u32 = 1_000;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Self-identifying block content for (lba, version k).
fn payload(lba: u64, k: u64) -> Vec<u8> {
    Tagged.encode(lba, k, BLOCK)
}

/// The torture body, generic over the manager: faulted server, faulted
/// retrying clients on disjoint LBA classes of `span` blocks each, live
/// read-your-writes checks, then crash + recovery and a full shadow-model
/// read-back. Returns the silent evictions and merges the shards ran
/// before recovery.
fn run_torture<S: ServeSystem + PowerCycle + 'static>(
    set: ShardSet<S>,
    seed: u64,
    span: u64,
) -> u64 {
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

    let models: Vec<Model> = std::thread::scope(|scope| {
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
                    // What this client's reads may return: its LBAs are
                    // its own, so no other client's PUT can land on them.
                    let mut model = Model::new(BLOCK);
                    let mut state = seed ^ (0x51AB_51AB * (c as u64 + 1));
                    for i in 0..ops_per_client {
                        let r = lcg(&mut state);
                        // Disjoint per-client LBA classes (mod CLIENTS) so
                        // "last acked PUT" needs no cross-client ordering.
                        let lba = (r % span) * CLIENTS as u64 + c as u64;
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
                                    model.assert_read(
                                        lba,
                                        Some(&resp.payload),
                                        format!("client {c}"),
                                    );
                                }
                            }
                            _ => match client.put(lba, &payload(lba, i)) {
                                Ok(resp) if resp.ok() => model.ack(lba, i),
                                // Not acked: old or new from here on.
                                Ok(_) | Err(_) => model.in_flight(lba, i),
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
                    (model, client.stats())
                })
            })
            .collect();
        let mut models = Vec::new();
        let mut retries = 0u64;
        let mut client_injected = 0u64;
        for h in handles {
            let (model, stats) = h.join().expect("torture client thread");
            retries += stats.retries + stats.busy_retries;
            client_injected += stats.net_faults.total();
            assert_eq!(
                stats.deadline_failures, 0,
                "a local server must be survivable within the deadline"
            );
            models.push(model);
        }
        assert!(client_injected > 0, "client-side fault plan never fired");
        assert!(retries > 0, "faults fired but nothing was ever retried");
        models
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
    let churn = stacks
        .iter_mut()
        .map(|s| {
            let c = s.ssc_mut(0).unwrap().counters();
            c.silent_evictions + c.switch_merges + c.full_merges
        })
        .sum();
    for stack in &mut stacks {
        stack.power_cycle().expect("recover shard");
    }
    let mut checked = 0u64;
    for (c, model) in models.iter().enumerate() {
        for lba in model.lbas() {
            let (data, _) = CacheSystem::read(&mut stacks[router.shard_of(lba)], lba)
                .expect("read back after recovery");
            let context = format!("client {c}, across crash+recovery");
            checked += u64::from(model.assert_read(lba, Some(&data), context).is_some());
        }
    }
    assert!(checked > 0, "torture run wrote nothing that reads back");
    churn
}

/// The torture over more LBAs than a shard can cache: eviction and merges
/// must run while the faults fire.
fn run_torture_under_pressure<S: ServeSystem + PowerCycle + 'static>(
    mut set: ShardSet<S>,
    seed: u64,
) {
    let capacity = set.shard_mut(0).ssc_mut(0).unwrap().data_capacity_pages();
    assert!(
        PRESSURE_SPAN > capacity,
        "span {PRESSURE_SPAN} fits in {capacity} pages"
    );
    let churn = run_torture(set, seed, PRESSURE_SPAN);
    assert!(
        churn > 0,
        "no silent eviction or merge under cache pressure"
    );
}

#[test]
fn torture_loses_no_acked_writes_wt() {
    run_torture(wide_shards(4, FlashTierWt::new), 0xF417_0001, HOT_SPAN);
}

#[test]
fn torture_loses_no_acked_writes_wb() {
    run_torture(wide_shards(4, FlashTierWb::new), 0xF417_0002, HOT_SPAN);
}

#[test]
fn torture_under_cache_pressure_loses_no_acked_writes_wt() {
    run_torture_under_pressure(wide_shards(4, FlashTierWt::new), 0xF417_0003);
}

#[test]
fn torture_under_cache_pressure_loses_no_acked_writes_wb() {
    run_torture_under_pressure(wide_shards(4, FlashTierWb::new), 0xF417_0004);
}

#[test]
fn media_faults_through_the_server_answer_every_request() {
    const OPS: u64 = 1_000;
    const WINDOW: u64 = 32;
    let mut set = wide_shards(4, FlashTierWb::new);
    for i in 0..set.num_shards() {
        let seed = decorrelate_fault_seed(0xFA17_5E4E, i);
        set.shard_mut(i)
            .set_fault_plan(FaultPlan::uniform(seed, MEDIA_PPM));
    }
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS as u64 {
            scope.spawn(move || {
                let client = BlockClient::connect(addr).expect("connect");
                let (mut tx, mut rx) = client.into_split();
                let mut answered = vec![false; OPS as usize];
                let mut received = 0;
                let mut state = 0xFA17_0000 ^ c;
                for i in 0..OPS {
                    let r = lcg(&mut state);
                    let lba = r % 2048;
                    if r.is_multiple_of(2) {
                        tx.send_put(lba, &payload(lba, i)).expect("send put");
                    } else {
                        tx.send_get(lba).expect("send get");
                    }
                    // Pipelined in windows, drained between them so the
                    // shard queues never fill and shed.
                    if (i + 1).is_multiple_of(WINDOW) || i + 1 == OPS {
                        tx.flush_io().expect("flush requests");
                        // Each sent id is answered once, so `received`
                        // reaching `sent` means none went unanswered.
                        while received < tx.sent() {
                            let resp = rx.recv().expect("every request gets a response");
                            let seen = &mut answered[resp.req_id as usize];
                            assert!(!*seen, "client {c}: request {} answered twice", resp.req_id);
                            *seen = true;
                            received += 1;
                        }
                    }
                }
            });
        }
    });
    let report = server.shutdown();
    assert!(
        report.panics.is_empty(),
        "worker panics: {:?}",
        report.panics
    );
    assert_eq!(
        report.stats.protocol_errors, 0,
        "media faults reached the wire"
    );
    assert_eq!(report.stats.requests, CLIENTS as u64 * OPS);
    let injected: u64 = report
        .stacks
        .expect("no worker lost")
        .shards()
        .iter()
        .map(|s| s.ssc().fault_counters().total())
        .sum();
    assert!(injected > 0, "the media-fault plan never fired");
}

/// A raw protocol connection that has read the hello and declared
/// `token` as its session.
fn session(addr: SocketAddr, token: u64) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(StdDuration::from_secs(30)))
        .expect("read timeout");
    Hello::read_from(&mut conn).expect("hello");
    Request::Session { token }
        .write_to(&mut conn)
        .expect("session frame");
    conn
}

#[test]
fn resent_put_is_applied_at_most_once() {
    const TOKEN: u64 = 0x5E55_1011;
    let lba = 5;
    let (first, resent) = (payload(lba, 1), payload(lba, 2));
    let set = wide_shards(2, FlashTierWb::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    // The same session and request id on two connections: the second is
    // the resend of a PUT whose ack the client never saw.
    for data in [&first, &resent] {
        let mut conn = session(server.addr(), TOKEN);
        Request::Put {
            req_id: 7,
            lba,
            data: data.clone(),
        }
        .write_to(&mut conn)
        .expect("put frame");
        let resp = Response::read_from(&mut conn).expect("put response");
        assert_eq!((resp.req_id, resp.status), (7, STATUS_OK));
    }
    let mut client = BlockClient::connect(server.addr()).expect("connect");
    let resp = client.get(lba).expect("get");
    assert!(resp.ok());
    assert_eq!(resp.payload, first, "the resent PUT was applied again");
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.stats.deduped_puts, 1);
}

#[test]
fn put_at_the_top_lba_is_refused_without_quarantine() {
    let set = wide_shards(2, FlashTierWb::new);
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
fn put_past_the_disk_is_refused_and_the_shard_keeps_acking() {
    let set = wide_shards(2, FlashTierWb::new);
    let router = set.router();
    let bad = test_disk().capacity_blocks() + 5;
    let owner = router.shard_of(bad);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let mut client = BlockClient::connect(server.addr()).expect("connect");

    // A write-back shard must refuse the block before caching it: acked,
    // it would fail its cleaner on every later pass and turn the shard's
    // later PUTs into errors.
    let resp = client.put(bad, &payload(bad, 1)).expect("bad put");
    assert_eq!(resp.status, STATUS_ERR);

    // Enough PUTs on the owning shard to run its cleaner many times over.
    let lbas: Vec<u64> = (0..100_000u64)
        .filter(|&l| router.shard_of(l) == owner)
        .take(400)
        .collect();
    for &lba in &lbas {
        let resp = client.put(lba, &payload(lba, 2)).expect("owner put");
        assert_eq!(resp.status, STATUS_OK, "put {lba}");
    }
    let resp = client.get(lbas[0]).expect("owner get");
    assert_eq!(resp.payload, payload(lbas[0], 2));

    drop(client);
    let report = server.shutdown();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_eq!(report.stats.shards_quarantined, 0);
}

#[test]
fn unrecoverable_shard_fault_quarantines_only_that_shard() {
    let shards = 4;
    let mut set = wide_shards(shards, FlashTierWb::new);
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
