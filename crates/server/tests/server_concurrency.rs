//! Concurrency and shutdown guarantees of the cache server.
//!
//! * **Per-LBA read-your-writes** — pipelined `PUT`/`GET` pairs on the
//!   same LBA from many concurrent clients always observe the immediately
//!   preceding write, across every shard.
//! * **Acked-write visibility** — once a `PUT` is acknowledged, every
//!   later `GET` of that LBA from *any* connection sees it.
//! * **Shutdown drain** — a graceful stop leaves zero buffered log
//!   records (the `barrier_flush` drain ran) and no acknowledged write is
//!   lost across a subsequent crash + recovery.
//! * **Resilience** — a malformed frame closes one connection without
//!   affecting others; the connection semaphore really bounds service.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration as StdDuration;

use cachemgr::{FlashTierWb, FlashTierWt};
use flashtier_server::{BlockClient, Server, ServerConfig};
use flashtier_testkit::{wide_shards, Codec, Tagged};

const BLOCK: usize = 512;

/// Distinct, verifiable block content per (client, lba, round).
fn payload(client: u64, lba: u64, round: u64) -> Vec<u8> {
    Tagged.encode(lba, client << 32 | round, BLOCK)
}

#[test]
fn pipelined_per_lba_read_your_writes_across_clients() {
    const CLIENTS: u64 = 8;
    const LBAS_PER_CLIENT: u64 = 8;
    const ROUNDS: u64 = 25;
    let set = wide_shards(4, FlashTierWt::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let client = BlockClient::connect(addr).unwrap();
                assert_eq!(client.block_size(), BLOCK);
                let (mut tx, mut rx) = client.into_split();
                // Pipelined PUT/GET pairs: within a round, the GET is
                // sent before any response is read, so correctness rests
                // on the server's per-LBA FIFO, not on client pacing.
                // Responses are drained between rounds — a client that
                // does not retry must window its pipelining below the
                // shard queue depth, or overload shedding answers `BUSY`.
                // expectations[i] = Some((lba, round)) for GET req ids.
                let mut expectations: Vec<Option<(u64, u64)>> = Vec::new();
                for round in 0..ROUNDS {
                    let drained = expectations.len();
                    for k in 0..LBAS_PER_CLIENT {
                        // Disjoint per-client LBAs, interleaved so
                        // neighbouring clients share shards.
                        let lba = c + CLIENTS * k;
                        let put_id = tx.send_put(lba, &payload(c, lba, round)).unwrap();
                        assert_eq!(put_id as usize, expectations.len());
                        expectations.push(None);
                        let get_id = tx.send_get(lba).unwrap();
                        assert_eq!(get_id as usize, expectations.len());
                        expectations.push(Some((lba, round)));
                    }
                    tx.flush_io().unwrap();
                    for _ in drained..expectations.len() {
                        let resp = rx.recv().unwrap();
                        assert!(resp.ok(), "op {} failed", resp.req_id);
                        if let Some((lba, round)) = expectations[resp.req_id as usize] {
                            assert_eq!(
                                resp.payload,
                                payload(c, lba, round),
                                "client {c}: GET of lba {lba} after round-{round} PUT \
                                 returned wrong data"
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let report = server.shutdown();
    assert_eq!(report.stats.protocol_errors, 0);
    assert_eq!(report.stats.op_errors, 0);
    assert_eq!(
        report.stats.requests,
        CLIENTS * LBAS_PER_CLIENT * ROUNDS * 2
    );
}

#[test]
fn acked_write_is_visible_to_other_connections() {
    let set = wide_shards(2, FlashTierWt::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut writer = BlockClient::connect(server.addr()).unwrap();
    let mut reader = BlockClient::connect(server.addr()).unwrap();
    for lba in 0..24u64 {
        let data = payload(0xA, lba, 7);
        assert!(writer.put(lba, &data).unwrap().ok());
        // The ack means the owning shard worker applied the write; a GET
        // from a different connection must now observe it.
        let resp = reader.get(lba).unwrap();
        assert!(resp.ok());
        assert_eq!(resp.payload, data, "lba {lba} stale after acked write");
    }
    drop(writer);
    drop(reader);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_no_acked_write_is_lost() {
    const PUTS: u64 = 40;
    const FILL_GETS: u64 = 32;
    let set = wide_shards(4, FlashTierWb::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = BlockClient::connect(server.addr()).unwrap();
    // Acked dirty writes (write-back: the cache holds the only copy)...
    for lba in 0..PUTS {
        assert!(client.put(lba, &payload(1, lba, 0)).unwrap().ok());
    }
    // ...plus reads of never-written blocks, which fill clean and sit in
    // the group-commit buffer until a barrier — exactly what the shutdown
    // drain must harden.
    for lba in 1000..1000 + FILL_GETS {
        assert!(client.get(lba).unwrap().ok());
    }
    drop(client);

    let report = server.shutdown();
    assert_eq!(report.stats.puts, PUTS);
    assert_eq!(report.stats.op_errors, 0);
    assert!(report.panics.is_empty(), "clean run: {:?}", report.panics);
    assert!(report.shard_health.iter().all(|h| h.is_healthy()));
    let (mut stacks, router) = report.stacks.expect("no worker lost").into_shards();

    // The drain ran barrier_flush on every shard: a crash immediately
    // after the graceful stop finds nothing buffered...
    for (i, stack) in stacks.iter_mut().enumerate() {
        let lost = stack.ssc_mut().crash();
        assert_eq!(lost, 0, "shard {i}: graceful stop left buffered records");
        stack.crash_and_recover().unwrap();
        // Recovery sanity: only acked PUT LBAs are dirty.
        let (dirty, _) = stack.ssc_mut().exists(0, u64::MAX);
        for lba in dirty {
            assert!(lba < PUTS, "unexpected dirty lba {lba}");
        }
    }
    // ...and every acknowledged write survives into the recovered stacks.
    for lba in 0..PUTS {
        let stack = &mut stacks[router.shard_of(lba)];
        let (data, _) = cachemgr::CacheSystem::read(stack, lba).unwrap();
        assert_eq!(data, payload(1, lba, 0), "acked write to lba {lba} lost");
    }
}

#[test]
fn flush_barrier_spans_all_shards() {
    let set = wide_shards(4, FlashTierWb::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = BlockClient::connect(server.addr()).unwrap();
    for lba in 0..16u64 {
        assert!(client.put(lba, &payload(2, lba, 0)).unwrap().ok());
    }
    // Clean fills across shards put records in several group-commit
    // buffers; one FLUSH must drain them all.
    for lba in 500..540u64 {
        assert!(client.get(lba).unwrap().ok());
    }
    assert!(client.flush().unwrap().ok());
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.stats.flushes, 1, "barrier acked exactly once");
    let (mut stacks, _) = report.stacks.expect("no worker lost").into_shards();
    for (i, stack) in stacks.iter_mut().enumerate() {
        assert_eq!(
            stack.ssc_mut().crash(),
            0,
            "shard {i} still buffered after FLUSH + drain"
        );
    }
}

#[test]
fn malformed_frame_closes_one_connection_only() {
    let set = wide_shards(2, FlashTierWt::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut healthy = BlockClient::connect(server.addr()).unwrap();
    assert!(healthy.put(3, &payload(3, 3, 0)).unwrap().ok());

    // A raw connection that speaks garbage after the hello.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut hello = [0u8; 12];
    raw.read_exact(&mut hello).unwrap();
    std::io::Write::write_all(&mut raw, &[0xFF; 21]).unwrap();
    raw.set_read_timeout(Some(StdDuration::from_secs(10)))
        .unwrap();
    let mut probe = [0u8; 1];
    // The server closes the poisoned connection (clean EOF).
    assert_eq!(raw.read(&mut probe).unwrap(), 0);

    // The healthy connection is unaffected, and new connections work.
    let resp = healthy.get(3).unwrap();
    assert!(resp.ok());
    assert_eq!(resp.payload, payload(3, 3, 0));
    let mut fresh = BlockClient::connect(server.addr()).unwrap();
    assert!(fresh.get(3).unwrap().ok());
    drop(healthy);
    drop(fresh);
    let report = server.shutdown();
    assert_eq!(report.stats.protocol_errors, 1);
}

/// Memory mappings of this process; every thread stack not yet released
/// holds one.
#[cfg(target_os = "linux")]
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn reconnect_churn_does_not_accumulate_connection_threads() {
    const CONNECTIONS: usize = 2_000;
    let set = wide_shards(1, FlashTierWt::new);
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let before = mapping_count();
    for _ in 0..CONNECTIONS {
        let mut client = BlockClient::connect(server.addr()).unwrap();
        assert!(client.get(1).unwrap().ok());
    }
    // Each connection ran two server threads: held until shutdown, their
    // stacks alone would add thousands of mappings.
    let grown = mapping_count().saturating_sub(before);
    assert!(
        grown < CONNECTIONS / 4,
        "{grown} new mappings after {CONNECTIONS} connections"
    );
    server.shutdown();
}

#[test]
fn semaphore_bounds_serviced_connections() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(wide_shards(1, FlashTierWt::new), "127.0.0.1:0", config).unwrap();
    // The hello is written only after the connection holds a permit, so
    // hello receipt == admission.
    let c1 = BlockClient::connect(server.addr()).unwrap();
    let c2 = BlockClient::connect(server.addr()).unwrap();
    let mut third = TcpStream::connect(server.addr()).unwrap();
    third
        .set_read_timeout(Some(StdDuration::from_millis(300)))
        .unwrap();
    let mut hello = [0u8; 12];
    let err = third.read_exact(&mut hello).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "third connection must wait for a permit, got {err:?}"
    );
    // Releasing a permit admits the waiter.
    drop(c1);
    third
        .set_read_timeout(Some(StdDuration::from_secs(30)))
        .unwrap();
    third.read_exact(&mut hello).unwrap();
    assert_eq!(&hello[..2], b"FT");
    drop(c2);
    drop(third);
    server.shutdown();
}
