//! Open-loop load generation against the cache server.
//!
//! The `perf_serve` gate starts an in-process [`flashtier_server::Server`]
//! over share-nothing shard stacks (built by
//! [`ReplaySetup::wt_shard_set`]/[`wb_shard_set`]) and drives it over
//! loopback TCP from `conns` pipelined client connections replaying a
//! deterministic Zipf stream.
//!
//! Two load modes:
//!
//! * **Open loop** (`rate > 0`): each connection schedules arrivals from a
//!   seeded exponential inter-arrival process and sends at the *scheduled*
//!   time regardless of how far behind the responses are. Latency is
//!   measured completion − scheduled arrival, so queueing delay from an
//!   overloaded server is charged to the sample — the classic defence
//!   against coordinated omission.
//! * **Closed loop / saturation** (`rate == 0`): each connection keeps a
//!   fixed window of requests outstanding and sends the next as each
//!   response arrives; throughput is the saturation number, latency is
//!   per-request round-trip under full pipelining.
//!
//! Percentiles are exact (sorted samples, not log-bucketed histograms) —
//! a p999 read off a coarse histogram can be off by the bucket width,
//! which is exactly the regime a tail-latency gate cares about.
//!
//! A third mode rides on top of either manager: **network-fault torture**
//! (`net_fault_ppm > 0`). Each connection becomes a
//! [`flashtier_server::RetryingClient`] driving one synchronous request at
//! a time while deterministic resets, partial writes, stalls and delays
//! are injected on *both* sides of the wire (the ppm budget is split
//! between the server's and the client's transport wrappers). Every
//! connection keeps a shadow model of its last *acknowledged* PUT per
//! LBA — connections write disjoint LBA sets so the model is exact — and
//! after graceful shutdown the stacks are crashed, recovered and read
//! back: an acked write that does not survive is a lost write, reported
//! (and gated in CI) as `lost_acked_writes`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use cachemgr::{CacheSystem, ShardSet};
use flashtier_server::{
    BlockClient, NetFaultPlan, RetryConfig, RetryStats, ServeSystem, Server, ServerConfig,
    ServerStats,
};
use simkit::SimRng;
use trace::TraceEvent;

use crate::replay::{FaultReport, ReplaySetup};

/// Seed salts decorrelating the server- and client-side network fault
/// streams from each other and from the media-fault plan.
const SERVER_NET_FAULT_SALT: u64 = 0x5E2F_AB1E_D00D_0001;
const CLIENT_NET_FAULT_SALT: u64 = 0x5E2F_AB1E_D00D_0002;

/// Which manager fronts the shard stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// FlashTier write-through (SSC, clean+dirty durable maps).
    Wt,
    /// FlashTier write-back (SSC-R, dirty-only durable maps).
    Wb,
}

impl ServeMode {
    /// The JSON/report key for this mode.
    pub fn name(self) -> &'static str {
        match self {
            ServeMode::Wt => "wt",
            ServeMode::Wb => "wb",
        }
    }

    /// Parses a `--mode` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "wt" => Some(ServeMode::Wt),
            "wb" => Some(ServeMode::Wb),
            _ => None,
        }
    }
}

/// One serve-gate run's shape.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload sizing, seed and fault plan (events = ops to offer).
    pub replay: ReplaySetup,
    /// Client connections.
    pub conns: usize,
    /// Total offered load in ops/sec across all connections; `0` selects
    /// closed-loop saturation mode.
    pub rate: f64,
    /// Wall-clock cap in seconds; `0` = run the whole stream.
    pub duration_s: f64,
    /// Shard (worker) count behind the server.
    pub shards: usize,
    /// Manager mode.
    pub mode: ServeMode,
    /// Outstanding requests per connection in closed-loop mode.
    pub window: usize,
    /// Network-fault injection rate in parts-per-million; `0` is the
    /// clean path (byte-identical behaviour and report to a build without
    /// fault support). Non-zero selects the torture mode described in the
    /// module docs: retrying clients, both-side injection, shadow-model
    /// verification after crash + recovery.
    pub net_fault_ppm: u32,
}

/// Exact latency percentiles over the completed operations, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Completed-operation count the percentiles are over.
    pub samples: u64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Worst observed.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

impl LatencySummary {
    fn from_samples(mut us: Vec<u64>) -> LatencySummary {
        us.sort_unstable();
        let pct = |q: f64| -> u64 {
            if us.is_empty() {
                return 0;
            }
            let idx = ((us.len() as f64 * q).ceil() as usize).max(1) - 1;
            us[idx.min(us.len() - 1)]
        };
        LatencySummary {
            samples: us.len() as u64,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            p999_us: pct(0.999),
            max_us: us.last().copied().unwrap_or(0),
            mean_us: if us.is_empty() {
                0.0
            } else {
                us.iter().sum::<u64>() as f64 / us.len() as f64
            },
        }
    }
}

/// What one serve run measured.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Operations completed (responses received).
    pub ops: u64,
    /// GETs sent.
    pub gets: u64,
    /// PUTs sent.
    pub puts: u64,
    /// `STATUS_ERR` responses observed by clients.
    pub op_errors: u64,
    /// Wall-clock seconds of the load region (first send to last
    /// response).
    pub wall_s: f64,
    /// Completed operations per wall-clock second.
    pub throughput: f64,
    /// Exact client-side latency percentiles.
    pub latency: LatencySummary,
    /// Server-side counters after shutdown.
    pub server: ServerStats,
    /// Merged per-shard fault/degradation counters; `None` when faults
    /// are off.
    pub faults: Option<FaultReport>,
    /// Network-fault torture outcome; `None` when `net_fault_ppm == 0`.
    pub net: Option<NetReport>,
}

/// What the network-fault torture mode observed and verified.
#[derive(Debug, Clone, Copy)]
pub struct NetReport {
    /// Injection rate the run was asked for.
    pub ppm: u32,
    /// Faults the client-side transport wrappers injected (the
    /// server-side count is `ServerStats::net_faults_injected`).
    pub client_injected: u64,
    /// Connections the retrying clients established (reconnects
    /// included).
    pub connects: u64,
    /// Requests resent after a transport error.
    pub retries: u64,
    /// Requests resent after a `BUSY` (shed) response.
    pub busy_retries: u64,
    /// Calls that exhausted their deadline or attempt budget.
    pub deadline_failures: u64,
    /// Client calls that returned an error instead of a response.
    pub failed_calls: u64,
    /// Slowest single client call — must stay under the op deadline.
    pub max_call_us: u64,
    /// Acked writes verified against the shadow model after crash +
    /// recovery.
    pub acked_writes_checked: u64,
    /// Acked writes whose payload was wrong — live (a later GET) or after
    /// recovery. The CI gate requires zero.
    pub lost_acked_writes: u64,
}

/// Runs one serve gate: builds the stacks, starts the server on an
/// ephemeral loopback port, drives the load, shuts down gracefully and
/// probes the returned stacks.
///
/// # Panics
///
/// Panics on socket errors (loopback setup failing is a harness bug, not
/// a measurement).
pub fn run_serve(spec: &ServeSpec) -> ServeOutcome {
    assert!(spec.conns >= 1, "need at least one connection");
    assert!(spec.shards >= 1, "need at least one shard");
    // The torture mode verifies payload bytes, so it needs every tier in
    // `Store` mode; the clean path keeps the `Discard` fast path.
    let replay = if spec.net_fault_ppm > 0 {
        spec.replay.clone().with_stored_data()
    } else {
        spec.replay.clone()
    };
    let trace = replay.workload();
    let mut config = ServerConfig {
        max_connections: spec.conns.max(ServerConfig::default().max_connections),
        ..ServerConfig::default()
    };
    if spec.net_fault_ppm > 0 {
        // Split the ppm budget: the server wrapper gets the larger half,
        // the client wrappers the rest (decorrelated per connection).
        config.net_faults = Some(NetFaultPlan::uniform(
            replay.seed ^ SERVER_NET_FAULT_SALT,
            spec.net_fault_ppm - spec.net_fault_ppm / 2,
        ));
    }
    match spec.mode {
        ServeMode::Wt => serve_stacks(
            replay.wt_shard_set(spec.shards),
            spec,
            &replay,
            &trace.events,
            config,
            FaultReport::of_wt,
            |s| {
                s.crash_and_recover().expect("post-run recovery");
            },
        ),
        ServeMode::Wb => serve_stacks(
            replay.wb_shard_set(spec.shards),
            spec,
            &replay,
            &trace.events,
            config,
            FaultReport::of_wb,
            |s| {
                s.crash_and_recover().expect("post-run recovery");
            },
        ),
    }
}

/// The mode-generic body of [`run_serve`]: start the server over the
/// stacks, drive the load (clean or torture), shut down, probe the
/// returned stacks, and — in torture mode — crash, recover and read every
/// acked write back against the shadow model.
fn serve_stacks<S, P, R>(
    set: ShardSet<S>,
    spec: &ServeSpec,
    replay: &ReplaySetup,
    events: &[TraceEvent],
    config: ServerConfig,
    probe: P,
    recover: R,
) -> ServeOutcome
where
    S: ServeSystem + 'static,
    P: Fn(&S) -> FaultReport,
    R: Fn(&mut S),
{
    let server = Server::start(set, "127.0.0.1:0", config).expect("bind loopback server");
    let (load, fault_drive) = if spec.net_fault_ppm > 0 {
        let (load, drive) = drive_fault_load(server.addr(), spec, replay, events);
        (load, Some(drive))
    } else {
        (drive_load(server.addr(), spec, events), None)
    };
    let report = server.shutdown();
    let faults = replay.fault_plan().map(|_| {
        report
            .stacks
            .as_ref()
            .expect("no worker lost")
            .shards()
            .iter()
            .map(&probe)
            .reduce(|a, b| a.merged(&b))
            .expect("at least one shard")
    });
    let net = fault_drive.map(|drive| {
        let (mut stacks, router) = report.stacks.expect("no worker lost").into_shards();
        // Crash + recover every shard: only what the durability story
        // actually preserves may satisfy the read-back below.
        for stack in &mut stacks {
            recover(stack);
        }
        let mut lost = drive.live_mismatches;
        for (&lba, &k) in &drive.shadow {
            let (data, _) = CacheSystem::read(&mut stacks[router.shard_of(lba)], lba)
                .expect("read back acked write");
            if data != fault_payload(drive.block, lba, k) {
                lost += 1;
            }
        }
        NetReport {
            ppm: spec.net_fault_ppm,
            client_injected: drive.stats.net_faults.total(),
            connects: drive.stats.connects,
            retries: drive.stats.retries,
            busy_retries: drive.stats.busy_retries,
            deadline_failures: drive.stats.deadline_failures,
            failed_calls: drive.failed_calls,
            max_call_us: drive.max_call_us,
            acked_writes_checked: drive.shadow.len() as u64,
            lost_acked_writes: lost,
        }
    });
    finish(load, report.stats, faults, net)
}

fn finish(
    load: LoadStats,
    server: ServerStats,
    faults: Option<FaultReport>,
    net: Option<NetReport>,
) -> ServeOutcome {
    ServeOutcome {
        ops: load.completed,
        gets: load.gets,
        puts: load.puts,
        op_errors: load.op_errors,
        wall_s: load.wall_s,
        throughput: if load.wall_s > 0.0 {
            load.completed as f64 / load.wall_s
        } else {
            0.0
        },
        latency: LatencySummary::from_samples(load.latencies_us),
        server,
        faults,
        net,
    }
}

/// Client-side totals across all connections.
struct LoadStats {
    completed: u64,
    gets: u64,
    puts: u64,
    op_errors: u64,
    wall_s: f64,
    latencies_us: Vec<u64>,
}

/// One connection's share of the load (round-robin slices keep each
/// connection's stream a subsequence of the original trace).
struct ConnOutcome {
    completed: u64,
    gets: u64,
    puts: u64,
    op_errors: u64,
    latencies_us: Vec<u64>,
}

fn drive_load(addr: SocketAddr, spec: &ServeSpec, events: &[TraceEvent]) -> LoadStats {
    let conns = spec.conns;
    let slices: Vec<Vec<TraceEvent>> = (0..conns)
        .map(|c| events.iter().skip(c).step_by(conns).copied().collect())
        .collect();
    let epoch = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .enumerate()
            .map(|(c, slice)| {
                scope.spawn(move || {
                    if spec.rate > 0.0 {
                        run_open_loop(addr, spec, c, slice, epoch)
                    } else {
                        run_closed_loop(addr, spec, c, slice, epoch)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut stats = LoadStats {
        completed: 0,
        gets: 0,
        puts: 0,
        op_errors: 0,
        wall_s,
        latencies_us: Vec::new(),
    };
    for o in outcomes {
        stats.completed += o.completed;
        stats.gets += o.gets;
        stats.puts += o.puts;
        stats.op_errors += o.op_errors;
        stats.latencies_us.extend(o.latencies_us);
    }
    stats
}

/// What the torture drive accumulated besides the plain load totals.
struct FaultDrive {
    /// lba → event index of the last *acknowledged* PUT whose durability
    /// is certain (no later failed call left the LBA old-or-new).
    shadow: HashMap<u64, u64>,
    /// Device block size (shadow payload length).
    block: usize,
    /// Merged retry-client activity across all connections.
    stats: RetryStats,
    /// Client calls that returned an error instead of a response.
    failed_calls: u64,
    /// Slowest single call across all connections.
    max_call_us: u64,
    /// Acked writes a *live* GET already saw wrong data for.
    live_mismatches: u64,
}

/// The deterministic, self-identifying payload of the `k`-th event's PUT
/// to `lba` — recomputable at verification time from the shadow keys.
fn fault_payload(block: usize, lba: u64, k: u64) -> Vec<u8> {
    let tag = (lba.wrapping_mul(0x9E37_79B9).wrapping_add(k)) as u8;
    let mut data = vec![tag; block];
    data[..8].copy_from_slice(&lba.to_le_bytes());
    data[8..16].copy_from_slice(&k.to_le_bytes());
    data
}

fn merge_retry(a: RetryStats, b: RetryStats) -> RetryStats {
    RetryStats {
        connects: a.connects + b.connects,
        retries: a.retries + b.retries,
        busy_retries: a.busy_retries + b.busy_retries,
        deadline_failures: a.deadline_failures + b.deadline_failures,
        net_faults: a.net_faults.merged(&b.net_faults),
    }
}

/// One torture connection's outcome.
struct FaultConnOutcome {
    load: ConnOutcome,
    shadow: HashMap<u64, u64>,
    block: usize,
    stats: RetryStats,
    failed_calls: u64,
    max_call_us: u64,
    live_mismatches: u64,
}

/// Drives the network-fault torture load: one [`RetryingClient`] per
/// connection, one outstanding request at a time, deterministic faults on
/// the client side of the wire (the server side injects its own share).
/// Each connection's LBAs are remapped into a disjoint residue class so
/// "last acked PUT per LBA" is exact without cross-connection ordering.
///
/// [`RetryingClient`]: flashtier_server::RetryingClient
fn drive_fault_load(
    addr: SocketAddr,
    spec: &ServeSpec,
    replay: &ReplaySetup,
    events: &[TraceEvent],
) -> (LoadStats, FaultDrive) {
    let conns = spec.conns;
    let slices: Vec<Vec<TraceEvent>> = (0..conns)
        .map(|c| events.iter().skip(c).step_by(conns).copied().collect())
        .collect();
    let span = (replay.range_blocks / conns as u64).max(1);
    let epoch = Instant::now();
    let outcomes: Vec<FaultConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .enumerate()
            .map(|(c, slice)| {
                scope.spawn(move || run_fault_conn(addr, spec, replay, c, slice, epoch, span))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("torture connection thread"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut load = LoadStats {
        completed: 0,
        gets: 0,
        puts: 0,
        op_errors: 0,
        wall_s,
        latencies_us: Vec::new(),
    };
    let mut drive = FaultDrive {
        shadow: HashMap::new(),
        block: outcomes.first().map_or(0, |o| o.block),
        stats: RetryStats::default(),
        failed_calls: 0,
        max_call_us: 0,
        live_mismatches: 0,
    };
    for o in outcomes {
        load.completed += o.load.completed;
        load.gets += o.load.gets;
        load.puts += o.load.puts;
        load.op_errors += o.load.op_errors;
        load.latencies_us.extend(o.load.latencies_us);
        // Disjoint LBA classes: extend never overwrites another
        // connection's entry.
        drive.shadow.extend(o.shadow);
        drive.stats = merge_retry(drive.stats, o.stats);
        drive.failed_calls += o.failed_calls;
        drive.max_call_us = drive.max_call_us.max(o.max_call_us);
        drive.live_mismatches += o.live_mismatches;
    }
    (load, drive)
}

fn run_fault_conn(
    addr: SocketAddr,
    spec: &ServeSpec,
    replay: &ReplaySetup,
    conn: usize,
    events: &[TraceEvent],
    epoch: Instant,
    span: u64,
) -> FaultConnOutcome {
    use flashtier_server::RetryingClient;
    let client_ppm = spec.net_fault_ppm / 2;
    let mut cfg = RetryConfig::default_for(replay.seed ^ (0xC11E_2700 + conn as u64));
    cfg.net_faults = (client_ppm > 0).then(|| {
        NetFaultPlan::uniform(replay.seed ^ CLIENT_NET_FAULT_SALT, client_ppm)
            .decorrelated(conn as u64)
    });
    // Session tokens must be unique per logical client (the dedup key).
    let mut client =
        RetryingClient::connect(addr, conn as u64 + 1, cfg).expect("connect retrying client");
    let block = client.block_size();
    let mut out = FaultConnOutcome {
        load: ConnOutcome {
            completed: 0,
            gets: 0,
            puts: 0,
            op_errors: 0,
            latencies_us: Vec::new(),
        },
        shadow: HashMap::new(),
        block,
        stats: RetryStats::default(),
        failed_calls: 0,
        max_call_us: 0,
        live_mismatches: 0,
    };
    for (i, e) in events.iter().enumerate() {
        if spec.duration_s > 0.0 && epoch.elapsed().as_secs_f64() > spec.duration_s {
            break;
        }
        // Remap into this connection's residue class (mod conns) so no
        // other connection ever writes the same LBA.
        let lba = (e.lba % span) * spec.conns as u64 + conn as u64;
        let started = Instant::now();
        let result = if e.is_write() {
            out.load.puts += 1;
            client.put(lba, &fault_payload(block, lba, i as u64))
        } else {
            out.load.gets += 1;
            client.get(lba)
        };
        let us = started.elapsed().as_micros() as u64;
        out.load.latencies_us.push(us);
        out.max_call_us = out.max_call_us.max(us);
        match result {
            Ok(resp) => {
                out.load.completed += 1;
                if resp.ok() {
                    if e.is_write() {
                        out.shadow.insert(lba, i as u64);
                    } else if let Some(&k) = out.shadow.get(&lba) {
                        // Live check: an acked write must already be
                        // visible to this connection's own reads.
                        if resp.payload != fault_payload(block, lba, k) {
                            out.live_mismatches += 1;
                        }
                    }
                } else {
                    out.load.op_errors += 1;
                    if e.is_write() {
                        // Final error: the write was not applied, but a
                        // conservative model treats the LBA as unknown.
                        out.shadow.remove(&lba);
                    }
                }
            }
            Err(_) => {
                // Deadline/attempt budget exhausted: the write may or may
                // not have been applied (old-or-new); drop the LBA from
                // the certain set either way.
                out.failed_calls += 1;
                if e.is_write() {
                    out.shadow.remove(&lba);
                }
            }
        }
    }
    out.stats = client.stats();
    out
}

/// A standard-exponential sample from uniform bits (inverse CDF).
fn exp_sample(rng: &mut SimRng) -> f64 {
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    -u.ln()
}

/// Open loop: send at scheduled arrival times, measure completion −
/// schedule. A sender thread paces the stream; the receiver thread on the
/// same connection computes latencies against the schedule the sender
/// published (indexed by request id, which is sequential per connection).
/// Termination is connection-level: the sender half-closes when done
/// ([`flashtier_server::SendHalf::finish`]), the server drains and
/// closes, and the receiver exits on the resulting EOF — no "sender is
/// done" flag a receiver could check just before blocking forever.
fn run_open_loop(
    addr: SocketAddr,
    spec: &ServeSpec,
    conn: usize,
    events: &[TraceEvent],
    epoch: Instant,
) -> ConnOutcome {
    let client = BlockClient::connect(addr).expect("connect load client");
    let block = client.block_size();
    let (mut tx, mut rx) = client.into_split();
    let per_conn_rate = spec.rate / spec.conns as f64;
    let mut rng = SimRng::seed_from(spec.replay.seed ^ (0x5E17E + conn as u64));
    // scheduled[i] = ns-from-epoch the request was *due*; published before
    // the bytes hit the wire, so the receiver never reads an empty slot.
    let scheduled: Arc<Vec<AtomicU64>> =
        Arc::new((0..events.len()).map(|_| AtomicU64::new(0)).collect());

    std::thread::scope(|scope| {
        let recv_scheduled = Arc::clone(&scheduled);
        let receiver = scope.spawn(move || {
            let mut out = ConnOutcome {
                completed: 0,
                gets: 0,
                puts: 0,
                op_errors: 0,
                latencies_us: Vec::new(),
            };
            // Every sent request gets exactly one response before the
            // server closes the drained connection, so EOF == complete.
            while let Ok(resp) = rx.recv() {
                let now_ns = epoch.elapsed().as_nanos() as u64;
                let due_ns = recv_scheduled[resp.req_id as usize].load(Ordering::Acquire);
                out.latencies_us.push(now_ns.saturating_sub(due_ns) / 1_000);
                out.completed += 1;
                if !resp.ok() {
                    out.op_errors += 1;
                }
            }
            out
        });

        let mut payload = vec![0u8; block];
        let mut next_s = 0.0f64;
        let mut gets = 0u64;
        let mut puts = 0u64;
        for (i, e) in events.iter().enumerate() {
            next_s += exp_sample(&mut rng) / per_conn_rate;
            if spec.duration_s > 0.0 && next_s > spec.duration_s {
                break;
            }
            let due = StdDuration::from_secs_f64(next_s);
            loop {
                let elapsed = epoch.elapsed();
                if elapsed >= due {
                    break;
                }
                // Sleep the bulk, never past the deadline.
                std::thread::sleep((due - elapsed).min(StdDuration::from_millis(1)));
            }
            scheduled[i].store(due.as_nanos() as u64, Ordering::Release);
            if e.is_write() {
                payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
                tx.send_put(e.lba, &payload).expect("send put");
                puts += 1;
            } else {
                tx.send_get(e.lba).expect("send get");
                gets += 1;
            }
            // Open loop is latency-first: push every request to the wire
            // at its arrival time rather than batching sends.
            tx.flush_io().expect("flush requests");
        }
        tx.finish().expect("half-close load connection");
        let mut out = receiver.join().expect("receiver thread");
        out.gets = gets;
        out.puts = puts;
        out
    })
}

/// Closed loop: keep `window` requests outstanding, send-on-receive.
/// Latency is round-trip from send; throughput is the saturation number.
fn run_closed_loop(
    addr: SocketAddr,
    spec: &ServeSpec,
    _conn: usize,
    events: &[TraceEvent],
    epoch: Instant,
) -> ConnOutcome {
    let client = BlockClient::connect(addr).expect("connect load client");
    let block = client.block_size();
    let (mut tx, mut rx) = client.into_split();
    let mut payload = vec![0u8; block];
    let mut send_ns: Vec<u64> = vec![0; events.len()];
    let mut out = ConnOutcome {
        completed: 0,
        gets: 0,
        puts: 0,
        op_errors: 0,
        latencies_us: Vec::new(),
    };
    let send_one = |i: usize,
                    tx: &mut flashtier_server::SendHalf,
                    payload: &mut Vec<u8>,
                    gets: &mut u64,
                    puts: &mut u64,
                    send_ns: &mut Vec<u64>| {
        let e = &events[i];
        send_ns[i] = epoch.elapsed().as_nanos() as u64;
        if e.is_write() {
            payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
            tx.send_put(e.lba, payload).expect("send put");
            *puts += 1;
        } else {
            tx.send_get(e.lba).expect("send get");
            *gets += 1;
        }
    };
    let window = spec.window.max(1).min(events.len());
    for i in 0..window {
        send_one(
            i,
            &mut tx,
            &mut payload,
            &mut out.gets,
            &mut out.puts,
            &mut send_ns,
        );
    }
    tx.flush_io().expect("flush requests");
    let mut next = window;
    let mut sent = window as u64;
    while out.completed < sent {
        let resp = rx.recv().expect("receive response");
        let now_ns = epoch.elapsed().as_nanos() as u64;
        out.latencies_us
            .push(now_ns.saturating_sub(send_ns[resp.req_id as usize]) / 1_000);
        out.completed += 1;
        if !resp.ok() {
            out.op_errors += 1;
        }
        let capped = spec.duration_s > 0.0 && epoch.elapsed().as_secs_f64() > spec.duration_s;
        if next < events.len() && !capped {
            send_one(
                next,
                &mut tx,
                &mut payload,
                &mut out.gets,
                &mut out.puts,
                &mut send_ns,
            );
            tx.flush_io().expect("flush requests");
            next += 1;
            sent += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_sampling_has_unit_mean() {
        let mut rng = SimRng::seed_from(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn latency_summary_is_exact() {
        let s = LatencySummary::from_samples((1..=1000).collect());
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50_us, 500);
        assert_eq!(s.p99_us, 990);
        assert_eq!(s.p999_us, 999);
        assert_eq!(s.max_us, 1000);
        assert!((s.mean_us - 500.5).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_smoke_end_to_end() {
        let spec = ServeSpec {
            replay: ReplaySetup::micro(2_000),
            conns: 2,
            rate: 0.0,
            duration_s: 0.0,
            shards: 2,
            mode: ServeMode::Wt,
            window: 8,
            net_fault_ppm: 0,
        };
        let out = run_serve(&spec);
        assert_eq!(out.ops, 2_000);
        assert_eq!(out.gets + out.puts, 2_000);
        assert_eq!(out.op_errors, 0);
        assert_eq!(out.server.protocol_errors, 0);
        assert_eq!(out.server.requests, 2_000);
        assert_eq!(out.latency.samples, 2_000);
        assert!(out.latency.p50_us <= out.latency.p99_us);
        assert!(out.latency.p99_us <= out.latency.max_us);
    }

    #[test]
    fn open_loop_smoke_end_to_end() {
        let spec = ServeSpec {
            replay: ReplaySetup::micro(500),
            conns: 2,
            rate: 50_000.0,
            duration_s: 0.0,
            shards: 1,
            mode: ServeMode::Wb,
            window: 32,
            net_fault_ppm: 0,
        };
        let out = run_serve(&spec);
        assert_eq!(out.ops, 500);
        assert_eq!(out.op_errors, 0);
        assert_eq!(out.latency.samples, 500);
        assert!(out.net.is_none(), "clean run must not report torture data");
    }

    fn torture_spec(mode: ServeMode, ppm: u32) -> ServeSpec {
        ServeSpec {
            replay: ReplaySetup::micro(1_500),
            conns: 3,
            rate: 0.0,
            duration_s: 0.0,
            shards: 2,
            mode,
            window: 1,
            net_fault_ppm: ppm,
        }
    }

    fn check_torture(mode: ServeMode) {
        let out = run_serve(&torture_spec(mode, 20_000));
        let net = out.net.expect("torture mode reports");
        assert!(
            out.server.net_faults_injected + net.client_injected > 0,
            "a 2% plan over thousands of transport ops must inject"
        );
        assert!(
            net.retries > 0 || net.busy_retries > 0 || net.connects > 3,
            "injected faults must exercise the retry path"
        );
        assert!(net.acked_writes_checked > 0, "some writes must be acked");
        assert_eq!(net.lost_acked_writes, 0, "acked writes are durable");
        assert_eq!(net.deadline_failures, 0, "local server rides out faults");
        assert!(
            net.max_call_us < 10_000_000,
            "no call may exceed the 10 s op deadline (max {} us)",
            net.max_call_us
        );
        assert_eq!(out.server.shards_quarantined, 0);
    }

    #[test]
    fn net_fault_torture_loses_no_acked_writes_wt() {
        check_torture(ServeMode::Wt);
    }

    #[test]
    fn net_fault_torture_loses_no_acked_writes_wb() {
        check_torture(ServeMode::Wb);
    }
}
