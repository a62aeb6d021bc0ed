//! The serve phase: the workload's trace offered to a `Server` over
//! loopback TCP, fronting two share-nothing write-back shards.
//!
//! Three load shapes. None of their figures is an end-to-end metric: the
//! server's seven or eight threads on a two-core box measure the
//! scheduler as much as the code (README.md has the spreads), so they are
//! layer metrics of the traced pass, and the untraced pass runs one closed
//! loop only to check every response.
//!
//! * **Closed loop** (callers that wait for replies): two single-threaded
//!   connections keep 16 requests in flight each. Throughput is the
//!   *median over fixed 250 ms windows*, not completions over wall time:
//!   one window in which the box ran something else moves a mean by
//!   several percent and the median not at all.
//! * **Open loop** (independent users): one connection, a sender thread
//!   pacing a fixed-rate schedule and a receiver thread; latency runs
//!   from the moment a request was *due*, so a stall is charged to every
//!   request it delays. The median flips between scheduling regimes; p99
//!   and p999 swing by 2x and 10x between identical runs.
//! * **Window 1**: one synchronous request at a time, the unloaded round
//!   trip.
//!
//! The generator never runs more threads than the closed loop's two.
//! Every response is checked: status OK, a block-sized payload on GET,
//! none on PUT. Anything else is a failed operation.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant};

use cachemgr::ShardSet;
use flashtier_server::{BlockClient, Response, ServeSystem, Server, ServerConfig, ServerStats};
use trace::TraceEvent;

use crate::hostclock::process_cpu_ns;
use crate::stats::{median, percentile_sorted};
use crate::tracing::{now_ns, Span, SpanName, NO_PARENT};

/// Shards (and so worker threads) behind the server.
pub const SHARDS: usize = 2;
/// Closed-loop connections.
pub const CLOSED_CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const CLOSED_WINDOW: usize = 16;
/// Width of the windows medians are taken over.
const WINDOW_NS: u64 = 250_000_000;
/// Open-loop requests allowed in flight before the sender waits. Below
/// the server's per-shard queue depth, so a burst can never be refused
/// with BUSY; the wait is charged to latency because latency runs from
/// the schedule.
const OPEN_MAX_IN_FLIGHT: u64 = 512;
/// Slots in the per-connection request bookkeeping rings.
const RING: usize = 1024;

/// Operations offered and how many of them went wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTally {
    /// Requests sent.
    pub attempted: u64,
    /// Responses that were not OK, carried the wrong payload size, or
    /// never arrived.
    pub failed: u64,
}

impl OpTally {
    /// Adds another tally into this one.
    pub fn add(&mut self, o: OpTally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Adds the tally of one phase, saying on stderr where failures
    /// happened: a bare count in the result line does not.
    pub fn absorb(&mut self, phase: &str, o: OpTally) {
        if o.failed > 0 {
            eprintln!("{phase}: {} of {} operations failed", o.failed, o.attempted);
        }
        self.add(o);
    }
}

fn response_is_correct(resp: &Response, is_get: bool, block: usize) -> bool {
    resp.ok() && resp.payload.len() == if is_get { block } else { 0 }
}

/// Starts a server over `set` on an ephemeral loopback port and waits for
/// its first response (the caller times the whole of it as set-up).
///
/// # Panics
///
/// Panics if loopback TCP is unavailable.
pub fn start_server<S: ServeSystem + 'static>(
    set: ShardSet<S>,
    first_lba: u64,
    tally: &mut OpTally,
) -> Server<S> {
    let server = Server::start(set, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = BlockClient::connect(server.addr()).expect("connect to own server");
    let block = client.block_size();
    let resp = client.get(first_lba);
    tally.attempted += 1;
    if !resp.is_ok_and(|r| response_is_correct(&r, true, block)) {
        tally.failed += 1;
    }
    server
}

/// What the closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct ClosedStats {
    /// Operations offered and failed.
    pub tally: OpTally,
    /// Completions per second in each full 250 ms window, in thousands.
    pub window_kops: Vec<f64>,
    /// Median of `window_kops` (the plain rate when the run was too short
    /// for one full window).
    pub kops: f64,
    /// Median round trip, microseconds.
    pub p50_us: f64,
    /// 99th-percentile round trip, microseconds.
    pub p99_us: f64,
    /// Process CPU microseconds per completed operation (server and
    /// generator threads together).
    pub cpu_us_per_op: f64,
    /// Server counters accumulated during the loop.
    pub server: ServerStats,
    /// Client request spans (traced pass only).
    pub spans: Vec<Span>,
}

struct ConnResult {
    tally: OpTally,
    buckets: Vec<u32>,
    latencies_ns: Vec<u32>,
    spans: Vec<Span>,
}

/// One closed-loop connection: send-on-receive with a fixed window, until
/// `duration` has passed, then drain.
fn closed_conn(
    addr: SocketAddr,
    events: &[TraceEvent],
    first: usize,
    conn: usize,
    epoch: Instant,
    duration: StdDuration,
    trace_spans: bool,
) -> ConnResult {
    let client = BlockClient::connect(addr).expect("connect load connection");
    let block = client.block_size();
    let (mut tx, mut rx) = client.into_split();
    let payload = vec![0xA5u8; block];
    let duration_ns = duration.as_nanos() as u64;
    let mut out = ConnResult {
        tally: OpTally::default(),
        buckets: vec![0; (duration_ns / WINDOW_NS) as usize + 2],
        latencies_ns: Vec::with_capacity((duration.as_secs_f64() * 2e5) as usize),
        spans: Vec::new(),
    };
    // Per in-flight request, indexed by request id modulo the ring:
    // (id, send time, is GET, lba, trace-clock send time). A request is
    // sent only when a response arrives, so ids in flight stay within a
    // few windows of each other; the stored id turns the impossible
    // collision into a counted failure instead of a wrong latency.
    let mut ring = vec![(u64::MAX, 0u64, false, 0u64, 0u64); RING];
    let mut next = first + conn;
    let mut send = |tx: &mut flashtier_server::SendHalf,
                    ring: &mut Vec<(u64, u64, bool, u64, u64)>| {
        let e = events[next % events.len()];
        next += CLOSED_CONNS;
        let traced_start = if trace_spans { now_ns() } else { 0 };
        let sent_ns = epoch.elapsed().as_nanos() as u64;
        let id = if e.is_write() {
            tx.send_put(e.lba, &payload)
        } else {
            tx.send_get(e.lba)
        }
        .expect("send request");
        ring[id as usize % RING] = (id, sent_ns, !e.is_write(), e.lba, traced_start);
    };
    for _ in 0..CLOSED_WINDOW {
        send(&mut tx, &mut ring);
    }
    tx.flush_io().expect("flush requests");
    let mut in_flight = CLOSED_WINDOW as u64;
    out.tally.attempted = in_flight;
    while in_flight > 0 {
        let Ok(resp) = rx.recv() else {
            out.tally.failed += in_flight;
            break;
        };
        let now = epoch.elapsed().as_nanos() as u64;
        let (id, sent_ns, is_get, lba, traced_start) = ring[resp.req_id as usize % RING];
        if id != resp.req_id || !response_is_correct(&resp, is_get, block) {
            out.tally.failed += 1;
        }
        if now < duration_ns {
            out.buckets[(now / WINDOW_NS) as usize] += 1;
            out.latencies_ns
                .push(u32::try_from(now - sent_ns).unwrap_or(u32::MAX));
            if trace_spans {
                out.spans.push(Span {
                    name: SpanName::Request,
                    parent: NO_PARENT,
                    req: (conn as u64) << 32 | resp.req_id,
                    lba,
                    start_ns: traced_start,
                    end_ns: now_ns(),
                });
            }
            send(&mut tx, &mut ring);
            tx.flush_io().expect("flush requests");
            out.tally.attempted += 1;
        } else {
            in_flight -= 1;
        }
    }
    out
}

/// Runs the closed loop against `server` for `duration`, offering
/// `events` cyclically from index `first`.
pub fn closed_loop<S: ServeSystem + 'static>(
    server: &Server<S>,
    events: &[TraceEvent],
    first: usize,
    duration: StdDuration,
    trace_spans: bool,
) -> ClosedStats {
    let addr = server.addr();
    let before = server.stats();
    let cpu0 = process_cpu_ns();
    let epoch = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLOSED_CONNS)
            .map(|c| {
                scope.spawn(move || {
                    closed_conn(addr, events, first, c, epoch, duration, trace_spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread"))
            .collect()
    });
    let cpu_ns = process_cpu_ns() - cpu0;
    let after = server.stats();

    let mut stats = ClosedStats::default();
    let full_windows = (duration.as_nanos() as u64 / WINDOW_NS) as usize;
    let mut per_window = vec![0.0f64; full_windows];
    let mut latencies = Vec::new();
    for r in results {
        stats.tally.add(r.tally);
        for (w, slot) in per_window.iter_mut().enumerate() {
            *slot += f64::from(r.buckets[w]);
        }
        latencies.extend(r.latencies_ns);
        stats.spans.extend(r.spans);
    }
    latencies.sort_unstable();
    stats.window_kops = per_window
        .iter()
        .map(|n| n / (WINDOW_NS as f64 / 1e9) / 1e3)
        .collect();
    stats.kops = if stats.window_kops.is_empty() {
        latencies.len() as f64 / duration.as_secs_f64() / 1e3
    } else {
        median(&stats.window_kops)
    };
    stats.p50_us = f64::from(percentile_sorted(&latencies, 0.50)) / 1e3;
    stats.p99_us = f64::from(percentile_sorted(&latencies, 0.99)) / 1e3;
    if !latencies.is_empty() {
        stats.cpu_us_per_op = cpu_ns as f64 / 1e3 / latencies.len() as f64;
    }
    stats.server = ServerStats {
        batches: after.batches - before.batches,
        batched_ops: after.batched_ops - before.batched_ops,
        busy_rejects: after.busy_rejects - before.busy_rejects,
        shed_expired: after.shed_expired - before.shed_expired,
        ..ServerStats::default()
    };
    stats
}

/// What the open loop measured.
#[derive(Debug, Clone, Default)]
pub struct OpenStats {
    /// Operations offered and failed.
    pub tally: OpTally,
    /// Median latency from the scheduled send in each fully covered
    /// 250 ms window, microseconds.
    pub window_p50_us: Vec<f64>,
    /// Median of `window_p50_us` (the plain median when the run was too
    /// short for one full window).
    pub p50_us: f64,
    /// 99th percentile over every sample, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile over every sample, microseconds.
    pub p999_us: f64,
    /// 99th percentile of how late the generator sent, microseconds.
    pub late_p99_us: f64,
}

/// Runs the open loop: `rate` requests per second on a fixed-interval
/// schedule for `duration`, over one connection, offering `events`
/// cyclically from index `first`.
pub fn open_loop(
    addr: SocketAddr,
    events: &[TraceEvent],
    first: usize,
    rate: f64,
    duration: StdDuration,
) -> OpenStats {
    let client = BlockClient::connect(addr).expect("connect load connection");
    let block = client.block_size();
    let (mut tx, mut rx) = client.into_split();
    let interval_ns = 1e9 / rate;
    let total = (duration.as_secs_f64() * rate) as u64;
    let windows = (duration.as_nanos() as u64 / WINDOW_NS) as usize + 1;
    // due[i] = scheduled send time << 1 | is GET; published before the
    // request reaches the wire, read after its response left it. One slot
    // per request, not a ring: the two shards answer out of order, and
    // while one worker is descheduled the other can run any number of
    // request ids ahead of the oldest unanswered one.
    let due: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let received = AtomicU64::new(0);
    let epoch = Instant::now();

    let (tally, lateness_ns, per_window) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut per_window: Vec<Vec<u32>> = vec![Vec::new(); windows];
            let mut failed = 0u64;
            // The sender half-closes when done; the server answers
            // everything it was sent and closes, so end of stream is the
            // only termination signal needed.
            while let Ok(resp) = rx.recv() {
                let now = epoch.elapsed().as_nanos() as u64;
                let Some(slot) = due.get(resp.req_id as usize) else {
                    failed += 1;
                    continue;
                };
                let slot = slot.load(Ordering::Acquire);
                let (due_ns, is_get) = (slot >> 1, slot & 1 == 1);
                if !response_is_correct(&resp, is_get, block) {
                    failed += 1;
                }
                per_window[((due_ns / WINDOW_NS) as usize).min(windows - 1)]
                    .push(u32::try_from(now.saturating_sub(due_ns)).unwrap_or(u32::MAX));
                received.fetch_add(1, Ordering::Release);
            }
            (per_window, failed)
        });

        let payload = vec![0x5Au8; block];
        let mut lateness_ns: Vec<u32> = Vec::with_capacity(total as usize);
        for i in 0..total {
            let due_ns = (i as f64 * interval_ns) as u64;
            loop {
                let now = epoch.elapsed().as_nanos() as u64;
                if now >= due_ns && i - received.load(Ordering::Acquire) < OPEN_MAX_IN_FLIGHT {
                    lateness_ns.push(u32::try_from(now - due_ns).unwrap_or(u32::MAX));
                    break;
                }
                // Sleeping cannot hit a 25 us gap and a busy spin takes one
                // of the box's two cores from the server outright; yielding
                // stays punctual (see `loadgen.open_late_p99_us`) and gives
                // the core up whenever a server thread wants it.
                if due_ns.saturating_sub(now) > 1_000_000 {
                    std::thread::sleep(StdDuration::from_micros(500));
                } else {
                    std::thread::yield_now();
                }
            }
            let e = events[(first + i as usize) % events.len()];
            due[i as usize].store(due_ns << 1 | u64::from(!e.is_write()), Ordering::Release);
            if e.is_write() {
                tx.send_put(e.lba, &payload)
            } else {
                tx.send_get(e.lba)
            }
            .expect("send request");
            tx.flush_io().expect("flush request");
        }
        tx.finish().expect("half-close load connection");
        let (per_window, failed) = receiver.join().expect("open-loop receiver thread");
        let answered: u64 = per_window.iter().map(|w| w.len() as u64).sum();
        let tally = OpTally {
            attempted: total,
            failed: failed + (total - answered),
        };
        (tally, lateness_ns, per_window)
    });

    let mut stats = OpenStats::default();
    let mut all: Vec<u32> = Vec::with_capacity(total as usize);
    for mut w in per_window {
        // A window the schedule only partly covers has too few samples
        // for its median to mean the same thing.
        if w.len() as f64 >= 0.9 * rate * (WINDOW_NS as f64 / 1e9) {
            w.sort_unstable();
            stats
                .window_p50_us
                .push(f64::from(percentile_sorted(&w, 0.50)) / 1e3);
        }
        all.extend(w);
    }
    all.sort_unstable();
    // A run too short for one full window falls back to the plain median.
    stats.p50_us = if stats.window_p50_us.is_empty() {
        f64::from(percentile_sorted(&all, 0.50)) / 1e3
    } else {
        median(&stats.window_p50_us)
    };
    stats.p99_us = f64::from(percentile_sorted(&all, 0.99)) / 1e3;
    stats.p999_us = f64::from(percentile_sorted(&all, 0.999)) / 1e3;
    let mut late = lateness_ns;
    late.sort_unstable();
    stats.late_p99_us = f64::from(percentile_sorted(&late, 0.99)) / 1e3;
    stats.tally = tally;
    stats
}

/// One synchronous request at a time over one connection for `duration`;
/// returns the tally and the median round trip in microseconds.
pub fn window_one(
    addr: SocketAddr,
    events: &[TraceEvent],
    duration: StdDuration,
) -> (OpTally, f64) {
    let mut client = BlockClient::connect(addr).expect("connect load connection");
    let block = client.block_size();
    let payload = vec![0x3Cu8; block];
    let mut tally = OpTally::default();
    let mut rtts: Vec<u32> = Vec::new();
    let epoch = Instant::now();
    for e in events.iter().cycle() {
        if epoch.elapsed() >= duration {
            break;
        }
        let t0 = Instant::now();
        let resp = if e.is_write() {
            client.put(e.lba, &payload)
        } else {
            client.get(e.lba)
        };
        rtts.push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
        tally.attempted += 1;
        if !resp.is_ok_and(|r| response_is_correct(&r, !e.is_write(), block)) {
            tally.failed += 1;
        }
    }
    rtts.sort_unstable();
    (tally, f64::from(percentile_sorted(&rtts, 0.50)) / 1e3)
}

/// Shuts `server` down and returns its stacks; anything but a clean
/// drain (a panic, a quarantined shard, a server-side operation or
/// protocol error) is added to `tally` as a failure.
pub fn shutdown<S: ServeSystem + 'static>(server: Server<S>, tally: &mut OpTally) -> Vec<S> {
    let report = server.shutdown();
    let unhealthy = report
        .shard_health
        .iter()
        .filter(|h| !h.is_healthy())
        .count();
    let failed = report.panics.len() as u64
        + unhealthy as u64
        + report.stats.op_errors
        + report.stats.protocol_errors
        + u64::from(report.stacks.is_none());
    if failed > 0 {
        eprintln!(
            "server shutdown: {} panics, {unhealthy} unhealthy shards, {} operation errors, \
             {} protocol errors, stacks returned: {}",
            report.panics.len(),
            report.stats.op_errors,
            report.stats.protocol_errors,
            report.stacks.is_some()
        );
    }
    tally.failed += failed;
    report
        .stacks
        .map_or_else(Vec::new, |set| set.into_shards().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stacks::StackSpec;

    /// Every loop shape runs against a real server and gets every answer.
    #[test]
    fn loops_complete_with_every_response_correct() {
        let spec = StackSpec {
            flash_bytes: 8 << 20,
            store: false,
        };
        let events: Vec<TraceEvent> = (0..4_000u64)
            .map(|i| {
                let lba = (i * 7919) % 5_000;
                if i % 4 == 0 {
                    TraceEvent::write(lba)
                } else {
                    TraceEvent::read(lba)
                }
            })
            .collect();
        let mut tally = OpTally::default();
        let server = start_server(spec.wb_shards(SHARDS, |s| s), 7, &mut tally);

        let closed = closed_loop(&server, &events, 0, StdDuration::from_millis(600), true);
        assert_eq!(closed.tally.failed, 0);
        assert!(closed.tally.attempted > (CLOSED_CONNS * CLOSED_WINDOW) as u64);
        assert_eq!(closed.window_kops.len(), 2);
        assert!(closed.kops > 0.0 && closed.p50_us > 0.0 && closed.p50_us <= closed.p99_us);
        assert!(closed.server.batched_ops >= closed.server.batches);
        assert!(!closed.spans.is_empty());
        assert!(closed.spans.iter().all(|s| s.name == SpanName::Request));

        let open = open_loop(
            server.addr(),
            &events,
            100,
            4_000.0,
            StdDuration::from_millis(600),
        );
        assert_eq!(open.tally.failed, 0);
        assert_eq!(open.tally.attempted, 2_400);
        assert_eq!(open.window_p50_us.len(), 2);
        assert!(open.p50_us > 0.0 && open.p50_us <= open.p99_us && open.p99_us <= open.p999_us);

        let (one, rtt_us) = window_one(server.addr(), &events, StdDuration::from_millis(100));
        assert!(one.attempted > 0 && one.failed == 0 && rtt_us > 0.0);

        tally.add(closed.tally);
        tally.add(open.tally);
        tally.add(one);
        let stacks = shutdown(server, &mut tally);
        assert_eq!(stacks.len(), SHARDS);
        assert_eq!(tally.failed, 0);
    }
}
