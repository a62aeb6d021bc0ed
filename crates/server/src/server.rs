//! The concurrent cache server.
//!
//! # Architecture
//!
//! ```text
//!  accept loop ──(semaphore permit)──► per-connection reader ─┐
//!                                      per-connection writer ◄┼── responses
//!                                                             │
//!                 shard 0 FIFO queue ◄────────────────────────┤ routed by
//!                 shard 1 FIFO queue ◄────────────────────────┤ ShardRouter(lba)
//!                 shard N FIFO queue ◄────────────────────────┘
//!                        │
//!                 worker thread i — owns manager stack i exclusively
//! ```
//!
//! * **Connection bounding.** The accept loop takes a semaphore permit
//!   before servicing a connection; at the cap it blocks, so load beyond
//!   the bound shows up as connection-queueing delay instead of unbounded
//!   thread growth.
//! * **Per-shard routing, per-LBA ordering.** Each request is routed by a
//!   pure hash of its LBA to exactly one shard queue, and each queue is
//!   drained by exactly one worker that owns its manager stack. Two
//!   invariants follow with no data-path locks: operations on the same LBA
//!   from one connection execute in submission order (mpsc channels are
//!   FIFO per sender), and an *acknowledged* write is visible to every
//!   later request on that LBA from any connection (the ack means the
//!   owning worker already applied it, and that worker serializes the
//!   LBA's subsequent operations).
//! * **Batched submission.** A worker drains up to `batch_max` queued
//!   requests per wakeup and applies them back-to-back against its stack,
//!   amortizing wakeups under load while adding no latency when idle (the
//!   first request is taken with a blocking `recv`).
//! * **Graceful shutdown.** [`Server::shutdown`] stops the accept loop,
//!   unblocks connection readers, lets every already-enqueued request
//!   drain through the workers, then runs each healthy stack through
//!   `barrier_flush` — the durability barrier — before handing the stacks
//!   back to the caller. No acknowledged operation is lost across a
//!   graceful stop followed by crash recovery.
//!
//! # Failure model (DESIGN.md §12)
//!
//! * **No path blocks forever.** Accepted sockets carry read/write
//!   timeouts; a connection whose peer stalls mid-frame (or goes idle past
//!   the read timeout) is evicted, releasing its semaphore permit. The
//!   byte stream cannot be resumed after a timeout fires mid-frame, so
//!   eviction — not retry — is the only sound response.
//! * **Overload sheds, it does not queue unboundedly.** A full shard
//!   queue answers `BUSY` immediately instead of blocking the reader; a
//!   request that waited longer than `shed_timeout` in its queue is
//!   answered `BUSY` without being applied. `BUSY` is a promise the
//!   operation did **not** execute, so clients retry it freely.
//! * **Retried PUTs are applied at most once.** A client that declared a
//!   session token gets server-side dedup keyed by `(token, req_id)`:
//!   a PUT whose ack was lost in transit is acknowledged — not re-applied
//!   — when resent on a fresh connection.
//! * **A failing shard is quarantined, not fatal.** A worker that panics
//!   while applying a request, or whose stack reports an unrecoverable
//!   fault (`CmError::is_unrecoverable`, i.e. the device needs crash
//!   recovery), stops touching its stack and drains its queue with
//!   `SHARD_FAILED` responses. Other shards keep serving; shutdown skips
//!   the quarantined shard's durability barrier and reports per-shard
//!   health.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use cachemgr::{CacheSystem, FlashTierWb, FlashTierWt, PageBuf, ShardSet};
use flashtier_core::ShardRouter;
use simkit::Duration;

use crate::netfault::{FaultyTransport, NetFaultPlan};
use crate::protocol::{
    Hello, ReadOutcome, Request, Response, STATUS_BUSY, STATUS_ERR, STATUS_OK, STATUS_SHARD_FAILED,
};
use crate::semaphore::Semaphore;

/// Applied-PUT ids remembered per session for retry dedup. Old ids are
/// pruned in arrival order once the window fills; a client retrying a PUT
/// more than this many acknowledged writes later is outside the window
/// (and outside any sane retry deadline).
const DEDUP_WINDOW: usize = 4096;

/// A cache stack the server can front: any [`CacheSystem`] that can also
/// run a durability barrier (the shutdown drain) and move across threads.
pub trait ServeSystem: CacheSystem + Send {
    /// Synchronously commits all buffered log records (see
    /// `Ssc::commit_log`).
    ///
    /// # Errors
    ///
    /// Device faults during the commit.
    fn barrier_flush(&mut self) -> cachemgr::Result<Duration>;
}

impl ServeSystem for FlashTierWt {
    fn barrier_flush(&mut self) -> cachemgr::Result<Duration> {
        FlashTierWt::barrier_flush(self)
    }
}

impl ServeSystem for FlashTierWb {
    fn barrier_flush(&mut self) -> cachemgr::Result<Duration> {
        FlashTierWb::barrier_flush(self)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum connections serviced concurrently; further accepts wait.
    pub max_connections: usize,
    /// Bounded depth of each shard's request queue; a full queue answers
    /// `BUSY` instead of blocking the connection reader.
    pub queue_depth: usize,
    /// Maximum requests a worker applies per wakeup.
    pub batch_max: usize,
    /// Socket read timeout on accepted connections; doubles as the idle
    /// limit — a peer that sends nothing for this long is evicted. `None`
    /// restores block-forever reads.
    pub read_timeout: Option<StdDuration>,
    /// Socket write timeout on accepted connections, so a peer that stops
    /// draining responses cannot park the writer thread forever.
    pub write_timeout: Option<StdDuration>,
    /// Queueing deadline: a request that sat longer than this on its shard
    /// queue is shed with `BUSY` instead of being applied late. `None`
    /// disables deadline shedding.
    pub shed_timeout: Option<StdDuration>,
    /// Seeded network fault injection on accepted connections (testing);
    /// `None` — the default — is the zero-cost clean path.
    pub net_faults: Option<NetFaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            queue_depth: 1024,
            batch_max: 64,
            read_timeout: Some(StdDuration::from_secs(30)),
            write_timeout: Some(StdDuration::from_secs(30)),
            shed_timeout: Some(StdDuration::from_secs(5)),
            net_faults: None,
        }
    }
}

/// Shared atomic counters, snapshotted into [`ServerStats`].
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    flushes: AtomicU64,
    op_errors: AtomicU64,
    protocol_errors: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    sim_time_us: AtomicU64,
    busy_rejects: AtomicU64,
    shed_expired: AtomicU64,
    deduped_puts: AtomicU64,
    idle_evictions: AtomicU64,
    shards_quarantined: AtomicU64,
    net_faults_injected: AtomicU64,
}

/// A point-in-time snapshot of server activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and serviced.
    pub connections: u64,
    /// Requests decoded off the wire.
    pub requests: u64,
    /// `GET` operations completed.
    pub gets: u64,
    /// `PUT` operations completed.
    pub puts: u64,
    /// `FLUSH` barriers completed (counted once per barrier).
    pub flushes: u64,
    /// Operations that failed server-side (status `ERR` responses).
    pub op_errors: u64,
    /// Connections dropped for malformed frames.
    pub protocol_errors: u64,
    /// Worker wakeups (each applied one batch).
    pub batches: u64,
    /// Requests applied through batches (mean batch = `batched_ops /
    /// batches`).
    pub batched_ops: u64,
    /// Total simulated device time accumulated across all shards, µs.
    pub sim_time_us: u64,
    /// Requests answered `BUSY` because their shard queue was full.
    pub busy_rejects: u64,
    /// Requests answered `BUSY` because their queueing deadline expired.
    pub shed_expired: u64,
    /// Retried `PUT`s absorbed by session dedup (acked without re-apply).
    pub deduped_puts: u64,
    /// Connections evicted by the socket read timeout (stalled or idle
    /// peers).
    pub idle_evictions: u64,
    /// Shards currently quarantined (worker panic or unrecoverable stack
    /// fault).
    pub shards_quarantined: u64,
    /// Network faults injected on accepted connections (testing only).
    pub net_faults_injected: u64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            op_errors: self.op_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_ops: self.batched_ops.load(Ordering::Relaxed),
            sim_time_us: self.sim_time_us.load(Ordering::Relaxed),
            busy_rejects: self.busy_rejects.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            deduped_puts: self.deduped_puts.load(Ordering::Relaxed),
            idle_evictions: self.idle_evictions.load(Ordering::Relaxed),
            shards_quarantined: self.shards_quarantined.load(Ordering::Relaxed),
            net_faults_injected: self.net_faults_injected.load(Ordering::Relaxed),
        }
    }
}

/// One routed unit of work on a shard queue.
enum ShardReq {
    Get {
        req_id: u64,
        lba: u64,
        enqueued: Instant,
        reply: Sender<Response>,
    },
    Put {
        req_id: u64,
        lba: u64,
        data: Vec<u8>,
        /// `(session token, req_id)` when the connection declared a
        /// session — the at-most-once key for retried PUTs.
        dedup: Option<(u64, u64)>,
        enqueued: Instant,
        reply: Sender<Response>,
    },
    /// One leg of a fanned-out durability barrier; the last shard to
    /// finish sends the single response.
    Flush {
        req_id: u64,
        remaining: Arc<AtomicUsize>,
        failed: Arc<AtomicBool>,
        quarantined: Arc<AtomicBool>,
        reply: Sender<Response>,
    },
}

/// Per-shard health shared between its worker and the server handle.
#[derive(Debug, Default)]
struct ShardHealth {
    quarantined: AtomicBool,
    reason: Mutex<Option<String>>,
}

/// Final health of one shard, reported by [`Server::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealthStatus {
    /// The shard served to the end and ran its durability barrier.
    Healthy,
    /// The shard was isolated; `reason` records the triggering panic or
    /// unrecoverable fault. Its stack was **not** barrier-flushed.
    Quarantined {
        /// What tripped the quarantine.
        reason: String,
    },
}

impl ShardHealthStatus {
    /// Whether the shard finished healthy.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ShardHealthStatus::Healthy)
    }
}

/// A running cache server. Dropping the handle without calling
/// [`Server::shutdown`] aborts the process threads detached — always shut
/// down explicitly to drain.
#[derive(Debug)]
pub struct Server<S: ServeSystem + 'static> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    senders: Vec<SyncSender<ShardReq>>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<S>>,
    router: ShardRouter,
    counters: Arc<Counters>,
    health: Arc<Vec<ShardHealth>>,
}

/// What a graceful shutdown hands back.
#[derive(Debug)]
pub struct ShutdownReport<S> {
    /// The drained manager stacks, reassembled with their router. `None`
    /// only if a worker *thread* was lost to a panic outside the guarded
    /// apply path, so a complete set cannot be reassembled; per-shard
    /// failures inside the apply path quarantine the shard but still
    /// return its stack.
    pub stacks: Option<ShardSet<S>>,
    /// Final activity counters.
    pub stats: ServerStats,
    /// Final per-shard health, indexed by shard.
    pub shard_health: Vec<ShardHealthStatus>,
    /// Panic messages captured while joining server threads (empty on a
    /// clean shutdown). Shutdown completes regardless.
    pub panics: Vec<String>,
}

/// Renders a captured panic payload (joins and `catch_unwind` both yield
/// `Box<dyn Any>`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<S: ServeSystem + 'static> Server<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and one worker per shard. Each worker takes exclusive
    /// ownership of its stack.
    ///
    /// # Errors
    ///
    /// Socket bind/listen failures.
    pub fn start<A: ToSocketAddrs>(
        set: ShardSet<S>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server<S>> {
        assert!(config.max_connections > 0, "need at least one connection");
        assert!(config.queue_depth > 0, "need a non-empty shard queue");
        assert!(config.batch_max > 0, "need a non-empty batch");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (stacks, router) = set.into_shards();
        let block_size = stacks[0].block_size() as u32;
        let shards = stacks.len();
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let health: Arc<Vec<ShardHealth>> =
            Arc::new((0..shards).map(|_| ShardHealth::default()).collect());

        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (index, stack) in stacks.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<ShardReq>(config.queue_depth);
            senders.push(tx);
            let ctx = WorkerCtx {
                counters: Arc::clone(&counters),
                health: Arc::clone(&health),
                index,
                batch_max: config.batch_max,
                shed_timeout: config.shed_timeout,
            };
            workers.push(std::thread::spawn(move || worker_loop(stack, rx, ctx)));
        }

        let accept = {
            let senders = senders.clone();
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let sem = Semaphore::new(config.max_connections);
            std::thread::spawn(move || {
                accept_loop(
                    listener, stop, senders, router, block_size, shards, sem, counters, config,
                )
            })
        };

        Ok(Server {
            addr: local,
            stop,
            senders,
            accept,
            workers,
            router,
            counters,
            health,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router placing LBAs onto shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// A live snapshot of the activity counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting, unblock and join every
    /// connection, drain all queued requests through the workers, run the
    /// `barrier_flush` durability barrier on every *healthy* stack, and
    /// hand the stacks back. Thread panics are captured into the report,
    /// never re-thrown — shutdown always completes.
    pub fn shutdown(self) -> ShutdownReport<S> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let mut panics = Vec::new();
        if let Err(p) = self.accept.join() {
            panics.push(format!("accept loop panicked: {}", panic_message(&*p)));
        }
        // All connections are joined; dropping the last senders lets each
        // worker drain its queue, flush, and return its stack.
        drop(self.senders);
        let mut stacks = Vec::new();
        let mut lost = false;
        for (i, w) in self.workers.into_iter().enumerate() {
            match w.join() {
                Ok(stack) => stacks.push(stack),
                Err(p) => {
                    lost = true;
                    panics.push(format!(
                        "shard {i} worker thread lost: {}",
                        panic_message(&*p)
                    ));
                }
            }
        }
        let shard_health = self
            .health
            .iter()
            .map(|h| {
                if h.quarantined.load(Ordering::SeqCst) {
                    ShardHealthStatus::Quarantined {
                        reason: h
                            .reason
                            .lock()
                            .expect("health reason poisoned")
                            .clone()
                            .unwrap_or_else(|| "unknown".to_string()),
                    }
                } else {
                    ShardHealthStatus::Healthy
                }
            })
            .collect();
        ShutdownReport {
            stacks: if lost {
                None
            } else {
                Some(ShardSet::from_parts(stacks, self.router))
            },
            stats: self.counters.snapshot(),
            shard_health,
            panics,
        }
    }
}

/// Everything a shard worker needs besides its stack and queue.
struct WorkerCtx {
    counters: Arc<Counters>,
    health: Arc<Vec<ShardHealth>>,
    index: usize,
    batch_max: usize,
    shed_timeout: Option<StdDuration>,
}

impl WorkerCtx {
    /// Flips this shard into quarantine (idempotent; first caller wins the
    /// recorded reason).
    fn quarantine(&self, reason: String) {
        let h = &self.health[self.index];
        if !h.quarantined.swap(true, Ordering::SeqCst) {
            *h.reason.lock().expect("health reason poisoned") = Some(reason);
            self.counters
                .shards_quarantined
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// How one guarded apply left the shard.
enum ApplyOutcome {
    /// Normal completion (including per-op `ERR` responses).
    Applied,
    /// The stack reported a fault it cannot serve through (the device
    /// needs crash recovery) — quarantine the shard.
    Unrecoverable(String),
}

/// One shard worker: exclusively owns a manager stack, drains its FIFO
/// queue in batches, and runs the final durability barrier when the last
/// queue sender disconnects. Requests are applied under `catch_unwind`; a
/// panic or unrecoverable stack fault quarantines the shard, after which
/// the worker keeps draining its queue with `SHARD_FAILED` responses so
/// no enqueued request is silently dropped.
fn worker_loop<S: ServeSystem>(mut stack: S, rx: Receiver<ShardReq>, ctx: WorkerCtx) -> S {
    let mut read_buf = PageBuf::with_capacity(stack.block_size());
    let mut batch: Vec<ShardReq> = Vec::with_capacity(ctx.batch_max);
    // Applied-PUT ids per session token, for at-most-once retries.
    let mut dedup: HashMap<u64, BTreeSet<u64>> = HashMap::new();
    let mut quarantined = false;
    loop {
        match rx.recv() {
            Ok(req) => batch.push(req),
            Err(_) => break, // all senders gone: queue fully drained
        }
        while batch.len() < ctx.batch_max {
            match rx.try_recv() {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        ctx.counters.batches.fetch_add(1, Ordering::Relaxed);
        ctx.counters
            .batched_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for req in batch.drain(..) {
            if quarantined {
                refuse(req, &ctx.counters);
                continue;
            }
            if let Some(limit) = ctx.shed_timeout {
                if queueing_deadline_expired(&req, limit) {
                    shed(req, &ctx.counters);
                    continue;
                }
            }
            // The stack and scratch buffer cross the unwind boundary; on a
            // panic the stack is never touched again (quarantine), so a
            // torn intermediate state cannot leak into later requests.
            let guarded = catch_unwind(AssertUnwindSafe(|| {
                apply(&mut stack, req, &mut read_buf, &ctx.counters, &mut dedup)
            }));
            match guarded {
                Ok(ApplyOutcome::Applied) => {}
                Ok(ApplyOutcome::Unrecoverable(reason)) => {
                    quarantined = true;
                    ctx.quarantine(reason);
                }
                Err(p) => {
                    // The in-flight request's reply sender died with the
                    // closure; its client converts the missing response
                    // into a deadline timeout.
                    quarantined = true;
                    ctx.quarantine(format!("worker panic: {}", panic_message(&*p)));
                }
            }
        }
    }
    // Shutdown drain: everything enqueued has been applied; make it all
    // crash-durable before releasing the stack. A quarantined stack is
    // returned as-is — it needs crash recovery, not a barrier.
    if !quarantined {
        match catch_unwind(AssertUnwindSafe(|| stack.barrier_flush())) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                ctx.counters.op_errors.fetch_add(1, Ordering::Relaxed);
                if e.is_unrecoverable() {
                    ctx.quarantine(format!("shutdown barrier: {e}"));
                }
            }
            Err(p) => {
                ctx.quarantine(format!("shutdown barrier panic: {}", panic_message(&*p)));
            }
        }
    }
    stack
}

/// Whether a sheddable request outlived its queueing deadline. `FLUSH`
/// legs are exempt: shedding one leg of a fanned-out barrier would corrupt
/// the completion count, and a barrier is exactly the request a client
/// wants late rather than never.
fn queueing_deadline_expired(req: &ShardReq, limit: StdDuration) -> bool {
    match req {
        ShardReq::Get { enqueued, .. } | ShardReq::Put { enqueued, .. } => {
            enqueued.elapsed() > limit
        }
        ShardReq::Flush { .. } => false,
    }
}

/// Sheds one expired request with `BUSY` (a promise it was not applied).
fn shed(req: ShardReq, counters: &Counters) {
    match req {
        ShardReq::Get { req_id, reply, .. } | ShardReq::Put { req_id, reply, .. } => {
            counters.shed_expired.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Response {
                req_id,
                status: STATUS_BUSY,
                payload: Vec::new(),
            });
        }
        ShardReq::Flush { .. } => unreachable!("flush legs are never shed"),
    }
}

/// Drains one request on a quarantined shard: `SHARD_FAILED`, nothing
/// applied.
fn refuse(req: ShardReq, counters: &Counters) {
    match req {
        ShardReq::Get { req_id, reply, .. } | ShardReq::Put { req_id, reply, .. } => {
            let _ = reply.send(Response {
                req_id,
                status: STATUS_SHARD_FAILED,
                payload: Vec::new(),
            });
        }
        ShardReq::Flush {
            req_id,
            remaining,
            failed,
            quarantined,
            reply,
        } => {
            failed.store(true, Ordering::Relaxed);
            quarantined.store(true, Ordering::Relaxed);
            finish_flush(req_id, &remaining, &failed, &quarantined, &reply, counters);
        }
    }
}

/// Completes one flush leg: the last shard to decrement sends the single
/// barrier response, degrading its status to the worst leg outcome.
fn finish_flush(
    req_id: u64,
    remaining: &AtomicUsize,
    failed: &AtomicBool,
    quarantined: &AtomicBool,
    reply: &Sender<Response>,
    counters: &Counters,
) {
    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        counters.flushes.fetch_add(1, Ordering::Relaxed);
        let status = if quarantined.load(Ordering::Relaxed) {
            STATUS_SHARD_FAILED
        } else if failed.load(Ordering::Relaxed) {
            STATUS_ERR
        } else {
            STATUS_OK
        };
        let _ = reply.send(Response {
            req_id,
            status,
            payload: Vec::new(),
        });
    }
}

/// Applies one request to the worker's stack and sends the response. A
/// recoverable failure produces a `STATUS_ERR` response, never a dead
/// worker — the client sees the error, the shard keeps serving. An
/// unrecoverable failure answers `SHARD_FAILED` and tells the caller to
/// quarantine.
fn apply<S: ServeSystem>(
    stack: &mut S,
    req: ShardReq,
    read_buf: &mut PageBuf,
    counters: &Counters,
    dedup: &mut HashMap<u64, BTreeSet<u64>>,
) -> ApplyOutcome {
    match req {
        ShardReq::Get {
            req_id, lba, reply, ..
        } => {
            counters.gets.fetch_add(1, Ordering::Relaxed);
            match stack.read_into(lba, read_buf) {
                Ok(cost) => {
                    counters
                        .sim_time_us
                        .fetch_add(cost.as_micros(), Ordering::Relaxed);
                    let _ = reply.send(Response {
                        req_id,
                        status: STATUS_OK,
                        payload: read_buf.to_vec(),
                    });
                    ApplyOutcome::Applied
                }
                Err(e) => {
                    counters.op_errors.fetch_add(1, Ordering::Relaxed);
                    let unrecoverable = e.is_unrecoverable();
                    let _ = reply.send(Response {
                        req_id,
                        status: if unrecoverable {
                            STATUS_SHARD_FAILED
                        } else {
                            STATUS_ERR
                        },
                        payload: Vec::new(),
                    });
                    if unrecoverable {
                        ApplyOutcome::Unrecoverable(format!("get lba {lba}: {e}"))
                    } else {
                        ApplyOutcome::Applied
                    }
                }
            }
        }
        ShardReq::Put {
            req_id,
            lba,
            data,
            dedup: dedup_key,
            reply,
            ..
        } => {
            counters.puts.fetch_add(1, Ordering::Relaxed);
            if let Some((token, id)) = dedup_key {
                if dedup.get(&token).is_some_and(|seen| seen.contains(&id)) {
                    // Already applied: the earlier ack was lost in
                    // transit. Re-ack without touching the stack.
                    counters.deduped_puts.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(Response {
                        req_id,
                        status: STATUS_OK,
                        payload: Vec::new(),
                    });
                    return ApplyOutcome::Applied;
                }
            }
            match stack.write(lba, &data) {
                Ok(cost) => {
                    counters
                        .sim_time_us
                        .fetch_add(cost.as_micros(), Ordering::Relaxed);
                    if let Some((token, id)) = dedup_key {
                        // Only *successful* applies are remembered: a
                        // failed PUT must stay re-executable on retry.
                        let seen = dedup.entry(token).or_default();
                        seen.insert(id);
                        if seen.len() > DEDUP_WINDOW {
                            seen.pop_first();
                        }
                    }
                    let _ = reply.send(Response {
                        req_id,
                        status: STATUS_OK,
                        payload: Vec::new(),
                    });
                    ApplyOutcome::Applied
                }
                Err(e) => {
                    counters.op_errors.fetch_add(1, Ordering::Relaxed);
                    let unrecoverable = e.is_unrecoverable();
                    let _ = reply.send(Response {
                        req_id,
                        status: if unrecoverable {
                            STATUS_SHARD_FAILED
                        } else {
                            STATUS_ERR
                        },
                        payload: Vec::new(),
                    });
                    if unrecoverable {
                        ApplyOutcome::Unrecoverable(format!("put lba {lba}: {e}"))
                    } else {
                        ApplyOutcome::Applied
                    }
                }
            }
        }
        ShardReq::Flush {
            req_id,
            remaining,
            failed,
            quarantined,
            reply,
        } => {
            let mut outcome = ApplyOutcome::Applied;
            match stack.barrier_flush() {
                Ok(cost) => {
                    counters
                        .sim_time_us
                        .fetch_add(cost.as_micros(), Ordering::Relaxed);
                }
                Err(e) => {
                    failed.store(true, Ordering::Relaxed);
                    counters.op_errors.fetch_add(1, Ordering::Relaxed);
                    if e.is_unrecoverable() {
                        quarantined.store(true, Ordering::Relaxed);
                        outcome = ApplyOutcome::Unrecoverable(format!("flush: {e}"));
                    }
                }
            }
            finish_flush(req_id, &remaining, &failed, &quarantined, &reply, counters);
            outcome
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    senders: Vec<SyncSender<ShardReq>>,
    router: ShardRouter,
    block_size: u32,
    shards: usize,
    sem: Arc<Semaphore>,
    counters: Arc<Counters>,
    config: ServerConfig,
) {
    // Clones of every live connection keyed by id, so shutdown can unblock
    // readers parked in `read`. Each connection's writer removes its entry
    // on exit — a lingering clone would hold the fd open (the peer would
    // never see EOF) and leak descriptors on a long-running server.
    let registry: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut next_conn_id: u64 = 0;
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        // Socket deadlines: a peer that stalls mid-frame or stops draining
        // responses cannot pin this connection's threads (or its
        // semaphore permit) forever.
        let _ = stream.set_read_timeout(config.read_timeout);
        let _ = stream.set_write_timeout(config.write_timeout);
        // Bound service concurrency: wait for a permit before spawning the
        // connection's threads — but keep watching the stop flag so a
        // shutdown during saturation cannot wedge the accept loop.
        let permit = loop {
            if let Some(p) = sem.acquire_timeout(StdDuration::from_millis(1)) {
                break Some(p);
            }
            if stop.load(Ordering::SeqCst) {
                break None;
            }
        };
        let Some(permit) = permit else { continue };
        counters.connections.fetch_add(1, Ordering::Relaxed);
        let write_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        registry.lock().expect("stream registry poisoned").insert(
            conn_id,
            match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            },
        );
        // Fault injection (testing): read and write directions draw
        // independent, per-connection decorrelated fault sequences.
        let read_transport = FaultyTransport::maybe(
            stream,
            config.net_faults.map(|p| p.decorrelated(conn_id * 2)),
        );
        let write_transport = FaultyTransport::maybe(
            write_stream,
            config.net_faults.map(|p| p.decorrelated(conn_id * 2 + 1)),
        );
        let (reply_tx, reply_rx) = mpsc::channel::<Response>();
        let hello = Hello {
            block_size,
            shards: shards as u32,
        };
        let writer_registry = Arc::clone(&registry);
        let writer_counters = Arc::clone(&counters);
        // Join the threads of connections that have ended: an unjoined
        // thread keeps its stack mapped until shutdown, so a reconnecting
        // client would grow the server without bound.
        for t in conn_threads.extract_if(.., |t| t.is_finished()) {
            let _ = t.join();
        }
        conn_threads.push(std::thread::spawn(move || {
            // The permit rides with the writer: it is the last thread of
            // the connection to exit (it waits for every queued response).
            let injected = connection_writer(write_transport, reply_rx, hello, permit);
            writer_counters
                .net_faults_injected
                .fetch_add(injected, Ordering::Relaxed);
            // Teardown: push the FIN and drop the registry clone, so the
            // peer sees EOF as soon as the connection is really done.
            if let Some(s) = writer_registry
                .lock()
                .expect("stream registry poisoned")
                .remove(&conn_id)
            {
                let _ = s.shutdown(Shutdown::Both);
            }
        }));
        let senders = senders.clone();
        let counters = Arc::clone(&counters);
        conn_threads.push(std::thread::spawn(move || {
            connection_reader(
                read_transport,
                block_size,
                router,
                senders,
                reply_tx,
                counters,
            );
        }));
    }
    // Graceful stop: sever every connection (readers wake with EOF, their
    // enqueued work still drains through the workers), then wait for all
    // connection threads.
    for s in registry.lock().expect("stream registry poisoned").values() {
        let _ = s.shutdown(Shutdown::Both);
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// Classifies a failed `try_send`: `Some(req_id)` for a full queue (shed
/// with `BUSY`), `None` for disconnected workers (shutdown in progress).
fn full_req_id(e: TrySendError<ShardReq>, req_id: u64) -> Option<u64> {
    match e {
        TrySendError::Full(_) => Some(req_id),
        TrySendError::Disconnected(_) => None,
    }
}

/// Decodes frames off one connection and routes them to shard queues in
/// arrival order. Exits on EOF, I/O error, idle timeout, or the first
/// malformed frame. A full shard queue answers `BUSY` immediately instead
/// of blocking this thread (which would head-of-line-block the whole
/// connection behind one hot shard).
fn connection_reader(
    transport: FaultyTransport,
    block_size: u32,
    router: ShardRouter,
    senders: Vec<SyncSender<ShardReq>>,
    reply_tx: Sender<Response>,
    counters: Arc<Counters>,
) {
    let mut r = BufReader::with_capacity(64 * 1024, transport);
    // Session token declared by this connection (retry-dedup key).
    let mut session: Option<u64> = None;
    loop {
        match crate::protocol::read_request(&mut r, block_size) {
            Ok(ReadOutcome::Request(Request::Session { token })) => {
                session = Some(token);
                continue;
            }
            Ok(ReadOutcome::Request(req)) => {
                counters.requests.fetch_add(1, Ordering::Relaxed);
                let routed: Result<(), Option<u64>> = match req {
                    Request::Get { req_id, lba } => senders[router.shard_of(lba)]
                        .try_send(ShardReq::Get {
                            req_id,
                            lba,
                            enqueued: Instant::now(),
                            reply: reply_tx.clone(),
                        })
                        .map_err(|e| full_req_id(e, req_id)),
                    Request::Put { req_id, lba, data } => senders[router.shard_of(lba)]
                        .try_send(ShardReq::Put {
                            req_id,
                            lba,
                            data,
                            dedup: session.map(|token| (token, req_id)),
                            enqueued: Instant::now(),
                            reply: reply_tx.clone(),
                        })
                        .map_err(|e| full_req_id(e, req_id)),
                    Request::Flush { req_id } => {
                        // A barrier is never shed (see
                        // `queueing_deadline_expired`), so its legs use the
                        // blocking send: partial fan-out would corrupt the
                        // completion count.
                        let remaining = Arc::new(AtomicUsize::new(senders.len()));
                        let failed = Arc::new(AtomicBool::new(false));
                        let quarantined = Arc::new(AtomicBool::new(false));
                        let mut result = Ok(());
                        for tx in &senders {
                            result = result.and(tx.send(ShardReq::Flush {
                                req_id,
                                remaining: Arc::clone(&remaining),
                                failed: Arc::clone(&failed),
                                quarantined: Arc::clone(&quarantined),
                                reply: reply_tx.clone(),
                            }));
                        }
                        result.map_err(|_| None)
                    }
                    Request::Session { .. } => unreachable!("handled above"),
                };
                match routed {
                    Ok(()) => {}
                    Err(Some(req_id)) => {
                        // Overload: shed at the door with a promise the
                        // request was not applied.
                        counters.busy_rejects.fetch_add(1, Ordering::Relaxed);
                        if reply_tx
                            .send(Response {
                                req_id,
                                status: STATUS_BUSY,
                                payload: Vec::new(),
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    // Workers only disappear during shutdown.
                    Err(None) => break,
                }
            }
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::Malformed(_)) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // The read timeout fired: the peer stalled mid-frame or
                // went idle. The buffered stream may have consumed a
                // partial frame, so the connection cannot be resumed —
                // evict it (releasing its permit via the writer).
                counters.idle_evictions.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break,
        }
    }
    counters
        .net_faults_injected
        .fetch_add(r.get_ref().counters().total(), Ordering::Relaxed);
}

/// Serializes responses back onto one connection, flushing whenever the
/// response queue momentarily empties. Exits when every request sender for
/// this connection is gone and the queue is drained. Returns the number of
/// network faults injected on the write direction.
fn connection_writer(
    transport: FaultyTransport,
    reply_rx: Receiver<Response>,
    hello: Hello,
    _permit: crate::semaphore::Permit,
) -> u64 {
    let mut w = BufWriter::with_capacity(64 * 1024, transport);
    let mut broken = hello.write_to(&mut w).is_err() || w.flush().is_err();
    while let Ok(resp) = reply_rx.recv() {
        if !broken {
            broken = resp.write_to(&mut w).is_err();
        }
        // Opportunistically coalesce whatever is already queued, then
        // flush once.
        let mut disconnected = false;
        loop {
            match reply_rx.try_recv() {
                Ok(r) => {
                    if !broken {
                        broken = r.write_to(&mut w).is_err();
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if !broken {
            broken = w.flush().is_err();
        }
        if disconnected {
            break;
        }
    }
    w.get_ref().counters().total()
}
