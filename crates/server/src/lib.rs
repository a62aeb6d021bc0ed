//! A concurrent cache-server front-end for the FlashTier stack.
//!
//! FlashTier positions the SSC under a live cache manager serving
//! foreground I/O; production flash caches (Flashield, memcached-on-flash)
//! are *services* evaluated under concurrent client load with tail-latency
//! SLOs. This crate puts that service layer on top of the sharded
//! managers: a block-`GET`/`PUT`/`FLUSH` protocol server
//! ([`Server`]) fronting a share-nothing [`cachemgr::ShardSet`] of
//! `FlashTierWt`/`FlashTierWb` stacks, with
//!
//! * semaphore-bounded connections (back-pressure instead of unbounded
//!   thread growth),
//! * per-shard request routing that preserves per-LBA ordering with no
//!   data-path locks,
//! * batched submission into each manager behind one worker per shard, and
//! * graceful shutdown that drains in-flight operations through the
//!   `barrier_flush` durability barrier and returns the stacks.
//!
//! The workspace builds offline with no async runtime available, so the
//! server is plain `std::net` blocking I/O on OS threads — the
//! architecture (bounded accept, share-nothing shard workers, pipelined
//! connections) is runtime-agnostic and is exactly what a tokio front-end
//! would schedule onto tasks instead of threads.
//!
//! See `DESIGN.md` §11 for the ordering and drain guarantees and §12 for
//! the failure model; the `benchmark/` ledger measures this server's
//! saturation throughput and open-loop latency (its `server.*` rows).

pub mod client;
pub mod netfault;
pub mod protocol;
pub mod retry;
pub mod semaphore;
pub mod server;

pub use client::{BlockClient, RecvHalf, SendHalf};
pub use netfault::{FaultyTransport, NetFaultCounters, NetFaultPlan};
pub use protocol::{
    Hello, Request, Response, STATUS_BUSY, STATUS_ERR, STATUS_OK, STATUS_SHARD_FAILED,
};
pub use retry::{RetryConfig, RetryStats, RetryingClient};
pub use semaphore::{Permit, Semaphore};
pub use server::{
    ServeSystem, Server, ServerConfig, ServerStats, ShardHealthStatus, ShutdownReport,
};
