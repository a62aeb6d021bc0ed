//! Cache managers: the OS-side half of FlashTier.
//!
//! "A cache manager interposes above the disk device driver in the operating
//! system to send requests to either the flash device or the disk" (§3).
//! This crate implements both managers the paper evaluates:
//!
//! * the **FlashTier cache manager** over an SSC —
//!   [`FlashTierWt`] (write-through: zero host state, every read consults
//!   the cache, misses fill with `write-clean`) and [`FlashTierWb`]
//!   (write-back: `write-dirty` to the cache only, an in-memory
//!   [`DirtyTable`] of dirty blocks, LRU cleaning with contiguous-run
//!   merging, `exists`-based crash recovery) — §4.4;
//! * the **Native manager** over a conventional SSD ([`NativeCache`]),
//!   modelled on Facebook's FlashCache: a host-side mapping table for every
//!   cached block (22 bytes/block), manager-controlled LRU replacement, and
//!   per-update metadata persistence to the SSD for crash safety — the
//!   baseline of §6.
//!
//! [`StackSpec`] assembles every manager the evaluation compares over one
//! shared flash, disk and payload mode. [`replay`] drives any manager with
//! a trace and gathers the IOPS/latency/hit-rate statistics behind Figures
//! 3, 4 and 6.

pub mod dirty_table;
mod error;
mod flashtier_wb;
mod flashtier_wt;
mod metrics;
pub mod native;
mod sharded;
mod slot_cache;
mod stack;
mod system;

pub use dirty_table::DirtyTable;
pub use error::CmError;
pub use flashtier_wb::FlashTierWb;
pub use flashtier_wt::FlashTierWt;
pub use metrics::MgrCounters;
pub use native::{NativeCache, NativeConsistency, NativeMode};
pub use sharded::ShardSet;
pub use simkit::PageBuf;
pub use stack::{build_shards, StackSpec};
pub use system::{replay, write_payload_into, CacheSystem, ReplayStats};

/// Result alias for cache-manager operations.
pub type Result<T> = std::result::Result<T, CmError>;
