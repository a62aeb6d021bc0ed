//! The solid-state cache (SSC) — FlashTier's core contribution.
//!
//! An SSC is a flash device whose interface is designed for **caching**
//! rather than disk replacement (FlashTier, EuroSys 2012). This crate
//! implements the device end to end:
//!
//! * **Unified sparse address space** (§4.1) — the cache manager writes disk
//!   LBAs directly; the SSC maps them to flash with a sparse hash map
//!   ([`sparsemap`]) keyed by logical block, hybrid between 256 KB
//!   block-granularity entries (with per-block dirty-page bitmaps) and 4 KB
//!   page-granularity entries for log blocks, held as one sparse row per
//!   logical block.
//! * **Consistent cache interface** (§4.2) — six operations:
//!   [`Ssc::write_dirty`], [`Ssc::write_clean`], [`Ssc::read`],
//!   [`Ssc::evict`], [`Ssc::clean`], [`Ssc::exists`], honouring the paper's
//!   three guarantees: dirty data is durable, reads never return stale data,
//!   reads after eviction return not-present.
//! * **Persistence** (§4.2.2) — an operation log with synchronous commit for
//!   `write-dirty`/`evict` and asynchronous group commit for
//!   `write-clean`/`clean`; periodic checkpoints of the forward maps into
//!   two alternating dedicated regions; roll-forward [`Ssc::recover`] after
//!   a [`Ssc::crash`].
//! * **Silent eviction** (§4.3) — garbage collection that *drops* clean data
//!   instead of copying it, under the `SE-Util` policy (data blocks only) or
//!   the `SE-Merge` policy (erased blocks may also become log blocks,
//!   enabling cheap switch merges) — the paper's SSC and SSC-R
//!   configurations.
//!
//! # Examples
//!
//! ```
//! use flashtier_core::{Ssc, SscConfig, SscError};
//!
//! let mut ssc = Ssc::new(SscConfig::small_test());
//! let page = vec![0xCD; ssc.page_size()];
//!
//! // Cache a clean block at its disk address.
//! ssc.write_clean(42, &page).unwrap();
//! assert_eq!(ssc.read(42).unwrap().0, page);
//!
//! // Evicting it makes subsequent reads fail with a not-present error.
//! ssc.evict(42).unwrap();
//! assert!(matches!(ssc.read(42), Err(SscError::NotPresent(42))));
//! ```

pub mod checkpoint;
mod codec;
mod config;
mod device;
mod error;
mod evict_index;
mod map;
mod recovery;
mod shard;
pub mod wal;

pub use config::{ConsistencyMode, EvictionPolicy, SscConfig, VictimSelection};
pub use device::{CrashSite, Ssc, SscCounters};
pub use error::SscError;
pub use map::{BlockEntry, PagePtr, SscMaps};
pub use shard::{decorrelate_fault_seed, shard_config, ShardRouter};
pub use wal::{LogRecord, MapLevel};

/// Result alias for SSC operations.
pub type Result<T> = std::result::Result<T, SscError>;
