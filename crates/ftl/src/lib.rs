//! Baseline SSD: flash translation layers over the flash simulator.
//!
//! The FlashTier paper compares its solid-state cache against a conventional
//! SSD ("the Native system ... and the FlashSim SSD simulator", §6.1) whose
//! firmware implements a **hybrid flash translation layer** similar to FAST
//! (Lee et al., *A log buffer-based flash translation layer using
//! fully-associative sector translation*): most of the drive is mapped at
//! erase-block granularity (**data blocks**), a small fraction is mapped at
//! page granularity (**log blocks**), new writes append to the log, and
//! merges fold log contents back into data blocks:
//!
//! * **switch merge** — a log block that contains exactly one logical block,
//!   written sequentially, becomes the data block with no copying;
//! * **full merge** — otherwise every logical block touched by the victim log
//!   block is rebuilt by copying its newest pages into a fresh block.
//!
//! This crate provides:
//!
//! * [`HybridFtl`] — the FAST-style SSD used as the paper's Native baseline,
//! * [`PageFtl`] — a pure page-mapped FTL with greedy garbage collection,
//!   used for ablations,
//! * the flash-block rules the SSC in `flashtier-core` shares with both
//!   FTLs: [`FreeBlockPool`] (wear-aware, plane-balanced free blocks) with
//!   [`FreeBlockPool::erase_or_retire`], the one way a block is erased back
//!   into the pool or retired for good, and [`switch_candidate`], the
//!   switch-merge test,
//! * the [`BlockDev`] trait both FTLs implement.
//!
//! Both FTLs charge every flash operation (including all merge and GC work)
//! to the request that triggered it, so replay IOPS reflect garbage
//! collection exactly as in the paper's Figure 6.

pub mod config;
pub mod error;
pub mod hybrid;
pub mod pagemap;
pub mod pool;
pub mod ssd;

pub use config::SsdConfig;
pub use error::FtlError;
pub use hybrid::{switch_candidate, HybridFtl};
pub use pagemap::PageFtl;
pub use pool::FreeBlockPool;
pub use ssd::{BlockDev, FtlCounters};

/// Result alias for FTL operations.
pub type Result<T> = std::result::Result<T, FtlError>;
