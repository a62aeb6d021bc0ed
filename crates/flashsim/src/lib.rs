//! NAND flash device simulator.
//!
//! This crate is the reproduction of the FlashSim substrate the FlashTier
//! paper builds on (Kim et al., *FlashSim: A simulator for NAND flash-based
//! solid-state drives*). It models the *mechanisms* of a raw NAND device —
//! geometry, timing, page states, out-of-band (OOB) metadata, erase-before-
//! write, sequential in-block programming, and wear accounting — and leaves
//! all *policy* (address translation, garbage collection, eviction) to the
//! FTL and SSC crates layered on top.
//!
//! # Model
//!
//! A device is a set of **planes**; each plane holds **erase blocks**; each
//! block holds **pages** (4 KB by default). The three NAND constraints the
//! simulator enforces are:
//!
//! 1. a page must be erased (`Free`) before it can be programmed,
//! 2. pages within a block must be programmed in sequential order, and
//! 3. erasing operates on whole blocks only.
//!
//! Every operation returns its simulated cost as a [`simkit::Duration`],
//! computed from the [`FlashTiming`] model with the Intel-300-series
//! parameters of the paper's Table 2 as defaults.
//!
//! # State and primitives
//!
//! Because programming is sequential, a block's page states need no
//! per-page storage: a [`Block`] is a write pointer, a `u64` validity bitmap
//! and an erase count (page `i` is `Free` iff `i >= write_ptr`, `Valid` iff
//! bit `i` is set, `Invalid` otherwise). OOB metadata and — in
//! [`DataMode::Store`] only — payloads live in flat arrays indexed by
//! [`Ppn`]. Policy code reads validity a block at a time
//! ([`FlashDevice::valid_mask`], [`FlashDevice::valid_pages_iter`],
//! [`FlashDevice::block_state`]).
//!
//! Host traffic goes through [`FlashDevice::read_page_into`] (and its
//! `read_page` wrapper), [`FlashDevice::program_next`] /
//! [`FlashDevice::program_page`] and [`FlashDevice::erase_block`].
//! Device-internal relocation never moves a payload to the host:
//! [`FlashDevice::read_page_charge`] + [`FlashDevice::copy_page_from`]
//! relocate one page, and [`FlashDevice::rebuild_block`] rebuilds a run of
//! a block from an old data block (named by its validity mask, handled a
//! word at a time) overlaid with individual log pages in one call — the
//! single merge-copy primitive of the hybrid FTL and the SSC.
//!
//! # Data modes
//!
//! Like the paper's SSC emulator (which discards data like the David
//! emulator), the device can run in [`DataMode::Discard`], where it neither
//! stores nor produces payload bytes: a read sizes the caller's buffer and
//! writes nothing into it. Timing, counters and faults are those of
//! [`DataMode::Store`], which correctness tests use.
//!
//! # Examples
//!
//! ```
//! use flashsim::{DataMode, FlashConfig, FlashDevice, OobData};
//!
//! let config = FlashConfig::small_test();
//! let mut dev = FlashDevice::new(config, DataMode::Store);
//! let ppn = dev.geometry().ppn(0, 0, 0);
//! let data = vec![0xAB; dev.geometry().page_size()];
//! dev.program_page(ppn, &data, OobData::for_lba(42, false, 1)).unwrap();
//! let (read, _cost) = dev.read_page(ppn).unwrap();
//! assert_eq!(read, data);
//! ```

mod addr;
mod block;
mod config;
mod counters;
mod device;
mod error;
mod fault;
mod oob;
mod page;
mod timing;

pub use addr::{Pbn, Ppn};
pub use block::{set_bits, Block, BlockState};
pub use config::{FlashConfig, Geometry};
pub use counters::{FlashCounters, WearStats};
pub use device::{DataMode, FlashDevice};
pub use error::FlashError;
pub use fault::{FaultCounters, FaultInjector, FaultPlan, ReadFault};
pub use oob::OobData;
pub use page::PageState;
pub use simkit::PageBuf;
pub use timing::FlashTiming;

/// Result alias for flash operations.
pub type Result<T> = std::result::Result<T, FlashError>;
