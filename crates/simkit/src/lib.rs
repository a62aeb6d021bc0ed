//! Simulation substrate shared by every FlashTier component.
//!
//! The FlashTier reproduction is built around *discrete simulated time*: every
//! device model (flash, SSC, SSD, disk) reports how many simulated
//! microseconds an operation took, and the replay harness accumulates those
//! costs on a [`SimClock`]. Nothing in the workspace reads the wall clock, so
//! every experiment is exactly reproducible.
//!
//! The crate provides:
//!
//! * [`SimClock`] / [`SimTime`] / [`Duration`] — the simulated time base.
//! * [`rng`] — small deterministic PRNGs (SplitMix64 and xoshiro256++) so that
//!   workload generation does not depend on external crate versions for
//!   reproducibility of the published numbers.
//! * [`stats`] — histograms, percentiles and CDFs used by the evaluation
//!   harness.
//! * [`hash`] — [`hash::BlockHash`], the cheap deterministic `BuildHasher`
//!   for host-side tables keyed by a block address.
//! * [`iobuf`] — the reusable [`PageBuf`] that every device `*_into` read
//!   fills, keeping steady-state replay loops allocation-free.
//! * [`counter_set!`] — the declaration every layer's counter struct uses,
//!   so `merged`/`since` are generated rather than written per struct.

pub mod clock;
mod counters;
pub mod crc;
pub mod hash;
pub mod iobuf;
pub mod rng;
pub mod stats;

pub use clock::{Duration, SimClock, SimTime};
pub use crc::{crc32, crc32_bytewise};
pub use iobuf::PageBuf;
pub use rng::{fill_pseudo, SimRng};
pub use stats::{Cdf, Histogram};
