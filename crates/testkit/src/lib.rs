//! One statement of FlashTier's guarantees for the test suites.
//!
//! The paper's contribution is a cache whose guarantees survive power
//! failure (§3.5): after write-dirty a read returns the data, after
//! write-clean the data or not-present, after evict not-present — with
//! roll-forward recovery behind them (§4.2.2). [`Model`] states those
//! rules once, per LBA, as the set of versions a read may return; every
//! crash, fault and durability suite checks its reads against it.
//! [`Driven`] pairs a cache system with a model, and
//! [`Driven::crash_campaign`] runs one seeded crash campaign: operations,
//! an armed [`flashtier_core::CrashSite`] or a crash at an operation
//! boundary, recovery, and a sweep of every block.
//!
//! Test support only: no product crate depends on it, and integration
//! tests reach it through `[dev-dependencies]`.

mod driver;
mod model;

pub use driver::{
    aggressive_faults, fuzz_scale, fuzz_sites, lcg, read_ssc, test_disk, wide_shards, Crash,
    Driven, PowerCycle, Shards,
};
pub use model::{Codec, Mark, Model, Replayed, Tagged};
