//! Workload traces: synthetic generation, statistics and replay.
//!
//! The paper evaluates on four production block traces collected downstream
//! of an active page cache (Table 3): a file server (*homes*) and an email
//! server (*mail*) from FIU, and user-directory (*usr*) and project (*proj*)
//! volumes from MSR Cambridge. Those traces are not redistributable, so this
//! crate generates **synthetic equivalents calibrated to the published
//! statistics**:
//!
//! * the address-space *range*, *unique block* count, *total operation*
//!   count and *write fraction* of Table 3 (scalable via
//!   [`WorkloadSpec::scaled`]);
//! * the *region sparseness* of Figure 1 — unique blocks are scattered over
//!   100,000-block regions with a heavy-tailed per-region density, so most
//!   touched regions have under 1% of their blocks referenced;
//! * the *popularity skew* of caching workloads — accesses follow a YCSB-
//!   style scrambled-Zipf distribution over the unique blocks, so a top-25%
//!   hot set absorbs most traffic and hot blocks see several times the
//!   average write rate (§2 "Wear Management").
//!
//! [`TraceStats`] recomputes all of those properties from any trace, which is
//! how the Table 3 / Figure 1 reproductions validate the generator — and how a
//! user's own imported trace (JSON lines, [`Trace::from_jsonl`]) can be
//! characterized before replay.

mod event;
mod generator;
mod import;
mod stats;
mod workloads;
pub mod zipf;

pub use event::{OpKind, Trace, TraceEvent};
pub use generator::generate;
pub use import::from_msr_csv;
pub use stats::TraceStats;
pub use workloads::WorkloadSpec;
pub use zipf::ZipfSampler;
