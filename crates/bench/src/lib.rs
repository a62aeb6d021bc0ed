//! Experiment harness: reproduces every table and figure of the FlashTier
//! evaluation (§6).
//!
//! Each experiment lives in [`experiments`] as a function returning
//! structured rows; the `experiments` binary prints them in the paper's
//! layout (`experiments <name>|all [--scale f]`). Workloads are the
//! synthetic Table 3 equivalents from the `trace` crate, shrunk by a
//! per-workload default scale factor ([`scaled::default_scale`]) so the
//! full suite finishes in seconds — `--scale <f>` multiplies that factor
//! (values below `1.0` grow the experiment toward paper scale).
//!
//! Absolute IOPS numbers differ from the paper (different hardware era,
//! synthetic traces); the *comparisons* — who wins, by what factor, and how
//! read-heavy vs write-heavy workloads behave — are the reproduction
//! targets, recorded in `EXPERIMENTS.md`.

pub mod build;
pub mod cli;
pub mod experiments;
pub mod replay;
pub mod scaled;
pub mod tablefmt;
