//! Shared setup for the replay tests.
//!
//! The equivalence tests (`replay_equiv`, `shard_equiv`) and the pinned
//! 1M-event replay (`sim_time_pins`) drive the same deterministic Zipf
//! workload through the three cache systems; this module owns the workload
//! parameters and the system constructors so they cannot drift apart, and
//! the sharded replay that runs per-shard stacks on scoped threads. Every
//! figure a run reports is simulated time or a counter, byte-for-byte
//! reproducible for a given seed; host speed is the `benchmark/` ledger's.

use std::thread;

use cachemgr::{
    replay, CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode,
    ShardSet,
};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FaultPlan, FlashConfig};
use flashtier_core::{shard_config, ConsistencyMode, ShardRouter, Ssc, SscConfig, SscCounters};
use ftl::{HybridFtl, SsdConfig};
use trace::{generate, Trace, TraceEvent, WorkloadSpec};

/// Workload and device sizing for one replay run.
#[derive(Debug, Clone)]
pub struct ReplaySetup {
    /// Workload name recorded in the trace.
    pub name: &'static str,
    /// Events to replay.
    pub events: u64,
    /// Disk address span in blocks.
    pub range_blocks: u64,
    /// Distinct blocks the workload touches.
    pub unique_blocks: u64,
    /// Flash cache capacity in bytes.
    pub flash_bytes: u64,
    /// Workload PRNG seed.
    pub seed: u64,
    /// Base media-fault rate in parts-per-million (0 = faults off; the
    /// off path is byte-identical to a build without fault support).
    pub fault_ppm: u32,
    /// Retain payload bytes in the cache and disk tiers (`Store` data
    /// modes) so an end-to-end harness can verify content after the run.
    /// Off by default: the pinned replay runs the `Discard` fast path.
    pub stored: bool,
}

impl ReplaySetup {
    /// The pinned replay's configuration: a 4 GB volume with a 64 MB
    /// flash cache (16 Ki pages, ~25% of the unique blocks).
    pub fn perf(events: u64) -> Self {
        ReplaySetup {
            name: "zipf-replay",
            events,
            range_blocks: 1 << 20,
            unique_blocks: 1 << 16,
            flash_bytes: 64 << 20,
            seed: 0xBEAC_0001,
            fault_ppm: 0,
            stored: false,
        }
    }

    /// Enables deterministic media-fault injection at a base rate of
    /// `ppm` parts-per-million.
    pub fn with_faults(mut self, ppm: u32) -> Self {
        self.fault_ppm = ppm;
        self
    }

    /// Switches every tier to `Store` data mode so payloads survive to be
    /// verified (the equivalence tests read every written block back).
    pub fn with_stored_data(mut self) -> Self {
        self.stored = true;
        self
    }

    fn data_mode(&self) -> DataMode {
        if self.stored {
            DataMode::Store
        } else {
            DataMode::Discard
        }
    }

    /// The seeded fault plan for this setup, or `None` when faults are
    /// off. Read faults fire at the base rate; the rarer classes scale
    /// down from it so a single knob exercises every path.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_ppm == 0 {
            return None;
        }
        let ppm = self.fault_ppm;
        Some(FaultPlan {
            seed: self.seed ^ 0xFA17_0BAD,
            read_transient_ppm: ppm,
            read_permanent_ppm: ppm / 2,
            read_corrupt_ppm: ppm / 2,
            oob_corrupt_ppm: ppm / 8,
            program_fail_ppm: ppm / 2,
            erase_fail_ppm: ppm / 4,
        })
    }

    /// Generates the deterministic Zipf trace for this setup.
    pub fn workload(&self) -> Trace {
        generate(&WorkloadSpec {
            name: self.name.into(),
            range_blocks: self.range_blocks,
            unique_blocks: self.unique_blocks,
            total_ops: self.events,
            write_fraction: 0.30,
            zipf_theta: 0.99,
            seq_run_prob: 0.20,
            seq_run_len: 16,
            seed: self.seed,
        })
    }

    /// Flash configuration for the cache device.
    pub fn flash(&self) -> FlashConfig {
        FlashConfig::with_capacity_bytes(self.flash_bytes)
    }

    /// Disk tier covering the workload span.
    pub fn disk(&self) -> Disk {
        Disk::new(
            DiskConfig {
                capacity_blocks: self.range_blocks,
                ..DiskConfig::paper_default()
            },
            if self.stored {
                DiskDataMode::Store
            } else {
                DiskDataMode::Discard
            },
        )
    }

    /// SSC configuration for the write-through system (clean+dirty
    /// durable maps).
    pub fn wt_config(&self) -> SscConfig {
        SscConfig::ssc(self.flash())
            .with_data_mode(self.data_mode())
            .with_consistency(ConsistencyMode::CleanAndDirty)
    }

    /// SSC-R configuration for the write-back system (dirty-only durable
    /// maps).
    pub fn wb_config(&self) -> SscConfig {
        SscConfig::ssc_r(self.flash())
            .with_data_mode(self.data_mode())
            .with_consistency(ConsistencyMode::DirtyOnly)
    }

    /// FlashTier write-through: SSC with clean+dirty durable maps.
    pub fn flashtier_wt(&self) -> FlashTierWt {
        let mut system = FlashTierWt::new(Ssc::new(self.wt_config()), self.disk());
        if let Some(plan) = self.fault_plan() {
            system.set_fault_plan(plan);
        }
        system
    }

    /// FlashTier write-back: SSC-R with dirty-only durable maps.
    pub fn flashtier_wb(&self) -> FlashTierWb {
        let mut system = FlashTierWb::new(Ssc::new(self.wb_config()), self.disk());
        if let Some(plan) = self.fault_plan() {
            system.set_fault_plan(plan);
        }
        system
    }

    /// Share-nothing write-through shard stacks, as sharded replay runs
    /// them: a 1/n-geometry split per shard, fault seeds decorrelated per
    /// shard, and the pure LBA router.
    pub fn wt_shard_set(&self, shards: usize) -> ShardSet<FlashTierWt> {
        let config = self.wt_config();
        let per_shard = shard_config(&config, shards);
        let plan = self.fault_plan();
        ShardSet::from_parts(
            (0..shards)
                .map(|i| FlashTierWt::new(build_shard_ssc(per_shard, plan, i), self.disk()))
                .collect(),
            ShardRouter::new(shards, config.flash.geometry.pages_per_block()),
        )
    }

    /// Share-nothing write-back shard stacks (see
    /// [`ReplaySetup::wt_shard_set`]).
    pub fn wb_shard_set(&self, shards: usize) -> ShardSet<FlashTierWb> {
        let config = self.wb_config();
        let per_shard = shard_config(&config, shards);
        let plan = self.fault_plan();
        ShardSet::from_parts(
            (0..shards)
                .map(|i| FlashTierWb::new(build_shard_ssc(per_shard, plan, i), self.disk()))
                .collect(),
            ShardRouter::new(shards, config.flash.geometry.pages_per_block()),
        )
    }

    /// Native write-back: FlashCache-style manager over the hybrid FTL,
    /// persisting metadata on every dirty-state change.
    pub fn native_wb(&self) -> NativeCache<HybridFtl> {
        let ssd = HybridFtl::new(SsdConfig::paper_default(self.flash()), self.data_mode());
        let mut system = NativeCache::new(
            ssd,
            self.disk(),
            NativeMode::WriteBack,
            NativeConsistency::Durable,
        );
        if let Some(plan) = self.fault_plan() {
            system.set_fault_plan(plan);
        }
        system
    }
}

/// Splits a trace into per-shard subsequences with [`ShardRouter`],
/// preserving the original order *within* each shard. Because the router is
/// a pure function of the LBA, every operation on a given logical block
/// lands in the same subsequence in its original order — so per-LBA
/// semantics are unchanged by partitioned replay.
pub fn partition_events(events: &[TraceEvent], router: ShardRouter) -> Vec<Vec<TraceEvent>> {
    let n = router.num_shards();
    let mut parts: Vec<Vec<TraceEvent>> = (0..n)
        .map(|_| Vec::with_capacity(events.len() / n + 1))
        .collect();
    for &e in events {
        parts[router.shard_of(e.lba)].push(e);
    }
    parts
}

/// One shard's SSC: the 1/n-geometry config with the fault seed
/// decorrelated per shard.
fn build_shard_ssc(per_shard: SscConfig, plan: Option<FaultPlan>, i: usize) -> Ssc {
    let mut ssc = Ssc::new(per_shard);
    if let Some(mut p) = plan {
        p.seed = flashtier_core::decorrelate_fault_seed(p.seed, i);
        ssc.set_fault_plan(p);
    }
    ssc
}

/// One sharded replay's outcome, per shard in shard order, plus the faults
/// injected over all shards. The run's simulated time is the max over
/// shards ([`ShardedRun::sim_time_us`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRun {
    /// Events each shard replayed.
    pub shard_events: Vec<u64>,
    /// Simulated time of each shard in microseconds.
    pub shard_sim_time_us: Vec<u64>,
    /// Device counters of each shard.
    pub shard_counters: Vec<SscCounters>,
    /// Media faults injected across every shard, all classes.
    pub injected_faults: u64,
}

impl ShardedRun {
    /// The logical wall time of the parallel execution: the max of the
    /// per-shard simulated times, independent of host scheduling.
    pub fn sim_time_us(&self) -> u64 {
        self.shard_sim_time_us.iter().copied().max().unwrap_or(0)
    }
}

/// Replays `t` partitioned over the stacks of `set`, one scoped thread per
/// shard, reading each shard's device through `ssc`. Each shard owns a
/// complete stack (an SSC over a `1/n` geometry split, its own disk tier
/// and manager), so threads share nothing and the outcome is exactly that
/// of `n` independent sequential replays, whatever the host scheduling.
pub fn replay_sharded<S>(set: ShardSet<S>, t: &Trace, ssc: fn(&S) -> &Ssc) -> ShardedRun
where
    S: CacheSystem + Send,
{
    let (stacks, router) = set.into_shards();
    let parts = partition_events(&t.events, router);
    let outcomes: Vec<(u64, u64, SscCounters, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = stacks
            .into_iter()
            .zip(&parts)
            .map(|(mut system, events)| {
                scope.spawn(move || {
                    let stats = replay(&mut system, events).expect("sharded replay");
                    let device = ssc(&system);
                    (
                        stats.ops,
                        stats.sim_time.as_micros(),
                        device.counters(),
                        device.fault_counters().total(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard replay thread panicked"))
            .collect()
    });
    ShardedRun {
        shard_events: outcomes.iter().map(|o| o.0).collect(),
        shard_sim_time_us: outcomes.iter().map(|o| o.1).collect(),
        shard_counters: outcomes.iter().map(|o| o.2).collect(),
        injected_faults: outcomes.iter().map(|o| o.3).sum(),
    }
}
