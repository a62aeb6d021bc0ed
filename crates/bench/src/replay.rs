//! Shared setup for the replay-throughput measurements.
//!
//! The `perf_replay` gate binary and the equivalence tests replay the same
//! deterministic Zipf workload through the three cache systems in `Discard`
//! mode; this module owns the workload parameters and the system
//! constructors so they cannot drift apart. The measurement is *host* CPU
//! cost of the simulator (the quantity the control-path indexes and the
//! allocation-free data path optimize), not simulated device time — but
//! each run also reports total simulated time, which must be byte-for-byte
//! reproducible for a given seed.

use std::thread;
use std::time::Instant;

use cachemgr::{
    replay, CacheSystem, FlashTierWb, FlashTierWt, NativeCache, NativeConsistency, NativeMode,
    ShardSet,
};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::{DataMode, FaultCounters, FaultPlan, FlashConfig};
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
    /// Off by default: the perf gates measure the `Discard` fast path.
    pub stored: bool,
}

impl ReplaySetup {
    /// The `perf_replay` gate configuration: a 4 GB volume with a 64 MB
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

    /// Overrides the workload seed (perf_replay's `--seed`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables deterministic media-fault injection at a base rate of
    /// `ppm` parts-per-million (perf_replay's `--faults`).
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

/// The systems a replay run can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySystem {
    /// FlashTier write-through over the SSC.
    FlashtierWt,
    /// FlashTier write-back over the SSC-R.
    FlashtierWb,
    /// Native write-back over the hybrid FTL.
    NativeWb,
}

impl ReplaySystem {
    /// All three systems, in the canonical reporting order.
    pub const ALL: [ReplaySystem; 3] = [
        ReplaySystem::FlashtierWt,
        ReplaySystem::FlashtierWb,
        ReplaySystem::NativeWb,
    ];

    /// The JSON/report key for this system.
    pub fn name(self) -> &'static str {
        match self {
            ReplaySystem::FlashtierWt => "flashtier_wt",
            ReplaySystem::FlashtierWb => "flashtier_wb",
            ReplaySystem::NativeWb => "native_wb",
        }
    }

    /// Parses a `--systems` list element (the JSON key spelling).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

simkit::counter_set! {
    /// Fault-path outcome of one faulted replay: what the media injected and
    /// how the stack degraded. Only populated when the fault plan is active,
    /// so faults-off reports are byte-identical to the pre-fault format.
    pub struct FaultReport {
        /// Faults the media layer injected or absorbed (all classes).
        pub injected: u64,
        /// Unrecoverable read failures + detected corruptions surfaced.
        pub read_faults: u64,
        /// Program failures surfaced to the FTL/SSC.
        pub program_faults: u64,
        /// Erase failures surfaced to the FTL/SSC.
        pub erase_faults: u64,
        /// Blocks the FTL/SSC retired (grown bad or worn out).
        pub blocks_retired: u64,
        /// Cache reads converted into disk-served misses.
        pub read_fault_fallbacks: u64,
        /// Unreadable dirty blocks dropped by the destage path.
        pub destage_fault_invalidations: u64,
        /// Fallbacks that lost a dirty (not-yet-destaged) copy.
        pub lost_dirty_reads: u64,
    }
}

impl FaultReport {
    fn new(injected: FaultCounters, retired: u64, mgr: cachemgr::MgrCounters) -> Self {
        FaultReport {
            injected: injected.total(),
            read_faults: injected.read_failures + injected.read_corruptions,
            program_faults: injected.program_failures,
            erase_faults: injected.erase_failures,
            blocks_retired: retired,
            read_fault_fallbacks: mgr.read_fault_fallbacks,
            destage_fault_invalidations: mgr.destage_fault_invalidations,
            lost_dirty_reads: mgr.lost_dirty_reads,
        }
    }

    fn of_ssc(ssc: &Ssc, mgr: cachemgr::MgrCounters) -> Self {
        Self::new(ssc.fault_counters(), ssc.counters().blocks_retired, mgr)
    }

    /// The report for a FlashTier write-through stack.
    pub(crate) fn of_wt(s: &FlashTierWt) -> Self {
        Self::of_ssc(s.ssc(), s.counters())
    }

    /// The report for a FlashTier write-back stack.
    pub(crate) fn of_wb(s: &FlashTierWb) -> Self {
        Self::of_ssc(s.ssc(), s.counters())
    }

    /// The report for the Native stack.
    pub(crate) fn of_native(s: &NativeCache<HybridFtl>) -> Self {
        use ftl::BlockDev;
        Self::new(
            s.fault_counters(),
            s.ssd().ftl_counters().blocks_retired,
            s.counters(),
        )
    }

    /// The `,"faults":{…}` member `perf_replay` appends to a faulted
    /// system's JSON object.
    pub fn json_member(&self) -> String {
        format!(
            ",\"faults\":{{\"injected\":{},\"read_faults\":{},\
             \"program_faults\":{},\"erase_faults\":{},\
             \"blocks_retired\":{},\"read_fault_fallbacks\":{},\
             \"destage_fault_invalidations\":{},\"lost_dirty_reads\":{}}}",
            self.injected,
            self.read_faults,
            self.program_faults,
            self.erase_faults,
            self.blocks_retired,
            self.read_fault_fallbacks,
            self.destage_fault_invalidations,
            self.lost_dirty_reads
        )
    }
}

/// One system's replay measurement.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// System key (see [`ReplaySystem::name`]).
    pub name: &'static str,
    /// Events replayed through this system.
    pub events: u64,
    /// Wall-clock seconds this system's replay took (its own thread's
    /// start-to-finish time when systems run concurrently).
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Total simulated time — seed-deterministic, independent of host
    /// speed or scheduling.
    pub sim_time_us: u64,
    /// Fault/degradation counters; `None` when faults are off.
    pub faults: Option<FaultReport>,
    /// Events routed to each shard, in shard order; `None` for an
    /// unsharded run (keeps the default report format unchanged).
    pub shard_events: Option<Vec<u64>>,
}

fn timed<S: CacheSystem>(
    kind: ReplaySystem,
    mut system: S,
    t: &Trace,
    faulted: bool,
    probe: fn(&S) -> FaultReport,
) -> SystemResult {
    let start = Instant::now();
    let stats = replay(&mut system, &t.events).expect("replay");
    let wall = start.elapsed().as_secs_f64();
    SystemResult {
        name: kind.name(),
        events: stats.ops,
        wall_s: wall,
        events_per_sec: stats.ops as f64 / wall,
        sim_time_us: stats.sim_time.as_micros(),
        faults: faulted.then(|| probe(&system)),
        shard_events: None,
    }
}

/// Builds and replays one system against a pre-generated trace.
pub fn run_system(kind: ReplaySystem, setup: &ReplaySetup, t: &Trace) -> SystemResult {
    let faulted = setup.fault_plan().is_some();
    match kind {
        ReplaySystem::FlashtierWt => {
            timed(kind, setup.flashtier_wt(), t, faulted, FaultReport::of_wt)
        }
        ReplaySystem::FlashtierWb => {
            timed(kind, setup.flashtier_wb(), t, faulted, FaultReport::of_wb)
        }
        ReplaySystem::NativeWb => {
            timed(kind, setup.native_wb(), t, faulted, FaultReport::of_native)
        }
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

/// One sharded replay's full outcome: the merged [`SystemResult`] plus the
/// per-shard breakdown the equivalence tests compare against unsharded
/// runs.
#[derive(Debug, Clone)]
pub struct ShardedRunDetail {
    /// The merged result (what `perf_replay` reports).
    pub result: SystemResult,
    /// Per-shard device counters, in shard order.
    pub shard_counters: Vec<SscCounters>,
    /// Per-shard simulated time in microseconds, in shard order. The
    /// merged `sim_time_us` is the max of these — the logical wall time of
    /// the parallel execution, independent of host scheduling.
    pub shard_sim_time_us: Vec<u64>,
}

/// What one shard's replay produced; gathered at the join barrier.
struct ShardOutcome {
    ops: u64,
    sim_time_us: u64,
    counters: SscCounters,
    faults: Option<FaultReport>,
}

/// Replays per-shard subsequences through per-shard stacks on scoped
/// threads and merges deterministically: counters sum, simulated time
/// max-merges. Each shard owns a complete stack (an SSC over a `1/n`
/// geometry split, its own disk tier and manager), so threads share
/// nothing and the per-shard outcomes are exactly those of `n` independent
/// sequential replays — the merge is byte-for-byte reproducible regardless
/// of host scheduling.
fn timed_sharded<S, P>(
    kind: ReplaySystem,
    t: &Trace,
    set: ShardSet<S>,
    faulted: bool,
    probe: P,
) -> ShardedRunDetail
where
    S: CacheSystem + Send,
    P: Fn(&S) -> (SscCounters, FaultReport) + Sync,
{
    let (stacks, router) = set.into_shards();
    let parts = partition_events(&t.events, router);
    let start = Instant::now();
    let outcomes: Vec<ShardOutcome> = thread::scope(|scope| {
        let probe = &probe;
        let handles: Vec<_> = stacks
            .into_iter()
            .zip(&parts)
            .map(|(mut system, events)| {
                scope.spawn(move || {
                    let stats = replay(&mut system, events).expect("sharded replay");
                    let (counters, report) = probe(&system);
                    ShardOutcome {
                        ops: stats.ops,
                        sim_time_us: stats.sim_time.as_micros(),
                        counters,
                        faults: faulted.then_some(report),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard replay thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let events: u64 = outcomes.iter().map(|o| o.ops).sum();
    let shard_sim_time_us: Vec<u64> = outcomes.iter().map(|o| o.sim_time_us).collect();
    let faults = outcomes
        .iter()
        .filter_map(|o| o.faults)
        .reduce(|a, b| a.merged(&b));
    ShardedRunDetail {
        result: SystemResult {
            name: kind.name(),
            events,
            wall_s: wall,
            events_per_sec: events as f64 / wall,
            sim_time_us: shard_sim_time_us.iter().copied().max().unwrap_or(0),
            faults,
            shard_events: Some(parts.iter().map(|p| p.len() as u64).collect()),
        },
        shard_counters: outcomes.iter().map(|o| o.counters).collect(),
        shard_sim_time_us,
    }
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

/// Builds and replays one system partitioned over `shards` shards,
/// returning the per-shard breakdown. Only the two FlashTier systems
/// shard (the native baseline has no partitioned build); asking for it
/// falls back to the unsharded run with an empty breakdown.
pub fn run_sharded_detail(
    kind: ReplaySystem,
    setup: &ReplaySetup,
    t: &Trace,
    shards: usize,
) -> ShardedRunDetail {
    assert!(shards >= 1, "need at least one shard");
    let faulted = setup.fault_plan().is_some();
    match kind {
        ReplaySystem::FlashtierWt => timed_sharded(
            kind,
            t,
            setup.wt_shard_set(shards),
            faulted,
            |s: &FlashTierWt| (s.ssc().counters(), FaultReport::of_wt(s)),
        ),
        ReplaySystem::FlashtierWb => timed_sharded(
            kind,
            t,
            setup.wb_shard_set(shards),
            faulted,
            |s: &FlashTierWb| (s.ssc().counters(), FaultReport::of_wb(s)),
        ),
        ReplaySystem::NativeWb => ShardedRunDetail {
            result: run_system(kind, setup, t),
            shard_counters: Vec::new(),
            shard_sim_time_us: Vec::new(),
        },
    }
}

/// Builds and replays one system partitioned over `shards` shards against
/// a pre-generated trace (the `perf_replay --shards` path). `shards == 1`
/// replays the whole trace through a single full-geometry stack and is
/// bit-identical to [`run_system`].
pub fn run_system_sharded(
    kind: ReplaySystem,
    setup: &ReplaySetup,
    t: &Trace,
    shards: usize,
) -> SystemResult {
    run_sharded_detail(kind, setup, t, shards).result
}
