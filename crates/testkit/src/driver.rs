//! The campaign driver: a cache system beside its [`Model`], seeded
//! operations, an armed crash site or a crash at an operation boundary,
//! recovery, and a sweep of every block afterwards.

use cachemgr::{CacheSystem, CmError, FlashTierWb, FlashTierWt, MgrCounters, NativeCache};
use cachemgr::{PageBuf, ShardSet};
use disksim::{Disk, DiskConfig, DiskDataMode};
use flashsim::FaultPlan;
use flashtier_core::{decorrelate_fault_seed, shard_config, CrashSite, ShardRouter};
use flashtier_core::{Ssc, SscConfig, SscError};
use simkit::Duration;
use sparsemap::MapMemory;
use std::fmt::Display;

use crate::model::Model;

/// Campaign-count multiplier from `FLASHTIER_FUZZ_SCALE` (default 1): the
/// scheduled deep-CI job raises it to run longer campaigns than the
/// per-change gate can afford; any positive integer works locally.
pub fn fuzz_scale() -> u64 {
    std::env::var("FLASHTIER_FUZZ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// The small test disk, keeping payloads.
pub fn test_disk() -> Disk {
    Disk::new(DiskConfig::small_test(), DiskDataMode::Store)
}

/// Reads `lba` at the SSC's own interface and checks it against `model`:
/// not present must be `NotPresent`, and a read that succeeds must name a
/// version (zeros are not-present only at a cache system's interface).
/// Any other error panics.
pub fn read_ssc(ssc: &mut Ssc, model: &Model, lba: u64, context: impl Display) -> Option<u64> {
    match ssc.read(lba) {
        Ok((data, _)) => {
            let found = model.assert_read(lba, Some(&data), &context);
            assert!(
                found.is_some(),
                "{context}: read({lba}) returned zeros, not NotPresent"
            );
            found
        }
        Err(SscError::NotPresent(_)) => model.assert_read(lba, None, context),
        Err(e) => panic!("{context}: read({lba}): {e}"),
    }
}

/// `n` stacks of `manager` over the split of [`SscConfig::small_test`]
/// widened to 32 blocks per plane, so a 4-way split leaves usable shards;
/// faults off.
pub fn wide_shards<S: CacheSystem>(n: usize, manager: impl Fn(Ssc, Disk) -> S) -> ShardSet<S> {
    let mut config = SscConfig::small_test();
    let g = config.flash.geometry;
    let (planes, ppb, page, oob) = (g.planes(), g.pages_per_block(), g.page_size(), g.oob_size());
    config.flash.geometry = flashsim::Geometry::new(planes, 32, ppb, page, oob);
    Shards::new(&config, n, None, test_disk, manager).0
}

/// Media faults of every class at rates far beyond real flash (1-1.5% of
/// reads, 0.5% of programs, 0.1% of erases), so every fallback path fires
/// within a few thousand operations.
pub fn aggressive_faults() -> FaultPlan {
    FaultPlan {
        seed: 0x000F_A117,
        read_transient_ppm: 10_000,
        read_permanent_ppm: 15_000,
        read_corrupt_ppm: 15_000,
        program_fail_ppm: 5_000,
        erase_fail_ppm: 1_000,
    }
}

/// The campaigns' generator: a 64-bit LCG returning its top 31 bits.
pub fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A cache system that can lose power and recover.
pub trait PowerCycle: CacheSystem {
    /// Power fails everywhere at once, then the system recovers (or
    /// returns why it could not).
    fn power_cycle(&mut self) -> Result<(), CmError>;

    /// The SSC of shard `shard`, where crash sites are armed; `None` for a
    /// cache without one.
    fn ssc_mut(&mut self, _shard: usize) -> Option<&mut Ssc> {
        None
    }

    /// How many shards the system routes over.
    fn shards(&self) -> usize {
        1
    }
}

impl PowerCycle for FlashTierWt {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        self.crash_and_recover().map(drop)
    }
    fn ssc_mut(&mut self, _shard: usize) -> Option<&mut Ssc> {
        Some(FlashTierWt::ssc_mut(self))
    }
}

impl PowerCycle for FlashTierWb {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        self.crash_and_recover().map(drop)
    }
    fn ssc_mut(&mut self, _shard: usize) -> Option<&mut Ssc> {
        Some(FlashTierWb::ssc_mut(self))
    }
}

impl<D: ftl::BlockDev> PowerCycle for NativeCache<D> {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        self.crash_and_recover().map(drop)
    }
}

/// Share-nothing manager stacks behind one [`CacheSystem`] face, routed by
/// the [`ShardRouter`] the server and the sharded replay use. A power
/// failure takes down every stack, armed or not.
pub struct Shards<S>(pub ShardSet<S>);

impl<S: CacheSystem> Shards<S> {
    /// `n` stacks over the `n`-way split of `config`, each `manager` over
    /// its own SSC and a disk from `disk`; `faults` goes to every shard
    /// with its seed decorrelated per shard.
    pub fn new(
        config: &SscConfig,
        n: usize,
        faults: Option<FaultPlan>,
        disk: impl Fn() -> Disk,
        manager: impl Fn(Ssc, Disk) -> S,
    ) -> Self {
        let per_shard = shard_config(config, n);
        let shards = (0..n).map(|i| {
            let mut ssc = Ssc::new(per_shard);
            if let Some(plan) = faults {
                let seed = decorrelate_fault_seed(plan.seed, i);
                ssc.set_fault_plan(FaultPlan { seed, ..plan });
            }
            manager(ssc, disk())
        });
        let router = ShardRouter::new(n, per_shard.flash.geometry.pages_per_block());
        Shards(ShardSet::from_parts(shards.collect(), router))
    }

    fn sum(&self, memory: impl Fn(&S) -> MapMemory) -> MapMemory {
        let add = |a: MapMemory, m: MapMemory| MapMemory {
            entries: a.entries + m.entries,
            modeled_bytes: a.modeled_bytes + m.modeled_bytes,
            heap_bytes: a.heap_bytes + m.heap_bytes,
        };
        self.0
            .shards()
            .iter()
            .map(memory)
            .fold(MapMemory::default(), add)
    }
}

impl<S: CacheSystem> CacheSystem for Shards<S> {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> Result<Duration, CmError> {
        self.0.route_mut(lba).read_into(lba, buf)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Duration, CmError> {
        self.0.route_mut(lba).write(lba, data)
    }
    fn counters(&self) -> MgrCounters {
        self.0.counters()
    }
    fn host_memory(&self) -> MapMemory {
        self.sum(S::host_memory)
    }
    fn device_memory(&self) -> MapMemory {
        self.sum(S::device_memory)
    }
    fn block_size(&self) -> usize {
        self.0.shard(0).block_size()
    }
    fn name(&self) -> &'static str {
        self.0.shard(0).name()
    }
}

impl<S: PowerCycle> PowerCycle for Shards<S> {
    fn power_cycle(&mut self) -> Result<(), CmError> {
        (0..self.0.num_shards()).try_for_each(|i| self.0.shard_mut(i).power_cycle())
    }
    fn ssc_mut(&mut self, shard: usize) -> Option<&mut Ssc> {
        self.0.shard_mut(shard).ssc_mut(0)
    }
    fn shards(&self) -> usize {
        self.0.num_shards()
    }
}

/// A system driven beside its model: every read is checked, every write
/// recorded as acked or, when it fails, in flight, and every dirty copy
/// the system reports dropped to a media fault passed on to the model.
/// Versions count up from 1 per write.
pub struct Driven<S> {
    /// The system under test.
    pub system: S,
    /// What its reads may return.
    pub model: Model,
    version: u64,
    /// Dropped dirty copies the system had reported at the last look.
    drops: u64,
    /// Prefixes every violation's message.
    pub context: String,
}

impl<S: CacheSystem> Driven<S> {
    /// `system` beside a fresh [`Tagged`](crate::Tagged) model of its
    /// block size.
    pub fn new(system: S) -> Self {
        let model = Model::new(system.block_size());
        let (version, drops, context) = (0, 0, String::new());
        Driven {
            system,
            model,
            version,
            drops,
            context,
        }
    }

    /// Passes on the dirty copies the system dropped since the last look:
    /// a faulted read of one, or a destage that could not read one.
    fn note_drops(&mut self) {
        let c = self.system.counters();
        let drops = c.lost_dirty_reads + c.destage_fault_invalidations;
        self.model.report_drops(drops.saturating_sub(self.drops));
        self.drops = drops;
    }

    /// Reads `lba` and checks it, returning the version found (`None`:
    /// zeros) or the system's error; a guarantee violation panics.
    pub fn read(&mut self, lba: u64) -> Result<Option<u64>, CmError> {
        let (data, _) = self.system.read(lba)?;
        self.note_drops();
        let found = self.model.observe(lba, &data);
        Ok(found.unwrap_or_else(|violation| panic!("{}: {violation}", self.context)))
    }

    /// Writes the next version of `lba`: acked when the write returns, in
    /// flight when it fails with the system's error.
    pub fn write(&mut self, lba: u64) -> Result<Duration, CmError> {
        self.version += 1;
        let v = self.version;
        let result = self.system.write(lba, &self.model.payload(lba, v));
        match result {
            Ok(_) => self.model.ack(lba, v),
            Err(_) => self.model.in_flight(lba, v),
        }
        self.note_drops();
        result
    }

    /// `ops` operations, each a write (`true`) or a read of the LBA `next`
    /// draws; a system error panics.
    pub fn churn(&mut self, ops: u64, mut next: impl FnMut() -> (u64, bool)) {
        for _ in 0..ops {
            let (lba, write) = next();
            let done = if write {
                self.write(lba).map(drop)
            } else {
                self.read(lba).map(drop)
            };
            if let Err(e) = done {
                panic!("{}: lba {lba}: {e}", self.context);
            }
        }
    }

    /// Reads and checks every LBA in `lbas`; a read error panics.
    pub fn sweep(&mut self, lbas: impl IntoIterator<Item = u64>) {
        for lba in lbas {
            if let Err(e) = self.read(lba) {
                panic!("{}: read({lba}) failed: {e}", self.context);
            }
        }
    }

    /// [`Driven::sweep`] over every LBA the model knows.
    pub fn sweep_written(&mut self) {
        let lbas: Vec<u64> = self.model.lbas().collect();
        self.sweep(lbas);
    }
}

// A crash campaign touches SPAN LBAs: WARM_OPS operations before a site is
// armed, at most FUZZ_OPS until it fires, POST_OPS after recovery.
const SPAN: u64 = 48;
const WARM_OPS: u64 = 30;
const FUZZ_OPS: u64 = 600;
const POST_OPS: u64 = 60;

/// Where a campaign's power failure comes from.
#[derive(Debug, Clone, Copy)]
pub enum Crash {
    /// Armed inside one shard's SSC after the warm-up; the shard alternates
    /// with the armed trigger count.
    Site(CrashSite),
    /// Between two operations, at a seeded point in the first 330.
    Boundary,
}

impl<S: PowerCycle> Driven<S> {
    /// One seeded operation over the campaign span, a read one time in
    /// three, else a write. A power failure is `Err`, naming the LBA of a
    /// write it left in flight.
    fn step(&mut self, rng: &mut u64) -> Result<(), Option<u64>> {
        let lba = lcg(rng) % SPAN;
        let read = lcg(rng).is_multiple_of(3);
        let faults = self.read_faults();
        let result = if read {
            self.read(lba).map(drop)
        } else {
            self.write(lba).map(drop)
        };
        match result {
            Ok(()) => Ok(()),
            Err(CmError::Ssc(SscError::PowerLoss)) => {
                // A manager evicts an unreadable dirty copy before it counts
                // the drop, so power can fail in between: each read fault of
                // the interrupted operation may be a drop never reported.
                let unreported = self.read_faults() - faults;
                self.model.report_drops(unreported);
                Err((!read).then_some(lba))
            }
            Err(e) => panic!("{}: op on lba {lba}: {e}", self.context),
        }
    }

    /// The reads the SSCs have failed so far (transient faults succeed).
    fn read_faults(&mut self) -> u64 {
        (0..self.system.shards())
            .filter_map(|i| self.system.ssc_mut(i).map(|ssc| ssc.fault_counters()))
            .map(|f| f.read_failures + f.read_corruptions)
            .sum()
    }

    /// Runs `ops` steps that no power failure may interrupt.
    fn steps(&mut self, rng: &mut u64, ops: u64) {
        for _ in 0..ops {
            let stepped = self.step(rng);
            assert!(stepped.is_ok(), "{}: power failed unarmed", self.context);
        }
    }

    /// One campaign: warm up, crash (an armed site firing, or at an
    /// operation boundary), recover, sweep the whole span, re-read and
    /// overwrite the block left in flight, and keep operating. Returns
    /// whether the power failure fired.
    pub fn crash_campaign(&mut self, seed: u64, crash: Crash) -> bool {
        let mut rng;
        let ops = match crash {
            Crash::Site(site) => {
                rng = seed
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(site as u64)
                    | 1;
                WARM_OPS
            }
            Crash::Boundary => {
                rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                WARM_OPS + lcg(&mut rng) % 300
            }
        };
        self.context = format!("seed {seed} {crash:?}");
        self.steps(&mut rng, ops);
        let (mut fired, mut in_flight) = (matches!(crash, Crash::Boundary), None);
        if let Crash::Site(site) = crash {
            let after = lcg(&mut rng) % 3;
            self.ssc(after as usize % self.system.shards())
                .arm_crash(site, after);
            for _ in 0..FUZZ_OPS {
                if let Err(lba) = self.step(&mut rng) {
                    (fired, in_flight) = (true, lba);
                    break;
                }
            }
            if !fired {
                (0..self.system.shards()).for_each(|i| self.ssc(i).disarm_crash());
            }
        }
        if let Err(e) = self.system.power_cycle() {
            panic!("{}: recovery failed: {e}", self.context);
        }
        self.context = format!("seed {seed} {crash:?} (fired: {fired})");
        self.sweep(0..SPAN);
        if let Some(lba) = in_flight {
            let rewritten = self.read(lba).and_then(|_| self.write(lba));
            assert!(rewritten.is_ok(), "{}: in-flight lba {lba}", self.context);
        }
        self.steps(&mut rng, POST_OPS);
        fired
    }

    fn ssc(&mut self, shard: usize) -> &mut Ssc {
        self.system
            .ssc_mut(shard)
            .expect("a crash site needs an SSC")
    }
}

/// Runs `seeds` campaigns per site over fresh systems from `build`, and
/// demands that each site's power failure fired in most of them. Returns
/// every campaign's manager counters, summed.
pub fn fuzz_sites<S: PowerCycle>(
    mut build: impl FnMut() -> S,
    sites: &[CrashSite],
    seeds: u64,
) -> MgrCounters {
    let mut counters = MgrCounters::default();
    for &site in sites {
        let mut fired = 0;
        for seed in 0..seeds {
            let mut run = Driven::new(build());
            fired += u64::from(run.crash_campaign(seed, Crash::Site(site)));
            counters = counters.merged(&run.system.counters());
        }
        assert!(
            fired * 2 > seeds,
            "{site:?}: power failure fired in only {fired}/{seeds} campaigns — \
             the workload no longer reaches this site"
        );
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "returned zeros, not NotPresent")]
    fn an_ssc_read_of_zeros_is_not_not_present() {
        let mut ssc = Ssc::new(SscConfig::small_test());
        let zeros = vec![0; ssc.page_size()];
        ssc.write_clean(5, &zeros).unwrap();
        read_ssc(&mut ssc, &Model::new(zeros.len()), 5, "never written");
    }
}
