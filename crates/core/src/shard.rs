//! Hash-partitioned SSC shards (the "sharded SSC" front-end).
//!
//! The sparse LBA space is partitioned by a hash of the *logical block
//! number* (`lba / pages_per_block`) into N independent shards. Each shard
//! is a complete [`Ssc`] — its own planes, forward maps, WAL/group-commit
//! log, checkpoint slots, eviction index, and GC state — so shards share no
//! mutable state and can run on separate threads without locks. Routing by
//! LBN (not raw LBA) keeps every page of a logical block inside one shard,
//! which preserves block-level mappings and switch-merge behavior exactly.
//!
//! # Deterministic timing
//!
//! Each shard advances its own logical clock by the simulated cost of the
//! operations routed to it. Clocks are max-merged only at explicit sync
//! points — [`ShardedSsc::barrier_flush`], [`ShardedSsc::recover`], and
//! whenever the caller reads [`ShardedSsc::sim_time`] (which takes the max
//! without mutating). Because each shard's subsequence of operations is
//! fixed by the router (a pure function of the LBA), per-shard clocks are
//! independent of host scheduling, and the merged time is byte-for-byte
//! reproducible for a given seed at any shard count. At N=1 the router is
//! the identity, the single clock is the plain sum of costs, and the device
//! is bit-identical to an unsharded [`Ssc`] over the same geometry.

use simkit::{Duration, PageBuf};
use sparsemap::MapMemory;

use crate::config::SscConfig;
use crate::device::{CrashSite, Ssc, SscCounters};
use crate::device_api::SscDevice;
use crate::Result;

/// `splitmix64` finalizer: a cheap, well-mixed 64-bit hash.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the fault-plan seed for shard `i` from a device-wide seed:
/// shard 0 keeps the seed verbatim (so a 1-shard device faults identically
/// to an unsharded one); other shards get decorrelated streams.
pub fn decorrelate_fault_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        seed
    } else {
        seed ^ mix64(shard as u64)
    }
}

/// Routes LBAs to shards: `mix64(lba / ppb) % n`.
///
/// Pure and stateless — the same LBA always lands on the same shard, and
/// every page of a logical block lands together.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    n: usize,
    ppb: u64,
}

impl ShardRouter {
    /// Creates a router over `n` shards for a device with `ppb` pages per
    /// erase block.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `ppb` is zero.
    pub fn new(n: usize, ppb: u32) -> Self {
        assert!(n > 0, "need at least one shard");
        assert!(ppb > 0, "pages per block must be non-zero");
        ShardRouter { n, ppb: ppb as u64 }
    }

    /// Number of shards routed over.
    pub fn num_shards(&self) -> usize {
        self.n
    }

    /// The shard owning `lba`. Always 0 when there is a single shard, so
    /// the N=1 configuration is exactly the unsharded device.
    #[inline]
    pub fn shard_of(&self, lba: u64) -> usize {
        if self.n == 1 {
            return 0;
        }
        (mix64(lba / self.ppb) % self.n as u64) as usize
    }
}

/// Derives the per-shard configuration for an `n`-way split of `config`:
/// each shard keeps the plane count and per-block geometry but owns
/// `blocks_per_plane / n` (rounded up) blocks per plane. At `n == 1` this
/// is the identity, which is what makes the single-shard device
/// bit-identical to the unsharded one.
pub fn shard_config(config: &SscConfig, n: usize) -> SscConfig {
    assert!(n > 0, "need at least one shard");
    let g = config.flash.geometry;
    let per_shard = flashsim::Geometry::new(
        g.planes(),
        g.blocks_per_plane().div_ceil(n as u32),
        g.pages_per_block(),
        g.page_size(),
        g.oob_size(),
    );
    let mut cfg = *config;
    cfg.flash.geometry = per_shard;
    cfg
}

/// N independent SSC shards behind the single-device interface.
///
/// Operations are routed by [`ShardRouter`]; per-shard logical clocks track
/// simulated time and are max-merged at sync points (see the module docs
/// for the determinism argument).
#[derive(Debug)]
pub struct ShardedSsc {
    shards: Vec<Ssc>,
    clocks: Vec<Duration>,
    router: ShardRouter,
}

impl ShardedSsc {
    /// Creates `n` shards over an `n`-way split of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(config: SscConfig, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        let per_shard = shard_config(&config, n);
        let shards: Vec<Ssc> = (0..n).map(|_| Ssc::new(per_shard)).collect();
        let router = ShardRouter::new(n, config.flash.geometry.pages_per_block());
        ShardedSsc {
            shards,
            clocks: vec![Duration::ZERO; n],
            router,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The router used to place LBAs.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Immutable access to shard `i`.
    pub fn shard(&self, i: usize) -> &Ssc {
        &self.shards[i]
    }

    /// Mutable access to shard `i` (test and bench hook).
    pub fn shard_mut(&mut self, i: usize) -> &mut Ssc {
        &mut self.shards[i]
    }

    /// Mutable access to all shards (bench hook for parallel drivers).
    pub fn shards_mut(&mut self) -> &mut [Ssc] {
        &mut self.shards
    }

    /// The merged logical clock: the max over per-shard clocks, i.e. the
    /// wall time of the parallel execution. At N=1 this is the plain sum of
    /// operation costs, matching an unsharded device.
    pub fn sim_time(&self) -> Duration {
        self.clocks.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Per-shard logical clocks (diagnostics, load-balance reporting).
    pub fn shard_clocks(&self) -> &[Duration] {
        &self.clocks
    }

    /// Max-merges all shard clocks to the global maximum — the explicit
    /// sync-point operation. Returns the merged value.
    pub fn sync_clocks(&mut self) -> Duration {
        let m = self.sim_time();
        for c in &mut self.clocks {
            *c = m;
        }
        m
    }

    /// Flushes every shard's buffered log records (a durability barrier
    /// across the whole device) and max-merges the clocks. Returns the
    /// merged cost of the barrier: the slowest shard's flush, since shards
    /// flush in parallel.
    pub fn barrier_flush(&mut self) -> Result<Duration> {
        let mut worst = Duration::ZERO;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let d = shard.commit_log()?;
            self.clocks[i] += d;
            worst = worst.max(d);
        }
        self.sync_clocks();
        Ok(worst)
    }

    /// Arms a crash trigger inside shard `i` (see [`Ssc::arm_crash`]).
    pub fn arm_crash_shard(&mut self, i: usize, site: CrashSite, after: u64) {
        self.shards[i].arm_crash(site, after);
    }

    /// Disarms any pending crash trigger on every shard.
    pub fn disarm_crash(&mut self) {
        for shard in &mut self.shards {
            shard.disarm_crash();
        }
    }

    /// Whether any shard has an armed crash trigger.
    pub fn crash_armed(&self) -> bool {
        self.shards.iter().any(|s| s.crash_armed())
    }

    #[inline]
    fn route(&self, lba: u64) -> usize {
        self.router.shard_of(lba)
    }

    #[inline]
    fn charge(&mut self, s: usize, r: Result<Duration>) -> Result<Duration> {
        if let Ok(d) = r {
            self.clocks[s] += d;
        }
        r
    }

    /// `write-dirty` routed to the owning shard.
    ///
    /// # Errors
    ///
    /// See [`Ssc::write_dirty`].
    pub fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let s = self.route(lba);
        let r = self.shards[s].write_dirty(lba, data);
        self.charge(s, r)
    }

    /// `write-clean` routed to the owning shard.
    ///
    /// # Errors
    ///
    /// See [`Ssc::write_clean`].
    pub fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        let s = self.route(lba);
        let r = self.shards[s].write_clean(lba, data);
        self.charge(s, r)
    }

    /// `read` routed to the owning shard; `dest` as in [`Ssc::read_to`].
    ///
    /// # Errors
    ///
    /// See [`Ssc::read_to`].
    pub fn read_to(&mut self, lba: u64, dest: Option<&mut PageBuf>) -> Result<Duration> {
        let s = self.route(lba);
        let r = self.shards[s].read_to(lba, dest);
        self.charge(s, r)
    }

    /// `read` returning a fresh buffer.
    ///
    /// # Errors
    ///
    /// See [`Ssc::read_to`].
    pub fn read(&mut self, lba: u64) -> Result<(Vec<u8>, Duration)> {
        let mut buf = PageBuf::new();
        let d = self.read_to(lba, Some(&mut buf))?;
        Ok((buf.into_vec(), d))
    }

    /// `evict` routed to the owning shard.
    ///
    /// # Errors
    ///
    /// See [`Ssc::evict`].
    pub fn evict(&mut self, lba: u64) -> Result<Duration> {
        let s = self.route(lba);
        let r = self.shards[s].evict(lba);
        self.charge(s, r)
    }

    /// `clean` routed to the owning shard.
    ///
    /// # Errors
    ///
    /// See [`Ssc::clean`].
    pub fn clean(&mut self, lba: u64) -> Result<Duration> {
        let s = self.route(lba);
        let r = self.shards[s].clean(lba);
        self.charge(s, r)
    }

    /// `exists`: scatter the range query to every shard, gather and sort
    /// the (disjoint) results. The returned cost is the slowest shard's
    /// scan — the scatter runs in parallel — and every shard's clock
    /// advances by its own scan cost.
    pub fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        let mut all = Vec::new();
        let mut worst = Duration::ZERO;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let (mut lbas, d) = shard.exists(start, end);
            all.append(&mut lbas);
            self.clocks[i] += d;
            worst = worst.max(d);
        }
        all.sort_unstable();
        (all, worst)
    }

    /// Simulates a whole-device power failure: every shard crashes.
    /// Returns the total number of buffered log records lost.
    pub fn crash(&mut self) -> usize {
        self.shards.iter_mut().map(|s| s.crash()).sum()
    }

    /// Roll-forward recovery: shards replay their logs **in parallel** on
    /// scoped threads, then clocks are max-merged — recovery is a sync
    /// point, and its cost is the slowest shard's roll-forward. The merged
    /// result is deterministic regardless of host scheduling because each
    /// shard's recovery depends only on its own durable state.
    ///
    /// # Errors
    ///
    /// See [`Ssc::recover`]; the first failing shard's error is returned.
    pub fn recover(&mut self) -> Result<Duration> {
        let results: Vec<Result<Duration>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || shard.recover()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard recovery thread panicked"))
                .collect()
        });
        let mut worst = Duration::ZERO;
        for (i, r) in results.into_iter().enumerate() {
            let d = r?;
            self.clocks[i] += d;
            worst = worst.max(d);
        }
        self.sync_clocks();
        Ok(worst)
    }

    /// Merged device counters: the field-wise sum over shards.
    pub fn counters(&self) -> SscCounters {
        self.shards
            .iter()
            .map(|s| s.counters())
            .fold(SscCounters::default(), |acc, c| acc.merged(&c))
    }

    /// Merged injected-fault counters.
    pub fn fault_counters(&self) -> flashsim::FaultCounters {
        let mut out = flashsim::FaultCounters::default();
        for s in &self.shards {
            let c = s.fault_counters();
            out.read_transients += c.read_transients;
            out.read_failures += c.read_failures;
            out.read_corruptions += c.read_corruptions;
            out.oob_corruptions += c.oob_corruptions;
            out.program_failures += c.program_failures;
            out.erase_failures += c.erase_failures;
            out.grown_bad_blocks += c.grown_bad_blocks;
        }
        out
    }

    /// Installs a media-fault plan. Shard 0 receives `plan` verbatim (so a
    /// single-shard device faults identically to an unsharded one); every
    /// other shard gets the same rates with a seed decorrelated by shard
    /// index, so shards don't fault in lock-step.
    pub fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let mut p = plan;
            p.seed = decorrelate_fault_seed(plan.seed, i);
            shard.set_fault_plan(p);
        }
    }

    /// Merged mapping-structure memory footprint.
    pub fn map_memory(&self) -> MapMemory {
        let mut out = MapMemory::default();
        for s in &self.shards {
            let m = s.map_memory();
            out.entries += m.entries;
            out.modeled_bytes += m.modeled_bytes;
            out.heap_bytes += m.heap_bytes;
        }
        out
    }

    /// Total advisory data capacity across shards.
    pub fn data_capacity_pages(&self) -> u64 {
        self.shards.iter().map(|s| s.data_capacity_pages()).sum()
    }

    /// Total pages currently cached across shards.
    pub fn cached_pages(&self) -> u64 {
        self.shards.iter().map(|s| s.cached_pages()).sum()
    }

    /// Device page size (identical on every shard).
    pub fn page_size(&self) -> usize {
        self.shards[0].page_size()
    }
}

impl SscDevice for ShardedSsc {
    fn page_size(&self) -> usize {
        ShardedSsc::page_size(self)
    }

    fn data_capacity_pages(&self) -> u64 {
        ShardedSsc::data_capacity_pages(self)
    }

    fn cached_pages(&self) -> u64 {
        ShardedSsc::cached_pages(self)
    }

    fn counters(&self) -> SscCounters {
        ShardedSsc::counters(self)
    }

    fn fault_counters(&self) -> flashsim::FaultCounters {
        ShardedSsc::fault_counters(self)
    }

    fn set_fault_plan(&mut self, plan: flashsim::FaultPlan) {
        ShardedSsc::set_fault_plan(self, plan)
    }

    fn map_memory(&self) -> MapMemory {
        ShardedSsc::map_memory(self)
    }

    fn payload_discarded(&self) -> bool {
        // Shards are uniformly constructed; all share one data mode.
        self.shards.iter().all(|s| s.payload_discarded())
    }

    fn read_to(&mut self, lba: u64, dest: Option<&mut PageBuf>) -> Result<Duration> {
        ShardedSsc::read_to(self, lba, dest)
    }

    fn write_clean(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        ShardedSsc::write_clean(self, lba, data)
    }

    fn write_dirty(&mut self, lba: u64, data: &[u8]) -> Result<Duration> {
        ShardedSsc::write_dirty(self, lba, data)
    }

    fn evict(&mut self, lba: u64) -> Result<Duration> {
        ShardedSsc::evict(self, lba)
    }

    fn clean(&mut self, lba: u64) -> Result<Duration> {
        ShardedSsc::clean(self, lba)
    }

    fn exists(&mut self, start: u64, end: u64) -> (Vec<u64>, Duration) {
        ShardedSsc::exists(self, start, end)
    }

    fn barrier_flush(&mut self) -> Result<Duration> {
        ShardedSsc::barrier_flush(self)
    }

    fn crash(&mut self) -> usize {
        ShardedSsc::crash(self)
    }

    fn recover(&mut self) -> Result<Duration> {
        ShardedSsc::recover(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;
    use std::collections::HashMap;

    fn test_config() -> SscConfig {
        SscConfig::small_test()
    }

    /// A roomier geometry for multi-shard tests: splitting the tiny
    /// small_test device 4 ways leaves shards too small to be interesting.
    fn wide_config() -> SscConfig {
        let mut cfg = SscConfig::small_test();
        let g = cfg.flash.geometry;
        cfg.flash.geometry = flashsim::Geometry::new(
            g.planes(),
            32,
            g.pages_per_block(),
            g.page_size(),
            g.oob_size(),
        );
        cfg
    }

    fn page(cfg: &SscConfig, tag: u8) -> Vec<u8> {
        vec![tag; cfg.flash.geometry.page_size()]
    }

    #[test]
    fn router_keeps_logical_blocks_together() {
        let router = ShardRouter::new(4, 8);
        for lbn in 0..256u64 {
            let shard = router.shard_of(lbn * 8);
            for page in 1..8 {
                assert_eq!(
                    router.shard_of(lbn * 8 + page),
                    shard,
                    "pages of lbn {lbn} split across shards"
                );
            }
        }
        // The hash actually spreads blocks around.
        let hit: std::collections::HashSet<usize> =
            (0..256u64).map(|lbn| router.shard_of(lbn * 8)).collect();
        assert_eq!(hit.len(), 4, "256 blocks should touch all 4 shards");
    }

    #[test]
    fn single_shard_router_is_identity() {
        let router = ShardRouter::new(1, 8);
        for lba in (0..10_000u64).step_by(37) {
            assert_eq!(router.shard_of(lba), 0);
        }
    }

    #[test]
    fn shard_config_is_identity_at_one() {
        let cfg = test_config();
        let split = shard_config(&cfg, 1);
        assert_eq!(split.flash.geometry, cfg.flash.geometry);
        assert_eq!(split.total_blocks(), cfg.total_blocks());
    }

    #[test]
    fn shard_config_splits_blocks() {
        let cfg = wide_config();
        let split = shard_config(&cfg, 4);
        assert_eq!(split.flash.geometry.blocks_per_plane(), 8);
        assert_eq!(split.flash.geometry.planes(), cfg.flash.geometry.planes());
        assert_eq!(
            split.flash.geometry.pages_per_block(),
            cfg.flash.geometry.pages_per_block()
        );
    }

    /// The cornerstone equivalence: a 1-shard device must be bit-identical
    /// to an unsharded `Ssc` — same counters, same per-op costs, and the
    /// merged clock equal to the plain sum of costs.
    #[test]
    fn one_shard_matches_unsharded_bit_for_bit() {
        let cfg = test_config();
        let mut plain = Ssc::new(cfg);
        let mut sharded = ShardedSsc::new(cfg, 1);
        let mut plain_time = Duration::ZERO;
        let mut rng = SimRng::seed_from(0x5AD_C0DE);
        let span = 40u64;
        for _ in 0..2_000 {
            let lba = rng.gen_range(span);
            let tag = (lba % 251) as u8;
            let data = page(&cfg, tag);
            match rng.gen_range(5) {
                0 | 1 => {
                    let a = plain.write_clean(lba, &data);
                    let b = sharded.write_clean(lba, &data);
                    assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(da), Ok(db)) = (&a, &b) {
                        assert_eq!(da, db);
                        plain_time += *da;
                    }
                }
                2 => {
                    let a = plain.write_dirty(lba, &data);
                    let b = sharded.write_dirty(lba, &data);
                    assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(da), Ok(db)) = (&a, &b) {
                        assert_eq!(da, db);
                        plain_time += *da;
                    }
                }
                3 => {
                    let a = plain.read(lba);
                    let b = sharded.read(lba);
                    match (a, b) {
                        (Ok((va, da)), Ok((vb, db))) => {
                            assert_eq!(va, vb);
                            assert_eq!(da, db);
                            plain_time += da;
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => panic!("divergence: {a:?} vs {b:?}"),
                    }
                }
                _ => {
                    let a = plain.evict(lba).unwrap();
                    let b = sharded.evict(lba).unwrap();
                    assert_eq!(a, b);
                    plain_time += a;
                }
            }
        }
        assert_eq!(plain.counters(), sharded.counters());
        assert_eq!(sharded.sim_time(), plain_time);
        assert_eq!(plain.cached_pages(), sharded.cached_pages());
        assert_eq!(plain.map_memory().entries, sharded.map_memory().entries);
    }

    /// Randomized oracle at N=4: routing plus merge must preserve per-LBA
    /// semantics. Restricted to write-dirty/evict/read so the shadow map
    /// is exact (dirty pages are never silently evicted).
    #[test]
    fn four_shard_oracle_preserves_per_lba_ordering() {
        let cfg = wide_config();
        let mut dev = ShardedSsc::new(cfg, 4);
        let mut shadow: HashMap<u64, u8> = HashMap::new();
        let mut rng = SimRng::seed_from(0xFEED_FACE);
        let span = 64u64;
        for step in 0..4_000u64 {
            let lba = rng.gen_range(span);
            match rng.gen_range(4) {
                0 | 1 => {
                    let tag = (step % 251) as u8;
                    dev.write_dirty(lba, &page(&cfg, tag)).unwrap();
                    shadow.insert(lba, tag);
                }
                2 => {
                    dev.evict(lba).unwrap();
                    shadow.remove(&lba);
                }
                _ => match shadow.get(&lba) {
                    Some(&tag) => {
                        let (data, _) = dev.read(lba).unwrap();
                        assert_eq!(data, page(&cfg, tag), "stale data for lba {lba}");
                    }
                    None => {
                        assert!(dev.read(lba).is_err(), "ghost hit for lba {lba}");
                    }
                },
            }
        }
        // exists() must see exactly the dirty population, globally sorted.
        let mut want: Vec<u64> = shadow.keys().copied().collect();
        want.sort_unstable();
        let (got, _) = dev.exists(0, u64::MAX);
        assert_eq!(got, want);
    }

    /// Reruns with the same seed must produce byte-identical counters and
    /// merged time at N>1 — the determinism invariant.
    #[test]
    fn multi_shard_reruns_are_deterministic() {
        let run = || {
            let cfg = wide_config();
            let mut dev = ShardedSsc::new(cfg, 4);
            let mut rng = SimRng::seed_from(0xD37E_2013);
            for step in 0..3_000u64 {
                let lba = rng.gen_range(96);
                let data = page(&cfg, (step % 256) as u8);
                match rng.gen_range(5) {
                    0 | 1 => {
                        let _ = dev.write_clean(lba, &data);
                    }
                    2 => {
                        let _ = dev.write_dirty(lba, &data);
                    }
                    3 => {
                        let _ = dev.read(lba);
                    }
                    _ => {
                        let _ = dev.evict(lba);
                    }
                }
            }
            dev.barrier_flush().unwrap();
            (dev.counters(), dev.sim_time())
        };
        let (c1, t1) = run();
        let (c2, t2) = run();
        assert_eq!(c1, c2);
        assert_eq!(t1, t2);
    }

    /// Whole-device crash and parallel recovery: acked dirty writes on
    /// every shard survive, and recovery max-merges the clocks.
    #[test]
    fn sharded_crash_recovery_preserves_dirty_writes() {
        let cfg = wide_config();
        let mut dev = ShardedSsc::new(cfg, 4);
        let span = 48u64;
        for lba in 0..span {
            dev.write_dirty(lba, &page(&cfg, (lba % 251) as u8))
                .unwrap();
        }
        let lost = dev.crash();
        assert_eq!(lost, 0, "write-dirty commits synchronously");
        dev.recover().unwrap();
        let merged = dev.sim_time();
        for c in dev.shard_clocks() {
            assert_eq!(*c, merged, "recovery is a sync point");
        }
        for lba in 0..span {
            let (data, _) = dev.read(lba).unwrap();
            assert_eq!(data, page(&cfg, (lba % 251) as u8));
        }
    }

    /// A crash armed inside one shard only fires on ops routed there, and
    /// the device-wide crash/recover round-trip heals it.
    #[test]
    fn crash_armed_in_one_shard_is_local_until_power_loss() {
        let cfg = wide_config();
        let mut dev = ShardedSsc::new(cfg, 2);
        let victim = dev.router().shard_of(0);
        dev.arm_crash_shard(victim, CrashSite::GroupCommit, 0);
        assert!(dev.crash_armed());
        dev.disarm_crash();
        assert!(!dev.crash_armed());
    }

    #[test]
    fn fault_plan_decorrelates_but_keeps_shard_zero() {
        let cfg = wide_config();
        let mut dev = ShardedSsc::new(cfg, 3);
        let plan = flashsim::FaultPlan {
            seed: 0xABCD,
            ..flashsim::FaultPlan::default()
        };
        dev.set_fault_plan(plan);
        // Nothing observable without I/O, but the call must not panic and
        // counters start at zero.
        assert_eq!(dev.fault_counters(), flashsim::FaultCounters::default());
    }
}
