//! Synthetic trace generation.
//!
//! Two-phase construction:
//!
//! 1. **Layout** — scatter the spec's unique blocks over the volume with a
//!    heavy-tailed per-region density (regions of 100,000 blocks, as in
//!    Figure 1): a few regions are dense, most are touched in only a handful
//!    of short runs. Runs of contiguous blocks model files.
//! 2. **Access stream** — draw blocks from the laid-out population with a
//!    scrambled-Zipf popularity distribution, mixing in short sequential
//!    runs, and tag each access read/write by the spec's write fraction.
//!
//! Everything is driven by the spec's seed, so a given [`WorkloadSpec`]
//! always produces the identical trace.

use simkit::SimRng;

use crate::event::{OpKind, Trace, TraceEvent};
use crate::workloads::WorkloadSpec;
use crate::zipf::{scramble, ZipfSampler};

/// Region granularity used for density shaping (Figure 1 analyzes
/// "100,000 4 KB block regions of the disk address space").
pub(crate) const REGION_BLOCKS: u64 = 100_000;

/// Generates the synthetic trace for a workload specification.
///
/// # Examples
///
/// ```
/// use trace::{generate, WorkloadSpec};
///
/// let spec = WorkloadSpec::homes().scaled(10_000.0);
/// let trace = generate(&spec);
/// assert_eq!(trace.len() as u64, spec.total_ops);
/// ```
pub fn generate(spec: &WorkloadSpec) -> Trace {
    let mut rng = SimRng::seed_from(spec.seed);
    let runs = layout_runs(spec, &mut rng);
    access_stream(spec, &runs, &mut rng)
}

/// The laid-out population as maximal runs of adjacent addresses,
/// `(first_lba, len)`, in the order the blocks were picked — the "files"
/// popularity is assigned to.
#[derive(Debug, Default)]
struct Runs {
    runs: Vec<(u64, u64)>,
    blocks: u64,
}

impl Runs {
    /// Appends one block, extending the last run when it is adjacent.
    fn push(&mut self, lba: u64) {
        match self.runs.last_mut() {
            Some((first, len)) if *first + *len == lba => *len += 1,
            _ => self.runs.push((lba, 1)),
        }
        self.blocks += 1;
    }
}

/// A fixed-size set over `0..len`, one bit per member.
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(len: u64) -> Self {
        BitSet(vec![0; len.div_ceil(64) as usize])
    }

    /// Adds `i`; returns whether it was absent.
    fn insert(&mut self, i: u64) -> bool {
        let (word, bit) = (&mut self.0[(i / 64) as usize], 1 << (i % 64));
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }
}

/// `SimRng::gen_bool(p)` as one integer compare on the same draw: its
/// `(next_u64() >> 11) as f64 * 2^-53 < p` scales exactly by 2^53, so it
/// holds exactly when the 53-bit draw is below `ceil(p * 2^53)`.
#[derive(Debug, Clone, Copy)]
struct Coin(u64);

impl Coin {
    const fn new(p: f64) -> Self {
        Coin((p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64)
    }

    fn flip(self, rng: &mut SimRng) -> bool {
        rng.next_u64() >> 11 < self.0
    }
}

/// Geometric-ish run lengths with a given mean, at least 1 and at most four
/// times the mean: a length cap and the `1 / mean` coin that ends a run.
#[derive(Debug, Clone, Copy)]
struct Geometric(u64, Coin);

impl Geometric {
    fn new(mean: u64) -> Self {
        // A mean of 0 or 1 makes every run one block long, drawing nothing.
        let cap = if mean <= 1 { 1 } else { 4 * mean };
        Geometric(cap, Coin::new(1.0 / mean as f64))
    }

    fn sample(self, rng: &mut SimRng) -> u64 {
        let Geometric(cap, stop) = self;
        let mut n = 1;
        while n < cap && !stop.flip(rng) {
            n += 1;
        }
        n
    }
}

/// Phase 1: pick which blocks of the volume exist in the trace.
fn layout_runs(spec: &WorkloadSpec, rng: &mut SimRng) -> Runs {
    let unique = spec.unique_blocks.min(spec.range_blocks);
    let region_count = spec.range_blocks.div_ceil(REGION_BLOCKS).max(1);

    // Heavy-tailed region weights over a shuffled region order: region at
    // shuffled position i gets weight (i+1)^-1.1. This concentrates blocks
    // in a few regions while touching many thinly, matching Figure 1.
    let mut order: Vec<u64> = (0..region_count).collect();
    rng.shuffle(&mut order);
    let weights: Vec<f64> = (0..region_count)
        .map(|i| 1.0 / ((i + 1) as f64).powf(1.1))
        .collect();
    let total_weight: f64 = weights.iter().sum();

    let short_run = Geometric::new(spec.seq_run_len);
    let mut runs = Runs::default();
    for (i, &region) in order.iter().enumerate() {
        let remaining = unique - runs.blocks;
        if remaining == 0 {
            break;
        }
        let start = region * REGION_BLOCKS;
        let len = REGION_BLOCKS.min(spec.range_blocks - start);
        let mut quota = ((unique as f64 * weights[i] / total_weight).ceil() as u64).min(len);
        // The last regions absorb any shortfall from capping dense regions.
        if i == order.len() - 1 {
            quota = quota.max(remaining.min(len));
        }
        let quota = quota.min(remaining);
        pick_region_blocks(start, len, quota, short_run, &mut runs, rng);
    }
    // If capping left a shortfall, fill uniformly at random. Regions are
    // disjoint and each dedups its own picks, so `runs.blocks` is also the
    // number of blocks in `seen`.
    if runs.blocks < unique {
        let mut seen = BitSet::new(spec.range_blocks);
        for &(first, len) in &runs.runs {
            for lba in first..first + len {
                seen.insert(lba);
            }
        }
        while runs.blocks < unique {
            let lba = rng.gen_range(spec.range_blocks);
            if seen.insert(lba) {
                runs.push(lba);
            }
        }
    }
    runs
}

/// Alignment of large layout extents: one 64-page (256 KB) erase block.
/// Filesystems allocate extents, so hot files occupy whole aligned chunks —
/// the clustering that makes hybrid (block-granularity) mapping viable on
/// real traces.
const CHUNK_BLOCKS: u64 = 64;

/// Picks `quota` distinct blocks inside one region into `runs`: mostly
/// large aligned extents (files), plus a tail of short scattered runs
/// (metadata, small files).
fn pick_region_blocks(
    start: u64,
    len: u64,
    quota: u64,
    short_run: Geometric,
    runs: &mut Runs,
    rng: &mut SimRng,
) {
    const EXTENT: Coin = Coin::new(0.85);
    let mut seen = BitSet::new(len);
    let mut picked = 0u64;
    let mut attempts = 0u64;
    while picked < quota && attempts < quota * 8 + 64 {
        attempts += 1;
        let (run_start, run_len) = if EXTENT.flip(rng) {
            // A large extent: one or more whole aligned chunks.
            let chunks = len / CHUNK_BLOCKS;
            if chunks == 0 {
                (start, len)
            } else {
                let chunk = rng.gen_range(chunks);
                let extent_chunks = 1 + rng.gen_range(4).min(chunks - chunk - 1 + 1);
                (start + chunk * CHUNK_BLOCKS, extent_chunks * CHUNK_BLOCKS)
            }
        } else {
            // A short scattered run.
            (start + rng.gen_range(len), short_run.sample(rng))
        };
        let run_len = run_len.min(quota - picked);
        for lba in run_start..(run_start + run_len).min(start + len) {
            if seen.insert(lba - start) {
                runs.push(lba);
                picked += 1;
            }
        }
    }
}

/// Phase 2: emit the access stream.
///
/// Popularity is assigned to whole layout *runs* (files): a scrambled-Zipf
/// draw picks a run, and the access touches a block (or a short sequential
/// burst) inside it. Hot data therefore clusters at extent granularity —
/// the property of real file-server traces that makes erase-block-level
/// mapping effective — while cold runs supply the long sparse tail.
fn access_stream(spec: &WorkloadSpec, runs: &Runs, rng: &mut SimRng) -> Trace {
    assert!(runs.blocks > 0, "workload population is empty");
    let runs = &runs.runs;
    let n_runs = runs.len() as u64;
    // Partition runs into write-hot (logs, mail appends, backups) and
    // read-hot (the working set) populations: real server traces separate
    // the data they churn from the data they read, which is what keeps
    // utilization-driven silent eviction from hurting reads. The split
    // matches the spec's write fraction; a small cross-traffic fraction
    // keeps the populations overlapping.
    const CROSS_TRAFFIC: Coin = Coin::new(0.15);
    let is_write_hot = |run_index: u64| -> bool {
        let u = scramble(run_index ^ spec.seed.rotate_left(13)) as f64 / u64::MAX as f64;
        u < spec.write_fraction
    };
    let mut write_runs: Vec<u64> = Vec::new();
    let mut read_runs: Vec<u64> = Vec::new();
    for i in 0..n_runs {
        if is_write_hot(i) {
            write_runs.push(i);
        } else {
            read_runs.push(i);
        }
    }
    // Degenerate mixes: fall back to one shared population.
    if write_runs.is_empty() || read_runs.is_empty() {
        write_runs = (0..n_runs).collect();
        read_runs = write_runs.clone();
    }
    let write_zipf = ZipfSampler::new(write_runs.len() as u64, spec.zipf_theta);
    let read_zipf = ZipfSampler::new(read_runs.len() as u64, spec.zipf_theta);
    // Reads are scan-heavy (whole-file reads); writes mix appends and
    // in-place updates.
    let read_scan = Coin::new((2.0 * spec.seq_run_prob).min(0.8));
    let write_append = Coin::new(spec.seq_run_prob);
    let append_len = Geometric::new(spec.seq_run_len);
    let mut events = Vec::with_capacity(spec.total_ops as usize);
    let mut write_events = 0u64;
    while (events.len() as u64) < spec.total_ops {
        // Reads emit long scan bursts while writes emit short ones, so a
        // per-draw coin would skew the event-weighted mix; steer the choice
        // by the running fraction instead (deterministic and exact).
        let is_write = (write_events as f64) < spec.write_fraction * (events.len() as f64 + 1.0);
        let cross = CROSS_TRAFFIC.flip(rng);
        let from_writes = is_write != cross;
        // Popularity follows layout order in coarse bands: the layout puts
        // dense regions first, so hot runs cluster spatially (Figure 1's
        // pattern — most touched regions hold almost none of the hot set)
        // while the in-band scramble keeps adjacent runs' popularity
        // uncorrelated.
        let banded = |rank: u64, n: u64| -> u64 {
            let band = (n / 20).max(1);
            let base = (rank / band) * band;
            base + scramble(rank) % band.min(n - base)
        };
        let run_index = if from_writes {
            write_runs[banded(write_zipf.sample(rng), write_runs.len() as u64) as usize]
        } else {
            read_runs[banded(read_zipf.sample(rng), read_runs.len() as u64) as usize]
        };
        let (run_start, run_len) = runs[run_index as usize];
        let sequential = if is_write { write_append } else { read_scan };
        let (first, burst) = match (sequential.flip(rng), is_write) {
            (true, true) => (run_start, append_len.sample(rng)),
            (true, false) => (run_start, run_len), // full-file scan
            // Single access somewhere in the run.
            (false, _) => (run_start + rng.gen_range(run_len), 1),
        };
        // An append may overrun its run, and any burst the trace's length.
        let n = burst
            .min(run_start + run_len - first)
            .min(spec.total_ops - events.len() as u64);
        let kind = if is_write {
            write_events += n;
            OpKind::Write
        } else {
            OpKind::Read
        };
        events.extend((first..first + n).map(|lba| TraceEvent { lba, kind }));
    }
    // Bursts stay in runs and runs in the range: skip `Trace::new`'s check.
    debug_assert!(events.iter().all(|e| e.lba < spec.range_blocks));
    Trace {
        name: spec.name.clone(),
        range_blocks: spec.range_blocks,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::homes().scaled(200.0)
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = small_spec();
        let a = generate(&spec);
        spec.seed += 1;
        let b = generate(&spec);
        assert_ne!(a, b);
    }

    #[test]
    fn op_count_and_range_respected() {
        let spec = small_spec();
        let t = generate(&spec);
        assert_eq!(t.len() as u64, spec.total_ops);
        assert!(t.iter().all(|e| e.lba < spec.range_blocks));
    }

    #[test]
    fn write_fraction_close_to_spec() {
        let spec = small_spec();
        let t = generate(&spec);
        let writes = t.iter().filter(|e| e.is_write()).count() as f64;
        let frac = writes / t.len() as f64;
        assert!(
            (frac - spec.write_fraction).abs() < 0.03,
            "write fraction {frac}"
        );
    }

    #[test]
    fn unique_blocks_in_expected_ballpark() {
        let spec = small_spec();
        let t = generate(&spec);
        let stats = TraceStats::compute(&t);
        // Zipf reuse means not every population block is touched; sequential
        // spill can add a few extras. Accept a generous band.
        let unique = stats.unique_blocks as f64;
        assert!(
            unique > spec.unique_blocks as f64 * 0.3 && unique < spec.unique_blocks as f64 * 1.5,
            "unique {unique} vs spec {}",
            spec.unique_blocks
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let spec = small_spec();
        let t = generate(&spec);
        let stats = TraceStats::compute(&t);
        // The top 25% of blocks must absorb well over 25% of accesses.
        let share = stats.hot_access_share(0.25);
        assert!(share > 0.5, "hot-set access share {share}");
    }

    #[test]
    fn read_heavy_spec_generates_reads() {
        let spec = WorkloadSpec::usr().scaled(10_000.0);
        let t = generate(&spec);
        let writes = t.iter().filter(|e| e.is_write()).count() as f64;
        assert!((writes / t.len() as f64) < 0.12);
    }

    #[test]
    fn geometric_mean_roughly_matches() {
        let mut rng = SimRng::seed_from(1);
        let n = 10_000;
        let sum: u64 = (0..n).map(|_| Geometric::new(8).sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((5.0..11.0).contains(&mean), "mean run {mean}");
        assert_eq!(Geometric::new(1).sample(&mut rng), 1);
    }

    /// `gen_bool(p)`'s formula applied to one raw draw `x`.
    fn gen_bool_on(x: u64, p: f64) -> bool {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p.clamp(0.0, 1.0)
    }

    /// The coin's threshold is exact: the 53-bit draws just below, at and
    /// just above it land as `gen_bool`'s float compare says, for edge
    /// probabilities, `1/m`, exact multiples of 2^-53 and random values.
    #[test]
    fn coin_is_gen_bool_exactly() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut ps = vec![0.0, 1.0, ulp, 1.0 - ulp, 0.15, 0.85, -0.5, 1.5, f64::NAN];
        ps.extend((2..=128).map(|m| 1.0 / m as f64));
        let mut rng = SimRng::seed_from(0xC014);
        for _ in 0..1_000 {
            ps.push(rng.gen_range(1 << 53) as f64 * ulp);
            ps.push(rng.gen_f64());
            ps.push(rng.gen_f64() * ulp * (1u64 << rng.gen_range(53)) as f64);
        }
        for p in ps {
            let t = Coin::new(p).0;
            for u in [t.wrapping_sub(1), t, t + 1] {
                if u >= 1 << 53 {
                    continue;
                }
                let x = u << 11 | rng.gen_range(1 << 11);
                assert_eq!(
                    u < t,
                    gen_bool_on(x, p),
                    "p {p:e}, draw {u} vs threshold {t}"
                );
            }
        }
    }

    #[test]
    fn coin_draws_match_gen_bool_from_one_seed() {
        let ps = [0.15, 0.85, 0.4, 1.0 / 3.0, 1.0 / 16.0, 0.0, 1.0];
        let mut coin_rng = SimRng::seed_from(0x5EED);
        let mut float_rng = coin_rng.clone();
        for i in 0..1_000_000 {
            let p = ps[i % ps.len()];
            assert_eq!(
                Coin::new(p).flip(&mut coin_rng),
                float_rng.gen_bool(p),
                "draw {i}, p {p}"
            );
        }
    }

    /// Geometric-ish run length with the given mean (at least 1): the
    /// `gen_bool` version the oracle below draws with.
    fn geometric(mean: u64, rng: &mut SimRng) -> u64 {
        if mean <= 1 {
            return 1;
        }
        let p = 1.0 / mean as f64;
        let mut n = 1;
        while n < 4 * mean && !rng.gen_bool(p) {
            n += 1;
        }
        n
    }

    /// The access stream as it was before it emitted whole bursts: one
    /// event, two bounds checks and a `gen_bool` coin at a time, then the
    /// checked `Trace::new`. Its code is kept unchanged (comments aside) as
    /// the oracle for the burst version.
    fn per_event_access_stream(spec: &WorkloadSpec, runs: &Runs, rng: &mut SimRng) -> Trace {
        assert!(runs.blocks > 0, "workload population is empty");
        let runs = &runs.runs;
        let n_runs = runs.len() as u64;
        const CROSS_TRAFFIC: f64 = 0.15;
        let is_write_hot = |run_index: u64| -> bool {
            let u = scramble(run_index ^ spec.seed.rotate_left(13)) as f64 / u64::MAX as f64;
            u < spec.write_fraction
        };
        let mut write_runs: Vec<u64> = Vec::new();
        let mut read_runs: Vec<u64> = Vec::new();
        for i in 0..n_runs {
            if is_write_hot(i) {
                write_runs.push(i);
            } else {
                read_runs.push(i);
            }
        }
        if write_runs.is_empty() || read_runs.is_empty() {
            write_runs = (0..n_runs).collect();
            read_runs = write_runs.clone();
        }
        let write_zipf = ZipfSampler::new(write_runs.len() as u64, spec.zipf_theta);
        let read_zipf = ZipfSampler::new(read_runs.len() as u64, spec.zipf_theta);
        let mut events = Vec::with_capacity(spec.total_ops as usize);
        let mut write_events = 0u64;
        while (events.len() as u64) < spec.total_ops {
            let is_write =
                (write_events as f64) < spec.write_fraction * (events.len() as f64 + 1.0);
            let cross = rng.gen_bool(CROSS_TRAFFIC);
            let from_writes = is_write != cross;
            let banded = |rank: u64, n: u64| -> u64 {
                let band = (n / 20).max(1);
                let base = (rank / band) * band;
                base + scramble(rank) % band.min(n - base)
            };
            let run_index = if from_writes {
                write_runs[banded(write_zipf.sample(rng), write_runs.len() as u64) as usize]
            } else {
                read_runs[banded(read_zipf.sample(rng), read_runs.len() as u64) as usize]
            };
            let (run_start, run_len) = runs[run_index as usize];
            let seq_prob = if is_write {
                spec.seq_run_prob
            } else {
                (2.0 * spec.seq_run_prob).min(0.8)
            };
            let (first, burst) = if rng.gen_bool(seq_prob) {
                let len = if is_write {
                    geometric(spec.seq_run_len, rng).min(run_len)
                } else {
                    run_len // full-file scan
                };
                (run_start, len)
            } else {
                (run_start + rng.gen_range(run_len), 1)
            };
            for lba in first..first + burst {
                if events.len() as u64 >= spec.total_ops || lba >= run_start + run_len {
                    break;
                }
                if is_write {
                    write_events += 1;
                }
                events.push(if is_write {
                    TraceEvent::write(lba)
                } else {
                    TraceEvent::read(lba)
                });
            }
        }
        Trace::new(spec.name.clone(), spec.range_blocks, events)
    }

    /// `generate()` with the per-event oracle in place of the burst stream.
    fn per_event_generate(spec: &WorkloadSpec) -> Trace {
        let mut rng = SimRng::seed_from(spec.seed);
        let runs = layout_runs(spec, &mut rng);
        per_event_access_stream(spec, &runs, &mut rng)
    }

    /// The burst stream equals the per-event oracle event for event over
    /// random specs and the degenerate ones: write fractions 0 and 1,
    /// mean run lengths 0–2, single-block runs (one-block populations),
    /// traces shorter than one burst, and a layout that takes the
    /// shortfall fill.
    #[test]
    fn burst_stream_matches_the_per_event_oracle() {
        let mut rng = SimRng::seed_from(0xB0257);
        let mut specs = vec![dense_spec()];
        for case in 0..320u64 {
            let range = 1 + rng.gen_range(60_000);
            let mut spec = WorkloadSpec {
                name: format!("case {case}"),
                range_blocks: range,
                unique_blocks: 1 + rng.gen_range(range + range / 4),
                total_ops: 1 + rng.gen_range(4_000),
                write_fraction: rng.gen_f64(),
                zipf_theta: 0.01 + rng.gen_f64() * 0.98,
                seq_run_prob: rng.gen_f64(),
                seq_run_len: rng.gen_range(48),
                seed: rng.next_u64(),
            };
            match case % 8 {
                0 => spec.write_fraction = 0.0,
                1 => spec.write_fraction = 1.0,
                2 => spec.seq_run_len = case % 3,
                3 => spec.unique_blocks = 1 + case % 4,
                4 => spec.total_ops = 1 + rng.gen_range(8),
                _ => {}
            }
            specs.push(spec);
        }
        for spec in specs {
            let (got, want) = (generate(&spec), per_event_generate(&spec));
            let first_diff =
                (0..got.len().max(want.len())).find(|&i| got.events.get(i) != want.events.get(i));
            assert_eq!(
                first_diff,
                None,
                "{}: {} vs {} events",
                spec.name,
                got.len(),
                want.len()
            );
            assert_eq!(got, want, "{}", spec.name);
        }
    }

    #[test]
    fn tiny_spec_still_generates() {
        let spec = WorkloadSpec::proj().scaled(1e9);
        let t = generate(&spec);
        assert!(!t.is_empty());
    }

    /// FNV-1a over every event's address (little-endian) and kind byte.
    fn fnv1a(trace: &Trace) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for e in trace.iter() {
            for byte in { e.lba }
                .to_le_bytes()
                .into_iter()
                .chain([e.is_write() as u8])
            {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Stream 0 of a performance-ledger workload: a 4 GiB volume, a
    /// sixteenth of the workload's blocks and events, the default seed.
    fn ledger_stream(name: &str, unique: u64, ops: u64, mix: (f64, f64, f64, u64)) -> WorkloadSpec {
        let (write_fraction, zipf_theta, seq_run_prob, seq_run_len) = mix;
        WorkloadSpec {
            name: name.into(),
            range_blocks: 1 << 20,
            unique_blocks: unique / 16,
            total_ops: ops / 16,
            write_fraction,
            zipf_theta,
            seq_run_prob,
            seq_run_len,
            seed: 0xBEAC_0001 ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Three regions of 100,000 blocks asked for 290,000: the densest
    /// region's quota caps at its 100,000 blocks, so the regions can hold
    /// at most 100,000 + ceil(290,000 x 2^-1.1 / sum) + 100,000 blocks and
    /// the shortfall fill supplies the rest.
    fn dense_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "dense".into(),
            range_blocks: 300_000,
            unique_blocks: 290_000,
            total_ops: 20_000,
            write_fraction: 0.3,
            zipf_theta: 0.9,
            seq_run_prob: 0.3,
            seq_run_len: 16,
            seed: 0xD3E5,
        }
    }

    /// `generate()` output is pinned byte for byte, not just
    /// deterministic: a change to the generator's internals must not move
    /// a single event of any of these traces.
    #[test]
    fn output_is_pinned() {
        let cases = [
            (
                ledger_stream("hot-read", 8 << 10, 1_100_000, (0.005, 0.99, 0.2, 16)),
                0xc1e7_dc4b_ea00_aba4,
            ),
            (
                ledger_stream("cold-read", 256 << 10, 900_000, (0.05, 0.6, 0.2, 16)),
                0x7015_a904_01f0_012e,
            ),
            (
                ledger_stream("write-heavy", 64 << 10, 600_000, (0.9, 0.99, 0.35, 32)),
                0xd949_0460_61f2_97ff,
            ),
            (
                ledger_stream("mixed", 64 << 10, 740_000, (0.3, 0.99, 0.2, 16)),
                0x6faa_a24a_eb93_5fa6,
            ),
            (WorkloadSpec::homes().scaled(500.0), 0x51c6_6475_a490_0bdf),
            (WorkloadSpec::mail().scaled(500.0), 0x10b8_5c59_6f3e_4907),
            (WorkloadSpec::usr().scaled(500.0), 0x4951_9fd6_8e9e_64dc),
            (WorkloadSpec::proj().scaled(500.0), 0xdb8a_36e1_2012_a6c5),
            (dense_spec(), 0xd095_a4fb_e0e7_497d),
        ];
        for (spec, want) in cases {
            let got = fnv1a(&generate(&spec));
            assert_eq!(got, want, "{}: {got:#018x}", spec.name);
        }
    }

    #[test]
    fn dense_layout_runs_the_shortfall_fill() {
        let spec = dense_spec();
        let total_weight: f64 = (1..=3).map(|i| 1.0 / (i as f64).powf(1.1)).sum();
        let second = (spec.unique_blocks as f64 / 2f64.powf(1.1) / total_weight).ceil() as u64;
        let regions_hold_at_most = REGION_BLOCKS + second + REGION_BLOCKS;
        assert!(
            regions_hold_at_most < spec.unique_blocks,
            "{regions_hold_at_most}"
        );
        let runs = layout_runs(&spec, &mut SimRng::seed_from(spec.seed));
        assert_eq!(runs.blocks, spec.unique_blocks);
    }

    /// Over random small specs the layout is disjoint, maximal runs
    /// holding `min(unique, range)` blocks; a spec asking for the whole
    /// range gets every block exactly once.
    #[test]
    fn layout_runs_are_disjoint_maximal_and_complete() {
        let mut rng = SimRng::seed_from(0x1A70);
        for case in 0..60 {
            let range = 1 + rng.gen_range(250_000);
            let unique = match case % 3 {
                0 => range,
                _ => 1 + rng.gen_range(range + range / 4),
            };
            let spec = WorkloadSpec {
                range_blocks: range,
                unique_blocks: unique,
                seq_run_len: rng.gen_range(40),
                seed: case,
                ..small_spec()
            };
            let runs = layout_runs(&spec, &mut SimRng::seed_from(spec.seed));
            let mut laid_out = vec![false; range as usize];
            for (i, &(first, len)) in runs.runs.iter().enumerate() {
                assert!(len > 0 && first + len <= range, "case {case}: run {i}");
                if let Some(&(prev, prev_len)) = i.checked_sub(1).map(|p| &runs.runs[p]) {
                    assert_ne!(
                        prev + prev_len,
                        first,
                        "case {case}: run {i} is not maximal"
                    );
                }
                for lba in first..first + len {
                    assert!(!laid_out[lba as usize], "case {case}: {lba} laid out twice");
                    laid_out[lba as usize] = true;
                }
            }
            let blocks: u64 = runs.runs.iter().map(|&(_, len)| len).sum();
            assert_eq!(
                (blocks, runs.blocks),
                (unique.min(range), blocks),
                "case {case}"
            );
            if unique == range {
                assert!(
                    laid_out.iter().all(|&b| b),
                    "case {case}: a block is missing"
                );
            }
        }
    }

    #[test]
    fn bit_set_insert_reports_whether_the_member_was_new() {
        let len = 130;
        let mut set = BitSet::new(len);
        for i in [0, 63, 64, len - 1] {
            assert!(set.insert(i), "{i}: first insert");
            assert!(!set.insert(i), "{i}: second insert");
        }
        // Neighbours of the members (and the other words) are untouched.
        for i in [1, 62, 65, 127, len - 2] {
            assert!(set.insert(i), "{i}");
        }
    }
}
