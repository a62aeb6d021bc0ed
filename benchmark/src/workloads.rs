//! The four workloads and the one device configuration they share.
//!
//! Every workload replays against a 64 MiB flash cache (16 Ki pages) in
//! front of a 4 GiB volume of 4 KiB blocks, payloads discarded. They
//! differ only in what the trace asks of that stack, chosen so that each
//! optimisation a later change might make has one workload that exercises
//! it and one that bypasses it (the `why` strings are the record of that
//! choice and are copied into `BENCHMARK.json`).
//!
//! A trace is [`STREAMS`] independently generated streams interleaved in
//! bursts — tenants sharing one cache. One generated stream makes a poor
//! ruler: where its few hottest blocks and densest regions happen to land
//! decides merge cost and hit rate, and ten seeds of a single stream
//! spread by 12% on hit rate, 28% on write amplification and 19% on map
//! bytes per block (inter-quartile, measured). Sixteen independent draws
//! average that out inside one replay, so every repeat can still replay
//! the same events and be checked counter for counter.

use trace::{generate, Trace, TraceEvent, WorkloadSpec};

/// Volume size in blocks (4 GiB of 4 KiB blocks).
pub const RANGE_BLOCKS: u64 = 1 << 20;
/// Flash cache capacity in bytes.
pub const FLASH_BYTES: u64 = 64 << 20;
/// Block size in bytes.
pub const BLOCK_BYTES: usize = 4096;
/// Independently generated streams interleaved into one trace.
pub const STREAMS: usize = 16;
/// Consecutive events taken from one stream before moving to the next:
/// long enough to keep the generator's sequential runs (mean 16 to 32
/// blocks) intact for the disk model.
pub const BURST: usize = 64;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xBEAC_0001;
/// Events in the Store-mode verify pass.
pub const VERIFY_EVENTS: usize = 200_000;
/// The verify pass runs the workload's mix at one eighth scale (unique
/// blocks and cache both divided, so the cache-to-working-set ratio — and
/// with it the miss, eviction and merge behaviour — is the workload's own)
/// to keep 4 KiB payloads for every written block out of the process's
/// peak resident set.
pub const VERIFY_SCALE: u64 = 8;

/// One benchmark workload: a trace shape plus how much of it is replayed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload exists (one line).
    pub why: &'static str,
    /// Distinct blocks the trace touches.
    pub unique_blocks: u64,
    /// Fraction of events that are writes.
    pub write_fraction: f64,
    /// Zipf skew of block popularity.
    pub zipf_theta: f64,
    /// Probability an access starts a sequential run.
    pub seq_run_prob: f64,
    /// Mean sequential run length.
    pub seq_run_len: u64,
    /// Untimed prefix that fills the cache before counters are snapshotted.
    pub warm_events: usize,
    /// Events in the timed slice of the trace.
    pub timed_events: usize,
    /// Passes over the timed slice per timed repeat.
    pub passes: usize,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot-read",
        why: "8 Ki blocks in a 16 Ki-page cache, 0.5% writes: all hits, so map probe, flash read and manager bookkeeping do the work and log, GC and disk changes must not show",
        unique_blocks: 8 << 10,
        write_fraction: 0.005,
        zipf_theta: 0.99,
        seq_run_prob: 0.20,
        seq_run_len: 16,
        warm_events: 100_000,
        timed_events: 1_000_000,
        passes: 3,
    },
    Workload {
        name: "cold-read",
        why: "256 Ki blocks (16x the cache), 5% writes, Zipf 0.6: the miss path dominates - disk model, write-clean fills, silent eviction, map insert/remove, WT bloom filter",
        unique_blocks: 256 << 10,
        write_fraction: 0.05,
        zipf_theta: 0.6,
        seq_run_prob: 0.2,
        seq_run_len: 16,
        warm_events: 100_000,
        timed_events: 800_000,
        passes: 1,
    },
    Workload {
        name: "write-heavy",
        why: "64 Ki blocks (4x the cache), 90% writes, the paper's mail shape: write-dirty, WAL group commit, checkpoints, destage and merges; where write amplification and the FlashTier-vs-native gap live",
        unique_blocks: 64 << 10,
        write_fraction: 0.90,
        zipf_theta: 0.99,
        seq_run_prob: 0.35,
        seq_run_len: 32,
        warm_events: 100_000,
        timed_events: 500_000,
        passes: 1,
    },
    Workload {
        name: "mixed",
        why: "perf_replay's own mix (64 Ki blocks, 30% writes, Zipf 0.99): continuity with BENCH_replay.json and BENCH_serve.json, the balanced case on which nothing should regress",
        unique_blocks: 64 << 10,
        write_fraction: 0.30,
        zipf_theta: 0.99,
        seq_run_prob: 0.20,
        seq_run_len: 16,
        warm_events: 100_000,
        timed_events: 640_000,
        passes: 1,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Events replayed per timed repeat.
    pub fn events_per_repeat(&self) -> u64 {
        (self.timed_events * self.passes) as u64
    }

    /// [`STREAMS`] streams of `unique_blocks / STREAMS` blocks and
    /// `total_ops / STREAMS` events each, every one from
    /// `trace::generate` with its own seed derived from `seed`,
    /// interleaved [`BURST`] events at a time.
    fn interleaved(&self, seed: u64, unique_blocks: u64, total_ops: usize) -> Trace {
        assert_eq!(total_ops % STREAMS, 0, "events must split evenly");
        let per_stream = total_ops / STREAMS;
        // Streams are generated one at a time and scattered straight to
        // their bursts' places, so the peak footprint is one trace plus
        // one stream rather than two traces.
        let mut events = vec![TraceEvent::read(0); total_ops];
        for k in 0..STREAMS {
            let stream = generate(&WorkloadSpec {
                name: self.name.into(),
                range_blocks: RANGE_BLOCKS,
                unique_blocks: unique_blocks / STREAMS as u64,
                total_ops: per_stream as u64,
                write_fraction: self.write_fraction,
                zipf_theta: self.zipf_theta,
                seq_run_prob: self.seq_run_prob,
                seq_run_len: self.seq_run_len,
                seed: seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            });
            for (round, burst) in stream.events.chunks(BURST).enumerate() {
                // Earlier rounds placed one full burst per stream; within
                // a round all bursts are as long as this one (only the
                // last round's are short).
                let at = round * BURST * STREAMS + k * burst.len();
                events[at..at + burst.len()].copy_from_slice(burst);
            }
        }
        Trace::new(self.name, RANGE_BLOCKS, events)
    }

    /// Generates the replay trace: the warm prefix followed by the timed
    /// slice. The program under test receives only these events; the seed
    /// goes no further than the generator.
    pub fn trace(&self, seed: u64) -> Trace {
        self.interleaved(
            seed,
            self.unique_blocks,
            self.warm_events + self.timed_events,
        )
    }

    /// Generates the one-eighth-scale trace of the verify pass.
    pub fn verify_trace(&self, seed: u64) -> Trace {
        self.interleaved(
            seed ^ 0x5EED_0FAC,
            self.unique_blocks / VERIFY_SCALE,
            VERIFY_EVENTS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    /// The specs generate what the README says they do: the stated write
    /// fraction and unique-block count.
    #[test]
    fn traces_have_the_stated_mix() {
        for w in &WORKLOADS {
            let t = w.trace(DEFAULT_SEED);
            assert_eq!(t.events.len(), w.warm_events + w.timed_events);
            let writes = t.events.iter().filter(|e| e.is_write()).count();
            let frac = writes as f64 / t.events.len() as f64;
            assert!(
                (frac - w.write_fraction).abs() < 0.01,
                "{}: write fraction {frac} vs {}",
                w.name,
                w.write_fraction
            );
            let unique: HashSet<u64> = t.events.iter().map(|e| e.lba).collect();
            assert!(
                unique.len() as u64 <= w.unique_blocks,
                "{}: {} unique blocks exceed the spec's {}",
                w.name,
                unique.len(),
                w.unique_blocks
            );
            // Skewed popularity leaves the tail of a large population
            // untouched in a finite trace; the small ones are covered.
            if w.unique_blocks <= 64 << 10 {
                assert!(
                    unique.len() as f64 >= 0.5 * w.unique_blocks as f64,
                    "{}: only {} of {} blocks touched",
                    w.name,
                    unique.len(),
                    w.unique_blocks
                );
            }
            assert!(t.events.iter().all(|e| e.lba < RANGE_BLOCKS));
        }
    }

    /// The interleaving keeps every stream's events, in order, in bursts.
    #[test]
    fn streams_are_interleaved_in_bursts() {
        let w = &WORKLOADS[2];
        let total = STREAMS * (2 * BURST + 10);
        let t = w.interleaved(9, w.unique_blocks, total);
        assert_eq!(t.events.len(), total);
        let stream = |k: u64| {
            generate(&WorkloadSpec {
                name: w.name.into(),
                range_blocks: RANGE_BLOCKS,
                unique_blocks: w.unique_blocks / STREAMS as u64,
                total_ops: (total / STREAMS) as u64,
                write_fraction: w.write_fraction,
                zipf_theta: w.zipf_theta,
                seq_run_prob: w.seq_run_prob,
                seq_run_len: w.seq_run_len,
                seed: 9 ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .events
        };
        let (first, last) = (stream(0), stream(STREAMS as u64 - 1));
        // Round 0: full bursts, stream 0 first, the last stream last.
        assert_eq!(t.events[..BURST], first[..BURST]);
        assert_eq!(
            t.events[(STREAMS - 1) * BURST..STREAMS * BURST],
            last[..BURST]
        );
        // Round 1 starts where round 0 ended.
        assert_eq!(
            t.events[STREAMS * BURST..STREAMS * BURST + BURST],
            first[BURST..2 * BURST]
        );
        // The short last round: ten events per stream, back to back.
        let tail = 2 * STREAMS * BURST;
        assert_eq!(t.events[tail..tail + 10], first[2 * BURST..]);
        assert_eq!(t.events[total - 10..], last[2 * BURST..]);
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        let w = &WORKLOADS[3];
        let a = w.trace(7);
        assert_eq!(a.events, w.trace(7).events);
        assert_ne!(a.events, w.trace(8).events);
    }
}
