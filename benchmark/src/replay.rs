//! The replay phase: each system replays the workload's trace through the
//! scalar `cachemgr::replay` driver — the one the `flashtier` CLI and every
//! experiment binary use — on a fresh stack per repeat.
//!
//! The rules that keep the host-time figures repeatable on a small shared
//! box (each was measured; see README.md):
//!
//! * strictly sequential and single-threaded — two replays sharing the
//!   box's cores disagree by 20%;
//! * repeats are sized by a fixed event count, never by time, so every
//!   repeat of a system performs identical simulated work and its
//!   counters must repeat exactly (checked, and a correctness failure if
//!   not);
//! * systems are interleaved round-robin so slow drift of the host hits
//!   all three alike;
//! * a repeat is timed in chunks of [`CHUNK_EVENTS`] events with a speed
//!   probe between chunks; the reported cost of a chunk is the least any
//!   repeat paid for it at nominal core speed (`calib.rs` has the why).
//!   The plain median over whole repeats is kept as the raw figure the
//!   traced pass compares like with like against.

use std::time::Instant;

use cachemgr::{replay, MgrCounters};
use trace::TraceEvent;

use crate::calib::{at_nominal_speed, SpeedProbe};
use crate::hostclock::thread_cpu_ns;
use crate::stacks::{LayerCounts, Probe};
use crate::stats::{iqr_pct, median};
use crate::tracing::{Span, SpanName, Traced};
use crate::workloads::Workload;

/// Everything simulated or counted in one timed repeat. Two repeats of
/// the same system over the same events must agree on all of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated time of the timed window, microseconds.
    pub sim_time_us: u64,
    /// Manager counters over the timed window.
    pub mgr: MgrCounters,
    /// Counters of the layers below the manager over the timed window.
    pub layers: LayerCounts,
    /// Wear spread at the end of the repeat.
    pub wear_spread: u64,
}

/// Events per separately timed chunk of a repeat: 0.7 to 6 ms of replay,
/// short enough that a lost time slice spoils one chunk and long enough
/// that the probe between chunks (about 13 us) adds under 2%.
pub const CHUNK_EVENTS: usize = 4096;

/// Host-side measurements of one repeat.
#[derive(Debug, Clone)]
struct Sample {
    /// Construct-and-warm time at nominal core speed, seconds.
    setup_s: f64,
    /// Sum of the chunk times as measured.
    wall_ns: f64,
    cpu_ns: f64,
    /// Each chunk's time at nominal core speed.
    chunk_ns: Vec<f64>,
}

/// One system's repeats.
pub struct SystemBench<S> {
    build: Box<dyn Fn() -> S>,
    samples: Vec<Sample>,
    traced_ns_per_event: Vec<f64>,
    fingerprint: Option<Fingerprint>,
    /// Repeats whose fingerprint differed from the first.
    pub nondeterministic_repeats: u64,
    /// Replay calls that returned an error.
    pub replay_errors: u64,
    /// Events replayed in total (warm and timed, every repeat).
    pub events_replayed: u64,
    /// The stack left by the latest untraced repeat.
    pub last: Option<S>,
}

impl<S: Probe> SystemBench<S> {
    /// A bench that builds a fresh stack with `build` for every repeat.
    pub fn new(build: impl Fn() -> S + 'static) -> Self {
        SystemBench {
            build: Box::new(build),
            samples: Vec::new(),
            traced_ns_per_event: Vec::new(),
            fingerprint: None,
            nondeterministic_repeats: 0,
            replay_errors: 0,
            events_replayed: 0,
            last: None,
        }
    }

    /// One untraced repeat: construct, warm (timed as set-up), then the
    /// timed passes, chunk by chunk with a `probe` sample between chunks.
    pub fn repeat(&mut self, w: &Workload, events: &[TraceEvent], probe: &mut SpeedProbe) {
        let (warm, timed) = events.split_at(w.warm_events);
        // One stack alive at a time, so the resident-set peak is the same
        // in every round.
        self.last = None;
        let before = probe.sample();
        let t0 = Instant::now();
        let mut sys = (self.build)();
        if replay(&mut sys, warm).is_err() {
            self.replay_errors += 1;
            return;
        }
        let setup_ns = t0.elapsed().as_nanos() as f64;
        let mut speed = probe.sample();
        let setup_s = at_nominal_speed(setup_ns, before, speed) / 1e9;
        let mgr0 = sys.counters();
        let layers0 = sys.layer_counts();
        let mut sim_time_us = 0u64;
        let mut chunk_ns = Vec::with_capacity(w.passes * timed.len().div_ceil(CHUNK_EVENTS));
        let mut wall_ns = 0.0;
        let cpu0 = thread_cpu_ns();
        for _ in 0..w.passes {
            for chunk in timed.chunks(CHUNK_EVENTS) {
                let t = Instant::now();
                let outcome = replay(&mut sys, chunk);
                let ns = t.elapsed().as_nanos() as f64;
                match outcome {
                    Ok(stats) => sim_time_us += stats.sim_time.as_micros(),
                    Err(_) => {
                        self.replay_errors += 1;
                        return;
                    }
                }
                let after = probe.sample();
                chunk_ns.push(at_nominal_speed(ns, speed, after));
                wall_ns += ns;
                speed = after;
            }
        }
        // Includes the probe samples; a diagnostic, compared only with
        // itself.
        let cpu_ns = (thread_cpu_ns() - cpu0) as f64;
        self.events_replayed += (warm.len() + timed.len() * w.passes) as u64;
        let fp = Fingerprint {
            sim_time_us,
            mgr: sys.counters().since(&mgr0),
            layers: sys.layer_counts().since(&layers0),
            wear_spread: sys.wear_spread(),
        };
        match &self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if *first != fp => self.nondeterministic_repeats += 1,
            Some(_) => {}
        }
        self.samples.push(Sample {
            setup_s,
            wall_ns,
            cpu_ns,
            chunk_ns,
        });
        self.last = Some(sys);
    }

    /// Drops the samples gathered so far (the spin-up round); the
    /// fingerprint stays, so spin-up repeats still take part in the
    /// determinism check.
    pub fn drop_samples(&mut self) {
        self.samples.clear();
    }

    /// The fingerprint every repeat agreed on.
    ///
    /// # Panics
    ///
    /// Panics if no repeat completed.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint.expect("no completed repeat")
    }

    fn per_event(&self, w: &Workload, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let n = w.events_per_repeat() as f64;
        self.samples.iter().map(|s| f(s) / n).collect()
    }

    /// Nanoseconds per event at nominal core speed: every chunk at the
    /// least any kept repeat paid for it.
    ///
    /// # Panics
    ///
    /// Panics if no repeat completed.
    pub fn ns_per_event(&self, w: &Workload) -> f64 {
        let chunks: Vec<&[f64]> = self.samples.iter().map(|s| &s.chunk_ns[..]).collect();
        sum_of_minima(&chunks) / w.events_per_repeat() as f64
    }

    /// Median wall nanoseconds per event over the kept repeats, as
    /// measured: what the traced pass compares its traced repeats and its
    /// isolated layer costs against.
    pub fn raw_ns_per_event(&self, w: &Workload) -> f64 {
        median(&self.per_event(w, |s| s.wall_ns))
    }

    /// Median thread-CPU nanoseconds per event over the kept repeats.
    pub fn cpu_ns_per_event(&self, w: &Workload) -> f64 {
        median(&self.per_event(w, |s| s.cpu_ns))
    }

    /// Inter-quartile spread of wall ns/event across the kept repeats, as
    /// a percentage of their median.
    pub fn iqr_pct(&self, w: &Workload) -> f64 {
        iqr_pct(&self.per_event(w, |s| s.wall_ns))
    }

    /// One line per kept repeat, for `--verbose`.
    pub fn describe(&self, label: &str, w: &Workload) -> String {
        let n = w.events_per_repeat() as f64;
        self.samples
            .iter()
            .map(|s| {
                format!(
                    "{label}: wall {:.1} ns/event, at nominal speed {:.1}, cpu {:.1}, set-up {:.4} s\n",
                    s.wall_ns / n,
                    s.chunk_ns.iter().sum::<f64>() / n,
                    s.cpu_ns / n,
                    s.setup_s
                )
            })
            .collect()
    }

    /// Least construct-and-warm time of any kept repeat at nominal core
    /// speed, seconds.
    pub fn setup_s(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.setup_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Median traced ns/event (0 when no traced repeat ran).
    pub fn traced_ns_per_event(&self) -> f64 {
        if self.traced_ns_per_event.is_empty() {
            0.0
        } else {
            median(&self.traced_ns_per_event)
        }
    }
}

/// Sum over positions of the least value any row has at that position.
///
/// # Panics
///
/// Panics on no rows or rows of different lengths.
fn sum_of_minima(rows: &[&[f64]]) -> f64 {
    let n = rows.first().expect("no completed repeat").len();
    assert!(
        rows.iter().all(|r| r.len() == n),
        "repeats differ in chunks"
    );
    (0..n)
        .map(|c| rows.iter().map(|r| r[c]).fold(f64::INFINITY, f64::min))
        .sum()
}

impl<S: Probe> SystemBench<Traced<S>> {
    /// One traced repeat: same construction and warm-up, then one pass
    /// over the timed slice under a replay span. Returns the spans.
    pub fn traced_repeat(&mut self, w: &Workload, events: &[TraceEvent]) -> Vec<Span> {
        let (warm, timed) = events.split_at(w.warm_events);
        let mut sys = (self.build)();
        if replay(&mut sys, warm).is_err() {
            self.replay_errors += 1;
            return Vec::new();
        }
        drop(sys.take_log());
        sys.reserve(timed.len() + 1);
        let root = sys.begin_root(SpanName::Replay);
        let outcome = replay(&mut sys, timed);
        sys.end_root(root);
        if outcome.is_err() {
            self.replay_errors += 1;
            return Vec::new();
        }
        self.events_replayed += events.len() as u64;
        let log = sys.take_log();
        self.traced_ns_per_event
            .push(log[0].duration_ns() as f64 / timed.len() as f64);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::sum_of_minima;

    /// A burst that spoils one chunk of one repeat, and another chunk of
    /// another, moves nothing.
    #[test]
    fn bursts_in_different_chunks_cancel() {
        let quiet = [10.0, 20.0, 30.0];
        let a = [10.0, 95.0, 30.0];
        let b = [70.0, 20.0, 30.0];
        assert_eq!(sum_of_minima(&[&quiet]), 60.0);
        assert_eq!(sum_of_minima(&[&a, &b]), 60.0);
        // A chunk slow in every repeat stays slow: that is the code.
        assert_eq!(sum_of_minima(&[&[10.0, 50.0][..], &[12.0, 50.0]]), 60.0);
    }

    #[test]
    #[should_panic(expected = "repeats differ")]
    fn rows_must_cover_the_same_chunks() {
        sum_of_minima(&[&[1.0, 2.0][..], &[1.0]]);
    }
}
