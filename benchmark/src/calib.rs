//! The speed probe: how fast the core is running *right now*.
//!
//! On the small shared boxes this benchmark runs on, the same code runs at
//! a speed that wanders by +-15% over seconds (a fixed L1-resident loop
//! sampled once a second for ten minutes took 11.9 us at its tenth
//! percentile and 15.8 us at its ninetieth) and, on top of that, loses
//! whole time slices to whatever else the host schedules. Medians of
//! repeats cancel neither: the driver measured inter-quartile spreads of
//! 35 to 43% on median-of-six replay times of identical code.
//!
//! Two estimators, used together, do (README.md has the measurements):
//!
//! * **Minimum per chunk.** Interference only ever adds time. A replay is
//!   timed in chunks of a few thousand events, every repeat replays the
//!   same chunks, and each chunk's cost is the least any repeat paid for
//!   it. A lost time slice spoils one chunk of one repeat, not a repeat.
//! * **Scaling to a nominal core speed.** A probe — a fixed, L1-resident
//!   loop that later changes cannot touch, because it lives in this
//!   package — runs before and after every timed interval. The interval
//!   is scaled by `NOMINAL_NS / probe time`: if the core ran the probe 10%
//!   slow, the interval is taken to have run 10% slow. What is reported is
//!   time *at nominal speed*, a ratio to the probe in nanosecond clothing.
//!
//! The probe has two phases of about equal length: a chain of dependent
//! loads, branches and stores (one instruction waiting on the last, like a
//! hash probe), and four independent arithmetic chains (as many
//! instructions in flight as the core will take, like a checksum or a
//! copy). A clock change slows both alike, a busy sibling hardware thread
//! slows the second far more than the first, and the replay is a mixture
//! of both kinds of code. The probe is deliberately insensitive to
//! everything but the core: contention for memory it does not see, and
//! the per-chunk minimum is the only defence there.

use std::time::Instant;

/// What one probe sample takes on the builder's box in its usual fast
/// state, nanoseconds. Every calibrated figure is scaled to a core that
/// runs the probe in exactly this time; the constant fixes the unit and
/// nothing else, so it must never change.
pub const NOMINAL_NS: f64 = 12_000.0;

/// Bytes of probe state: fits the smallest L1 data cache in use.
const TABLE_BYTES: usize = 32 << 10;
/// Steps of the dependent phase per sample (about 4.4 ns each).
const CHAIN_STEPS: usize = 1_400;
/// Steps of the independent phase per sample (about 1.9 ns each).
const WIDE_STEPS: u64 = 3_200;

/// A fixed unit of core-bound work whose duration measures core speed.
pub struct SpeedProbe {
    table: Vec<u8>,
    x: u64,
    lanes: [u64; 4],
}

impl SpeedProbe {
    /// A probe with its own 32 KiB of state.
    pub fn new() -> Self {
        SpeedProbe {
            table: vec![0; TABLE_BYTES],
            x: 0x9E37_79B9_7F4A_7C15,
            lanes: [1, 2, 3, 4],
        }
    }

    /// Runs the probe once; returns how long it took, nanoseconds.
    pub fn sample(&mut self) -> f64 {
        // The timed code between two samples has evicted the table; pull
        // it back first so the sample times the core, not the refill.
        let mut touched = 0u8;
        for line in self.table.chunks(64) {
            touched ^= line[0];
        }
        std::hint::black_box(touched);
        let mut x = self.x;
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let t = Instant::now();
        for _ in 0..CHAIN_STEPS {
            // xorshift address, dependent load, data-dependent branch,
            // store: the mix of a hash probe and a metadata update.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % TABLE_BYTES;
            let v = self.table[i];
            if v & 1 == 0 {
                self.table[(i + 64) % TABLE_BYTES] = v.wrapping_add(x as u8);
            } else {
                self.table[i] = v ^ (x >> 8) as u8;
            }
        }
        for i in 0..WIDE_STEPS {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b = b.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            c ^= c << 5;
            c ^= c >> 11;
            c = c.wrapping_add(b);
            d = d.rotate_left(9) ^ a;
        }
        let ns = t.elapsed().as_nanos() as f64;
        self.x = std::hint::black_box(x);
        self.lanes = std::hint::black_box([a, b, c, d]);
        ns
    }
}

/// `ns` measured between two probe samples, scaled to nominal core speed.
/// The faster of the two samples is the estimate of the core's speed over
/// the interval: a probe sample can be hit by interference too, and then
/// reads slow, never fast.
pub fn at_nominal_speed(ns: f64, probe_before_ns: f64, probe_after_ns: f64) -> f64 {
    ns * NOMINAL_NS / probe_before_ns.min(probe_after_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_uses_the_faster_neighbour() {
        // A core running the probe at nominal speed leaves times alone.
        assert_eq!(at_nominal_speed(500.0, NOMINAL_NS, NOMINAL_NS), 500.0);
        // 25% slow on both sides: the interval is taken to be 25% slow.
        let slow = NOMINAL_NS * 1.25;
        assert!((at_nominal_speed(500.0, slow, slow) - 400.0).abs() < 1e-9);
        // One neighbour hit by a burst (reads 3x slow): ignored.
        assert!((at_nominal_speed(500.0, slow * 3.0, slow) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn samples_are_positive_and_of_one_scale() {
        let mut p = SpeedProbe::new();
        let mut v: Vec<f64> = (0..50).map(|_| p.sample()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(v[0] > 0.0);
        // The quiet half of fifty back-to-back samples agrees within 2x
        // (in a debug build the absolute time is far from nominal; only
        // the consistency is checked).
        assert!(v[25] < v[0] * 2.0, "min {} median {}", v[0], v[25]);
    }
}
