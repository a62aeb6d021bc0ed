//! Deterministic network fault injection for the serve path.
//!
//! The media layer already has a seeded fault injector
//! (`flashsim::FaultInjector`); this module is its network
//! counterpart. A [`FaultyTransport`] wraps one direction of a TCP stream
//! and, on each `read`/`write` call, consults a pure hash of the plan seed
//! and a per-transport operation counter to decide whether to inject one
//! of four fault classes:
//!
//! * **Reset** — the connection is severed (`ECONNRESET` to the caller,
//!   the underlying socket is shut down so the peer sees it too) and the
//!   transport is poisoned: every further operation fails.
//! * **Partial write** — a prefix of the buffer reaches the wire and then
//!   the connection resets, leaving a torn frame for the peer to choke on
//!   (the server counts it as a protocol error and closes).
//! * **Stall** — the call sleeps for the plan's stall duration before
//!   proceeding, long enough to trip peer read timeouts when configured to.
//! * **Delay** — a short sleep modelling delayed delivery; the call then
//!   succeeds normally.
//!
//! Like the media injector, the decision function is a pure hash of
//! `(seed, op counter)`, so a given seed yields the same fault *sequence*
//! on every run; which frame a given decision lands on follows the
//! caller's sequence of transport operations. The injector is strictly
//! opt-in: [`FaultyTransport::passthrough`] takes a single `Option` branch
//! per call, draws no hashes and sleeps never — the off path adds no
//! behaviour to a clean server or client.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration as StdDuration;

/// Per-operation network-fault probabilities in parts per million, plus
/// the seed making injection deterministic and the two sleep durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed for the per-operation fault hash.
    pub seed: u64,
    /// Connection reset: the op fails with `ConnectionReset` and the
    /// transport is poisoned.
    pub reset_ppm: u32,
    /// Partial write then reset (writes only): a prefix reaches the wire,
    /// tearing the frame for the peer.
    pub partial_ppm: u32,
    /// Stall: sleep [`NetFaultPlan::stall`] before the op proceeds.
    pub stall_ppm: u32,
    /// Delayed delivery: sleep [`NetFaultPlan::delay`] before the op.
    pub delay_ppm: u32,
    /// Stall duration (long: meant to trip peer timeouts when they are
    /// configured tighter than this).
    pub stall: StdDuration,
    /// Delay duration (short: jitter, not failure).
    pub delay: StdDuration,
}

impl NetFaultPlan {
    /// A plan injecting every class at the same base rate with short,
    /// test-friendly sleeps — the single-knob form the torture tests use.
    /// Resets fire at the base rate; the rarer classes scale down from it.
    pub fn uniform(seed: u64, ppm: u32) -> Self {
        NetFaultPlan {
            seed,
            reset_ppm: ppm,
            partial_ppm: ppm / 2,
            stall_ppm: ppm / 4,
            delay_ppm: ppm,
            stall: StdDuration::from_millis(20),
            delay: StdDuration::from_micros(500),
        }
    }

    /// Decorrelates the plan seed for one connection/direction so every
    /// transport draws an independent fault sequence (`salt` encodes the
    /// connection id and direction; reconnect attempts must use fresh
    /// salts or a deterministic reset would refire forever).
    pub fn decorrelated(mut self, salt: u64) -> Self {
        self.seed = mix(self.seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        self
    }
}

simkit::counter_set! {
    /// Cumulative injected-fault counts for one transport.
    pub struct NetFaultCounters {
        /// Connection resets injected.
        pub resets: u64,
        /// Partial writes (torn frames) injected.
        pub partial_writes: u64,
        /// Stalls injected.
        pub stalls: u64,
        /// Short delays injected.
        pub delays: u64,
    }
}

impl NetFaultCounters {
    /// Total faults injected, every class.
    pub fn total(&self) -> u64 {
        self.resets + self.partial_writes + self.stalls + self.delays
    }
}

/// What the injector decided about one transport operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetFault {
    None,
    Reset,
    Partial,
    Stall,
    Delay,
}

/// SplitMix64 finalizer — same full-avalanche hash the media injector
/// uses, so the two fault layers share one determinism idiom.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded decision state for one transport direction.
#[derive(Debug, Clone)]
struct Injector {
    plan: NetFaultPlan,
    /// Operations that consulted the hash so far (determinism anchor).
    ops: u64,
}

impl Injector {
    /// One deterministic draw in `[0, 1_000_000)`, advancing the counter.
    fn draw(&mut self) -> u32 {
        let op = self.ops;
        self.ops += 1;
        (mix(self.plan.seed ^ op.wrapping_mul(0xA24B_AED4_963E_E407)) % 1_000_000) as u32
    }

    /// Decides the fate of one operation. `writes` enables the
    /// partial-write class (meaningless for reads).
    fn decide(&mut self, writes: bool) -> NetFault {
        let p = self.plan;
        let partial_ppm = if writes { p.partial_ppm } else { 0 };
        let draw = self.draw();
        if draw < p.reset_ppm {
            NetFault::Reset
        } else if draw < p.reset_ppm + partial_ppm {
            NetFault::Partial
        } else if draw < p.reset_ppm + partial_ppm + p.stall_ppm {
            NetFault::Stall
        } else if draw < p.reset_ppm + partial_ppm + p.stall_ppm + p.delay_ppm {
            NetFault::Delay
        } else {
            NetFault::None
        }
    }
}

/// One direction of a TCP stream with optional seeded fault injection.
///
/// Implements `Read` and `Write` so it slots under the protocol codec
/// (optionally behind a `BufReader`/`BufWriter`). With no plan installed
/// every call is a single `Option` check around the inner socket call.
#[derive(Debug)]
pub struct FaultyTransport {
    inner: TcpStream,
    injector: Option<Box<InjectorState>>,
}

#[derive(Debug)]
struct InjectorState {
    injector: Injector,
    counters: NetFaultCounters,
    /// A reset fired: every further operation fails.
    poisoned: bool,
}

impl FaultyTransport {
    /// A transport injecting faults per `plan`.
    pub fn new(inner: TcpStream, plan: NetFaultPlan) -> Self {
        FaultyTransport {
            inner,
            injector: Some(Box::new(InjectorState {
                injector: Injector { plan, ops: 0 },
                counters: NetFaultCounters::default(),
                poisoned: false,
            })),
        }
    }

    /// A fault-free transport: the zero-cost off path.
    pub fn passthrough(inner: TcpStream) -> Self {
        FaultyTransport {
            inner,
            injector: None,
        }
    }

    /// Wraps per `plan` when one is given, else passthrough.
    pub fn maybe(inner: TcpStream, plan: Option<NetFaultPlan>) -> Self {
        match plan {
            Some(p) => FaultyTransport::new(inner, p),
            None => FaultyTransport::passthrough(inner),
        }
    }

    /// Faults injected so far on this transport.
    pub fn counters(&self) -> NetFaultCounters {
        self.injector
            .as_ref()
            .map_or(NetFaultCounters::default(), |s| s.counters)
    }

    /// The wrapped socket (timeout configuration, shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.inner
    }

    fn reset(&mut self) -> io::Error {
        // Sever the real connection so the peer observes the fault too,
        // then poison this side.
        let _ = self.inner.shutdown(Shutdown::Both);
        if let Some(s) = self.injector.as_mut() {
            s.poisoned = true;
        }
        io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

impl Read for FaultyTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(state) = self.injector.as_mut() else {
            return self.inner.read(buf);
        };
        if state.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "transport poisoned by injected reset",
            ));
        }
        match state.injector.decide(false) {
            NetFault::None => self.inner.read(buf),
            NetFault::Reset => {
                self.injector.as_mut().unwrap().counters.resets += 1;
                Err(self.reset())
            }
            NetFault::Stall => {
                state.counters.stalls += 1;
                let stall = state.injector.plan.stall;
                std::thread::sleep(stall);
                self.inner.read(buf)
            }
            NetFault::Delay | NetFault::Partial => {
                state.counters.delays += 1;
                let delay = state.injector.plan.delay;
                std::thread::sleep(delay);
                self.inner.read(buf)
            }
        }
    }
}

impl Write for FaultyTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(state) = self.injector.as_mut() else {
            return self.inner.write(buf);
        };
        if state.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "transport poisoned by injected reset",
            ));
        }
        match state.injector.decide(true) {
            NetFault::None => self.inner.write(buf),
            NetFault::Reset => {
                self.injector.as_mut().unwrap().counters.resets += 1;
                Err(self.reset())
            }
            NetFault::Partial => {
                // Push a strict prefix onto the wire, then sever: the peer
                // decodes a torn frame.
                state.counters.partial_writes += 1;
                let n = (buf.len() / 2).max(1).min(buf.len());
                let _ = self.inner.write(&buf[..n]);
                let _ = self.inner.flush();
                Err(self.reset())
            }
            NetFault::Stall => {
                state.counters.stalls += 1;
                let stall = state.injector.plan.stall;
                std::thread::sleep(stall);
                self.inner.write(buf)
            }
            NetFault::Delay => {
                state.counters.delays += 1;
                let delay = state.injector.plan.delay;
                std::thread::sleep(delay);
                self.inner.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(plan: NetFaultPlan, writes: bool, n: usize) -> Vec<NetFault> {
        let mut inj = Injector { plan, ops: 0 };
        (0..n).map(|_| inj.decide(writes)).collect()
    }

    #[test]
    fn decision_sequence_is_seed_deterministic() {
        let plan = NetFaultPlan::uniform(42, 200_000);
        assert_eq!(sequence(plan, true, 500), sequence(plan, true, 500));
        let other = NetFaultPlan::uniform(43, 200_000);
        assert_ne!(
            sequence(plan, true, 500),
            sequence(other, true, 500),
            "different seeds must draw different fault sequences"
        );
    }

    #[test]
    fn rates_are_roughly_honoured() {
        // 30% resets over 10k draws: expect well over zero and under half.
        let plan = NetFaultPlan {
            seed: 7,
            reset_ppm: 300_000,
            partial_ppm: 0,
            stall_ppm: 0,
            delay_ppm: 0,
            stall: StdDuration::ZERO,
            delay: StdDuration::ZERO,
        };
        let resets = sequence(plan, true, 10_000)
            .iter()
            .filter(|f| **f == NetFault::Reset)
            .count();
        assert!(
            (2_000..4_000).contains(&resets),
            "30% nominal, got {resets}/10000"
        );
    }

    #[test]
    fn reads_never_draw_partial_writes() {
        let plan = NetFaultPlan {
            seed: 9,
            reset_ppm: 0,
            partial_ppm: 1_000_000,
            stall_ppm: 0,
            delay_ppm: 0,
            stall: StdDuration::ZERO,
            delay: StdDuration::ZERO,
        };
        assert!(sequence(plan, false, 200)
            .iter()
            .all(|f| *f == NetFault::None));
        assert!(sequence(plan, true, 200)
            .iter()
            .all(|f| *f == NetFault::Partial));
    }

    #[test]
    fn decorrelated_seeds_differ_per_salt() {
        let plan = NetFaultPlan::uniform(1, 100_000);
        let a = plan.decorrelated(1);
        let b = plan.decorrelated(2);
        assert_ne!(a.seed, b.seed);
        // Deterministic: same salt, same derived seed.
        assert_eq!(a.seed, plan.decorrelated(1).seed);
    }

    #[test]
    fn transport_reset_poisons_and_severs() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            // Drain whatever arrives until the peer severs.
            let _ = s.read_to_end(&mut buf);
            buf
        });
        let stream = TcpStream::connect(addr).unwrap();
        let plan = NetFaultPlan {
            seed: 3,
            reset_ppm: 1_000_000,
            partial_ppm: 0,
            stall_ppm: 0,
            delay_ppm: 0,
            stall: StdDuration::ZERO,
            delay: StdDuration::ZERO,
        };
        let mut t = FaultyTransport::new(stream, plan);
        let err = t.write(b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Poisoned thereafter, no further draws needed.
        assert_eq!(
            t.write(b"again").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(t.counters().resets, 1);
        let seen = join.join().unwrap();
        assert!(seen.is_empty(), "reset-before-write leaked bytes: {seen:?}");
    }

    #[test]
    fn passthrough_round_trips_and_counts_nothing() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut t = FaultyTransport::passthrough(s);
            let mut buf = [0u8; 5];
            t.read_exact(&mut buf).unwrap();
            t.write_all(&buf).unwrap();
        });
        let mut t = FaultyTransport::passthrough(TcpStream::connect(addr).unwrap());
        t.write_all(b"abcde").unwrap();
        let mut echo = [0u8; 5];
        t.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"abcde");
        assert_eq!(t.counters(), NetFaultCounters::default());
        join.join().unwrap();
    }
}
