//! Spans recorded from outside the product, at the manager boundary.
//!
//! [`Traced`] wraps a cache stack and forwards every call, recording one
//! span per call (name, start, end, parent, request id) into a vector it
//! owns. It is the system type under `cachemgr::replay` in the traced
//! replay (a replay span is the parent of the manager-call spans) and the
//! stack type inside the server in the traced serve pass (the worker's
//! manager call is the *apply* span; the client's request span becomes its
//! parent once the two logs are joined after shutdown).
//!
//! Layers below the manager are not wrapped: they are attributed by
//! counting their operations and timing each in isolation (`layers.rs`).
//! Spans inside the product are a later change; this file is what that
//! change replaces.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use cachemgr::{CacheSystem, MgrCounters, PageBuf};
use flashtier_server::ServeSystem;
use simkit::Duration;
use sparsemap::MapMemory;

use crate::stacks::{LayerCounts, Probe};

/// `parent` of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// One timed pass of `cachemgr::replay`.
    Replay,
    /// One `CacheSystem::read_into` call.
    MgrRead,
    /// One `CacheSystem::write` call.
    MgrWrite,
    /// One `barrier_flush` call.
    MgrFlush,
    /// One client request, send to response.
    Request,
}

impl SpanName {
    /// The name written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Replay => "replay",
            SpanName::MgrRead => "mgr.read",
            SpanName::MgrWrite => "mgr.write",
            SpanName::MgrFlush => "mgr.barrier_flush",
            SpanName::Request => "request",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub name: SpanName,
    /// Index (in the same log) of the span that caused this one.
    pub parent: u32,
    /// Identifier shared by the spans of one request: the event index in
    /// a replay, the connection and sequence number in a serve pass.
    pub req: u64,
    /// Block address the call was for (joins apply spans to requests).
    pub lba: u64,
    /// Start, nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process — one clock for every
/// thread, so client and worker spans are comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A cache stack that records a span around every manager call.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    log: Vec<Span>,
    parent: u32,
    seq: u64,
}

impl<S> Traced<S> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: S) -> Self {
        Traced {
            inner,
            log: Vec::new(),
            parent: NO_PARENT,
            seq: 0,
        }
    }

    /// Reserves room for `n` more spans so recording does not reallocate
    /// inside a timed region.
    pub fn reserve(&mut self, n: usize) {
        self.log.reserve(n);
    }

    /// Opens a root span; manager calls recorded until [`Traced::end_root`]
    /// name it as their parent.
    pub fn begin_root(&mut self, name: SpanName) -> u32 {
        let idx = self.log.len() as u32;
        let now = now_ns();
        self.log.push(Span {
            name,
            parent: NO_PARENT,
            req: 0,
            lba: 0,
            start_ns: now,
            end_ns: now,
        });
        self.parent = idx;
        self.seq = 0;
        idx
    }

    /// Closes the root span opened by [`Traced::begin_root`].
    pub fn end_root(&mut self, idx: u32) {
        self.log[idx as usize].end_ns = now_ns();
        self.parent = NO_PARENT;
    }

    /// Takes the recorded spans, leaving an empty log with its capacity.
    pub fn take_log(&mut self) -> Vec<Span> {
        let cap = self.log.capacity();
        std::mem::replace(&mut self.log, Vec::with_capacity(cap))
    }

    #[inline]
    fn record(&mut self, name: SpanName, lba: u64, start_ns: u64) {
        let req = self.seq;
        self.seq += 1;
        self.log.push(Span {
            name,
            parent: self.parent,
            req,
            lba,
            start_ns,
            end_ns: now_ns(),
        });
    }
}

impl<S: CacheSystem> CacheSystem for Traced<S> {
    fn read_into(&mut self, lba: u64, buf: &mut PageBuf) -> cachemgr::Result<Duration> {
        let start = now_ns();
        let out = self.inner.read_into(lba, buf);
        self.record(SpanName::MgrRead, lba, start);
        out
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> cachemgr::Result<Duration> {
        let start = now_ns();
        let out = self.inner.write(lba, data);
        self.record(SpanName::MgrWrite, lba, start);
        out
    }

    fn counters(&self) -> MgrCounters {
        self.inner.counters()
    }

    fn host_memory(&self) -> MapMemory {
        self.inner.host_memory()
    }

    fn device_memory(&self) -> MapMemory {
        self.inner.device_memory()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<S: ServeSystem> ServeSystem for Traced<S> {
    fn barrier_flush(&mut self) -> cachemgr::Result<Duration> {
        let start = now_ns();
        let out = self.inner.barrier_flush();
        self.record(SpanName::MgrFlush, 0, start);
        out
    }
}

impl<S: Probe> Probe for Traced<S> {
    fn layer_counts(&self) -> LayerCounts {
        self.inner.layer_counts()
    }

    fn wear_spread(&self) -> u64 {
        self.inner.wear_spread()
    }

    fn crash_and_recover(&mut self) -> cachemgr::Result<Duration> {
        self.inner.crash_and_recover()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent's
/// interval, so a child that outlives its parent cannot push the result
/// below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let start = s.start_ns.max(p.start_ns);
        let end = s.end_ns.min(p.end_ns);
        covered[s.parent as usize] += end.saturating_sub(start);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Joins worker-side apply spans to the client request spans that caused
/// them, then appends them to `requests`: each apply takes the oldest
/// not-yet-claimed request for the same block, inherits its request id and
/// names it as parent. The server preserves per-block order, so within a
/// connection this is exact; across connections any same-block pairing
/// nests correctly, which is all self time needs.
pub fn join_applies(requests: &mut Vec<Span>, mut applies: Vec<Span>) {
    let mut order: Vec<u32> = (0..requests.len() as u32).collect();
    order.sort_by_key(|&i| requests[i as usize].start_ns);
    let mut pending: HashMap<u64, VecDeque<u32>> = HashMap::new();
    for i in order {
        pending
            .entry(requests[i as usize].lba)
            .or_default()
            .push_back(i);
    }
    applies.sort_by_key(|a| a.start_ns);
    for mut a in applies {
        if a.name != SpanName::MgrFlush {
            if let Some(i) = pending.get_mut(&a.lba).and_then(VecDeque::pop_front) {
                a.parent = i;
                a.req = requests[i as usize].req;
            }
        }
        requests.push(a);
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameSummary {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

impl NameSummary {
    /// Mean span duration in nanoseconds (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-name totals over a span log.
pub fn summarize(spans: &[Span]) -> BTreeMap<SpanName, NameSummary> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<SpanName, NameSummary> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Spans kept per phase in the trace file; the per-name totals cover all
/// of them, the file would otherwise run to hundreds of megabytes.
pub const SAMPLE_SPANS: usize = 2_000;

/// One phase's worth of spans for the trace file.
pub struct TracePhase<'a> {
    /// Phase label (`replay.wb`, `serve`, ...).
    pub label: &'a str,
    /// Every span recorded in the phase.
    pub spans: &'a [Span],
}

/// Writes the trace file: per phase, the per-name totals over every span
/// and the first [`SAMPLE_SPANS`] spans verbatim.
///
/// # Errors
///
/// I/O failures creating the directory or writing the file.
pub fn write_trace_file(
    path: &Path,
    workload: &str,
    seed: u64,
    phases: &[TracePhase<'_>],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"phases\":["
    )?;
    for (pi, phase) in phases.iter().enumerate() {
        if pi > 0 {
            write!(w, ",")?;
        }
        write!(
            w,
            "\n{{\"label\":\"{}\",\"spans_recorded\":{},\"totals\":{{",
            phase.label,
            phase.spans.len()
        )?;
        for (i, (name, t)) in summarize(phase.spans).iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                name.as_str(),
                t.count,
                t.total_ns,
                t.self_ns
            )?;
        }
        write!(w, "}},\"sample\":[")?;
        for (i, s) in phase.spans.iter().take(SAMPLE_SPANS).enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"lba\":{}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                parent,
                s.req,
                s.lba
            )?;
        }
        write!(w, "]}}")?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, lba: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: 0,
            lba,
            start_ns,
            end_ns,
        }
    }

    /// Self time is the parent's duration minus what its children cover.
    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span(SpanName::Replay, NO_PARENT, 0, 100, 1100),
            span(SpanName::MgrRead, 0, 1, 150, 350),
            span(SpanName::MgrWrite, 0, 2, 400, 900),
            // A grandchild reduces its parent's self time, not the root's.
            span(SpanName::MgrFlush, 2, 0, 500, 600),
        ];
        assert_eq!(self_times(&spans), vec![1000 - 200 - 500, 200, 400, 100]);
        let totals = summarize(&spans);
        assert_eq!(totals[&SpanName::Replay].self_ns, 300);
        assert_eq!(totals[&SpanName::MgrWrite].total_ns, 500);
        assert!((totals[&SpanName::MgrRead].mean_ns() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(SpanName::Request, NO_PARENT, 0, 100, 200),
            // Starts inside, ends after the parent closed.
            span(SpanName::MgrRead, 0, 0, 150, 400),
        ];
        assert_eq!(self_times(&spans), vec![50, 250]);
    }

    #[test]
    fn applies_join_the_oldest_request_for_their_block() {
        let mut requests = vec![
            Span {
                req: 10,
                ..span(SpanName::Request, NO_PARENT, 7, 100, 900)
            },
            Span {
                req: 11,
                ..span(SpanName::Request, NO_PARENT, 7, 200, 950)
            },
            Span {
                req: 12,
                ..span(SpanName::Request, NO_PARENT, 9, 150, 500)
            },
        ];
        let applies = vec![
            span(SpanName::MgrRead, NO_PARENT, 7, 600, 650),
            span(SpanName::MgrRead, NO_PARENT, 9, 300, 340),
            span(SpanName::MgrWrite, NO_PARENT, 7, 400, 450),
            span(SpanName::MgrRead, NO_PARENT, 1234, 700, 710),
        ];
        join_applies(&mut requests, applies);
        assert_eq!(requests.len(), 7);
        // Sorted by start: lba 9 @300, lba 7 @400, lba 7 @600, lba 1234.
        assert_eq!((requests[3].parent, requests[3].req), (2, 12));
        assert_eq!((requests[4].parent, requests[4].req), (0, 10));
        assert_eq!((requests[5].parent, requests[5].req), (1, 11));
        assert_eq!(requests[6].parent, NO_PARENT);
        let selfs = self_times(&requests);
        assert_eq!(selfs[0], 800 - 50);
        assert_eq!(selfs[2], 350 - 40);
    }

    #[test]
    fn traced_forwards_and_records() {
        let spec = crate::stacks::StackSpec {
            flash_bytes: 8 << 20,
            store: true,
        };
        let mut t = Traced::new(spec.wb());
        let root = t.begin_root(SpanName::Replay);
        let data = vec![0xABu8; t.block_size()];
        t.write(5, &data).unwrap();
        let mut buf = PageBuf::new();
        t.read_into(5, &mut buf).unwrap();
        t.end_root(root);
        assert_eq!(&*buf, &data[..]);
        assert_eq!(t.counters().writes, 1);
        let log = t.take_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[1].name, SpanName::MgrWrite);
        assert_eq!((log[1].parent, log[1].req, log[1].lba), (0, 0, 5));
        assert_eq!((log[2].name, log[2].req), (SpanName::MgrRead, 1));
        assert!(log[0].start_ns <= log[1].start_ns && log[2].end_ns <= log[0].end_ns);
        assert!(t.take_log().is_empty());
    }
}
