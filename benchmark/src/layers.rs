//! Isolated per-layer drivers: host nanoseconds per call of each layer's
//! public operations, with state sized and addressed by the workload's own
//! trace.
//!
//! Tracing stops at the manager boundary (`tracing.rs`); everything below
//! is attributed by *count x isolated cost*. The counts come from the
//! replay (exact); these drivers supply the costs. Each figure is the
//! median of [`SAMPLES`] samples of a few thousand calls on warmed state.
//! The SSC and FTL drivers run long enough that evictions and merges
//! happen inside the samples, so their figures are amortized costs, the
//! same thing a count from the replay multiplies.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::sync_channel;
use std::time::{Duration as StdDuration, Instant};

use cachemgr::PageBuf;
use disksim::Disk;
use flashsim::{DataMode, FlashConfig, FlashDevice, FlashTiming, OobData, Pbn};
use flashtier_core::checkpoint::CheckpointStore;
use flashtier_core::wal::Wal;
use flashtier_core::{LogRecord, PagePtr, ShardRouter, Ssc, SscMaps};
use flashtier_server::protocol::read_request;
use flashtier_server::{Request, Response, STATUS_OK};
use ftl::{BlockDev, HybridFtl, SsdConfig};
use simkit::{crc32, fill_pseudo, SimRng};
use sparsemap::SparseHashMap;
use trace::TraceEvent;

use crate::serve::SHARDS;
use crate::stacks::StackSpec;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{BLOCK_BYTES, FLASH_BYTES};

/// Timed samples per figure.
pub const SAMPLES: usize = 7;

/// Layer metric name to value.
pub type LayerTimes = BTreeMap<&'static str, f64>;

fn ns(d: StdDuration) -> f64 {
    d.as_nanos() as f64
}

/// Median over [`SAMPLES`] runs of `sample`, which returns its own timed
/// nanoseconds per operation (so set-up inside a sample stays untimed).
fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    median(&(0..SAMPLES).map(|_| sample()).collect::<Vec<_>>())
}

/// Like [`median_of`] for drivers whose samples time two operations.
fn median_of_pair(mut sample: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let (a, b): (Vec<f64>, Vec<f64>) = (0..SAMPLES).map(|_| sample()).unzip();
    (median(&a), median(&b))
}

/// Distinct blocks of the trace in first-touch order.
fn distinct_blocks(events: &[TraceEvent]) -> Vec<u64> {
    let mut seen = HashSet::new();
    events
        .iter()
        .map(|e| e.lba)
        .filter(|&lba| seen.insert(lba))
        .collect()
}

/// A key no trace block collides with (the volume has 2^20 blocks).
const ABSENT: u64 = 1 << 40;

fn sparsemap_times(keys: &[u64], out: &mut LayerTimes) {
    let mut map: SparseHashMap<u64> = SparseHashMap::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u64);
    }
    let mut order = keys.to_vec();
    SimRng::seed_from(0x0DDE).shuffle(&mut order);
    const ROUNDS: usize = 8;
    let probes = (order.len() * ROUNDS) as f64;
    out.insert(
        "sparsemap.get_hit_ns",
        median_of(|| {
            let t = Instant::now();
            let mut sum = 0u64;
            for _ in 0..ROUNDS {
                for &k in &order {
                    sum = sum.wrapping_add(*map.get(black_box(k)).expect("resident key"));
                }
            }
            black_box(sum);
            ns(t.elapsed()) / probes
        }),
    );
    out.insert(
        "sparsemap.get_miss_ns",
        median_of(|| {
            let t = Instant::now();
            let mut found = 0u64;
            for _ in 0..ROUNDS {
                for &k in &order {
                    found += u64::from(map.get(black_box(k | ABSENT)).is_some());
                }
            }
            black_box(found);
            ns(t.elapsed()) / probes
        }),
    );
    // Steady-state churn on a full-size map, as eviction and refill do.
    let churn = &order[..order.len() / 4];
    let (remove, insert) = median_of_pair(|| {
        let t = Instant::now();
        for &k in churn {
            black_box(map.remove(k));
        }
        let removed = ns(t.elapsed());
        let t = Instant::now();
        for &k in churn {
            black_box(map.insert(k, k));
        }
        let n = churn.len() as f64;
        (removed / n, ns(t.elapsed()) / n)
    });
    out.insert("sparsemap.remove_ns", remove);
    out.insert("sparsemap.insert_ns", insert);
    out.insert(
        "sparsemap.heap_bytes_per_entry",
        map.memory().heap_bytes as f64 / map.len() as f64,
    );
}

fn simkit_times(out: &mut LayerTimes) {
    let mut page = vec![0u8; BLOCK_BYTES];
    fill_pseudo(1, &mut page);
    const CALLS: u64 = 1024;
    out.insert(
        "simkit.crc32_ns_per_kib",
        median_of(|| {
            let t = Instant::now();
            let mut acc = 0u32;
            for _ in 0..CALLS {
                acc ^= crc32(black_box(&page));
            }
            black_box(acc);
            ns(t.elapsed()) / (CALLS * (BLOCK_BYTES as u64 / 1024)) as f64
        }),
    );
    out.insert(
        "simkit.fill_pseudo_ns_per_page",
        median_of(|| {
            let t = Instant::now();
            for seed in 0..CALLS {
                fill_pseudo(black_box(seed), &mut page);
            }
            black_box(&page);
            ns(t.elapsed()) / CALLS as f64
        }),
    );
}

fn flashsim_times(out: &mut LayerTimes) {
    let config = FlashConfig::with_capacity_bytes(FLASH_BYTES);
    let g = config.geometry;
    let mut dev = FlashDevice::new(config, DataMode::Discard);
    let page = vec![0u8; g.page_size()];
    let mut buf = PageBuf::with_capacity(g.page_size());
    let (blocks, ppb) = (g.total_blocks(), u64::from(g.pages_per_block()));
    let mut read_order: Vec<u64> = (0..blocks * ppb).collect();
    SimRng::seed_from(0xF1A5).shuffle(&mut read_order);
    let mut program = Vec::new();
    let mut read = Vec::new();
    let mut erase = Vec::new();
    // One sample programs, reads and erases the whole device, leaving it
    // as it found it.
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for b in 0..blocks {
            for p in 0..ppb {
                let oob = OobData::for_lba(b * ppb + p, false, p);
                black_box(dev.program_next(Pbn(b), &page, oob).expect("program"));
            }
        }
        program.push(ns(t.elapsed()) / (blocks * ppb) as f64);
        let first = g.first_page(Pbn(0)).raw();
        let t = Instant::now();
        for &i in &read_order {
            black_box(
                dev.read_page_into(flashsim::Ppn(first + i), &mut buf)
                    .expect("read"),
            );
        }
        read.push(ns(t.elapsed()) / read_order.len() as f64);
        let t = Instant::now();
        for b in 0..blocks {
            black_box(dev.erase_block(Pbn(b)).expect("erase"));
        }
        erase.push(ns(t.elapsed()) / blocks as f64);
    }
    out.insert("flashsim.program_page_ns", median(&program));
    out.insert("flashsim.read_page_ns", median(&read));
    out.insert("flashsim.erase_block_ns", median(&erase));
}

/// Calls per sample in the device-level drivers.
const DEVICE_CALLS: usize = 16_384;

/// The next `n` items of `items`, cycling, starting at `*cursor`.
fn take_cyclic<T: Copy>(items: &[T], cursor: &mut usize, n: usize) -> Vec<T> {
    let out = (0..n).map(|i| items[(*cursor + i) % items.len()]).collect();
    *cursor = (*cursor + n) % items.len();
    out
}

fn ftl_times(events: &[TraceEvent], out: &mut LayerTimes) {
    let ssd = SsdConfig::paper_default(FlashConfig::with_capacity_bytes(FLASH_BYTES));
    let mut ftl = HybridFtl::new(ssd, DataMode::Discard);
    let cap = ftl.capacity_pages();
    let page = vec![0u8; BLOCK_BYTES];
    let mut buf = PageBuf::with_capacity(BLOCK_BYTES);
    // The native manager addresses the SSD by cache slot; folding the
    // trace's blocks onto the exposed pages keeps its skew and runs.
    let addrs: Vec<u64> = events.iter().map(|e| e.lba % cap).collect();
    let mut cursor = 0;
    for a in take_cyclic(&addrs, &mut cursor, 2 * cap as usize) {
        ftl.write(a, &page).expect("ftl warm write");
    }
    let (write, read) = median_of_pair(|| {
        let batch = take_cyclic(&addrs, &mut cursor, DEVICE_CALLS);
        let t = Instant::now();
        for &a in &batch {
            black_box(ftl.write(a, &page).expect("ftl write"));
        }
        let wrote = ns(t.elapsed());
        let t = Instant::now();
        for &a in &batch {
            black_box(ftl.read_into(a, &mut buf).expect("ftl read"));
        }
        let n = DEVICE_CALLS as f64;
        (wrote / n, ns(t.elapsed()) / n)
    });
    out.insert("ftl.write_ns", write);
    out.insert("ftl.read_ns", read);
}

fn disksim_times(spec: &StackSpec, events: &[TraceEvent], out: &mut LayerTimes) {
    let mut disk: Disk = spec.disk();
    let page = vec![0u8; BLOCK_BYTES];
    let mut buf = PageBuf::with_capacity(BLOCK_BYTES);
    let lbas: Vec<u64> = events.iter().map(|e| e.lba).collect();
    let mut cursor = 0;
    let (write, read) = median_of_pair(|| {
        let batch = take_cyclic(&lbas, &mut cursor, DEVICE_CALLS);
        let t = Instant::now();
        for &lba in &batch {
            black_box(disk.write(lba, &page).expect("disk write"));
        }
        let wrote = ns(t.elapsed());
        let t = Instant::now();
        for &lba in &batch {
            black_box(disk.read_into(lba, &mut buf).expect("disk read"));
        }
        let n = DEVICE_CALLS as f64;
        (wrote / n, ns(t.elapsed()) / n)
    });
    out.insert("disksim.write_ns", write);
    out.insert("disksim.read_ns", read);
}

fn ssc_times(spec: &StackSpec, events: &[TraceEvent], keys: &[u64], out: &mut LayerTimes) {
    let page = vec![0u8; BLOCK_BYTES];
    let mut buf = PageBuf::with_capacity(BLOCK_BYTES);

    // Device 1: clean contents, the read and clean-fill paths.
    let mut ssc = Ssc::new(spec.wb_config());
    for &k in keys {
        ssc.write_clean(k, &page).expect("ssc fill");
    }
    // Filling may already evict silently; probe only what stayed.
    let mut order: Vec<u64> = keys
        .iter()
        .copied()
        .filter(|&k| ssc.read_into(k, &mut buf).is_ok())
        .collect();
    SimRng::seed_from(0x55C).shuffle(&mut order);
    out.insert(
        "core.ssc.read_hit_ns",
        median_of(|| {
            let t = Instant::now();
            for &k in &order {
                black_box(ssc.read_into(k, &mut buf).expect("resident block"));
            }
            ns(t.elapsed()) / order.len() as f64
        }),
    );
    out.insert(
        "core.ssc.read_miss_ns",
        median_of(|| {
            let t = Instant::now();
            let mut misses = 0u64;
            for &k in &order {
                misses += u64::from(ssc.read_into(k | ABSENT, &mut buf).is_err());
            }
            black_box(misses);
            ns(t.elapsed()) / order.len() as f64
        }),
    );
    let evictees = &order[..order.len() / 4];
    out.insert(
        "core.ssc.evict_ns",
        median_of(|| {
            let t = Instant::now();
            for &k in evictees {
                black_box(ssc.evict(k).expect("evict"));
            }
            let took = ns(t.elapsed());
            for &k in evictees {
                ssc.write_clean(k, &page).expect("ssc refill");
            }
            took / evictees.len() as f64
        }),
    );
    // Fresh blocks with the trace's spatial shape: past capacity every
    // fill pays its share of silent eviction.
    let mut epoch = 1u64;
    let mut cursor = 0;
    let mut fresh = |n: usize| -> Vec<u64> {
        let base = take_cyclic(keys, &mut cursor, n);
        if cursor < n {
            epoch += 1;
        }
        base.into_iter().map(|k| k + (epoch << 32)).collect()
    };
    for k in fresh(2 * keys.len()) {
        ssc.write_clean(k, &page).expect("ssc steady-state fill");
    }
    out.insert(
        "core.ssc.write_clean_ns",
        median_of(|| {
            let batch = fresh(DEVICE_CALLS / 2);
            let t = Instant::now();
            for &k in &batch {
                black_box(ssc.write_clean(k, &page).expect("write-clean"));
            }
            ns(t.elapsed()) / batch.len() as f64
        }),
    );

    // Device 2: the write-back path. Dirty a batch of the trace's written
    // blocks, then clean them, as the manager's destager does.
    let mut ssc = Ssc::new(spec.wb_config());
    let mut written: Vec<u64> = events
        .iter()
        .filter(|e| e.is_write())
        .map(|e| e.lba)
        .collect();
    if written.is_empty() {
        written = keys.to_vec();
    }
    let mut cursor = 0;
    let batch_len = DEVICE_CALLS / 8;
    let mut dirty_then_clean = |ssc: &mut Ssc| {
        let batch = take_cyclic(&written, &mut cursor, batch_len);
        let t = Instant::now();
        for &k in &batch {
            black_box(ssc.write_dirty(k, &page).expect("write-dirty"));
        }
        let wrote = ns(t.elapsed());
        let mut distinct = batch.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let t = Instant::now();
        for &k in &distinct {
            black_box(ssc.clean(k).expect("clean"));
        }
        (
            wrote / batch.len() as f64,
            ns(t.elapsed()) / distinct.len() as f64,
        )
    };
    for _ in 0..16 {
        dirty_then_clean(&mut ssc);
    }
    let (write_dirty, clean) = median_of_pair(|| dirty_then_clean(&mut ssc));
    out.insert("core.ssc.write_dirty_ns", write_dirty);
    out.insert("core.ssc.clean_ns", clean);
    for &k in &written[..written.len().min(batch_len)] {
        ssc.write_dirty(k, &page).expect("write-dirty");
    }
    let kblocks = ssc.cached_pages() as f64 / 1e3;
    out.insert(
        "core.ssc.exists_ns_per_kblock",
        median_of(|| {
            let t = Instant::now();
            black_box(ssc.exists(0, u64::MAX));
            ns(t.elapsed()) / kblocks
        }),
    );
}

fn wal_and_checkpoint_times(spec: &StackSpec, keys: &[u64], out: &mut LayerTimes) {
    let timing = FlashTiming::paper_default();
    let mut wal = Wal::new(timing, BLOCK_BYTES);
    const RECORDS: u64 = 8_192;
    let (append, flush) = median_of_pair(|| {
        let t = Instant::now();
        for i in 0..RECORDS {
            black_box(wal.append(LogRecord::InsertPage {
                lba: keys[i as usize % keys.len()],
                ppn: i,
                dirty: i % 2 == 0,
            }));
        }
        let appended = ns(t.elapsed());
        let t = Instant::now();
        black_box(wal.flush());
        let flushed = ns(t.elapsed());
        wal.truncate_through(wal.durable_lsn());
        (appended / RECORDS as f64, flushed / RECORDS as f64)
    });
    out.insert("core.wal.append_ns", append);
    out.insert("core.wal.flush_ns_per_record", flush);

    let ppb = spec.wb_config().flash.geometry.pages_per_block();
    let mut maps = SscMaps::with_capacity(ppb, keys.len(), 0);
    for (i, &k) in keys.iter().enumerate() {
        maps.insert_page(k, PagePtr::new(flashsim::Ppn(i as u64), i % 3 == 0));
    }
    let mut store = CheckpointStore::new(timing, BLOCK_BYTES);
    let mut lsn = 0;
    out.insert(
        "core.checkpoint.write_ns_per_kentry",
        median_of(|| {
            lsn += 1;
            let t = Instant::now();
            black_box(store.write(&maps, lsn));
            ns(t.elapsed()) / (keys.len() as f64 / 1e3)
        }),
    );
}

fn router_time(events: &[TraceEvent], out: &mut LayerTimes) {
    let router = ShardRouter::new(SHARDS, 64);
    let lbas: Vec<u64> = events.iter().take(1 << 16).map(|e| e.lba).collect();
    out.insert(
        "cachemgr.shard_of_ns",
        median_of(|| {
            let t = Instant::now();
            let mut sum = 0usize;
            for &lba in &lbas {
                sum += router.shard_of(black_box(lba));
            }
            black_box(sum);
            ns(t.elapsed()) / lbas.len() as f64
        }),
    );
}

fn codec_times(out: &mut LayerTimes) {
    const FRAMES: u64 = 4_096;
    let block = vec![0xC3u8; BLOCK_BYTES];
    let mut wire: Vec<u8> = Vec::with_capacity(BLOCK_BYTES + 64);
    out.insert(
        "server.codec.get_req_ns",
        median_of(|| {
            let t = Instant::now();
            for i in 0..FRAMES {
                wire.clear();
                Request::Get { req_id: i, lba: i }
                    .write_to(&mut wire)
                    .expect("encode");
                black_box(read_request(&mut &wire[..], BLOCK_BYTES as u32).expect("decode"));
            }
            ns(t.elapsed()) / FRAMES as f64
        }),
    );
    out.insert(
        "server.codec.put_req_ns",
        median_of(|| {
            let t = Instant::now();
            for i in 0..FRAMES {
                wire.clear();
                Request::Put {
                    req_id: i,
                    lba: i,
                    data: block.clone(),
                }
                .write_to(&mut wire)
                .expect("encode");
                black_box(read_request(&mut &wire[..], BLOCK_BYTES as u32).expect("decode"));
            }
            ns(t.elapsed()) / FRAMES as f64
        }),
    );
    out.insert(
        "server.codec.get_resp_ns",
        median_of(|| {
            let t = Instant::now();
            for i in 0..FRAMES {
                wire.clear();
                Response {
                    req_id: i,
                    status: STATUS_OK,
                    payload: block.clone(),
                }
                .write_to(&mut wire)
                .expect("encode");
                black_box(Response::read_from(&mut &wire[..]).expect("decode"));
            }
            ns(t.elapsed()) / FRAMES as f64
        }),
    );
}

/// One hop through a `sync_channel` between two threads: half the round
/// trip of a ping-pong, the cost a request pays entering a shard queue
/// and its response pays leaving it.
fn channel_hop_time(out: &mut LayerTimes) {
    const TRIPS: u64 = 4_096;
    let (to_worker, from_main) = sync_channel::<u64>(1);
    let (to_main, from_worker) = sync_channel::<u64>(1);
    let hop = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = from_main.recv() {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let hop = median_of(|| {
            let t = Instant::now();
            for i in 0..TRIPS {
                to_worker.send(i).expect("worker alive");
                black_box(from_worker.recv().expect("worker alive"));
            }
            ns(t.elapsed()) / (2 * TRIPS) as f64
        });
        drop(to_worker);
        hop
    });
    out.insert("server.channel_hop_ns", hop);
}

/// Round trip of GET-sized frames through a bare loopback socket pair: a
/// 21-byte request out, a 13-byte header plus one block back. No framing,
/// queues or cache stack — what the serve path cannot go below.
fn loopback_floor(out: &mut LayerTimes) {
    const TRIPS: usize = 4_096;
    const REQ: usize = 21;
    const RESP: usize = 13 + BLOCK_BYTES;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let rtt_us = std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept echo peer");
            peer.set_nodelay(true).expect("nodelay");
            let mut req = [0u8; REQ];
            let resp = [0u8; RESP];
            while peer.read_exact(&mut req).is_ok() {
                if peer.write_all(&resp).is_err() {
                    break;
                }
            }
        });
        let mut sock = TcpStream::connect(addr).expect("connect echo peer");
        sock.set_nodelay(true).expect("nodelay");
        let req = [0u8; REQ];
        let mut resp = [0u8; RESP];
        let mut rtts: Vec<u32> = Vec::with_capacity(TRIPS);
        for _ in 0..TRIPS {
            let t = Instant::now();
            sock.write_all(&req).expect("send");
            sock.read_exact(&mut resp).expect("receive");
            rtts.push(t.elapsed().as_nanos() as u32);
        }
        rtts.sort_unstable();
        f64::from(percentile_sorted(&rtts, 0.50)) / 1e3
    });
    out.insert("server.loopback_rtt_floor_us", rtt_us);
}

/// Runs every isolated driver for one workload's trace.
pub fn measure(spec: &StackSpec, events: &[TraceEvent]) -> LayerTimes {
    let mut out = LayerTimes::new();
    // As many blocks as stay resident: 80% of the data pages, or the whole
    // working set when it is smaller.
    let resident = (spec.wb_config().data_capacity_pages() as usize) * 4 / 5;
    let mut keys = distinct_blocks(events);
    keys.truncate(resident);
    sparsemap_times(&keys, &mut out);
    simkit_times(&mut out);
    flashsim_times(&mut out);
    ftl_times(events, &mut out);
    disksim_times(spec, events, &mut out);
    ssc_times(spec, events, &keys, &mut out);
    wal_and_checkpoint_times(spec, &keys, &mut out);
    router_time(events, &mut out);
    codec_times(&mut out);
    channel_hop_time(&mut out);
    loopback_floor(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_take_wraps() {
        let items = [1, 2, 3];
        let mut cursor = 2;
        assert_eq!(take_cyclic(&items, &mut cursor, 4), vec![3, 1, 2, 3]);
        assert_eq!(cursor, 0);
    }

    #[test]
    fn distinct_keeps_first_touch_order() {
        let events = [
            TraceEvent::read(5),
            TraceEvent::write(3),
            TraceEvent::read(5),
            TraceEvent::read(9),
        ];
        assert_eq!(distinct_blocks(&events), vec![5, 3, 9]);
    }
}
