//! Wall-clock replay-throughput gate: replays a deterministic Zipf workload
//! through the cache systems in `Discard` mode and prints one JSON line
//! with events/sec, wall-clock seconds, event count and mode per system.
//!
//! This measures *host* CPU cost of the simulator itself (the quantity the
//! control-path indexes and the allocation-free data path optimize), not
//! simulated device time. The systems replay concurrently on scoped
//! threads — each gets its own device stack and the trace is shared
//! read-only — so on a multi-core host the run is bounded by the slowest
//! system, not the sum. The aggregate rate divides total events by the
//! wall time of the whole concurrent region. Per-system `sim_time_us` is
//! seed-deterministic and independent of scheduling.
//!
//! Flags:
//! * `--events N` — workload size (default 1,000,000)
//! * `--seed S` — workload PRNG seed (default the committed gate seed;
//!   changing it changes `sim_time_us`)
//! * `--systems a,b,...` — comma-separated subset of
//!   `flashtier_wt,flashtier_wb,native_wb` (default all three)
//! * `--faults PPM` — enable deterministic media-fault injection at a base
//!   rate of PPM parts-per-million; each system's JSON gains a `faults`
//!   object (injected/degradation counters). With the flag absent the
//!   output is byte-identical to a faults-free build.
//! * `--shards N` — partition the FlashTier systems into N hash-routed SSC
//!   shards replaying in parallel; the JSON gains a top-level `shards` key
//!   and per-system `shard_events` arrays. `sim_time_us` becomes the
//!   max-merged per-shard time (still seed-deterministic at every N); the
//!   native baseline ignores the flag, so a `--systems` list with no
//!   FlashTier system combined with `--shards` is a usage error (exit 2).
//!   With the flag absent the output is byte-identical to a shard-free
//!   build.
//!
//! Per-layer attribution of a replay is the ledger's job:
//! `bash benchmark/run.sh --workload <w> --trace 1`.
//!
//! All flags are validated strictly: unknown flags, unparsable values and
//! invalid combinations exit 2 with a message instead of silently
//! measuring something else.

use std::time::Instant;

use flashtier_bench::cli::{parse_or_exit, usage_error};
use flashtier_bench::replay::{
    run_system, run_system_sharded, ReplaySetup, ReplaySystem, SystemResult,
};

const FLAGS: &[&str] = &["--events", "--seed", "--systems", "--faults", "--shards"];

/// Events replayed on a throwaway system before the measured region.
const WARMUP_EVENTS: u64 = 50_000;

fn main() {
    let args = parse_or_exit(FLAGS);
    let events: u64 = args
        .get_or("--events", 1_000_000)
        .unwrap_or_else(|e| usage_error(&e));
    let mut setup = ReplaySetup::perf(events);
    if let Some(seed) = args
        .get_parsed("--seed")
        .unwrap_or_else(|e| usage_error(&e))
    {
        setup = setup.with_seed(seed);
    }
    if let Some(ppm) = args
        .get_parsed("--faults")
        .unwrap_or_else(|e| usage_error(&e))
    {
        setup = setup.with_faults(ppm);
    }
    let shards: Option<usize> = args
        .get_parsed("--shards")
        .unwrap_or_else(|e| usage_error(&e));
    if shards == Some(0) {
        usage_error("--shards must be at least 1");
    }
    let systems: Vec<ReplaySystem> = match args.get("--systems") {
        Some(list) => list
            .split(',')
            .map(|s| {
                ReplaySystem::parse(s.trim()).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown system {s:?}; valid: flashtier_wt,flashtier_wb,native_wb"
                    ));
                })
            })
            .collect(),
        None => ReplaySystem::ALL.to_vec(),
    };
    let shardable =
        |k: &ReplaySystem| matches!(k, ReplaySystem::FlashtierWt | ReplaySystem::FlashtierWb);
    if shards.is_some() && !systems.iter().any(shardable) {
        usage_error(
            "--shards requires at least one shardable system \
             (flashtier_wt, flashtier_wb) in --systems; the native baseline \
             has no partitioned build",
        );
    }

    let t = setup.workload();

    // Untimed warmup: replay a short prefix on a throwaway system before
    // the measured region. The first replay of the process otherwise pays
    // a one-off cold penalty (page faults, allocator growth, branch and
    // i-cache training) that lands entirely on whichever system happens to
    // run first and skews its — and the aggregate's — numbers.
    {
        let warm_setup = ReplaySetup::perf(WARMUP_EVENTS);
        let mut warm = warm_setup.flashtier_wt();
        let prefix = &t.events[..t.events.len().min(WARMUP_EVENTS as usize)];
        let _ = cachemgr::replay(&mut warm, prefix);
    }

    // The systems replay on a worker pool sized to the host: one worker
    // per core up to one per system. Oversubscribing a small host (three
    // replay threads time-slicing one core) adds context-switch and
    // cache-thrash overhead without any parallelism in return, so the
    // pool runs the systems sequentially there; on a wide host every
    // system still gets its own core and the region is bounded by the
    // slowest system. Results are indexed so the reporting order stays
    // the requested order regardless of completion order.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(systems.len().max(1));
    let region_start = Instant::now();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<SystemResult>> = Vec::new();
    results.resize_with(systems.len(), || None);
    let slots: Vec<std::sync::Mutex<&mut Option<SystemResult>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let setup = &setup;
            let t = &t;
            let systems = &systems;
            let next = &next;
            let slots = &slots;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&kind) = systems.get(i) else { break };
                let r = match shards {
                    Some(n) => run_system_sharded(kind, setup, t, n),
                    None => run_system(kind, setup, t),
                };
                **slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    drop(slots);
    let results: Vec<SystemResult> = results
        .into_iter()
        .map(|r| r.expect("system result"))
        .collect();
    let region_wall = region_start.elapsed().as_secs_f64();

    let total_events: u64 = results.iter().map(|r| r.events).sum();
    let aggregate = total_events as f64 / region_wall;

    // One JSON line, hand-assembled (the repo builds offline).
    let mut json = format!(
        "{{\"bench\":\"perf_replay\",\"workload\":\"zipf\",\"theta\":0.99,\
         \"events\":{events},\"seed\":{},\"mode\":\"discard\",\"systems\":{{",
        setup.seed
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{}\":{{\"events\":{},\"mode\":\"discard\",\"wall_s\":{:.4},\
             \"events_per_sec\":{:.0},\"sim_time_us\":{}",
            r.name, r.events, r.wall_s, r.events_per_sec, r.sim_time_us
        ));
        if let Some(se) = &r.shard_events {
            let list: Vec<String> = se.iter().map(|e| e.to_string()).collect();
            json.push_str(&format!(",\"shard_events\":[{}]", list.join(",")));
        }
        if let Some(f) = &r.faults {
            json.push_str(&f.json_member());
        }
        json.push('}');
    }
    let shards_field = match shards {
        Some(n) => format!(",\"shards\":{n}"),
        None => String::new(),
    };
    json.push_str(&format!(
        "}}{shards_field},\"total_wall_s\":{region_wall:.4},\"aggregate_events_per_sec\":{aggregate:.0}}}"
    ));
    println!("{json}");
}
