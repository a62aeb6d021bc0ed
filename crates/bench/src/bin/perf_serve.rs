//! Server latency/throughput gate: starts the cache server in-process
//! over share-nothing shard stacks, drives it over loopback TCP with an
//! open-loop (fixed arrival rate) or closed-loop (saturation) Zipf client
//! fleet, and prints one JSON line with throughput, exact latency
//! percentiles (p50/p90/p99/p999/max/mean) and error counts.
//!
//! Flags (all validated strictly — unknown flags and unparsable values
//! exit 2):
//! * `--ops N` — operations to offer (default 200,000)
//! * `--conns C` — client connections (default 4)
//! * `--rate R` — total offered ops/sec across connections; `0` (the
//!   default) selects closed-loop saturation mode
//! * `--duration S` — wall-clock cap in seconds (default 0 = whole
//!   stream)
//! * `--shards N` — server shard/worker count (default 4)
//! * `--window W` — outstanding requests per connection in closed-loop
//!   mode (default 32)
//! * `--mode wt|wb` — manager behind the server (default `wt`)
//! * `--seed S` — workload PRNG seed (default the committed gate seed)
//! * `--faults PPM` — deterministic media-fault injection; adds a
//!   `faults` object to the JSON
//! * `--net-faults PPM` — deterministic *network*-fault torture mode:
//!   retrying clients, seeded resets/partial writes/stalls/delays on both
//!   sides of the wire, and shadow-model verification of every acked
//!   write after crash + recovery; adds a `net_faults` object to the
//!   JSON (CI gates on `lost_acked_writes == 0`). `0` (the default) is
//!   the clean path and leaves the output format unchanged.
//!
//! Latency in open-loop mode is completion − *scheduled* arrival
//! (coordinated-omission-free); in closed-loop mode it is round-trip from
//! send. The workload and arrival schedule are seed-deterministic; wall
//! times and latencies are host measurements.

use flashtier_bench::cli::{parse_or_exit, usage_error};
use flashtier_bench::replay::ReplaySetup;
use flashtier_bench::serve::{run_serve, ServeMode, ServeSpec};

const FLAGS: &[&str] = &[
    "--ops",
    "--conns",
    "--rate",
    "--duration",
    "--shards",
    "--window",
    "--mode",
    "--seed",
    "--faults",
    "--net-faults",
];

fn main() {
    let args = parse_or_exit(FLAGS);
    let ops: u64 = args
        .get_or("--ops", 200_000)
        .unwrap_or_else(|e| usage_error(&e));
    let conns: usize = args
        .get_or("--conns", 4)
        .unwrap_or_else(|e| usage_error(&e));
    let rate: f64 = args
        .get_or("--rate", 0.0)
        .unwrap_or_else(|e| usage_error(&e));
    let duration_s: f64 = args
        .get_or("--duration", 0.0)
        .unwrap_or_else(|e| usage_error(&e));
    let shards: usize = args
        .get_or("--shards", 4)
        .unwrap_or_else(|e| usage_error(&e));
    let window: usize = args
        .get_or("--window", 32)
        .unwrap_or_else(|e| usage_error(&e));
    let mode = match args.get("--mode") {
        None => ServeMode::Wt,
        Some(raw) => ServeMode::parse(raw)
            .unwrap_or_else(|| usage_error(&format!("invalid --mode {raw:?}; valid: wt, wb"))),
    };
    if ops == 0 {
        usage_error("--ops must be at least 1");
    }
    if conns == 0 {
        usage_error("--conns must be at least 1");
    }
    if shards == 0 {
        usage_error("--shards must be at least 1");
    }
    if window == 0 {
        usage_error("--window must be at least 1");
    }
    if !rate.is_finite() || rate < 0.0 {
        usage_error("--rate must be a non-negative number (0 = closed loop)");
    }
    if !duration_s.is_finite() || duration_s < 0.0 {
        usage_error("--duration must be a non-negative number of seconds");
    }

    let mut replay = ReplaySetup::perf(ops);
    if let Some(seed) = args
        .get_parsed("--seed")
        .unwrap_or_else(|e| usage_error(&e))
    {
        replay = replay.with_seed(seed);
    }
    if let Some(ppm) = args
        .get_parsed("--faults")
        .unwrap_or_else(|e| usage_error(&e))
    {
        replay = replay.with_faults(ppm);
    }
    let net_fault_ppm: u32 = args
        .get_or("--net-faults", 0)
        .unwrap_or_else(|e| usage_error(&e));
    if net_fault_ppm > 1_000_000 {
        usage_error("--net-faults is parts-per-million; at most 1000000");
    }
    let spec = ServeSpec {
        replay,
        conns,
        rate,
        duration_s,
        shards,
        mode,
        window,
        net_fault_ppm,
    };
    let out = run_serve(&spec);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One JSON line, hand-assembled (the repo builds offline).
    let mut json = format!(
        "{{\"bench\":\"perf_serve\",\"workload\":\"zipf\",\"theta\":0.99,\
         \"ops\":{ops},\"seed\":{},\"mode\":\"{}\",\"conns\":{conns},\
         \"rate\":{rate},\"shards\":{shards},\"window\":{window},\
         \"host_cores\":{host_cores},\"completed\":{},\"gets\":{},\
         \"puts\":{},\"wall_s\":{:.4},\"throughput_ops_per_sec\":{:.0},\
         \"latency_us\":{{\"samples\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
         \"p999\":{},\"max\":{},\"mean\":{:.1}}},\
         \"errors\":{{\"op_errors\":{},\"protocol_errors\":{}}},\
         \"server\":{{\"connections\":{},\"requests\":{},\"batches\":{},\
         \"batched_ops\":{},\"sim_time_us\":{}}}",
        spec.replay.seed,
        mode.name(),
        out.ops,
        out.gets,
        out.puts,
        out.wall_s,
        out.throughput,
        out.latency.samples,
        out.latency.p50_us,
        out.latency.p90_us,
        out.latency.p99_us,
        out.latency.p999_us,
        out.latency.max_us,
        out.latency.mean_us,
        out.op_errors,
        out.server.protocol_errors,
        out.server.connections,
        out.server.requests,
        out.server.batches,
        out.server.batched_ops,
        out.server.sim_time_us,
    );
    if let Some(f) = &out.faults {
        json.push_str(&f.json_member());
    }
    if let Some(n) = &out.net {
        json.push_str(&format!(
            ",\"net_faults\":{{\"ppm\":{},\"server_injected\":{},\
             \"client_injected\":{},\"connects\":{},\"retries\":{},\
             \"busy_retries\":{},\"deadline_failures\":{},\
             \"failed_calls\":{},\"max_call_us\":{},\
             \"busy_rejects\":{},\"shed_expired\":{},\"deduped_puts\":{},\
             \"idle_evictions\":{},\"shards_quarantined\":{},\
             \"acked_writes_checked\":{},\"lost_acked_writes\":{}}}",
            n.ppm,
            out.server.net_faults_injected,
            n.client_injected,
            n.connects,
            n.retries,
            n.busy_retries,
            n.deadline_failures,
            n.failed_calls,
            n.max_call_us,
            out.server.busy_rejects,
            out.server.shed_expired,
            out.server.deduped_puts,
            out.server.idle_evictions,
            out.server.shards_quarantined,
            n.acked_writes_checked,
            n.lost_acked_writes
        ));
    }
    json.push('}');
    println!("{json}");
}
