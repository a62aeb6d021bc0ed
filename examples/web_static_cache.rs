//! A read-heavy scenario: flash-caching a web/file server's static content.
//!
//! Builds the full FlashTier stack — SSC + disk + write-through cache
//! manager — and serves a Zipf-skewed read workload over a large cold
//! volume, the §3.1 use case where "there is little benefit to caching
//! writes" and the cache "is not considered reliable" end-to-end.
//!
//! Prints the throughput and latency improvement over running bare disk.
//!
//! Run with: `cargo run --release --example web_static_cache`

use flashtier::cachemgr::{CacheSystem, StackSpec};
use flashtier::flashsim::FlashConfig;
use flashtier::simkit::{Duration, SimRng};
use flashtier::ssc::ConsistencyMode;
use flashtier::trace::ZipfSampler;

/// 1 GB volume of static objects, 4 KB blocks.
const VOLUME_BLOCKS: u64 = (1 << 30) / 4096;
/// 128 MB flash cache.
const CACHE_BYTES: u64 = 128 << 20;
/// Requests replayed untimed to warm the cache, then timed.
const WARMUP: u64 = 150_000;
const REQUESTS: u64 = 150_000;

fn zipf_requests(n: u64) -> Vec<u64> {
    // Objects are 64-block (256 KB) files; random-access requests (thumb-
    // nails, range GETs, index lookups) hit files with Zipf popularity.
    let files = VOLUME_BLOCKS / 64;
    let zipf = ZipfSampler::new(files, 0.99);
    let mut rng = SimRng::seed_from(2024);
    (0..n)
        .map(|_| {
            let file = flashtier::trace::zipf::scramble(zipf.sample(&mut rng)) % files;
            file * 64 + rng.gen_range(64)
        })
        .collect()
}

fn main() {
    let all = zipf_requests(WARMUP + REQUESTS);
    let (warm, requests) = all.split_at(WARMUP as usize);
    let stack = StackSpec::new(FlashConfig::with_capacity_bytes(CACHE_BYTES), VOLUME_BLOCKS);

    // Baseline: every read goes to the disk.
    let mut bare_disk = stack.disk();
    let mut bare_time = Duration::ZERO;
    for &lba in requests {
        bare_time += bare_disk.read(lba).unwrap().1;
    }

    // FlashTier write-through: SSC in front of the same disk; warm it with
    // the first half of the request stream, then measure.
    let mut cached = stack.wt(false, ConsistencyMode::CleanAndDirty);
    for &lba in warm {
        cached.read(lba).unwrap();
    }
    let mut cached_time = Duration::ZERO;
    for &lba in requests {
        cached_time += cached.read(lba).unwrap().1;
    }

    let bare_iops = REQUESTS as f64 / bare_time.as_secs_f64();
    let cached_iops = REQUESTS as f64 / cached_time.as_secs_f64();
    let counters = cached.counters();
    println!("web static-content cache: {REQUESTS} requests over a 1 GB volume");
    println!("  bare disk:  {bare_iops:8.0} IOPS  ({bare_time} total)");
    println!("  flashtier:  {cached_iops:8.0} IOPS  ({cached_time} total)");
    println!("  speedup:    {:.1}x", cached_iops / bare_iops);
    println!(
        "  hit rate:   {:.1}% ({} hits / {} misses)",
        100.0 * counters.hit_rate(),
        counters.read_hits,
        counters.read_misses
    );
    println!(
        "  host metadata: {} bytes (write-through needs none)",
        cached.host_memory().modeled_bytes
    );
    assert!(
        cached_iops > bare_iops * 1.5,
        "the cache should help substantially"
    );
}
