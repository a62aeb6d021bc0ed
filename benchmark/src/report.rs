//! The metric registry — every name the benchmark prints, with its unit
//! and direction — and the two output formats: `name value unit` lines for
//! people, and the one-line JSON result the driver reads.
//!
//! `BENCHMARK.json` is generated from this registry (`--print-manifest`)
//! and `--self-check` compares the committed file against it, so the
//! manifest and the program cannot name different metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is rejected (unused for layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures for (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 20;

/// The end-to-end metrics: what a user of the simulator or the server
/// sees. The first six are simulated or counted and repeat exactly for a
/// given seed; their bounds cover the seed-to-seed spread of the trace
/// generator. The rest are host measurements. Every bound comes from the
/// noise study in README.md.
pub const END_TO_END: [MetricDef; 11] = [
    e2e("wt_sim_us_per_event", "us", Lower, 0.10),
    e2e("wb_sim_us_per_event", "us", Lower, 0.10),
    e2e("native_sim_us_per_event", "us", Lower, 0.10),
    e2e("wb_write_amp", "ratio", Lower, 0.12),
    e2e("wb_recover_sim_ms", "ms", Lower, 0.25),
    e2e("wb_map_bytes_per_block", "B", Lower, 0.15),
    e2e("wt_ns_per_event", "ns", Lower, 0.25),
    e2e("wb_ns_per_event", "ns", Lower, 0.25),
    e2e("native_ns_per_event", "ns", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// The per-layer metrics, grouped by the crate they attribute to.
pub const PER_LAYER: [MetricDef; 93] = [
    layer("trace.gen_ns_per_event", "ns", Lower),
    layer("sparsemap.get_hit_ns", "ns", Lower),
    layer("sparsemap.get_miss_ns", "ns", Lower),
    layer("sparsemap.insert_ns", "ns", Lower),
    layer("sparsemap.remove_ns", "ns", Lower),
    layer("sparsemap.heap_bytes_per_entry", "B", Lower),
    layer("simkit.crc32_ns_per_kib", "ns", Lower),
    layer("simkit.fill_pseudo_ns_per_page", "ns", Lower),
    layer("flashsim.read_page_ns", "ns", Lower),
    layer("flashsim.program_page_ns", "ns", Lower),
    layer("flashsim.erase_block_ns", "ns", Lower),
    layer("flashsim.wb.page_reads_per_kev", "count", Lower),
    layer("flashsim.wb.page_writes_per_kev", "count", Lower),
    layer("flashsim.wb.erases_per_kev", "count", Lower),
    layer("flashsim.wb.wear_spread", "count", Lower),
    layer("ftl.read_ns", "ns", Lower),
    layer("ftl.write_ns", "ns", Lower),
    layer("ftl.native.gc_copies_per_kev", "count", Lower),
    layer("ftl.native.full_merges_per_kev", "count", Lower),
    layer("ftl.native.switch_merges_per_kev", "count", Higher),
    layer("disksim.read_ns", "ns", Lower),
    layer("disksim.write_ns", "ns", Lower),
    layer("disksim.wb.reads_per_kev", "count", Lower),
    layer("disksim.wb.writes_per_kev", "count", Lower),
    layer("disksim.wb.seq_hit_pct", "%", Higher),
    layer("core.ssc.read_hit_ns", "ns", Lower),
    layer("core.ssc.read_miss_ns", "ns", Lower),
    layer("core.ssc.write_clean_ns", "ns", Lower),
    layer("core.ssc.write_dirty_ns", "ns", Lower),
    layer("core.ssc.evict_ns", "ns", Lower),
    layer("core.ssc.clean_ns", "ns", Lower),
    layer("core.ssc.exists_ns_per_kblock", "ns", Lower),
    layer("core.wal.append_ns", "ns", Lower),
    layer("core.wal.flush_ns_per_record", "ns", Lower),
    layer("core.checkpoint.write_ns_per_kentry", "ns", Lower),
    layer("core.recover.host_ms", "ms", Lower),
    layer("core.wb.silent_evictions_per_kev", "count", Lower),
    layer("core.wb.gc_copies_per_kev", "count", Lower),
    layer("core.wb.full_merges_per_kev", "count", Lower),
    layer("core.wb.switch_merges_per_kev", "count", Higher),
    layer("core.wb.wal_flushes_per_kev", "count", Lower),
    layer("core.wb.wal_pages_per_kev", "count", Lower),
    layer("core.wb.checkpoints", "count", Lower),
    layer("core.wb.checkpoint_pages", "count", Lower),
    layer("core.wt.silent_evictions_per_kev", "count", Lower),
    layer("core.wt.wal_flushes_per_kev", "count", Lower),
    layer("cachemgr.wt.read_ns_mean", "ns", Lower),
    layer("cachemgr.wt.write_ns_mean", "ns", Lower),
    layer("cachemgr.wb.read_ns_mean", "ns", Lower),
    layer("cachemgr.wb.write_ns_mean", "ns", Lower),
    layer("cachemgr.native.read_ns_mean", "ns", Lower),
    layer("cachemgr.native.write_ns_mean", "ns", Lower),
    layer("cachemgr.shard_of_ns", "ns", Lower),
    layer("cachemgr.wt.hit_pct", "%", Higher),
    layer("cachemgr.wb.hit_pct", "%", Higher),
    layer("cachemgr.native.hit_pct", "%", Higher),
    layer("cachemgr.wt.bloom_skips_per_kev", "count", Higher),
    layer("cachemgr.wb.writebacks_per_kev", "count", Lower),
    layer("cachemgr.wb.cleans_per_kev", "count", Lower),
    layer("cachemgr.wb.dirty_blocks_end", "count", Lower),
    layer("cachemgr.native.metadata_writes_per_kev", "count", Lower),
    layer("cachemgr.native.evictions_per_kev", "count", Lower),
    layer("ledger.wt.coverage_pct", "%", Higher),
    layer("ledger.wb.coverage_pct", "%", Higher),
    layer("ledger.native.coverage_pct", "%", Higher),
    layer("server.codec.get_req_ns", "ns", Lower),
    layer("server.codec.put_req_ns", "ns", Lower),
    layer("server.codec.get_resp_ns", "ns", Lower),
    layer("server.channel_hop_ns", "ns", Lower),
    layer("server.loopback_rtt_floor_us", "us", Lower),
    layer("server.rtt1_p50_us", "us", Lower),
    layer("server.apply_ns_per_op", "ns", Lower),
    layer("server.apply_share_pct", "%", Lower),
    layer("server.ops_per_batch", "count", Higher),
    layer("server.busy_rejects", "count", Lower),
    layer("server.shed", "count", Lower),
    layer("server.sat_kops", "kops/s", Higher),
    layer("server.cpu_us_per_op", "us", Lower),
    layer("server.sat_p50_us", "us", Lower),
    layer("server.sat_p99_us", "us", Lower),
    layer("server.open_p50_us", "us", Lower),
    layer("server.open_p99_us", "us", Lower),
    layer("server.open_p999_us", "us", Lower),
    layer("server.open_hi_p50_us", "us", Lower),
    layer("server.open_hi_p99_us", "us", Lower),
    layer("loadgen.open_late_p99_us", "us", Lower),
    layer("replay.wt.iqr_pct", "%", Lower),
    layer("replay.wb.iqr_pct", "%", Lower),
    layer("replay.native.iqr_pct", "%", Lower),
    layer("replay.wt.cpu_ns_per_event", "ns", Lower),
    layer("replay.wb.cpu_ns_per_event", "ns", Lower),
    layer("replay.native.cpu_ns_per_event", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The registered spelling of a layer metric name built at run time
/// (`replay.{system}.iqr_pct`), so per-system figures can be filled by one
/// generic function.
///
/// # Panics
///
/// Panics if no layer metric has that name.
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a registered layer metric"))
        .name
}

/// Values gathered during a run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output was correct and every counter repeated.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values.
    pub values: Values,
}

/// Shortest decimal string that parses back to `v` — every digit as
/// measured, no padding.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders `result` for `defs` as `name value unit` lines followed by the
/// contract's one-line JSON object.
///
/// # Panics
///
/// Panics if a registered metric was not measured: a hole in the table is
/// a bug in the benchmark, not a result.
pub fn render(defs: &[MetricDef], result: &RunResult) -> String {
    let mut out = String::new();
    let mut json = String::new();
    for (i, d) in defs.iter().enumerate() {
        let v = *result
            .values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        writeln!(out, "{} {} {}", d.name, number(v), d.unit).expect("write to string");
        if i > 0 {
            json.push_str(", ");
        }
        write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(v),
            d.unit
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct, result.attempted, result.failed, json
    )
    .expect("write to string");
    out
}

/// `BENCHMARK.json` as this program defines it.
pub fn manifest() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.as_str()
        )
        .expect("write to string");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The registry itself meets the manifest contract's limits.
    #[test]
    fn registry_meets_the_contract() {
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} registered twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() < 64 << 10);
    }

    #[test]
    fn render_ends_with_the_result_object() {
        let defs = [
            e2e("a_ms", "ms", Lower, 0.1),
            e2e("b", "count", Higher, 0.1),
        ];
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            values: Values::from([("a_ms", 1.2034), ("b", 7.0)]),
        };
        let text = render(&defs, &result);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a_ms 1.2034 ms");
        assert_eq!(lines[1], "b 7 count");
        assert_eq!(
            lines[2],
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn render_refuses_a_hole() {
        let result = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            values: Values::new(),
        };
        render(&END_TO_END, &result);
    }
}
