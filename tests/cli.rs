//! The `flashtier` command line, driven as a subprocess: unknown flags, bad
//! flag values and missing inputs must fail loudly (non-zero exit, message
//! naming the culprit) instead of silently running with a default, and the
//! documented `gen-trace → stats → replay` session must work end to end.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use flashtier::cachemgr::{replay, CacheSystem, NativeConsistency, NativeMode, StackSpec};
use flashtier::ssc::ConsistencyMode;
use flashtier::trace::Trace;

fn flashtier(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flashtier"))
        .args(args)
        .output()
        .expect("spawn flashtier")
}

/// A scratch path private to one test (tests run in parallel).
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}.jsonl"))
}

fn gen_mail(path: &Path) {
    let path = path.to_str().unwrap();
    let out = flashtier(&["gen-trace", "mail", "--scale", "500", "--out", path]);
    assert!(out.status.success(), "{}", stderr(&out));
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_fails_naming(out: &Output, needle: &str) {
    assert!(!out.status.success(), "must exit non-zero");
    let err = stderr(out);
    assert!(
        err.contains(needle),
        "stderr must name {needle:?}, got: {err}"
    );
}

#[test]
fn gen_trace_rejects_unparsable_scale() {
    let path = scratch("bad-scale");
    let _ = std::fs::remove_file(&path);
    let out = flashtier(&[
        "gen-trace",
        "mail",
        "--scale",
        "abc",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_fails_naming(&out, "--scale");
    assert!(!path.exists(), "no trace may be written at a default scale");
}

#[test]
fn gen_trace_rejects_out_of_range_scale() {
    let path = scratch("range-scale");
    let _ = std::fs::remove_file(&path);
    // Below 1 the divisor asks for a trace larger than the paper's; at
    // 1e-12 one whose allocation aborted the process.
    for value in ["0", "-1", "NaN", "inf", "-inf", "1e-12", "0.5"] {
        let out = flashtier(&[
            "gen-trace",
            "homes",
            "--scale",
            value,
            "--out",
            path.to_str().unwrap(),
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "--scale {value}: {err}");
        assert!(err.contains("--scale"), "--scale {value}: {err}");
        assert!(!err.contains("panicked"), "--scale {value}: {err}");
        assert!(out.stdout.is_empty(), "--scale {value} printed to stdout");
        assert!(!path.exists(), "--scale {value} wrote a trace");
    }
}

#[test]
fn replay_rejects_unparsable_cache_mb_and_warmup() {
    let path = scratch("bad-cache-mb");
    gen_mail(&path);
    let trace = path.to_str().unwrap();
    for (flag, value) in [("--cache-mb", "lots"), ("--warmup", "half")] {
        let out = flashtier(&["replay", trace, "--system", "flashtier-wt", flag, value]);
        assert_fails_naming(&out, flag);
    }
    // A trailing flag with no value is the same mistake.
    let out = flashtier(&["replay", trace, "--system", "flashtier-wt", "--cache-mb"]);
    assert_fails_naming(&out, "--cache-mb");
}

#[test]
fn replay_rejects_out_of_range_cache_mb_and_warmup() {
    let path = scratch("range-cache-mb");
    gen_mail(&path);
    let trace = path.to_str().unwrap();
    for (flag, value) in [
        ("--warmup", "2"),
        ("--warmup", "1"),
        ("--warmup", "-1"),
        ("--warmup", "nan"),
        ("--warmup", "inf"),
        ("--cache-mb", "0"),
        // More blocks than the trace spans, then more than a u64 holds.
        ("--cache-mb", "99999999999999"),
        ("--cache-mb", "72057594037927936"),
    ] {
        let out = flashtier(&["replay", trace, "--system", "native-wb", flag, value]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(flag),
            "{flag} {value}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{flag} {value} printed a report");
    }
    // The edges that are in range still run.
    let out = flashtier(&[
        "replay",
        trace,
        "--system",
        "flashtier-wt",
        "--warmup",
        "0",
        "--cache-mb",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn replay_of_a_missing_trace_fails() {
    let path = scratch("does-not-exist");
    let _ = std::fs::remove_file(&path);
    let out = flashtier(&["replay", path.to_str().unwrap(), "--system", "flashtier-wb"]);
    assert_fails_naming(&out, "cannot open");
}

/// The simulated time of `system` replaying `trace` in process over the
/// evaluation's stacks for a `cache_mb` cache, with the CLI's defaults: a
/// 15% warm-up split and full consistency.
fn in_process_sim_time(trace: &Trace, system: &str, cache_mb: u64) -> String {
    let stack = StackSpec::for_cache(cache_mb * 256, trace.range_blocks);
    let full = ConsistencyMode::CleanAndDirty;
    let mut s: Box<dyn CacheSystem> = match system {
        "flashtier-wt" => Box::new(stack.wt(false, full)),
        "flashtier-wb" => Box::new(stack.wb(false, full)),
        "native-wt" => Box::new(stack.native(NativeMode::WriteThrough, NativeConsistency::None)),
        "native-wb" => Box::new(stack.native(NativeMode::WriteBack, NativeConsistency::Durable)),
        other => panic!("unknown system {other}"),
    };
    replay(s.as_mut(), trace.prefix(0.15)).unwrap();
    let measured = replay(s.as_mut(), trace.suffix(0.15)).unwrap();
    measured.sim_time.to_string()
}

#[test]
fn gen_trace_stats_replay_round_trip() {
    let path = scratch("round-trip");
    gen_mail(&path);
    let trace = path.to_str().unwrap();

    let out = flashtier(&["stats", trace]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stats = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stats.contains("unique blocks:"), "{stats}");
    assert!(stats.contains("write fraction:"), "{stats}");

    let parsed = Trace::from_jsonl(BufReader::new(File::open(&path).unwrap())).unwrap();
    for system in ["flashtier-wt", "flashtier-wb", "native-wt", "native-wb"] {
        let out = flashtier(&["replay", trace, "--system", system, "--cache-mb", "16"]);
        assert!(out.status.success(), "{system}: {}", stderr(&out));
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            report.contains(&format!("system:          {system}")),
            "{report}"
        );
        let ops: u64 = report
            .lines()
            .find_map(|l| l.strip_prefix("ops replayed:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{system}: no ops line in {report}"));
        assert!(ops > 0, "{system}: replayed nothing");
        let sim_time = report
            .lines()
            .find_map(|l| l.strip_prefix("simulated time:"))
            .unwrap_or_else(|| panic!("{system}: no simulated time in {report}"));
        assert_eq!(
            sim_time.trim(),
            in_process_sim_time(&parsed, system, 16),
            "{system}: the CLI must replay the evaluation's stack"
        );
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    let path = scratch("unknown-flag");
    gen_mail(&path);
    let trace = path.to_str().unwrap();
    let written = scratch("unknown-flag-out");
    let _ = std::fs::remove_file(&written);
    let out = written.to_str().unwrap();
    let cases: [(&str, &[&str]); 4] = [
        (
            "--cache_mb",
            &[
                "replay",
                trace,
                "--system",
                "flashtier-wb",
                "--cache_mb",
                "64",
            ],
        ),
        (
            "--seed",
            &["gen-trace", "mail", "--seed", "3", "--out", out],
        ),
        (
            "--max_events",
            &["import-msr", trace, "--out", out, "--max_events", "10"],
        ),
        ("--verbose", &["stats", trace, "--verbose"]),
    ];
    for (flag, args) in cases {
        let result = flashtier(args);
        let err = stderr(&result);
        assert_eq!(result.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(result.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(!written.exists(), "{args:?} wrote a file");
    }
}

#[test]
fn replay_refuses_ssc_r_for_native_systems_and_takes_every_known_flag() {
    let path = scratch("ssc-r");
    gen_mail(&path);
    let trace = path.to_str().unwrap();
    let refused: [(&str, &[&str]); 3] = [
        ("--ssc-r", &["--system", "native-wt", "--ssc-r"]),
        ("--ssc-r", &["--system", "native-wb", "--ssc-r"]),
        (
            "--consistency",
            &["--system", "native-wt", "--consistency", "full"],
        ),
    ];
    for (flag, rest) in refused {
        let out = flashtier(&[&["replay", trace], rest].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{rest:?}: {err}");
        assert!(err.contains(flag), "{rest:?}: {err}");
        assert!(out.stdout.is_empty(), "{rest:?} printed a report");
    }
    let out = flashtier(&[
        "replay",
        trace,
        "--ssc-r",
        "--system",
        "flashtier-wb",
        "--consistency",
        "dirty",
        "--warmup",
        "0.1",
        "--cache-mb",
        "16",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}
