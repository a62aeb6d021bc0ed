//! The gate binaries must fail loudly (exit 2, message on stderr) on
//! invalid flags or flag combinations — a CI pipeline that typos a flag
//! must not silently measure the wrong thing.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn gate binary")
}

fn assert_usage_error(out: &Output, needle: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "stderr missing {needle:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "a usage error must not print a result line"
    );
}

const REPLAY: &str = env!("CARGO_BIN_EXE_perf_replay");
const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

#[test]
fn replay_rejects_unknown_flag() {
    assert_usage_error(&run(REPLAY, &["--event", "10"]), "unknown argument");
}

#[test]
fn replay_rejects_the_removed_batch_flag() {
    // There is one replay path; `--batch` must not be silently ignored.
    assert_usage_error(
        &run(REPLAY, &["--batch", "1024", "--events", "10"]),
        "unknown argument",
    );
}

#[test]
fn replay_rejects_the_removed_profile_flag() {
    // Per-layer attribution is the ledger's `--trace 1`; the four
    // wall-clock folds `--profile` wrote must not be silently skipped.
    assert_usage_error(
        &run(REPLAY, &["--profile", "out.folded", "--events", "10"]),
        "unknown argument",
    );
}

#[test]
fn replay_rejects_unparsable_value() {
    // The old parser silently fell back to the default event count here.
    assert_usage_error(
        &run(REPLAY, &["--events", "many"]),
        "invalid value for --events",
    );
}

#[test]
fn replay_rejects_missing_value() {
    assert_usage_error(&run(REPLAY, &["--events"]), "requires a value");
}

#[test]
fn replay_rejects_zero_shards() {
    assert_usage_error(
        &run(REPLAY, &["--shards", "0", "--events", "10"]),
        "--shards must be at least 1",
    );
}

#[test]
fn replay_rejects_shards_with_no_shardable_system() {
    // The native baseline has no partitioned build; the old parser
    // silently fell back to unsharded runs.
    assert_usage_error(
        &run(
            REPLAY,
            &["--shards", "4", "--systems", "native_wb", "--events", "10"],
        ),
        "--shards requires at least one shardable system",
    );
}

#[test]
fn replay_rejects_unknown_system() {
    assert_usage_error(
        &run(REPLAY, &["--systems", "flashtier_wt,bogus"]),
        "unknown system",
    );
}

#[test]
fn replay_accepts_valid_sharded_run() {
    let out = run(
        REPLAY,
        &[
            "--events",
            "200",
            "--shards",
            "2",
            "--systems",
            "flashtier_wt",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"shards\":2"), "{stdout}");
    assert!(stdout.contains("\"shard_events\":["), "{stdout}");
}

#[test]
fn experiments_rejects_missing_and_unknown_names() {
    assert_usage_error(&run(EXPERIMENTS, &[]), "usage: experiments");
    assert_usage_error(&run(EXPERIMENTS, &["fig7_gc"]), "unknown experiment");
    // The name comes first; a flag in its place is not a default run.
    assert_usage_error(&run(EXPERIMENTS, &["--scale", "20"]), "unknown experiment");
}

#[test]
fn experiments_rejects_unknown_flag_and_missing_value() {
    // The old per-runner parser turned both into a silent default run.
    assert_usage_error(
        &run(EXPERIMENTS, &["table2_params", "--scal", "20"]),
        "unknown argument",
    );
    assert_usage_error(
        &run(EXPERIMENTS, &["table2_params", "--scale"]),
        "requires a value",
    );
}

#[test]
fn experiments_rejects_a_scale_that_is_not_finite_and_positive() {
    assert_usage_error(
        &run(EXPERIMENTS, &["table2_params", "--scale", "abc"]),
        "invalid value for --scale",
    );
    // `0`, a negative and `nan` used to clamp to a full paper-scale run.
    for bad in ["0", "-3", "nan", "inf"] {
        assert_usage_error(
            &run(EXPERIMENTS, &["all", "--scale", bad]),
            "--scale must be a finite number greater than 0",
        );
    }
}

#[test]
fn experiments_ablate_mapping_honours_scale() {
    let out = run(EXPERIMENTS, &["ablate_mapping", "--scale", "1024"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // 2^22 / 1024 = a 4,096-block span: the 100% row holds all of it.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let full = stdout.lines().find(|l| l.trim_start().starts_with("100%"));
    let entries = full.and_then(|l| l.split_whitespace().nth(1));
    assert_eq!(entries, Some("4096"), "{stdout}");
}
