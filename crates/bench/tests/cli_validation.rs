//! The `experiments` binary must fail loudly (exit 2, message on stderr)
//! on invalid names, flags or values — a CI pipeline that typos a flag
//! must not silently print the wrong run.

use std::process::{Command, Output};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

fn run(args: &[&str]) -> Output {
    Command::new(EXPERIMENTS)
        .args(args)
        .output()
        .expect("spawn experiments")
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

#[test]
fn experiments_rejects_missing_and_unknown_names() {
    assert_usage_error(&run(&[]), "usage: experiments");
    assert_usage_error(&run(&["fig7_gc"]), "unknown experiment");
    // The name comes first; a flag in its place is not a default run.
    assert_usage_error(&run(&["--scale", "20"]), "unknown experiment");
}

#[test]
fn experiments_rejects_unknown_flag_and_missing_value() {
    // The old per-runner parser turned both into a silent default run.
    assert_usage_error(&run(&["table2_params", "--scal", "20"]), "unknown argument");
    assert_usage_error(&run(&["table2_params", "--scale"]), "requires a value");
}

#[test]
fn experiments_rejects_a_scale_that_is_not_finite_and_positive() {
    assert_usage_error(
        &run(&["table2_params", "--scale", "abc"]),
        "invalid value for --scale",
    );
    // `0`, a negative and `nan` used to clamp to a full paper-scale run.
    for bad in ["0", "-3", "nan", "inf"] {
        assert_usage_error(
            &run(&["all", "--scale", bad]),
            "--scale must be a finite number greater than 0",
        );
    }
}

#[test]
fn experiments_ablate_mapping_honours_scale() {
    let out = run(&["ablate_mapping", "--scale", "1024"]);
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

#[test]
fn experiments_ablate_mapping_prints_finite_ratios_at_any_scale() {
    // An unclamped span leaves every row empty, and 0/0 prints `NaNx`.
    let out = run(&["ablate_mapping", "--scale", "1e9"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("NaN") && !stdout.contains("inf"),
        "{stdout}"
    );
}
