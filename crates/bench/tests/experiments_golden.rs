//! Every table, figure and ablation, pinned: `experiments all --scale 20`
//! must print `tests/golden/experiments_scale20.txt` byte for byte.
//!
//! Every number the runners print derives from simulated time and
//! counters, so the output is the same in debug and release and on every
//! host. A change to the device model, the workload generator or a printer
//! shows up here as a line diff; if the change is deliberate, regenerate
//! the file with the command the failure prints and review the diff like
//! any other re-baseline (`BENCH_replay.json` plays the same role for
//! `perf_replay`'s `sim_time_us`).

use std::process::Command;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const GOLDEN: &str = "tests/golden/experiments_scale20.txt";

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(EXPERIMENTS)
        .args(args)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "experiments {args:?} failed with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn all_at_scale_20_matches_the_golden_file() {
    let path = format!("{}/{GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).expect("read golden file");
    let got = stdout_of(&["all", "--scale", "20"]);
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let mut diff = String::new();
    for i in 0..got_lines.len().max(want_lines.len()) {
        let (g, w) = (got_lines.get(i), want_lines.get(i));
        if g != w {
            diff.push_str(&format!(
                "line {}:\n  - {}\n  + {}\n",
                i + 1,
                w.unwrap_or(&"<end of golden file>"),
                g.unwrap_or(&"<end of output>")
            ));
        }
    }
    panic!(
        "`experiments all --scale 20` differs from crates/bench/{GOLDEN} \
         (- golden, + printed):\n{diff}\nIf the change is deliberate, regenerate with:\n  \
         cargo run --release -p flashtier-bench --bin experiments -- all --scale 20 \
         > crates/bench/{GOLDEN}"
    );
}

#[test]
fn ablate_ftl_runs_both_ftls_on_the_smallest_devices() {
    // Past `--scale 20` or so the unfloored device has a single
    // over-provisioned block, on which the page-mapped FTL ran out of space.
    for scale in ["50", "100"] {
        let out = stdout_of(&["ablate_ftl", "--scale", scale]);
        assert!(out.contains("hybrid (FAST)") && out.contains("page-mapped"));
    }
}
