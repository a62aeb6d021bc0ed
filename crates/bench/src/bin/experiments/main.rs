//! `experiments <name>|all [--scale f]` — every table, figure and ablation
//! of the evaluation (§6) from one binary.
//!
//! `<name>` is one of [`RUNNERS`]; `all` runs them in that order, each
//! under an `=== name ===` banner — the one-shot regeneration of the
//! paper's evaluation section that `bench_results.txt` records and
//! `tests/experiments_golden.rs` pins at `--scale 20`. `--scale` multiplies
//! every workload's default shrink factor (values below `1.0` grow the
//! experiment toward paper scale) and must be finite and positive. Usage
//! errors exit 2 with a message and print nothing on stdout.

mod ablations;
mod paper;

use flashtier_bench::cli::{usage_error, CliArgs};
use flashtier_bench::tablefmt::render;

/// A runner's name and its entry point, which takes the `--scale` value.
type Runner = (&'static str, fn(f64));

/// Every runner, in the order `all` executes them: the paper's tables and
/// figures, then the ablations.
const RUNNERS: &[Runner] = &[
    ("table2_params", paper::table2_params),
    ("table3_workloads", paper::table3_workloads),
    ("fig1_density", paper::fig1_density),
    ("fig3_performance", paper::fig3_performance),
    ("table4_memory", paper::table4_memory),
    ("fig4_consistency", paper::fig4_consistency),
    ("fig5_recovery", paper::fig5_recovery),
    ("fig6_gc", paper::fig6_gc),
    ("table5_wear", paper::table5_wear),
    ("ablate_logreserve", ablations::ablate_logreserve),
    ("ablate_eviction", ablations::ablate_eviction),
    ("ablate_ftl", ablations::ablate_ftl),
    ("ablate_commit", ablations::ablate_commit),
    ("ablate_checkpoint", ablations::ablate_checkpoint),
    ("ablate_mapping", ablations::ablate_mapping),
];

/// Prints `rows` under `header` as an aligned table and a blank line.
fn print_table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    println!("{}", render(header, &rows));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = RUNNERS.iter().map(|(name, _)| *name).collect();
    let usage = format!(
        "usage: experiments <name>|all [--scale f]; names: {}",
        names.join(", ")
    );
    let Some((name, flags)) = argv.split_first() else {
        usage_error(&usage);
    };
    let selected: Vec<&Runner> = RUNNERS
        .iter()
        .filter(|(n, _)| name == "all" || name == n)
        .collect();
    if selected.is_empty() {
        usage_error(&format!("unknown experiment {name:?}; {usage}"));
    }
    let args = CliArgs::parse(flags, &["--scale"]).unwrap_or_else(|e| usage_error(&e));
    let scale: f64 = args
        .get_or("--scale", 1.0)
        .unwrap_or_else(|e| usage_error(&e));
    if !(scale.is_finite() && scale > 0.0) {
        usage_error("--scale must be a finite number greater than 0");
    }
    for (runner, run) in selected {
        if name == "all" {
            println!("\n{}\n=== {runner} ===\n", "=".repeat(72));
        }
        run(scale);
    }
    if name == "all" {
        println!("\nAll experiments completed.");
    }
}
