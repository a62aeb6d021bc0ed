//! `flashtier` — the trace-replay command line.
//!
//! The paper's evaluation ran through "a trace-replay framework invokable
//! from user-space" (§5); this binary is that framework for the simulated
//! stack. It generates calibrated synthetic traces, characterizes any
//! trace in the JSON-lines format, and replays traces against every system
//! configuration the evaluation compares.
//!
//! ```text
//! flashtier gen-trace homes --scale 100 --out homes.jsonl
//! flashtier stats homes.jsonl
//! flashtier replay homes.jsonl --system flashtier-wb --cache-mb 64
//! flashtier replay homes.jsonl --system native-wb --cache-mb 64
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use flashtier::cachemgr::{replay, CacheSystem, NativeConsistency, NativeMode, StackSpec};
use flashtier::ssc::ConsistencyMode;
use flashtier::trace::{generate, Trace, TraceStats, WorkloadSpec};

const USAGE: &str = "\
flashtier — FlashTier trace-replay framework

USAGE:
    flashtier gen-trace <homes|mail|usr|proj> [--scale <f>] --out <file>
    flashtier import-msr <trace.csv> --out <file> [--max-events <n>]
    flashtier stats <trace.jsonl>
    flashtier replay <trace.jsonl> --system <kind> [options]

REPLAY OPTIONS:
    --system <kind>       flashtier-wt | flashtier-wb | native-wt | native-wb
    --cache-mb <n>        cache size in MB (default: 25% of the trace's unique blocks)
    --ssc-r               use the SSC-R (SE-Merge, 20% log) device
    --consistency <mode>  none | dirty | full   (default: full; not for native-wt)
    --warmup <frac>       untimed warm-up fraction of the trace (default 0.15)
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

/// A flag that is unknown, does not apply or has a value that parses but is
/// out of range: exit status 2, nothing on standard output.
fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// The first argument after the subcommand's operand that `flags` (name,
/// takes a value) does not name.
fn unknown_argument<'a>(args: &'a [String], flags: &[(&str, bool)]) -> Option<&'a str> {
    let mut rest = args.iter().skip(2);
    while let Some(arg) = rest.next() {
        match flags.iter().find(|(name, _)| name == arg) {
            Some(&(_, takes_value)) => {
                if takes_value {
                    rest.next();
                }
            }
            None => return Some(arg),
        }
    }
    None
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// The parsed value of `flag`, or `None` when the flag is absent. A value
/// that does not parse (or a trailing flag with no value) is an error
/// naming the flag, never a silent fall-back to the default.
fn parsed_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match arg_value(args, flag) {
        Some(s) => match s.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(format!("invalid value '{s}' for {flag}")),
        },
        None if args.last().is_some_and(|a| a == flag) => Err(format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    type Command = fn(&[String]) -> ExitCode;
    let (command, flags): (Command, &[(&str, bool)]) = match args.first().map(String::as_str) {
        Some("gen-trace") => (gen_trace, &[("--scale", true), ("--out", true)]),
        Some("import-msr") => (import_msr, &[("--out", true), ("--max-events", true)]),
        Some("stats") => (stats, &[]),
        Some("replay") => (
            replay_cmd,
            &[
                ("--system", true),
                ("--cache-mb", true),
                ("--ssc-r", false),
                ("--consistency", true),
                ("--warmup", true),
            ],
        ),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => return fail(&format!("unknown command '{other}'")),
    };
    match unknown_argument(&args, flags) {
        Some(arg) => fail_usage(&format!("unknown argument '{arg}'")),
        None => command(&args),
    }
}

fn gen_trace(args: &[String]) -> ExitCode {
    let Some(name) = args.get(1) else {
        return fail("gen-trace needs a workload name");
    };
    let spec = match name.as_str() {
        "homes" => WorkloadSpec::homes(),
        "mail" => WorkloadSpec::mail(),
        "usr" => WorkloadSpec::usr(),
        "proj" => WorkloadSpec::proj(),
        other => return fail(&format!("unknown workload '{other}'")),
    };
    let scale: f64 = match parsed_value(args, "--scale") {
        Ok(v) => v.unwrap_or(500.0),
        Err(e) => return fail(&e),
    };
    // `--scale` divides the paper's sizes: below 1 it asks for a trace
    // larger than the paper's (at 1e-12, one no allocation holds), NaN has
    // no meaning, and an infinite one shrinks every trace to one op.
    if !(scale.is_finite() && scale >= 1.0) {
        return fail_usage(&format!("--scale must be finite and >= 1, got {scale}"));
    }
    let Some(out) = arg_value(args, "--out") else {
        return fail("gen-trace needs --out <file>");
    };
    let spec = spec.scaled(scale);
    eprintln!(
        "generating {}: {} ops over {} blocks (scale 1/{scale})",
        spec.name, spec.total_ops, spec.range_blocks
    );
    let trace = generate(&spec);
    let file = match File::create(&out) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {out}: {e}")),
    };
    if let Err(e) = trace.to_jsonl(BufWriter::new(file)) {
        return fail(&format!("write failed: {e}"));
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

fn import_msr(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        return fail("import-msr needs a CSV file");
    };
    let Some(out) = arg_value(args, "--out") else {
        return fail("import-msr needs --out <file>");
    };
    let max_events: usize = match parsed_value(args, "--max-events") {
        Ok(v) => v.unwrap_or(usize::MAX),
        Err(e) => return fail(&e),
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot open {path}: {e}")),
    };
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("msr")
        .to_string();
    let (trace, skipped) =
        match flashtier::trace::from_msr_csv(BufReader::new(file), &name, max_events) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot parse {path}: {e}")),
        };
    eprintln!("imported {trace} ({skipped} unparsable lines skipped)");
    let out_file = match File::create(&out) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {out}: {e}")),
    };
    if let Err(e) = trace.to_jsonl(BufWriter::new(out_file)) {
        return fail(&format!("write failed: {e}"));
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Trace::from_jsonl(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn stats(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        return fail("stats needs a trace file");
    };
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let s = TraceStats::compute(&trace);
    println!("{trace}");
    println!("  unique blocks:   {}", s.unique_blocks);
    println!("  write fraction:  {:.1}%", s.write_fraction() * 100.0);
    println!(
        "  hot-25% share:   {:.1}% of accesses",
        s.hot_access_share(0.25) * 100.0
    );
    let (hot, all) = s.writes_per_block(0.25);
    println!("  writes/block:    hot {:.2} vs all {:.2}", hot, all);
    println!(
        "  cache for top-25%: {:.1} MB",
        s.top_blocks(0.25).len() as f64 * 4096.0 / (1024.0 * 1024.0)
    );
    ExitCode::SUCCESS
}

fn replay_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        return fail("replay needs a trace file");
    };
    let Some(kind) = arg_value(args, "--system") else {
        return fail("replay needs --system");
    };
    let ssc_r = args.iter().any(|a| a == "--ssc-r");
    if ssc_r && kind.starts_with("native") {
        return fail_usage(&format!(
            "--ssc-r selects a FlashTier device; {kind} has none"
        ));
    }
    if kind == "native-wt" && args.iter().any(|a| a == "--consistency") {
        return fail_usage(
            "--consistency sets what a cache persists; native-wt persists no metadata",
        );
    }
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let tstats = TraceStats::compute(&trace);
    let default_cache_blocks = (tstats.unique_blocks / 4).max(1024);
    let cache_blocks = match parsed_value::<u64>(args, "--cache-mb") {
        Ok(None) => default_cache_blocks,
        // 4 KB blocks per MB; a cache larger than everything the trace can
        // touch is a typo, not an experiment.
        Ok(Some(mb)) => match mb.checked_mul(256) {
            Some(blocks) if mb >= 1 && blocks <= trace.range_blocks => blocks,
            _ => {
                return fail_usage(&format!(
                    "--cache-mb must be between 1 and {} (the trace spans {} blocks), got {mb}",
                    trace.range_blocks / 256,
                    trace.range_blocks
                ))
            }
        },
        Err(e) => return fail(&e),
    };
    let consistency = match arg_value(args, "--consistency").as_deref() {
        None | Some("full") => ConsistencyMode::CleanAndDirty,
        Some("dirty") => ConsistencyMode::DirtyOnly,
        Some("none") => ConsistencyMode::None,
        Some(other) => return fail(&format!("unknown consistency '{other}'")),
    };
    let warmup: f64 = match parsed_value(args, "--warmup") {
        Ok(v) => v.unwrap_or(0.15),
        Err(e) => return fail(&e),
    };
    if !(0.0..1.0).contains(&warmup) {
        return fail_usage(&format!(
            "--warmup must be a fraction in [0, 1), got {warmup}"
        ));
    }

    let stack = StackSpec::for_cache(cache_blocks, trace.range_blocks);
    let mut system: Box<dyn CacheSystem> = match kind.as_str() {
        "flashtier-wt" => Box::new(stack.wt(ssc_r, consistency)),
        "flashtier-wb" => Box::new(stack.wb(ssc_r, consistency)),
        "native-wt" => Box::new(stack.native(NativeMode::WriteThrough, NativeConsistency::None)),
        "native-wb" => {
            let durability = match consistency {
                ConsistencyMode::None => NativeConsistency::None,
                _ => NativeConsistency::Durable,
            };
            Box::new(stack.native(NativeMode::WriteBack, durability))
        }
        other => return fail(&format!("unknown system '{other}'")),
    };

    eprintln!(
        "replaying {} against {} (cache {} blocks, warmup {:.0}%)",
        trace.name,
        system.name(),
        cache_blocks,
        warmup * 100.0
    );
    if let Err(e) = replay(system.as_mut(), trace.prefix(warmup)) {
        return fail(&format!("warmup failed: {e}"));
    }
    let result = match replay(system.as_mut(), trace.suffix(warmup)) {
        Ok(r) => r,
        Err(e) => return fail(&format!("replay failed: {e}")),
    };
    println!("system:          {}", system.name());
    println!("ops replayed:    {}", result.ops);
    println!("simulated time:  {}", result.sim_time);
    println!("throughput:      {:.0} IOPS", result.iops());
    println!("mean response:   {:.1} us", result.response_hist.mean());
    println!(
        "p99-ish max:     {} us",
        result.response_hist.max().unwrap_or(0)
    );
    println!(
        "read miss rate:  {:.1}%",
        result.counters.miss_rate() * 100.0
    );
    println!("writebacks:      {}", result.counters.writebacks);
    println!(
        "host metadata:   {:.2} MB, device metadata: {:.2} MB",
        system.host_memory().modeled_bytes as f64 / (1 << 20) as f64,
        system.device_memory().modeled_bytes as f64 / (1 << 20) as f64
    );
    ExitCode::SUCCESS
}
