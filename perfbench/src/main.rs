//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6_suite|deep_nest|edit_loop> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --replay <input>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use cpg_merge::MergeConfig;
use cpg_perfbench::inputs::Workload;
use cpg_perfbench::{result_json, run};

/// Variables that override the default thread count; the metrics are
/// defined at the default configuration, so a run refuses to start under
/// either.
const THREAD_OVERRIDES: [&str; 2] = ["CPG_MERGE_THREADS", "CPG_SUITE_THREADS"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    replay: Option<usize>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Fig6Suite,
        seed: 1,
        seconds: 10.0,
        trace: false,
        replay: None,
    };
    let mut workload = None;
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--replay" => args.replay = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = THREAD_OVERRIDES
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        eprintln!("perfbench: {var} is set; the metrics are defined at the default configuration, unset it");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let threads = MergeConfig::default().effective_threads();
    println!(
        "# workload={} seed={} nproc={nproc} effective_threads={threads} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Some(input) = args.replay {
        return if run::replay(args.workload, args.seed, input) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let outcome = run::run(args.workload, args.seed, args.seconds, args.trace);
    if args.trace {
        let dir = std::path::Path::new("perfbench").join("traces");
        let path = dir.join(format!("{}-{}.tsv", args.workload.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &outcome.spans_tsv))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
        for (name, ms) in &outcome.self_ms {
            println!("# self time {name}: {ms:.3} ms");
        }
    }
    let (first_ops, first_failed) = outcome.first_pass;
    println!(
        "# ops={} inputs={} failed_inputs={} unexpected={} first_round_ops={first_ops} first_round_failed={first_failed} checker_sound={} correct={}",
        outcome.ops,
        outcome.attempted,
        outcome.failed,
        outcome.unexpected,
        outcome.checker_sound,
        outcome.correct
    );
    for metric in &outcome.metrics {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{}",
        result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
