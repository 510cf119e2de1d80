//! The repository benchmark: one command that builds, serves, reloads and
//! restarts the system on a chosen workload and prints every metric by
//! name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload build --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded, replays each layer on the workload's
//! inputs, reports the per-layer metrics and writes the spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. METRICS.md maps every
//! per-layer metric to the end-to-end metric it should move.

mod alloc;
mod corpus;
mod daemon;
mod gen;
mod host;
mod layers;
mod procfs;
mod scenario;
mod spans;
mod stats;
mod traffic;

use std::path::Path;
use std::process::ExitCode;

/// Where runs keep their scratch stores and traces, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    alloc::keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spans = spans::Spans::new(args.trace);
    let out_dir = Path::new(OUT_DIR);
    let Some(outcome) = scenario::run(&args.workload, args.seed, args.seconds, &spans, out_dir)
    else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            scenario::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!("[perfbench] {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("[perfbench] writing {} failed: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
