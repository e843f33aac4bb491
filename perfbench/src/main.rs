//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the checkout root, checks every output, prints
//! the metrics to stderr and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 on any wrong
//! output or error, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use alphasort_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // Inputs, outputs and scratch live under the checkout, one directory
    // per process, removed afterwards.
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let result =
        alphasort_perfbench::run(&args.workload, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Left in place when another run is using it.
    let _ = std::fs::remove_dir(&root);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "  failed_ratio {:.4} ({} of {} operations failed or were wrong)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
