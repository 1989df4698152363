//! `perfbench`: the repository's benchmark. One invocation runs one named
//! workload with a seed for a time budget, checks every output it produced
//! against an exact oracle, and prints one JSON result line last.
//!
//! ```text
//! perfbench --workload <city-stream|fleet-steady|lab-sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--scratch <dir>] [--fleet-rate <slides/s>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` (which needs the
//! `telemetry` build) prints the per-layer metrics plus its own end-to-end
//! numbers under `traced.`. Every layer is measured from outside, by timing
//! calls into the crates' public functions; the traced build also reads
//! the counters and spans the crates record. See `perfbench/README.md`.

mod city;
mod fleet;
mod lab;
mod measure;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::Report;

/// One run's settings, from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub traced: bool,
    /// Directory for checkpoints and journals; removed at exit.
    pub scratch: PathBuf,
    /// The open-loop offered rate of `fleet-steady`, in tenant-slides/s;
    /// required for that workload.
    pub fleet_rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        budget: Duration::ZERO,
        traced: false,
        scratch: PathBuf::from(".bench_build/scratch"),
        fleet_rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
                args.budget = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(value),
            "--fleet-rate" => {
                let rate: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(bad(&"expected a positive rate"));
                }
                args.fleet_rate = Some(rate);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.budget.is_zero() {
        return Err("--seconds is required".into());
    }
    if args.workload == "fleet-steady" && args.fleet_rate.is_none() {
        return Err("fleet-steady needs --fleet-rate".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.traced {
        if !wsn_obs::compiled() {
            eprintln!("perfbench: --trace 1 needs the build with the `telemetry` feature");
            return ExitCode::from(2);
        }
        wsn_obs::set_enabled(true);
    }
    let run: fn(&Args) -> Report = match args.workload.as_str() {
        "city-stream" => city::run,
        "fleet-steady" => fleet::run,
        "lab-sweep" => lab::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    println!(
        "perfbench {} seed={} budget={:.1}s traced={} nproc={} telemetry_compiled={}",
        args.workload,
        args.seed,
        args.budget.as_secs_f64(),
        args.traced,
        wsn_pool::default_size(),
        wsn_obs::compiled(),
    );
    let mut report = run(&args);
    report.finish();
    let _ = std::fs::remove_dir_all(&args.scratch);
    for (name, value) in &report.end_to_end {
        println!("  {name:<28} {value:.6}");
    }
    if args.traced {
        for (name, value) in &report.layers {
            println!("  {name:<40} {value:.6}");
        }
    }
    println!("{}", report.json_line(args.traced));
    ExitCode::SUCCESS
}
