//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload steady_paced|drift_flood|batch_cli --seed N --seconds N --trace 0|1
//!           --seqd PATH --cli PATH --out DIR
//! ```
//!
//! Runs the real `seqd` and `sequence-rtg` binaries as child processes on
//! LogHub-2.0 inputs generated from `--seed`, checks their outputs, and
//! prints a metric table followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` repeats the workload with
//! `/metrics` scrapes and a traced single-threaded layer replay, and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod child;
mod inputs;
mod lag;
mod procfs;
mod prom;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    seqd: PathBuf,
    cli: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut seqd = None;
    let mut cli = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            "--seqd" => seqd = Some(PathBuf::from(value)),
            "--cli" => cli = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        seqd: seqd.ok_or("--seqd is required")?,
        cli: cli.ok_or("--cli is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.out.join(format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seqd: args.seqd,
        cli: args.cli,
        work: work.clone(),
        out: args.out,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload, ctx.seed, ctx.seconds, ctx.trace, ctx.threads
    ));
    let outcome = match args.workload.as_str() {
        "steady_paced" => workloads::steady_paced(&ctx, &mut report),
        "drift_flood" => workloads::drift_flood(&ctx, &mut report),
        _ => workloads::batch_cli(&ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        // A run that could not finish has no result line: the harness or a
        // child failed outright, which is not a measurement.
        for n in &report.notes {
            eprintln!("# {n}");
        }
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", report.render(&args.workload));
    ExitCode::SUCCESS
}
