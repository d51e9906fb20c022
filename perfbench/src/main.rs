//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! [--out-dir <dir>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), each with its unit. A human-readable table goes to
//! standard error. Exits 1 without a result when the workload cannot run.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Args, Artifacts};

fn parse() -> Result<(Args, PathBuf), String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, short: false };
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required (one of {:?})", perfbench::WORKLOADS));
    }
    Ok((args, out_dir))
}

fn main() -> ExitCode {
    let (args, out_dir) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let mut artifacts = Artifacts::new(Some(out_dir), stem);
    let report = match perfbench::run(&args, &mut artifacts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for fault in &artifacts.faults {
        eprintln!("perfbench: wrong answer: {fault}");
    }
    eprint!(
        "perfbench: {} (seed {}, trace {})\n{}",
        args.workload,
        args.seed,
        args.trace,
        report.summary()
    );
    match report.render(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
