//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) with its unit.
//! A human-readable copy of the metrics and the sample counts goes to
//! stderr. Scratch files go under `.bench_work/` in the current
//! directory.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, unit_of, Opts};

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("# {note}");
    }
    for (name, value) in &report.metrics {
        eprintln!("{name:<34} {value:>14.6} {}", unit_of(name).unwrap_or("?"));
    }
    eprintln!(
        "{:<34} {:>14.6} ratio ({} of {} operations)",
        "failed_frac",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    println!("{}", report.json_line(opts.trace));
    ExitCode::SUCCESS
}
