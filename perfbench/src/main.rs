//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones.

use perfbench::run::{e2e, setup_only, traced, RunArgs};
use perfbench::workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <fig5_mode1|fig6_rto|clos_quic_pulser|fleet> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// What to run.
enum Mode {
    E2e,
    Traced,
    /// One cold set-up, its time printed alone: the child process that
    /// the end-to-end run starts for each extra `setup_s` sample.
    SetupOnly,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(RunArgs, Mode), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut mode = Mode::E2e;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::E2e,
                    "1" => Mode::Traced,
                    _ => return Err(bad()),
                }
            }
            "--setup-only" if value == "1" => mode = Mode::SetupOnly,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
        },
        mode,
    ))
}

fn main() {
    let (args, mode) = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match mode {
        Mode::E2e => e2e(&args),
        Mode::Traced => traced(&args),
        Mode::SetupOnly => {
            println!("{}", setup_only(&args));
            return;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
}
