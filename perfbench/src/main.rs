//! `perfbench`: the repository benchmark.
//!
//! Runs one named workload through the public serving API
//! (`mura_serve::Server` / `Client` over a `QueryEngine`), checks every
//! answer against centralized evaluation, and prints readable lines
//! followed by one JSON result line:
//!
//! ```text
//! perfbench --workload <closure_cold|closure_proc|anchored_serve|mutate_views>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a separate, traced run.
//! The process exits non-zero when any answer is wrong.

mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <closure_cold|closure_proc|anchored_serve|mutate_views> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers, see the notes above");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
