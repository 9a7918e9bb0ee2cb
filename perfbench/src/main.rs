//! Measurement driver behind `run.py`: runs one in-process workload and
//! prints its raw samples as one JSON document on stdout.
//!
//! ```text
//! icm-perfbench <fleet|daemon|suite> --seed N --seconds S --trace 0|1 --work DIR
//! ```
//!
//! `run.py` builds this binary, runs it, turns the samples into the
//! benchmark's metrics and checks them. `suite` is the traced
//! `paper-suite` pass; the untraced one runs the `icm-experiments`
//! binary directly. Like the binary, `suite` runs at the default
//! configuration and ignores `--seed`.

mod daemon;
mod fleet;
mod spans;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use icm_json::Json;

/// Wall-time budget of one run: units of work are started while the
/// mean unit so far still fits in what is left.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn has_room_for_another(&self, done: u64) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        done > 0 && elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// The process's peak resident set (`VmHWM`), in MB. Workloads read it
/// before they build their output, so the figure covers the program and
/// the raw samples but not their JSON.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nums(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Number(v)).collect())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload")?;
    let (mut seed, mut seconds, mut trace, mut work) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        work: work.ok_or("missing --work")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("icm-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Budget {
        start: Instant::now(),
        seconds: args.seconds,
    };
    let out = match args.workload.as_str() {
        "fleet" => fleet::run(args.seed, &budget, &args.work, args.trace),
        "daemon" => daemon::run(args.seed, args.seconds, &args.work, args.trace),
        "suite" => suite::run(&budget, &args.work),
        other => Err(format!("unknown workload {other}")),
    };
    match out {
        Ok(json) => {
            println!("{}", icm_json::to_string(&json));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("icm-perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
