//! `trpqbench` — the end-to-end and per-layer benchmark of the TRPQ engine.
//!
//! ```text
//! cargo run --release --manifest-path trpqbench/Cargo.toml -- \
//!     --workload paper-g3|recur-g2|serve-g2 [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each run sets up its workload several times (reporting the median set-up
//! time), checks the program's outputs in an untimed pass, warms up, and then
//! measures for `--seconds`.  `--trace 0` reports the end-to-end metrics;
//! `--trace 1` re-runs the workload's operations one layer at a time and
//! reports the per-layer metrics.  The last line of standard output is the
//! result object; the exit code is non-zero if any output was wrong.  See
//! `README.md` next to this package for the workloads and metrics.

mod ops;
mod paper;
mod recur;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::RunInfo;
use workload::{ContactTracingConfig, ScaleFactor};

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x7e_a7_05;

/// Every graph is at the paper's scale: the person counts of Table I divided
/// by 1.
pub const SCALE_DIVISOR: usize = 1;

/// The benchmark's three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1–Q12 and REACH through the full `Query::parse(..).run` path on G3.
    PaperG3,
    /// RECUR on G2 in the three answer modes.
    RecurG2,
    /// Server reads beside an open-loop writer streaming G2.
    ServeG2,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::PaperG3, Workload::RecurG2, Workload::ServeG2];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperG3 => "paper-g3",
            Workload::RecurG2 => "recur-g2",
            Workload::ServeG2 => "serve-g2",
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The generator configuration of input instance `index` of this run, at
    /// one of the paper's scales.
    pub fn config(&self, scale: ScaleFactor, index: usize) -> ContactTracingConfig {
        scale.scaled_config(SCALE_DIVISOR).with_seed(ops::instance_seed(self.seed, index))
    }

    /// How long the measured phase lasts.
    pub fn measure(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn parse_number(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("{text:?} is not a number: {e}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed =
        Args { workload: Workload::PaperG3, seed: DEFAULT_SEED, seconds: 30, trace: false };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = parse_number(&value()?)?,
            "--seconds" => parsed.seconds = parse_number(&value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if parsed.seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("trpqbench: {message}");
            eprintln!(
                "usage: trpqbench --workload paper-g3|recur-g2|serve-g2 [--seed N] \
                 [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match (args.trace, args.workload) {
        (true, _) => trace::run(&args),
        (false, Workload::PaperG3) => paper::run(&args),
        (false, Workload::RecurG2) => recur::run(&args),
        (false, Workload::ServeG2) => serve::run(&args),
    };
    let info = RunInfo {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    if report::print(&info, &report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = parse("--workload recur-g2").unwrap();
        assert_eq!(args.workload, Workload::RecurG2);
        assert_eq!(args.seed, 0x7ea705);
        assert!(!args.trace);
        let args = parse("--workload serve-g2 --seed 0x10 --seconds 3 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (16, 3, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper-g3 --trace 2").is_err());
        assert!(parse("--workload paper-g3 --seconds 0").is_err());
        assert!(parse("--workload paper-g3 --seed").is_err());
    }

    #[test]
    fn workload_names_are_valid_metric_style_names() {
        for workload in Workload::ALL {
            assert!(stats::valid_name(workload.name()));
        }
    }
}
