//! The command line. Strict: anything unknown is an error and nothing
//! starts running until every argument has parsed.

use crate::workloads::{Workload, DEFAULT_SEED};
use std::path::PathBuf;

/// Printed by `--help` and after every usage error.
pub const USAGE: &str = include_str!("../USAGE.txt");

/// What to do after a successful parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Measure and report.
    Run,
    /// Run twice and compare.
    Selfcheck,
    /// Run and record the exact outcomes.
    Bless,
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The one workload to run in this process, if given.
    pub workload: Option<Workload>,
    /// Seed of every random stream.
    pub seed: u64,
    /// Host seconds of timed slices.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Output directory.
    pub out: PathBuf,
    /// What to do.
    pub action: Action,
    /// The benchmark binary built with the `telemetry` feature.
    pub telemetry_bin: Option<PathBuf>,
    /// Print only the plain fast-quartile throughput (between processes).
    pub probe: bool,
}

/// A successful parse.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// Arguments to act on.
    Args(Args),
    /// `--help` was asked for.
    Help,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
/// A one-line description of the first problem found.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        out: PathBuf::from("target/benchmark-out"),
        action: Action::Run,
        telemetry_bin: None,
        probe: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let text = value()?;
                parsed.seed = parse_seed(&text).ok_or_else(|| format!("bad seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds takes a whole number from 1 to 60, not {text:?}")
                    })?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--telemetry-bin" => parsed.telemetry_bin = Some(PathBuf::from(value()?)),
            "--selfcheck" | "--bless" if parsed.action != Action::Run => {
                return Err("--selfcheck and --bless exclude each other".into());
            }
            "--selfcheck" => parsed.action = Action::Selfcheck,
            "--bless" => parsed.action = Action::Bless,
            "--probe" => parsed.probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.probe && parsed.workload.is_none() {
        return Err("--probe needs --workload".into());
    }
    if parsed.action != Action::Run && (parsed.trace || parsed.workload.is_some()) {
        return Err("--selfcheck and --bless run every workload end to end; \
                    drop --workload and --trace 1"
            .into());
    }
    Ok(Parsed::Args(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Parsed, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let Ok(Parsed::Args(a)) =
            parse_str("--workload elastic_day --seed 17 --seconds 20 --trace 1")
        else {
            panic!("driver arguments rejected");
        };
        assert_eq!(a.workload, Some(Workload::ElasticDay));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 20, true));
        assert_eq!(a.action, Action::Run);
    }

    #[test]
    fn defaults_and_hex_seeds() {
        let Ok(Parsed::Args(a)) = parse_str("--seed 0x5EED") else {
            panic!("hex seed rejected");
        };
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.workload),
            (0x5EED, 20, false, None)
        );
        assert_eq!(a.out, PathBuf::from("target/benchmark-out"));
    }

    #[test]
    fn help_wins_and_runs_nothing() {
        assert_eq!(parse_str("--seed 1 --help --bogus"), Ok(Parsed::Help));
    }

    #[test]
    fn unknown_and_malformed_arguments_are_errors() {
        for bad in [
            "--bogus",
            "--only static_steady",
            "--traced",
            "static_steady",
            "--workload nope",
            "--workload",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--seconds 1.5",
            "--trace 2",
            "--selfcheck --bless",
            "--selfcheck --trace 1",
            "--bless --workload control_loop",
            "--probe",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
