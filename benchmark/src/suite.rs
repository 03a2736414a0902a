//! Every workload, each in a single-threaded process of its own, with the
//! results gathered into `<out>/results.json` and the exact outcomes held
//! against `expected.json`; `--selfcheck` and `--bless` on top of that.

use crate::catalog::END_TO_END;
use crate::cli::{Action, Args};
use crate::workloads::Workload;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, ExitCode, Stdio};

/// What one workload's process printed.
struct Leaf {
    workload: Workload,
    /// The result object from its last line; `None` if it failed.
    json: Option<String>,
    /// Its exact outcome, as `expected.json` stores it.
    outcome: Option<String>,
    /// `(metric, value)` from its `workload metric value unit` lines.
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process, echoing what it prints.
fn leaf(args: &Args, workload: Workload) -> std::io::Result<Leaf> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if let Some(bin) = &args.telemetry_bin {
        command.arg("--telemetry-bin").arg(bin);
    }
    let mut child = command.stdout(Stdio::piped()).spawn()?;
    let mut leaf = Leaf {
        workload,
        json: None,
        outcome: None,
        metrics: Vec::new(),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        if line.starts_with('{') {
            leaf.json = Some(line);
            continue;
        }
        println!("{line}");
        if let Some(outcome) = line.strip_prefix("# outcome ") {
            leaf.outcome = Some(outcome.to_string());
        } else if let [name, metric, value, _unit] = line.split(' ').collect::<Vec<_>>()[..] {
            if let (true, Ok(value)) = (name == workload.name(), value.parse()) {
                leaf.metrics.push((metric.to_string(), value));
            }
        }
    }
    if !child.wait()?.success() {
        leaf.json = None;
    }
    Ok(leaf)
}

fn all(args: &Args) -> std::io::Result<Vec<Leaf>> {
    Workload::ALL.into_iter().map(|w| leaf(args, w)).collect()
}

fn write_results(args: &Args, leaves: &[Leaf]) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let entries: Vec<String> = leaves
        .iter()
        .map(|l| {
            format!(
                "    \"{}\": {}",
                l.workload.name(),
                l.json.as_deref().unwrap_or("null")
            )
        })
        .collect();
    let path = args.out.join("results.json");
    let mut file = std::fs::File::create(&path)?;
    write!(
        file,
        "{{\n  \"seed\": \"{:#x}\",\n  \"seconds\": {},\n  \"trace\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        entries.join(",\n")
    )?;
    file.flush()?;
    println!("# results written to {}", path.display());
    Ok(())
}

/// Compares two runs of the same code: exact metrics bit for bit,
/// host-time metrics within their bounds. Prints every spread.
fn agree(first: &[Leaf], second: &[Leaf]) -> bool {
    let mut ok = true;
    println!("# selfcheck: workload metric first second spread bound");
    for (a, b) in first.iter().zip(second) {
        for e in &END_TO_END {
            let value = |l: &Leaf| l.metrics.iter().find(|(n, _)| n == e.name).map(|&(_, v)| v);
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("selfcheck {} {} missing", a.workload.name(), e.name);
                ok = false;
                continue;
            };
            let spread = (x - y).abs() / x.min(y);
            let (bound, within) = if e.exact {
                (0.0, x.to_bits() == y.to_bits())
            } else {
                (e.bound, spread <= e.bound)
            };
            println!(
                "selfcheck {} {} {x} {y} {:.2}% {:.1}% {}",
                a.workload.name(),
                e.name,
                100.0 * spread,
                100.0 * bound,
                if within { "ok" } else { "FAIL" }
            );
            ok &= within;
        }
    }
    ok
}

/// Exact outcomes by seed and workload, one `"seed/workload": {…}` line per
/// entry. Read when the suite runs, so blessing takes effect without a
/// rebuild.
const EXPECTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

fn entry_key(seed: u64, workload: Workload) -> String {
    format!("\"{seed:#x}/{}\": ", workload.name())
}

/// The outcome `recorded` (the text of `expected.json`) holds for `seed`
/// and `workload`, if any.
fn recorded_outcome(recorded: &str, seed: u64, workload: Workload) -> Option<&str> {
    let key = entry_key(seed, workload);
    recorded
        .lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .map(|l| l.trim_end_matches(','))
}

/// `recorded` with this seed's entries replaced by `outcomes`.
fn blessed(recorded: &str, seed: u64, outcomes: &[(Workload, &str)]) -> String {
    let prefix = format!("\"{seed:#x}/");
    let mut entries: Vec<String> = recorded
        .lines()
        .filter(|l| l.starts_with('"') && !l.starts_with(&prefix))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    for &(workload, outcome) in outcomes {
        entries.push(format!("{}{outcome}", entry_key(seed, workload)));
    }
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Whether every outcome is the one `expected.json` records for this seed
/// (a seed it has no entry for passes). Prints each difference.
fn as_expected(seed: u64, leaves: &[Leaf]) -> std::io::Result<bool> {
    let recorded = std::fs::read_to_string(EXPECTED)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{EXPECTED}: {e}")))?;
    let mut ok = true;
    for l in leaves {
        let expected = recorded_outcome(&recorded, seed, l.workload);
        if let (Some(expected), Some(got)) = (expected, l.outcome.as_deref()) {
            if expected != got {
                println!(
                    "# {} differs from expected.json:\n#   expected {expected}\n#   got      {got}",
                    l.workload.name()
                );
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// Records `leaves`' outcomes as this seed's entries of `expected.json`.
fn bless(seed: u64, leaves: &[Leaf]) -> std::io::Result<()> {
    let outcomes: Vec<(Workload, &str)> = leaves
        .iter()
        .map(|l| {
            let outcome = l.outcome.as_deref();
            (
                l.workload,
                outcome.expect("a correct run prints its outcome"),
            )
        })
        .collect();
    let recorded = std::fs::read_to_string(EXPECTED).unwrap_or_default();
    std::fs::write(EXPECTED, blessed(&recorded, seed, &outcomes))?;
    println!("# outcomes at seed {seed:#x} recorded in {EXPECTED}");
    Ok(())
}

/// Runs the suite as `args.action` says.
pub fn run(args: &Args) -> ExitCode {
    let attempt = || -> std::io::Result<bool> {
        let leaves = all(args)?;
        let mut ok = leaves.iter().all(|l| l.json.is_some());
        if args.action != Action::Bless {
            ok &= as_expected(args.seed, &leaves)?;
        }
        match args.action {
            Action::Selfcheck if ok => {
                let again = all(args)?;
                ok = again.iter().all(|l| l.json.is_some()) && agree(&leaves, &again);
            }
            Action::Bless if ok => bless(args.seed, &leaves)?,
            Action::Run | Action::Selfcheck | Action::Bless => {}
        }
        write_results(args, &leaves)?;
        Ok(ok)
    };
    match attempt() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: the benchmark failed; see the lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blessing_replaces_one_seeds_entries_and_keeps_the_others() {
        let first = blessed("", 0x709, &[(Workload::ControlLoop, "{\"a\": 1}")]);
        let both = blessed(
            &first,
            0x5eed,
            &[
                (Workload::StaticSteady, "{\"b\": 2}"),
                (Workload::ControlLoop, "{\"c\": 3}"),
            ],
        );
        let again = blessed(&both, 0x709, &[(Workload::ControlLoop, "{\"a\": 4}")]);
        let lookup = |seed, workload| recorded_outcome(&again, seed, workload);
        assert_eq!(lookup(0x709, Workload::ControlLoop), Some("{\"a\": 4}"));
        assert_eq!(lookup(0x5eed, Workload::StaticSteady), Some("{\"b\": 2}"));
        assert_eq!(lookup(0x5eed, Workload::ControlLoop), Some("{\"c\": 3}"));
        assert_eq!(lookup(0x709, Workload::StaticSteady), None);
        assert_eq!(again.lines().count(), 5, "{again}");
    }

    #[test]
    fn the_committed_outcomes_cover_both_seeds() {
        let recorded = std::fs::read_to_string(EXPECTED).expect("expected.json");
        for seed in [crate::workloads::DEFAULT_SEED, 0x5EED] {
            for workload in Workload::ALL {
                assert!(recorded_outcome(&recorded, seed, workload).is_some());
            }
        }
    }
}
