//! `pstore-trace`: run-analysis toolchain over JSONL telemetry traces.
//!
//! ```text
//! pstore-trace report   <trace.jsonl>                 # run report (default)
//! pstore-trace profile  <trace.jsonl> [--wall] [--folded]
//! pstore-trace timeline <trace.jsonl> [--width N]
//! pstore-trace slo      <trace.jsonl> [--width N]
//! pstore-trace provisioning <trace.jsonl> [--width N]
//! pstore-trace schema   [--check <doc.md>]
//! pstore-trace <trace.jsonl>                          # legacy = report
//! ```
//!
//! `schema` prints the event-kind/field and span-name tables generated
//! from the one schema in `crates/telemetry/src/event.rs`; `--check`
//! compares them with the text between the `<!-- schema:begin -->` and
//! `<!-- schema:end -->` lines of a document (docs/observability.md) and
//! exits 1 when they differ.
//!
//! `slo` prints the latency-attribution table (queue/exec/migration-stall
//! txn-seconds per simulator run), every SLA-violation window with the
//! reconfiguration span or chunk moves it overlaps, and the timeline with
//! a `!` violation overlay.
//!
//! `provisioning` reads the `prov_*` event family (emission-gated; see
//! docs/observability.md) and prints the capacity ledger
//! (machine-seconds provisioned vs ideal — the Fig 9 over/under areas),
//! the planner decision audit with reasons and leads, forecast error by
//! horizon, under-forecast windows, and the timeline with the decision
//! overlay (`P>` predictive lead arrows, `R` reactive marks). A trace
//! with no `prov_*` events exits 1: the subcommand exists to audit
//! provisioning, so a silently-gated-off run is a failure, not a pass.
//!
//! The numbers both reports are built from (`slo.*`, `prov.*`) are pinned
//! by the golden summary `results/golden/fig9_quick.summary.json`, which
//! `RunReporter --summary` writes and the gate compares with `cmp`.
//!
//! Exit codes: 0 = clean; 1 = structural problems (unmatched/misnested
//! spans, lines that do not parse or do not match the schema of their
//! kind, ordering violations, a stale schema table); 2 = usage or I/O
//! error. The gate's and CI's telemetry steps rely on these.

use pstore_telemetry::trace::{order_errors, read_jsonl, LineError, RunReport};
use pstore_telemetry::{prov, slo, timeline, Entry, Profile, ProfileClock};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: pstore-trace <subcommand> ...
  report   <trace.jsonl>
  profile  <trace.jsonl> [--wall] [--folded]
  timeline <trace.jsonl> [--width N]
  slo      <trace.jsonl> [--width N]
  provisioning <trace.jsonl> [--width N]
  schema   [--check <doc.md>]
  <trace.jsonl>   (legacy: same as report)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match first.as_str() {
        "report" => cmd_report(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "timeline" => cmd_timeline(&args[1..]),
        "slo" => cmd_slo(&args[1..]),
        "provisioning" => cmd_provisioning(&args[1..]),
        "schema" => cmd_schema(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ if first.starts_with('-') => {
            eprintln!("pstore-trace: unknown option \"{first}\"\n{USAGE}");
            ExitCode::from(2)
        }
        // Legacy single-argument form: treat the argument as a trace path.
        _ => cmd_report(&args[..]),
    }
}

/// A parsed flag: name plus optional value.
type Flag<'a> = (&'a str, Option<&'a str>);

/// Parses `<path> [flags...]`, validating flags against `allowed`.
fn parse_path_and_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<(PathBuf, Vec<Flag<'a>>), String> {
    let mut path = None;
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') {
            if !allowed.contains(&arg.as_str()) {
                return Err(format!("unknown flag \"{arg}\""));
            }
            // The one flag taking a value: --width.
            let value = if arg == "--width" {
                Some(
                    it.next()
                        .ok_or_else(|| format!("flag \"{arg}\" needs a value"))?
                        .as_str(),
                )
            } else {
                None
            };
            flags.push((arg.as_str(), value));
        } else if path.is_none() {
            path = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected argument \"{arg}\""));
        }
    }
    let path = path.ok_or("missing trace path")?;
    Ok((path, flags))
}

/// What every trace subcommand starts from: its arguments parsed against
/// the flags it allows, and the trace read and decoded.
struct Opened<'a> {
    path: PathBuf,
    flags: Vec<Flag<'a>>,
    /// `--width N`, or the default.
    width: usize,
    trace: Vec<Entry>,
    line_errors: Vec<LineError>,
}

/// Opens the trace of subcommand `sub`, printing line errors to stderr.
/// `Err` carries the exit code: 2 on a usage or I/O error.
fn open<'a>(sub: &str, args: &'a [String], allowed: &[&str]) -> Result<Opened<'a>, ExitCode> {
    let usage = |msg: String| {
        eprintln!("pstore-trace {sub}: {msg}");
        ExitCode::from(2)
    };
    let (path, flags) =
        parse_path_and_flags(args, allowed).map_err(|e| usage(format!("{e}\n{USAGE}")))?;
    let width = match flags.iter().find(|(f, _)| *f == "--width") {
        Some((_, Some(value))) => value
            .parse::<usize>()
            .map_err(|_| usage(format!("--width wants an integer, got \"{value}\"")))?,
        _ => timeline::DEFAULT_WIDTH,
    };
    let (trace, line_errors) = read_jsonl(&path).map_err(|e| {
        eprintln!("pstore-trace: cannot read {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    if !line_errors.is_empty() {
        eprintln!(
            "pstore-trace: {} unparseable line(s) in {}:",
            line_errors.len(),
            path.display()
        );
        for e in line_errors.iter().take(10) {
            eprintln!("  line {}: {}", e.line, e.msg);
        }
    }
    Ok(Opened {
        path,
        flags,
        width,
        trace,
        line_errors,
    })
}

impl Opened<'_> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// 1 when any line failed to parse or decode, else 0.
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(u8::from(!self.line_errors.is_empty()))
    }
}

fn cmd_report(args: &[String]) -> ExitCode {
    let opened = match open("report", args, &[]) {
        Ok(opened) => opened,
        Err(code) => return code,
    };
    let report = RunReport::from_trace(&opened.trace);
    print!("{}", report.render());

    let ordering = order_errors(&opened.trace);
    let mut failed = !opened.line_errors.is_empty();
    if !report.span_errors.is_empty() {
        failed = true;
        eprintln!(
            "pstore-trace: {} span error(s) (see report)",
            report.span_errors.len()
        );
    }
    if !ordering.is_empty() {
        failed = true;
        eprintln!("pstore-trace: {} ordering violation(s):", ordering.len());
        for e in ordering.iter().take(10) {
            eprintln!("  {e}");
        }
    }
    ExitCode::from(u8::from(failed))
}

fn cmd_profile(args: &[String]) -> ExitCode {
    let opened = match open("profile", args, &["--wall", "--folded"]) {
        Ok(opened) => opened,
        Err(code) => return code,
    };
    let clock = if opened.has("--wall") {
        ProfileClock::Wall
    } else {
        ProfileClock::Sim
    };
    let prof = Profile::from_trace(&opened.trace, clock);
    if opened.has("--folded") {
        print!("{}", prof.folded());
    } else {
        print!("{}", prof.render(clock));
    }
    opened.exit_code()
}

fn cmd_timeline(args: &[String]) -> ExitCode {
    let opened = match open("timeline", args, &["--width"]) {
        Ok(opened) => opened,
        Err(code) => return code,
    };
    // Traces carrying prov_* events get the decision overlay for free;
    // for everything else decision_times is empty and the output is
    // byte-identical to the plain renderer.
    let decisions = prov::decision_times(&prov::analyze(&opened.trace));
    print!(
        "{}",
        timeline::render(&opened.trace, opened.width, &[], &decisions)
    );
    opened.exit_code()
}

fn cmd_slo(args: &[String]) -> ExitCode {
    let opened = match open("slo", args, &["--width"]) {
        Ok(opened) => opened,
        Err(code) => return code,
    };
    let runs = slo::analyze(&opened.trace);
    print!("{}", slo::render(&runs));
    println!();
    let violations = slo::violation_times(&runs);
    print!(
        "{}",
        timeline::render(&opened.trace, opened.width, &violations, &[])
    );
    opened.exit_code()
}

fn cmd_provisioning(args: &[String]) -> ExitCode {
    let opened = match open("provisioning", args, &["--width"]) {
        Ok(opened) => opened,
        Err(code) => return code,
    };
    let runs = prov::analyze(&opened.trace);
    if runs.is_empty() {
        eprintln!(
            "pstore-trace provisioning: no prov_* events in {} \
             (provisioning telemetry is emission-gated; run with prov \
             events enabled)",
            opened.path.display()
        );
        return ExitCode::from(1);
    }
    print!("{}", prov::render(&runs));
    println!();
    print!(
        "{}",
        timeline::render(
            &opened.trace,
            opened.width,
            &slo::violation_times(&slo::analyze(&opened.trace)),
            &prov::decision_times(&runs),
        )
    );
    opened.exit_code()
}

const SCHEMA_BEGIN: &str = "<!-- schema:begin -->";
const SCHEMA_END: &str = "<!-- schema:end -->";

fn cmd_schema(args: &[String]) -> ExitCode {
    let generated = pstore_telemetry::schema_markdown();
    let path = match args {
        [] => {
            print!("{generated}");
            return ExitCode::SUCCESS;
        }
        [flag, path] if flag == "--check" => Path::new(path),
        _ => {
            eprintln!("pstore-trace schema: expected no argument or --check <doc.md>\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("pstore-trace schema: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let committed = text
        .split_once(SCHEMA_BEGIN)
        .and_then(|(_, rest)| rest.split_once(SCHEMA_END))
        .map(|(tables, _)| tables.trim());
    let Some(committed) = committed else {
        eprintln!(
            "pstore-trace schema: {} has no {SCHEMA_BEGIN} ... {SCHEMA_END} section",
            path.display()
        );
        return ExitCode::from(2);
    };
    let generated = generated.trim();
    if committed == generated {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "pstore-trace schema: the tables in {} are not what the schema in \
         crates/telemetry/src/event.rs generates; paste the output of \
         `pstore-trace schema` between the markers",
        path.display()
    );
    let mut lines = committed.lines().zip(generated.lines());
    if let Some((have, want)) = lines.find(|(have, want)| have != want) {
        eprintln!("  first difference:\n  - {have}\n  + {want}");
    }
    ExitCode::from(1)
}
