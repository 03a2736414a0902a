//! `pstore-trace`: reads a JSONL telemetry trace back and explains the run.
//!
//! ```text
//! pstore-trace explain <trace.jsonl>
//! pstore-trace schema  [--check <doc.md>]
//! ```
//!
//! `explain` decodes the trace once and prints, separated by blank lines:
//! the run report (event counts, reconfigurations, latency histograms,
//! span errors, the final metrics snapshot); the latency attribution with
//! every SLA-violation window and the reconfiguration or chunk moves it
//! overlaps; the provisioning audit (capacity ledger, each decision with
//! its forecast, lead and outcome, forecast error by horizon,
//! under-forecast windows), only when the trace carries `prov_*` events;
//! and the timeline with the `!` violation and `P>`/`R` decision overlays.
//!
//! `schema` prints the event-kind/field and span-name tables generated
//! from the one schema in `crates/telemetry/src/event.rs`; `--check`
//! compares them with the text between the `<!-- schema:begin -->` and
//! `<!-- schema:end -->` lines of a document (docs/observability.md) and
//! exits 1 when they differ.
//!
//! The numbers `explain` is built from (`slo.*`, `prov.*`) are pinned by
//! the golden summary `results/golden/fig9_quick.summary.json`, which
//! `RunReporter --summary` writes and the gate compares with `cmp`.
//!
//! Exit codes: 0 = clean; 1 = a trace with no events, a line that does
//! not parse or does not match the schema of its kind, an unmatched or
//! misnested span (TEL-01/02), an ordering violation (TEL-04), or a stale
//! schema table; 2 = usage or I/O error. The gate's and CI's telemetry
//! steps rely on these.

use pstore_telemetry::trace::{order_errors, read_jsonl, RunReport};
use pstore_telemetry::{prov, slo, timeline};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: pstore-trace <subcommand> ...
  explain <trace.jsonl>
  schema  [--check <doc.md>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match first.as_str() {
        "explain" => cmd_explain(&args[1..]),
        "schema" => cmd_schema(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("pstore-trace: unknown subcommand \"{first}\"\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Reads and decodes one trace and prints its explanation. Exits 2 on a
/// usage or I/O error; 1 when the trace has no events (nothing printed),
/// a line failed to parse or decode, a span did not pair or nest
/// (TEL-01/02) or the events are out of order (TEL-04); else 0. Every
/// error goes to stderr.
fn cmd_explain(args: &[String]) -> ExitCode {
    let path = match args {
        [path] if !path.starts_with('-') => Path::new(path),
        _ => {
            eprintln!("pstore-trace explain: expected one trace path\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (trace, line_errors) = match read_jsonl(path) {
        Ok(read) => read,
        Err(e) => {
            eprintln!("pstore-trace: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
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
    if trace.is_empty() {
        eprintln!("pstore-trace: no events in {}", path.display());
        return ExitCode::from(1);
    }
    let report = RunReport::from_trace(&trace);
    let slo_runs = slo::analyze(&trace);
    let prov_runs = prov::analyze(&trace);
    let mut sections = vec![report.render(), slo::render(&slo_runs)];
    if !prov_runs.is_empty() {
        sections.push(prov::render(&prov_runs));
    }
    sections.push(timeline::render(
        &trace,
        timeline::DEFAULT_WIDTH,
        &slo::violation_times(&slo_runs),
        &prov::decision_times(&prov_runs),
    ));
    print!("{}", sections.join("\n"));

    let span_errors = &report.span_errors;
    let ordering = order_errors(&trace);
    if !span_errors.is_empty() {
        eprintln!("pstore-trace: {} span error(s):", span_errors.len());
        for e in span_errors.iter().take(10) {
            eprintln!("  {e}");
        }
    }
    if !ordering.is_empty() {
        eprintln!("pstore-trace: {} ordering violation(s):", ordering.len());
        for e in ordering.iter().take(10) {
            eprintln!("  {e}");
        }
    }
    let failed = !line_errors.is_empty() || !span_errors.is_empty() || !ordering.is_empty();
    ExitCode::from(u8::from(failed))
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
