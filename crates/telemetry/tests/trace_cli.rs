//! End-to-end tests of the `pstore-trace` binary: what `explain` prints
//! (the library renders, in order), exit codes, and robustness to
//! malformed traces (truncated lines, unknown kinds, out-of-order seq,
//! unmatched spans, no events at all) — the CLI must report line-numbered
//! errors and exit non-zero instead of panicking.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers abort loudly on harness failures"
)]

use pstore_telemetry::timeline::{self, DEFAULT_WIDTH};
use pstore_telemetry::trace::{read_jsonl, RunReport};
use pstore_telemetry::{prov, slo};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pstore-trace")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn pstore-trace")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pstore_trace_cli_{}_{name}", std::process::id()))
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).expect("write fixture");
}

/// A small well-formed trace in event-time order: one reconfiguration
/// with a chunk move, nested spans, and per-second samples.
fn good_trace() -> String {
    let second = |seq: u64, s: u64, machines: u64, reconf: bool| {
        format!(
            r#"{{"seq":{seq},"t":{s},"kind":"second","second":{s},"throughput":1000,"p50":0.004,"p95":0.01,"p99":0.02,"mean":0.005,"machines":{machines},"reconfiguring":{reconf},"attr_total":5,"attr_queue":1,"attr_exec":4,"attr_stall":0,"win_p50":0.004,"win_p95":0.01,"win_p99":0.02}}"#
        )
    };
    let lines = vec![
        r#"{"seq":1,"t":0,"kind":"span_begin","id":1,"name":"detailed_sim"}"#
            .to_string(),
        second(2, 0, 2, false),
        second(3, 1, 2, false),
        r#"{"seq":4,"t":2,"kind":"span_begin","id":2,"name":"reconfig","from":2,"to":3}"#
            .to_string(),
        second(5, 2, 2, true),
        r#"{"seq":6,"t":2.5,"kind":"chunk_move","from":0,"to":2,"slot":5,"bytes":4096,"rows":16,"slot_completed":true}"#
            .to_string(),
        second(7, 3, 3, true),
        r#"{"seq":8,"t":4,"kind":"span_end","id":2,"name":"reconfig"}"#.to_string(),
        second(9, 4, 3, false),
        second(10, 5, 3, false),
        r#"{"seq":11,"t":5,"kind":"sla_violation","second":5,"p99":0.2}"#.to_string(),
        r#"{"seq":12,"t":6,"kind":"span_end","id":1,"name":"detailed_sim"}"#.to_string(),
    ];
    lines.join("\n") + "\n"
}

#[test]
fn truncated_line_reports_line_number_and_fails() {
    let path = tmp("truncated.jsonl");
    let mut text = good_trace();
    text.push_str("{\"seq\":13,\"t\":7,\"kind\":\"seco"); // mid-write truncation
    write(&path, &text);
    let out = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unparseable line(s)"), "stderr: {err}");
    assert!(err.contains("line 13"), "stderr: {err}");
    let _ = std::fs::remove_file(&path);
}

/// A known kind whose payload does not match its schema is reported like
/// malformed JSON — line number, exit 1 — not analysed as a zero.
#[test]
fn mistyped_field_reports_line_number_and_fails() {
    let path = tmp("mistyped.jsonl");
    let text = prov_trace().replace(r#""target":3"#, r#""target":"six""#);
    write(&path, &text);
    let out = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("line 16: prov_decision"), "stderr: {err}");
    assert!(
        err.contains(r#"field "target" is not u64"#),
        "stderr: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_kind_is_tolerated_not_fatal() {
    let path = tmp("unknown_kind.jsonl");
    let text = good_trace() + "{\"seq\":13,\"t\":7,\"kind\":\"experimental_new_kind\",\"x\":1}\n";
    write(&path, &text);
    let out = run(&["explain", path.to_str().unwrap()]);
    // Unknown kinds are forward-compatible data, not corruption.
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("experimental_new_kind"));
    let _ = std::fs::remove_file(&path);
}

/// The good trace with one `seq` going backwards (TEL-04).
#[test]
fn out_of_order_seq_fails_with_ordering_violation() {
    let path = tmp("out_of_order.jsonl");
    write(&path, &good_trace().replace("{\"seq\":6,", "{\"seq\":3,"));
    let out = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("ordering violation"),
        "stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_file(&path);
}

/// The good trace with the reconfiguration's `span_end` missing, so the
/// span never closes and `detailed_sim` ends over it (TEL-01/02).
#[test]
fn explain_fails_on_an_unmatched_span() {
    let path = tmp("unmatched_span.jsonl");
    let end = r#"{"seq":8,"t":4,"kind":"span_end","id":2,"name":"reconfig"}"#;
    let text = good_trace().replace(&format!("{end}\n"), "");
    assert_ne!(text, good_trace());
    write(&path, &text);
    let out = run(&["explain", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("span error(s)"),
        "stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_file(&path);
}

/// A run that emitted nothing is not a clean run: an empty file (and one
/// of blank lines only) exits 1 with nothing on stdout.
#[test]
fn explain_fails_on_a_trace_with_no_events() {
    let path = tmp("empty.jsonl");
    for text in ["", "\n\n"] {
        write(&path, text);
        let out = run(&["explain", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{text:?}");
        assert!(stdout(&out).is_empty(), "{text:?}");
        assert!(
            stderr(&out).contains("no events"),
            "stderr: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_and_bad_usage_exit_2() {
    let path = tmp("usage.jsonl");
    write(&path, &good_trace());
    let path = path.to_str().unwrap();
    let out = run(&["explain", "/nonexistent/definitely_missing.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    for args in [
        &[][..],
        &["explain"],
        &["explain", path, "--bogus"],
        // The bare-path form, the subcommands `explain` replaced, the
        // timeline width and the span profiler are gone.
        &[path],
        &["report", path],
        &["slo", path],
        &["explain", path, "--width", "32"],
        &["profile", path],
        &["explain", path, "--wall"],
        // The summary writer is `RunReporter --summary`.
        &["explain", path, "--summary", "out.json"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
    let _ = std::fs::remove_file(path);
}

/// The good trace extended with a provisioning run: header, per-interval
/// capacity samples, a predictive decision (lead 2) that triggers a
/// scale-out, and a scored forecast joined to its observation.
fn prov_trace() -> String {
    good_trace()
        + concat!(
            r#"{"seq":13,"t":0,"kind":"prov_run","q":1000,"d_s":2,"interval_s":1,"initial":2,"policy":"predictive"}"#,
            "\n",
            r#"{"seq":14,"t":1,"kind":"prov_interval","interval":0,"observed":1500,"machines":2,"reconfiguring":false}"#,
            "\n",
            r#"{"seq":15,"t":1,"kind":"prov_forecast","interval":3,"horizon":2,"model":"oracle","predicted":2500,"observed":2500}"#,
            "\n",
            r#"{"seq":16,"t":1,"kind":"prov_decision","id":1,"interval":1,"machines":2,"target":3,"reason":"planned","trigger":0.9,"peak":2500,"cost":1,"lead":2,"rate":1}"#,
            "\n",
            r#"{"seq":17,"t":2,"kind":"prov_interval","interval":1,"observed":1500,"machines":2,"reconfiguring":true}"#,
            "\n",
            r#"{"seq":18,"t":3,"kind":"prov_interval","interval":2,"observed":1600,"machines":2,"reconfiguring":true}"#,
            "\n",
            r#"{"seq":19,"t":3,"kind":"prov_chunk","id":1,"from":0,"to":2,"bytes":4096}"#,
            "\n",
            r#"{"seq":20,"t":3,"kind":"prov_reconfig","id":1,"from":2,"to":3,"start":1,"duration_s":2,"chunks":1,"rows":16,"bytes":4096}"#,
            "\n",
            r#"{"seq":21,"t":4,"kind":"prov_interval","interval":3,"observed":2500,"machines":3,"reconfiguring":false}"#,
            "\n",
        )
}

/// The four library renders `explain` is made of, in order, separated
/// by one blank line: the run report, the SLA attribution, the
/// provisioning audit (only with `prov_*` events), and the timeline with
/// both overlays.
fn library_renders(path: &Path) -> String {
    let (trace, errors) = read_jsonl(path).unwrap();
    assert!(errors.is_empty(), "{errors:?}");
    let slo_runs = slo::analyze(&trace);
    let prov_runs = prov::analyze(&trace);
    let mut sections = vec![
        RunReport::from_trace(&trace).render(),
        slo::render(&slo_runs),
    ];
    if !prov_runs.is_empty() {
        sections.push(prov::render(&prov_runs));
    }
    sections.push(timeline::render(
        &trace,
        DEFAULT_WIDTH,
        &slo::violation_times(&slo_runs),
        &prov::decision_times(&prov_runs),
    ));
    sections.join("\n")
}

#[test]
fn explain_prints_the_library_renders_in_order() {
    for (name, text) in [("good", good_trace()), ("prov", prov_trace())] {
        let path = tmp(&format!("explain_{name}.jsonl"));
        write(&path, &text);
        let out = run(&["explain", path.to_str().unwrap()]);
        assert!(out.status.success(), "{name} stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), library_renders(&path), "{name}");
        // Deterministic output for the same trace.
        let again = run(&["explain", path.to_str().unwrap()]);
        assert_eq!(stdout(&out), stdout(&again), "{name}");
        let _ = std::fs::remove_file(&path);
    }
}

/// `explain`'s last section is the Gantt timeline of nodes and moves.
#[test]
fn timeline_renders_gantt() {
    let path = tmp("timeline.jsonl");
    write(&path, &good_trace());
    let out = run(&["explain", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("== timeline =="), "stdout: {text}");
    assert!(text.contains("node   0"), "stdout: {text}");
    assert!(text.contains("2 -> 3"), "stdout: {text}");
    assert!(text.contains("chunk moves: 1"), "stdout: {text}");
    let _ = std::fs::remove_file(&path);
}

/// The timeline gains a `plan` row only when the trace carries
/// provisioning decisions.
#[test]
fn timeline_overlays_decisions_when_prov_events_present() {
    let plain = tmp("timeline_plain.jsonl");
    write(&plain, &good_trace());
    let out = run(&["explain", plain.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(!stdout(&out).contains("plan     |"));

    let prov = tmp("timeline_prov.jsonl");
    write(&prov, &prov_trace());
    let out = run(&["explain", prov.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // The decision overlay for the lead-2 decision.
    assert!(
        text.contains("'P>' predictive decision+lead"),
        "stdout: {text}"
    );
    assert!(text.contains("plan     |"), "stdout: {text}");
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&prov);
}

/// On a trace with `prov_*` events `explain` adds the provisioning audit:
/// the capacity ledger, the decision chain and the forecast error.
#[test]
fn provisioning_renders_ledger_and_audit() {
    let path = tmp("provisioning.jsonl");
    write(&path, &prov_trace());
    let out = run(&["explain", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("capacity ledger"), "stdout: {text}");
    assert!(
        text.contains("== decisions (forecast -> decision -> cost -> SLA) =="),
        "stdout: {text}"
    );
    assert!(text.contains("forecast error"), "stdout: {text}");
    assert!(text.contains("1 predictive, 0 reactive"), "stdout: {text}");
    let _ = std::fs::remove_file(&path);
}

/// A trace without `prov_*` events is not an error: `explain` prints the
/// report and SLA sections and no capacity ledger.
#[test]
fn explain_without_prov_events_exits_0_and_prints_no_ledger() {
    let path = tmp("explain_plain.jsonl");
    write(&path, &good_trace());
    let out = run(&["explain", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("reconfigurations (1 total"), "stdout: {text}");
    assert!(text.contains("== latency attribution"), "stdout: {text}");
    assert!(!text.contains("capacity ledger"), "stdout: {text}");
    let _ = std::fs::remove_file(&path);
}

/// The committed docs carry exactly the tables the schema generates, and
/// the check fails on a copy with one field renamed.
#[test]
fn schema_check_passes_on_the_docs_and_fails_on_a_renamed_field() {
    let docs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let out = run(&["schema", "--check", docs]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let text = std::fs::read_to_string(docs).unwrap();
    assert!(text.contains("| | `slot_completed` |"));
    let stale = tmp("stale_schema.md");
    write(
        &stale,
        &text.replace("| | `slot_completed` |", "| | `slot_done` |"),
    );
    let out = run(&["schema", "--check", stale.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("`slot_done`") && err.contains("`slot_completed`"),
        "stderr: {err}"
    );

    // Printed and checked tables are the same text.
    let printed = stdout(&run(&["schema"]));
    assert!(text.contains(printed.trim()));
    let _ = std::fs::remove_file(&stale);
}
