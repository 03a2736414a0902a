//! End-to-end tests of the `pstore` CLI binary.
#![allow(
    clippy::expect_used,
    reason = "test helpers abort loudly on harness failures"
)]

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pstore"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn schedule_prints_the_table1_move() {
    let (ok, stdout, _) = run(&["schedule", "3", "14"]);
    assert!(ok);
    assert!(stdout.contains("11 rounds"));
    assert!(stdout.contains("33 pair transfers"));
    assert!(stdout.contains("avg 10.091 machines"));
}

#[test]
fn plan_produces_a_feasible_plan_or_explains_why_not() {
    let (ok, stdout, _) = run(&[
        "plan",
        "--load",
        "150,150,380,380,120",
        "--start",
        "2",
        "--q",
        "100",
        "--d-intervals",
        "2",
        "--partitions",
        "2",
        "--max",
        "8",
    ]);
    assert!(ok);
    assert!(stdout.contains("optimal plan"));
    assert!(stdout.contains("final machines"));

    // An impossible jump reports the emergency path instead of failing.
    let (ok, stdout, _) = run(&[
        "plan", "--load", "150,5000", "--start", "1", "--q", "100", "--max", "4",
    ]);
    assert!(ok);
    assert!(stdout.contains("no feasible plan"));
}

#[test]
fn bad_arguments_fail_with_a_message() {
    let (ok, _, stderr) = run(&["plan"]);
    assert!(!ok);
    assert!(stderr.contains("--load"));

    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = run(&["schedule", "0", "3"]);
    assert!(!ok);
    assert!(stderr.contains("positive"));
}

#[test]
fn simulate_runs_a_static_strategy_quickly() {
    let (ok, stdout, _) = run(&["simulate", "--days", "1", "--strategy", "static:6"]);
    assert!(ok);
    assert!(stdout.contains("avg machines"));
    assert!(stdout.contains("6.00"));
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage: pstore"));
}
