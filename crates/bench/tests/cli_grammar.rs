//! Every experiment binary parses its arguments through
//! `RunReporter::from_args`, which refuses anything outside the shared
//! grammar: exit status 2, usage on stderr, nothing on stdout, nothing
//! run and nothing written — so `fig9_comparison --help` cannot start the
//! multi-minute grid or rewrite `results/*.csv`. And what the grammar
//! asks for at exit must happen, or the exit status says it did not.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "tests abort loudly"
)]

use std::process::Command;

#[test]
fn unknown_flags_exit_2_before_anything_runs() {
    let bins = [
        env!("CARGO_BIN_EXE_fig9_comparison"),
        env!("CARGO_BIN_EXE_table1_schedule"),
    ];
    for bin in bins {
        for flag in ["--help", "--bogus"] {
            // An empty scratch cwd: any artefact the bin wrote would show.
            let cwd = std::env::temp_dir().join(format!(
                "pstore-cli-grammar-{}-{}",
                std::process::id(),
                flag.trim_start_matches('-')
            ));
            std::fs::create_dir_all(&cwd).unwrap();
            let out = Command::new(bin)
                .args(["--quick", flag])
                .current_dir(&cwd)
                .output()
                .expect("spawn the experiment binary");
            let written = std::fs::read_dir(&cwd).unwrap().count();
            std::fs::remove_dir_all(&cwd).ok();

            assert_eq!(out.status.code(), Some(2), "{bin} {flag}");
            assert!(out.stdout.is_empty(), "{bin} {flag} printed to stdout");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(flag) && stderr.contains("usage:"),
                "{bin} {flag}: {stderr}"
            );
            assert_eq!(written, 0, "{bin} {flag} wrote a file");
        }
    }
}

/// The `--summary` file is what the golden gate compares with `cmp`, so a
/// run that could not write it must not exit like one that did.
#[test]
fn unwritable_summary_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_schedule"))
        .args(["--quiet", "--summary", "/dev/null/x.json"])
        .output()
        .expect("spawn the experiment binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("summary: failed to write /dev/null/x.json"),
        "{stderr}"
    );
}
