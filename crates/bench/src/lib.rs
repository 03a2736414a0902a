//! Output helpers shared by the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! and prints it as plain text: a data table (the numbers behind the
//! figure) plus, where it helps, an ASCII plot for a quick visual check of
//! the *shape* — which is what the reproduction is graded on.

#![warn(missing_docs)]

pub mod fig9;
pub mod sweep;

/// Renders a numeric series as a compact ASCII area plot.
///
/// `width` columns (the series is bucket-averaged to fit) and `height`
/// rows. Returns a multi-line string, highest values on the top row.
pub fn ascii_plot(values: &[f64], width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0, "plot dimensions must be positive");
    if values.is_empty() {
        return String::from("(empty series)\n");
    }
    // Bucket-average to `width` columns.
    let cols: Vec<f64> = (0..width)
        .map(|c| {
            let lo = c * values.len() / width;
            let hi = ((c + 1) * values.len() / width)
                .max(lo + 1)
                .min(values.len());
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let max = cols.iter().copied().fold(f64::MIN, f64::max);
    let min = cols.iter().copied().fold(f64::MAX, f64::min).min(0.0);
    let span = (max - min).max(1e-12);

    let mut out = String::new();
    for row in (0..height).rev() {
        let threshold = min + span * (row as f64 + 0.5) / height as f64;
        let label = min + span * (row as f64 + 1.0) / height as f64;
        out.push_str(&format!("{label:>10.0} |"));
        for &v in &cols {
            out.push(if v >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out
}

/// Renders two series in one ASCII plot (`#` where only the first is
/// present, `*` where only the second, `@` where both overlap). Series are
/// bucket-averaged to the same width and share the y-scale.
pub fn ascii_plot2(a: &[f64], b: &[f64], width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0, "plot dimensions must be positive");
    let bucket = |values: &[f64]| -> Vec<f64> {
        (0..width)
            .map(|c| {
                let lo = c * values.len() / width;
                let hi = (((c + 1) * values.len()) / width)
                    .max(lo + 1)
                    .min(values.len());
                values[lo..hi].iter().sum::<f64>() / (hi - lo).max(1) as f64
            })
            .collect()
    };
    let ca = bucket(a);
    let cb = bucket(b);
    let max = ca.iter().chain(cb.iter()).copied().fold(f64::MIN, f64::max);
    let min = ca
        .iter()
        .chain(cb.iter())
        .copied()
        .fold(f64::MAX, f64::min)
        .min(0.0);
    let span = (max - min).max(1e-12);

    let mut out = String::new();
    for row in (0..height).rev() {
        let threshold = min + span * (row as f64 + 0.5) / height as f64;
        let label = min + span * (row as f64 + 1.0) / height as f64;
        out.push_str(&format!("{label:>10.0} |"));
        for c in 0..width {
            let ha = ca[c] >= threshold;
            let hb = cb[c] >= threshold;
            out.push(match (ha, hb) {
                (true, true) => '@',
                (true, false) => '#',
                (false, true) => '*',
                (false, false) => ' ',
            });
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str("            # = series 1, * = series 2, @ = both\n");
    out
}

/// Prints a titled section separator.
pub fn section(title: &str) {
    println!();
    println!(
        "== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

/// Shared run harness for the experiment binaries and the one place their
/// arguments are parsed (anything else is refused with exit status 2):
/// `--quick` (smaller runs), `--quiet` (suppress progress chatter),
/// `--threads N` (worker threads for the [`sweep`] runner; default:
/// available parallelism), `--trace <path>`
/// (write a telemetry JSONL trace of the run and print a summary at
/// exit) and `--summary <path>` (write a `pstore-run-summary/v1` JSON
/// digest at exit — the format of the golden
/// `results/golden/fig9_quick.summary.json`, checked with `cmp`).
///
/// `cargo run -p pstore-bench --bin fig9_comparison -- --trace
/// /tmp/fig9.jsonl` writes the run's trace; `pstore-trace explain` reads
/// it back. Without `--trace` or `--summary` no sink is installed
/// and the run emits nothing.
///
/// This is also the one place the environment chooses what a trace
/// contains: `PSTORE_PROV_EVENTS=1` (or `true`/`on`) adds the
/// provisioning-observatory `prov_*` family to the installed
/// [`TraceSpec`](pstore_telemetry::TraceSpec).
pub struct RunReporter {
    quick: bool,
    quiet: bool,
    threads: usize,
    trace_path: Option<std::path::PathBuf>,
    summary_path: Option<std::path::PathBuf>,
    // Set when `--summary` was given without `--trace`: the trace goes to
    // a temp file that is deleted after the summary is derived from it.
    trace_is_temp: bool,
    // Keeps the telemetry sink installed for the lifetime of the run.
    _sink_guard: Option<pstore_telemetry::SinkGuard>,
}

impl RunReporter {
    /// Parses the process arguments — the one flag grammar of every
    /// experiment binary — and, when `--trace` or `--summary` is present,
    /// installs a JSONL telemetry sink for the rest of the run.
    ///
    /// # Panics
    /// Prints the usage and exits with status 2, before anything runs or
    /// is written, on any other argument (`--help` included) or a flag
    /// without its value; exits likewise if the trace file cannot be
    /// created.
    #[must_use]
    pub fn from_args() -> Self {
        fn usage_exit(msg: &str) -> ! {
            let bin = std::env::args().next().unwrap_or_default();
            eprintln!(
                "error: {msg}\nusage: {bin} [--quick] [--quiet] [--threads N] \
                 [--trace PATH] [--summary PATH]"
            );
            std::process::exit(2)
        }
        let (mut quick, mut quiet, mut threads) = (false, false, 0usize);
        let (mut trace_path, mut summary_path) = (None, None);
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--quiet" => quiet = true,
                "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => threads = n,
                    _ => usage_exit("--threads requires a positive integer argument"),
                },
                "--trace" | "--summary" => {
                    let Some(path) = args.next() else {
                        usage_exit(&format!("{arg} requires a file path argument"));
                    };
                    let slot = if arg == "--trace" {
                        &mut trace_path
                    } else {
                        &mut summary_path
                    };
                    *slot = Some(std::path::PathBuf::from(path));
                }
                _ => usage_exit(&format!("unrecognised argument `{arg}`")),
            }
        }

        // `--summary` derives its numbers from a trace read-back; when no
        // `--trace` destination was named, write to a temp file and clean
        // it up in `finish()`.
        let trace_is_temp = summary_path.is_some() && trace_path.is_none();
        if trace_is_temp {
            trace_path = Some(
                std::env::temp_dir()
                    .join(format!("pstore_summary_trace_{}.jsonl", std::process::id())),
            );
        }

        let jsonl: Option<std::rc::Rc<dyn pstore_telemetry::Sink>> =
            trace_path.as_ref().map(|path| {
                let sink = match pstore_telemetry::JsonlSink::create(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot create trace file {}: {e}", path.display());
                        std::process::exit(2);
                    }
                };
                std::rc::Rc::new(sink) as std::rc::Rc<dyn pstore_telemetry::Sink>
            });
        let spec = pstore_telemetry::TraceSpec {
            prov: std::env::var("PSTORE_PROV_EVENTS")
                .is_ok_and(|v| matches!(v.as_str(), "1" | "true" | "on")),
            ..Default::default()
        };
        RunReporter {
            quick,
            quiet,
            threads,
            trace_path,
            summary_path,
            trace_is_temp,
            _sink_guard: jsonl.map(|sink| pstore_telemetry::install_with(sink, spec)),
        }
    }

    /// Whether `--quick` was given.
    #[must_use]
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Whether `--quiet` was given.
    #[must_use]
    pub fn quiet(&self) -> bool {
        self.quiet
    }

    /// The `--threads N` argument (0 when absent: the sweep runner
    /// resolves it to the available parallelism).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Prints a progress line to stderr unless `--quiet` was given.
    pub fn progress(&self, msg: &str) {
        if !self.quiet {
            eprintln!("{msg}");
        }
    }

    /// Finalises the run: snapshots the metrics registry into the trace,
    /// flushes the sink, prints a compact summary of the emitted trace and,
    /// with `--summary <path>`, writes the `pstore-run-summary/v1` document
    /// the golden gate compares with `cmp`.
    ///
    /// Exits with status 1 — after the run's own output — when the trace
    /// cannot be read back, when any of its lines does not decode (no
    /// summary is written from a partial trace), or when the summary cannot
    /// be written.
    pub fn finish(self) {
        let Some(path) = self.trace_path.clone() else {
            return;
        };
        let summary_path = self.summary_path.clone();
        let trace_is_temp = self.trace_is_temp;
        pstore_telemetry::emit_metrics_snapshot();
        pstore_telemetry::flush();
        // Drop the guard (uninstalling the sink and closing the file)
        // before reading the trace back.
        drop(self);
        let outcome = read_back(&path, summary_path.as_deref(), !trace_is_temp);
        if trace_is_temp {
            let _ = std::fs::remove_file(&path);
        }
        if let Err(msg) = outcome {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

/// Reads the finished trace at `path` back, prints its one-line digest when
/// `announce`, and writes the summary to `summary_path` if one was asked
/// for. `Err` is the message `finish` exits 1 with.
fn read_back(
    path: &std::path::Path,
    summary_path: Option<&std::path::Path>,
    announce: bool,
) -> Result<(), String> {
    let (events, line_errors) = pstore_telemetry::trace::read_jsonl(path)
        .map_err(|e| format!("trace: failed to read back {}: {e}", path.display()))?;
    if announce {
        let report = pstore_telemetry::trace::RunReport::from_trace(&events);
        eprintln!(
            "trace: {} events -> {} ({} reconfigurations, {} chunk moves, \
             {} planner calls, {} parse errors); inspect with `pstore-trace explain {}`",
            events.len(),
            path.display(),
            report.reconfigs.len(),
            report.chunk_moves,
            report.planner_calls,
            line_errors.len(),
            path.display(),
        );
    }
    if let Some(first) = line_errors.first() {
        return Err(format!(
            "trace: {} line(s) of {} do not decode, first at line {}: {}; no summary written",
            line_errors.len(),
            path.display(),
            first.line,
            first.msg
        ));
    }
    let Some(spath) = summary_path else {
        return Ok(());
    };
    if let Some(parent) = spath.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let summary = pstore_telemetry::RunSummary::from_trace(&events);
    std::fs::write(spath, summary.to_json())
        .map_err(|e| format!("summary: failed to write {}: {e}", spath.display()))?;
    eprintln!("summary: wrote {}", spath.display());
    Ok(())
}

/// Writes a CSV file (numeric rows with a header) — plot-friendly dumps of
/// experiment data.
///
/// # Errors
/// Propagates I/O errors from creating or writing the file.
pub fn write_csv(
    path: &std::path::Path,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "{}", header.join(","))?;
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "row width mismatch");
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(file, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Formats seconds as `h:mm:ss`.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "clamped to >= 0 before truncating to whole seconds"
)]
pub fn hms(seconds: f64) -> String {
    let s = seconds.max(0.0) as u64;
    format!("{}:{:02}:{:02}", s / 3600, (s % 3600) / 60, s % 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_has_requested_dimensions() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin() + 1.0).collect();
        let plot = ascii_plot(&values, 40, 8);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 9); // 8 rows + axis
        assert!(lines[0].len() >= 40);
    }

    #[test]
    fn plot_peak_is_on_top_row() {
        let mut values = vec![0.0; 50];
        values[25] = 10.0;
        let plot = ascii_plot(&values, 50, 5);
        let top = plot.lines().next().unwrap();
        assert!(top.contains('#'));
    }

    #[test]
    fn plot2_marks_overlap() {
        let a = vec![5.0; 30];
        let b = vec![5.0; 30];
        let plot = ascii_plot2(&a, &b, 30, 4);
        assert!(plot.contains('@'));
    }

    #[test]
    fn empty_series_is_handled() {
        assert!(ascii_plot(&[], 10, 3).contains("empty"));
    }

    #[test]
    fn csv_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("pstore-csv-test");
        let path = dir.join("out.csv");
        write_csv(&path, &["t", "x"], vec![vec![0.0, 1.5], vec![1.0, 2.5]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "t,x\n0,1.5\n1,2.5\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_trace_that_does_not_decode_gets_no_summary() {
        let dir = std::env::temp_dir().join(format!("pstore-read-back-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, summary) = (dir.join("t.jsonl"), dir.join("s.json"));
        std::fs::write(&trace, "garbage line\n").unwrap();
        let err = read_back(&trace, Some(&summary), false).unwrap_err();
        assert!(err.contains("first at line 1"), "{err}");
        assert!(!summary.exists());
        assert!(read_back(&dir.join("missing.jsonl"), None, false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hms_formats() {
        assert_eq!(hms(3725.0), "1:02:05");
        assert_eq!(hms(0.0), "0:00:00");
    }
}
