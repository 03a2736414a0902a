//! Trace reading, the walks every analyser shares, and run reports.
//!
//! A trace is a JSONL file (one [`Event`] per line) written by
//! [`crate::JsonlSink`]. This module reads traces back into decoded
//! [`Entry`]s, validates span pairing and nesting (the checks behind
//! `pstore-verify`'s `TEL-01` and `TEL-02`), segments a trace into
//! simulator runs ([`sim_runs`]) and reconstructs its reconfigurations
//! ([`reconfigs`]) for the `slo`, `prov` and `timeline` analysers, and
//! renders the run report, the first section of `pstore-trace explain`.

use crate::event::{Entry, Event, MetricsSnapshot, Record, SpanName};
use crate::json;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A line that failed to parse or decode: line number (1-based) and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number in the trace file.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

/// Reads and decodes a JSONL trace. Blank lines are skipped; lines that
/// are not JSON, not an event, or do not match the schema of their kind
/// are collected as [`LineError`]s rather than aborting the read, so a
/// truncated trace still yields its prefix.
///
/// # Errors
/// Returns `Err` only for I/O failures (missing/unreadable file).
pub fn read_jsonl(path: &Path) -> std::io::Result<(Vec<Entry>, Vec<LineError>)> {
    let text = std::fs::read_to_string(path)?;
    let mut trace = Vec::new();
    let mut errors = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| Event::from_json(&v))
            .and_then(|ev| Entry::decode(&ev).map_err(|e| e.to_string()));
        match parsed {
            Ok(entry) => trace.push(entry),
            Err(msg) => errors.push(LineError { line: idx + 1, msg }),
        }
    }
    Ok((trace, errors))
}

/// A structural problem with the spans in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanError {
    /// `span_end` whose id was never opened (or already closed).
    EndWithoutBegin {
        /// Offending event's sequence number.
        seq: u64,
        /// The unmatched span id.
        id: u64,
    },
    /// `span_begin` reusing an id that is still open.
    DuplicateBegin {
        /// Offending event's sequence number.
        seq: u64,
        /// The reused span id.
        id: u64,
    },
    /// `span_end` that closes a span other than the innermost open one
    /// (spans must nest LIFO).
    BadNesting {
        /// Offending event's sequence number.
        seq: u64,
        /// The id that was closed.
        closed: u64,
        /// The innermost open id that should have closed first.
        expected: u64,
    },
    /// Span still open at end of trace.
    Unclosed {
        /// The dangling span id.
        id: u64,
        /// The span's name, for the report.
        name: String,
    },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::EndWithoutBegin { seq, id } => {
                write!(f, "seq {seq}: span_end for id {id} which is not open")
            }
            SpanError::DuplicateBegin { seq, id } => {
                write!(f, "seq {seq}: span_begin reuses open id {id}")
            }
            SpanError::BadNesting {
                seq,
                closed,
                expected,
            } => write!(
                f,
                "seq {seq}: span {closed} closed while span {expected} is still innermost"
            ),
            SpanError::Unclosed { id, name } => {
                write!(f, "span {id} (\"{name}\") never closed")
            }
        }
    }
}

/// Validates span pairing and LIFO nesting over a trace.
///
/// Every `span_begin` must have exactly one matching `span_end`, ends
/// must close the innermost open span, and no span may remain open at
/// end of trace. This is the shared implementation behind `TEL-01`
/// (pairing) and `TEL-02` (nesting) in `pstore-verify`.
pub fn span_errors(trace: &[Entry]) -> Vec<SpanError> {
    let mut errors = Vec::new();
    // Stack of (id, name) for open spans, in open order.
    let mut stack: Vec<(u64, &str)> = Vec::new();
    for e in trace {
        match &e.record {
            Record::SpanBegin(b) => {
                if stack.iter().any(|(open, _)| *open == b.id) {
                    errors.push(SpanError::DuplicateBegin {
                        seq: e.seq,
                        id: b.id,
                    });
                } else {
                    stack.push((b.id, &b.name));
                }
            }
            Record::SpanEnd(end) => match stack.last() {
                Some((top, _)) if *top == end.id => {
                    stack.pop();
                }
                Some((top, _)) if stack.iter().any(|(open, _)| *open == end.id) => {
                    errors.push(SpanError::BadNesting {
                        seq: e.seq,
                        closed: end.id,
                        expected: *top,
                    });
                    stack.retain(|(open, _)| *open != end.id);
                }
                _ => errors.push(SpanError::EndWithoutBegin {
                    seq: e.seq,
                    id: end.id,
                }),
            },
            _ => {}
        }
    }
    for (id, name) in stack {
        errors.push(SpanError::Unclosed {
            id,
            name: name.to_string(),
        });
    }
    errors
}

/// An ordering problem in a trace (the `TEL-04` invariant).
#[derive(Debug, Clone, PartialEq)]
pub enum OrderError {
    /// `seq` did not strictly increase between consecutive events.
    SeqNotIncreasing {
        /// Previous event's sequence number.
        prev: u64,
        /// Offending event's sequence number.
        seq: u64,
    },
    /// `t` went backwards while spans were still open.
    TimeRegression {
        /// Offending event's sequence number.
        seq: u64,
        /// The previous timestamp.
        prev_t: f64,
        /// The regressed timestamp.
        t: f64,
    },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::SeqNotIncreasing { prev, seq } => {
                write!(f, "seq {seq} follows seq {prev}: not strictly increasing")
            }
            OrderError::TimeRegression { seq, prev_t, t } => {
                write!(f, "seq {seq}: t={t} regresses below t={prev_t} mid-run")
            }
        }
    }
}

/// Validates trace ordering (`TEL-04` in `pstore-verify`): `seq` must
/// strictly increase, and the sim clock `t` must be non-decreasing —
/// except that `t` may reset when no span is open, because a merged
/// sweep trace restarts simulated time at 0 for each cell (cell
/// boundaries always coincide with an empty span stack).
pub fn order_errors(trace: &[Entry]) -> Vec<OrderError> {
    let mut errors = Vec::new();
    let mut prev_seq: Option<u64> = None;
    let mut prev_t: Option<f64> = None;
    let mut open_depth: usize = 0;
    for e in trace {
        if let Some(prev) = prev_seq {
            if e.seq <= prev {
                errors.push(OrderError::SeqNotIncreasing { prev, seq: e.seq });
            }
        }
        prev_seq = Some(e.seq);
        if let Some(t) = e.t {
            match prev_t {
                Some(p) if t < p => {
                    if open_depth == 0 {
                        prev_t = Some(t); // legitimate per-cell clock reset
                    } else {
                        errors.push(OrderError::TimeRegression {
                            seq: e.seq,
                            prev_t: p,
                            t,
                        });
                    }
                }
                _ => prev_t = Some(t),
            }
        }
        match &e.record {
            Record::SpanBegin(_) => open_depth += 1,
            Record::SpanEnd(_) => open_depth = open_depth.saturating_sub(1),
            _ => {}
        }
    }
    errors
}

/// Segments a trace into simulator runs: a run is everything from a
/// `detailed_sim`/`fast_sim` `span_begin` at the segmentation depth
/// (span depth 0 for a top-level run) to its matching end, labelled
/// `{index}:{span name}` — a merged fig9-style trace holds one run per
/// approach. Where no simulator span is open, the first record that
/// `starts_implicit` accepts opens an implicit run labelled
/// `{index}:trace`, which lasts until the next simulator span or the end
/// of the trace.
pub fn sim_runs(
    trace: &[Entry],
    starts_implicit: impl Fn(&Record) -> bool,
) -> Vec<(String, &[Entry])> {
    let mut runs: Vec<(String, &[Entry])> = Vec::new();
    // (first entry, label, span depth inside the run) of the open run.
    let mut current: Option<(usize, String, usize)> = None;
    let mut depth: usize = 0;
    for (i, e) in trace.iter().enumerate() {
        let (begins, ends, name) = match &e.record {
            Record::SpanBegin(b) => (true, false, b.name.as_str()),
            Record::SpanEnd(end) => (false, true, end.name.as_str()),
            _ => (false, false, ""),
        };
        let is_sim = name == SpanName::DetailedSim.as_str() || name == SpanName::FastSim.as_str();
        if begins && is_sim && current.as_ref().is_none_or(|(_, _, base)| depth == *base) {
            if let Some((start, label, _)) = current.take() {
                runs.push((label, &trace[start..i]));
            }
            current = Some((i, format!("{}:{name}", runs.len()), depth + 1));
        }
        if begins {
            depth += 1;
        }
        if current.is_none() && starts_implicit(&e.record) {
            current = Some((i, format!("{}:trace", runs.len()), 0));
        }
        if ends {
            depth = depth.saturating_sub(1);
            if is_sim && matches!(&current, Some((_, _, base)) if depth + 1 == *base) {
                if let Some((start, label, _)) = current.take() {
                    runs.push((label, &trace[start..=i]));
                }
            }
        }
    }
    if let Some((start, label, _)) = current {
        runs.push((label, &trace[start..]));
    }
    runs
}

/// One reconfiguration reconstructed from its `reconfig` span pair.
#[derive(Debug, Clone)]
pub struct Reconfig {
    /// Start time (sim seconds), if the begin event carried a clock.
    pub start: Option<f64>,
    /// End time (sim seconds), if the span closed and its end event
    /// carried a clock.
    pub end: Option<f64>,
    /// Whether the span closed inside the walked entries.
    pub finished: bool,
    /// Machine count before.
    pub from: Option<u64>,
    /// Machine count after.
    pub to: Option<u64>,
    /// `chunk_move` events observed while the span was open.
    pub chunk_moves: u64,
    /// Bytes moved across those chunk moves.
    pub bytes_moved: u64,
}

/// The reconfigurations of a trace (or of one run of it), in start order.
/// A chunk move counts toward every reconfiguration open at the time
/// (normally one).
pub fn reconfigs(trace: &[Entry]) -> Vec<Reconfig> {
    let mut out: Vec<Reconfig> = Vec::new();
    // Open reconfig spans: (span id, index into `out`).
    let mut open: Vec<(u64, usize)> = Vec::new();
    for e in trace {
        match &e.record {
            Record::SpanBegin(b) if b.name == SpanName::Reconfig => {
                open.push((b.id, out.len()));
                out.push(Reconfig {
                    start: e.t,
                    end: None,
                    finished: false,
                    from: b.from,
                    to: b.to,
                    chunk_moves: 0,
                    bytes_moved: 0,
                });
            }
            Record::SpanEnd(end) if end.name == SpanName::Reconfig => {
                if let Some(pos) = open.iter().position(|&(id, _)| id == end.id) {
                    let (_, idx) = open.remove(pos);
                    out[idx].end = e.t;
                    out[idx].finished = true;
                }
            }
            Record::ChunkMove(mv) => {
                for &(_, idx) in &open {
                    out[idx].chunk_moves += 1;
                    out[idx].bytes_moved += mv.bytes;
                }
            }
            _ => {}
        }
    }
    out
}

/// Aggregated view of a whole trace, renderable as a text report.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Total events in the trace.
    pub events: usize,
    /// Reconfigurations, in start order.
    pub reconfigs: Vec<Reconfig>,
    /// Event counts by kind, descending.
    pub kind_counts: Vec<(String, usize)>,
    /// p99 histogram of `second` events outside reconfigurations.
    pub stable_p99: Histogram,
    /// p99 histogram of `second` events during reconfigurations.
    pub reconfig_p99: Histogram,
    /// Throughput histogram over all `second` events.
    pub throughput: Histogram,
    /// Count of `sla_violation` events.
    pub sla_violations: u64,
    /// Count of `planner` events.
    pub planner_calls: u64,
    /// Count of feasible `planner` events.
    pub planner_feasible: u64,
    /// Count of `forecast_predict` events.
    pub forecasts: u64,
    /// Count of `chunk_move` events (anywhere in the trace).
    pub chunk_moves: u64,
    /// Structural span problems (TEL-01/02); `pstore-trace` exits 1 on any.
    pub span_errors: Vec<SpanError>,
    /// The trailing `metrics_snapshot` event, if the run emitted one.
    pub metrics_snapshot: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Builds a report from a decoded trace.
    pub fn from_trace(trace: &[Entry]) -> Self {
        let mut report = RunReport {
            events: trace.len(),
            reconfigs: reconfigs(trace),
            span_errors: span_errors(trace),
            ..RunReport::default()
        };
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for e in trace {
            *counts.entry(e.record.kind()).or_insert(0) += 1;
            match &e.record {
                Record::ChunkMove(_) => report.chunk_moves += 1,
                Record::Second(s) => {
                    if s.reconfiguring {
                        report.reconfig_p99.record(s.p99);
                    } else {
                        report.stable_p99.record(s.p99);
                    }
                    #[allow(
                        clippy::cast_precision_loss,
                        reason = "per-second counts far below 2^53"
                    )]
                    report.throughput.record(s.throughput as f64);
                }
                Record::SlaViolation(_) => report.sla_violations += 1,
                Record::Planner(p) => {
                    report.planner_calls += 1;
                    report.planner_feasible += u64::from(p.feasible);
                }
                Record::ForecastPredict(_) => report.forecasts += 1,
                Record::MetricsSnapshot(snap) => report.metrics_snapshot = Some(snap.clone()),
                _ => {}
            }
        }
        let mut kind_counts: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        kind_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        report.kind_counts = kind_counts;
        report
    }

    /// Renders the human-readable report text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events", self.events);
        let _ = writeln!(out);

        let _ = writeln!(out, "== event kinds ==");
        for (kind, n) in self.kind_counts.iter().take(12) {
            let _ = writeln!(out, "  {kind:<20} {n:>8}");
        }
        let _ = writeln!(out);

        let _ = writeln!(
            out,
            "== reconfigurations ({} total, {} chunk moves) ==",
            self.reconfigs.len(),
            self.chunk_moves
        );
        for (i, r) in self.reconfigs.iter().enumerate() {
            let from = r.from.map_or("?".to_string(), |v| v.to_string());
            let to = r.to.map_or("?".to_string(), |v| v.to_string());
            let window = match (r.start, r.end) {
                (Some(s), Some(e)) => format!("t={s:.1}s..{e:.1}s ({:.1}s)", e - s),
                (Some(s), None) => format!("t={s:.1}s.. (unfinished)"),
                _ => "t=?".to_string(),
            };
            let _ = writeln!(
                out,
                "  #{i:<3} {from:>3} -> {to:<3} machines  {window}  {} chunks, {} bytes",
                r.chunk_moves, r.bytes_moved
            );
        }
        let _ = writeln!(out);

        let _ = writeln!(out, "== per-second latency (p99, seconds) ==");
        let _ = writeln!(
            out,
            "  phase        seconds     p50      p95      p99      max"
        );
        for (label, h) in [
            ("stable", &self.stable_p99),
            ("reconfig", &self.reconfig_p99),
        ] {
            let _ = writeln!(
                out,
                "  {label:<10} {:>8} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max()
            );
        }
        let _ = writeln!(out, "  SLA-violation seconds: {}", self.sla_violations);
        let _ = writeln!(out);

        let _ = writeln!(out, "== counters ==");
        let _ = writeln!(
            out,
            "  planner calls: {} ({} feasible)   forecasts: {}   throughput seconds: {}",
            self.planner_calls,
            self.planner_feasible,
            self.forecasts,
            self.throughput.count()
        );
        if let Some(snap) = &self.metrics_snapshot {
            let _ = writeln!(out, "  metrics snapshot ({} fields):", snap.values.len());
            for (k, v) in snap.values.iter().take(24) {
                let rendered = match v {
                    crate::Value::U64(n) => n.to_string(),
                    crate::Value::I64(n) => n.to_string(),
                    crate::Value::F64(n) => format!("{n:.4}"),
                    crate::Value::Bool(b) => b.to_string(),
                    crate::Value::Str(s) => s.clone(),
                };
                let _ = writeln!(out, "    {k:<32} {rendered}");
            }
        }

        if !self.span_errors.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "== span errors ({}) ==", self.span_errors.len());
            for e in &self.span_errors {
                let _ = writeln!(out, "  {e}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChunkMove, Second, SpanBegin, SpanEnd, TxnArrive};

    fn begin(seq: u64, id: u64, name: &str) -> Entry {
        Entry {
            seq,
            ..Entry::new(SpanBegin::new(id, name))
        }
    }

    fn end(seq: u64, id: u64, name: &str) -> Entry {
        Entry {
            seq,
            ..Entry::new(SpanEnd::new(id, name))
        }
    }

    fn at(t: f64, mut e: Entry) -> Entry {
        e.t = Some(t);
        e
    }

    #[test]
    fn well_nested_spans_pass() {
        let trace = vec![
            begin(1, 1, "outer"),
            begin(2, 2, "inner"),
            end(3, 2, "inner"),
            end(4, 1, "outer"),
        ];
        assert!(span_errors(&trace).is_empty());
    }

    #[test]
    fn detects_unmatched_and_misnested_spans() {
        let unclosed = vec![begin(1, 1, "a")];
        assert!(matches!(
            span_errors(&unclosed)[0],
            SpanError::Unclosed { id: 1, .. }
        ));

        let stray_end = vec![end(1, 9, "a")];
        assert!(matches!(
            span_errors(&stray_end)[0],
            SpanError::EndWithoutBegin { id: 9, .. }
        ));

        let crossed = vec![
            begin(1, 1, "a"),
            begin(2, 2, "b"),
            end(3, 1, "a"),
            end(4, 2, "b"),
        ];
        let errs = span_errors(&crossed);
        assert!(errs.iter().any(|e| matches!(
            e,
            SpanError::BadNesting {
                closed: 1,
                expected: 2,
                ..
            }
        )));

        let dup = vec![begin(1, 1, "a"), begin(2, 1, "a")];
        assert!(span_errors(&dup)
            .iter()
            .any(|e| matches!(e, SpanError::DuplicateBegin { id: 1, .. })));
    }

    #[test]
    fn report_reconstructs_reconfig_timeline() {
        let trace = vec![
            Entry::at(10.0, SpanBegin::reconfig(5, 2, 4)),
            Entry::new(ChunkMove {
                bytes: 1000,
                ..ChunkMove::default()
            }),
            at(25.0, end(3, 5, SpanName::Reconfig.as_str())),
            Entry::new(Second {
                p99: 0.04,
                throughput: 500,
                ..Second::default()
            }),
        ];
        let report = RunReport::from_trace(&trace);
        assert_eq!(report.reconfigs.len(), 1);
        let r = &report.reconfigs[0];
        assert_eq!((r.from, r.to), (Some(2), Some(4)));
        assert_eq!((r.chunk_moves, r.bytes_moved), (1, 1000));
        assert_eq!((r.start, r.end, r.finished), (Some(10.0), Some(25.0), true));
        assert_eq!(report.stable_p99.count(), 1);
        assert_eq!(report.reconfig_p99.count(), 0);
        assert!(report.span_errors.is_empty());
        let text = report.render();
        assert!(text.contains("reconfigurations (1 total"));
    }

    #[test]
    fn sim_runs_segment_on_top_level_sim_spans_and_implicit_starts() {
        let sim = SpanName::DetailedSim.as_str();
        let second = || Entry::new(Second::default());
        let trace = vec![
            second(), // implicit run 0, closed by the sim span below
            begin(2, 1, sim),
            begin(3, 2, "tick"),
            end(4, 2, "tick"),
            end(5, 1, sim),
            Entry::new(TxnArrive::default()), // between runs: nobody's
            begin(7, 3, sim),
            second(),
        ];
        let runs = sim_runs(&trace, |r| matches!(r, Record::Second(_)));
        let shape: Vec<(&str, usize)> = runs.iter().map(|(l, r)| (l.as_str(), r.len())).collect();
        assert_eq!(
            shape,
            [("0:trace", 1), ("1:detailed_sim", 4), ("2:detailed_sim", 2)]
        );
        assert!(sim_runs(&trace[5..6], |r| matches!(r, Record::Second(_))).is_empty());
    }

    #[test]
    fn order_errors_flags_seq_and_time_regressions() {
        let ev = |seq: u64, t: f64| {
            at(
                t,
                Entry {
                    seq,
                    ..Entry::new(TxnArrive::default())
                },
            )
        };
        // Clean, monotone trace.
        let clean = vec![ev(1, 0.0), ev(2, 1.0), ev(3, 1.0)];
        assert!(order_errors(&clean).is_empty());

        // Duplicate / regressing seq.
        let dup_seq = vec![ev(5, 0.0), ev(5, 1.0), ev(3, 2.0)];
        let errs = order_errors(&dup_seq);
        assert_eq!(errs.len(), 2);
        assert!(matches!(
            errs[0],
            OrderError::SeqNotIncreasing { prev: 5, seq: 5 }
        ));

        // t regression while a span is open is an error...
        let mid_span = vec![at(5.0, begin(1, 1, "run")), ev(2, 3.0)];
        assert!(matches!(
            order_errors(&mid_span)[0],
            OrderError::TimeRegression { seq: 2, .. }
        ));

        // ...but a reset at an empty span stack (sweep cell boundary) is fine.
        let cell_boundary = vec![
            at(0.0, begin(1, 1, "run")),
            ev(2, 9.0),
            at(9.0, end(3, 1, "run")),
            ev(4, 0.0),
        ];
        assert!(order_errors(&cell_boundary).is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "miri isolation rejects real file I/O")]
    fn read_jsonl_collects_line_errors() {
        let path = std::env::temp_dir().join("pstore_telemetry_trace_test.jsonl");
        std::fs::write(
            &path,
            "{\"seq\":1,\"kind\":\"a\"}\nnot json\n\n{\"seq\":2,\"kind\":\"txn_arrive\",\"id\":1}\n",
        )
        .unwrap();
        let (trace, errors) = read_jsonl(&path).unwrap();
        // The unknown kind is data; the txn_arrive without its slot is not.
        assert_eq!(trace.len(), 1);
        assert_eq!(
            errors.iter().map(|e| e.line).collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert!(errors[1].msg.contains("\"slot\""), "{}", errors[1].msg);
        let _ = std::fs::remove_file(&path);
    }
}
