//! ASCII Gantt timeline: machine activity, reconfiguration windows, and
//! chunk moves over simulated time.
//!
//! One row per machine (node), one column per time bucket:
//!
//! - `.` — node not provisioned at that time
//! - `#` — node active (serving)
//! - `=` — node inside a reconfiguration window whose machine range
//!   covers it (scale-out adds it / scale-in drains it)
//! - `M` — at least one chunk moved from or to the node in the bucket
//!
//! Built from `second` events (activity), `reconfig` span pairs
//! (windows, with `from`/`to` machine counts), and `chunk_move` events
//! (endpoints are 0-based node ids). Output is deterministic for a
//! fixed-seed trace: it depends only on event payloads, never on wall
//! time.

use crate::event::{whole, Entry, Record};
use crate::trace;
use std::fmt::Write as _;

/// Default number of time-bucket columns.
pub const DEFAULT_WIDTH: usize = 96;

struct ReconfigWindow {
    t_begin: f64,
    t_end: f64,
    from: u64,
    to: u64,
    finished: bool,
}

/// Renders the timeline for a trace; `width` is the column count
/// (clamped to `[16, 512]`). Two optional overlays, each a dedicated row
/// aligned under the node rows so a column reads straight up against the
/// machine activity, reconfiguration shading and chunk moves above it:
///
/// - `violations` — timestamps of SLA-violating seconds (see
///   [`crate::slo::violation_times`]); each lands a `!` in an `sla` row.
/// - `decisions` — `(t, lead_s)` pairs (see
///   [`crate::prov::decision_times`]) in a `plan` row: a predictive
///   decision (`lead_s > 0`) prints `P` at the decision time with a `>`
///   arrow running to the interval it provisioned for, so the lead D is
///   visible as horizontal distance; a reactive decision prints a bare
///   `R` at the moment it fired. Reading a `P`'s arrow against the `=`
///   shading above shows whether capacity arrived before the demand it
///   was bought for.
///
/// With both empty the output is the plain timeline, byte for byte.
pub fn render(
    trace: &[Entry],
    width: usize,
    violations: &[f64],
    decisions: &[(f64, f64)],
) -> String {
    let width = width.clamp(16, 512);
    let mut seconds: Vec<(f64, u64)> = Vec::new();
    let mut moves: Vec<(f64, u64, u64)> = Vec::new();
    let mut t_max = f64::NEG_INFINITY;
    let mut t_min = f64::INFINITY;

    for e in trace {
        let Some(t) = e.t else { continue };
        t_min = t_min.min(t);
        t_max = t_max.max(t);
        match &e.record {
            // A fractional machine count (mid-move average) draws nothing.
            Record::Second(s) => seconds.extend(whole(s.machines).map(|m| (t, m))),
            Record::ChunkMove(mv) => moves.push((t, mv.from, mv.to)),
            _ => {}
        }
    }
    // Unclosed reconfigurations run to the end of the trace.
    let mut windows: Vec<ReconfigWindow> = trace::reconfigs(trace)
        .iter()
        .filter_map(|r| {
            let t_begin = r.start?;
            Some(ReconfigWindow {
                t_begin,
                t_end: r.end.unwrap_or(t_max),
                from: r.from?,
                to: r.to?,
                finished: r.end.is_some(),
            })
        })
        .collect();
    windows.sort_by(|a, b| a.t_begin.total_cmp(&b.t_begin));

    if !t_min.is_finite() || t_max <= t_min {
        return "== timeline ==\n  (no timestamped events in trace)\n".to_string();
    }

    let nodes = node_count(&seconds, &windows, &moves);
    let span = t_max - t_min;
    let bucket = |t: f64| -> usize {
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "clamped into [0, width-1]"
        )]
        {
            #[allow(clippy::cast_precision_loss, reason = "width <= 512")]
            let raw = ((t - t_min) / span * width as f64).floor();
            (raw.max(0.0) as usize).min(width - 1)
        }
    };

    let mut grid = vec![vec!['.'; width]; nodes];
    // Activity: machines >= node index + 1 at a sampled second.
    for &(t, machines) in &seconds {
        let col = bucket(t);
        for (node, row) in grid.iter_mut().enumerate() {
            let node = u64::try_from(node).unwrap_or(u64::MAX);
            if node < machines && row[col] == '.' {
                row[col] = '#';
            }
        }
    }
    // Reconfiguration windows shade the machine range they change.
    for w in &windows {
        let lo = w.from.min(w.to);
        let hi = w.from.max(w.to);
        for col in bucket(w.t_begin)..=bucket(w.t_end) {
            for (node, row) in grid.iter_mut().enumerate() {
                let node = u64::try_from(node).unwrap_or(u64::MAX);
                if node >= lo && node < hi {
                    row[col] = '=';
                }
            }
        }
    }
    // Chunk moves mark both endpoints.
    for &(t, from, to) in &moves {
        let col = bucket(t);
        for node in [from, to] {
            if let Ok(node) = usize::try_from(node) {
                if let Some(row) = grid.get_mut(node) {
                    row[col] = 'M';
                }
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "== timeline ==");
    let _ = writeln!(
        out,
        "  t = {t_min:.1}s .. {t_max:.1}s  ({:.2}s per column, {width} columns)",
        span / {
            #[allow(clippy::cast_precision_loss, reason = "width <= 512")]
            {
                width as f64
            }
        }
    );
    let overlay = if violations.is_empty() {
        ""
    } else {
        "  '!' SLA violation"
    };
    let decision_overlay = if decisions.is_empty() {
        ""
    } else {
        "  'P>' predictive decision+lead  'R' reactive decision"
    };
    let _ = writeln!(
        out,
        "  legend: '.' off  '#' active  '=' reconfiguring  'M' chunk move{overlay}{decision_overlay}"
    );
    for (node, row) in grid.iter().enumerate().rev() {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "  node {node:>3} |{line}|");
    }
    if !violations.is_empty() {
        let mut row = vec![' '; width];
        let mut shown = 0u64;
        for &t in violations {
            if t >= t_min && t <= t_max {
                row[bucket(t)] = '!';
                shown += 1;
            }
        }
        let line: String = row.iter().collect();
        let _ = writeln!(out, "  sla      |{line}|");
        let _ = writeln!(out, "  sla-violation seconds: {shown}");
    }
    if !decisions.is_empty() {
        let mut row = vec![' '; width];
        let mut predictive = 0u64;
        let mut reactive = 0u64;
        for &(t, lead_s) in decisions {
            if !(t >= t_min && t <= t_max) {
                continue;
            }
            let col = bucket(t);
            if lead_s > 0.0 {
                predictive += 1;
                // Arrow from the decision column toward the interval it
                // provisioned for; the marker wins over arrow shafts so
                // overlapping decisions stay countable.
                let tip = bucket((t + lead_s).min(t_max));
                for cell in row.iter_mut().take(tip + 1).skip(col + 1) {
                    if *cell == ' ' {
                        *cell = '>';
                    }
                }
                row[col] = 'P';
            } else {
                reactive += 1;
                row[col] = 'R';
            }
        }
        let line: String = row.iter().collect();
        let _ = writeln!(out, "  plan     |{line}|");
        let _ = writeln!(
            out,
            "  decisions: {} predictive, {} reactive",
            predictive, reactive
        );
    }
    let _ = writeln!(out, "  reconfigurations: {}", windows.len());
    for w in &windows {
        let suffix = if w.finished { "" } else { "  (unfinished)" };
        let _ = writeln!(
            out,
            "    {:>4} -> {:<4} @ {:.1}s .. {:.1}s ({:.1}s){suffix}",
            w.from,
            w.to,
            w.t_begin,
            w.t_end,
            w.t_end - w.t_begin
        );
    }
    let _ = writeln!(out, "  chunk moves: {}", moves.len());
    out
}

fn node_count(
    seconds: &[(f64, u64)],
    windows: &[ReconfigWindow],
    moves: &[(f64, u64, u64)],
) -> usize {
    let mut max = 1u64;
    for &(_, m) in seconds {
        max = max.max(m);
    }
    for w in windows {
        max = max.max(w.from).max(w.to);
    }
    for &(_, from, to) in moves {
        max = max.max(from + 1).max(to + 1);
    }
    usize::try_from(max.min(512)).unwrap_or(512)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChunkMove, Second, SpanBegin, SpanEnd, SpanName};

    fn sample_trace() -> Vec<Entry> {
        let mut trace: Vec<Entry> = (0..10u32)
            .map(|s| {
                let second = Second {
                    machines: if s < 5 { 2.0 } else { 3.0 },
                    p99: 0.01,
                    ..Second::default()
                };
                Entry::at(f64::from(s), second)
            })
            .collect();
        trace.push(Entry::at(4.0, SpanBegin::reconfig(7, 2, 3)));
        trace.push(Entry::at(
            4.5,
            ChunkMove {
                from: 0,
                to: 2,
                bytes: 4096,
                ..ChunkMove::default()
            },
        ));
        trace.push(Entry::at(6.0, SpanEnd::new(7, SpanName::Reconfig)));
        trace
    }

    #[test]
    fn renders_rows_windows_and_moves() {
        let out = render(&sample_trace(), 32, &[], &[]);
        assert!(out.contains("node   0"));
        assert!(out.contains("node   2"));
        assert!(!out.contains("node   3"));
        assert!(out.contains("reconfigurations: 1"));
        assert!(out.contains("2 -> 3"));
        assert!(out.contains("chunk moves: 1"));
        assert!(out.contains('M'));
        assert!(out.contains('='));
        assert!(out.contains('#'));
    }

    #[test]
    fn deterministic_for_same_trace() {
        let trace = sample_trace();
        assert_eq!(render(&trace, 48, &[], &[]), render(&trace, 48, &[], &[]));
    }

    #[test]
    fn unfinished_reconfig_is_flagged() {
        let mut trace = sample_trace();
        trace.retain(|e| !matches!(e.record, Record::SpanEnd(_)));
        let out = render(&trace, 32, &[], &[]);
        assert!(out.contains("(unfinished)"));
    }

    #[test]
    fn violation_overlay_adds_aligned_sla_row() {
        let trace = sample_trace();
        let plain = render(&trace, 32, &[], &[]);
        assert!(!plain.contains("sla"));
        let out = render(&trace, 32, &[4.0, 5.0, 99.0], &[]);
        assert!(out.contains("'!' SLA violation"));
        // Out-of-range timestamps are dropped from the count.
        assert!(out.contains("sla-violation seconds: 2"));
        let sla_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("sla      |"))
            .expect("sla row");
        let node_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("node"))
            .expect("node row");
        // The overlay row's cells align column-for-column with node rows.
        assert_eq!(
            sla_line.find('|').expect("bar"),
            node_line.find('|').expect("bar")
        );
        assert!(sla_line.contains('!'));
    }

    #[test]
    fn decision_overlay_draws_lead_arrows_and_reactive_marks() {
        let trace = sample_trace();
        let out = render(&trace, 32, &[], &[(2.0, 5.0), (8.0, 0.0)]);
        assert!(out.contains("'P>' predictive decision+lead"));
        let plan_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("plan     |"))
            .expect("plan row");
        let node_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("node"))
            .expect("node row");
        assert_eq!(
            plan_line.find('|').expect("bar"),
            node_line.find('|').expect("bar")
        );
        assert!(plan_line.contains('P'));
        assert!(plan_line.contains('>'));
        assert!(plan_line.contains('R'));
        // The P marker precedes its arrow shaft, which precedes the R.
        let p = plan_line.find('P').expect("P");
        let arrow = plan_line.find('>').expect(">");
        let r = plan_line.find('R').expect("R");
        assert!(p < arrow && arrow < r);
        assert!(out.contains("decisions: 1 predictive, 1 reactive"));
    }

    #[test]
    fn empty_trace_degrades_gracefully() {
        let out = render(&[], 32, &[], &[]);
        assert!(out.contains("no timestamped events"));
        let untimed = vec![Entry::new(Second::default())];
        assert!(render(&untimed, 32, &[], &[]).contains("no timestamped events"));
    }
}
