//! SLA-window detection and end-to-end latency attribution over a trace.
//!
//! The simulator decomposes every transaction's latency into queueing,
//! execution, and migration-interference ("stall") time and publishes the
//! per-second sums on `second` events (`attr_queue`/`attr_exec`/
//! `attr_stall`/`attr_total`; the TEL-06 identity is
//! `queue + exec + stall == total`). This module reads a trace back,
//! segments it into simulator runs (top-level `detailed_sim`/`fast_sim`
//! spans — a merged fig9-style trace holds one run per approach), finds
//! SLA-violation windows (maximal stretches of seconds whose p99 exceeds
//! the 500 ms SLA, tolerating 1-second gaps), and correlates each window
//! with the reconfiguration spans and chunk moves active at the time.
//! That turns the paper's headline claim — reactive provisioning blows
//! the SLA *because of* migration interference, predictive holds it —
//! into a measured, regression-gated artifact (`slo.*` summary metrics).

use crate::event::{Entry, Record};
use crate::trace::{self, Reconfig};
use std::fmt::Write as _;

/// The SLA threshold in seconds (the paper's 500 ms).
pub const SLA_THRESHOLD_S: f64 = 0.5;

/// Attribution lead, in seconds: migration activity ending at most this
/// long before a violation window still counts as overlapping it — the
/// queues a chunk burst builds keep violating after the last chunk lands.
pub const MIGRATION_LEAD_S: f64 = 5.0;

/// A reconfiguration span reconstructed inside one run.
#[derive(Debug, Clone)]
pub struct ReconfigSpan {
    /// Start time (sim seconds).
    pub start: f64,
    /// End time; for a span still open at end of run, the run's last
    /// timestamp.
    pub end: f64,
    /// Machine count before, if recorded.
    pub from: Option<u64>,
    /// Machine count after, if recorded.
    pub to: Option<u64>,
    /// Chunk moves observed while the span was open.
    pub chunk_moves: u64,
}

/// One SLA-violation window: a maximal run of violating seconds
/// (`p99 > SLA_THRESHOLD_S`), tolerating single-second gaps.
#[derive(Debug, Clone)]
pub struct SlaWindow {
    /// First violating second (inclusive).
    pub start: u64,
    /// Last violating second (inclusive).
    pub end: u64,
    /// Violating seconds inside the window (gaps excluded).
    pub violation_seconds: u64,
    /// Worst p99 inside the window.
    pub peak_p99: f64,
    /// Migration-stall txn-seconds accumulated over the window.
    pub stall_s: f64,
    /// Chunk moves inside `[start - MIGRATION_LEAD_S, end + 1]`.
    pub chunk_moves: u64,
    /// Index (into [`RunSlo::reconfigs`]) of the first reconfiguration
    /// span overlapping the window (with the lead), if any.
    pub reconfig: Option<usize>,
}

impl SlaWindow {
    /// Wall-clock length of the window in seconds.
    pub fn len_s(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Whether the window is attributable to migration activity: an
    /// overlapping reconfiguration span or chunk moves in range.
    pub fn migration_attributed(&self) -> bool {
        self.reconfig.is_some() || self.chunk_moves > 0
    }
}

/// Attribution and SLA analysis of one simulator run.
#[derive(Debug, Clone, Default)]
pub struct RunSlo {
    /// Run label: `{index}:{span name}` (or `0:trace` for a trace with no
    /// simulator spans).
    pub label: String,
    /// `second` events observed.
    pub seconds: u64,
    /// Total queueing txn-seconds.
    pub queue_s: f64,
    /// Total execution txn-seconds.
    pub exec_s: f64,
    /// Total migration-stall txn-seconds.
    pub stall_s: f64,
    /// Total end-to-end txn-seconds (`queue + exec + stall`).
    pub total_s: f64,
    /// Seconds whose p99 exceeded the SLA.
    pub violation_seconds: u64,
    /// Violation windows, in time order.
    pub windows: Vec<SlaWindow>,
    /// Reconfiguration spans of this run, in start order.
    pub reconfigs: Vec<ReconfigSpan>,
    /// Trace timestamps of the violating `second` events (for overlays).
    pub violation_times: Vec<f64>,
}

/// Analyzes one run: attribution totals, violating seconds merged into
/// windows, each window correlated with the run's migration activity.
fn analyze_run(label: String, run: &[Entry]) -> RunSlo {
    let mut slo = RunSlo {
        label,
        ..RunSlo::default()
    };
    // `(second, p99, attr_stall)` of violating seconds, in order.
    let mut violations: Vec<(u64, f64, f64)> = Vec::new();
    let mut chunk_moves: Vec<f64> = Vec::new();
    let mut t_max = f64::NEG_INFINITY;
    for e in run {
        if let Some(t) = e.t {
            t_max = t_max.max(t);
        }
        match &e.record {
            Record::Second(s) => {
                slo.seconds += 1;
                slo.queue_s += s.attr_queue;
                slo.exec_s += s.attr_exec;
                slo.stall_s += s.attr_stall;
                slo.total_s += s.attr_total;
                if s.p99 > SLA_THRESHOLD_S {
                    violations.push((s.second, s.p99, s.attr_stall));
                    #[allow(clippy::cast_precision_loss, reason = "run lengths far below 2^53")]
                    slo.violation_times.push(e.t.unwrap_or(s.second as f64));
                }
            }
            Record::ChunkMove(_) => chunk_moves.extend(e.t),
            _ => {}
        }
    }
    // Spans still open at end of run extend to the last timestamp.
    slo.reconfigs = trace::reconfigs(run)
        .into_iter()
        .filter_map(|r: Reconfig| {
            let start = r.start?;
            let end = match r.end {
                Some(end) => end,
                None if r.finished || !t_max.is_finite() => start,
                None => t_max.max(start),
            };
            Some(ReconfigSpan {
                start,
                end,
                from: r.from,
                to: r.to,
                chunk_moves: r.chunk_moves,
            })
        })
        .collect();
    // Merge violating seconds into windows, tolerating 1-second gaps.
    for &(second, p99, stall) in &violations {
        match slo.windows.last_mut() {
            Some(w) if second <= w.end + 2 => {
                w.end = w.end.max(second);
                w.violation_seconds += 1;
                w.peak_p99 = w.peak_p99.max(p99);
                w.stall_s += stall;
            }
            _ => slo.windows.push(SlaWindow {
                start: second,
                end: second,
                violation_seconds: 1,
                peak_p99: p99,
                stall_s: stall,
                chunk_moves: 0,
                reconfig: None,
            }),
        }
    }
    // Correlate each window with migration activity.
    #[allow(clippy::cast_precision_loss, reason = "run lengths far below 2^53")]
    for w in &mut slo.windows {
        let lo = w.start as f64 - MIGRATION_LEAD_S;
        let hi = w.end as f64 + 1.0;
        w.chunk_moves = u64::try_from(chunk_moves.iter().filter(|&&t| t >= lo && t <= hi).count())
            .unwrap_or(u64::MAX);
        w.reconfig = slo
            .reconfigs
            .iter()
            .position(|r| r.start <= hi && r.end >= lo);
    }
    slo.violation_seconds = u64::try_from(violations.len()).unwrap_or(u64::MAX);
    slo
}

/// Segments a trace into simulator runs ([`trace::sim_runs`]; a trace
/// without simulator spans yields one implicit run labelled `0:trace`
/// when it contains any `second` events) and analyzes each.
pub fn analyze(trace: &[Entry]) -> Vec<RunSlo> {
    trace::sim_runs(trace, |r| matches!(r, Record::Second(_)))
        .into_iter()
        .map(|(label, run)| analyze_run(label, run))
        .collect()
}

/// Flattens the analysis into `pstore-run-summary/v1` metrics:
/// `slo.run{i}.{windows,migration_windows,violation_seconds,stall_s}`
/// per run, plus cluster-wide totals under `slo.total.*`.
pub fn metrics(runs: &[RunSlo]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    #[allow(clippy::cast_precision_loss, reason = "counts far below 2^53")]
    for (i, r) in runs.iter().enumerate() {
        let mig = r
            .windows
            .iter()
            .filter(|w| w.migration_attributed())
            .count();
        out.push((format!("slo.run{i}.windows"), r.windows.len() as f64));
        out.push((format!("slo.run{i}.migration_windows"), mig as f64));
        out.push((
            format!("slo.run{i}.violation_seconds"),
            r.violation_seconds as f64,
        ));
        out.push((format!("slo.run{i}.stall_s"), r.stall_s));
    }
    #[allow(clippy::cast_precision_loss, reason = "counts far below 2^53")]
    if !runs.is_empty() {
        out.push((
            "slo.total.windows".to_string(),
            runs.iter().map(|r| r.windows.len()).sum::<usize>() as f64,
        ));
        out.push((
            "slo.total.violation_seconds".to_string(),
            runs.iter().map(|r| r.violation_seconds).sum::<u64>() as f64,
        ));
        out.push((
            "slo.total.stall_s".to_string(),
            runs.iter().map(|r| r.stall_s).sum::<f64>(),
        ));
    }
    out
}

/// All violating-second timestamps across runs (for timeline overlays).
pub fn violation_times(runs: &[RunSlo]) -> Vec<f64> {
    let mut t: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.violation_times.iter().copied())
        .collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Renders the attribution table and per-window report.
pub fn render(runs: &[RunSlo]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== latency attribution (txn-seconds per run) ==");
    let _ = writeln!(
        out,
        "  {:<16} {:>8} {:>11} {:>11} {:>11} {:>7} {:>7} {:>8} {:>8}",
        "run", "seconds", "queue_s", "exec_s", "stall_s", "stall%", "viol_s", "windows", "mig-win"
    );
    for r in runs {
        let stall_pct = if r.total_s > 0.0 {
            100.0 * r.stall_s / r.total_s
        } else {
            0.0
        };
        let mig = r
            .windows
            .iter()
            .filter(|w| w.migration_attributed())
            .count();
        let _ = writeln!(
            out,
            "  {:<16} {:>8} {:>11.2} {:>11.2} {:>11.2} {:>6.2}% {:>7} {:>8} {:>8}",
            r.label,
            r.seconds,
            r.queue_s,
            r.exec_s,
            r.stall_s,
            stall_pct,
            r.violation_seconds,
            r.windows.len(),
            mig
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "== SLA-violation windows (p99 > {SLA_THRESHOLD_S}s) =="
    );
    let mut any = false;
    for r in runs {
        for w in &r.windows {
            any = true;
            let attribution = match w.reconfig {
                Some(idx) => {
                    let rc = &r.reconfigs[idx];
                    let from = rc.from.map_or("?".to_string(), |v| v.to_string());
                    let to = rc.to.map_or("?".to_string(), |v| v.to_string());
                    format!(
                        "reconfig #{idx} ({from}->{to} machines, t={:.1}s..{:.1}s, {} chunks in range)",
                        rc.start, rc.end, w.chunk_moves
                    )
                }
                None if w.chunk_moves > 0 => {
                    format!("{} chunk moves in range (no reconfig span)", w.chunk_moves)
                }
                None => "no migration activity in range".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<16} t={}s..{}s ({}s, {} violating)  peak p99 {:.3}s  stall {:.2}s  {attribution}",
                r.label,
                w.start,
                w.end,
                w.len_s(),
                w.violation_seconds,
                w.peak_p99,
                w.stall_s
            );
        }
    }
    if !any {
        let _ = writeln!(out, "  (none)");
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact arithmetic")]
    use super::*;
    use crate::event::{ChunkMove, Second, SpanBegin, SpanEnd};

    const SPAN_BEGIN: bool = true;
    const SPAN_END: bool = false;
    const DETAILED_SIM: &str = "detailed_sim";
    const RECONFIG: &str = "reconfig";

    fn seq(trace: &mut [Entry]) {
        for (i, e) in trace.iter_mut().enumerate() {
            e.seq = u64::try_from(i).unwrap_or(u64::MAX) + 1;
        }
    }

    fn second(t: f64, second: u64, p99: f64, stall: f64) -> Entry {
        Entry::at(
            t,
            Second {
                second,
                p99,
                attr_queue: 1.0,
                attr_exec: 2.0,
                attr_stall: stall,
                attr_total: 3.0 + stall,
                ..Second::default()
            },
        )
    }

    fn span(begin: bool, t: f64, id: u64, name: &str) -> Entry {
        if begin {
            Entry::at(t, SpanBegin::new(id, name))
        } else {
            Entry::at(t, SpanEnd::new(id, name))
        }
    }

    fn reconfig_begin(t: f64, id: u64, from: u64, to: u64) -> Entry {
        Entry::at(t, SpanBegin::reconfig(id, from, to))
    }

    #[test]
    fn windows_merge_across_single_second_gaps() {
        let mut events = vec![
            span(SPAN_BEGIN, 0.0, 1, DETAILED_SIM),
            second(10.0, 10, 0.9, 0.5),
            second(11.0, 11, 0.1, 0.0), // 1-second gap: same window
            second(12.0, 12, 0.8, 0.3),
            second(20.0, 20, 0.7, 0.0), // far away: new window
            span(SPAN_END, 30.0, 1, DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.windows.len(), 2);
        assert_eq!((r.windows[0].start, r.windows[0].end), (10, 12));
        assert_eq!(r.windows[0].violation_seconds, 2);
        assert_eq!(r.windows[0].peak_p99, 0.9);
        assert!((r.windows[0].stall_s - 0.8).abs() < 1e-12);
        assert_eq!((r.windows[1].start, r.windows[1].end), (20, 20));
        assert_eq!(r.violation_seconds, 3);
    }

    #[test]
    fn windows_overlapping_migration_are_attributed() {
        let mut events = vec![
            span(SPAN_BEGIN, 0.0, 1, DETAILED_SIM),
            reconfig_begin(8.0, 2, 2, 4),
            Entry::at(9.0, ChunkMove::default()),
            second(10.0, 10, 0.9, 1.5),
            span(SPAN_END, 11.0, 2, RECONFIG),
            second(40.0, 40, 0.6, 0.0), // far from any migration
            span(SPAN_END, 50.0, 1, DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        let r = &runs[0];
        assert_eq!(r.windows.len(), 2);
        assert!(r.windows[0].migration_attributed());
        assert_eq!(r.windows[0].reconfig, Some(0));
        assert_eq!(r.windows[0].chunk_moves, 1);
        assert!(!r.windows[1].migration_attributed());
        assert_eq!(r.reconfigs.len(), 1);
        assert_eq!(r.reconfigs[0].chunk_moves, 1);
    }

    #[test]
    fn multi_run_traces_segment_per_sim_span() {
        let mut events = vec![
            span(SPAN_BEGIN, 0.0, 1, DETAILED_SIM),
            second(5.0, 5, 0.9, 0.2),
            span(SPAN_END, 10.0, 1, DETAILED_SIM),
            span(SPAN_BEGIN, 0.0, 2, DETAILED_SIM),
            second(5.0, 5, 0.1, 0.0),
            span(SPAN_END, 10.0, 2, DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "0:detailed_sim");
        assert_eq!(runs[1].label, "1:detailed_sim");
        assert_eq!(runs[0].windows.len(), 1);
        assert_eq!(runs[1].windows.len(), 0);
        let m = metrics(&runs);
        let get = |k: &str| {
            m.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(get("slo.run0.windows"), 1.0);
        assert_eq!(get("slo.run1.windows"), 0.0);
        assert_eq!(get("slo.total.violation_seconds"), 1.0);
        assert_eq!(get("slo.run0.stall_s"), 0.2);
    }

    #[test]
    fn traces_without_sim_spans_form_an_implicit_run() {
        let mut events = vec![second(1.0, 1, 0.9, 0.0), second(2.0, 2, 0.8, 0.0)];
        seq(&mut events);
        let runs = analyze(&events);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "0:trace");
        assert_eq!(runs[0].violation_seconds, 2);
        assert_eq!(violation_times(&runs), vec![1.0, 2.0]);
    }

    #[test]
    fn attribution_totals_accumulate() {
        let mut events = vec![
            span(SPAN_BEGIN, 0.0, 1, DETAILED_SIM),
            second(1.0, 1, 0.1, 0.5),
            second(2.0, 2, 0.1, 0.25),
            span(SPAN_END, 3.0, 1, DETAILED_SIM),
        ];
        seq(&mut events);
        let r = &analyze(&events)[0];
        assert_eq!(r.queue_s, 2.0);
        assert_eq!(r.exec_s, 4.0);
        assert_eq!(r.stall_s, 0.75);
        assert_eq!(r.total_s, 6.75);
        assert_eq!(r.seconds, 2);
    }

    #[test]
    fn render_names_the_attributed_reconfig() {
        let mut events = vec![
            span(SPAN_BEGIN, 0.0, 1, DETAILED_SIM),
            reconfig_begin(8.0, 2, 2, 4),
            second(10.0, 10, 0.9, 1.0),
            span(SPAN_END, 12.0, 2, RECONFIG),
            span(SPAN_END, 20.0, 1, DETAILED_SIM),
        ];
        seq(&mut events);
        let runs = analyze(&events);
        let text = render(&runs);
        assert!(text.contains("latency attribution"));
        assert!(text.contains("0:detailed_sim"));
        assert!(text.contains("reconfig #0 (2->4 machines"));
        let empty = render(&[]);
        assert!(empty.contains("(none)"));
    }
}
