//! Span-tree profiler: aggregates `span_begin`/`span_end` pairs from a
//! trace into a self-time/total-time tree.
//!
//! Spans with the same name under the same ancestry are merged into one
//! node (count, summed total), so hot phases of the detailed simulator
//! and engine are visible without an external profiler. Two clocks are
//! supported: the simulated-time stamp `t` (deterministic for a fixed
//! seed — what `pstore-trace profile` uses by default) and the
//! wall-clock stamp `wall_us` (`--wall`, for real CPU cost).
//!
//! The tree renders either as an indented table or as flamegraph-folded
//! text, one line per node: `root;child;leaf <count> <self_us>` —
//! semicolon-joined ancestry, the number of spans merged into the node,
//! and the node's self time in integer microseconds. Re-summing the
//! folded lines reproduces the tree's totals (the `TEL-05` invariant in
//! `pstore-verify`).

use crate::event::{Entry, Record};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which stamp the profiler aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileClock {
    /// Simulated time (`t`, seconds) — deterministic for a fixed seed.
    Sim,
    /// Wall-clock time (`wall_us`) — real elapsed time, varies run to run.
    Wall,
}

impl ProfileClock {
    fn label(self) -> &'static str {
        match self {
            ProfileClock::Sim => "sim clock",
            ProfileClock::Wall => "wall clock",
        }
    }

    /// The chosen stamp of `e`, in microseconds.
    fn stamp_us(self, e: &Entry) -> Option<f64> {
        match self {
            ProfileClock::Sim => e.t.map(|t| t * 1e6),
            #[allow(clippy::cast_precision_loss, reason = "micros far below 2^53")]
            ProfileClock::Wall => e.wall_us.map(|w| w as f64),
        }
    }
}

/// One aggregated node of the profile tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span name.
    pub name: String,
    /// Completed spans merged into this node.
    pub count: u64,
    /// Summed duration of those spans, microseconds.
    pub total_us: f64,
    /// Summed duration of their direct children, microseconds.
    pub child_total_us: f64,
    /// Child nodes, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Self time: total minus time attributed to children (clamped at 0
    /// for display; the unclamped difference is what `TEL-05` checks).
    pub fn self_us(&self) -> f64 {
        (self.total_us - self.child_total_us).max(0.0)
    }
}

/// The aggregated profile of a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Top-level nodes (spans opened with no span above them).
    pub roots: Vec<ProfileNode>,
    /// Span pairs skipped because either endpoint lacked the chosen
    /// clock stamp.
    pub unstamped: usize,
    /// Span events skipped because of structural problems (ends without
    /// begins, spans left open, mis-nested closes). These are reported
    /// in detail by [`crate::trace::span_errors`].
    pub unmatched: usize,
}

/// An open span on the builder's stack.
struct Frame {
    id: u64,
    name: String,
    start_us: Option<f64>,
    child_total_us: f64,
}

/// Per-path aggregate while building.
#[derive(Default)]
struct Agg {
    count: u64,
    total_us: f64,
    child_total_us: f64,
}

impl Profile {
    /// Builds the profile tree from a decoded trace.
    pub fn from_trace(trace: &[Entry], clock: ProfileClock) -> Profile {
        let mut aggs: BTreeMap<Vec<String>, Agg> = BTreeMap::new();
        let mut stack: Vec<Frame> = Vec::new();
        let mut unstamped = 0usize;
        let mut unmatched = 0usize;

        for e in trace {
            match &e.record {
                Record::SpanBegin(b) => stack.push(Frame {
                    id: b.id,
                    name: b.name.clone(),
                    start_us: clock.stamp_us(e),
                    child_total_us: 0.0,
                }),
                Record::SpanEnd(end) => {
                    let Some(pos) = stack.iter().rposition(|f| f.id == end.id) else {
                        unmatched += 1;
                        continue;
                    };
                    // Anything opened above a mis-nested close is dropped
                    // (its completed children were already attributed).
                    unmatched += stack.len() - pos - 1;
                    stack.truncate(pos + 1);
                    // `pos + 1 == stack.len()`, so this pop always succeeds.
                    let Some(frame) = stack.pop() else { continue };
                    let duration = match (frame.start_us, clock.stamp_us(e)) {
                        (Some(start), Some(stop)) => Some((stop - start).max(0.0)),
                        _ => None,
                    };
                    let Some(duration) = duration else {
                        unstamped += 1;
                        continue;
                    };
                    let path: Vec<String> = stack
                        .iter()
                        .map(|f| f.name.clone())
                        .chain(std::iter::once(frame.name))
                        .collect();
                    let agg = aggs.entry(path).or_default();
                    agg.count += 1;
                    agg.total_us += duration;
                    agg.child_total_us += frame.child_total_us;
                    if let Some(parent) = stack.last_mut() {
                        parent.child_total_us += duration;
                    }
                }
                _ => {}
            }
        }
        unmatched += stack.len();

        Profile {
            roots: assemble(&aggs),
            unstamped,
            unmatched,
        }
    }

    /// Renders the indented self/total table.
    pub fn render(&self, clock: ProfileClock) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== span profile ({}) ==", clock.label());
        let _ = writeln!(
            out,
            "  {:<40} {:>8} {:>14} {:>14}",
            "span", "count", "total_us", "self_us"
        );
        fn walk(out: &mut String, node: &ProfileNode, depth: usize) {
            let indent = "  ".repeat(depth);
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>14} {:>14}",
                format!("{indent}{}", node.name),
                node.count,
                round_us(node.total_us),
                round_us(node.self_us()),
            );
            for child in &node.children {
                walk(out, child, depth + 1);
            }
        }
        for root in &self.roots {
            walk(&mut out, root, 0);
        }
        if self.roots.is_empty() {
            let _ = writeln!(out, "  (no completed spans with this clock)");
        }
        if self.unstamped > 0 || self.unmatched > 0 {
            let _ = writeln!(
                out,
                "  ({} span pair(s) unstamped, {} span event(s) unmatched)",
                self.unstamped, self.unmatched
            );
        }
        out
    }

    /// Renders flamegraph-folded text: one `path;to;node <count>
    /// <self_us>` line per node, sorted by path.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        fn walk(out: &mut String, node: &ProfileNode, prefix: &str) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            let _ = writeln!(out, "{path} {} {}", node.count, round_us(node.self_us()));
            for child in &node.children {
                walk(out, child, &path);
            }
        }
        for root in &self.roots {
            walk(&mut out, root, "");
        }
        out
    }

    /// All nodes with their depth, in render order (depth-first).
    pub fn nodes(&self) -> Vec<(&ProfileNode, usize)> {
        let mut out = Vec::new();
        fn walk<'a>(out: &mut Vec<(&'a ProfileNode, usize)>, node: &'a ProfileNode, depth: usize) {
            out.push((node, depth));
            for child in &node.children {
                walk(out, child, depth + 1);
            }
        }
        for root in &self.roots {
            walk(&mut out, root, 0);
        }
        out
    }

    /// Tree-conservation problems (`TEL-05`, first half): every node's
    /// total must cover the sum of its direct children's totals, and the
    /// node's recorded `child_total_us` must equal that sum.
    pub fn conservation_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (node, _) in self.nodes() {
            let child_sum: f64 = node.children.iter().map(|c| c.total_us).sum();
            let tolerance = 1e-9 * node.total_us.abs() + 1e-3;
            if child_sum > node.total_us + tolerance {
                errors.push(format!(
                    "node \"{}\": children total {child_sum:.3}us exceeds own total {:.3}us",
                    node.name, node.total_us
                ));
            }
            if (node.child_total_us - child_sum).abs() > tolerance {
                errors.push(format!(
                    "node \"{}\": recorded child total {:.3}us != children sum {child_sum:.3}us",
                    node.name, node.child_total_us
                ));
            }
        }
        errors
    }

    /// Folded-resum problems (`TEL-05`, second half): parsing
    /// [`Profile::folded`] back and re-summing self times over each
    /// subtree must reproduce every node's total (up to the 1 µs/line
    /// rounding of the folded format).
    pub fn folded_resum_errors(&self, folded: &str) -> Vec<String> {
        let lines = match parse_folded(folded) {
            Ok(lines) => lines,
            Err(e) => return vec![format!("folded output unparseable: {e}")],
        };
        let by_path: BTreeMap<&[String], &FoldedLine> =
            lines.iter().map(|l| (l.path.as_slice(), l)).collect();
        let mut errors = Vec::new();
        let mut prefix: Vec<String> = Vec::new();
        for (node, depth) in self.nodes() {
            prefix.truncate(depth);
            prefix.push(node.name.clone());
            let Some(line) = by_path.get(prefix.as_slice()) else {
                errors.push(format!("node \"{}\" missing from folded output", node.name));
                continue;
            };
            if line.count != node.count {
                errors.push(format!(
                    "node \"{}\": folded count {} != tree count {}",
                    node.name, line.count, node.count
                ));
            }
            // Re-sum self times over the subtree rooted here.
            let mut resum = 0.0f64;
            let mut nodes_in_subtree = 0u64;
            for l in &lines {
                if l.path.len() >= prefix.len() && l.path[..prefix.len()] == prefix[..] {
                    #[allow(clippy::cast_precision_loss, reason = "micros far below 2^53")]
                    {
                        resum += l.self_us as f64;
                    }
                    nodes_in_subtree += 1;
                }
            }
            // Each folded line is rounded to the nearest µs, and clamped
            // self times can under-report by at most the clamp slack.
            #[allow(clippy::cast_precision_loss, reason = "node counts far below 2^53")]
            let tolerance = nodes_in_subtree as f64 + 1e-6 * node.total_us.abs() + 1.0;
            if (resum - node.total_us).abs() > tolerance {
                errors.push(format!(
                    "node \"{}\": folded subtree self-sum {resum:.3}us != total {:.3}us",
                    node.name, node.total_us
                ));
            }
        }
        errors
    }
}

/// One parsed line of flamegraph-folded output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedLine {
    /// Semicolon-split ancestry, root first.
    pub path: Vec<String>,
    /// Spans merged into the node.
    pub count: u64,
    /// Node self time, integer microseconds.
    pub self_us: u64,
}

/// Parses [`Profile::folded`] output back into lines.
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn parse_folded(text: &str) -> Result<Vec<FoldedLine>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.rsplitn(3, ' ');
        let (Some(self_us), Some(count), Some(path)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("line {}: expected `path count self_us`", idx + 1));
        };
        let count = count
            .parse::<u64>()
            .map_err(|e| format!("line {}: bad count: {e}", idx + 1))?;
        let self_us = self_us
            .parse::<u64>()
            .map_err(|e| format!("line {}: bad self_us: {e}", idx + 1))?;
        out.push(FoldedLine {
            path: path.split(';').map(str::to_string).collect(),
            count,
            self_us,
        });
    }
    Ok(out)
}

/// Nearest-microsecond rounding for display (u64 keeps the folded format
/// integer and platform-independent).
fn round_us(us: f64) -> u64 {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "clamped non-negative, far below 2^53 for any real run"
    )]
    {
        us.round().max(0.0) as u64
    }
}

/// Assembles the sorted path->aggregate map into a tree.
fn assemble(aggs: &BTreeMap<Vec<String>, Agg>) -> Vec<ProfileNode> {
    let mut roots: Vec<ProfileNode> = Vec::new();
    for (path, agg) in aggs {
        let mut level = &mut roots;
        for (i, name) in path.iter().enumerate() {
            let pos = match level.iter().position(|n| &n.name == name) {
                Some(pos) => pos,
                None => {
                    // Interior nodes missing their own aggregate (possible
                    // when a parent never completed) start empty.
                    level.push(ProfileNode {
                        name: name.clone(),
                        count: 0,
                        total_us: 0.0,
                        child_total_us: 0.0,
                        children: Vec::new(),
                    });
                    level.sort_by(|a, b| a.name.cmp(&b.name));
                    match level.iter().position(|n| &n.name == name) {
                        Some(pos) => pos,
                        None => continue, // unreachable: just inserted
                    }
                }
            };
            if i + 1 == path.len() {
                level[pos].count += agg.count;
                level[pos].total_us += agg.total_us;
                level[pos].child_total_us += agg.child_total_us;
            }
            level = &mut level[pos].children;
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{kinds, SpanBegin, SpanEnd};

    fn span(kind: &str, seq: u64, id: u64, name: &str, t: f64) -> Entry {
        let record = if kind == kinds::SPAN_BEGIN {
            Record::from(SpanBegin::new(id, name))
        } else {
            Record::from(SpanEnd::new(id, name))
        };
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "fixture times are small non-negative floats; their micros fit u64"
        )]
        let wall_us = Some((t * 2e6) as u64); // wall runs at 2x sim
        Entry {
            seq,
            t: Some(t),
            wall_us,
            record,
        }
    }

    /// root(0..10) { a(1..3), a(4..7) { b(5..6) } }
    fn sample_events() -> Vec<Entry> {
        vec![
            span(kinds::SPAN_BEGIN, 1, 1, "root", 0.0),
            span(kinds::SPAN_BEGIN, 2, 2, "a", 1.0),
            span(kinds::SPAN_END, 3, 2, "a", 3.0),
            span(kinds::SPAN_BEGIN, 4, 3, "a", 4.0),
            span(kinds::SPAN_BEGIN, 5, 4, "b", 5.0),
            span(kinds::SPAN_END, 6, 4, "b", 6.0),
            span(kinds::SPAN_END, 7, 3, "a", 7.0),
            span(kinds::SPAN_END, 8, 1, "root", 10.0),
        ]
    }

    #[test]
    fn aggregates_same_name_siblings_and_computes_self_time() {
        let p = Profile::from_trace(&sample_events(), ProfileClock::Sim);
        assert_eq!(p.unmatched, 0);
        assert_eq!(p.unstamped, 0);
        assert_eq!(p.roots.len(), 1);
        let root = &p.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.count, 1);
        assert!((root.total_us - 10e6).abs() < 1.0);
        // Children: the two "a" spans merged (2s + 3s = 5s total).
        assert_eq!(root.children.len(), 1);
        let a = &root.children[0];
        assert_eq!((a.name.as_str(), a.count), ("a", 2));
        assert!((a.total_us - 5e6).abs() < 1.0);
        // a's self = 5s - 1s (the nested b).
        assert!((a.self_us() - 4e6).abs() < 1.0);
        // root self = 10 - 5.
        assert!((root.self_us() - 5e6).abs() < 1.0);
        let b = &a.children[0];
        assert!((b.total_us - 1e6).abs() < 1.0);
    }

    #[test]
    fn wall_clock_uses_wall_stamps() {
        let p = Profile::from_trace(&sample_events(), ProfileClock::Wall);
        // The test stamps wall at 2x sim.
        assert!((p.roots[0].total_us - 20e6).abs() < 2.0);
    }

    #[test]
    fn folded_round_trips_and_resums() {
        let p = Profile::from_trace(&sample_events(), ProfileClock::Sim);
        let folded = p.folded();
        assert!(folded.contains("root 1 5000000"));
        assert!(folded.contains("root;a 2 4000000"));
        assert!(folded.contains("root;a;b 1 1000000"));
        let lines = parse_folded(&folded).unwrap_or_default();
        assert_eq!(lines.len(), 3);
        assert!(p.conservation_errors().is_empty());
        assert!(p.folded_resum_errors(&folded).is_empty());
    }

    #[test]
    fn corrupted_folded_output_fails_resum() {
        let p = Profile::from_trace(&sample_events(), ProfileClock::Sim);
        let folded = p.folded().replace("root;a 2 4000000", "root;a 2 400");
        assert!(!p.folded_resum_errors(&folded).is_empty());
    }

    #[test]
    fn unstamped_and_unmatched_spans_are_counted_not_fatal() {
        let mut events = sample_events();
        events[3].t = None; // second "a" begin loses its sim stamp
        events.push(span(kinds::SPAN_END, 9, 99, "ghost", 11.0));
        let p = Profile::from_trace(&events, ProfileClock::Sim);
        assert_eq!(p.unstamped, 1);
        assert_eq!(p.unmatched, 1);
        // The stamped sibling still aggregated.
        assert_eq!(p.roots[0].children[0].count, 1);
    }

    #[test]
    fn misnested_close_drops_inner_frames_only() {
        let events = vec![
            span(kinds::SPAN_BEGIN, 1, 1, "outer", 0.0),
            span(kinds::SPAN_BEGIN, 2, 2, "inner", 1.0),
            span(kinds::SPAN_END, 3, 1, "outer", 5.0), // closes past inner
        ];
        let p = Profile::from_trace(&events, ProfileClock::Sim);
        assert_eq!(p.unmatched, 1);
        assert_eq!(p.roots.len(), 1);
        assert!((p.roots[0].total_us - 5e6).abs() < 1.0);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let a = Profile::from_trace(&sample_events(), ProfileClock::Sim);
        let b = Profile::from_trace(&sample_events(), ProfileClock::Sim);
        assert_eq!(a.render(ProfileClock::Sim), b.render(ProfileClock::Sim));
        assert!(a.render(ProfileClock::Sim).contains("sim clock"));
    }

    #[test]
    fn parse_folded_rejects_garbage() {
        assert!(parse_folded("just-a-name\n").is_err());
        assert!(parse_folded("a b c\n").is_err());
        assert!(parse_folded("").unwrap_or_default().is_empty());
    }
}
