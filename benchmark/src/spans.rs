//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from outside the program under test (the wrappers in
//! `workloads`), kept in memory and written as JSON lines when the run ends.
//! One span may stand for a batch of calls (`count`); a layer's self time is
//! its spans' duration minus the part their children cover. A span that
//! stands for a single call also adds its duration to the per-call sample
//! of its name, and plain counters ride along so that ratios are measured
//! where the work happens.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones still feed the per-name totals.
const MAX_KEPT: usize = 200_000;

struct Span {
    /// Order in which the span was opened, from 1.
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// `id` of the enclosing span; 0 for a root.
    parent: u64,
    count: u64,
}

/// Per-name totals over every span, kept or not.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Total {
    /// Spans closed under this name.
    pub spans: u64,
    /// Calls those spans stand for.
    pub calls: u64,
    /// Summed duration.
    pub nanos: u64,
    /// Summed duration of direct children.
    pub child_nanos: u64,
}

impl Total {
    /// Mean self time per call, in nanoseconds.
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.nanos - self.child_nanos) as f64 / self.calls as f64
    }
}

struct Tracer {
    epoch: Instant,
    kept: Vec<Span>,
    /// Open spans, innermost last: `(name, start, count, child time, id)`.
    open: Vec<(&'static str, u64, u64, u64, u64)>,
    opened: u64,
    totals: BTreeMap<&'static str, Total>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    // The benchmark is one thread per process; a thread-local keeps the
    // wrappers `Send` (the strategy and forecaster traits require it)
    // without a lock on the traced path.
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, dropping anything recorded before.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            kept: Vec::new(),
            open: Vec::new(),
            opened: 0,
            totals: BTreeMap::new(),
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
        });
    });
}

/// Opens a span standing for `count` calls. No-op unless recording.
pub fn begin(name: &'static str, count: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.opened += 1;
            let now = tr.epoch.elapsed().as_nanos() as u64;
            tr.open.push((name, now, count, 0, tr.opened));
        }
    });
}

/// Closes the innermost open span and returns its duration in nanoseconds
/// (0 unless recording).
pub fn end() -> u64 {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(tr) = guard.as_mut() else { return 0 };
        let now = tr.epoch.elapsed().as_nanos() as u64;
        let (name, start_ns, count, child_nanos, id) =
            tr.open.pop().expect("span closed that was never opened");
        let nanos = now - start_ns;
        let parent = tr.open.last_mut().map_or(0, |p| {
            p.3 += nanos;
            p.4
        });
        let total = tr.totals.entry(name).or_default();
        total.spans += 1;
        total.calls += count;
        total.nanos += nanos;
        total.child_nanos += child_nanos;
        if count == 1 {
            tr.samples.entry(name).or_default().push(nanos as f64);
        }
        if tr.kept.len() < MAX_KEPT {
            tr.kept.push(Span {
                id,
                name,
                start_ns,
                end_ns: now,
                parent,
                count,
            });
        }
        nanos
    })
}

/// Totals of the spans closed under `name` so far.
pub fn total(name: &str) -> Total {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .and_then(|tr| tr.totals.get(name).copied())
            .unwrap_or_default()
    })
}

/// Adds per-call durations (nanoseconds) worked out by the caller: calls
/// too short to wrap in a span each, or averages over many batch spans.
pub fn sample(name: &'static str, nanos: impl IntoIterator<Item = f64>) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.samples.entry(name).or_default().extend(nanos);
        }
    });
}

/// Takes the per-call sample recorded under `name`.
pub fn take_samples(name: &str) -> Vec<f64> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .and_then(|tr| tr.samples.remove(name))
            .unwrap_or_default()
    })
}

/// Adds to a named counter. No-op unless recording.
pub fn add(name: &'static str, amount: f64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            *tr.counters.entry(name).or_default() += amount;
        }
    });
}

/// Value of a named counter (0 if never added to).
pub fn counter(name: &str) -> f64 {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .and_then(|tr| tr.counters.get(name).copied())
            .unwrap_or_default()
    })
}

/// Spans opened so far.
pub fn spans_opened() -> u64 {
    TRACER.with(|t| t.borrow().as_ref().map_or(0, |tr| tr.opened))
}

/// Mean cost of one `begin`/`end` pair around nothing, in nanoseconds:
/// what tracing adds to every span it records.
pub fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now());
        std::hint::black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Writes the kept spans as JSON lines, in the order they closed.
///
/// # Errors
/// Propagates I/O errors, including the final flush.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    TRACER.with(|t| {
        let guard = t.borrow();
        let Some(tr) = guard.as_ref() else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &tr.kept {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"count\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.count
            )?;
        }
        out.flush()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        start();
        begin("tick", 1);
        begin("forecast", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = end();
        let outer = end();
        assert!(inner >= 2_000_000 && outer >= inner);
        let tick = total("tick");
        assert_eq!((tick.spans, tick.calls), (1, 1));
        assert_eq!(tick.child_nanos, inner);
        assert_eq!(tick.nanos, outer);
        let per_call = tick.self_ns_per_call();
        assert!((per_call - (outer - inner) as f64).abs() < 1e-9);
        assert_eq!(total("absent"), Total::default());
        // Single-call spans feed the per-call sample; counters add up.
        assert_eq!(take_samples("forecast"), vec![inner as f64]);
        sample("exec", [1.0, 2.0]);
        assert_eq!(take_samples("exec"), vec![1.0, 2.0]);
        add("bytes", 3.0);
        add("bytes", 4.0);
        assert_eq!((counter("bytes"), counter("absent")), (7.0, 0.0));
    }

    #[test]
    fn nothing_is_recorded_before_start() {
        // Thread-local state: this test's thread never called `start`.
        begin("x", 1);
        assert_eq!((end(), spans_opened()), (0, 0));
    }
}
