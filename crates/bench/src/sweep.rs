//! Parallel scenario-sweep runner for the experiment binaries.
//!
//! Every figure in §8 of the paper is assembled from *independent*
//! simulator runs — a `(scenario, strategy, seed)` grid where each cell
//! is deterministic given its inputs and shares nothing with its
//! neighbours. [`Sweep`] fans those cells across scoped worker threads
//! and reassembles the outputs so the result is **byte-identical to a
//! serial run**, at any thread count.
//!
//! This file holds the reproduction's only threads: the private
//! `parallel_map` below, one caller (clippy.toml's `disallowed-methods`
//! keeps it that way).
//!
//! # Determinism contract
//!
//! For a fixed cell list and fixed per-cell seeds, everything observable
//! after [`Sweep::run`] returns is independent of the thread count:
//!
//! * **Results** come back in cell order (each result is tagged with
//!   its cell index and the tagged results are sorted; nothing is
//!   emitted on completion order).
//! * **Telemetry events** emitted by a cell are captured into a
//!   per-cell in-memory sink on the worker thread (installed with the
//!   calling thread's `TraceSpec`), then forwarded to
//!   the main thread's sink in cell order after all cells finish. Span
//!   ids are renumbered to `(cell + 1) << 32 | ordinal` during the
//!   replay — the raw ids from the global allocator depend on thread
//!   interleaving, the renumbered ones only on the cell's own event
//!   stream. Sequence numbers are re-stamped in forwarding order. Each
//!   cell starts with the sim clock unset, so an event it emits before
//!   setting the clock carries no `t`, whichever cell the worker ran
//!   before.
//! * **Metrics** (counters, gauges, histograms) recorded by a cell land
//!   in the worker thread's registry, are snapshotted per cell, and are
//!   merged into the calling thread's registry in cell order. Counter
//!   and histogram-bucket merges are commutative on integers, so they
//!   would be order-independent anyway; gauge last-write-wins and
//!   `f64` sum accumulation are not, which is why the merge is ordered.
//!
//! The only state workers share while cells run is the queue of cells
//! not yet started — capture is per-thread (`pstore-telemetry`'s sink
//! and registry are thread-local) and the merge happens single-threaded
//! after the scope has joined every worker. Workers are real OS threads
//! even at one thread: that is what makes one thread byte-identical to N.
//!
//! # Thread-count resolution
//!
//! [`Sweep::from_reporter`] (or [`Sweep::new`] with 0) resolves the
//! thread count as: explicit `--threads N` argument → available
//! parallelism.

use std::collections::HashMap;
use std::panic::resume_unwind;
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

use pstore_telemetry as tel;

/// One independent unit of work in a sweep: a label (for progress
/// reporting) plus a closure that runs the cell and returns its result.
///
/// The closure must be self-contained (`Send`, no references into the
/// caller): it runs on a worker thread. Determinism is the cell's
/// responsibility — seed any RNG from the cell's own inputs, never from
/// global state.
pub struct Cell<R> {
    label: String,
    run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Cell<R> {
    /// Creates a cell.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> R + Send + 'static) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The cell's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// What one cell produced on its worker thread: the result plus the
/// telemetry captured while it ran (empty when capture was off).
struct CellOutcome<R> {
    result: R,
    events: Vec<tel::Event>,
    metrics: tel::MetricsRegistry,
}

/// Applies `f` to every item on up to `threads` scoped worker threads
/// and returns the results in input order. Workers take the next
/// `(index, item)` from one locked iterator; the scope's join is the only
/// happens-before edge between a worker's results and the caller, and
/// sorting by index makes the output independent of which worker ran
/// what. A worker's panic resumes on the caller once the others finish.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place the reproduction starts threads: cells are independent"
)]
fn parallel_map<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The lock is held for `next()` alone, never while
                        // `f` runs, so a panicking item cannot poison it.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((index, item)) = next else { break };
                        done.push((index, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(index, _)| index);
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// The sweep runner: a thread count plus the capture/merge machinery.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    threads: usize,
}

impl Sweep {
    /// Creates a runner with an explicit thread count; 0 means "auto"
    /// (available parallelism).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Sweep { threads }
    }

    /// Creates a runner from a [`crate::RunReporter`]'s `--threads`
    /// argument (auto when the flag was absent).
    #[must_use]
    pub fn from_reporter(reporter: &crate::RunReporter) -> Self {
        Sweep::new(reporter.threads())
    }

    /// The thread count a run will use (resolved, never 0).
    #[must_use]
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// Runs every cell on worker threads and returns their results in
    /// cell order. See the module docs for the determinism contract.
    ///
    /// Telemetry capture turns on exactly when the calling thread has a
    /// sink installed (e.g. `--trace` in a figure binary), and captures
    /// under that sink's `TraceSpec`; otherwise the cells run
    /// uninstrumented, same as the serial path.
    pub fn run<R: Send + 'static>(&self, cells: Vec<Cell<R>>) -> Vec<R> {
        let capture = tel::enabled().then(tel::spec);
        let outcomes = parallel_map(self.threads(), cells, |cell| run_cell(cell, capture));

        // Single-threaded deterministic merge, in cell order.
        let mut results = Vec::with_capacity(outcomes.len());
        for (cell_idx, outcome) in outcomes.into_iter().enumerate() {
            if capture.is_some() {
                forward_cell_events(cell_idx, outcome.events);
                tel::with_registry(|r| r.merge(&outcome.metrics));
            }
            results.push(outcome.result);
        }
        results
    }
}

/// Runs one cell on the current (worker) thread, capturing its
/// telemetry into a private sink (installed with the `capture` spec) and
/// a freshly cleared registry when `capture` is set.
fn run_cell<R>(cell: Cell<R>, capture: Option<tel::TraceSpec>) -> CellOutcome<R> {
    let Some(spec) = capture else {
        return CellOutcome {
            result: (cell.run)(),
            events: Vec::new(),
            metrics: tel::MetricsRegistry::new(),
        };
    };
    let (sink, handle) = tel::MemorySink::new();
    // Worker threads are reused across cells; start each cell from a
    // clean registry and an unset sim clock so neither metrics nor time
    // can leak between cells.
    tel::reset_registry();
    tel::clear_time();
    let guard = tel::install_with(Rc::new(sink), spec);
    let result = (cell.run)();
    drop(guard);
    let events = handle.events();
    let metrics = tel::with_registry(|r| r.clone());
    tel::reset_registry();
    CellOutcome {
        result,
        events,
        metrics,
    }
}

/// Forwards one cell's captured events to the calling thread's sink,
/// renumbering span ids into the cell-local deterministic scheme.
fn forward_cell_events(cell_idx: usize, events: Vec<tel::Event>) {
    let cell = u64::try_from(cell_idx).unwrap_or(u64::MAX);
    let mut id_map: HashMap<u64, u64> = HashMap::new();
    let mut next_local: u64 = 0;
    for ev in events {
        // Everything but span events is forwarded as captured, undecoded.
        let is_span = ev.kind == tel::kinds::SPAN_BEGIN || ev.kind == tel::kinds::SPAN_END;
        let Some(mut entry) = is_span.then(|| tel::Entry::decode(&ev).ok()).flatten() else {
            tel::forward(ev);
            continue;
        };
        if let tel::Record::SpanBegin(tel::SpanBegin { id, .. })
        | tel::Record::SpanEnd(tel::SpanEnd { id, .. }) = &mut entry.record
        {
            *id = *id_map.entry(*id).or_insert_with(|| {
                next_local += 1;
                ((cell + 1) << 32) | next_local
            });
        }
        tel::forward(entry.to_event());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic instrumented cell: emits events, opens a span, and
    /// records metrics derived from its seed.
    fn synthetic_cell(seed: u64) -> Cell<u64> {
        Cell::new(format!("cell-{seed}"), move || {
            let span = tel::begin_span_with(tel::SpanBegin {
                seed: Some(seed),
                ..tel::SpanBegin::new(0, tel::SpanName::Work)
            });
            #[allow(clippy::cast_precision_loss, reason = "tiny test values")]
            for i in 0..5u64 {
                // Any registered kind serves: the tests compare streams.
                tel::emit(tel::TxnArrive { id: i, slot: seed });
                tel::with_registry(|r| {
                    r.inc_counter("ticks", 1);
                    r.record_histogram("lat", 1e-3 * (seed + 1) as f64 * (i + 1) as f64);
                });
            }
            #[allow(clippy::cast_precision_loss, reason = "tiny test values")]
            tel::with_registry(|r| r.set_gauge("last_seed", seed as f64));
            tel::end_span(tel::SpanName::Work, span);
            seed * 10
        })
    }

    /// Runs a sweep of synthetic cells under a fresh memory sink and
    /// returns (results, forwarded events, merged registry).
    fn run_capture(threads: usize, n: u64) -> (Vec<u64>, Vec<tel::Event>, tel::MetricsRegistry) {
        let (sink, handle) = tel::MemorySink::new();
        tel::reset_registry();
        let guard = tel::install(Rc::new(sink));
        let cells: Vec<Cell<u64>> = (0..n).map(synthetic_cell).collect();
        let results = Sweep::new(threads).run(cells);
        drop(guard);
        let registry = tel::with_registry(|r| r.clone());
        tel::reset_registry();
        (results, handle.events(), registry)
    }

    /// Strips the fields that legitimately differ across in-process
    /// runs (the global `seq` counter keeps advancing), keeping order,
    /// kinds, timestamps and payloads — including renumbered span ids.
    #[allow(clippy::type_complexity, reason = "one-off test projection")]
    fn normalised(events: &[tel::Event]) -> Vec<(String, Option<f64>, Vec<(String, tel::Value)>)> {
        events
            .iter()
            .map(|e| (e.kind.clone(), e.t, e.fields.clone()))
            .collect()
    }

    #[test]
    fn results_come_back_in_cell_order_at_any_thread_count() {
        // 0 threads means "auto", which resolves to at least one.
        assert!(Sweep::new(0).threads() >= 1);
        for threads in [0, 1, 2, 8] {
            // No cells, fewer cells than threads, more cells than threads.
            for n in [0, 1, 20] {
                let cells: Vec<Cell<u64>> = (0..n).map(|i| Cell::new("c", move || i)).collect();
                let results = Sweep::new(threads).run(cells);
                assert_eq!(results, (0..n).collect::<Vec<u64>>(), "threads={threads}");
            }
        }
    }

    /// Forces the schedule in which one worker runs cells 0 and 2 and the
    /// other runs cell 1, so concatenating per-worker results is out of
    /// cell order whichever worker is joined first.
    #[test]
    fn results_are_ordered_by_cell_not_by_worker() {
        let both_taken = std::sync::Arc::new(std::sync::Barrier::new(2));
        let (third_started, wait_for_third) = std::sync::mpsc::channel();
        let rendezvous = both_taken.clone();
        let cells = vec![
            Cell::new("first", move || {
                rendezvous.wait();
                0u64
            }),
            // Holds its worker until the other one has moved on to cell 2.
            Cell::new("second", move || {
                both_taken.wait();
                wait_for_third.recv().unwrap();
                1
            }),
            Cell::new("third", move || {
                third_started.send(()).unwrap();
                2
            }),
        ];
        assert_eq!(Sweep::new(2).run(cells), vec![0, 1, 2]);
    }

    #[test]
    fn serial_and_parallel_capture_identical_telemetry() {
        let (r1, e1, m1) = run_capture(1, 6);
        let (r8, e8, m8) = run_capture(8, 6);
        assert_eq!(r1, r8);
        assert_eq!(normalised(&e1), normalised(&e8));
        assert_eq!(m1.counter("ticks"), m8.counter("ticks"));
        assert_eq!(m1.counter("ticks"), 30);
        // Gauges: last cell wins in both runs.
        assert_eq!(
            m1.gauge("last_seed").map(f64::to_bits),
            Some(5f64.to_bits())
        );
        assert_eq!(
            m1.gauge("last_seed").map(f64::to_bits),
            m8.gauge("last_seed").map(f64::to_bits)
        );
        // Histogram merge associativity in anger: same buckets/count,
        // sum within tolerance.
        let (h1, h8) = (m1.histogram("lat"), m8.histogram("lat"));
        match (h1, h8) {
            (Some(h1), Some(h8)) => assert!(h1.content_eq(h8)),
            _ => panic!("lat histogram missing"),
        }
    }

    #[test]
    fn span_ids_are_renumbered_deterministically() {
        let (_, events, _) = run_capture(4, 3);
        let begins: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == tel::kinds::SPAN_BEGIN)
            .filter_map(|e| e.field_u64("id"))
            .collect();
        // Cell c's only span gets id (c+1)<<32 | 1, in cell order.
        assert_eq!(begins, vec![(1 << 32) | 1, (2 << 32) | 1, (3 << 32) | 1]);
        // Every end id pairs with a begin id.
        for e in events.iter().filter(|e| e.kind == tel::kinds::SPAN_END) {
            let id = e.field_u64("id");
            assert!(id.is_some_and(|id| begins.contains(&id)));
        }
    }

    #[test]
    fn without_a_sink_cells_run_uninstrumented() {
        assert!(!tel::enabled());
        tel::reset_registry();
        let results = Sweep::new(2).run((0..4).map(synthetic_cell).collect());
        assert_eq!(results, vec![0, 10, 20, 30]);
        // Nothing leaked into the calling thread's registry.
        assert_eq!(tel::with_registry(|r| r.counter("ticks")), 0);
    }

    /// One panicking cell must not poison the workers: under `run` the
    /// panic resumes on the caller with its payload once the other workers
    /// finish, and later sweeps on the same thread are unaffected.
    #[test]
    fn panicking_cell_does_not_poison_the_pool() {
        let resumed = std::panic::catch_unwind(|| {
            let mut cells: Vec<Cell<u64>> = (0..8u64)
                .map(|i| Cell::new(format!("ok-{i}"), move || i))
                .collect();
            cells[3] = Cell::new("bad", || panic!("boom"));
            Sweep::new(4).run(cells)
        });
        let payload = resumed
            .err()
            .and_then(|p| p.downcast_ref::<&str>().copied());
        assert_eq!(payload, Some("boom"));
        let again = Sweep::new(4).run((0..4u64).map(|i| Cell::new("c", move || i)).collect());
        assert_eq!(again, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cells_see_a_clean_registry_each() {
        // A cell must not observe metrics from a previously run cell on
        // the same worker thread: force single-thread reuse.
        let (sink, _handle) = tel::MemorySink::new();
        let guard = tel::install(Rc::new(sink));
        let cells: Vec<Cell<u64>> = (0..3)
            .map(|_| {
                Cell::new("probe", || {
                    let before = tel::with_registry(|r| r.counter("probe"));
                    tel::with_registry(|r| r.inc_counter("probe", 1));
                    before
                })
            })
            .collect();
        let observed = Sweep::new(1).run(cells);
        drop(guard);
        tel::reset_registry();
        assert_eq!(observed, vec![0, 0, 0]);
    }

    #[test]
    fn cells_start_with_an_unset_sim_clock() {
        // An event a cell emits before setting the clock (a forecaster
        // trained before its run starts) must not carry the time the
        // previous cell on the same worker left behind: one thread must
        // write what several do.
        let (sink, handle) = tel::MemorySink::new();
        let guard = tel::install(Rc::new(sink));
        let cells: Vec<Cell<()>> = (1..=3u32)
            .map(|i| {
                Cell::new("clock", move || {
                    tel::emit(tel::TxnArrive {
                        id: u64::from(i),
                        slot: 0,
                    });
                    tel::set_time(f64::from(i));
                    tel::emit(tel::TxnArrive {
                        id: u64::from(i),
                        slot: 1,
                    });
                })
            })
            .collect();
        Sweep::new(1).run(cells);
        drop(guard);
        let stamps: Vec<Option<f64>> = handle.events().iter().map(|e| e.t).collect();
        assert_eq!(
            stamps,
            vec![None, Some(1.0), None, Some(2.0), None, Some(3.0)]
        );
    }
}
