//! Concurrency checkers for the sweep surface (`CON-01..CON-03`).
//!
//! The sweep's parallel map (`pstore_bench::sweep`) shares one locked
//! iterator between scoped workers and publishes results through the
//! scope's join, so there is no protocol to model; what can still go
//! wrong is observable from outside, and that is what these check. Each
//! `check_*` drives the *production* [`Sweep`] runner on real threads and
//! hands what came back to a pure judge: no cell is lost or
//! mis-attributed (CON-01), the ordered merge observes every cell's
//! results and telemetry exactly as a serial run does (CON-02), and no
//! cell sees another cell's registry state (CON-03). The judges have
//! seeded-bug twins in this module's tests: swapped and dropped results,
//! two cells' events interleaved, a leaked probe count.

use std::rc::Rc;

use pstore_bench::sweep::{Cell, CellFailure, Sweep};
use pstore_core::{InvariantId, Violation};
use pstore_telemetry as tel;

/// Cells in the fault-injection grid (indices 2 and 4 fail, index 5
/// stalls; the rest return `index * 100`).
const FAULT_GRID: u64 = 6;
/// Instrumented cells in the merge-barrier comparison.
const MERGE_CELLS: u64 = 6;
/// Probe cells in the registry-isolation check.
const PROBE_CELLS: usize = 8;

/// One slot of a fault-injected sweep's output.
type FaultOutcome = Result<u64, CellFailure>;

/// CON-01: a fault-injected sweep at `threads` must return one entry
/// per cell, in cell order, with failures attributed to the right cell
/// — identically to the serial run.
pub fn check_queue_integrity(threads: usize) -> Vec<Violation> {
    // Injected panics are expected; keep them off the report output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = Sweep::new(threads).run_fallible(fault_grid());
    let serial = Sweep::new(1).run_fallible(fault_grid());
    std::panic::set_hook(prev_hook);

    judge_queue_integrity(
        &format!("fault-injected sweep threads={threads}"),
        &results,
        &serial,
    )
}

/// CON-01's judge: `results` against what [`fault_grid`] must produce
/// and against the serial run of the same grid.
fn judge_queue_integrity(
    artifact: &str,
    results: &[FaultOutcome],
    serial: &[FaultOutcome],
) -> Vec<Violation> {
    let expected = expected_fault_outcomes();
    let violation = |message: String| {
        Violation::new(
            InvariantId::ConcurrencyQueueIntegrity,
            artifact.to_string(),
            message,
        )
    };
    if results.len() != expected.len() {
        return vec![violation(format!(
            "{} cells in, {} results out",
            expected.len(),
            results.len()
        ))];
    }
    let mut violations = Vec::new();
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        if got != want {
            violations.push(violation(format!(
                "cell {i}: expected {want:?}, got {got:?}"
            )));
        }
    }
    if results != serial {
        violations.push(violation(
            "failure reporting differs from the serial run".to_string(),
        ));
    }
    violations
}

/// CON-02: after a capturing sweep at `threads`, the merged telemetry
/// (events, counters, gauges, histograms) and the results must be
/// indistinguishable from the serial run — evidence that the merge only
/// starts once every cell's writes are visible.
pub fn check_merge_barrier(threads: usize) -> Vec<Violation> {
    judge_merge_barrier(
        &format!("capturing sweep threads={threads} vs serial"),
        &capture_run(1),
        &capture_run(threads),
    )
}

/// CON-02's judge: everything the calling thread holds after a capturing
/// sweep, serial against parallel.
fn judge_merge_barrier(artifact: &str, serial: &Captured, parallel: &Captured) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut violation = |message: String| {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.to_string(),
            message,
        ));
    };
    let (m_ser, m_par) = (&serial.metrics, &parallel.metrics);

    if parallel.results != serial.results {
        violation("cell results differ from the serial run".to_string());
    }
    if normalised(&parallel.events) != normalised(&serial.events) {
        violation(format!(
            "forwarded event streams differ ({} serial vs {} parallel events)",
            serial.events.len(),
            parallel.events.len()
        ));
    }
    if m_par.counter("con_ticks") != m_ser.counter("con_ticks") {
        violation(format!(
            "merged counter differs: serial {} vs parallel {}",
            m_ser.counter("con_ticks"),
            m_par.counter("con_ticks")
        ));
    }
    if m_par.gauge("con_last_seed").map(f64::to_bits)
        != m_ser.gauge("con_last_seed").map(f64::to_bits)
    {
        violation("merged gauge differs from the serial run (ordered merge broken)".to_string());
    }
    let histograms_match = match (m_ser.histogram("con_lat"), m_par.histogram("con_lat")) {
        (Some(s), Some(p)) => s.content_eq(p),
        (None, None) => true,
        _ => false,
    };
    if !histograms_match {
        violation("merged histogram differs from the serial run".to_string());
    }
    violations
}

/// CON-03: probe cells that read the registry before touching it must
/// all observe a clean state, including cells run back-to-back on a
/// reused worker (`threads == 1` forces maximal reuse).
pub fn check_registry_isolation(threads: usize) -> Vec<Violation> {
    let (sink, _handle) = tel::MemorySink::new();
    tel::reset_registry();
    let guard = tel::install(Rc::new(sink));
    let cells: Vec<Cell<u64>> = (0..PROBE_CELLS)
        .map(|_| {
            Cell::new("probe", || {
                let before = tel::with_registry(|r| r.counter("con_probe"));
                tel::with_registry(|r| r.inc_counter("con_probe", 1));
                before
            })
        })
        .collect();
    let observed = Sweep::new(threads).run(cells);
    drop(guard);
    tel::reset_registry();

    judge_registry_isolation(
        &format!("registry probe sweep threads={threads}"),
        &observed,
    )
}

/// CON-03's judge: what each of the [`PROBE_CELLS`] probes read before
/// its own increment.
fn judge_registry_isolation(artifact: &str, observed: &[u64]) -> Vec<Violation> {
    let violation = |message: String| {
        Violation::new(
            InvariantId::ConcurrencyRegistryIsolation,
            artifact.to_string(),
            message,
        )
    };
    let mut violations = Vec::new();
    for (i, before) in observed.iter().enumerate() {
        if *before != 0 {
            violations.push(violation(format!(
                "cell {i} observed {before} leaked probe increment(s)"
            )));
        }
    }
    if observed.len() != PROBE_CELLS {
        violations.push(violation(format!(
            "{PROBE_CELLS} probes in, {} results out",
            observed.len()
        )));
    }
    violations
}

/// The fault-injection grid: healthy, panicking (str and `String`
/// payloads) and stalling cells.
fn fault_grid() -> Vec<Cell<u64>> {
    (0..FAULT_GRID)
        .map(|i| {
            Cell::new(format!("fault-cell-{i}"), move || match i {
                2 => panic!("injected fault in cell 2"),
                4 => std::panic::panic_any(format!("injected String fault in cell {i}")),
                5 => {
                    // Stalling cell: completes well after its neighbours.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    i * 100
                }
                _ => i * 100,
            })
        })
        .collect()
}

/// What [`fault_grid`] must deterministically produce.
fn expected_fault_outcomes() -> Vec<Result<u64, CellFailure>> {
    (0..FAULT_GRID)
        .map(|i| match i {
            2 => Err(CellFailure {
                index: 2,
                label: "fault-cell-2".to_string(),
                message: "injected fault in cell 2".to_string(),
            }),
            4 => Err(CellFailure {
                index: 4,
                label: "fault-cell-4".to_string(),
                message: "injected String fault in cell 4".to_string(),
            }),
            _ => Ok(i * 100),
        })
        .collect()
}

/// An instrumented cell: a span, per-tick events, and counter /
/// histogram / gauge traffic derived from the seed.
fn instrumented_cell(seed: u64) -> Cell<u64> {
    Cell::new(format!("con-cell-{seed}"), move || {
        let span = tel::begin_span_with(tel::SpanBegin {
            seed: Some(seed),
            ..tel::SpanBegin::new(0, tel::SpanName::ConWork)
        });
        for i in 0..4u64 {
            tel::emit(con_tick(i, seed));
            tel::with_registry(|r| {
                r.inc_counter("con_ticks", 1);
                #[allow(clippy::cast_precision_loss, reason = "tiny probe values")]
                r.record_histogram("con_lat", 1e-3 * (seed + 1) as f64 * (i + 1) as f64);
            });
        }
        #[allow(clippy::cast_precision_loss, reason = "tiny probe values")]
        tel::with_registry(|r| r.set_gauge("con_last_seed", seed as f64));
        tel::end_span(tel::SpanName::ConWork, span);
        seed * 7
    })
}

/// The per-tick event of an instrumented cell. Any registered kind would
/// serve — the judges compare streams, not meanings.
fn con_tick(i: u64, seed: u64) -> tel::TxnArrive {
    tel::TxnArrive { id: i, slot: seed }
}

/// What the calling thread holds after a capturing sweep.
struct Captured {
    results: Vec<u64>,
    /// The events forwarded to the caller's sink, in arrival order.
    events: Vec<tel::Event>,
    /// The caller's registry after the per-cell merges.
    metrics: tel::MetricsRegistry,
}

/// Runs the instrumented grid under a fresh sink/registry.
fn capture_run(threads: usize) -> Captured {
    let (sink, handle) = tel::MemorySink::new();
    tel::reset_registry();
    let guard = tel::install(Rc::new(sink));
    let cells: Vec<Cell<u64>> = (0..MERGE_CELLS).map(instrumented_cell).collect();
    let results = Sweep::new(threads).run(cells);
    drop(guard);
    let metrics = tel::with_registry(|r| r.clone());
    tel::reset_registry();
    Captured {
        results,
        events: handle.events(),
        metrics,
    }
}

/// An event's deterministic content: kind, timestamp (bit pattern) and
/// payload fields, with the process-global `seq` dropped.
type EventKey = (String, Option<u64>, Vec<(String, tel::Value)>);

/// Projects events onto their deterministic content.
fn normalised(events: &[tel::Event]) -> Vec<EventKey> {
    events
        .iter()
        .map(|e| (e.kind.clone(), e.t.map(f64::to_bits), e.fields.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.invariant.code()).collect()
    }

    // The runtime checkers spawn real OS threads and drive full sweeps —
    // far beyond what miri can execute in reasonable time (the judges
    // below are pure and run under miri).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn all_three_checkers_are_clean_at_one_and_four_threads() {
        for threads in [1, 4] {
            assert_eq!(check_queue_integrity(threads), Vec::new());
            assert_eq!(check_merge_barrier(threads), Vec::new());
            assert_eq!(check_registry_isolation(threads), Vec::new());
        }
    }

    /// CON-01 seeded bugs: a map that hands two results back in each
    /// other's slots, and one that loses a cell.
    #[test]
    fn swapped_and_dropped_results_are_con_01() {
        let expected = expected_fault_outcomes();
        assert_eq!(
            judge_queue_integrity("twin", &expected, &expected),
            Vec::new()
        );

        let mut swapped = expected.clone();
        swapped.swap(1, 2);
        let found = judge_queue_integrity("twin", &swapped, &expected);
        // Both slots are wrong, and the run no longer matches the serial one.
        assert_eq!(codes(&found), ["CON-01"; 3], "{found:?}");
        assert!(found[0].to_string().contains("cell 1"), "{found:?}");
        assert!(found[1].to_string().contains("cell 2"), "{found:?}");

        let dropped = &expected[..expected.len() - 1];
        let found = judge_queue_integrity("twin", dropped, &expected);
        assert_eq!(codes(&found), ["CON-01"], "{found:?}");
        assert!(found[0].to_string().contains("6 cells in, 5 results out"));
    }

    /// What a correct sweep forwards for `cells` instrumented cells of
    /// two ticks each: one cell's events after another's.
    fn forwarded(cells: u64) -> Captured {
        let events = (0..cells)
            .flat_map(|seed| (0..2u64).map(move |i| tel::Record::from(con_tick(i, seed)).encode()))
            .collect();
        Captured {
            results: (0..cells).map(|seed| seed * 7).collect(),
            events,
            metrics: tel::MetricsRegistry::new(),
        }
    }

    /// CON-02 seeded bug: a merge that forwards on completion order, so
    /// two cells' events arrive interleaved.
    #[test]
    fn interleaved_cell_events_are_con_02() {
        assert_eq!(
            judge_merge_barrier("twin", &forwarded(2), &forwarded(2)),
            Vec::new()
        );

        let mut interleaved = forwarded(2);
        // cell 0 tick 1 <-> cell 1 tick 0: same events, same count.
        interleaved.events.swap(1, 2);
        let found = judge_merge_barrier("twin", &forwarded(2), &interleaved);
        assert_eq!(codes(&found), ["CON-02"], "{found:?}");
        assert!(found[0].to_string().contains("event streams differ"));
    }

    /// CON-03 seeded bug: a worker that does not reset its registry
    /// between cells, so the second cell it runs reads the first's count.
    #[test]
    fn a_leaked_probe_count_is_con_03() {
        assert_eq!(
            judge_registry_isolation("twin", &[0; PROBE_CELLS]),
            Vec::new()
        );

        let mut leaked = [0; PROBE_CELLS];
        leaked[3] = 1;
        let found = judge_registry_isolation("twin", &leaked);
        assert_eq!(codes(&found), ["CON-03"], "{found:?}");
        assert!(found[0].to_string().contains("cell 3 observed 1"));
    }
}
