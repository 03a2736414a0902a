//! The `TEL-*` telemetry invariants and `TXN-01`: histogram merging is
//! associative/commutative on arbitrary sample sets (`TEL-03`), span
//! traces produced through the live API always pair and nest
//! (`TEL-01`/`TEL-02`), sim-time-stamped traces are totally ordered
//! (`TEL-04`), and randomized transaction traffic keeps well-formed
//! lifecycles (`TEL-06`) and read/write sets (`TXN-01`) — over a seeded
//! sweep of live-API traces, and under proptest.

use proptest::prelude::*;
use pstore_telemetry::{Event, Record, SpanBegin, SpanEnd};
use pstore_verify::telemetry::{
    check_histogram_merge, check_trace_order, check_trace_spans, check_txn_lifecycle,
    check_txn_rwsets,
};
use pstore_verify::Violation;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A wire-level `span_begin` / `span_end` with the given stamps.
fn span(begin: bool, seq: u64, t: Option<f64>, id: u64, name: &str) -> Event {
    let record: Record = if begin {
        SpanBegin::new(id, name).into()
    } else {
        SpanEnd::new(id, name).into()
    };
    Event {
        seq,
        t,
        ..record.encode()
    }
}

/// Builds a balanced, sim-time-stamped span trace from a depth profile:
/// each step either opens or closes a span (closing falls back to opening
/// when the stack is empty; leftovers are closed at the end) and advances
/// the clock by the paired non-negative increment. Span names vary by
/// depth.
fn stamped_trace(profile: &[(bool, f64)]) -> Vec<Event> {
    let names = ["outer", "mid", "inner"];
    let mut events = Vec::new();
    let mut stack: Vec<(u64, &str)> = Vec::new();
    let mut next_id = 1u64;
    let mut t = 0.0f64;
    let mut push = |begin: bool, t: f64, id: u64, name: &str| {
        let seq = events.len() as u64 + 1;
        events.push(span(begin, seq, Some(t), id, name));
    };
    for &(open, dt) in profile {
        t += dt;
        if open || stack.is_empty() {
            let name = names[stack.len().min(names.len() - 1)];
            push(true, t, next_id, name);
            stack.push((next_id, name));
            next_id += 1;
        } else if let Some((id, name)) = stack.pop() {
            push(false, t, id, name);
        }
    }
    while let Some((id, name)) = stack.pop() {
        t += 0.5;
        push(false, t, id, name);
    }
    events
}

/// One sample set: latencies/loads spanning many orders of magnitude,
/// including zero, negatives (clamped by the histogram) and tiny values.
fn sample_set() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            Just(0.0),
            -1e3..1e3f64,
            (-7.0..6.0f64).prop_map(|e| 10f64.powf(e)),
        ],
        0..64,
    )
}

/// 64 randomized traces, each a span tree and transaction traffic
/// emitted through the live API under a sim clock and checked against
/// `TEL-01`/`TEL-02`, `TEL-04`, `TEL-06` and `TXN-01`, plus a
/// histogram merge of three random sample sets (`TEL-03`) per trace:
/// five artifacts per case.
#[test]
fn live_api_traces_and_histogram_merges_are_clean() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let mut checks: Vec<Vec<Violation>> = Vec::new();
    for case in 0..64 {
        // A well-formed randomized span tree through the real begin/end
        // API, sim-time-stamped and captured by an in-memory sink.
        let (sink, handle) = pstore_telemetry::MemorySink::new();
        let guard = pstore_telemetry::install(std::rc::Rc::new(sink));
        let depth = rng.random_range(1usize..=4);
        let width = rng.random_range(1usize..=4);
        let mut now = 0.0;
        emit_span_tree(&mut rng, depth, width, &mut now);
        emit_txn_traffic(&mut rng, &mut now);
        pstore_telemetry::clear_time();
        drop(guard);
        let events = handle.events();
        let artifact = format!("span trace {case}");
        checks.push(check_trace_spans(&artifact, &events));
        checks.push(check_trace_order(&artifact, &events));
        checks.push(check_txn_lifecycle(&artifact, &events));
        checks.push(check_txn_rwsets(&artifact, &events));

        // Random sample sets, including empties and extreme magnitudes.
        let mut set = || -> Vec<f64> {
            let n = rng.random_range(0usize..200);
            (0..n)
                .map(|_| {
                    let exp = rng.random_range(-7.0..6.0f64);
                    10f64.powf(exp)
                })
                .collect()
        };
        let sets = [set(), set(), set()];
        checks.push(check_histogram_merge(
            &format!("histogram merge {case}"),
            &sets,
        ));
    }
    assert_eq!(checks.concat(), vec![]);
    assert_eq!(checks.len(), 320);
}

/// Emits a random tree of nested spans (interleaved with plain events)
/// through the live telemetry API. `now` is the sim clock, advanced by a
/// random positive step around every event so traces are totally ordered
/// (`TEL-04`).
fn emit_span_tree(rng: &mut StdRng, depth: usize, width: usize, now: &mut f64) {
    for _ in 0..width {
        pstore_telemetry::set_time(*now);
        let id = pstore_telemetry::begin_span(pstore_telemetry::SpanName::Reconfig);
        *now += rng.random_range(0.0..2.0);
        pstore_telemetry::set_time(*now);
        pstore_telemetry::emit(pstore_telemetry::ChunkMove {
            bytes: 1000,
            ..Default::default()
        });
        if depth > 1 && rng.random_range(0u32..2) == 0 {
            let child_width = rng.random_range(1usize..=width);
            emit_span_tree(rng, depth - 1, child_width, now);
        }
        *now += rng.random_range(0.0..2.0);
        pstore_telemetry::set_time(*now);
        pstore_telemetry::end_span(pstore_telemetry::SpanName::Reconfig, id);
    }
}

/// Emits randomized per-transaction lifecycle traffic through the live
/// telemetry API, mirroring what the detailed simulator samples: arrive,
/// queue (with optional migration stall), execute or timeout-drop, a
/// read/write-set record, and a terminal commit/abort whose attribution
/// components sum to the end-to-end latency (`TEL-06`/`TXN-01` fodder).
fn emit_txn_traffic(rng: &mut StdRng, now: &mut f64) {
    use pstore_telemetry::{
        TxnAbort, TxnArrive, TxnCommit, TxnExecute, TxnQueue, TxnRestart, TxnRwset, TxnStall,
    };
    let txns = rng.random_range(2u64..24);
    for id in 1..=txns {
        *now += rng.random_range(0.0..0.5);
        pstore_telemetry::set_time(*now);
        let slot = rng.random_range(0u64..64);
        let migrating = rng.random_range(0u32..4) == 0;
        pstore_telemetry::emit(TxnArrive { id, slot });
        let stall = if migrating {
            rng.random_range(0.0..0.3)
        } else {
            0.0
        };
        let queue = rng.random_range(0.0..0.2);
        pstore_telemetry::emit(TxnQueue {
            id,
            wait: queue + stall,
            stall,
        });
        if stall > 0.0 {
            pstore_telemetry::emit(TxnStall { id, stall });
        }
        let exec = rng.random_range(0.001..0.05);
        let dropped = rng.random_range(0u32..8) == 0;
        if !dropped {
            pstore_telemetry::emit(TxnExecute { id, service: exec });
            if migrating && rng.random_range(0u32..2) == 0 {
                pstore_telemetry::emit(TxnRestart { id, slot });
            }
            let reads = rng.random_range(1u64..6);
            let writes = rng.random_range(0u64..3);
            pstore_telemetry::emit(TxnRwset {
                id,
                slot,
                proc: "ycsb".into(),
                reads,
                writes,
                dest_reads: if migrating { reads.min(1) } else { 0 },
                dest_writes: if migrating { writes.min(1) } else { 0 },
                migrating,
                restarted: false,
                committed: true,
                rset: None,
                wset: None,
            });
        }
        let (total, end) = (queue + exec + stall, *now + queue + stall + exec);
        if dropped {
            pstore_telemetry::emit(TxnAbort {
                id,
                total,
                queue,
                exec,
                stall,
                end,
                reason: Some("timeout".into()),
            });
        } else {
            pstore_telemetry::emit(TxnCommit {
                id,
                total,
                queue,
                exec,
                stall,
                end,
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// TEL-03: merging any three histograms is associative and
    /// commutative on bucket contents.
    #[test]
    fn histogram_merge_is_associative(a in sample_set(), b in sample_set(), c in sample_set()) {
        let violations = check_histogram_merge("proptest", &[a, b, c]);
        prop_assert!(
            violations.is_empty(),
            "{}",
            pstore_core::invariant::report(&violations)
        );
    }

    /// TEL-01/02: any properly bracketed sequence of begin/end events —
    /// encoded as a balanced depth profile — passes the span checker.
    #[test]
    fn balanced_span_traces_are_clean(profile in prop::collection::vec(any::<bool>(), 0..40)) {
        let mut events = Vec::new();
        let mut stack = Vec::new();
        let mut next_id = 1u64;
        for open in profile {
            let seq = events.len() as u64 + 1;
            if open || stack.is_empty() {
                events.push(span(true, seq, None, next_id, "reconfig"));
                stack.push(next_id);
                next_id += 1;
            } else {
                let id = stack.pop().unwrap();
                events.push(span(false, seq, None, id, "reconfig"));
            }
        }
        while let Some(id) = stack.pop() {
            let seq = events.len() as u64 + 1;
            events.push(span(false, seq, None, id, "reconfig"));
        }
        let violations = check_trace_spans("proptest", &events);
        prop_assert!(
            violations.is_empty(),
            "{}",
            pstore_core::invariant::report(&violations)
        );
    }

    /// TEL-04: any balanced span trace stamped with a monotone sim clock
    /// passes the ordering checker.
    #[test]
    fn stamped_traces_are_ordered(
        profile in prop::collection::vec((any::<bool>(), 0.0..2.0f64), 0..40)
    ) {
        let events = stamped_trace(&profile);
        let violations = check_trace_order("proptest", &events);
        prop_assert!(
            violations.is_empty(),
            "{}",
            pstore_core::invariant::report(&violations)
        );
    }

    /// TEL-04: duplicating any event's seq (or swapping it backwards) is
    /// always flagged as an ordering violation.
    #[test]
    fn seq_regression_is_always_flagged(
        profile in prop::collection::vec((any::<bool>(), 0.0..2.0f64), 2..40),
        pick in 0usize..4096
    ) {
        let mut events = stamped_trace(&profile);
        // Clobber one event's seq (not the first) with the previous seq.
        let i = 1 + pick % (events.len() - 1);
        events[i].seq = events[i - 1].seq;
        let violations = check_trace_order("proptest", &events);
        prop_assert!(!violations.is_empty());
    }

    /// TEL-04: sim time regressing while a span is open is always
    /// flagged, however small the step back.
    #[test]
    fn time_regression_in_open_span_is_flagged(t0 in 1.0..1e6f64, back in 0.001..0.9f64) {
        let begin = span(true, 1, Some(t0), 1, "reconfig");
        let end = span(false, 2, Some(t0 * (1.0 - back)), 1, "reconfig");
        let violations = check_trace_order("proptest", &[begin, end]);
        prop_assert!(!violations.is_empty());
    }

    /// An unbalanced trace (one dangling begin) is always flagged.
    #[test]
    fn dangling_span_is_always_flagged(extra in 1u64..100) {
        let violations = check_trace_spans("proptest", &[span(true, 1, None, extra, "reconfig")]);
        prop_assert_eq!(violations.len(), 1);
    }
}
