//! Telemetry-trace checkers: the `TEL-*` invariant family.
//!
//! `TEL-01` (reconfiguration/span pairing) and `TEL-02` (LIFO span
//! nesting) reuse [`pstore_telemetry::trace::span_errors`] — the same
//! implementation the `pstore-trace` binary runs over JSONL files — and
//! translate each structural error into a [`Violation`]. `TEL-03` checks
//! that merging latency histograms is associative and commutative on
//! bucket contents, so per-phase histograms can be combined in any order
//! without changing percentile readouts. `TEL-04` (total event ordering)
//! reuses [`pstore_telemetry::trace::order_errors`].
//!
//! The per-transaction family rides the same traces: `TEL-06` checks
//! txn-lifecycle well-formedness (every `txn_arrive` terminally resolved
//! exactly once, no event for an unopened id, and the terminal latency
//! attribution summing `queue + exec + stall == total`), and `TXN-01`
//! checks that recorded read/write sets are consistent with declared
//! partition access (destination-side accesses and restarts only while
//! migrating, rwset slot matching the arrival slot).

use crate::decoded;
use pstore_core::{InvariantId, Violation};
use pstore_telemetry::trace::{order_errors, span_errors, SpanError};
use pstore_telemetry::{Event, Histogram, Record};
use std::collections::{BTreeMap, BTreeSet};

/// Checks span pairing (`TEL-01`) and nesting (`TEL-02`) over a trace.
///
/// Pairing violations are ends without a begin and spans left open at end
/// of trace; nesting violations are duplicate open ids, out-of-LIFO-order
/// closes, and events that do not decode (a span event without its id).
pub fn check_trace_spans(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let (trace, mut violations) = decoded(InvariantId::TelemetrySpanNesting, artifact, events);
    violations.extend(span_errors(&trace).into_iter().map(|err| {
        let invariant = match err {
            SpanError::EndWithoutBegin { .. } | SpanError::Unclosed { .. } => {
                InvariantId::TelemetryReconfigPairing
            }
            SpanError::DuplicateBegin { .. } | SpanError::BadNesting { .. } => {
                InvariantId::TelemetrySpanNesting
            }
        };
        Violation::new(invariant, artifact, err.to_string())
    }));
    violations
}

/// Checks total event ordering (`TEL-04`) over a trace: `seq` strictly
/// increases and sim-time `t` never regresses while a span is open.
pub fn check_trace_order(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let (trace, mut violations) = decoded(InvariantId::TelemetryOrdering, artifact, events);
    violations.extend(
        order_errors(&trace)
            .into_iter()
            .map(|err| Violation::new(InvariantId::TelemetryOrdering, artifact, err.to_string())),
    );
    violations
}

/// Builds a histogram over one sample set.
fn hist_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Checks that histogram merging is associative and commutative on bucket
/// contents (`TEL-03`): `(a + b) + c` must equal `a + (b + c)` and
/// `a + b` must equal `b + a`, up to floating-point reassociation of the
/// running sum (see [`Histogram::content_eq`]).
pub fn check_histogram_merge(artifact: &str, sets: &[Vec<f64>; 3]) -> Vec<Violation> {
    let [a, b, c] = sets;
    let (ha, hb, hc) = (hist_of(a), hist_of(b), hist_of(c));
    let mut violations = Vec::new();

    let mut left = ha.clone();
    left.merge(&hb);
    left.merge(&hc);
    let mut right_tail = hb.clone();
    right_tail.merge(&hc);
    let mut right = ha.clone();
    right.merge(&right_tail);
    if !left.content_eq(&right) {
        violations.push(Violation::new(
            InvariantId::TelemetryHistogramMerge,
            artifact,
            format!(
                "(a+b)+c != a+(b+c): counts {} vs {}, p99 {} vs {}",
                left.count(),
                right.count(),
                left.quantile(0.99),
                right.quantile(0.99)
            ),
        ));
    }

    let mut ab = ha.clone();
    ab.merge(&hb);
    let mut ba = hb.clone();
    ba.merge(&ha);
    if !ab.content_eq(&ba) {
        violations.push(Violation::new(
            InvariantId::TelemetryHistogramMerge,
            artifact,
            "a+b != b+a: merge is not commutative on bucket contents".to_string(),
        ));
    }

    // Merging must preserve the total sample count exactly.
    let expected = a.len() + b.len() + c.len();
    if left.count() != expected as u64 {
        violations.push(Violation::new(
            InvariantId::TelemetryHistogramMerge,
            artifact,
            format!("merged count {} != total samples {expected}", left.count()),
        ));
    }
    violations
}

/// Tolerance for the TEL-06 attribution identity. The recorder computes
/// `total` as the literal f64 sum `queue + exec + stall`, so only JSON
/// round-trip noise can separate them.
const ATTR_SUM_TOL: f64 = 1e-6;

/// Checks txn-lifecycle well-formedness (`TEL-06`) over a trace:
///
/// - a `txn_arrive` id stays unique until terminally resolved (resolved
///   ids may be reused by later transactions);
/// - every lifecycle event references a currently open transaction;
/// - every open transaction is resolved by exactly one
///   `txn_commit`/`txn_abort` before end of trace;
/// - the terminal event's attribution satisfies
///   `queue + exec + stall == total` within [`ATTR_SUM_TOL`].
///
/// Traces with no txn events (sampling off) are trivially clean.
pub fn check_txn_lifecycle(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let (trace, mut violations) = decoded(InvariantId::TelemetryTxnLifecycle, artifact, events);
    let mut open: BTreeSet<u64> = BTreeSet::new();
    let mut push = |detail: String| {
        violations.push(Violation::new(
            InvariantId::TelemetryTxnLifecycle,
            artifact,
            detail,
        ));
    };
    for e in &trace {
        // The transaction an event belongs to and, for a terminal event,
        // its `(total, queue + exec + stall)` attribution.
        let (id, terminal) = match &e.record {
            Record::TxnArrive(arrive) => {
                if !open.insert(arrive.id) {
                    push(format!(
                        "txn {}: re-arrived while still open (seq {})",
                        arrive.id, e.seq
                    ));
                }
                continue;
            }
            Record::TxnQueue(r) => (r.id, None),
            Record::TxnStall(r) => (r.id, None),
            Record::TxnExecute(r) => (r.id, None),
            Record::TxnRestart(r) => (r.id, None),
            Record::TxnRwset(r) => (r.id, None),
            Record::TxnCommit(r) => (r.id, Some((r.total, r.queue + r.exec + r.stall))),
            Record::TxnAbort(r) => (r.id, Some((r.total, r.queue + r.exec + r.stall))),
            _ => continue,
        };
        let kind = e.record.kind();
        if !open.contains(&id) {
            push(format!(
                "txn {id}: {kind} for a transaction that is not open (seq {})",
                e.seq
            ));
            continue;
        }
        if let Some((total, parts)) = terminal {
            open.remove(&id);
            let tol = ATTR_SUM_TOL * total.abs().max(1.0);
            let gap = (parts - total).abs();
            // A NaN gap (a non-finite component) must also count.
            if gap.is_nan() || gap > tol {
                push(format!(
                    "txn {id}: attribution {parts} != total {total} at {kind} (seq {})",
                    e.seq
                ));
            }
        }
    }
    for id in open.iter().take(10) {
        push(format!("txn {id}: arrived but never committed or aborted"));
    }
    if open.len() > 10 {
        push(format!("... and {} more unresolved txns", open.len() - 10));
    }
    violations
}

/// Checks read/write-set consistency (`TXN-01`) over a trace:
///
/// - `txn_rwset` destination-side counts (`dest_reads`/`dest_writes`)
///   are only non-zero when the record says the slot was `migrating`;
/// - a `restarted` rwset (Squall-style reroute) implies `migrating`;
/// - destination counts never exceed the totals they are part of;
/// - the rwset's `slot` (and any `txn_restart` slot) matches the slot
///   the transaction arrived on.
pub fn check_txn_rwsets(artifact: &str, events: &[Event]) -> Vec<Violation> {
    let (trace, mut violations) = decoded(InvariantId::TxnReadWriteSets, artifact, events);
    let mut arrive_slot: BTreeMap<u64, u64> = BTreeMap::new();
    let mut push = |detail: String| {
        violations.push(Violation::new(
            InvariantId::TxnReadWriteSets,
            artifact,
            detail,
        ));
    };
    for e in &trace {
        match &e.record {
            Record::TxnArrive(arrive) => {
                arrive_slot.insert(arrive.id, arrive.slot);
            }
            Record::TxnCommit(r) => {
                arrive_slot.remove(&r.id);
            }
            Record::TxnAbort(r) => {
                arrive_slot.remove(&r.id);
            }
            Record::TxnRestart(r) => {
                let (id, slot) = (r.id, r.slot);
                if let Some(&declared) = arrive_slot.get(&id).filter(|&&d| d != slot) {
                    push(format!(
                        "txn {id}: restart on slot {slot} but arrived on slot {declared}"
                    ));
                }
            }
            Record::TxnRwset(rw) => {
                let id = rw.id;
                let (reads, writes) = (rw.reads, rw.writes);
                let (dest_reads, dest_writes) = (rw.dest_reads, rw.dest_writes);
                if !rw.migrating && (dest_reads > 0 || dest_writes > 0) {
                    push(format!(
                        "txn {id}: destination accesses ({dest_reads}r/{dest_writes}w) while slot not migrating"
                    ));
                }
                if rw.restarted && !rw.migrating {
                    push(format!("txn {id}: restarted outside a migration"));
                }
                if dest_reads > reads || dest_writes > writes {
                    push(format!(
                        "txn {id}: destination counts {dest_reads}r/{dest_writes}w exceed totals {reads}r/{writes}w"
                    ));
                }
                let slot = rw.slot;
                if let Some(&declared) = arrive_slot.get(&id).filter(|&&d| d != slot) {
                    push(format!(
                        "txn {id}: rwset on slot {slot} but arrived on slot {declared}"
                    ));
                }
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstore_telemetry::{
        SpanBegin, SpanEnd, TxnAbort, TxnArrive, TxnCommit, TxnExecute, TxnQueue, TxnRestart,
        TxnRwset,
    };

    fn ev(seq: u64, record: impl Into<Record>) -> Event {
        let mut e = record.into().encode();
        e.seq = seq;
        e
    }

    fn begin(seq: u64, id: u64) -> Event {
        ev(seq, SpanBegin::new(id, "reconfig"))
    }

    fn end(seq: u64, id: u64) -> Event {
        ev(seq, SpanEnd::new(id, "reconfig"))
    }

    #[test]
    fn well_formed_nested_spans_are_clean() {
        let trace = vec![begin(1, 10), begin(2, 11), end(3, 11), end(4, 10)];
        assert!(check_trace_spans("t", &trace).is_empty());
    }

    #[test]
    fn dangling_span_is_a_pairing_violation() {
        let trace = vec![begin(1, 10)];
        let v = check_trace_spans("t", &trace);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantId::TelemetryReconfigPairing);
    }

    #[test]
    fn out_of_order_close_is_a_nesting_violation() {
        let trace = vec![begin(1, 10), begin(2, 11), end(3, 10), end(4, 11)];
        let v = check_trace_spans("t", &trace);
        assert!(v
            .iter()
            .any(|x| x.invariant == InvariantId::TelemetrySpanNesting));
    }

    /// An event that does not match the schema of its kind is reported
    /// under the invariant being checked, never analysed as zeros.
    #[test]
    fn undecodable_events_violate_the_invariant_under_evaluation() {
        let mut idless = begin(1, 10);
        idless.fields.retain(|(k, _)| k != "id");
        let v = check_trace_spans("t", &[idless]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantId::TelemetrySpanNesting);
        assert!(v[0].detail.contains("\"id\""), "{}", v[0].detail);

        let mut totalless = commit(2, 3, 0.5, 0.1, 0.0);
        totalless.fields.retain(|(k, _)| k != "total");
        let trace = vec![ev(1, TxnArrive { id: 3, slot: 0 }), totalless];
        let v = check_txn_lifecycle("t", &trace);
        assert!(v.iter().all(|x| x.invariant.code() == "TEL-06"), "{v:?}");
        assert!(v.iter().any(|x| x.detail.contains("\"total\"")), "{v:?}");
        let v = check_txn_rwsets("t", &trace);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant.code(), "TXN-01");
    }

    fn stamped(mut e: Event, t: f64) -> Event {
        e.t = Some(t);
        e
    }

    #[test]
    fn ordered_trace_passes_tel04() {
        let trace = vec![
            stamped(begin(1, 10), 0.0),
            stamped(begin(2, 11), 1.0),
            stamped(end(3, 11), 2.0),
            stamped(end(4, 10), 3.0),
        ];
        assert!(check_trace_order("t", &trace).is_empty());
    }

    #[test]
    fn seq_and_time_regressions_violate_tel04() {
        // seq goes backwards.
        let trace = vec![stamped(begin(2, 10), 0.0), stamped(end(1, 10), 1.0)];
        let v = check_trace_order("t", &trace);
        assert!(!v.is_empty());
        assert!(v
            .iter()
            .all(|x| x.invariant == InvariantId::TelemetryOrdering));

        // t regresses while span 10 is still open.
        let trace = vec![stamped(begin(1, 10), 5.0), stamped(end(2, 10), 2.0)];
        assert!(!check_trace_order("t", &trace).is_empty());

        // ... but a reset at an empty span stack is a legal run boundary.
        let trace = vec![
            stamped(begin(1, 10), 5.0),
            stamped(end(2, 10), 6.0),
            stamped(begin(3, 11), 0.0),
            stamped(end(4, 11), 1.0),
        ];
        assert!(check_trace_order("t", &trace).is_empty());
    }

    #[test]
    fn histogram_merge_is_associative_on_simple_sets() {
        let sets = [
            vec![0.001, 0.01, 0.5],
            vec![0.2, 0.2, 3.0],
            vec![0.0004, 10.0],
        ];
        assert!(check_histogram_merge("t", &sets).is_empty());
    }

    fn arrive(seq: u64, id: u64, slot: u64) -> Event {
        ev(seq, TxnArrive { id, slot })
    }

    fn commit(seq: u64, id: u64, queue: f64, exec: f64, stall: f64) -> Event {
        ev(
            seq,
            TxnCommit {
                id,
                total: queue + exec + stall,
                queue,
                exec,
                stall,
                end: 0.0,
            },
        )
    }

    #[test]
    fn well_formed_txn_lifecycle_is_clean_and_ids_are_reusable() {
        let trace = vec![
            arrive(1, 7, 3),
            ev(
                2,
                TxnQueue {
                    id: 7,
                    wait: 0.1,
                    stall: 0.0,
                },
            ),
            ev(
                3,
                TxnExecute {
                    id: 7,
                    service: 0.01,
                },
            ),
            commit(4, 7, 0.1, 0.01, 0.0),
            // Resolved ids may be reused by a later transaction.
            arrive(5, 7, 4),
            ev(
                6,
                TxnAbort {
                    id: 7,
                    total: 1.5,
                    queue: 1.0,
                    exec: 0.0,
                    stall: 0.5,
                    end: 0.0,
                    reason: Some("timeout".into()),
                },
            ),
        ];
        assert!(check_txn_lifecycle("t", &trace).is_empty());
        // An empty trace (sampling off) is trivially clean.
        assert!(check_txn_lifecycle("t", &[]).is_empty());
    }

    #[test]
    fn unresolved_unopened_and_duplicate_txns_violate_tel06() {
        let never_resolved = vec![arrive(1, 1, 0)];
        let v = check_txn_lifecycle("t", &never_resolved);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant.code(), "TEL-06");
        assert!(v[0].detail.contains("never committed"));

        let unopened = vec![commit(1, 9, 0.0, 0.01, 0.0)];
        assert!(check_txn_lifecycle("t", &unopened)[0]
            .detail
            .contains("not open"));

        let duplicate = vec![
            arrive(1, 2, 0),
            arrive(2, 2, 0),
            commit(3, 2, 0.0, 0.01, 0.0),
        ];
        assert!(check_txn_lifecycle("t", &duplicate)
            .iter()
            .any(|x| x.detail.contains("re-arrived")));
    }

    #[test]
    fn attribution_that_does_not_sum_violates_tel06() {
        let mut skewed = commit(2, 3, 0.5, 0.1, 0.0);
        for (key, value) in &mut skewed.fields {
            if key == "total" {
                *value = 1.0.into();
            }
        }
        let trace = vec![arrive(1, 3, 0), skewed];
        let v = check_txn_lifecycle("t", &trace);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("attribution"));
    }

    /// An rwset record with 2 reads / 1 write and the given destination
    /// counts and flags.
    fn rwset(
        seq: u64,
        id: u64,
        slot: u64,
        dest: (u64, u64),
        migrating: bool,
        restarted: bool,
    ) -> Event {
        ev(
            seq,
            TxnRwset {
                id,
                slot,
                reads: 2,
                writes: 1,
                dest_reads: dest.0,
                dest_writes: dest.1,
                migrating,
                restarted,
                committed: true,
                ..TxnRwset::default()
            },
        )
    }

    #[test]
    fn consistent_rwsets_are_clean() {
        let trace = vec![
            arrive(1, 5, 9),
            rwset(2, 5, 9, (0, 0), false, false),
            commit(3, 5, 0.0, 0.01, 0.0),
            // Migrating txns may touch the destination and restart.
            arrive(4, 6, 1),
            ev(5, TxnRestart { id: 6, slot: 1 }),
            rwset(6, 6, 1, (1, 0), true, true),
            commit(7, 6, 0.0, 0.01, 0.0),
        ];
        assert!(check_txn_rwsets("t", &trace).is_empty());
    }

    #[test]
    fn dest_access_outside_migration_violates_txn01() {
        let trace = vec![arrive(1, 5, 9), rwset(2, 5, 9, (0, 1), false, false)];
        let v = check_txn_rwsets("t", &trace);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant.code(), "TXN-01");
        assert!(v[0].detail.contains("not migrating"));

        let restarted = vec![arrive(1, 5, 9), rwset(2, 5, 9, (0, 0), false, true)];
        assert!(check_txn_rwsets("t", &restarted)[0]
            .detail
            .contains("outside a migration"));
    }

    #[test]
    fn slot_mismatch_and_overflow_violate_txn01() {
        let trace = vec![arrive(1, 5, 9), rwset(2, 5, 8, (0, 0), false, false)];
        assert!(check_txn_rwsets("t", &trace)[0]
            .detail
            .contains("arrived on slot 9"));

        let overflow = vec![arrive(1, 5, 9), rwset(2, 5, 9, (5, 0), true, false)];
        assert!(check_txn_rwsets("t", &overflow)[0]
            .detail
            .contains("exceed totals"));
    }
}
