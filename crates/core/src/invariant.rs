//! Structured invariant diagnostics shared by the library and the
//! `pstore-verify` checkers.
//!
//! Every paper-specified invariant the system relies on has a stable
//! identifier here, anchored to the section of the SIGMOD 2018 paper that
//! states it (see `docs/invariants.md` for the full catalogue). Checkers —
//! both the in-library `check_*` methods and the `pstore-verify` checkers —
//! report failures as [`Violation`] values instead of ad-hoc strings, so
//! the library and the verifier can never drift apart on what "valid"
//! means.

use std::fmt;

/// Declares every invariant once: its [`InvariantId`] variant, stable
/// code, paper reference, one-line summary and checker. From each row
/// follow the variant (documented by its summary), [`InvariantId::code`],
/// [`InvariantId::paper_ref`], [`InvariantId::summary`],
/// [`InvariantId::checker`] and its place in [`InvariantId::ALL`] — and
/// the family tables of `docs/invariants.md`, which `pstore-verify`'s
/// catalogue test compares with what these rows generate.
macro_rules! invariants {
    ($(
        $variant:ident = $code:literal [$paper:literal]
            $summary:literal => $checker:literal;
    )+) => {
        /// Identifier of one paper-specified invariant. Codes are
        /// `FAM-NN`: `SCH` migration schedules, `MOV` move sequences,
        /// `PLN` planner output, `FOR` forecasts, `TEL` telemetry traces,
        /// `TXN` transaction records, `ISO` serializability, `PRV` the
        /// provisioning record.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum InvariantId {
            $( #[doc = concat!("`", $code, "` (", $paper, "): ", $summary, ".")] $variant, )+
        }

        impl InvariantId {
            /// Every invariant, in catalogue order.
            pub const ALL: &'static [InvariantId] = &[ $( InvariantId::$variant, )+ ];

            /// The stable short code used in reports and `docs/invariants.md`.
            pub fn code(self) -> &'static str {
                match self { $( InvariantId::$variant => $code, )+ }
            }

            /// The paper section (or figure/table/algorithm) stating the
            /// invariant.
            pub fn paper_ref(self) -> &'static str {
                match self { $( InvariantId::$variant => $paper, )+ }
            }

            /// What the invariant demands, in one line.
            pub fn summary(self) -> &'static str {
                match self { $( InvariantId::$variant => $summary, )+ }
            }

            /// Where the invariant is checked.
            pub fn checker(self) -> &'static str {
                match self { $( InvariantId::$variant => $checker, )+ }
            }
        }
    };
}

invariants! {
    ScheduleRoundCount = "SCH-01" ["§4.4.1, Table 1"]
        "A `B → A` schedule has exactly `max(s, Δ)` rounds, the theoretical minimum"
        => "`MigrationSchedule::check_violations`; swept by `verify::schedule`";
    ScheduleRoundMatching = "SCH-02" ["§4.4.1"]
        "Every round is a matching: no machine appears in two transfers of one round"
        => "`MigrationSchedule::check_violations`; swept by `verify::schedule`";
    SchedulePairCoverage = "SCH-03" ["§4.4.1 (1/(A·B) conservation)"]
        "Every (sender, receiver) pair transfers exactly once — `1/(A·B)` of the data moves \
         per pair"
        => "`MigrationSchedule::check_violations`; swept by `verify::schedule`";
    SchedulePresence = "SCH-04" ["§4.4.1, Table 1 (JIT allocation)"]
        "Transfers only involve machines allocated during that round (just-in-time allocation)"
        => "`MigrationSchedule::check_violations`; swept by `verify::schedule`";
    ScheduleRoleDirection = "SCH-05" ["§4.4.1"]
        "On scale-out only pre-existing machines send and only new machines receive (scale-in \
         mirrors)"
        => "`MigrationSchedule::check_violations`; swept by `verify::schedule`";
    ScheduleNoopEmpty = "SCH-06" ["§4.3"]
        "The `B == A` no-op schedule has no rounds"
        => "`MigrationSchedule::check_violations`; swept by `verify::schedule`";
    ScheduleReversal = "SCH-07" ["§4.4.2"]
        "Scale-in is the exact time-reverse of the corresponding scale-out schedule"
        => "`verify::schedule::check_schedule_pair`";
    ScheduleAvgMachines = "SCH-08" ["Algorithm 4"]
        "Schedule-derived average machine allocation equals Algorithm 4's closed form"
        => "`verify::schedule` (tolerance 1e-9)";
    SchedulePeakParallelism = "SCH-09" ["Equation 2"]
        "Per-round parallelism matches Equation 2's bound"
        => "`verify::schedule`";
    MoveTiling = "MOV-01" ["Algorithm 2"]
        "A plan tiles the planning horizon contiguously, from interval 0 to `t_max`"
        => "`pstore_core::check_moves` + `verify::moves::check_move_seq`";
    MoveDuration = "MOV-02" ["Algorithm 2"]
        "Every move has positive duration (`end > start`)"
        => "`pstore_core::check_moves`";
    MoveNoopUnit = "MOV-03" ["Algorithm 2, line 9"]
        "\"Do nothing\" moves last exactly one interval"
        => "`pstore_core::check_moves`";
    MoveChaining = "MOV-04" ["Algorithm 1"]
        "Machine counts chain across consecutive moves"
        => "`pstore_core::check_moves`";
    PlanCapacity = "PLN-01" ["Equation 7, Fig 4"]
        "Predicted load never exceeds capacity, including Equation 7's *effective* capacity \
         mid-move"
        => "`verify::plan::check_plan` (independent recomputation)";
    PlanStart = "PLN-02" ["Algorithm 1"]
        "A plan starts at the current machine count at `t = 0`"
        => "`verify::plan::check_plan`";
    PlanOptimality = "PLN-03" ["Algorithms 1–3"]
        "The DP matches an independent optimality oracle on feasibility, final machine count \
         and cost"
        => "`verify::plan::check_plan_optimality`";
    ForecastFinite = "FOR-01" ["§5"]
        "Predictions are finite and non-NaN; the production path (`OnlinePredictor::forecast`) \
         additionally clamps negatives to zero"
        => "`verify::forecast::check_curve` / `check_curve_finite`";
    ForecastPeriodicity = "FOR-02" ["§5.1"]
        "SPAR reproduces a strictly periodic signal over future periods"
        => "`verify::forecast::check_spar_periodicity`";
    TelemetryReconfigPairing = "TEL-01" ["§4.4 (moves terminate)"]
        "Every `span_begin` in a trace has exactly one matching `span_end` — reconfigurations \
         in particular always terminate"
        => "`pstore_telemetry::trace::span_errors` via `verify::telemetry::check_trace_spans`; \
            enforced on files by `pstore-trace` (exit 1)";
    TelemetrySpanNesting = "TEL-02" ["docs/observability.md"]
        "Span events nest LIFO: an end closes the innermost open span, ids are unique among \
         open spans, no span dangles at end of trace"
        => "`pstore_telemetry::trace::span_errors` via `verify::telemetry::check_trace_spans`; \
            enforced on files by `pstore-trace` (exit 1)";
    TelemetryHistogramMerge = "TEL-03" ["docs/observability.md"]
        "Histogram merging is associative and commutative on bucket contents (per-phase \
         histograms combine in any order without changing percentiles)"
        => "`verify::telemetry::check_histogram_merge`; proptest in \
            `crates/verify/tests/proptest_telemetry.rs`";
    TelemetryOrdering = "TEL-04" ["docs/observability.md"]
        "Trace events are totally ordered: `seq` strictly increases; sim time `t` never \
         regresses while a span is open (resets are legal only at an empty span stack — the \
         boundary between concatenated per-cell traces)"
        => "`pstore_telemetry::trace::order_errors` via `verify::telemetry::check_trace_order`; \
            enforced on files by `pstore-trace` (exit 1)";
    TelemetryTxnLifecycle = "TEL-06" ["docs/observability.md"]
        "Every traced transaction's lifecycle is well-formed: a `txn_arrive` is terminally \
         resolved by exactly one `txn_commit`/`txn_abort`, no `txn_*` event references an \
         unopened id, and terminal attribution sums — `queue + exec + stall == total`"
        => "`verify::telemetry::check_txn_lifecycle`; swept with sampled txn traffic in \
            `crates/verify/tests/proptest_telemetry.rs`; e2e in \
            `crates/verify/tests/sim_traces.rs`";
    TxnReadWriteSets = "TXN-01" ["§4.2 (Squall reconfiguration)"]
        "A transaction's read/write-set record is consistent with migration state: \
         destination-side accesses (`dest_reads`/`dest_writes`) and restarts occur only while \
         its slot is migrating, destination counts never exceed the totals, and the record \
         (like any restart) lands on the slot the transaction arrived at"
        => "`verify::telemetry::check_txn_rwsets`; swept with sampled txn traffic in \
            `crates/verify/tests/proptest_telemetry.rs`; e2e in \
            `crates/verify/tests/sim_traces.rs`";
    IsoDsgAcyclic = "ISO-01" ["§4.2 (transparent migration; IsoPredict DSG)"]
        "The direct serialization graph over sampled key-level histories is acyclic — the \
         execution is conflict-serializable, and any violation is reported as a named \
         dependency cycle (`T5 -WW(t0:k)-> T7 -RW(t0:j)-> T5`)"
        => "`verify::iso::check_dsg_acyclic`; seeded lost-update / write-skew twins in \
            `crates/verify/tests/iso_seeded_bugs.rs`; proptests in `iso_proptests.rs`";
    IsoReadCommitOrder = "ISO-02" ["§4.2 (commit-order equivalence)"]
        "Every read observes a version installed at or before the reader's commit position — \
         no read from the future, and the commit order is its own serial witness (every DSG \
         edge points forward)"
        => "`verify::iso::check_read_commit_order` + `serial_witness_errors`; seeded \
            future-read twin";
    IsoRestartIntegrity = "ISO-03" ["§4.2 (Squall restart semantics)"]
        "Restarted transactions leave no orphan versions: each version has exactly one \
         installer, per-key versions never regress in commit order, and a transaction never \
         reads its own key past its last install"
        => "`verify::iso::check_restart_integrity`";
    ProvLedgerConservation = "PRV-01" ["Fig 9 (capacity over/under-provision areas)"]
        "The capacity ledger conserves machine-seconds: `provisioned`, `ideal`, `over` and \
         `under` each equal an independent integration of the raw `prov_interval` stream (with \
         `ideal = ceil(observed/Q)·interval`, the Fig 9 area construction), `provisioned - \
         ideal = over - under` holds as an identity, interval indices never duplicate, and \
         each reconfiguration's endpoints, chunk count and byte total agree with the \
         `prov_chunk` moves attributed to it"
        => "`verify::prov::check_prov_ledger`; proptests in \
            `crates/verify/tests/prov_proptests.rs`";
    ProvDecisionCausality = "PRV-02" ["§6 (decisions start D ahead of demand)"]
        "Decision causality: decision ids are unique, every `prov_reconfig` carries the id of \
         exactly one known decision, no decision causes two reconfigurations, a \
         reconfiguration never starts before its decision, and a predictive decision (lead ≥ \
         1) starts its reconfiguration early enough to finish the lead ahead of the interval \
         it provisioned for"
        => "`verify::prov::check_prov_causality`";
    ProvForecastBookkeeping = "PRV-03" ["§5 (per-horizon forecast scoring)"]
        "Exactly-once forecast scoring: each `(model, horizon, target-interval)` triple is \
         scored at most once, and every score's `observed` value equals the load the matching \
         `prov_interval` actually recorded — accuracy numbers (MAPE/bias per horizon) are \
         computed against reality, not against a restated forecast"
        => "`verify::prov::check_prov_forecast_bookkeeping`";
}

impl fmt::Display for InvariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One invariant violation: which artifact broke which invariant, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that failed.
    pub invariant: InvariantId,
    /// The artifact being checked, e.g. `schedule 3->14` or
    /// `plan horizon=20 n0=2`.
    pub artifact: String,
    /// Human-readable explanation of the failure.
    pub detail: String,
}

impl Violation {
    /// Builds a violation record.
    pub fn new(
        invariant: InvariantId,
        artifact: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Violation {
            invariant,
            artifact: artifact.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {}] {}: {}",
            self.invariant.code(),
            self.invariant.paper_ref(),
            self.artifact,
            self.detail
        )
    }
}

/// Formats violations one per line; `Ok` summary when the list is empty.
pub fn report(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "ok: no invariant violations".to_string();
    }
    let lines: Vec<String> = violations.iter().map(ToString::to_string).collect();
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_section_and_artifact() {
        let v = Violation::new(
            InvariantId::ScheduleRoundCount,
            "schedule 3->14",
            "expected 11 rounds, found 12",
        );
        let s = v.to_string();
        assert!(s.contains("SCH-01"));
        assert!(s.contains("Table 1"));
        assert!(s.contains("schedule 3->14"));
        assert!(s.contains("12"));
    }

    /// Numbers whose invariant was deleted with the code it checked. They
    /// are not reused, so an old report or commit keeps its meaning;
    /// docs/invariants.md says what each was.
    const RETIRED: &[&str] = &["TEL-05"];

    #[test]
    fn every_registry_row_is_unique_numbered_and_described() {
        let mut codes = std::collections::BTreeSet::new();
        let mut rows_in_family = std::collections::BTreeMap::new();
        for &id in InvariantId::ALL {
            let code = id.code();
            assert!(codes.insert(code), "{code} is registered twice");
            let family = code.split_once('-').map_or(code, |(family, _)| family);
            let rows = rows_in_family.entry(family).or_insert(0);
            *rows += 1;
            while RETIRED.contains(&format!("{family}-{rows:02}").as_str()) {
                *rows += 1;
            }
            assert_eq!(
                code,
                format!("{family}-{rows:02}"),
                "{family} must be numbered 01.. without gaps but retired ones, in registry order"
            );
            for (what, text) in [
                ("summary", id.summary()),
                ("paper ref", id.paper_ref()),
                ("checker", id.checker()),
            ] {
                assert!(!text.trim().is_empty(), "{code} has an empty {what}");
            }
        }
    }

    #[test]
    fn report_joins_lines() {
        assert!(report(&[]).starts_with("ok"));
        let vs = vec![
            Violation::new(InvariantId::MoveTiling, "seq", "gap at t=3"),
            Violation::new(InvariantId::MoveChaining, "seq", "2 then 4"),
        ];
        assert_eq!(report(&vs).lines().count(), 2);
    }
}
