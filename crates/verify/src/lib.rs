//! Workspace-wide invariant checking for the P-Store reproduction.
//!
//! Every artifact family the system produces has a checker module here:
//!
//! * [`schedule`] — migration schedules ([`MigrationSchedule`]): round-count
//!   minimality, matching validity, `1/(A*B)` data conservation, scale-in =
//!   time-reverse of scale-out, and agreement with the closed forms of
//!   Algorithm 4 (average machines) and Equation 2 (peak parallelism).
//! * [`moves`] — move sequences ([`MoveSeq`]): contiguous horizon tiling,
//!   positive durations, single-interval no-ops, machine-count chaining.
//! * [`plan`] — planner output: capacity ≥ predicted load at all times
//!   *including mid-move effective capacity* (Eq 7), correct endpoints, and
//!   optimality against a brute-force oracle on small horizons.
//! * [`forecast`] — load predictions: finite and (on the production path)
//!   non-negative values, SPAR periodicity sanity.
//! * [`telemetry`] — telemetry traces and metrics: span pairing and LIFO
//!   nesting over event streams, histogram-merge associativity
//!   (`TEL-01..03`, see docs/observability.md).
//! * [`prov`] — the provisioning observatory's `prov_*` event family:
//!   the capacity ledger conserves machine-seconds against the raw
//!   per-interval stream (`PRV-01`), every reconfiguration traces to
//!   exactly one decision and predictive decisions keep their lead
//!   (`PRV-02`), and forecast scoring is exactly-once against real
//!   observations (`PRV-03`).
//! * [`iso`] — serializability of sampled key-level histories
//!   (IsoPredict-style): the direct serialization graph over captured
//!   `(key, version)` read/write sets is acyclic (`ISO-01`), reads
//!   observe versions installed at or before the reader in commit order
//!   (`ISO-02`), and Squall restarts leave no orphan versions — unique
//!   installers, monotone per-key version order, read-your-restart
//!   (`ISO-03`).
//!
//! Each checker returns structured [`Violation`] diagnostics naming the
//! artifact, the invariant id (`SCH-01` ...) and an explanation, so a single
//! run can report every broken invariant at once. The invariant ids and the
//! [`Violation`] type are shared with `pstore-core`, whose producers also
//! self-check in every debug build — the checkers here are
//! the *cross-artifact* layer on top (they compare schedules against their
//! mirrors, plans against oracles, closed forms against constructions).
//!
//! The crate's integration tests drive the checkers, and `cargo test`
//! runs them: `tests/schedule.rs` every `(A, B)` pair up to 64 machines,
//! `tests/proptest_plan.rs` randomized planner scenarios and the
//! optimality oracle, `tests/forecast.rs` the forecasting models,
//! `tests/proptest_telemetry.rs` randomized traces, and
//! `tests/sim_traces.rs` the traces of fixed-seed detailed-simulator runs
//! (`ISO-*`, `PRV-*`, `TEL-06`, `TXN-01`). The full catalogue of
//! invariants lives in `docs/invariants.md`.
//!
//! [`MigrationSchedule`]: pstore_core::schedule::MigrationSchedule
//! [`MoveSeq`]: pstore_core::MoveSeq

#![warn(missing_docs)]

#[cfg(test)]
mod catalogue;
pub mod forecast;
pub mod iso;
pub mod moves;
pub mod plan;
pub mod prov;
pub mod schedule;
pub mod telemetry;

pub use pstore_core::{InvariantId, Violation};

use pstore_telemetry::{Entry, Event};

/// Decodes a captured trace for a checker of `invariant`: the entries,
/// and one violation of that invariant per event that does not match the
/// schema of its kind (a required field missing or of another type) — a
/// checker must never reason over evidence it cannot read.
pub(crate) fn decoded(
    invariant: InvariantId,
    artifact: &str,
    events: &[Event],
) -> (Vec<Entry>, Vec<Violation>) {
    let (trace, errors) = pstore_telemetry::decode_trace(events);
    let undecodable = |(seq, err)| {
        Violation::new(
            invariant,
            artifact,
            format!("seq {seq}: undecodable event: {err}"),
        )
    };
    (trace, errors.into_iter().map(undecodable).collect())
}
