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
//! * [`concurrency`] — the parallel sweep surface: fault-injected sweeps
//!   lose no cell and attribute failures deterministically, the ordered
//!   merge observes every cell's results and telemetry, cells never see
//!   another cell's registry state (`CON-01..03`).
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
//! The `pstore-verify` binary sweeps every `(A, B)` pair up to 64 machines
//! plus randomized planner and forecast scenarios and exits non-zero on any
//! violation; `scripts/static_analysis.sh` runs it as part of CI. The full
//! catalogue of invariants lives in `docs/invariants.md`.
//!
//! [`MigrationSchedule`]: pstore_core::schedule::MigrationSchedule
//! [`MoveSeq`]: pstore_core::MoveSeq

#![warn(missing_docs)]

#[cfg(test)]
mod catalogue;
pub mod concurrency;
pub mod forecast;
pub mod iso;
pub mod moves;
pub mod plan;
pub mod prov;
pub mod schedule;
pub mod telemetry;

pub use pstore_core::{InvariantId, Violation};

use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
use pstore_core::controller::Strategy;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use pstore_telemetry::{Entry, Event, TraceSpec};

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

/// One small fixed-seed detailed-simulator run of `strategy` over `load`
/// under a capturing sink installed with `spec` — the scenario the ISO and
/// PRV sweeps replay.
pub fn captured_run(
    load: Vec<f64>,
    spec: TraceSpec,
    strategy: &mut dyn Strategy,
) -> (DetailedSimResult, Vec<Event>) {
    let mut cfg = DetailedSimConfig::paper_defaults(load, 0xBEEF);
    // The paper's 300 s decision interval would outlast these few-minute
    // loads; tighten it so the controller actually reconfigures mid-run.
    cfg.params.interval = std::time::Duration::from_secs(30);
    cfg.params.d = std::time::Duration::from_secs(300);
    cfg.workload.num_skus = 2_000;
    cfg.workload.initial_carts = 600;
    cfg.num_slots = 360;
    cfg.warmup_txns = 20_000;
    let (sink, handle) = pstore_telemetry::MemorySink::new();
    let guard = pstore_telemetry::install_with(std::rc::Rc::new(sink), spec);
    let result = run_detailed(&cfg, strategy);
    drop(guard);
    (result, handle.events())
}

/// [`captured_run`] of the reactive ramp: load climbs 300 → 700 txn/s over
/// 60 s and holds, forcing the reactive controller into a live scale-out,
/// so transactions meet chunk migrations.
pub fn captured_ramp_run(spec: TraceSpec) -> (DetailedSimResult, Vec<Event>) {
    let mut load: Vec<f64> = (0..60)
        .map(|s| 300.0 + 400.0 * f64::from(s) / 60.0)
        .collect();
    load.extend(vec![700.0; 120]);
    let mut reactive = ReactiveController::new(ReactiveConfig {
        trigger_fraction: 0.9,
        headroom: 0.2,
        smoothing_window: 2,
        scale_in_patience: 10,
        ..ReactiveConfig::default()
    });
    captured_run(load, spec, &mut reactive)
}

/// Outcome of one checker sweep: artifacts examined and violations found.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Number of artifacts (schedules, plans, curves, ...) examined.
    pub artifacts: usize,
    /// Violations collected across all artifacts.
    pub violations: Vec<Violation>,
}

impl CheckStats {
    /// Folds one artifact's violations into the running stats.
    pub fn absorb(&mut self, violations: Vec<Violation>) {
        self.artifacts += 1;
        self.violations.extend(violations);
    }

    /// Whether the sweep found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}
