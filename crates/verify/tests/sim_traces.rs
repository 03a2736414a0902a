//! The checkers that need a real run, over the traces of fixed-seed
//! detailed-simulator runs: the sampled transaction lifecycles (`TEL-06`,
//! `TXN-01`, beside the span and ordering invariants), serializability of
//! the sampled key-level histories (`ISO-01..03`) and the provisioning
//! record (`PRV-01..03`).
//!
//! Two runs serve every test. The reactive ramp is captured once, with
//! `prov_*` events and 1-in-7 transaction sampling both on, and shared;
//! the predictive step run adds planned decisions with a real lead. Each
//! test pins what its checkers covered as literals, so a run that
//! captures no history, induces no dependency edge or issues no lead ≥ 1
//! decision fails instead of passing vacuously.

use std::sync::LazyLock;

use pstore_core::controller::forecaster::OracleForecaster;
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
use pstore_core::controller::Strategy;
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_sim::detailed::{per_interval_load, run_detailed, DetailedSimConfig};
use pstore_telemetry::{kinds, slo, Event, TraceSpec};
use pstore_verify::telemetry::{
    check_trace_order, check_trace_spans, check_txn_lifecycle, check_txn_rwsets,
};
use pstore_verify::{iso, prov};

/// One small fixed-seed detailed-simulator run of `strategy` over `load`
/// under a capturing sink installed with `spec`: its trace.
fn captured_run(load: Vec<f64>, spec: TraceSpec, strategy: &mut dyn Strategy) -> Vec<Event> {
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
    assert!(
        !result.reconfig_spans.is_empty(),
        "the run never migrated: its trace would exercise no stall, restart or move"
    );
    handle.events()
}

/// The reactive ramp: load climbs 300 → 700 txn/s over 60 s and holds,
/// forcing the reactive controller into a live scale-out, so sampled
/// transactions meet chunk migrations.
static RAMP: LazyLock<Vec<Event>> = LazyLock::new(|| {
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
    let spec = TraceSpec {
        prov: true,
        txn_sample_every: 7,
    };
    captured_run(load, spec, &mut reactive)
});

/// Flat 250 txn/s, then a step to 800, under the P-Store controller with
/// an oracle forecaster: the oracle sees the step a full horizon ahead,
/// so the planner issues lead ≥ 1 decisions.
fn predictive_step_run() -> Vec<Event> {
    let mut load = vec![250.0; 120];
    load.extend(vec![800.0; 120]);
    let mut pstore = PStoreController::new(
        Planner::new(PlannerConfig {
            q: 285.0,
            d_intervals: 300.0 / 30.0,
            partitions_per_node: 6,
            max_machines: 10,
        }),
        OracleForecaster::new(per_interval_load(&load, 30.0)),
        PStoreConfig {
            horizon: 10,
            prediction_inflation: 1.0,
            scale_in_confirmations: 3,
            emergency_rate_multiplier: 1.0,
            initial_machines: 1,
        },
    );
    let spec = TraceSpec {
        prov: true,
        ..TraceSpec::default()
    };
    captured_run(load, spec, &mut pstore)
}

#[test]
fn sampled_txn_trace_satisfies_tel06_and_txn01() {
    let events = &*RAMP;
    // TEL-01/02, TEL-04, TEL-06 and TXN-01.
    let mut violations = check_trace_spans("ramp", events);
    violations.extend(check_trace_order("ramp", events));
    violations.extend(check_txn_lifecycle("ramp", events));
    violations.extend(check_txn_rwsets("ramp", events));
    assert_eq!(violations, vec![]);

    let count = |kind: &str| events.iter().filter(|ev| ev.kind == kind).count();
    let arrivals = count(kinds::TXN_ARRIVE);
    assert_eq!(arrivals, 16266);
    // Every sampled arrival resolves (commit, business abort, or timeout
    // abort) and waits in some queue first.
    assert_eq!(count(kinds::TXN_COMMIT) + count(kinds::TXN_ABORT), arrivals);
    assert_eq!(count(kinds::TXN_QUEUE), arrivals);
    // Executed transactions record their read/write sets.
    assert!(count(kinds::TXN_RWSET) > 0, "no rwset events");

    // The slo engine sees exactly one run whose attribution includes
    // migration-interference time from the scale-out.
    let (trace, undecodable) = pstore_telemetry::decode_trace(events);
    assert_eq!(undecodable, vec![]);
    let runs = slo::analyze(&trace);
    let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["0:detailed_sim"]);
    assert!(runs[0].stall_s > 0.0, "no stall time attributed");
}

/// ISO-01..03 over the ramp's sampled key-version histories: the commit
/// order is conflict-serializable, reads observe only committed versions,
/// and migration restarts leave no orphan versions. The commit order must
/// also be a *serial witness* — every dependency edge points forward,
/// because the engine executes transactions one at a time in exactly that
/// order.
#[test]
fn sampled_key_histories_are_serializable() {
    let histories = match iso::histories_of(&RAMP) {
        Ok(h) => h,
        Err(e) => panic!("undecodable key history: {e}"),
    };
    assert_eq!(iso::check_key_histories("ramp", &histories), vec![]);
    assert_eq!(iso::serial_witness_errors(&histories), Vec::<String>::new());
    let d = iso::dsg_stats(&histories);
    assert_eq!(
        (d.txns, d.keys, d.wr, d.ww, d.rw),
        (16266, 21760, 2505, 3294, 2096),
        "DSG txns, keys, wr/ww/rw edges"
    );
}

/// PRV-01..03 over the reactive ramp and the predictive step run: ledger
/// conservation against the raw per-interval integral, decision →
/// reconfiguration causality with lead preservation, and exactly-once
/// forecast scoring against real observations.
#[test]
fn provisioning_records_conserve_attribute_and_score_once() {
    let predictive = predictive_step_run();
    for (policy, events, counts) in [
        ("reactive", &*RAMP, (1, 1, 11, 0)),
        ("predictive", &predictive, (1, 1, 14, 1)),
    ] {
        assert_eq!(prov::check_events(policy, events), vec![]);
        let runs = prov::raw_runs(&pstore_telemetry::decode_trace(events).0);
        let decisions: usize = runs.iter().map(|r| r.decisions.len()).sum();
        let reconfigs: usize = runs.iter().map(|r| r.reconfigs.len()).sum();
        let scores: usize = runs.iter().map(|r| r.scores.len()).sum();
        let leads = runs
            .iter()
            .flat_map(|r| &r.decisions)
            .filter(|(_, d)| d.lead >= 1)
            .count();
        assert_eq!(
            (decisions, reconfigs, scores, leads),
            counts,
            "{policy}: decisions/reconfigs/scores/lead decisions"
        );
    }
}
