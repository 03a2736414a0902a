//! End-to-end check of the sampled per-transaction lifecycle trace: a
//! detailed simulation under a `TraceSpec` that samples must produce a trace
//! that the TEL-06 (lifecycle/attribution) and TXN-01 (read/write-set)
//! checkers in `pstore-verify` accept, alongside the existing span and
//! ordering invariants.
//!
//! Only compiled with the `telemetry` feature (the static-analysis gate
//! runs `cargo test -p pstore-sim --features telemetry`); without it the
//! sim emits nothing and there is nothing to replay.
#![cfg(feature = "telemetry")]

use pstore_b2w::generator::WorkloadConfig;
use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};
use pstore_telemetry::{kinds, slo, MemorySink, TraceSpec};
use pstore_verify::iso;
use pstore_verify::telemetry::{
    check_trace_order, check_trace_spans, check_txn_lifecycle, check_txn_rwsets,
};
use std::rc::Rc;
use std::time::Duration;

/// A small, fast scenario that still migrates: load ramps past the
/// reactive trigger so the controller scales out mid-run, producing
/// chunk moves (and therefore stalls, destination accesses, and
/// restarts) while sampled transactions are in flight.
fn ramp_cfg() -> DetailedSimConfig {
    let mut load: Vec<f64> = (0..120)
        .map(|s| 250.0 + 550.0 * f64::from(s) / 120.0)
        .collect();
    load.extend(vec![800.0; 120]);
    DetailedSimConfig {
        params: SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(300),
            partitions_per_node: 6,
            interval: Duration::from_secs(30),
            max_machines: 10,
        },
        workload: WorkloadConfig {
            num_skus: 4_000,
            initial_carts: 800,
            ..WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 20_000,
        ..DetailedSimConfig::paper_defaults(load, 0xBEEF)
    }
}

fn controller() -> ReactiveController {
    ReactiveController::new(ReactiveConfig {
        q: 285.0,
        q_hat: 350.0,
        trigger_fraction: 0.9,
        headroom: 0.2,
        smoothing_window: 2,
        scale_in_patience: 10,
        max_machines: 10,
        initial_machines: 2,
    })
}

/// Run the ramp scenario and capture the full event trace.
fn captured_ramp_run() -> Vec<pstore_telemetry::Event> {
    let cfg = ramp_cfg();
    let (sink, handle) = MemorySink::new();
    // Sample roughly one arrival in seven — enough lifecycle traffic to
    // exercise every event kind without bloating the trace.
    let spec = TraceSpec {
        txn_sample_every: 7,
        ..TraceSpec::default()
    };
    let _guard = pstore_telemetry::install_with(Rc::new(sink), spec);
    let mut strat = controller();
    let result = run_detailed(&cfg, &mut strat);
    assert!(
        !result.reconfig_spans.is_empty(),
        "scenario never migrated — the trace would not exercise stalls"
    );
    handle.events()
}

#[test]
fn sampled_txn_trace_satisfies_tel06_and_txn01() {
    let events = captured_ramp_run();
    let count = |kind: &str| events.iter().filter(|ev| ev.kind == kind).count();
    let arrivals = count(kinds::TXN_ARRIVE);
    assert!(arrivals > 1_000, "only {arrivals} sampled arrivals");
    // Every sampled arrival resolves (commit, business abort, or timeout
    // abort) and waits in some queue first.
    assert_eq!(count(kinds::TXN_COMMIT) + count(kinds::TXN_ABORT), arrivals);
    assert_eq!(count(kinds::TXN_QUEUE), arrivals);
    // Executed transactions record their read/write sets.
    assert!(count(kinds::TXN_RWSET) > 0, "no rwset events");

    // The trace must pass the full telemetry invariant battery.
    for (name, violations) in [
        ("TEL-01/02", check_trace_spans("txn_trace", &events)),
        ("TEL-04", check_trace_order("txn_trace", &events)),
        ("TEL-06", check_txn_lifecycle("txn_trace", &events)),
        ("TXN-01", check_txn_rwsets("txn_trace", &events)),
    ] {
        assert!(violations.is_empty(), "{name} violations: {violations:?}");
    }

    // And the slo engine must see exactly one run whose attribution
    // includes migration-interference time from the scale-out.
    let (trace, undecodable) = pstore_telemetry::decode_trace(&events);
    assert_eq!(undecodable, vec![]);
    let runs = slo::analyze(&trace);
    assert_eq!(
        runs.len(),
        1,
        "runs: {:?}",
        runs.iter().map(|r| &r.label).collect::<Vec<_>>()
    );
    assert_eq!(runs[0].label, "0:detailed_sim");
    assert!(runs[0].stall_s > 0.0, "no stall time attributed");
}

/// End-to-end key-level trace check: the same fixed-seed reactive
/// scale-out run yields sampled key-version histories that pass
/// ISO-01..03 — the commit order is conflict-serializable, reads only
/// observe already-committed versions, and migration restarts leave no
/// orphan versions. The commit order is additionally a valid *serial
/// witness*: every dependency edge points forward, so the execution
/// literally is the equivalent serial order the checker certifies.
#[test]
fn key_level_histories_pass_iso_checks() {
    let events = captured_ramp_run();
    let histories = match iso::histories_of(&events) {
        Ok(h) => h,
        Err(e) => panic!("undecodable key history: {e}"),
    };
    let stats = iso::dsg_stats(&histories);
    assert!(
        stats.txns > 1_000,
        "only {} sampled key-level histories",
        stats.txns
    );
    assert!(
        stats.wr + stats.ww + stats.rw > 0,
        "vacuous history (no dependency edges): {stats:?}"
    );

    let violations = iso::check_key_histories("txn_trace", &histories);
    assert!(violations.is_empty(), "{violations:?}");

    let backward = iso::serial_witness_errors(&histories);
    assert!(
        backward.is_empty(),
        "commit order is not a serial witness: {backward:?}"
    );
}
