//! Telemetry smoke run: a small detailed simulation under the predictive
//! controller, exercising every instrumented code path — reconfiguration
//! spans, chunk moves, planner invocations, scale decisions, per-second
//! snapshots, skew samples and forecaster events — so that CI can verify
//! the emitted JSONL trace with `pstore-trace`.
//!
//! Run with `cargo run -p pstore-bench --bin telemetry_smoke -- --trace
//! /tmp/smoke.jsonl`, then `pstore-trace explain /tmp/smoke.jsonl` (exits
//! 1 on lines that do not decode, unmatched spans or out-of-order events).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{section, RunReporter};
use pstore_core::controller::forecaster::SparForecaster;
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::controller::{forecaster::OracleForecaster, LoadForecaster};
use pstore_core::params::SystemParams;
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_forecast::spar::SparConfig;
use pstore_sim::detailed::{per_interval_load, run_detailed, DetailedSimConfig};
use std::time::Duration;

fn main() {
    let reporter = RunReporter::from_args();

    // A load step that forces one scale-out and, after the drop, one
    // scale-in — two full reconfiguration spans in the trace.
    let mut load = vec![250.0; 120];
    load.extend(vec![750.0; 150]);
    load.extend(vec![250.0; 180]);
    let cfg = DetailedSimConfig {
        params: SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(300),
            partitions_per_node: 6,
            interval: Duration::from_secs(30),
            max_machines: 10,
        },
        workload: pstore_b2w::generator::WorkloadConfig {
            num_skus: 4_000,
            initial_carts: 800,
            ..pstore_b2w::generator::WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 20_000,
        ..DetailedSimConfig::paper_defaults(load, 0x5710)
    };

    reporter.progress("running a small detailed simulation under P-Store...");
    let per_interval = per_interval_load(&cfg.load, cfg.monitor_interval_s);
    let planner = Planner::new(PlannerConfig {
        q: 285.0,
        d_intervals: 10.0,
        partitions_per_node: 6,
        max_machines: 10,
    });
    let mut strat = PStoreController::new(
        planner,
        OracleForecaster::new(per_interval),
        PStoreConfig {
            horizon: 10,
            prediction_inflation: 1.0,
            scale_in_confirmations: 2,
            emergency_rate_multiplier: 1.0,
            initial_machines: 1,
        },
    );
    let r = run_detailed(&cfg, &mut strat);

    // The oracle forecaster above never trains a model, so exercise the
    // online SPAR life-cycle separately to put `forecast_retrain` /
    // `forecast_predict` events into the same trace.
    reporter.progress("exercising the online SPAR forecaster...");
    let spar_cfg = SparConfig {
        period: 24,
        n_periods: 2,
        m_recent: 4,
        taus: vec![1, 2],
        ridge_lambda: 1e-6,
        max_rows: 2_000,
    };
    let mut spar = SparForecaster::new(spar_cfg, 24, 10_000);
    let signal: Vec<f64> = (0..24 * 10)
        .map(|i| 400.0 + 150.0 * (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin())
        .collect();
    spar.seed(&signal);
    let forecast = spar.forecast(12).expect("seeded SPAR must forecast");

    section("telemetry smoke run");
    println!(
        "simulated {} s: {} reconfigurations, {} committed, {} p99 SLA-violation s",
        r.seconds.len(),
        r.reconfig_spans.len(),
        r.committed,
        r.violations.p99,
    );
    println!(
        "SPAR forecast over 12 intervals peaks at {:.0} txn/s",
        forecast.iter().copied().fold(0.0, f64::max)
    );
    assert!(
        !r.reconfig_spans.is_empty(),
        "smoke run must reconfigure at least once"
    );

    reporter.finish();
}
