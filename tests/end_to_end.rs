//! End-to-end integration: predictor + planner + controller + engine +
//! benchmark, exercised together through the detailed simulator.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "test helpers abort loudly; exact-value asserts"
)]
use pstore::core::controller::baselines::StaticController;
use pstore::core::params::SystemParams;
use pstore::sim::detailed::{run_detailed, DetailedSimConfig};
use pstore::sim::scenarios::{pstore_oracle, pstore_spar, reactive_default, ExperimentTrace};

/// A small, fast configuration over a compressed half-day window.
fn small_cfg(trace: &ExperimentTrace, seconds: usize) -> DetailedSimConfig {
    let mut cfg = DetailedSimConfig::paper_defaults(trace.wall_seconds[..seconds].to_vec(), 0xE2E);
    cfg.workload.num_skus = 1_500;
    cfg.workload.initial_carts = 400;
    cfg.num_slots = 3_600;
    cfg.warmup_txns = 30_000;
    cfg
}

#[test]
fn pstore_spar_runs_a_compressed_window_cleanly() {
    let trace = ExperimentTrace::b2w(1, 11);
    let params = SystemParams::b2w_paper();
    // Run midnight to noon (the overnight trough plus the morning ramp,
    // the hardest stretch of the day for provisioning). Forecasters are
    // phase-aligned to the start of the evaluation window, so simulated
    // windows must start there too.
    let hi = 12 * 360;
    let cfg = small_cfg(&trace, hi);

    let mut controller = pstore_spar(&trace, &params);
    let r = run_detailed(&cfg, &mut controller);

    // The controller must have scaled out during the ramp.
    assert!(
        !r.reconfig_spans.is_empty(),
        "no reconfigurations over the morning ramp"
    );
    let start_m = r.seconds.first().unwrap().machines;
    let end_m = r.seconds.last().unwrap().machines;
    assert!(
        end_m > start_m,
        "machines should grow across the ramp: {start_m} -> {end_m}"
    );
    // Transactions flow throughout and violations stay rare.
    assert!(r.committed > 100_000, "committed only {}", r.committed);
    let bad_fraction = r.violations.p99 as f64 / r.seconds.len() as f64;
    assert!(
        bad_fraction < 0.05,
        "p99 violations in {:.1}% of seconds",
        bad_fraction * 100.0
    );
}

#[test]
fn predictive_beats_reactive_on_the_same_morning() {
    let trace = ExperimentTrace::b2w(1, 5);
    let params = SystemParams::b2w_paper();
    let hi = 13 * 360;
    let run = |strategy: &mut dyn pstore::core::controller::Strategy| {
        let cfg = small_cfg(&trace, hi);
        run_detailed(&cfg, strategy)
    };
    let p = run(&mut pstore_oracle(&trace, &params));
    let r = run(&mut reactive_default(&trace, &params));
    assert!(
        p.violations.p99 <= r.violations.p99,
        "P-Store (oracle) {} violations vs reactive {}",
        p.violations.p99,
        r.violations.p99
    );
}

#[test]
fn static_peak_has_no_violations_but_wastes_machines() {
    let trace = ExperimentTrace::b2w(1, 9);
    let hi = 8 * 360;
    let cfg = small_cfg(&trace, hi);
    let r = run_detailed(&cfg, &mut StaticController::new(10));
    assert_eq!(r.violations.p99, 0, "{:?}", r.violations);
    assert_eq!(r.avg_machines, 10.0);
    assert!(r.reconfig_spans.is_empty());
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let trace = ExperimentTrace::b2w(1, 3);
    let hi = 4 * 360;
    let run = || {
        let cfg = small_cfg(&trace, hi);
        let params = SystemParams::b2w_paper();
        let mut c = pstore_spar(&trace, &params);
        run_detailed(&cfg, &mut c)
    };
    let a = run();
    let b = run();
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.reconfig_spans, b.reconfig_spans);
}
