//! Fig 11: reaction to an unexpected load spike — when no feasible plan
//! exists, P-Store scales out reactively either at the regular migration
//! rate `R` (longer under-capacity, milder interference) or at `R x 8`
//! (capacity sooner, higher transient latency). The paper finds `R x 8`
//! has a higher average latency at the start of the spike but fewer total
//! violation seconds (50th/95th/99th: 16/101/143 at `R`, 22/44/51 at
//! `R x 8`).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{ascii_plot, section, RunReporter};
use pstore_core::controller::forecaster::SparForecaster;
use pstore_core::controller::pstore::PStoreConfig;
use pstore_core::controller::pstore::PStoreController;
use pstore_core::cost_model::machines_for_load;
use pstore_core::params::SystemParams;
use pstore_forecast::generators::{day_with_unexpected_spike, B2wLoadModel};
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};
use pstore_sim::scenarios::{
    compress_minutes, compressed_planner, per_tick, tick_spar_config, PEAK_TXN_RATE, TICKS_PER_DAY,
    TRAINING_DAYS,
};

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let seed = 0x5B1C;

    // Training data: ordinary days. Evaluation: a day with a large spike
    // the predictor has never seen (a September 2016-style flash crowd).
    let train = B2wLoadModel {
        seed,
        ..B2wLoadModel::default()
    }
    .generate(TRAINING_DAYS);
    // The spike hits at 08:00, when the predictively-provisioned cluster
    // is still small (3-4 machines): the emergency scale-out is then a
    // *large* move whose duration depends strongly on the migration rate —
    // the regime of the paper's September 2016 flash crowd. The surge peak
    // (~3000 txn/s at its worst) is servable by the full 10-machine cluster.
    let spike_day = day_with_unexpected_spike(seed, 7 * 60, 15, 180, 2.6);
    let peak_normal = train.values()[train.len() - 1440..]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let scale = PEAK_TXN_RATE / peak_normal;

    let train_scaled: Vec<f64> = train.values().iter().map(|v| v * scale).collect();
    let eval_minutes: Vec<f64> = spike_day.values().iter().map(|v| v * scale).collect();
    let eval_minutes = if quick {
        eval_minutes[6 * 60..13 * 60].to_vec() // window around the spike
    } else {
        eval_minutes
    };
    let wall = compress_minutes(&eval_minutes);

    section("Fig 11: offered load with the unexpected spike (txn/s)");
    println!("{}", ascii_plot(&wall, 96, 10));

    let params = SystemParams::b2w_paper();
    let mut table = Vec::new();
    for (label, rate) in [("Rate R", 1.0), ("Rate R x 8", 8.0)] {
        let mut forecaster =
            SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
        forecaster.seed(&per_tick(&train_scaled));
        let initial = machines_for_load(eval_minutes[0] * 1.15, params.q).clamp(1, 10);
        let mut strat = PStoreController::new(
            compressed_planner(&params, params.q),
            forecaster,
            PStoreConfig {
                horizon: 48,
                prediction_inflation: 1.15,
                scale_in_confirmations: 3,
                emergency_rate_multiplier: rate,
                initial_machines: initial,
            },
        );
        let mut cfg = DetailedSimConfig::paper_defaults(wall.clone(), seed);
        if quick {
            cfg.workload.num_skus = 2_000;
            cfg.workload.initial_carts = 600;
            cfg.num_slots = 3_600;
        }
        let r = run_detailed(&cfg, &mut strat);

        section(&format!("Fig 11 ({label}): p99 latency (ms)"));
        let p99: Vec<f64> = r.seconds.iter().map(|s| s.p99 * 1000.0).collect();
        println!("{}", ascii_plot(&p99, 96, 8));
        println!(
            "violations 50th/95th/99th: {}/{}/{}   emergencies: {}   moves: {}",
            r.violations.p50,
            r.violations.p95,
            r.violations.p99,
            strat.stats().emergency_moves,
            r.reconfig_spans.len()
        );
        table.push((label, r.violations, strat.stats().emergency_moves));
    }

    section("Fig 11 summary: violation seconds by migration rate");
    println!("{:<12} {:>8} {:>8} {:>8}", "rate", "50th", "95th", "99th");
    for (label, v, _) in &table {
        println!("{label:<12} {:>8} {:>8} {:>8}", v.p50, v.p95, v.p99);
    }
    println!();
    println!("paper: R -> 16/101/143, R x 8 -> 22/44/51 (faster migration");
    println!("hurts more at the start of the spike but violates for fewer");
    println!("total seconds).");
    let (_, slow, _) = &table[0];
    let (_, fast, _) = &table[1];
    if fast.p99 < slow.p99 {
        println!("shape reproduced: R x 8 ends with fewer 99th-pct violations.");
    } else {
        println!("WARNING: R x 8 did not win on p99 violations on this seed.");
    }

    reporter.finish();
}
