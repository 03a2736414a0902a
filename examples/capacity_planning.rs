//! What-if capacity planning: compare five allocation strategies over two
//! weeks of load with the slot-based simulator and print the cost /
//! capacity-shortfall trade-off each achieves.
//!
//! Run with: `cargo run --release --example capacity_planning`

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "example code: abort loudly"
)]
use pstore::core::params::SystemParams;
use pstore::forecast::generators::B2wLoadModel;
use pstore::sim::fast::{run_fast, FastSimConfig};
use pstore::sim::scenarios::{
    pstore_oracle_fast, pstore_spar_fast, reactive_fast, simple_schedule, static_alloc,
    PEAK_TXN_RATE, TRAINING_DAYS,
};

fn main() {
    // Four training weeks + two evaluation weeks of per-minute load.
    let raw = B2wLoadModel {
        seed: 2024,
        ..B2wLoadModel::default()
    }
    .generate(TRAINING_DAYS + 14);
    let eval_start = TRAINING_DAYS * 1440;
    let peak = raw.values()[eval_start..]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let scaled = raw.scaled(PEAK_TXN_RATE / peak);
    let train = &scaled.values()[..eval_start];
    let eval = &scaled.values()[eval_start..];

    let params = SystemParams::b2w_paper();
    let cfg = FastSimConfig {
        params: params.clone(),
        slot_duration_s: 60.0,
        tick_every_slots: 5,
        record_timeline: false,
    };

    println!(
        "two weeks of load, peak {PEAK_TXN_RATE:.0} txn/s, Q = {:.0}, Q-hat = {:.0}\n",
        params.q, params.q_hat
    );
    println!(
        "{:<22} {:>12} {:>14} {:>8}",
        "strategy", "avg machines", "% time short", "moves"
    );

    let report = |name: &str, r: pstore::sim::fast::FastSimResult| {
        println!(
            "{name:<22} {:>12.2} {:>14.3} {:>8}",
            r.avg_machines(),
            r.pct_insufficient(),
            r.reconfigurations
        );
    };

    report(
        "P-Store (SPAR)",
        run_fast(
            &cfg,
            eval,
            &mut pstore_spar_fast(train, eval[0], &params, params.q),
        ),
    );
    report(
        "P-Store (oracle)",
        run_fast(&cfg, eval, &mut pstore_oracle_fast(eval, &params, params.q)),
    );
    report(
        "Reactive (10% buf)",
        run_fast(&cfg, eval, &mut reactive_fast(eval[0], &params, 0.10)),
    );
    report(
        "Simple 8/3 schedule",
        run_fast(&cfg, eval, &mut simple_schedule(8, 3)),
    );
    report("Static 10", run_fast(&cfg, eval, &mut static_alloc(10)));
    report("Static 4", run_fast(&cfg, eval, &mut static_alloc(4)));

    println!();
    println!("reading: P-Store should achieve near-zero shortfall at roughly");
    println!("half the machines of peak-static — the paper's headline claim.");
}
