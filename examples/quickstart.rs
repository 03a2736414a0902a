//! Quickstart: predict load, plan reconfigurations, inspect the migration
//! schedule — the P-Store pipeline in ~60 lines.
//!
//! Run with: `cargo run --release --example quickstart`
#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "example code: abort loudly"
)]

use pstore::core::planner::{Planner, PlannerConfig};
use pstore::core::schedule::MigrationSchedule;
use pstore::forecast::generators::B2wLoadModel;
use pstore::forecast::model::LoadPredictor;
use pstore::forecast::spar::{SparConfig, SparModel};

fn main() {
    // 1. Five weeks of per-minute retail load (a stand-in for the B2W
    //    transaction logs).
    let load = B2wLoadModel::default().generate(35);
    let minutes = load.values();
    let train_len = 28 * 1440; // train on four weeks, as in the paper

    // 2. Fit SPAR (Eq 8): periodic terms over the previous 7 days plus the
    //    offset of the last 30 minutes from the typical day.
    let spar = SparModel::fit(&minutes[..train_len], &SparConfig::b2w_default())
        .expect("four weeks is plenty of training data");
    println!(
        "SPAR fitted: {} periodic + {} transient coefficients",
        spar.periodic_coefficients().len(),
        spar.recent_coefficients().len()
    );

    // 3. Forecast the next three hours at 5-minute granularity.
    let horizon_min = spar.predict_horizon(&minutes[..train_len], 180);
    let mut curve: Vec<f64> = vec![minutes[train_len - 1]];
    curve.extend(
        horizon_min
            .chunks(5)
            .map(|w| w.iter().sum::<f64>() / w.len() as f64),
    );
    println!(
        "forecast: now {:.0} req/min, in 3h {:.0} req/min",
        curve[0],
        curve.last().unwrap()
    );

    // 4. Plan the cheapest series of moves that keeps (effective) capacity
    //    above the prediction (Algorithms 1-3). Units: Q is capacity per
    //    machine in the same req/min units; D = 4646 s in 5-min intervals.
    let planner = Planner::new(PlannerConfig {
        q: 3_500.0,        // one machine serves 3 500 req/min at target load
        d_intervals: 15.5, // D = 4646 s / 300 s
        partitions_per_node: 6,
        max_machines: 10,
    });
    let current_machines = 3;
    let plan = planner
        .best_moves(&curve, current_machines)
        .expect("feasible under the hardware cap");
    println!("\noptimal plan from {current_machines} machines:");
    for mv in plan.moves() {
        println!("  {mv}");
    }

    // 5. The first real move, expanded into its §4.4.1 migration schedule.
    if let Some(mv) = plan.first_reconfiguration() {
        let schedule = MigrationSchedule::plan(mv.from, mv.to);
        println!(
            "\nfirst move {} -> {} machines: {} rounds, avg {:.2} machines allocated",
            mv.from,
            mv.to,
            schedule.total_rounds(),
            schedule.avg_machines()
        );
        for (i, round) in schedule.rounds().iter().enumerate() {
            let pairs: Vec<String> = round
                .transfers
                .iter()
                .map(|t| format!("{}->{}", t.from, t.to))
                .collect();
            println!("  round {i}: {}", pairs.join(" "));
        }
    } else {
        println!("\nno reconfiguration needed over this horizon");
    }
}
