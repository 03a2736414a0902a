//! Fig 3: the goal of the predictive elasticity algorithm — a series of
//! moves from 2 machines at t = 0 to 4 machines at t = 9 such that
//! capacity always exceeds predicted demand and cost is minimised.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{section, RunReporter};
use pstore_core::cost_model::cap;
use pstore_core::planner::{Planner, PlannerConfig};

fn main() {
    let reporter = RunReporter::from_args();
    let q = 100.0;
    let planner = Planner::new(PlannerConfig {
        q,
        d_intervals: 6.0,
        partitions_per_node: 1,
        max_machines: 8,
    });

    // A rising demand over T = 9 intervals, as in the schematic: starts
    // comfortable for 2 machines, ends needing 4.
    let load = vec![
        150.0, 150.0, 160.0, 180.0, 210.0, 250.0, 300.0, 340.0, 370.0, 390.0,
    ];

    section("Fig 3: predicted load over T = 9 intervals (Q = 100/machine)");
    println!("{:>4} {:>10} {:>10}", "t", "load", "needs");
    for (t, l) in load.iter().enumerate() {
        println!("{t:>4} {l:>10.0} {:>10.0}", (l / q).ceil());
    }

    let plan = planner
        .best_moves(&load, 2)
        .expect("the schematic scenario is feasible");
    section("Optimal series of moves (Algorithm 1)");
    for m in plan.moves() {
        println!("  {m}");
    }
    println!();
    println!("final machines : {}", plan.final_machines().unwrap());
    planner
        .verify_feasible(&plan, &load)
        .expect("plan feasible");

    // Effective capacity trace under the plan (Eq 7 during moves).
    section("Effective capacity vs demand under the plan");
    println!("{:>4} {:>10} {:>12}", "t", "load", "eff-capacity");
    println!("{:>4} {:>10.0} {:>12.0}", 0, load[0], cap(2, q));
    for m in plan.moves() {
        let dur = m.duration();
        for i in 1..=dur {
            let t = m.start + i;
            let capacity = pstore_core::cost_model::eff_cap(m.from, m.to, i as f64 / dur as f64, q);
            println!("{t:>4} {:>10.0} {capacity:>12.0}", load[t]);
        }
    }
    println!("\n(the planner delays the scale-out as long as the migration");
    println!(" time allows, which minimises total machine-intervals)");

    reporter.finish();
}
