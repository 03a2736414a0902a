//! Fig 4: machines allocated and effective capacity during the three
//! migration strategies — 3 -> 5 (all at once), 3 -> 9 (just-in-time
//! blocks), 3 -> 14 (three phases). One partition per server, time in
//! units of `D`.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{section, RunReporter};
use pstore_core::cost_model::{avg_machines_allocated, move_time};
use pstore_core::schedule::MigrationSchedule;

fn main() {
    let reporter = RunReporter::from_args();
    let q = 1.0; // capacity in machine-equivalents, as plotted in the paper
    for (b, a, label) in [
        (
            3u32,
            5u32,
            "Case 1: 3 -> 5 machines (all new machines at once)",
        ),
        (3, 9, "Case 2: 3 -> 9 machines (just-in-time blocks of 3)"),
        (3, 14, "Case 3: 3 -> 14 machines (three phases)"),
    ] {
        section(label);
        let schedule = MigrationSchedule::plan(b, a);
        let traj = schedule.trajectory(1, 1.0, q);
        println!(
            "{:>10} {:>10} {:>18} {:>10}",
            "time (D)", "machines", "eff-capacity (mach)", "round"
        );
        for (i, pt) in traj.iter().enumerate() {
            println!(
                "{:>10.4} {:>10} {:>18.2} {:>10}",
                pt.time,
                pt.machines,
                pt.effective_capacity,
                if i < schedule.total_rounds() {
                    i.to_string()
                } else {
                    "end".into()
                }
            );
        }
        println!();
        println!(
            "move time T({b},{a})        : {:.4} D  (Eq 3)",
            move_time(b, a, 1, 1.0)
        );
        println!(
            "avg machines allocated  : {:.3}    (Algorithm 4)",
            avg_machines_allocated(b, a)
        );
        println!(
            "schedule-derived average: {:.3}    (must match)",
            schedule.avg_machines()
        );
        println!("rounds                  : {}", schedule.total_rounds());
    }
    println!();
    println!("Note how in case 3 the machines-allocated staircase runs well");
    println!("ahead of effective capacity: planning against raw allocation");
    println!("instead of Eq 7 would underprovision (the point of Fig 4c).");

    reporter.finish();
}
