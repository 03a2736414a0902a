//! Table 1: the schedule of parallel migrations when scaling from 3 to 14
//! machines — 11 rounds in three phases, keeping all three senders busy
//! throughout.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{section, RunReporter};
use pstore_core::schedule::MigrationSchedule;

fn main() {
    let reporter = RunReporter::from_args();
    let schedule = MigrationSchedule::plan(3, 14);
    schedule.check_valid().expect("schedule invariants");

    section("Table 1: parallel migration schedule, 3 -> 14 machines (P = 1)");
    // Phase boundaries for s = 3, delta = 11: phase 1 = rounds 0..6,
    // phase 2 = rounds 6..8, phase 3 = rounds 8..11.
    let phase_of = |round: usize| -> &'static str {
        match round {
            0..=2 => "Phase 1, Step 1",
            3..=5 => "Phase 1, Step 2",
            6..=7 => "Phase 2",
            _ => "Phase 3",
        }
    };
    for (i, round) in schedule.rounds().iter().enumerate() {
        let pairs: Vec<String> = round
            .transfers
            .iter()
            .map(|t| format!("{} -> {}", t.from + 1, t.to + 1)) // 1-based like the paper
            .collect();
        println!(
            "{:<16} round {:>2}: {}   [{} machines allocated]",
            phase_of(i),
            i + 1,
            pairs.join(", "),
            schedule.machines_in_round(i)
        );
    }

    println!();
    println!(
        "total rounds      : {} (paper: 11)",
        schedule.total_rounds()
    );
    println!(
        "total transfers   : {} (= 3 senders x 11 receivers)",
        schedule.total_transfers()
    );
    println!(
        "avg machines      : {:.4} (Algorithm 4: 111/11 = {:.4})",
        schedule.avg_machines(),
        111.0 / 11.0
    );
    println!();
    println!("Each sender appears in every round (senders stay fully");
    println!("utilised); without the three-phase split the move would need");
    println!("at least 12 rounds (paper, §4.4.1).");

    reporter.finish();
}
