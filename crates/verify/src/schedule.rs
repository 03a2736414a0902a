//! Cross-checks for migration schedules (§4.4.1, Table 1, Fig 4).
//!
//! [`check_schedule_pair`] plans the scale-out and scale-in schedules for a
//! machine-count pair and validates, on top of the structural checks that
//! live in `pstore-core` (`SCH-01` round count, `SCH-02` matching, `SCH-03`
//! pair coverage, `SCH-04` presence, `SCH-05` roles, `SCH-06` no-op):
//!
//! * `SCH-07` — the scale-in schedule is the exact time-reverse of the
//!   scale-out schedule with every transfer flipped (§4.4.1).
//! * `SCH-08` — the schedule's average machine allocation agrees with
//!   Algorithm 4's closed form.
//! * `SCH-09` — the schedule's peak per-round parallelism agrees with
//!   Equation 2.

use pstore_core::cost_model::{avg_machines_allocated, max_parallel_transfers};
use pstore_core::schedule::{peak_parallelism, MigrationSchedule};
use pstore_core::{InvariantId, Violation};

/// Tolerance for comparing the schedule's measured average allocation with
/// Algorithm 4's closed form: both are short sums of small rationals, so
/// they agree to round-off.
const AVG_MACHINES_TOL: f64 = 1e-9;

/// Checks every schedule invariant for the unordered machine-count pair
/// `{b, a}`: structural checks on both directions, closed-form agreement
/// (`SCH-08`, `SCH-09`), and reversal symmetry (`SCH-07`).
pub fn check_schedule_pair(b: u32, a: u32) -> Vec<Violation> {
    let out_sched = MigrationSchedule::plan(b, a);
    let mut violations = check_one_schedule(&out_sched);
    if b != a {
        let in_sched = MigrationSchedule::plan(a, b);
        violations.extend(check_one_schedule(&in_sched));
        violations.extend(check_reversal(&out_sched, &in_sched));
    }
    violations
}

/// Structural checks plus closed-form agreement for a single schedule.
pub fn check_one_schedule(s: &MigrationSchedule) -> Vec<Violation> {
    let mut out = s.check_violations();
    let artifact = format!("schedule {}->{}", s.before(), s.after());

    // SCH-08: measured mean allocation over rounds == Algorithm 4.
    let closed_form = avg_machines_allocated(s.before(), s.after());
    let measured = s.avg_machines();
    if (measured - closed_form).abs() > AVG_MACHINES_TOL {
        out.push(Violation::new(
            InvariantId::ScheduleAvgMachines,
            artifact.clone(),
            format!("avg machines over rounds is {measured}, Algorithm 4 gives {closed_form}"),
        ));
    }

    // SCH-09: the widest round uses exactly Eq 2's parallelism (machine-pair
    // granularity, i.e. P = 1).
    let expected = max_parallel_transfers_or_zero(s.before(), s.after());
    let peak = peak_parallelism(s);
    if peak != expected {
        out.push(Violation::new(
            InvariantId::SchedulePeakParallelism,
            artifact,
            format!("peak round has {peak} transfers, Equation 2 gives {expected}"),
        ));
    }
    out
}

fn max_parallel_transfers_or_zero(b: u32, a: u32) -> usize {
    if b == a {
        0
    } else {
        max_parallel_transfers(b, a, 1) as usize
    }
}

/// `SCH-07`: scale-in must be the time-reverse of scale-out with every
/// transfer's direction flipped. Transfers within a round are compared as
/// sets — ordering inside a round carries no meaning.
pub fn check_reversal(
    out_sched: &MigrationSchedule,
    in_sched: &MigrationSchedule,
) -> Vec<Violation> {
    let artifact = format!(
        "schedule pair {}->{} / {}->{}",
        out_sched.before(),
        out_sched.after(),
        in_sched.before(),
        in_sched.after()
    );
    let mut violations = Vec::new();
    if out_sched.before() != in_sched.after() || out_sched.after() != in_sched.before() {
        violations.push(Violation::new(
            InvariantId::ScheduleReversal,
            artifact,
            "schedules are not mirrors of each other".to_string(),
        ));
        return violations;
    }
    if out_sched.total_rounds() != in_sched.total_rounds() {
        violations.push(Violation::new(
            InvariantId::ScheduleReversal,
            artifact,
            format!(
                "round counts differ: {} out vs {} in",
                out_sched.total_rounds(),
                in_sched.total_rounds()
            ),
        ));
        return violations;
    }
    let n = out_sched.total_rounds();
    for i in 0..n {
        let mut fwd: Vec<(u32, u32)> = out_sched.rounds()[i]
            .transfers
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        // The mirrored round, with each transfer flipped back to the
        // scale-out direction for comparison.
        let mut rev: Vec<(u32, u32)> = in_sched.rounds()[n - 1 - i]
            .transfers
            .iter()
            .map(|t| (t.to, t.from))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd != rev {
            violations.push(Violation::new(
                InvariantId::ScheduleReversal,
                artifact.clone(),
                format!(
                    "round {i} of scale-out is not the mirror of round {} of scale-in",
                    n - 1 - i
                ),
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_example_is_clean() {
        assert!(check_schedule_pair(3, 14).is_empty());
    }

    #[test]
    fn noop_pair_is_clean() {
        assert!(check_schedule_pair(5, 5).is_empty());
    }

    #[test]
    fn all_three_cases_are_clean() {
        // Case 1 (Δ <= s), case 2 (Δ = k*s), case 3 (otherwise).
        for (b, a) in [(4, 6), (3, 9), (3, 14), (5, 7), (2, 11)] {
            let v = check_schedule_pair(b, a);
            assert!(v.is_empty(), "{b}->{a}: {v:?}");
        }
    }

    #[test]
    fn reversal_check_catches_a_mismatched_pair() {
        // 3->9 is not the mirror of 14->3.
        let out_sched = MigrationSchedule::plan(3, 9);
        let in_sched = MigrationSchedule::plan(14, 3);
        assert!(!check_reversal(&out_sched, &in_sched).is_empty());
    }
}
