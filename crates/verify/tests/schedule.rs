//! Every machine-count pair up to 64 plans to a schedule with zero
//! invariant violations: `SCH-01`, `SCH-02`, `SCH-03`, `SCH-04`, `SCH-05`,
//! `SCH-06`, `SCH-07`, `SCH-08` and `SCH-09` all hold.

use pstore_verify::schedule::check_schedule_pair;

/// Largest machine count in the exhaustive grid.
const MAX_MACHINES: u32 = 64;

/// Each unordered pair `b <= a` checks both the scale-out and the
/// scale-in schedule (and that one is the other reversed), so the grid
/// covers all 64 × 64 ordered schedules, the degenerate `1 <-> n` and
/// `n <-> n` pairs included.
#[test]
fn every_pair_up_to_64_machines_is_clean() {
    let mut pairs = 0;
    let mut violations = Vec::new();
    for b in 1..=MAX_MACHINES {
        for a in b..=MAX_MACHINES {
            pairs += 1;
            violations.extend(check_schedule_pair(b, a));
        }
    }
    assert_eq!(violations, vec![]);
    assert_eq!(pairs, 2080);
}
