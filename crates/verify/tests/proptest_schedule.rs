//! Property tests: every randomly chosen machine-count pair must plan to a
//! schedule with zero invariant violations: `SCH-01`, `SCH-02`, `SCH-03`,
//! `SCH-04`, `SCH-05`, `SCH-06`, `SCH-07`, `SCH-08` and `SCH-09` all hold.

use proptest::prelude::*;
use pstore_verify::schedule::check_schedule_pair;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Any (from, to) pair up to 48 machines plans cleanly, in both
    /// directions, including the reversal and closed-form cross-checks.
    #[test]
    fn random_pairs_have_no_violations(b in 1u32..=48, a in 1u32..=48) {
        let violations = check_schedule_pair(b, a);
        prop_assert!(
            violations.is_empty(),
            "{b}->{a}: {}",
            pstore_core::invariant::report(&violations)
        );
    }

    /// The degenerate pairs (1 <-> n) exercise case 2 and case 3 edges.
    #[test]
    fn single_machine_pairs_are_clean(n in 1u32..=64) {
        prop_assert!(check_schedule_pair(1, n).is_empty());
    }
}
