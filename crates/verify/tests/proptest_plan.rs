//! Every plan the DP produces for a random load curve must have zero
//! invariant violations (`MOV-*`, `PLN-01/02`), and must agree with the
//! optimality oracle (`PLN-03`): over seeded scenario sweeps of mixed load
//! shapes, and under proptest.

use proptest::prelude::*;
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_verify::plan::{
    brute_force_optimum, check_plan, check_plan_optimality, memoised_optimum,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random load curve: flat, ramp, step, sine or a bounded random walk,
/// scaled so `n0` usually carries the start and the peak usually fits the
/// hardware (some scenarios are deliberately infeasible).
fn random_load(rng: &mut StdRng, horizon: usize, q: f64, n0: u32, max_machines: u32) -> Vec<f64> {
    let base = q * n0 as f64 * rng.random_range(0.2..0.95);
    let peak = (q * max_machines as f64 * rng.random_range(0.2..1.05)).max(base);
    let n = horizon + 1;
    let shape = rng.random_range(0u32..5);
    (0..n)
        .map(|t| {
            let x = t as f64 / horizon.max(1) as f64;
            let v = match shape {
                0 => base,
                1 => base + (peak - base) * x,
                2 => {
                    if t >= n / 2 {
                        peak
                    } else {
                        base
                    }
                }
                3 => base + (peak - base) * (std::f64::consts::PI * x).sin().max(0.0),
                _ => base + (peak - base) * rng.random_range(0.0..1.0) * x,
            };
            (v * rng.random_range(0.95..1.05)).max(0.0)
        })
        .collect()
}

/// 128 randomized planner configurations and load shapes, up to 64
/// machines × 48 intervals: every plan is structurally validated and
/// independently capacity-checked.
#[test]
fn randomized_planner_scenarios_are_clean() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let (mut feasible, mut violations) = (0, Vec::new());
    for case in 0..128 {
        let q = rng.random_range(50.0..400.0);
        let max_machines = rng.random_range(4u32..=64);
        let cfg = PlannerConfig {
            q,
            d_intervals: rng.random_range(0.5..30.0),
            partitions_per_node: rng.random_range(1u32..=8),
            max_machines,
        };
        let n0 = rng.random_range(1u32..=max_machines.div_ceil(2));
        let horizon = rng.random_range(6usize..=48);
        let load = random_load(&mut rng, horizon, q, n0, max_machines);
        let planner = Planner::new(cfg);
        if planner.best_moves(&load, n0).is_some() {
            feasible += 1;
        }
        violations.extend(check_plan(
            &planner,
            &load,
            n0,
            &format!("random scenario {case}"),
        ));
    }
    assert_eq!(violations, vec![]);
    assert_eq!(feasible, 124, "feasible scenarios of 128");
}

/// 100 randomized instances up to 12 machines × 16 intervals, each
/// checked and cross-checked against the memoised optimality oracle —
/// well past what the naive enumeration (the oracle's own reference,
/// below) could handle.
#[test]
fn randomized_instances_match_the_memoised_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    let (mut feasible, mut violations) = (0, Vec::new());
    for case in 0..100 {
        let max_machines = rng.random_range(2u32..=12);
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: rng.random_range(0.3..6.0),
            partitions_per_node: rng.random_range(1u32..=2),
            max_machines,
        };
        let n0 = rng.random_range(1u32..=max_machines);
        let horizon = rng.random_range(6usize..=16);
        let load = random_load(&mut rng, horizon, cfg.q, n0, max_machines);
        let planner = Planner::new(cfg);
        let label = format!("oracle scenario {case}");
        if planner.best_moves(&load, n0).is_some() {
            feasible += 1;
        }
        violations.extend(check_plan(&planner, &load, n0, &label));
        violations.extend(check_plan_optimality(&planner, &load, n0, &label));
    }
    assert_eq!(violations, vec![]);
    assert_eq!(feasible, 97, "feasible instances of 100");
}

/// A random load curve bounded so the peak can fit the hardware (infeasible
/// instances still occur and must be handled gracefully).
fn load_curve(max_cap: f64, len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..max_cap, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever plan comes out of a mid-sized random scenario, it tiles the
    /// horizon, starts at n0 and never exceeds effective capacity.
    #[test]
    fn random_plans_have_no_violations(
        seed_load in load_curve(1_200.0, 18),
        n0 in 1u32..=6,
        d in 1u32..=24,
    ) {
        let planner = Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: d as f64 / 2.0,
            partitions_per_node: 2,
            max_machines: 12,
        });
        let violations = check_plan(&planner, &seed_load, n0, "proptest");
        prop_assert!(
            violations.is_empty(),
            "{}",
            pstore_core::invariant::report(&violations)
        );
    }

    /// On small horizons the DP must agree with exhaustive enumeration on
    /// feasibility, final machine count and cost.
    #[test]
    fn small_plans_match_the_oracle(
        seed_load in load_curve(450.0, 6),
        n0 in 1u32..=4,
        d in 1u32..=8,
    ) {
        let planner = Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: d as f64 / 2.0,
            partitions_per_node: 1,
            max_machines: 4,
        });
        let mut violations = check_plan(&planner, &seed_load, n0, "proptest");
        violations.extend(check_plan_optimality(&planner, &seed_load, n0, "proptest"));
        prop_assert!(
            violations.is_empty(),
            "{}",
            pstore_core::invariant::report(&violations)
        );
    }

    /// The memoised `(interval, machines)` value-iteration must agree with
    /// the naive depth-first enumeration — same feasibility verdict, same
    /// fewest-machines endpoint, same optimal cost — on every instance
    /// small enough for the naive oracle to finish.
    #[test]
    fn memoised_oracle_agrees_with_naive_enumeration(
        seed_load in load_curve(450.0, 7),
        n0 in 1u32..=4,
        d in 1u32..=10,
        partitions in 1u32..=2,
    ) {
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: d as f64 / 2.0,
            partitions_per_node: partitions,
            max_machines: 4,
        };
        let naive = brute_force_optimum(&cfg, &seed_load, n0);
        let memo = memoised_optimum(&cfg, &seed_load, n0);
        match (naive, memo) {
            (None, None) => {}
            (Some((ne, nc)), Some((me, mc))) => {
                prop_assert_eq!(ne, me, "end machine counts disagree");
                prop_assert!(
                    (nc - mc).abs() <= 1e-6,
                    "naive cost {} vs memoised {}", nc, mc
                );
            }
            other => prop_assert!(false, "feasibility disagreement: {:?}", other),
        }
    }
}
