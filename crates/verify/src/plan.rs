//! Checks for planner output (Algorithms 1–3).
//!
//! [`check_plan`] validates a plan the DP produced for a load horizon:
//! structure and horizon tiling (via [`crate::moves`]), correct endpoints
//! (`PLN-02`), and — independently of the planner's own bookkeeping —
//! that predicted load never exceeds capacity, *including the effective
//! capacity of Equation 7 while data is in flight* (`PLN-01`).
//!
//! [`check_plan_optimality`] goes further: it re-solves the planning
//! problem with an independent oracle and cross-checks feasibility, the
//! final machine count (the DP prefers ending with as few machines as
//! possible) and the optimal cost (`PLN-03`). Two oracles exist:
//!
//! * [`brute_force_optimum`] — a naive depth-first enumeration of every
//!   move sequence. Exponential, only tractable on tiny instances, but
//!   trivially auditable; kept as the reference the memoised oracle is
//!   property-tested against.
//! * [`memoised_optimum`] — a forward value-iteration over `(interval,
//!   machine-count)` states with a memoised move-duration table (durations
//!   are symmetric in `(from, to)` because a scale-in schedule is the
//!   time-reverse of the matching scale-out, `SCH-07`). Polynomial, so the
//!   sweep can validate instances an order of magnitude larger.
//!
//! Both oracles deliberately reimplement durations, feasibility and costs
//! from the `cost_model` primitives rather than calling into the planner,
//! so a bug in the DP cannot hide in a shared helper.

use pstore_core::cost_model::{avg_machines_allocated, cap, eff_cap, machines_for_load, move_time};
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_core::{InvariantId, MoveSeq, Violation};

/// Tolerance when comparing the DP's plan cost with the oracle's optimum
/// (both are short sums of rationals from Algorithm 4).
const COST_TOL: f64 = 1e-6;

/// Checks a planner's output for one load scenario: structure, endpoints
/// (`PLN-02`) and independent capacity verification (`PLN-01`).
///
/// Returning `None` from the planner (no feasible plan) is legitimate and
/// produces no violations here; [`check_plan_optimality`] catches wrongly
/// reported infeasibility on small instances.
pub fn check_plan(planner: &Planner, load: &[f64], n0: u32, label: &str) -> Vec<Violation> {
    let Some(seq) = planner.best_moves(load, n0) else {
        return Vec::new();
    };
    check_produced_plan(planner, &seq, load, n0, label)
}

/// Checks an already-produced plan (used by [`check_plan`] and the tests).
pub fn check_produced_plan(
    planner: &Planner,
    seq: &MoveSeq,
    load: &[f64],
    n0: u32,
    label: &str,
) -> Vec<Violation> {
    let t_max = load.len() - 1;
    let artifact = format!("plan for {label} (n0={n0}, horizon={t_max})");
    let mut out = crate::moves::check_move_seq(seq, t_max);

    // PLN-02: the plan starts from the current allocation at t = 0. The
    // start/end interval bounds are already covered by MOV-01 above.
    if let Some(first) = seq.moves().first() {
        if first.from != n0 {
            out.push(Violation::new(
                InvariantId::PlanStart,
                artifact.clone(),
                format!(
                    "plan starts from {} machines instead of n0={n0}",
                    first.from
                ),
            ));
        }
    }

    // PLN-01: independent capacity check. At t = 0 the initial allocation
    // must carry the measured load; during every move, predicted load must
    // stay under the effective capacity of Eq 7 at the migration progress
    // reached by that interval.
    let q = planner.config().q;
    if load[0] > cap(n0, q) {
        out.push(Violation::new(
            InvariantId::PlanCapacity,
            artifact.clone(),
            format!(
                "initial load {:.1} exceeds capacity {:.1} of n0={n0}",
                load[0],
                cap(n0, q)
            ),
        ));
    }
    for m in seq.moves() {
        let dur = m.duration();
        for i in 1..=dur {
            let t = m.start + i;
            if t > t_max {
                // Already reported as a tiling violation.
                continue;
            }
            let capacity = if m.is_noop() {
                cap(m.from, q)
            } else {
                eff_cap(m.from, m.to, i as f64 / dur as f64, q)
            };
            if load[t] > capacity {
                out.push(Violation::new(
                    InvariantId::PlanCapacity,
                    artifact.clone(),
                    format!(
                        "load {:.1} exceeds effective capacity {:.1} at t={t} during {m}",
                        load[t], capacity
                    ),
                ));
            }
        }
    }
    out
}

/// `PLN-03`: cross-checks the DP against the memoised oracle
/// ([`memoised_optimum`]), which is polynomial in `machines × horizon` and
/// therefore safe on instances well beyond what the naive enumeration can
/// handle. Only meaningful for planners with the paper-default options.
pub fn check_plan_optimality(
    planner: &Planner,
    load: &[f64],
    n0: u32,
    label: &str,
) -> Vec<Violation> {
    let t_max = load.len() - 1;
    let artifact = format!("plan for {label} (n0={n0}, horizon={t_max})");
    let dp = planner.best_moves(load, n0);
    let oracle = memoised_optimum(planner.config(), load, n0);
    match (dp, oracle) {
        (None, None) => Vec::new(),
        (None, Some((end, cost))) => vec![Violation::new(
            InvariantId::PlanOptimality,
            artifact,
            format!(
                "planner reported infeasible but a plan ending at {end} machines with cost {cost} exists"
            ),
        )],
        (Some(seq), None) => vec![Violation::new(
            InvariantId::PlanOptimality,
            artifact,
            format!("planner produced [{seq}] but the oracle finds no feasible plan"),
        )],
        (Some(seq), Some((end, cost))) => {
            let mut out = Vec::new();
            let dp_end = seq.final_machines().unwrap_or(n0);
            if dp_end != end {
                out.push(Violation::new(
                    InvariantId::PlanOptimality,
                    artifact.clone(),
                    format!(
                        "plan ends with {dp_end} machines; the fewest feasible is {end}"
                    ),
                ));
            } else {
                let dp_cost = plan_cost(&seq, n0);
                if (dp_cost - cost).abs() > COST_TOL {
                    out.push(Violation::new(
                        InvariantId::PlanOptimality,
                        artifact.clone(),
                        format!("plan costs {dp_cost} machine-intervals, optimum is {cost}"),
                    ));
                }
            }
            out
        }
    }
}

/// The DP's accounting for a produced plan: `n0` machine-intervals for the
/// initial interval plus Algorithm 4's average allocation per move.
fn plan_cost(seq: &MoveSeq, n0: u32) -> f64 {
    let mut cost = n0 as f64;
    for m in seq.moves() {
        cost += if m.is_noop() {
            m.from as f64
        } else {
            avg_machines_allocated(m.from, m.to) * m.duration() as f64
        };
    }
    cost
}

/// Exhaustively enumerates every feasible move sequence over the horizon
/// and returns `(fewest feasible end machines, min cost among plans ending
/// there)`, mirroring the DP's objective; `None` when nothing is feasible.
///
/// Exponential in the horizon (it revisits a `(t, n)` state once per
/// distinct path into it), so only tractable on tiny instances. Kept
/// public as the auditable reference that [`memoised_optimum`] is
/// property-tested against.
pub fn brute_force_optimum(cfg: &PlannerConfig, load: &[f64], n0: u32) -> Option<(u32, f64)> {
    let q = cfg.q;
    if load[0] > cap(n0, q) {
        return None;
    }
    let t_max = load.len() - 1;
    if t_max == 0 {
        return Some((n0, n0 as f64));
    }
    let peak = load.iter().copied().fold(0.0, f64::max);
    let z = machines_for_load(peak, q)
        .max(n0)
        .clamp(1, cfg.max_machines);

    // best[n] = min cost of a feasible sequence ending at (t_max, n).
    let mut best = vec![f64::INFINITY; z as usize + 1];
    let mut stack: Vec<(usize, u32, f64)> = vec![(0, n0, n0 as f64)];
    while let Some((t, b, cost)) = stack.pop() {
        if t == t_max {
            let slot = &mut best[b as usize];
            if cost < *slot {
                *slot = cost;
            }
            continue;
        }
        for a in 1..=z {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "ceil of a non-negative finite move time"
            )]
            let dur = if a == b {
                1
            } else {
                (move_time(b, a, cfg.partitions_per_node, cfg.d_intervals).ceil() as usize).max(1)
            };
            if t + dur > t_max {
                continue;
            }
            let feasible = (1..=dur).all(|i| {
                let capacity = if a == b {
                    cap(b, q)
                } else {
                    eff_cap(b, a, i as f64 / dur as f64, q)
                };
                load[t + i] <= capacity
            });
            if !feasible {
                continue;
            }
            let step = if a == b {
                b as f64
            } else {
                avg_machines_allocated(b, a) * dur as f64
            };
            stack.push((t + dur, a, cost + step));
        }
    }
    let end = (1..=z).find(|&n| best[n as usize].is_finite())?;
    Some((end, best[end as usize]))
}

/// Memoised optimality oracle: same objective and primitives as
/// [`brute_force_optimum`], but a forward value-iteration over
/// `(interval, machine-count)` states, so each state is expanded once
/// regardless of how many move sequences reach it. Move durations are
/// precomputed once per *unordered* machine pair — `SCH-07` makes the
/// scale-in schedule the time-reverse of the matching scale-out, so
/// `move_time` is symmetric in `(from, to)`.
///
/// The state collapse is sound because the feasibility and cost of any
/// continuation depend only on the current `(interval, machines)` state,
/// never on how it was reached; `O(z² · horizon · max_duration)` overall.
pub fn memoised_optimum(cfg: &PlannerConfig, load: &[f64], n0: u32) -> Option<(u32, f64)> {
    let q = cfg.q;
    if load[0] > cap(n0, q) {
        return None;
    }
    let t_max = load.len() - 1;
    if t_max == 0 {
        return Some((n0, n0 as f64));
    }
    let peak = load.iter().copied().fold(0.0, f64::max);
    let z = machines_for_load(peak, q)
        .max(n0)
        .clamp(1, cfg.max_machines);
    let zu = z as usize;

    // Duration memo, filled once per unordered pair (symmetry pruning);
    // the diagonal stays at the single-interval no-op duration.
    let mut dur = vec![vec![1usize; zu + 1]; zu + 1];
    for b in 1..=z {
        for a in (b + 1)..=z {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "ceil of a non-negative finite move time"
            )]
            let d =
                (move_time(b, a, cfg.partitions_per_node, cfg.d_intervals).ceil() as usize).max(1);
            dur[b as usize][a as usize] = d;
            dur[a as usize][b as usize] = d;
        }
    }

    // best[t][n] = min cost of a feasible move sequence reaching
    // (interval t, n machines); the initial interval itself costs n0.
    let mut best = vec![vec![f64::INFINITY; zu + 1]; t_max + 1];
    best[0][n0 as usize] = n0 as f64;
    for t in 0..t_max {
        for b in 1..=z {
            let cost = best[t][b as usize];
            if !cost.is_finite() {
                continue;
            }
            for a in 1..=z {
                let d = dur[b as usize][a as usize];
                if t + d > t_max {
                    continue;
                }
                let feasible = (1..=d).all(|i| {
                    let capacity = if a == b {
                        cap(b, q)
                    } else {
                        eff_cap(b, a, i as f64 / d as f64, q)
                    };
                    load[t + i] <= capacity
                });
                if !feasible {
                    continue;
                }
                let step = if a == b {
                    b as f64
                } else {
                    avg_machines_allocated(b, a) * d as f64
                };
                let slot = &mut best[t + d][a as usize];
                if cost + step < *slot {
                    *slot = cost + step;
                }
            }
        }
    }
    let end = (1..=z).find(|&n| best[t_max][n as usize].is_finite())?;
    Some((end, best[t_max][end as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstore_core::planner::Planner;

    fn planner(max: u32, d: f64) -> Planner {
        Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: d,
            partitions_per_node: 1,
            max_machines: max,
        })
    }

    #[test]
    fn feasible_plan_is_clean() {
        let p = planner(10, 0.5);
        let load = vec![150.0, 250.0, 350.0, 150.0];
        assert!(check_plan(&p, &load, 2, "test").is_empty());
    }

    #[test]
    fn plan_starting_off_n0_violates_plan_start() {
        // PLN-02: a plan must depart from the current allocation. Feed a
        // hand-built sequence that starts from 4 machines when n0 = 2.
        let p = planner(10, 0.5);
        let load = vec![150.0, 250.0, 150.0];
        let seq = MoveSeq::new(vec![
            pstore_core::Move {
                start: 0,
                end: 1,
                from: 4,
                to: 4,
            },
            pstore_core::Move {
                start: 1,
                end: 2,
                from: 4,
                to: 4,
            },
        ]);
        let v = check_produced_plan(&p, &seq, &load, 2, "test");
        assert!(
            v.iter().any(|v| v.invariant == InvariantId::PlanStart),
            "expected a PLN-02 violation, got {v:?}"
        );
    }

    #[test]
    fn optimality_agrees_on_small_instances() {
        let p = planner(4, 0.5);
        for load in [
            vec![150.0, 250.0, 350.0, 150.0],
            vec![150.0, 150.0, 380.0, 380.0, 120.0],
            vec![110.0, 310.0, 110.0, 310.0],
        ] {
            let v = check_plan_optimality(&p, &load, 2, "test");
            assert!(v.is_empty(), "{load:?}: {v:?}");
        }
    }

    #[test]
    fn optimality_agrees_with_slow_moves() {
        let p = planner(5, 4.0);
        let mut load = vec![150.0; 7];
        for v in &mut load[4..] {
            *v = 420.0;
        }
        let v = check_plan_optimality(&p, &load, 2, "test");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn infeasible_scenarios_agree() {
        let p = planner(4, 8.0);
        // The jump at t = 1 leaves no time to migrate.
        let load = vec![150.0, 800.0, 800.0];
        assert!(check_plan_optimality(&p, &load, 2, "test").is_empty());
    }

    #[test]
    fn memoised_oracle_agrees_with_naive_enumeration() {
        for (max, d, n0, load) in [
            (4, 0.5, 2, vec![150.0, 250.0, 350.0, 150.0]),
            (4, 0.5, 2, vec![150.0, 150.0, 380.0, 380.0, 120.0]),
            (
                5,
                4.0,
                1,
                vec![90.0, 90.0, 200.0, 420.0, 420.0, 150.0, 90.0],
            ),
            (4, 8.0, 2, vec![150.0, 800.0, 800.0]),
            (3, 1.5, 3, vec![250.0, 120.0, 120.0, 120.0, 120.0]),
        ] {
            let p = planner(max, d);
            let naive = brute_force_optimum(p.config(), &load, n0);
            let memo = memoised_optimum(p.config(), &load, n0);
            match (naive, memo) {
                (None, None) => {}
                (Some((ne, nc)), Some((me, mc))) => {
                    assert_eq!(ne, me, "{load:?}: end machines disagree");
                    assert!(
                        (nc - mc).abs() <= COST_TOL,
                        "{load:?}: naive cost {nc} vs memoised {mc}"
                    );
                }
                other => panic!("{load:?}: feasibility disagreement {other:?}"),
            }
        }
    }

    #[test]
    fn optimality_holds_on_widened_instances() {
        // 12 machines × 16-interval horizon: nodes × horizon = 192, well
        // past where the naive enumeration is tractable, but the memoised
        // oracle cross-checks the DP in well under a second.
        let p = planner(12, 3.0);
        let load: Vec<f64> = (0..=16)
            .map(|t| {
                let x = t as f64 / 16.0;
                180.0 + 900.0 * (std::f64::consts::PI * x).sin().max(0.0)
            })
            .collect();
        let v = check_plan_optimality(&p, &load, 2, "widened");
        assert!(v.is_empty(), "{v:?}");

        // And a step curve that forces both scale-out and scale-in.
        let mut step = vec![160.0; 17];
        for v in &mut step[5..11] {
            *v = 1_050.0;
        }
        let v = check_plan_optimality(&p, &step, 2, "widened-step");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn capacity_check_catches_an_overloaded_plan() {
        use pstore_core::Move;
        let p = planner(10, 0.5);
        let load = vec![150.0, 500.0, 150.0];
        let seq = MoveSeq::new(vec![
            Move {
                start: 0,
                end: 1,
                from: 2,
                to: 2,
            },
            Move {
                start: 1,
                end: 2,
                from: 2,
                to: 2,
            },
        ]);
        let v = check_produced_plan(&p, &seq, &load, 2, "test");
        assert!(v.iter().any(|v| v.invariant == InvariantId::PlanCapacity));
    }
}
