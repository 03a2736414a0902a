//! Property-based tests for the P-Store core algorithms.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use pstore_core::cost_model::{avg_machines_allocated, cap, eff_cap, machines_for_load, move_time};
use pstore_core::moves::{Move, MoveSeq};
use pstore_core::params::SystemParams;
use pstore_core::partition_plan::SlotPlan;
use pstore_core::planner::{Planner, PlannerConfig, PlannerOptions};
use pstore_core::schedule::MigrationSchedule;
use pstore_forecast::generators::B2wLoadModel;

/// Algorithms 1–3 transcribed with the cost model's arithmetic evaluated at
/// every step, searched top-down with a memo — the planner as it was before
/// its move tables and its forward pass, kept as the reference the
/// table-driven, bottom-up one must equal move for move and bit for bit.
struct ReferencePlanner {
    cfg: PlannerConfig,
    opts: PlannerOptions,
    /// Seeded bug: check the load one interval early against each Eq 7
    /// capacity. The comparison below must notice.
    eq7_off_by_one: bool,
    /// Seeded bug: among equally cheap last moves take the largest source
    /// count (`<=`) instead of the smallest (`<`). The comparison below must
    /// notice.
    ties_last: bool,
}

#[derive(Clone, Copy)]
struct RefEntry {
    cost: f64,
    prev_time: usize,
    prev_nodes: u32,
}

struct RefSearch<'a> {
    load: &'a [f64],
    n0: u32,
    z: u32,
    memo: Vec<Option<RefEntry>>,
}

impl ReferencePlanner {
    /// The faithful reference for a case's configuration.
    fn of(case: &PlanCase) -> Self {
        ReferencePlanner {
            cfg: case.cfg.clone(),
            opts: case.opts,
            eq7_off_by_one: false,
            ties_last: false,
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "ceil of a non-negative time"
    )]
    fn move_intervals(&self, b: u32, a: u32) -> usize {
        if b == a {
            return 0;
        }
        move_time(b, a, self.cfg.partitions_per_node, self.cfg.d_intervals).ceil() as usize
    }

    fn move_cost_intervals(&self, b: u32, a: u32) -> f64 {
        if b == a {
            return b as f64; // stretched noop: B machines for 1 interval
        }
        let machines = if self.opts.jit_allocation_cost {
            avg_machines_allocated(b, a)
        } else {
            b.max(a) as f64
        };
        self.move_intervals(b, a).max(1) as f64 * machines
    }

    /// Algorithm 1, returning the plan and its cost.
    fn best_moves(&self, load: &[f64], n0: u32) -> Option<(MoveSeq, f64)> {
        let t_max = load.len() - 1;
        if t_max == 0 {
            return (load[0] <= cap(n0, self.cfg.q)).then(|| (MoveSeq::default(), n0 as f64));
        }
        let peak = load.iter().copied().fold(0.0, f64::max);
        let z = machines_for_load(peak, self.cfg.q)
            .max(n0)
            .clamp(1, self.cfg.max_machines);
        let mut s = RefSearch {
            load,
            n0,
            z,
            memo: vec![None; (t_max + 1) * (z as usize + 1)],
        };
        for end_nodes in 1..=z {
            let c = self.cost(&mut s, t_max, end_nodes);
            if c.is_finite() {
                let mut moves = Vec::new();
                let (mut t, mut n) = (t_max, end_nodes);
                while t > 0 {
                    let Some(cell) = s.memo[t * (z as usize + 1) + n as usize] else {
                        unreachable!("backtrack visits only memoised states");
                    };
                    moves.push(Move {
                        start: cell.prev_time,
                        end: t,
                        from: cell.prev_nodes,
                        to: n,
                    });
                    (t, n) = (cell.prev_time, cell.prev_nodes);
                }
                moves.reverse();
                return Some((MoveSeq::new(moves), c));
            }
        }
        None
    }

    /// Algorithm 2.
    fn cost(&self, s: &mut RefSearch<'_>, t: usize, a: u32) -> f64 {
        if t == 0 && a != s.n0 {
            return f64::INFINITY;
        }
        if s.load[t] > cap(a, self.cfg.q) {
            return f64::INFINITY;
        }
        let idx = t * (s.z as usize + 1) + a as usize;
        if let Some(cell) = s.memo[idx] {
            return cell.cost;
        }
        let cell = if t == 0 {
            RefEntry {
                cost: a as f64,
                prev_time: 0,
                prev_nodes: a,
            }
        } else {
            let mut best = RefEntry {
                cost: f64::INFINITY,
                prev_time: 0,
                prev_nodes: 0,
            };
            for b in 1..=s.z {
                let c = self.sub_cost(s, t, b, a);
                let tie = self.ties_last && c.is_finite() && c <= best.cost;
                if c < best.cost || tie {
                    best = RefEntry {
                        cost: c,
                        prev_time: t - self.move_intervals(b, a).max(1),
                        prev_nodes: b,
                    };
                }
            }
            best
        };
        s.memo[idx] = Some(cell);
        cell.cost
    }

    /// Algorithm 3.
    fn sub_cost(&self, s: &mut RefSearch<'_>, t: usize, b: u32, a: u32) -> f64 {
        let dur = self.move_intervals(b, a).max(1);
        let Some(start) = t.checked_sub(dur) else {
            return f64::INFINITY;
        };
        for i in 1..=dur {
            let capacity = if self.opts.effective_capacity_aware {
                eff_cap(b, a, i as f64 / dur as f64, self.cfg.q)
            } else {
                cap(a, self.cfg.q)
            };
            let at = start + i - usize::from(self.eq7_off_by_one);
            if s.load[at] > capacity {
                return f64::INFINITY;
            }
        }
        self.cost(s, start, b) + self.move_cost_intervals(b, a)
    }
}

/// One random planning problem.
#[derive(Debug, Clone)]
struct PlanCase {
    cfg: PlannerConfig,
    opts: PlannerOptions,
    n0: u32,
    load: Vec<f64>,
}

/// Configurations up to 64 machines with both ablation flags, horizons up
/// to 60 intervals, and diurnal-ish loads from a trickle to beyond the
/// hardware; `n0` is what the first clean load needs, one more, anything
/// within the hardware, or more machines than the hardware has. Up to three
/// points of the curve may be hostile — NaN, +∞, negated or zero — which
/// pins today's answers to such forecasts, whatever they should be.
fn plan_case() -> impl Strategy<Value = PlanCase> {
    let cfg = (50.0f64..400.0, 0.3f64..40.0, 1u32..=8, 1u32..=64);
    let opts = (any::<bool>(), any::<bool>());
    let shape = (0.05f64..1.1, 0.0f64..1.0, 0.0f64..1.0);
    let noise = prop::collection::vec(-1.0f64..1.0, 1..=61);
    let start = (0u32..4, 0u32..64);
    let hostile = prop::collection::vec((0u32..8, 0usize..61), 0..=3);
    (cfg, opts, shape, noise, (start, hostile)).prop_map(
        |(
            (q, d_intervals, partitions_per_node, max_machines),
            opts,
            shape,
            noise,
            (start, hostile),
        )| {
            let (level, swing, phase) = shape;
            let len = noise.len() as f64;
            let mut load: Vec<f64> = noise
                .iter()
                .enumerate()
                .map(|(t, eps)| {
                    let wave = (std::f64::consts::TAU * (t as f64 / len + phase)).cos();
                    let base = q * max_machines as f64 * level;
                    base * (1.0 - swing * 0.5 * (1.0 + wave)) * (1.0 + 0.05 * eps)
                })
                .collect();
            let needed = machines_for_load(load[0], q);
            let n0 = match start {
                (0, _) => needed,
                (1, _) => needed + 1,
                (2, r) => 1 + r % max_machines,
                (_, r) => max_machines + 1 + r % 3,
            };
            for (kind, at) in hostile {
                let at = at % load.len();
                load[at] = match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -load[at],
                    3 => 0.0,
                    _ => load[at],
                };
            }
            PlanCase {
                cfg: PlannerConfig {
                    q,
                    d_intervals,
                    partitions_per_node,
                    max_machines,
                },
                opts: PlannerOptions {
                    effective_capacity_aware: opts.0,
                    jit_allocation_cost: opts.1,
                },
                n0,
                load,
            }
        },
    )
}

/// Panics unless the planner and the reference return the same plan, move
/// for move, at the same cost, bit for bit.
fn assert_planner_equals_reference(case: &PlanCase, eq7_off_by_one: bool) {
    let reference = ReferencePlanner {
        eq7_off_by_one,
        ..ReferencePlanner::of(case)
    };
    assert_planner_equals(
        &Planner::with_options(case.cfg.clone(), case.opts),
        &reference,
        case,
    );
}

/// [`assert_planner_equals_reference`] against a given reference, with a
/// planner that may already have searched other cases.
fn assert_planner_equals(planner: &Planner, reference: &ReferencePlanner, case: &PlanCase) {
    let want = reference.best_moves(&case.load, case.n0);
    // Twice: the second search runs on the table the first one left behind.
    for _ in 0..2 {
        let got = planner.best_moves_with_cost(&case.load, case.n0);
        assert_eq!(
            got.as_ref().map(|(seq, cost)| (seq, cost.to_bits())),
            want.as_ref().map(|(seq, cost)| (seq, cost.to_bits())),
            "planner and reference disagree on {case:?}"
        );
    }
    assert_eq!(
        planner.best_moves(&case.load, case.n0),
        want.map(|(seq, _)| seq)
    );
}

/// The curves the controller plans over: a 49-tick window slid across two
/// weeks of five-minute B2W load (peak at 80 % of the hardware, as the
/// tick-allocation test has it) and inflated by 15 %, from every start size
/// in 1..=10 and under all four ablation settings, on planners that keep
/// their table from one search to the next.
#[test]
fn planner_equals_reference_on_b2w_windows() {
    // Every 13th window (a prime, so the starts walk through the day's
    // phases from one day to the next); under miri a day's, sparser.
    let (days, stride) = if cfg!(miri) { (1, 61) } else { (14, 13) };
    let params = SystemParams::b2w_paper();
    let cfg = PlannerConfig {
        q: params.q,
        d_intervals: params.d.as_secs_f64() / 300.0,
        partitions_per_node: params.partitions_per_node,
        max_machines: params.max_machines,
    };
    let (model, _) = B2wLoadModel::four_and_a_half_months(7);
    let ticks = model.generate(days).downsample_mean(5);
    let scale = 1.15 * 0.8 * params.q * params.max_machines as f64 / ticks.max();
    let load: Vec<f64> = ticks.values().iter().map(|v| v * scale).collect();
    let (mut moving, mut infeasible) = (0, 0);
    for (effective_capacity_aware, jit_allocation_cost) in
        [(true, true), (true, false), (false, true), (false, false)]
    {
        let opts = PlannerOptions {
            effective_capacity_aware,
            jit_allocation_cost,
        };
        let planner = Planner::with_options(cfg.clone(), opts);
        for window in load.windows(49).step_by(stride) {
            for n0 in 1..=10 {
                let case = PlanCase {
                    cfg: cfg.clone(),
                    opts,
                    n0,
                    load: window.to_vec(),
                };
                assert_planner_equals(&planner, &ReferencePlanner::of(&case), &case);
                match planner.best_moves(&case.load, n0) {
                    Some(plan) => moving += usize::from(plan.first_reconfiguration().is_some()),
                    None => infeasible += 1,
                }
            }
        }
    }
    assert!(
        moving > 0 && infeasible > 0,
        "{moving} plans that move, {infeasible} searches without a plan"
    );
}

/// How many of the cases `planner_equals_arithmetic_reference` draws reach
/// each path of the planner's candidate scan, pinned so that a narrower
/// strategy cannot silently stop exercising one. The planner reads
/// one-interval moves into `A` straight from the row before, from that
/// row's fewest sufficient machines `a_min` up, and skips every count under
/// `floor`, the fewest machines whose capacity covers some row's load. The
/// paths: moves into some `A` that last longer than an interval (the
/// generic loops around the run); `floor > 1`; a NaN load that pulls
/// `floor` down to 1 (it exceeds no capacity); and a +∞ load before the
/// last row, whose `a_min` is past `Z` and so empties the next row's runs.
#[test]
fn plan_cases_reach_every_candidate_path() {
    let mut rng = TestRng::from_test_name("planner_equals_arithmetic_reference");
    let (mut multi_interval, mut floor_above_one, mut nan_floor, mut inf_row) = (0, 0, 0, 0);
    for _ in 0..ProptestConfig::default().cases {
        let case = plan_case().generate(&mut rng);
        let planner = Planner::with_options(case.cfg.clone(), case.opts);
        let (load, q) = (&case.load, case.cfg.q);
        let peak = load.iter().copied().fold(0.0, f64::max);
        let z = machines_for_load(peak, q)
            .max(case.n0)
            .clamp(1, case.cfg.max_machines);
        let a_min = |l: f64| {
            (1..=z)
                .find(|&a| l.is_nan() || l <= cap(a, q))
                .unwrap_or(z + 1)
        };
        let floor = |skip_nan: bool| {
            let rows = load.iter().filter(|l| !(skip_nan && l.is_nan()));
            rows.map(|&l| a_min(l)).min().unwrap_or(z + 1)
        };
        multi_interval +=
            usize::from((1..=z).any(|a| (1..=z).any(|b| planner.move_intervals(b, a) > 1)));
        floor_above_one += usize::from(floor(false) > 1);
        nan_floor += usize::from(load.iter().any(|l| l.is_nan()) && floor(true) > 1);
        inf_row += usize::from(load[..load.len() - 1].contains(&f64::INFINITY));
    }
    assert_eq!(
        (multi_interval, floor_above_one, nan_floor, inf_row),
        (214, 120, 26, 52),
        "cases with multi-interval moves, floor > 1, a NaN lowering floor, a +inf row"
    );
}

proptest! {
    /// The table-driven planner is the arithmetic one: same plan, same
    /// cost bits, feasible or not.
    #[test]
    fn planner_equals_arithmetic_reference(case in plan_case()) {
        assert_planner_equals_reference(&case, false);
    }

    /// The comparison above can fail: against a reference with Eq 7 checked
    /// one interval off, some generated case must disagree.
    #[test]
    #[should_panic(expected = "planner and reference disagree")]
    fn planner_comparison_catches_an_eq7_off_by_one(case in plan_case()) {
        assert_planner_equals_reference(&case, true);
    }

    /// ... and with the tie-break flipped, some generated case must
    /// disagree: ties between last moves occur, and the planner resolves
    /// them as Algorithm 2's strict `<` does.
    #[test]
    #[should_panic(expected = "planner and reference disagree")]
    fn planner_comparison_catches_a_flipped_tie_break(case in plan_case()) {
        let reference = ReferencePlanner {
            ties_last: true,
            ..ReferencePlanner::of(&case)
        };
        assert_planner_equals(&Planner::with_options(case.cfg.clone(), case.opts), &reference, &case);
    }

    /// Every schedule is structurally valid: each pair exactly once, rounds
    /// are matchings, machines only used while allocated, minimum rounds.
    #[test]
    fn schedule_always_valid(b in 1u32..=20, a in 1u32..=20) {
        let s = MigrationSchedule::plan(b, a);
        prop_assert!(s.check_valid().is_ok(), "{b}->{a}: {:?}", s.check_valid());
    }

    /// The schedule-derived average machine count equals Algorithm 4's
    /// closed form.
    #[test]
    fn schedule_average_matches_algorithm4(b in 1u32..=20, a in 1u32..=20) {
        let s = MigrationSchedule::plan(b, a);
        let avg = s.avg_machines();
        let expect = avg_machines_allocated(b, a);
        prop_assert!((avg - expect).abs() < 1e-9, "{b}->{a}: {avg} vs {expect}");
    }

    /// Effective capacity stays between the before/after capacities and hits
    /// them exactly at the endpoints.
    #[test]
    fn eff_cap_bounded_and_anchored(b in 1u32..=30, a in 1u32..=30, f in 0.0f64..=1.0) {
        let q = 285.0;
        let c = eff_cap(b, a, f, q);
        let lo = cap(b.min(a), q) - 1e-9;
        let hi = cap(b.max(a), q) + 1e-9;
        prop_assert!(c >= lo && c <= hi, "{b}->{a}@{f}: {c} not in [{lo}, {hi}]");
        prop_assert!((eff_cap(b, a, 0.0, q) - cap(b, q)).abs() < 1e-6);
        prop_assert!((eff_cap(b, a, 1.0, q) - cap(a, q)).abs() < 1e-6);
    }

    /// Move time is symmetric in direction and decreases (weakly) with more
    /// partitions per machine.
    #[test]
    fn move_time_symmetry_and_partition_speedup(
        b in 1u32..=20, a in 1u32..=20, p in 1u32..=8, d in 1.0f64..10_000.0
    ) {
        let t = move_time(b, a, p, d);
        prop_assert!((t - move_time(a, b, p, d)).abs() < 1e-9);
        prop_assert!(move_time(b, a, p + 1, d) <= t + 1e-12);
        if b != a {
            prop_assert!(t > 0.0);
        }
    }

    /// Any plan the DP returns is feasible against its own load curve and
    /// starts from the requested machine count.
    #[test]
    fn planner_output_is_feasible(
        seed_loads in prop::collection::vec(10.0f64..900.0, 3..20),
        n0 in 1u32..=8,
        d in 1.0f64..20.0,
    ) {
        let planner = Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: d,
            partitions_per_node: 2,
            max_machines: 12,
        });
        if let Some(seq) = planner.best_moves(&seed_loads, n0) {
            prop_assert!(planner.verify_feasible(&seq, &seed_loads).is_ok());
            if let Some(first) = seq.moves().first() {
                prop_assert_eq!(first.from, n0);
                prop_assert_eq!(first.start, 0);
            }
            // Contiguity: the sequence must span exactly the horizon.
            prop_assert_eq!(seq.moves().last().unwrap().end, seed_loads.len() - 1);
            // Nominal capacity at the end must cover the final load.
            let last = seq.final_machines().unwrap();
            prop_assert!(cap(last, 100.0) >= *seed_loads.last().unwrap());
        }
    }

    /// A constant, comfortably served load never triggers a scale-out, and
    /// the plan ends at the minimum machine count for that load.
    #[test]
    fn planner_minimises_final_machines_on_flat_load(
        load in 10.0f64..1100.0,
        horizon in 4usize..24,
    ) {
        let planner = Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: 2.0,
            partitions_per_node: 2,
            max_machines: 12,
        });
        let n_needed = planner.machines_needed(load);
        let curve = vec![load; horizon];
        // Start exactly at the needed count: plan must end there too and
        // never scale out.
        if let Some(seq) = planner.best_moves(&curve, n_needed) {
            prop_assert_eq!(seq.final_machines(), Some(n_needed));
            prop_assert!(seq.moves().iter().all(|m| !m.is_scale_out()));
        } else {
            // Only infeasible if the load does not fit the hardware.
            prop_assert!(load > 12.0 * 100.0);
        }
    }

    /// Rebalancing a balanced plan yields a balanced plan, moves only the
    /// minimum number of slots, and transfer bookkeeping is consistent.
    #[test]
    fn rebalance_preserves_balance_and_minimality(
        machines in 1u32..=16,
        target in 1u32..=16,
        slots_per in 4usize..12,
    ) {
        let num_slots = 16 * slots_per; // divisible by any count up to 16
        let plan = SlotPlan::balanced(machines, num_slots);
        let (next, transfers) = plan.rebalance_to(target);
        prop_assert!(next.is_balanced());
        prop_assert_eq!(next.machines(), target);
        let moved: usize = transfers.iter().map(|t| t.slots.len()).sum();
        // Minimum slots to move: sum over machines of max(0, have - want).
        let want_base = num_slots / target as usize;
        let want_extra = num_slots % target as usize;
        let have_base = num_slots / machines as usize;
        let have_extra = num_slots % machines as usize;
        let mut expect = 0usize;
        for m in 0..machines {
            let have = have_base + usize::from((m as usize) < have_extra);
            let want = if m < target {
                want_base + usize::from((m as usize) < want_extra)
            } else {
                0
            };
            expect += have.saturating_sub(want);
        }
        prop_assert_eq!(moved, expect);
        for t in &transfers {
            for &s in &t.slots {
                prop_assert_eq!(plan.owner(s), t.from);
                prop_assert_eq!(next.owner(s), t.to);
            }
        }
    }

    /// Scale-out then the mirroring scale-in returns to a balanced plan of
    /// the original size (data round-trips cleanly).
    #[test]
    fn rebalance_round_trip(machines in 1u32..=12, target in 1u32..=12) {
        let plan = SlotPlan::balanced(machines, 240);
        let (mid, _) = plan.rebalance_to(target);
        let (back, _) = mid.rebalance_to(machines);
        prop_assert!(back.is_balanced());
        prop_assert_eq!(back.machines(), machines);
    }
}
