//! The predictive elasticity dynamic program (§4.3, Algorithms 1–3).
//!
//! Given a horizon of predicted load, the planner finds the cheapest
//! contiguous sequence of moves such that predicted load never exceeds the
//! system's *effective* capacity — including while data is in flight — and
//! the plan ends with as few machines as possible. The problem has optimal
//! substructure: the cheapest way to hold `A` machines at time `t` extends
//! the cheapest way to hold some `B` at time `t - T(B, A)` with the move
//! `B -> A`. Every move lasts at least an interval, so one forward pass
//! over `t` fills that recurrence bottom-up, each `(t, A)` from rows
//! already filled. Where moves are short against the interval, most of
//! those into `A` last exactly one, so they start in the row before; they
//! are read from the fewest machines that row can hold up. A last move is
//! passed over only where its start cell is known to be unreachable, so
//! every cell, and every tie-break, is what the full scan gives.
//!
//! The controller runs this search at every monitoring tick, so everything
//! about a move that depends on `(B, A)` alone — its duration in intervals
//! (Eq 3), its cost (Eq 4 / Algorithm 4) and the effective capacity the
//! load must stay under at each interval of the move (Eq 7) — is worked
//! out once, when the planner is built, with the very expressions of
//! [`crate::cost_model`]. The recurrence then only looks values up and
//! compares them, so a plan and its cost are the same `f64`s the formulas
//! give. The `(t, A)` table is scratch the planner keeps between calls, and
//! [`Planner::best_moves_into`] backtracks into a sequence the caller
//! keeps, so a warm search allocates nothing. Move-table size is the sum
//! of all move durations, `O(max_machines² · D / P)` values.

use crate::cost_model::{avg_machines_allocated, cap, eff_cap, machines_for_load, move_time};
use crate::moves::{Move, MoveSeq};
use std::cell::RefCell;
use std::ops::Range;

/// Planner configuration, in planning-interval units.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Target per-machine throughput `Q` (load units, e.g. txn/s).
    pub q: f64,
    /// Single-thread whole-database migration time `D`, in intervals.
    pub d_intervals: f64,
    /// Partitions per machine `P`.
    pub partitions_per_node: u32,
    /// Hard cap on cluster size.
    pub max_machines: u32,
}

/// Behavioural switches for ablation studies. The defaults reproduce the
/// paper's algorithm; switching a flag off isolates the contribution of
/// one design choice (exercised by the `ablations` experiment binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Check predicted load against the *effective* capacity of Eq 7 while
    /// a move is in flight (the paper's Algorithm 3). When off, moves are
    /// only checked against the post-move capacity `cap(A)` — the naive
    /// model that Fig 4c warns underprovisions during large scale-outs.
    pub effective_capacity_aware: bool,
    /// Account the true machine cost of a move via Algorithm 4. When off,
    /// every move is costed as if the full target allocation were held for
    /// its whole duration (no just-in-time credit).
    pub jit_allocation_cost: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            effective_capacity_aware: true,
            jit_allocation_cost: true,
        }
    }
}

/// The predictive elasticity planner.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
    opts: PlannerOptions,
    /// One entry per machine count `n` in `0..=max_machines`; entry 0 is
    /// never read.
    columns: Vec<Column>,
    /// One entry per `(b, a)`, both in `0..=max_machines`, at
    /// `a * (max_machines + 1) + b` (the moves into `a` side by side); row
    /// and column 0 are never read.
    moves: Vec<MoveEntry>,
    /// The capacity limits of every move, back to back; see
    /// [`MoveEntry::limits`].
    limits: Vec<f64>,
    /// The `(t, A)` table at `t * (z + 1) + A`, kept only for its
    /// allocation: a search writes every cell before it reads it.
    table: RefCell<Vec<Cell>>,
}

/// What the recurrence needs to know about holding `n` machines.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// `cap(n)` (Eq 5).
    cap: f64,
    /// The widest run `lo..=hi` of counts around `n` whose move into `n`
    /// lasts one interval, the stretched "do nothing" move among them: the
    /// last move from any of them starts in the row before.
    lo: u32,
    hi: u32,
}

/// What the recurrence needs to know about the move `b -> a`.
#[derive(Debug, Clone, Copy, Default)]
struct MoveEntry {
    /// Intervals the move occupies: Eq 3 rounded up, at least one (the
    /// "do nothing" move is stretched to an interval, Algorithm 2 line 9).
    dur: usize,
    /// Machine-intervals the move costs (Eq 4 with the rounded duration, so
    /// the program's accounting sums to machine-intervals over the horizon).
    cost: f64,
    /// Where in `Planner::limits` the move's `dur` limits start: the load
    /// of the move's `i`-th interval must not exceed the `i`-th of them
    /// (Eq 7 at migration progress `f = i / dur`, or `cap(a)` throughout
    /// for the naive ablation).
    limits: usize,
}

/// The cheapest way to hold `A` machines at `t`: its cost (infinite when
/// there is none) and the machine count of the move that ends there, which
/// started at `t - dur(prev_nodes, A)`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    cost: f64,
    prev_nodes: u32,
}

const UNREACHABLE: Cell = Cell {
    cost: f64::INFINITY,
    prev_nodes: 0,
};

/// Equation 3 in whole intervals, rounded up; 0 for the "do nothing" move.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "ceil of a non-negative time"
)]
fn move_intervals(cfg: &PlannerConfig, b: u32, a: u32) -> usize {
    if b == a {
        return 0;
    }
    move_time(b, a, cfg.partitions_per_node, cfg.d_intervals).ceil() as usize
}

impl Planner {
    /// Creates a planner.
    ///
    /// # Panics
    /// Panics on non-positive `q`, `d_intervals`, partitions, or machines.
    pub fn new(cfg: PlannerConfig) -> Self {
        Self::with_options(cfg, PlannerOptions::default())
    }

    /// Creates a planner with explicit ablation options.
    ///
    /// # Panics
    /// Panics on non-positive `q`, `d_intervals`, partitions, or machines.
    pub fn with_options(cfg: PlannerConfig, opts: PlannerOptions) -> Self {
        assert!(cfg.q > 0.0, "Q must be positive");
        assert!(cfg.d_intervals > 0.0, "D must be positive");
        assert!(cfg.partitions_per_node > 0, "P must be positive");
        assert!(cfg.max_machines > 0, "max_machines must be positive");

        let stride = cfg.max_machines as usize + 1;
        let mut moves = vec![MoveEntry::default(); stride * stride];
        let mut limits = Vec::new();
        for b in 1..=cfg.max_machines {
            for a in 1..=cfg.max_machines {
                let dur = move_intervals(&cfg, b, a).max(1);
                let cost = if b == a {
                    b as f64 // stretched noop: B machines for 1 interval
                } else if opts.jit_allocation_cost {
                    dur as f64 * avg_machines_allocated(b, a)
                } else {
                    dur as f64 * b.max(a) as f64
                };
                moves[a as usize * stride + b as usize] = MoveEntry {
                    dur,
                    cost,
                    limits: limits.len(),
                };
                limits.extend((1..=dur).map(|i| {
                    if opts.effective_capacity_aware {
                        eff_cap(b, a, i as f64 / dur as f64, cfg.q)
                    } else {
                        cap(a, cfg.q)
                    }
                }));
            }
        }
        let columns = (0..=cfg.max_machines)
            .map(|n| {
                let one_interval = |b: u32| moves[n as usize * stride + b as usize].dur == 1;
                let (mut lo, mut hi) = (n, n);
                while lo > 1 && one_interval(lo - 1) {
                    lo -= 1;
                }
                while hi < cfg.max_machines && one_interval(hi + 1) {
                    hi += 1;
                }
                Column {
                    cap: cap(n, cfg.q),
                    lo,
                    hi,
                }
            })
            .collect();
        Planner {
            cfg,
            opts,
            columns,
            moves,
            limits,
            table: RefCell::new(Vec::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Machines needed to serve `load` at target throughput `Q`.
    pub fn machines_needed(&self, load: f64) -> u32 {
        machines_for_load(load, self.cfg.q)
    }

    /// Duration of a move in whole intervals (Equation 3 rounded up; the
    /// "do nothing" move reports 0 here and is stretched to one interval
    /// inside the recurrence, per Algorithm 2 line 9).
    pub fn move_intervals(&self, b: u32, a: u32) -> usize {
        move_intervals(&self.cfg, b, a)
    }

    /// Algorithm 1: the optimal sequence of moves for the predicted load.
    ///
    /// `load[0]` is the current measured load; `load[t]` for `t >= 1` are
    /// the predictions. The plan starts at `n0` machines at `t = 0` and
    /// spans `load.len() - 1` intervals. Returns `None` when no feasible
    /// plan exists (the cluster cannot scale out fast enough, or the peak
    /// exceeds `max_machines * Q`) — the controller then falls back to a
    /// reactive emergency scale-out (§4.3.1).
    pub fn best_moves(&self, load: &[f64], n0: u32) -> Option<MoveSeq> {
        self.best_moves_with_cost(load, n0).map(|(seq, _)| seq)
    }

    /// [`best_moves`](Self::best_moves) together with the plan's cost in
    /// machine-intervals as the recurrence accounts it (Algorithm 2): `n0`
    /// for the current interval plus every move's cost, in plan order.
    pub fn best_moves_with_cost(&self, load: &[f64], n0: u32) -> Option<(MoveSeq, f64)> {
        let mut plan = MoveSeq::default();
        let cost = self.best_moves_into(load, n0, &mut plan)?;
        Some((plan, cost))
    }

    /// [`best_moves_with_cost`](Self::best_moves_with_cost) into a sequence
    /// the caller keeps: `plan` is refilled in place (left empty when there
    /// is no plan) and checked against `MOV-01..04` like any new sequence.
    /// Once `plan` has held a plan as long and the planner has searched a
    /// table as large, the call allocates nothing.
    pub fn best_moves_into(&self, load: &[f64], n0: u32, plan: &mut MoveSeq) -> Option<f64> {
        assert!(n0 >= 1, "must start with at least one machine");
        assert!(!load.is_empty(), "load horizon must be non-empty");
        let t_max = load.len() - 1;
        if t_max == 0 {
            plan.refill(|_| {});
            return (load[0] <= cap(n0, self.cfg.q)).then_some(n0 as f64);
        }

        // Profiler span over the DP search (begin/end via RAII so every
        // return path closes it).
        pstore_telemetry::tel_span!(planner_span, pstore_telemetry::SpanName::PlannerDp);

        // Z: machines needed for the predicted peak, bounded by hardware.
        let peak = load.iter().copied().fold(0.0, f64::max);
        let z = machines_for_load(peak, self.cfg.q)
            .max(n0)
            .clamp(1, self.cfg.max_machines);
        let row = z as usize + 1;
        let mut table = self.table.borrow_mut();
        // Grown, never reset: the pass below writes each row before the
        // rows after it read it.
        if table.len() < (t_max + 1) * row {
            table.resize((t_max + 1) * row, UNREACHABLE);
        }

        // The fewest machines whose capacity covers some row's load: below
        // it every row's cells are unreachable. A NaN load exceeds no
        // capacity, so the least load is NaN when any load is.
        let least = load.iter().fold(
            f64::INFINITY,
            |m, &l| if l < m || l.is_nan() { l } else { m },
        );
        let mut floor = 1;
        while floor <= z && least > self.columns[floor as usize].cap {
            floor += 1;
        }

        // Algorithm 2 bottom-up, one row per interval. `prev_a_min` is the
        // previous row's fewest sufficient machines: that row's cells below
        // it are unreachable (all of them before row 0).
        let mut prev_a_min = z + 1;
        for t in 0..=t_max {
            let mut a_min = z + 1;
            for a in 1..=z {
                let column = self.columns[a as usize];
                // Insufficient capacity is infinitely expensive.
                if load[t] > column.cap {
                    table[t * row + a as usize] = UNREACHABLE;
                    continue;
                }
                a_min = a_min.min(a);
                // At t = 0 only the current allocation is held (an `n0`
                // beyond the hardware has no column), and no move fits.
                let mut best = if t == 0 && a == n0 {
                    Cell {
                        cost: a as f64,
                        prev_nodes: a,
                    }
                } else {
                    UNREACHABLE
                };
                // Algorithm 3 for each last move `b -> a`, `b` ascending,
                // cheapest checks first: it starts in the horizon, from a
                // reachable state, for less than the best so far (a cost is
                // never NaN, and a tie keeps the smaller `b`: Algorithm 2's
                // strict `<`), and during it predicted load stays under the
                // *effective* capacity (Equation 7; the naive ablation's
                // limits are all the post-move capacity). A `b` is passed
                // over only where its cell is known to be unreachable.
                let into_a = &self.moves[a as usize * self.columns.len()..][..row];
                let relax = |bs: Range<u32>, best: &mut Cell| {
                    for b in bs {
                        let mv = &into_a[b as usize];
                        let Some(start) = t.checked_sub(mv.dur) else {
                            continue;
                        };
                        let c = table[start * row + b as usize].cost + mv.cost;
                        if c >= best.cost {
                            continue;
                        }
                        let limits = &self.limits[mv.limits..mv.limits + mv.dur];
                        let during = &load[start + 1..=t];
                        if during.iter().zip(limits).any(|(load, limit)| load > limit) {
                            continue;
                        }
                        *best = Cell {
                            cost: c,
                            prev_nodes: b,
                        };
                    }
                };
                // Below the run, moves of any length, from counts some row
                // can hold.
                relax(floor..column.lo, &mut best);
                // The run: one-interval moves from row `t - 1`, from counts
                // it can hold.
                for b in column.lo.max(prev_a_min)..=column.hi.min(z) {
                    let mv = &into_a[b as usize];
                    let c = table[(t - 1) * row + b as usize].cost + mv.cost;
                    if c >= best.cost || load[t] > self.limits[mv.limits] {
                        continue;
                    }
                    best = Cell {
                        cost: c,
                        prev_nodes: b,
                    };
                }
                // Above the run, moves of any length.
                relax(column.hi + 1..z + 1, &mut best);
                table[t * row + a as usize] = best;
            }
            prev_a_min = a_min;
        }

        for end_nodes in 1..=z {
            let c = table[t_max * row + end_nodes as usize].cost;
            if c.is_finite() {
                plan.refill(|moves| {
                    // Every move lasts at least an interval, so `t_max`
                    // bounds their number.
                    moves.reserve(t_max);
                    let (mut t, mut n) = (t_max, end_nodes);
                    while t > 0 {
                        let from = table[t * row + n as usize].prev_nodes;
                        let start = t - self.entry(from, n).dur;
                        moves.push(Move {
                            start,
                            end: t,
                            from,
                            to: n,
                        });
                        (t, n) = (start, from);
                    }
                    moves.reverse();
                });
                pstore_telemetry::tel_event!(pstore_telemetry::Planner {
                    horizon: pstore_telemetry::count(t_max),
                    n0: n0.into(),
                    feasible: true,
                    cost: Some(c),
                    end_machines: Some(end_nodes.into()),
                });
                if cfg!(debug_assertions) {
                    let violations = crate::moves::check_moves(plan.moves());
                    assert!(
                        violations.is_empty(),
                        "planner produced a structurally invalid sequence:\n{}",
                        crate::invariant::report(&violations)
                    );
                    // The effective-capacity ablation knowingly emits plans
                    // that fail the Eq 7 check — that failure is its point.
                    assert!(
                        !self.opts.effective_capacity_aware
                            || self.verify_feasible(plan, load).is_ok(),
                        "planner produced an infeasible plan: {:?}",
                        self.verify_feasible(plan, load)
                    );
                }
                return Some(c);
            }
        }
        plan.refill(|_| {});
        pstore_telemetry::tel_event!(pstore_telemetry::Planner {
            horizon: pstore_telemetry::count(t_max),
            n0: n0.into(),
            feasible: false,
            cost: None,
            end_machines: None,
        });
        None
    }

    fn entry(&self, b: u32, a: u32) -> &MoveEntry {
        &self.moves[a as usize * self.columns.len() + b as usize]
    }

    /// Checks that a move sequence keeps (effective) capacity above the
    /// given load at every interval it covers. Used by tests and the
    /// controller's debug assertions.
    pub fn verify_feasible(&self, seq: &MoveSeq, load: &[f64]) -> Result<(), String> {
        for m in seq.moves() {
            let dur = m.duration();
            for i in 1..=dur {
                let t = m.start + i;
                if t >= load.len() {
                    return Err(format!("move {m} extends past the horizon"));
                }
                let capacity = if m.is_noop() {
                    cap(m.from, self.cfg.q)
                } else {
                    eff_cap(m.from, m.to, i as f64 / dur as f64, self.cfg.q)
                };
                if load[t] > capacity {
                    return Err(format!(
                        "load {:.1} exceeds effective capacity {:.1} at t={t} during {m}",
                        load[t], capacity
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemParams;

    /// Planner with Q = 100 and fast (1-interval) moves, making expected
    /// plans easy to compute by hand.
    fn fast_planner(max: u32) -> Planner {
        Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: 0.5,
            partitions_per_node: 1,
            max_machines: max,
        })
    }

    /// Planner with the paper's relative scales: moves between small
    /// clusters take several intervals.
    fn slow_planner(max: u32) -> Planner {
        Planner::new(PlannerConfig {
            q: 100.0,
            d_intervals: 15.0,
            partitions_per_node: 1,
            max_machines: max,
        })
    }

    #[test]
    fn flat_load_keeps_current_allocation() {
        let planner = fast_planner(10);
        let load = vec![150.0; 10];
        let seq = planner.best_moves(&load, 2).unwrap();
        assert!(seq.first_reconfiguration().is_none());
        assert_eq!(seq.final_machines(), Some(2));
        planner.verify_feasible(&seq, &load).unwrap();
    }

    #[test]
    fn overprovisioned_flat_load_scales_in() {
        let planner = fast_planner(10);
        let load = vec![150.0; 10];
        let seq = planner.best_moves(&load, 6).unwrap();
        assert_eq!(seq.final_machines(), Some(2));
        let first = seq.first_reconfiguration().unwrap();
        assert!(first.is_scale_in());
        planner.verify_feasible(&seq, &load).unwrap();
    }

    #[test]
    fn rising_load_scales_out_before_the_rise() {
        let planner = slow_planner(10);
        // Load jumps from 150 to 450 at t = 12: needs 5 machines there.
        let mut load = vec![150.0; 16];
        for v in &mut load[12..] {
            *v = 450.0;
        }
        let seq = planner.best_moves(&load, 2).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        assert_eq!(seq.final_machines(), Some(5));
        let first = seq.first_reconfiguration().unwrap();
        assert!(first.is_scale_out());
        // The scale-out must complete by t = 12.
        assert!(first.end <= 12, "move {first} finishes too late");
    }

    #[test]
    fn plan_is_infeasible_when_rise_is_too_soon() {
        let planner = slow_planner(10);
        // Jump at t = 1: no time to migrate.
        let mut load = vec![150.0; 10];
        for v in &mut load[1..] {
            *v = 800.0;
        }
        assert!(planner.best_moves(&load, 2).is_none());
    }

    #[test]
    fn plan_is_infeasible_when_peak_exceeds_hardware() {
        let planner = fast_planner(4);
        let load = vec![150.0, 150.0, 900.0, 900.0];
        assert!(planner.best_moves(&load, 2).is_none());
    }

    #[test]
    fn current_overload_is_infeasible() {
        let planner = fast_planner(10);
        let load = vec![500.0, 100.0, 100.0];
        assert!(planner.best_moves(&load, 2).is_none());
    }

    #[test]
    fn scale_in_deferred_until_load_drops() {
        let planner = fast_planner(10);
        // High load for the first half, low after.
        let mut load = vec![380.0; 12];
        for v in &mut load[6..] {
            *v = 120.0;
        }
        let seq = planner.best_moves(&load, 4).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        assert_eq!(seq.final_machines(), Some(2));
        let first = seq.first_reconfiguration().unwrap();
        // Cannot scale in while load is still high.
        assert!(first.start >= 5, "scaled in too early: {first}");
    }

    #[test]
    fn ends_with_fewest_feasible_machines() {
        let planner = fast_planner(10);
        // Load returns to trough by the end of the horizon.
        let load: Vec<f64> = (0..16)
            .map(|t| {
                let x = t as f64 / 15.0 * std::f64::consts::PI;
                120.0 + 500.0 * x.sin().max(0.0)
            })
            .collect();
        let seq = planner.best_moves(&load, 2).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        // Trough needs ceil(120/100) = 2 machines.
        assert_eq!(seq.final_machines(), Some(2));
    }

    #[test]
    fn single_interval_horizon() {
        let planner = fast_planner(10);
        assert!(planner.best_moves(&[150.0], 2).is_some());
        assert!(planner.best_moves(&[250.0], 2).is_none());
    }

    #[test]
    fn plan_respects_effective_capacity_during_moves() {
        let planner = slow_planner(12);
        // Steady ramp to a high plateau.
        let load: Vec<f64> = (0..24).map(|t| 150.0 + 800.0 * (t as f64 / 23.0)).collect();
        let seq = planner.best_moves(&load, 2).unwrap();
        planner.verify_feasible(&seq, &load).unwrap();
        assert!(seq.final_machines().unwrap() >= 10);
    }

    #[test]
    fn machines_needed_rounds_up() {
        let planner = fast_planner(10);
        assert_eq!(planner.machines_needed(100.0), 1);
        assert_eq!(planner.machines_needed(101.0), 2);
        assert_eq!(planner.machines_needed(0.0), 1);
    }

    #[test]
    fn move_intervals_rounds_up_and_noop_is_zero() {
        let planner = slow_planner(10);
        assert_eq!(planner.move_intervals(3, 3), 0);
        // 2 -> 4, P=1: T = 15/2 * (1 - 2/4) = 3.75 -> 4 intervals.
        assert_eq!(planner.move_intervals(2, 4), 4);
    }

    #[test]
    fn optimality_matches_exhaustive_search_on_small_instances() {
        // With 1-interval moves the DP reduces to a shortest path over
        // machine-count trajectories; brute-force all trajectories and
        // compare total cost.
        let planner = fast_planner(4);
        let loads = [
            vec![150.0, 250.0, 350.0, 150.0],
            vec![150.0, 150.0, 380.0, 380.0, 120.0],
            vec![90.0, 90.0, 90.0],
            vec![110.0, 310.0, 110.0, 310.0],
        ];
        for load in &loads {
            let n0 = 2u32;
            let dp = planner.best_moves(load, n0);

            // Brute force: trajectories n_1..n_T with n_t in 1..=4.
            let t_max = load.len() - 1;
            let mut best: Option<f64> = None;
            let mut stack: Vec<Vec<u32>> = vec![vec![]];
            while let Some(traj) = stack.pop() {
                if traj.len() == t_max {
                    // Cost: n0 for t=0 plus per-step move costs.
                    let mut prev = n0;
                    let mut cost = n0 as f64;
                    let mut ok = load[0] <= 100.0 * n0 as f64;
                    for (t, &n) in traj.iter().enumerate() {
                        // 1-interval move prev -> n; end-state eff-cap at
                        // f=1 equals cap(n).
                        if load[t + 1] > 100.0 * n as f64 {
                            ok = false;
                            break;
                        }
                        cost += if n == prev {
                            n as f64
                        } else {
                            avg_machines_allocated(prev, n)
                        };
                        prev = n;
                    }
                    if ok {
                        best = Some(best.map_or(cost, |b: f64| b.min(cost)));
                    }
                    continue;
                }
                for n in 1..=4u32 {
                    let mut next = traj.clone();
                    next.push(n);
                    stack.push(next);
                }
            }

            match (dp, best) {
                (Some(seq), Some(opt)) => {
                    // Recompute the DP plan's cost the same way.
                    let mut cost = n0 as f64;
                    for m in seq.moves() {
                        cost += if m.is_noop() {
                            m.from as f64
                        } else {
                            avg_machines_allocated(m.from, m.to)
                        };
                    }
                    assert!(
                        (cost - opt).abs() < 1e-9,
                        "DP cost {cost} != brute-force optimum {opt} for {load:?}"
                    );
                }
                (None, None) => {}
                (dp, bf) => panic!(
                    "feasibility mismatch for {load:?}: dp={:?} bf={:?}",
                    dp.map(|s| s.moves().len()),
                    bf
                ),
            }
        }
    }

    #[test]
    fn naive_planner_ignores_effective_capacity() {
        // A big scale-out whose intermediate effective capacity is
        // insufficient: the faithful planner starts the move earlier (or
        // scales further), while the naive ablation happily schedules a
        // move whose mid-flight capacity is below the load.
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: 18.0,
            partitions_per_node: 1,
            max_machines: 14,
        };
        let faithful = Planner::new(cfg.clone());
        let naive = Planner::with_options(
            cfg,
            PlannerOptions {
                effective_capacity_aware: false,
                jit_allocation_cost: true,
            },
        );
        // A step: flat 280, then a sustained 1250 plateau from t = 10.
        // The naive planner believes a move instantly grants cap(A), so it
        // delays the big scale-out into the rise; the faithful planner
        // must finish before the plateau arrives.
        let mut load = vec![280.0; 30];
        for v in &mut load[10..] {
            *v = 1250.0;
        }
        let naive_plan = naive.best_moves(&load, 3);
        if let Some(plan) = &naive_plan {
            // Judged by the *true* effective-capacity model, the naive plan
            // must be infeasible somewhere (that is the point of Eq 7).
            assert!(
                faithful.verify_feasible(plan, &load).is_err(),
                "naive plan unexpectedly feasible: {plan}"
            );
        }
        if let Some(plan) = faithful.best_moves(&load, 3) {
            faithful.verify_feasible(&plan, &load).unwrap();
        }
    }

    #[test]
    fn jit_cost_ablation_increases_move_cost() {
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: 12.0,
            partitions_per_node: 1,
            max_machines: 14,
        };
        let jit = Planner::new(cfg.clone());
        let flat = Planner::with_options(
            cfg,
            PlannerOptions {
                effective_capacity_aware: true,
                jit_allocation_cost: false,
            },
        );
        // Both should find plans; the flat-cost planner believes moves are
        // pricier, so its internal costing differs, but its output must
        // still be feasible.
        let load: Vec<f64> = (0..24).map(|t| 150.0 + 40.0 * t as f64).collect();
        let a = jit.best_moves(&load, 2).expect("feasible");
        let b = flat.best_moves(&load, 2).expect("feasible");
        jit.verify_feasible(&a, &load).unwrap();
        flat.verify_feasible(&b, &load).unwrap();
    }

    fn run(planner: &Planner, a: u32) -> std::ops::RangeInclusive<u32> {
        let column = planner.columns[a as usize];
        column.lo..=column.hi
    }

    #[test]
    fn one_interval_runs_of_the_realtime_planner() {
        // The controller's planner: intervals of 300 s, D = 4646 s, P = 6.
        let params = SystemParams::b2w_paper();
        let planner = Planner::new(PlannerConfig {
            q: params.q,
            d_intervals: params.d.as_secs_f64() / 300.0,
            partitions_per_node: params.partitions_per_node,
            max_machines: params.max_machines,
        });
        assert_eq!(run(&planner, 1), 1..=1);
        assert_eq!(run(&planner, 2), 2..=8);
        assert_eq!(run(&planner, 9), 3..=10);
        for a in 1..=10 {
            let run = run(&planner, a);
            assert!(run.contains(&a));
            for b in 1..=10 {
                let one = planner.move_intervals(b, a) <= 1;
                assert!(!run.contains(&b) || one, "{b} -> {a} in the run");
            }
        }
    }

    #[test]
    fn slow_moves_leave_only_the_noop_in_the_run() {
        let planner = slow_planner(10);
        for a in 1..=10 {
            assert!((1..=10).all(|b| b == a || planner.move_intervals(b, a) > 1));
            assert_eq!(run(&planner, a), a..=a);
        }
    }

    #[test]
    fn verify_feasible_rejects_bad_plan() {
        let planner = fast_planner(10);
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
        assert!(planner.verify_feasible(&seq, &load).is_err());
    }
}
