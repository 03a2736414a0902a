//! Slot-based long-horizon simulator (§8.3, Figs 12 and 13).
//!
//! Running the detailed simulator for months of trace is impractical (as
//! the paper notes for its own testbed), so the long-range comparison of
//! allocation strategies uses this slot-level model: per one-minute slot it
//! tracks the allocation state machine — moves take `T(B, A)` (Eq 3),
//! machines follow the just-in-time schedule (Alg 4), effective capacity
//! follows Eq 7 — and accounts cost (Eq 1) and the percentage of time with
//! insufficient capacity (load above the `Q̂`-based effective capacity).

//!
//! ```
//! use pstore_sim::fast::{run_fast, FastSimConfig};
//! use pstore_core::controller::baselines::StaticController;
//!
//! let cfg = FastSimConfig::paper_defaults();
//! let load = vec![800.0; 1440]; // one flat day
//! let r = run_fast(&cfg, &load, &mut StaticController::new(4));
//! assert_eq!(r.avg_machines(), 4.0);
//! assert_eq!(r.insufficient_slots, 0); // 4 x 350 > 800
//! ```

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the fast simulator quantises migration progress into rounds and f32 timelines"
)]
use crate::control::{ControlLoop, MoveLedger};
use pstore_core::controller::Strategy;
use pstore_core::cost_model::{eff_cap, move_time};
use pstore_core::params::SystemParams;
use pstore_core::schedule::MigrationSchedule;
use pstore_telemetry as tel;

/// Configuration of a fast simulation.
#[derive(Debug, Clone)]
pub struct FastSimConfig {
    /// System parameters (`Q`, `Q̂`, `D`, `P`, hardware cap).
    pub params: SystemParams,
    /// Wall-clock seconds per load slot (60 for per-minute traces).
    pub slot_duration_s: f64,
    /// Controller tick cadence, in slots (5 = every five minutes).
    pub tick_every_slots: usize,
    /// Whether to record the per-slot machine/capacity timelines
    /// (needed for Fig 13; costs memory on very long runs).
    pub record_timeline: bool,
}

impl FastSimConfig {
    /// The paper's §8.3 setting: 1-minute slots, 5-minute decisions.
    pub fn paper_defaults() -> Self {
        FastSimConfig {
            params: SystemParams::b2w_paper(),
            slot_duration_s: 60.0,
            tick_every_slots: 5,
            record_timeline: true,
        }
    }
}

/// Result of a fast simulation.
#[derive(Debug, Clone)]
pub struct FastSimResult {
    /// Strategy name.
    pub strategy: String,
    /// Total cost in machine-slots (Equation 1).
    pub cost_machine_slots: f64,
    /// Slots in which load exceeded the effective maximum capacity.
    pub insufficient_slots: u64,
    /// Total slots simulated.
    pub total_slots: u64,
    /// Completed reconfigurations.
    pub reconfigurations: u64,
    /// Per-slot machines allocated (empty unless `record_timeline`).
    pub machines_timeline: Vec<f32>,
    /// Per-slot effective capacity at `Q̂` (empty unless `record_timeline`).
    pub capacity_timeline: Vec<f32>,
}

impl FastSimResult {
    /// Percentage of slots with insufficient capacity.
    pub fn pct_insufficient(&self) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        100.0 * self.insufficient_slots as f64 / self.total_slots as f64
    }

    /// Average machines allocated.
    pub fn avg_machines(&self) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        self.cost_machine_slots / self.total_slots as f64
    }
}

/// An in-progress move in the slot model.
struct MoveState {
    schedule: MigrationSchedule,
    /// Total duration in slots.
    duration_slots: f64,
    /// Slots elapsed so far.
    elapsed: f64,
    /// Telemetry span covering the move (0 when telemetry is off).
    span_id: u64,
    /// Endpoints, start time and requesting decision.
    ledger: MoveLedger,
}

/// Runs the slot-based simulation of a strategy over a per-slot load curve
/// (load in the same units as `Q`, e.g. txn/s).
pub fn run_fast(cfg: &FastSimConfig, load: &[f64], strategy: &mut dyn Strategy) -> FastSimResult {
    cfg.params.validate();
    assert!(cfg.tick_every_slots >= 1, "tick cadence must be >= 1 slot");
    assert!(cfg.slot_duration_s > 0.0, "slot duration must be positive");
    let p = cfg.params.partitions_per_node;
    let d_s = cfg.params.d.as_secs_f64();

    // Root span for the whole run.
    let run_span = if tel::enabled() {
        tel::set_time(0.0);
        tel::begin_span(tel::SpanName::FastSim)
    } else {
        0
    };
    let tick_s = cfg.slot_duration_s * cfg.tick_every_slots as f64;
    let (mut control, mut machines) = ControlLoop::start(&cfg.params, tick_s, strategy, false);
    let mut in_move: Option<MoveState> = None;
    let mut cost = 0.0f64;
    let mut insufficient = 0u64;
    let mut reconfigs = 0u64;
    let mut machines_timeline = Vec::new();
    let mut capacity_timeline = Vec::new();

    for (slot, &demand) in load.iter().enumerate() {
        #[allow(clippy::cast_precision_loss, reason = "slot counts are far below 2^53")]
        let now = slot as f64 * cfg.slot_duration_s;
        if tel::enabled() {
            tel::set_time(now);
        }
        // Controller decision at tick boundaries.
        if slot % cfg.tick_every_slots == 0 {
            let window =
                &load[slot.saturating_sub(cfg.tick_every_slots)..=slot.min(load.len() - 1)];
            let measured = window.iter().sum::<f64>() / window.len() as f64;
            if let Some(req) = control.step(strategy, measured, machines, in_move.is_some()) {
                let t_s = move_time(machines, req.target, p, d_s) / req.rate_multiplier.max(0.1);
                let span_id = if tel::enabled() {
                    tel::begin_span_with(tel::SpanBegin::reconfig(
                        0,
                        machines.into(),
                        req.target.into(),
                    ))
                } else {
                    0
                };
                in_move = Some(MoveState {
                    schedule: MigrationSchedule::plan(machines, req.target),
                    duration_slots: (t_s / cfg.slot_duration_s).max(1e-9),
                    elapsed: 0.0,
                    span_id,
                    ledger: MoveLedger::open(&req, machines, now),
                });
            }
        }

        // Advance the move and derive this slot's allocation and capacity.
        let (alloc, capacity) = match &mut in_move {
            Some(mv) => {
                let f = (mv.elapsed / mv.duration_slots).clamp(0.0, 1.0);
                let total_rounds = mv.schedule.total_rounds().max(1);
                let round = ((f * total_rounds as f64) as usize).min(total_rounds - 1);
                let alloc = mv.schedule.machines_in_round(round) as f64;
                let capacity = eff_cap(mv.ledger.from, mv.ledger.to, f, cfg.params.q_hat);
                mv.elapsed += 1.0;
                if mv.elapsed >= mv.duration_slots {
                    machines = mv.ledger.to;
                    reconfigs += 1;
                    tel::end_span(tel::SpanName::Reconfig, mv.span_id);
                    mv.ledger.emit_prov_reconfig(now);
                    in_move = None;
                }
                (alloc, capacity)
            }
            None => (machines as f64, machines as f64 * cfg.params.q_hat),
        };

        cost += alloc;
        if demand > capacity {
            insufficient += 1;
        }
        if cfg.record_timeline {
            machines_timeline.push(alloc as f32);
            capacity_timeline.push(capacity as f32);
        }
    }

    // A move still in flight when the trace ends would leave a dangling
    // span (TEL-02); close it explicitly, marked truncated.
    if let Some(mv) = &in_move {
        tel::end_span_truncated(tel::SpanName::Reconfig, mv.span_id);
    }
    tel::end_span(tel::SpanName::FastSim, run_span);

    FastSimResult {
        strategy: strategy.name().to_string(),
        cost_machine_slots: cost,
        insufficient_slots: insufficient,
        total_slots: load.len() as u64,
        reconfigurations: reconfigs,
        machines_timeline,
        capacity_timeline,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact rational arithmetic")]
    use super::*;
    use pstore_core::controller::baselines::{SimpleController, StaticController};
    use pstore_core::controller::forecaster::OracleForecaster;
    use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
    use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
    use pstore_core::controller::{Action, Observation, ReconfigRequest};
    use pstore_core::planner::{Planner, PlannerConfig};
    use std::time::Duration;

    fn cfg() -> FastSimConfig {
        FastSimConfig {
            params: SystemParams {
                q: 285.0,
                q_hat: 350.0,
                d: Duration::from_secs(4646),
                partitions_per_node: 6,
                interval: Duration::from_secs(300),
                max_machines: 10,
            },
            slot_duration_s: 60.0,
            tick_every_slots: 5,
            record_timeline: true,
        }
    }

    /// A smooth daily wave between roughly 300 and 2800 txn/s.
    fn daily_wave(days: usize) -> Vec<f64> {
        (0..days * 1440)
            .map(|m| {
                let phase = 2.0 * std::f64::consts::PI * (m % 1440) as f64 / 1440.0;
                1550.0 - 1250.0 * phase.cos()
            })
            .collect()
    }

    fn oracle_pstore(
        load: &[f64],
        c: &FastSimConfig,
        q: f64,
    ) -> PStoreController<OracleForecaster> {
        let per_tick: Vec<f64> = load
            .chunks(c.tick_every_slots)
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .collect();
        let planner = Planner::new(PlannerConfig {
            q,
            d_intervals: c.params.d.as_secs_f64() / (c.slot_duration_s * c.tick_every_slots as f64),
            partitions_per_node: c.params.partitions_per_node,
            max_machines: c.params.max_machines,
        });
        PStoreController::new(
            planner,
            OracleForecaster::new(per_tick),
            PStoreConfig {
                horizon: 48,
                prediction_inflation: 1.15,
                scale_in_confirmations: 3,
                emergency_rate_multiplier: 1.0,
                initial_machines: 2,
            },
        )
    }

    #[test]
    fn static_ten_never_runs_short_but_costs_most() {
        let c = cfg();
        let load = daily_wave(3);
        let r10 = run_fast(&c, &load, &mut StaticController::new(10));
        assert_eq!(r10.insufficient_slots, 0);
        assert_eq!(r10.avg_machines(), 10.0);
        let r4 = run_fast(&c, &load, &mut StaticController::new(4));
        // Peak ~2800 needs 8 machines at Q̂: static 4 runs short at peaks.
        assert!(r4.insufficient_slots > 0);
        assert!(r4.cost_machine_slots < r10.cost_machine_slots);
    }

    #[test]
    fn pstore_oracle_tracks_the_wave_cheaply_and_safely() {
        let c = cfg();
        let load = daily_wave(4);
        let mut strat = oracle_pstore(&load, &c, 285.0);
        let r = run_fast(&c, &load, &mut strat);
        // Not exactly zero in general: decisions are at 5-minute
        // granularity (the paper makes the same caveat for "P-Store
        // Oracle" in Fig 12), but shortfalls must be negligible.
        assert!(
            r.insufficient_slots <= 5,
            "oracle P-Store ran short for {} slots",
            r.insufficient_slots
        );
        // Must be much cheaper than peak provisioning.
        assert!(
            r.avg_machines() < 8.0,
            "avg machines {} not cheaper than peak",
            r.avg_machines()
        );
        assert!(
            r.reconfigurations >= 4,
            "too few moves: {}",
            r.reconfigurations
        );
        // And it must actually scale up and down across the day.
        let max = r.machines_timeline.iter().copied().fold(0.0f32, f32::max);
        let min = r
            .machines_timeline
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert!(max >= 9.0, "never reached peak allocation: {max}");
        assert!(min <= 3.0, "never scaled down: {min}");
    }

    #[test]
    fn reactive_runs_short_during_rises() {
        let c = cfg();
        let load = daily_wave(4);
        let mut reactive = ReactiveController::new(ReactiveConfig {
            q: 285.0,
            q_hat: 350.0,
            trigger_fraction: 0.95,
            headroom: 0.10,
            smoothing_window: 3,
            scale_in_patience: 6,
            max_machines: 10,
            initial_machines: 2,
        });
        let r = run_fast(&c, &load, &mut reactive);
        let mut p = oracle_pstore(&load, &c, 285.0);
        let rp = run_fast(&c, &load, &mut p);
        // The reactive policy reconfigures only once capacity is already
        // tight, so it accrues strictly more insufficient slots.
        assert!(
            r.insufficient_slots > rp.insufficient_slots,
            "reactive {} vs p-store {}",
            r.insufficient_slots,
            rp.insufficient_slots
        );
    }

    #[test]
    fn simple_schedule_works_until_the_pattern_breaks() {
        let c = cfg();
        let mut load = daily_wave(4);
        // Day 3 brings an out-of-pattern surge (think Black Friday).
        for v in &mut load[2 * 1440..3 * 1440] {
            *v *= 1.8;
        }
        // Scale out at 07:00, in at 23:00; 9 machines by day, 2 by night.
        let mut simple = SimpleController::new(288, 84, 276, 9, 2);
        let r = run_fast(&c, &load, &mut simple);
        let normal_days: u64 = r.machines_timeline[..2 * 1440]
            .iter()
            .zip(&load[..2 * 1440])
            .zip(&r.capacity_timeline[..2 * 1440])
            .filter(|((_, l), cap)| **l > **cap as f64)
            .count() as u64;
        let surge_day: u64 = load[2 * 1440..3 * 1440]
            .iter()
            .zip(&r.capacity_timeline[2 * 1440..3 * 1440])
            .filter(|(l, cap)| **l > **cap as f64)
            .count() as u64;
        assert!(
            surge_day > normal_days,
            "surge day ({surge_day}) should break the fixed schedule (normal {normal_days})"
        );
    }

    #[test]
    fn lower_q_costs_more_but_runs_short_less() {
        // The Fig 12 trade-off: smaller Q = bigger buffer = higher cost,
        // fewer capacity shortfalls.
        let c = cfg();
        let mut load = daily_wave(4);
        // Add noise spikes so a tight Q actually gets caught out.
        for (i, v) in load.iter_mut().enumerate() {
            if i % 97 == 0 {
                *v *= 1.25;
            }
        }
        let run_q = |q: f64| {
            let mut s = oracle_pstore(&load, &c, q);
            run_fast(&c, &load, &mut s)
        };
        let tight = run_q(340.0); // minimal buffer below Q̂
        let loose = run_q(200.0); // generous buffer
        assert!(
            loose.cost_machine_slots > tight.cost_machine_slots,
            "loose {} <= tight {}",
            loose.cost_machine_slots,
            tight.cost_machine_slots
        );
        assert!(
            loose.insufficient_slots <= tight.insufficient_slots,
            "loose {} > tight {}",
            loose.insufficient_slots,
            tight.insufficient_slots
        );
    }

    #[test]
    fn cost_accounts_schedule_allocation_during_moves() {
        // A flat load and a single forced move: cost must lie between
        // "never moved" and "held the larger cluster the whole time".
        let c = cfg();
        let load = vec![500.0; 600];
        struct OneMove(bool);
        impl Strategy for OneMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.0 && !obs.reconfiguring {
                    self.0 = true;
                    return Action::Reconfigure(ReconfigRequest::planned(8, 0));
                }
                Action::None
            }
            fn name(&self) -> &str {
                "one-move"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }
        let r = run_fast(&c, &load, &mut OneMove(false));
        assert_eq!(r.reconfigurations, 1);
        let move_slots = (move_time(2, 8, 6, 4646.0) / 60.0).ceil();
        let min_cost = 2.0 * move_slots + 8.0 * (600.0 - move_slots);
        assert!(r.cost_machine_slots > 0.9 * min_cost);
        assert!(r.cost_machine_slots < 8.0 * 600.0);
        // Final allocation is 8.
        assert_eq!(*r.machines_timeline.last().unwrap(), 8.0);
    }

    #[test]
    fn emergency_rate_shortens_the_move() {
        let c = cfg();
        let load = vec![500.0; 400];
        struct Forced(f64, bool);
        impl Strategy for Forced {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.1 && !obs.reconfiguring {
                    self.1 = true;
                    return Action::Reconfigure(ReconfigRequest::emergency(8, self.0, 0));
                }
                Action::None
            }
            fn name(&self) -> &str {
                "forced"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }
        let slow = run_fast(&c, &load, &mut Forced(1.0, false));
        let fast = run_fast(&c, &load, &mut Forced(8.0, false));
        // Faster migration reaches full capacity sooner = fewer low-capacity
        // slots = lower time-to-capacity; compare when capacity first hits 8
        // machines worth.
        let first_full = |r: &FastSimResult| {
            r.capacity_timeline
                .iter()
                .position(|&cp| cp >= (8.0 * 350.0 - 1.0) as f32)
                .unwrap_or(usize::MAX)
        };
        assert!(first_full(&fast) < first_full(&slow));
    }
}
