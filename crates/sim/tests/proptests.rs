//! Property tests for the simulators: no panics and sane invariants on
//! arbitrary load curves and strategy settings.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "tests assert exact values and cast tiny bounded quantities"
)]

use proptest::prelude::*;
use pstore_core::controller::baselines::{SimpleController, StaticController};
use pstore_core::controller::forecaster::OracleForecaster;
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::params::SystemParams;
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_sim::fast::{run_fast, FastSimConfig};
use std::time::Duration;

fn params(max_machines: u32) -> SystemParams {
    SystemParams {
        q: 285.0,
        q_hat: 350.0,
        d: Duration::from_secs(4646),
        partitions_per_node: 6,
        interval: Duration::from_secs(300),
        max_machines,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fast simulator holds its invariants for any load curve under a
    /// static policy: exact cost accounting, allocation never outside
    /// [1, max], shortfall counts bounded by the slot count.
    #[test]
    fn fast_sim_invariants_static(
        load in prop::collection::vec(0.0f64..6_000.0, 10..500),
        machines in 1u32..=10,
    ) {
        let cfg = FastSimConfig {
            params: params(10),
            slot_duration_s: 60.0,
            tick_every_slots: 5,
            record_timeline: true,
        };
        let r = run_fast(&cfg, &load, &mut StaticController::new(machines));
        prop_assert_eq!(r.total_slots, load.len() as u64);
        prop_assert_eq!(r.cost_machine_slots, machines as f64 * load.len() as f64);
        prop_assert!(r.insufficient_slots <= r.total_slots);
        prop_assert_eq!(r.machines_timeline.len(), load.len());
        prop_assert!(r
            .machines_timeline
            .iter()
            .all(|&m| m == machines as f32));
        // Shortfall matches a direct count.
        let direct = load
            .iter()
            .filter(|&&l| l > machines as f64 * 350.0)
            .count() as u64;
        prop_assert_eq!(r.insufficient_slots, direct);
    }

    /// Under any oracle-driven P-Store run, allocation stays within the
    /// hardware bounds and capacity timelines are consistent with the
    /// machine counts.
    #[test]
    fn fast_sim_invariants_pstore(
        seedish in 0u64..1_000,
        peak in 500.0f64..3_400.0,
    ) {
        // A smooth two-day wave whose amplitude is randomised.
        let load: Vec<f64> = (0..2 * 1440)
            .map(|m| {
                let phase = 2.0 * std::f64::consts::PI * (m % 1440) as f64 / 1440.0;
                let base = 0.15 * peak + (0.85 * peak) * (1.0 - phase.cos()) / 2.0;
                base + (seedish % 97) as f64
            })
            .collect();
        let cfg = FastSimConfig {
            params: params(10),
            slot_duration_s: 60.0,
            tick_every_slots: 5,
            record_timeline: true,
        };
        let planner = Planner::new(PlannerConfig {
            q: 285.0,
            d_intervals: 4646.0 / 300.0,
            partitions_per_node: 6,
            max_machines: 10,
        });
        let per_tick: Vec<f64> = load
            .chunks(5)
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .collect();
        let mut strat = PStoreController::new(
            planner,
            OracleForecaster::new(per_tick),
            PStoreConfig {
                horizon: 48,
                prediction_inflation: 1.1,
                scale_in_confirmations: 3,
                emergency_rate_multiplier: 1.0,
                initial_machines: ((load[0] * 1.2 / 285.0).ceil() as u32).clamp(1, 10),
            },
        );
        let r = run_fast(&cfg, &load, &mut strat);
        prop_assert!(r
            .machines_timeline
            .iter()
            .all(|&m| (1.0..=10.0).contains(&m)));
        // Capacity never exceeds what the allocated machines could provide.
        for (m, c) in r.machines_timeline.iter().zip(&r.capacity_timeline) {
            prop_assert!(*c <= *m * 350.0 + 1.0, "capacity {c} with {m} machines");
        }
        // The wave is servable; the oracle run must be mostly sufficient.
        prop_assert!(
            r.pct_insufficient() < 5.0,
            "{}% short on a servable wave",
            r.pct_insufficient()
        );
    }

    /// The Simple schedule's allocation follows its own calendar exactly
    /// when moves are instantaneous-ish (flat low load, tiny migrations).
    #[test]
    fn fast_sim_simple_schedule_allocation(day_machines in 2u32..=10) {
        let cfg = FastSimConfig {
            params: SystemParams {
                d: Duration::from_secs(60), // near-instant moves
                ..params(10)
            },
            slot_duration_s: 60.0,
            tick_every_slots: 5,
            record_timeline: true,
        };
        let load = vec![100.0; 2 * 1440];
        let mut strat = SimpleController::new(288, 8 * 12, 23 * 12, day_machines, 2);
        let r = run_fast(&cfg, &load, &mut strat);
        // Mid-day slots sit at the day allocation; deep-night at 2.
        let noon = 12 * 60;
        prop_assert_eq!(r.machines_timeline[noon] as u32, day_machines);
        let night = 2 * 60;
        prop_assert_eq!(r.machines_timeline[night] as u32, 2);
    }
}
