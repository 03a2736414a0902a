//! The two simulators drive one control loop: for the same scripted
//! strategy they must show it the same observations up to the first move
//! and accept the same request at the same tick.

#![allow(clippy::float_cmp, reason = "machine counts are small exact integers")]

use pstore::core::controller::{Action, Observation, ReconfigRequest, Strategy};
use pstore::core::params::SystemParams;
use pstore::core::schedule::MigrationSchedule;
use pstore::sim::detailed::{run_detailed, DetailedSimConfig};
use pstore::sim::fast::{run_fast, FastSimConfig};
use std::time::Duration;

/// Asks for its current size at tick 1 (a no-op the loop must drop), for
/// far more than the hardware at tick 3 (accepted, clamped), and for yet
/// another size at every tick after (dropped while the move runs) —
/// recording what it was shown.
#[derive(Default)]
struct Script {
    seen: Vec<(usize, u32, bool)>,
}

impl Strategy for Script {
    fn tick(&mut self, obs: &Observation) -> Action {
        self.seen
            .push((obs.interval, obs.machines, obs.reconfiguring));
        let target = match obs.interval {
            1 => obs.machines,
            3 => 1_000,
            i if i > 3 => 5,
            _ => return Action::None,
        };
        Action::Reconfigure(ReconfigRequest::planned(target, 0))
    }
    fn name(&self) -> &str {
        "script"
    }
    fn initial_machines(&self) -> u32 {
        2
    }
}

#[test]
fn both_simulators_present_the_same_ticks_and_accept_the_same_request() {
    const TICK_S: usize = 30;
    const TICKS: usize = 8;
    let params = SystemParams {
        d: Duration::from_secs(7_200),
        interval: Duration::from_secs(TICK_S as u64),
        max_machines: 6,
        ..SystemParams::b2w_paper()
    };

    let mut detailed_script = Script::default();
    let mut cfg = DetailedSimConfig::paper_defaults(vec![60.0; TICKS * TICK_S], 7);
    cfg.params = params.clone();
    cfg.workload.num_skus = 500;
    cfg.workload.initial_carts = 100;
    cfg.num_slots = 360;
    cfg.warmup_txns = 2_000;
    let detailed = run_detailed(&cfg, &mut detailed_script);

    let mut fast_script = Script::default();
    let fast_cfg = FastSimConfig {
        params,
        slot_duration_s: TICK_S as f64,
        tick_every_slots: 1,
        ..FastSimConfig::paper_defaults()
    };
    let fast = run_fast(&fast_cfg, &[60.0; TICKS], &mut fast_script);

    // Same observations, tick for tick: nothing moves before tick 3, the
    // clamped request is accepted there, and the move (2 -> 6 machines
    // outlasts the run at this D) is still running at every later tick.
    let expected: Vec<(usize, u32, bool)> = (0..TICKS).map(|i| (i, 2, i > 3)).collect();
    assert_eq!(detailed_script.seen, expected);
    assert_eq!(fast_script.seen, expected);

    // And it is the same move in both: towards the clamped target, so the
    // slot after the accepted tick is charged round 0 of the same schedule.
    let round0 = f64::from(MigrationSchedule::plan(2, 6).machines_in_round(0));
    assert!(round0 > 2.0, "the schedule allocates ahead of the move");
    let after = 3 * TICK_S + 1;
    assert_eq!(detailed.seconds[after].machines, round0);
    assert_eq!(f64::from(fast.machines_timeline[3]), round0);
    assert!(detailed.reconfig_spans.is_empty() && fast.reconfigurations == 0);
}
