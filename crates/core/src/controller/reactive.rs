//! E-Store-style reactive provisioning (§2, §8.2's "Reactive" baseline).
//!
//! The reactive controller knows nothing about the future: it watches the
//! measured load and triggers a reconfiguration only once the system is
//! already near (or past) its maximum throughput — which is precisely why
//! reactive systems reconfigure at peak capacity and suffer latency spikes
//! at the start of every load rise (Fig 9c). Scale-ins are taken only after
//! the load has stayed low for a patience window, mirroring E-Store's
//! conservative down-scaling.

use super::provenance::{ProvScorer, SCORED_HORIZONS};
use super::{Action, Observation, ReconfigReason, ReconfigRequest, Strategy};
use crate::cost_model::machines_for_load;
use std::collections::VecDeque;

/// Tuning knobs of the reactive baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveConfig {
    /// Target per-machine throughput `Q` used to size the new cluster.
    pub q: f64,
    /// Maximum per-machine throughput `Q̂`; the scale-out trigger fires at
    /// `trigger_fraction * Q̂ * machines`.
    pub q_hat: f64,
    /// Fraction of `Q̂ * machines` at which scale-out triggers (close to 1:
    /// the system reacts only when performance already degrades).
    pub trigger_fraction: f64,
    /// Extra headroom when sizing the new cluster: target machines =
    /// `ceil(load * (1 + headroom) / Q)`.
    pub headroom: f64,
    /// Monitoring intervals of smoothing applied to the measured load.
    pub smoothing_window: usize,
    /// Consecutive low-load intervals required before scaling in.
    pub scale_in_patience: usize,
    /// Hardware cap on cluster size.
    pub max_machines: u32,
    /// Initial cluster size.
    pub initial_machines: u32,
}

impl Default for ReactiveConfig {
    fn default() -> Self {
        ReactiveConfig {
            q: 285.0,
            q_hat: 350.0,
            trigger_fraction: 0.95,
            headroom: 0.10,
            smoothing_window: 3,
            scale_in_patience: 6,
            max_machines: 10,
            initial_machines: 2,
        }
    }
}

/// The reactive controller.
pub struct ReactiveController {
    cfg: ReactiveConfig,
    recent: VecDeque<f64>,
    low_streak: usize,
    prov: ProvScorer,
}

impl ReactiveController {
    /// Creates a reactive controller.
    ///
    /// # Panics
    /// Panics on inconsistent configuration.
    pub fn new(cfg: ReactiveConfig) -> Self {
        assert!(cfg.q > 0.0 && cfg.q_hat >= cfg.q, "invalid Q/Q̂");
        assert!(
            cfg.trigger_fraction > 0.0 && cfg.trigger_fraction <= 1.0,
            "trigger fraction must be in (0, 1]"
        );
        assert!(cfg.smoothing_window >= 1, "smoothing window must be >= 1");
        assert!(cfg.initial_machines >= 1, "need at least one machine");
        ReactiveController {
            cfg,
            recent: VecDeque::new(),
            low_streak: 0,
            prov: ProvScorer::new(),
        }
    }

    fn smoothed(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().sum::<f64>() / self.recent.len() as f64
    }

    fn sized_target(&self, load: f64) -> u32 {
        machines_for_load(load * (1.0 + self.cfg.headroom), self.cfg.q)
            .clamp(1, self.cfg.max_machines)
    }
}

impl Strategy for ReactiveController {
    fn tick(&mut self, obs: &Observation) -> Action {
        self.prov.score("persistence", obs);
        self.recent.push_back(obs.load);
        while self.recent.len() > self.cfg.smoothing_window {
            self.recent.pop_front();
        }
        if obs.reconfiguring {
            // Can't start another move; keep watching.
            self.low_streak = 0;
            return Action::None;
        }
        let load = self.smoothed();
        // A reactive policy's implicit forecast is persistence: "demand
        // stays where it is". Scoring it makes the predictive-vs-reactive
        // forecast-accuracy gap measurable from the same trace.
        let persistence = vec![load; SCORED_HORIZONS[SCORED_HORIZONS.len() - 1]];
        self.prov.predict(obs.interval, &persistence);

        // Scale out: the system is already pushing against its maximum
        // throughput.
        let high_mark = self.cfg.trigger_fraction * self.cfg.q_hat * obs.machines as f64;
        if load > high_mark {
            self.low_streak = 0;
            let target = self.sized_target(load).max(obs.machines);
            if target > obs.machines {
                pstore_telemetry::tel_event!(pstore_telemetry::ScaleDecision {
                    interval: pstore_telemetry::count(obs.interval),
                    machines: obs.machines.into(),
                    target: target.into(),
                    rate: 1.0,
                    reason: "reactive-out".into(),
                });
                let decision_id =
                    self.prov
                        .decision(obs, target, "reactive-out", high_mark, load, 0.0, 0, 1.0);
                return Action::Reconfigure(ReconfigRequest {
                    target,
                    rate_multiplier: 1.0,
                    reason: ReconfigReason::Policy,
                    decision_id,
                });
            }
            return Action::None;
        }

        // Scale in: sustained low load such that a smaller cluster would
        // still have comfortable headroom.
        let shrunk = self.sized_target(load);
        if shrunk < obs.machines {
            self.low_streak += 1;
            if self.low_streak >= self.cfg.scale_in_patience {
                self.low_streak = 0;
                pstore_telemetry::tel_event!(pstore_telemetry::ScaleDecision {
                    interval: pstore_telemetry::count(obs.interval),
                    machines: obs.machines.into(),
                    target: shrunk.into(),
                    rate: 1.0,
                    reason: "reactive-in".into(),
                });
                let decision_id =
                    self.prov
                        .decision(obs, shrunk, "reactive-in", high_mark, load, 0.0, 0, 1.0);
                return Action::Reconfigure(ReconfigRequest {
                    target: shrunk,
                    rate_multiplier: 1.0,
                    reason: ReconfigReason::Policy,
                    decision_id,
                });
            }
        } else {
            self.low_streak = 0;
        }
        Action::None
    }

    fn name(&self) -> &str {
        "Reactive"
    }

    fn initial_machines(&self) -> u32 {
        self.cfg.initial_machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReactiveConfig {
        ReactiveConfig {
            q: 100.0,
            q_hat: 120.0,
            trigger_fraction: 0.9,
            headroom: 0.10,
            smoothing_window: 1,
            scale_in_patience: 3,
            max_machines: 10,
            initial_machines: 2,
        }
    }

    fn obs(load: f64, machines: u32) -> Observation {
        Observation {
            interval: 0,
            load,
            machines,
            reconfiguring: false,
        }
    }

    #[test]
    fn no_action_at_moderate_load() {
        let mut c = ReactiveController::new(cfg());
        assert_eq!(c.tick(&obs(150.0, 2)), Action::None);
    }

    #[test]
    fn scales_out_only_past_the_high_mark() {
        let mut c = ReactiveController::new(cfg());
        // High mark at 2 machines: 0.9 * 120 * 2 = 216.
        assert_eq!(c.tick(&obs(210.0, 2)), Action::None);
        let Action::Reconfigure(r) = c.tick(&obs(230.0, 2)) else {
            panic!("expected scale-out");
        };
        // Target: ceil(230 * 1.1 / 100) = 3.
        assert_eq!(r.target, 3);
        assert_eq!(r.reason, ReconfigReason::Policy);
    }

    #[test]
    fn scale_in_needs_patience() {
        let mut c = ReactiveController::new(cfg());
        assert_eq!(c.tick(&obs(80.0, 4)), Action::None);
        assert_eq!(c.tick(&obs(80.0, 4)), Action::None);
        let Action::Reconfigure(r) = c.tick(&obs(80.0, 4)) else {
            panic!("expected scale-in after patience window");
        };
        assert_eq!(r.target, 1); // ceil(88/100) = 1
    }

    #[test]
    fn load_blip_resets_scale_in_patience() {
        let mut c = ReactiveController::new(cfg());
        assert_eq!(c.tick(&obs(80.0, 4)), Action::None);
        assert_eq!(c.tick(&obs(390.0, 4)), Action::None); // resets streak
        assert_eq!(c.tick(&obs(80.0, 4)), Action::None);
        assert_eq!(c.tick(&obs(80.0, 4)), Action::None);
        // Third consecutive low tick fires.
        assert!(matches!(c.tick(&obs(80.0, 4)), Action::Reconfigure(_)));
    }

    #[test]
    fn target_clamped_to_hardware() {
        let mut c = ReactiveController::new(cfg());
        let Action::Reconfigure(r) = c.tick(&obs(5_000.0, 2)) else {
            panic!("expected scale-out");
        };
        assert_eq!(r.target, 10);
    }

    #[test]
    fn holds_while_reconfiguring() {
        let mut c = ReactiveController::new(cfg());
        let a = c.tick(&Observation {
            interval: 0,
            load: 500.0,
            machines: 2,
            reconfiguring: true,
        });
        assert_eq!(a, Action::None);
    }

    #[test]
    fn smoothing_damps_single_tick_spikes() {
        let mut c = ReactiveController::new(ReactiveConfig {
            smoothing_window: 4,
            ..cfg()
        });
        c.tick(&obs(100.0, 2));
        c.tick(&obs(100.0, 2));
        c.tick(&obs(100.0, 2));
        // One 400 tick smooths to 175 < 216 high mark: no action.
        assert_eq!(c.tick(&obs(400.0, 2)), Action::None);
    }
}
