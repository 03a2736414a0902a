//! Manual provisioning overrides (§1's composite strategy).
//!
//! The paper envisions elastic provisioning as three complementary
//! techniques: *predictive* (this system), *reactive* (the emergency
//! fallback), and *manual* — operators pre-provisioning for rare but
//! *known* events such as planned promotions, where no statistical model
//! can see the spike coming but a human can. [`ManualOverride`] wraps any
//! [`Strategy`] with an operator calendar of minimum-capacity windows: the
//! inner policy runs as usual, but during a window the cluster is floored
//! at the reserved size (scale-ins below it are clipped, and a scale-out
//! is issued ahead of the window so capacity is ready when it opens).

//!
//! ```
//! use pstore_core::controller::manual::{ManualOverride, Reservation};
//! use pstore_core::controller::baselines::StaticController;
//! use pstore_core::controller::Strategy;
//!
//! let promo = Reservation {
//!     start_interval: 100, end_interval: 150,
//!     min_machines: 9, lead_intervals: 5,
//! };
//! let composite = ManualOverride::new(StaticController::new(3), vec![promo]);
//! assert_eq!(composite.active_floor(120), Some(9));
//! assert_eq!(composite.active_floor(0), None);
//! ```

use super::{Action, Observation, ReconfigReason, ReconfigRequest, Strategy};

/// One operator reservation: hold at least `min_machines` during
/// `[start_interval, end_interval)`, and begin scaling out `lead_intervals`
/// before it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// First monitoring interval of the window (inclusive).
    pub start_interval: usize,
    /// End of the window (exclusive).
    pub end_interval: usize,
    /// Minimum machines during the window.
    pub min_machines: u32,
    /// Intervals of lead time to get the capacity in place (cover the
    /// migration duration).
    pub lead_intervals: usize,
}

impl Reservation {
    fn is_armed(&self, interval: usize) -> bool {
        interval + self.lead_intervals >= self.start_interval && interval < self.end_interval
    }
}

/// A strategy wrapper enforcing operator reservations.
pub struct ManualOverride<S: Strategy> {
    inner: S,
    reservations: Vec<Reservation>,
    label: String,
}

impl<S: Strategy> ManualOverride<S> {
    /// Wraps `inner` with a reservation calendar.
    ///
    /// # Panics
    /// Panics on malformed reservations (empty windows or zero machines).
    pub fn new(inner: S, reservations: Vec<Reservation>) -> Self {
        for r in &reservations {
            assert!(
                r.start_interval < r.end_interval,
                "reservation window must be non-empty"
            );
            assert!(
                r.min_machines >= 1,
                "reservation needs at least one machine"
            );
        }
        let label = format!("{} + manual", inner.name());
        ManualOverride {
            inner,
            reservations,
            label,
        }
    }

    /// The floor in force (or being armed) at `interval`, if any.
    pub fn active_floor(&self, interval: usize) -> Option<u32> {
        self.reservations
            .iter()
            .filter(|r| r.is_armed(interval))
            .map(|r| r.min_machines)
            .max()
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Strategy> Strategy for ManualOverride<S> {
    fn tick(&mut self, obs: &Observation) -> Action {
        let inner_action = self.inner.tick(obs);
        let Some(floor) = self.active_floor(obs.interval) else {
            return inner_action;
        };
        match inner_action {
            // Clip any move that would dip below the floor.
            Action::Reconfigure(req) if req.target < floor => {
                if obs.machines >= floor || obs.reconfiguring {
                    Action::None
                } else {
                    Action::Reconfigure(ReconfigRequest {
                        target: floor,
                        rate_multiplier: req.rate_multiplier,
                        reason: ReconfigReason::Policy,
                        decision_id: 0,
                    })
                }
            }
            Action::Reconfigure(req) => Action::Reconfigure(req),
            Action::None => {
                // Inner is content; make sure the reservation is met.
                if obs.machines < floor && !obs.reconfiguring {
                    Action::Reconfigure(ReconfigRequest {
                        target: floor,
                        rate_multiplier: 1.0,
                        reason: ReconfigReason::Policy,
                        decision_id: 0,
                    })
                } else {
                    Action::None
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn initial_machines(&self) -> u32 {
        let at_start = self.active_floor(0).unwrap_or(1);
        self.inner.initial_machines().max(at_start)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact rational arithmetic")]
    use super::*;
    use crate::controller::baselines::StaticController;

    fn obs(interval: usize, machines: u32, reconfiguring: bool) -> Observation {
        Observation {
            interval,
            load: 100.0,
            machines,
            reconfiguring,
        }
    }

    fn promo() -> Reservation {
        Reservation {
            start_interval: 10,
            end_interval: 20,
            min_machines: 8,
            lead_intervals: 3,
        }
    }

    #[test]
    fn floor_is_enforced_with_lead_time() {
        let mut c = ManualOverride::new(StaticController::new(2), vec![promo()]);
        // Before the lead window: inner (static) does nothing, no floor.
        assert_eq!(c.tick(&obs(5, 2, false)), Action::None);
        // Lead window opens at interval 7 (= 10 - 3): scale to 8.
        let Action::Reconfigure(r) = c.tick(&obs(7, 2, false)) else {
            panic!("expected a reservation scale-out");
        };
        assert_eq!(r.target, 8);
        assert_eq!(r.reason, ReconfigReason::Policy);
        // During the window at 8 machines: nothing more to do.
        assert_eq!(c.tick(&obs(12, 8, false)), Action::None);
        // After the window: floor lifted.
        assert_eq!(c.tick(&obs(25, 8, false)), Action::None);
    }

    #[test]
    fn scale_in_below_floor_is_clipped() {
        // An inner policy that always wants to shrink to 2.
        struct Shrinker;
        impl Strategy for Shrinker {
            fn tick(&mut self, _obs: &Observation) -> Action {
                Action::Reconfigure(ReconfigRequest {
                    target: 2,
                    rate_multiplier: 1.0,
                    reason: ReconfigReason::Policy,
                    decision_id: 0,
                })
            }
            fn name(&self) -> &str {
                "shrinker"
            }
            fn initial_machines(&self) -> u32 {
                8
            }
        }
        let mut c = ManualOverride::new(Shrinker, vec![promo()]);
        // During the window, the shrink to 2 is clipped (hold at 8).
        assert_eq!(c.tick(&obs(12, 8, false)), Action::None);
        // If somehow below the floor, the clip raises back to it.
        let Action::Reconfigure(r) = c.tick(&obs(12, 5, false)) else {
            panic!("expected raise to floor");
        };
        assert_eq!(r.target, 8);
        // Outside the window the shrink passes through.
        let Action::Reconfigure(r) = c.tick(&obs(30, 8, false)) else {
            panic!("expected pass-through");
        };
        assert_eq!(r.target, 2);
    }

    #[test]
    fn scale_outs_pass_through_unchanged() {
        struct Grower;
        impl Strategy for Grower {
            fn tick(&mut self, _obs: &Observation) -> Action {
                Action::Reconfigure(ReconfigRequest::emergency(10, 8.0, 0))
            }
            fn name(&self) -> &str {
                "grower"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }
        let mut c = ManualOverride::new(Grower, vec![promo()]);
        let Action::Reconfigure(r) = c.tick(&obs(12, 5, false)) else {
            panic!("expected pass-through");
        };
        assert_eq!(r.target, 10);
        assert_eq!(r.rate_multiplier, 8.0);
    }

    #[test]
    fn overlapping_reservations_take_the_max_floor() {
        let mut reservations = vec![promo()];
        reservations.push(Reservation {
            start_interval: 15,
            end_interval: 30,
            min_machines: 6,
            lead_intervals: 0,
        });
        let c = ManualOverride::new(StaticController::new(2), reservations);
        assert_eq!(c.active_floor(16), Some(8)); // both active -> max
        assert_eq!(c.active_floor(25), Some(6)); // only the second
        assert_eq!(c.active_floor(40), None);
    }

    #[test]
    fn initial_machines_respect_a_floor_at_start() {
        let c = ManualOverride::new(
            StaticController::new(2),
            vec![Reservation {
                start_interval: 0,
                end_interval: 5,
                min_machines: 7,
                lead_intervals: 0,
            }],
        );
        assert_eq!(c.initial_machines(), 7);
    }

    #[test]
    fn waits_while_reconfiguring() {
        let mut c = ManualOverride::new(StaticController::new(2), vec![promo()]);
        assert_eq!(c.tick(&obs(12, 2, true)), Action::None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_windows() {
        let _ = ManualOverride::new(
            StaticController::new(2),
            vec![Reservation {
                start_interval: 5,
                end_interval: 5,
                min_machines: 2,
                lead_intervals: 0,
            }],
        );
    }
}
