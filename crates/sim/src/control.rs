//! The provisioning control loop both simulators drive (paper §3): at
//! every monitoring tick, observe → `prov_interval` → [`Strategy::tick`] →
//! clamp/accept. It is written once so the slot model and the detailed
//! model present the same observations to a strategy and accept the same
//! requests; the `prov_run` header and the `prov_reconfig` summary of the
//! provisioning observatory are written once here as well.

use pstore_core::controller::{Action, Observation, ReconfigRequest, Strategy};
use pstore_core::params::SystemParams;
use pstore_telemetry as tel;

/// The controller side of one simulated run.
pub(crate) struct ControlLoop {
    max_machines: u32,
    /// Ticks taken so far: the next [`Observation::interval`].
    interval: usize,
    /// Whether every `Strategy::tick` is traced as a `tick` span. The
    /// detailed simulator's traces carry one per decision; the slot
    /// simulator's, which cover months of ticks, never have.
    tick_span: bool,
}

impl ControlLoop {
    /// Opens the loop for one run: emits the `prov_run` header and returns
    /// the loop with the cluster size the run starts at (the strategy's
    /// initial size, clamped to the hardware).
    pub(crate) fn start(
        params: &SystemParams,
        interval_s: f64,
        strategy: &dyn Strategy,
        tick_span: bool,
    ) -> (Self, u32) {
        let initial = strategy.initial_machines().clamp(1, params.max_machines);
        if tel::prov_enabled() {
            tel::emit(tel::ProvRun {
                q: params.q,
                d_s: params.d.as_secs_f64(),
                interval_s,
                initial: initial.into(),
                policy: strategy.name().into(),
            });
        }
        let control = ControlLoop {
            max_machines: params.max_machines,
            interval: 0,
            tick_span,
        };
        (control, initial)
    }

    /// One monitoring tick: shows the strategy what the monitor measured
    /// and returns the reconfiguration to start now, if any. A request is
    /// clamped to the hardware, then dropped when a move is already in
    /// flight or when it asks for the size the cluster already has.
    pub(crate) fn step(
        &mut self,
        strategy: &mut dyn Strategy,
        load: f64,
        machines: u32,
        reconfiguring: bool,
    ) -> Option<ReconfigRequest> {
        let obs = Observation {
            interval: self.interval,
            load,
            machines,
            reconfiguring,
        };
        self.interval += 1;
        if tel::prov_enabled() {
            tel::emit(tel::ProvInterval {
                interval: tel::count(obs.interval),
                observed: load,
                machines: machines.into(),
                reconfiguring,
            });
        }
        // The tick span closes before the caller opens any reconfiguration
        // span, keeping spans LIFO-nested.
        let tick_span = if self.tick_span && tel::enabled() {
            tel::begin_span(tel::SpanName::Tick)
        } else {
            0
        };
        let action = strategy.tick(&obs);
        tel::end_span(tel::SpanName::Tick, tick_span);
        let Action::Reconfigure(req) = action else {
            return None;
        };
        let target = req.target.clamp(1, self.max_machines);
        (!reconfiguring && target != machines).then_some(ReconfigRequest { target, ..req })
    }
}

/// What one reconfiguration reports in its `prov_reconfig` summary: the
/// decision that asked for it (0 = unattributed), its endpoints and start
/// time, and the data it moved (all zero in the slot model, which moves
/// no real data).
pub(crate) struct MoveLedger {
    pub(crate) decision_id: u64,
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) started_at: f64,
    pub(crate) chunks: u64,
    pub(crate) rows: u64,
    pub(crate) bytes: u64,
}

impl MoveLedger {
    /// Opens the ledger of the move `req` starts at `now` from `from`
    /// machines.
    pub(crate) fn open(req: &ReconfigRequest, from: u32, now: f64) -> Self {
        MoveLedger {
            decision_id: req.decision_id,
            from,
            to: req.target,
            started_at: now,
            chunks: 0,
            rows: 0,
            bytes: 0,
        }
    }

    /// Emits the `prov_reconfig` summary of a move that completed at `now`.
    pub(crate) fn emit_prov_reconfig(&self, now: f64) {
        if tel::prov_enabled() {
            tel::emit(tel::ProvReconfig {
                id: self.decision_id,
                from: self.from.into(),
                to: self.to.into(),
                start: self.started_at,
                duration_s: now - self.started_at,
                chunks: self.chunks,
                rows: self.rows,
                bytes: self.bytes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asks for `target` machines at every tick and records what it saw.
    struct Always {
        target: u32,
        seen: Vec<Observation>,
    }

    impl Strategy for Always {
        fn tick(&mut self, obs: &Observation) -> Action {
            self.seen.push(*obs);
            Action::Reconfigure(ReconfigRequest {
                rate_multiplier: 2.0,
                ..ReconfigRequest::planned(self.target, 9)
            })
        }
        fn name(&self) -> &str {
            "always"
        }
        fn initial_machines(&self) -> u32 {
            64
        }
    }

    #[test]
    fn step_clamps_then_drops_noops_and_requests_during_a_move() {
        let params = SystemParams {
            max_machines: 10,
            ..SystemParams::b2w_paper()
        };
        let mut strategy = Always {
            target: 0,
            seen: Vec::new(),
        };
        let (mut control, initial) = ControlLoop::start(&params, 30.0, &strategy, true);
        assert_eq!(initial, 10, "the initial size is clamped to the hardware");
        // (requested, current size, move in flight) -> accepted target.
        let cases = [
            (25, 4, false, Some(10)), // above max_machines: clamped
            (25, 10, false, None),    // ... onto the current size: a no-op
            (4, 4, false, None),      // the current size: dropped
            (4, 3, false, Some(4)),
            (6, 4, true, None), // a move is in flight: dropped
            (0, 4, false, Some(1)),
        ];
        for (interval, &(target, machines, reconfiguring, accepted)) in cases.iter().enumerate() {
            strategy.target = target;
            let request = control.step(&mut strategy, 100.0, machines, reconfiguring);
            // Everything but the target passes through untouched.
            let expected = accepted.map(|target| ReconfigRequest {
                rate_multiplier: 2.0,
                ..ReconfigRequest::planned(target, 9)
            });
            assert_eq!(request, expected, "case {interval}");
            // The strategy is shown every tick, numbered from 0 by ones.
            let obs = Observation {
                interval,
                load: 100.0,
                machines,
                reconfiguring,
            };
            assert_eq!(strategy.seen.last(), Some(&obs));
        }
    }
}
