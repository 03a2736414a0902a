//! Decision and forecast provenance bookkeeping shared by the
//! controllers.
//!
//! [`ProvScorer`] is the controller-side half of the provisioning
//! observatory: it holds predictions until the observation for their
//! target interval arrives (emitting one `prov_forecast` per scored
//! (horizon, interval) pair — the PRV-03 bookkeeping contract) and
//! stamps every reconfiguration decision with a per-controller id
//! (emitting `prov_decision`, the PRV-02 causality anchor). The
//! bookkeeping itself is pure and always runs — it is deterministic and
//! bounded by [`SCORED_HORIZONS`] — while the events are only emitted
//! when `pstore_telemetry::prov_enabled()` holds (telemetry compiled in,
//! a sink installed, and its `TraceSpec` asking for the `prov_*` family),
//! so default traces stay byte-identical.

use super::Observation;
use pstore_telemetry as tel;

/// Horizons (in monitoring intervals) at which controllers record their
/// predictions for later scoring.
pub const SCORED_HORIZONS: [usize; 4] = [1, 2, 4, 8];

/// Pending-forecast store plus the decision-id counter.
#[derive(Debug, Default)]
pub struct ProvScorer {
    /// `(target interval, horizon, predicted)` awaiting an observation.
    pending: Vec<(usize, usize, f64)>,
    /// Last decision id handed out (ids are 1-based; 0 = unattributed).
    next_decision: u64,
}

impl ProvScorer {
    /// Creates an empty scorer.
    pub fn new() -> Self {
        ProvScorer::default()
    }

    /// Scores every pending prediction targeting `obs.interval` against
    /// the measured load, then drops entries at or before it (intervals
    /// skipped while the cluster was busy are never scored twice).
    pub fn score(&mut self, model: &str, obs: &Observation) {
        if tel::prov_enabled() {
            for &(_, horizon, predicted) in
                self.pending.iter().filter(|&&(t, _, _)| t == obs.interval)
            {
                tel::emit(tel::ProvForecast {
                    interval: tel::count(obs.interval),
                    horizon: tel::count(horizon),
                    model: model.into(),
                    predicted,
                    observed: obs.load,
                });
            }
        }
        self.pending.retain(|&(t, _, _)| t > obs.interval);
    }

    /// Records raw (uninflated) predictions made at `interval`:
    /// `predictions[h - 1]` targets `interval + h` for each horizon in
    /// [`SCORED_HORIZONS`] the slice covers.
    pub fn predict(&mut self, interval: usize, predictions: &[f64]) {
        for &h in &SCORED_HORIZONS {
            if let Some(&p) = predictions.get(h - 1) {
                self.pending.push((interval + h, h, p));
            }
        }
    }

    /// Registers a decision, emits its `prov_decision` event (when
    /// provenance events are on), and returns the id for the outgoing
    /// [`ReconfigRequest`](super::ReconfigRequest). Ids are assigned
    /// unconditionally so request attribution does not depend on the
    /// telemetry gate. `lead` is in monitoring intervals: how far ahead
    /// the demand change driving the decision sits (0 for reactive and
    /// emergency decisions).
    #[allow(clippy::too_many_arguments, reason = "one argument per event column")]
    pub fn decision(
        &mut self,
        obs: &Observation,
        target: u32,
        reason: &str,
        trigger: f64,
        peak: f64,
        cost: f64,
        lead: usize,
        rate: f64,
    ) -> u64 {
        self.next_decision += 1;
        if tel::prov_enabled() {
            tel::emit(tel::ProvDecision {
                id: self.next_decision,
                interval: tel::count(obs.interval),
                machines: obs.machines.into(),
                target: target.into(),
                reason: reason.into(),
                trigger,
                peak,
                cost,
                lead: tel::count(lead),
                rate,
            });
        }
        self.next_decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(interval: usize, load: f64) -> Observation {
        Observation {
            interval,
            load,
            machines: 2,
            reconfiguring: false,
        }
    }

    #[test]
    fn pending_predictions_are_scored_once_and_dropped() {
        let mut s = ProvScorer::new();
        s.predict(0, &[110.0; 8]);
        assert_eq!(s.pending.len(), SCORED_HORIZONS.len());
        s.score("m", &obs(1, 100.0));
        // The horizon-1 entry targeting interval 1 is gone; later targets
        // remain.
        assert_eq!(s.pending.len(), SCORED_HORIZONS.len() - 1);
        // Skipping past every target drains the store.
        s.score("m", &obs(100, 100.0));
        assert!(s.pending.is_empty());
    }

    #[test]
    fn short_prediction_slices_only_cover_available_horizons() {
        let mut s = ProvScorer::new();
        s.predict(5, &[1.0, 2.0]);
        assert_eq!(s.pending, vec![(6, 1, 1.0), (7, 2, 2.0)]);
    }

    /// A capturing sink whose spec asks for the `prov_*` family.
    fn install_prov_sink() -> (tel::SinkGuard, tel::MemorySinkHandle) {
        let (sink, handle) = tel::MemorySink::new();
        let spec = tel::TraceSpec {
            prov: true,
            ..Default::default()
        };
        let guard = tel::install_with(std::rc::Rc::new(sink), spec);
        (guard, handle)
    }

    #[test]
    fn decision_ids_are_sequential_and_emitted_only_when_gated() {
        let o = obs(0, 100.0);
        let mut s = ProvScorer::new();
        // Ids are handed out even with provenance off...
        assert_eq!(s.decision(&o, 3, "planned", 100.0, 200.0, 0.0, 2, 1.0), 1);

        let (_guard, handle) = install_prov_sink();
        let a = s.decision(&o, 3, "planned", 100.0, 200.0, 0.0, 2, 1.0);
        let b = s.decision(&o, 4, "emergency", 400.0, 400.0, 0.0, 0, 8.0);
        assert_eq!((a, b), (2, 3));
        // ...but only the gated ones hit the sink (none at all in a build
        // without the instrumentation).
        let events = handle.of_kind(tel::kinds::PROV_DECISION);
        if !tel::COMPILED_IN {
            return assert!(events.is_empty());
        }
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field_u64("id"), Some(2));
        assert_eq!(events[0].field_u64("lead"), Some(2));
        assert_eq!(events[1].field_str("reason"), Some("emergency"));
    }

    #[test]
    fn scoring_emits_one_forecast_per_pending_triple() {
        let (_guard, handle) = install_prov_sink();
        let mut s = ProvScorer::new();
        s.predict(0, &[110.0, 120.0]);
        s.score("m", &obs(1, 100.0));
        s.score("m", &obs(2, 130.0));
        let events = handle.of_kind(tel::kinds::PROV_FORECAST);
        if !tel::COMPILED_IN {
            return assert!(events.is_empty());
        }
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field_u64("interval"), Some(1));
        assert_eq!(events[0].field_f64("predicted"), Some(110.0));
        assert_eq!(events[0].field_f64("observed"), Some(100.0));
        assert_eq!(events[1].field_u64("horizon"), Some(2));
    }
}
