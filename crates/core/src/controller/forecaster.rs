//! Horizon forecast sources for the predictive controller.
//!
//! The P-Store controller is generic over where its load predictions come
//! from: a live SPAR model refit online ([`SparForecaster`], the paper's
//! default), or the true future of a recorded trace ([`OracleForecaster`],
//! the "P-Store Oracle" upper bound of Fig 12).

use pstore_forecast::model::LoadPredictor;
use pstore_forecast::online::OnlinePredictor;
use pstore_forecast::spar::{FitScratch, SparConfig, SparModel};

/// A source of load forecasts fed by the measured load stream.
pub trait LoadForecaster: Send {
    /// Records the load measured over the latest monitoring interval.
    fn observe(&mut self, load: f64);

    /// Forecasts the next `horizon` intervals, or `None` if not yet ready
    /// (e.g. the model is still accumulating training data).
    fn forecast(&mut self, horizon: usize) -> Option<Vec<f64>>;

    /// [`forecast`](Self::forecast) into a buffer the caller keeps: `true`
    /// with the forecast in `out`, or `false` if not yet ready. This is
    /// what the controller calls each tick; a source that can forecast
    /// without allocating overrides it.
    fn forecast_into(&mut self, horizon: usize, out: &mut Vec<f64>) -> bool {
        let Some(predictions) = self.forecast(horizon) else {
            return false;
        };
        out.clear();
        out.extend(predictions);
        true
    }

    /// Source name for experiment output.
    fn name(&self) -> &str;
}

/// SPAR-backed forecaster with online refitting (§6's Predictor component).
pub struct SparForecaster {
    inner: OnlinePredictor,
}

impl SparForecaster {
    /// Creates a SPAR forecaster that refits every `refit_every`
    /// observations over a sliding window of `max_history` samples.
    pub fn new(config: SparConfig, refit_every: usize, max_history: usize) -> Self {
        let min_train = config.min_history() + config.taus.iter().copied().max().unwrap_or(1) + 1;
        let fit_cfg = config.clone();
        // The weekly refit reuses its 2 MB regression system.
        let mut scratch = FitScratch::default();
        let inner = OnlinePredictor::new(
            Box::new(move |data: &[f64]| {
                SparModel::fit_with(data, &fit_cfg, &mut scratch)
                    .map(|m| Box::new(m) as Box<dyn LoadPredictor>)
            }),
            min_train,
            refit_every,
            max_history.max(min_train),
        );
        SparForecaster { inner }
    }

    /// Seeds the forecaster with historical training data (offline
    /// training, as in the paper's 4-week warm-up).
    pub fn seed(&mut self, history: &[f64]) {
        self.inner.seed(history);
    }

    /// Whether a model has been fitted.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

impl LoadForecaster for SparForecaster {
    fn observe(&mut self, load: f64) {
        self.inner.observe(load);
    }

    fn forecast(&mut self, horizon: usize) -> Option<Vec<f64>> {
        self.inner.forecast(horizon)
    }

    fn forecast_into(&mut self, horizon: usize, out: &mut Vec<f64>) -> bool {
        self.inner.forecast_into(horizon, out)
    }

    fn name(&self) -> &str {
        "SPAR"
    }
}

/// Perfect-prediction forecaster that replays the true future of a trace.
///
/// Each `observe` call advances the cursor by one interval, so forecasts
/// stay aligned with the measured stream. Beyond the end of the trace the
/// last value is repeated.
pub struct OracleForecaster {
    trace: Vec<f64>,
    cursor: usize,
}

impl OracleForecaster {
    /// Creates an oracle over the full load trace; the cursor starts at
    /// interval 0 (the first `observe` corresponds to `trace[0]`).
    pub fn new(trace: Vec<f64>) -> Self {
        assert!(!trace.is_empty(), "trace must be non-empty");
        OracleForecaster { trace, cursor: 0 }
    }

    /// Current position in the trace.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

impl LoadForecaster for OracleForecaster {
    fn observe(&mut self, _load: f64) {
        self.cursor += 1;
    }

    fn forecast(&mut self, horizon: usize) -> Option<Vec<f64>> {
        // The constructor asserts the trace is non-empty.
        let last = self.trace[self.trace.len() - 1];
        Some(
            (0..horizon)
                .map(|i| self.trace.get(self.cursor + i).copied().unwrap_or(last))
                .collect(),
        )
    }

    fn name(&self) -> &str {
        "Oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_returns_true_future() {
        let mut o = OracleForecaster::new(vec![1.0, 2.0, 3.0, 4.0]);
        o.observe(1.0); // cursor -> 1: next values are trace[1..]
        assert_eq!(o.forecast(2), Some(vec![2.0, 3.0]));
        o.observe(2.0);
        assert_eq!(o.forecast(3), Some(vec![3.0, 4.0, 4.0])); // pads at end
    }

    #[test]
    fn spar_forecaster_becomes_ready_after_seed() {
        let cfg = SparConfig {
            period: 24,
            n_periods: 2,
            m_recent: 4,
            taus: vec![1, 2],
            ridge_lambda: 1e-6,
            max_rows: 1_000,
        };
        let mut f = SparForecaster::new(cfg, 1_000, 10_000);
        assert!(!f.is_ready());
        let data: Vec<f64> = (0..24 * 8)
            .map(|i| 100.0 + 30.0 * (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin())
            .collect();
        f.seed(&data);
        assert!(f.is_ready());
        let fc = f.forecast(6).unwrap();
        assert_eq!(fc.len(), 6);
        // Periodic signal: forecast close to the same phase a day earlier.
        for (i, v) in fc.iter().enumerate() {
            let expect = data[data.len() - 24 + i];
            assert!(
                (v - expect).abs() / expect < 0.05,
                "slot {i}: {v} vs {expect}"
            );
        }
    }
}
