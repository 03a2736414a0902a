//! Online prediction with periodic refitting ("active learning", §6).
//!
//! The paper's Predictor component learns SPAR coefficients offline when
//! training data exists, otherwise it monitors the live system and fits once
//! enough measurements accumulate; coefficients are refreshed periodically
//! (weekly in the paper's deployment). [`OnlinePredictor`] implements that
//! life-cycle around any [`LoadPredictor`] fit function.
//!
//! `observe` runs at every controller tick, so it is O(1): the model sees
//! the last `max_history` samples, but the store behind that window holds
//! up to twice as many and drops the older half in one move each time it
//! fills, rather than shifting the whole window on every sample. A fit
//! function is `FnMut` so it can own working storage that outlives a fit
//! (SPAR's regression buffers), and a scheduled refit that fails waits a
//! full refit period before the next attempt while the last good model
//! keeps serving.

use crate::model::{FitError, LoadPredictor};

/// Function that fits a predictor to a training window.
pub type FitFn = Box<dyn FnMut(&[f64]) -> Result<Box<dyn LoadPredictor>, FitError> + Send>;

/// A self-(re)fitting predictor fed by a stream of load measurements.
pub struct OnlinePredictor {
    fit: FitFn,
    /// The newest samples, oldest first: at least the window (the last
    /// `max_history` of them), at most twice that.
    history: Vec<f64>,
    model: Option<Box<dyn LoadPredictor>>,
    min_train: usize,
    refit_every: usize,
    observations_since_fit: usize,
    max_history: usize,
    fit_failures: u64,
}

impl OnlinePredictor {
    /// Creates an online predictor.
    ///
    /// * `fit` — fitting function invoked on the accumulated history.
    /// * `min_train` — observations required before the first fit.
    /// * `refit_every` — observations between refits (the paper refreshes
    ///   weekly; per-minute slots make that 10 080).
    /// * `max_history` — cap on retained history (oldest samples dropped).
    pub fn new(fit: FitFn, min_train: usize, refit_every: usize, max_history: usize) -> Self {
        assert!(refit_every > 0, "refit_every must be positive");
        assert!(
            max_history >= min_train,
            "max_history must cover the training window"
        );
        OnlinePredictor {
            fit,
            history: Vec::new(),
            model: None,
            min_train,
            refit_every,
            observations_since_fit: 0,
            max_history,
            fit_failures: 0,
        }
    }

    /// Seeds the predictor with offline training data (fits immediately if
    /// long enough).
    pub fn seed(&mut self, data: &[f64]) {
        self.history.extend_from_slice(data);
        self.compact();
        self.try_fit();
    }

    /// Records a new load measurement and refits on schedule.
    pub fn observe(&mut self, value: f64) {
        self.history.push(value);
        self.compact();
        self.observations_since_fit += 1;
        let due = self.model.is_none() || self.observations_since_fit >= self.refit_every;
        if due && self.history_len() >= self.min_train {
            self.try_fit();
        }
    }

    /// Drops everything older than the window once the store holds two
    /// windows' worth.
    fn compact(&mut self) {
        if self.history.len() >= self.max_history.saturating_mul(2) {
            let excess = self.history.len() - self.max_history;
            self.history.drain(..excess);
        }
    }

    /// The retained history the model sees.
    fn window(&self) -> &[f64] {
        newest(&self.history, self.max_history)
    }

    fn try_fit(&mut self) {
        let window = newest(&self.history, self.max_history);
        if window.len() < self.min_train {
            return;
        }
        match (self.fit)(window) {
            Ok(m) => {
                self.model = Some(m);
                self.observations_since_fit = 0;
                pstore_telemetry::tel_event!(pstore_telemetry::ForecastRetrain {
                    history: pstore_telemetry::count(window.len()),
                    ok: true,
                });
            }
            Err(_) => {
                self.fit_failures += 1;
                // With a model to fall back on, the next attempt waits for
                // the next scheduled refit; without one, every observation
                // retries, as data may simply still be accumulating.
                if self.model.is_some() {
                    self.observations_since_fit = 0;
                }
                pstore_telemetry::tel_event!(pstore_telemetry::ForecastRetrain {
                    history: pstore_telemetry::count(window.len()),
                    ok: false,
                });
            }
        }
    }

    /// Whether a model has been fitted and can forecast.
    pub fn is_ready(&self) -> bool {
        self.model
            .as_ref()
            .is_some_and(|m| self.history_len() >= m.min_history())
    }

    /// Forecasts the next `h` slots, or `None` until enough data has been
    /// observed.
    ///
    /// Load is a non-negative rate, but the linear models can dip below
    /// zero near troughs; negative predictions are clamped to zero here so
    /// every forecast the Predictor hands downstream satisfies invariant
    /// `FOR-01`. Non-finite values are passed through unmasked (they would
    /// indicate a broken fit and must stay visible to the checkers).
    pub fn forecast(&self, h: usize) -> Option<Vec<f64>> {
        let mut curve = Vec::new();
        self.forecast_into(h, &mut curve).then_some(curve)
    }

    /// [`forecast`](Self::forecast) into a buffer the caller keeps; `false`
    /// (and an untouched buffer) until enough data has been observed.
    pub fn forecast_into(&self, h: usize, curve: &mut Vec<f64>) -> bool {
        let Some(model) = self.model.as_ref() else {
            return false;
        };
        let window = self.window();
        if window.len() < model.min_history() {
            return false;
        }
        model.predict_horizon_into(window, h, curve);
        for v in curve.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        pstore_telemetry::tel_event!(pstore_telemetry::ForecastPredict {
            horizon: pstore_telemetry::count(h),
            peak: curve.iter().copied().fold(0.0, f64::max),
        });
        true
    }

    /// Number of retained measurements.
    pub fn history_len(&self) -> usize {
        self.history.len().min(self.max_history)
    }

    /// Number of failed fit attempts (diagnostic).
    pub fn fit_failures(&self) -> u64 {
        self.fit_failures
    }

    /// The most recent observation.
    pub fn last_observation(&self) -> Option<f64> {
        self.history.last().copied()
    }
}

/// The last `n` samples (all of them when there are fewer).
fn newest(samples: &[f64], n: usize) -> &[f64] {
    &samples[samples.len().saturating_sub(n)..]
}

impl std::fmt::Debug for OnlinePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlinePredictor")
            .field("history_len", &self.history_len())
            .field("ready", &self.is_ready())
            .field("fit_failures", &self.fit_failures)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spar::{SparConfig, SparModel};

    fn spar_fit(cfg: SparConfig) -> FitFn {
        Box::new(move |data: &[f64]| {
            SparModel::fit(data, &cfg).map(|m| Box::new(m) as Box<dyn LoadPredictor>)
        })
    }

    fn cfg() -> SparConfig {
        SparConfig {
            period: 24,
            n_periods: 2,
            m_recent: 4,
            taus: vec![1, 2],
            ridge_lambda: 1e-6,
            max_rows: 2_000,
        }
    }

    fn signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 50.0 + 20.0 * (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin())
            .collect()
    }

    #[test]
    fn not_ready_until_min_train() {
        let c = cfg();
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 48, 24, 10_000);
        for v in signal(10) {
            p.observe(v);
        }
        assert!(!p.is_ready());
        assert_eq!(p.forecast(4), None);
    }

    #[test]
    fn becomes_ready_and_forecasts_after_seeding() {
        let c = cfg();
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 48, 24, 10_000);
        p.seed(&signal(24 * 10));
        assert!(p.is_ready());
        let f = p.forecast(6).unwrap();
        assert_eq!(f.len(), 6);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn refits_on_schedule() {
        let c = cfg();
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 24, 24, 10_000);
        let data = signal(24 * 12);
        p.seed(&data[..24 * 9]);
        assert!(p.is_ready());
        // Keep observing; refits should not fail and stay ready.
        for &v in &data[24 * 9..] {
            p.observe(v);
        }
        assert!(p.is_ready());
        assert_eq!(p.fit_failures(), 0);
    }

    /// Predicts its tag: shows which fit is being served.
    struct Tagged(f64);

    impl LoadPredictor for Tagged {
        fn min_history(&self) -> usize {
            1
        }
        fn predict(&self, _history: &[f64], _tau: usize) -> f64 {
            self.0
        }
        fn name(&self) -> &str {
            "tagged"
        }
    }

    #[test]
    fn failed_refit_backs_off_a_full_period_once_a_model_serves() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Attempts 1-2 fail (cold start), 3 fits model 1, 4-5 fail
        // (scheduled refits), 6 fits model 2.
        let attempts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&attempts);
        let fit: FitFn =
            Box::new(
                move |_: &[f64]| match counter.fetch_add(1, Ordering::Relaxed) + 1 {
                    3 => Ok(Box::new(Tagged(1.0)) as Box<dyn LoadPredictor>),
                    6 => Ok(Box::new(Tagged(2.0)) as Box<dyn LoadPredictor>),
                    _ => Err(FitError::Numerical("scripted failure".into())),
                },
            );
        let (min_train, refit_every) = (3, 5);
        let mut p = OnlinePredictor::new(fit, min_train, refit_every, 100);
        // `(attempts, failures, served tag)` after each observation.
        let mut seen = Vec::new();
        for i in 0..20 {
            p.observe(i as f64);
            let served = p.forecast(1).map(|f| f[0]);
            seen.push((attempts.load(Ordering::Relaxed), p.fit_failures(), served));
        }
        let mut want = vec![
            // Too little data, then a retry per observation until one fits.
            (0, 0, None),
            (0, 0, None),
            (1, 1, None),
            (2, 2, None),
            (3, 2, Some(1.0)),
        ];
        // Each failed scheduled refit is one attempt, then a quiet period
        // with model 1 still serving.
        want.extend([(3, 2, Some(1.0)); 4]);
        want.extend([(4, 3, Some(1.0)); 5]);
        want.extend([(5, 4, Some(1.0)); 5]);
        want.push((6, 4, Some(2.0)));
        assert_eq!(seen, want);
    }

    #[test]
    fn history_is_capped() {
        let c = cfg();
        let cap = c.min_history() + 100;
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 10, 24, cap);
        p.seed(&signal(cap + 500));
        assert_eq!(p.history_len(), cap);
        assert!(p.is_ready());
    }

    #[test]
    fn online_forecast_tracks_periodic_signal() {
        let c = cfg();
        let data = signal(24 * 12);
        let mut p = OnlinePredictor::new(spar_fit(c.clone()), c.min_history() + 24, 9999, 10_000);
        p.seed(&data[..24 * 10]);
        let mut errs = Vec::new();
        for (i, &v) in data[24 * 10..24 * 12 - 1].iter().enumerate() {
            p.observe(v);
            if let Some(f) = p.forecast(1) {
                let actual = data[24 * 10 + i + 1];
                errs.push((f[0] - actual).abs() / actual);
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.01, "online MRE too high: {mean_err}");
    }
}
