//! Common interface for load-prediction models.

use std::fmt;

/// Error produced when fitting a forecasting model.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The training series is shorter than the model's minimum history.
    NotEnoughData {
        /// Observations required.
        required: usize,
        /// Observations available.
        available: usize,
    },
    /// The underlying least-squares fit failed (e.g. degenerate regressors).
    Numerical(String),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NotEnoughData {
                required,
                available,
            } => write!(
                f,
                "not enough training data: need {required} observations, have {available}"
            ),
            FitError::Numerical(msg) => write!(f, "numerical failure during fit: {msg}"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted load predictor.
///
/// Implementations forecast future load from a window of past observations.
/// All horizons are expressed in slots of the sampling interval the model
/// was fitted at.
pub trait LoadPredictor: Send + Sync {
    /// Minimum number of trailing history observations `predict` requires.
    fn min_history(&self) -> usize;

    /// Predicts the load `tau` slots after the last observation in
    /// `history` (`tau >= 1`).
    ///
    /// `history` must contain at least [`min_history`](Self::min_history)
    /// observations; only the trailing window is used.
    fn predict(&self, history: &[f64], tau: usize) -> f64;

    /// Predicts the whole horizon `1..=h` after the last observation.
    ///
    /// The default implementation calls [`predict`](Self::predict) per slot;
    /// recursive models override it to share state across the horizon.
    fn predict_horizon(&self, history: &[f64], h: usize) -> Vec<f64> {
        (1..=h).map(|tau| self.predict(history, tau)).collect()
    }

    /// [`predict_horizon`](Self::predict_horizon) into a buffer the caller
    /// keeps (cleared first). Models consulted at every controller tick
    /// override it to forecast without allocating.
    fn predict_horizon_into(&self, history: &[f64], h: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.predict_horizon(history, h));
    }

    /// Human-readable model name (used in experiment output).
    fn name(&self) -> &str;
}

/// A trivial seasonal-naive predictor: forecast the value one period ago.
///
/// Used as a sanity baseline in tests and experiments.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
}

impl SeasonalNaive {
    /// Creates a seasonal-naive model with the given period (in slots).
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "period must be positive");
        SeasonalNaive { period }
    }
}

impl LoadPredictor for SeasonalNaive {
    fn min_history(&self) -> usize {
        self.period
    }

    fn predict(&self, history: &[f64], tau: usize) -> f64 {
        assert!(tau >= 1, "tau must be at least 1");
        assert!(
            history.len() >= self.min_history(),
            "history shorter than one period"
        );
        // Value at the same phase one (or more) periods ago.
        let mut idx = history.len() + tau;
        while idx > history.len() {
            idx -= self.period;
        }
        history[idx - 1]
    }

    fn name(&self) -> &str {
        "seasonal-naive"
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact rational arithmetic on tiny values"
    )]
    use super::*;
    use crate::series::TimeSeries;
    use std::time::Duration;

    fn periodic_series(period: usize, reps: usize) -> TimeSeries {
        let vals: Vec<f64> = (0..period * reps)
            .map(|i| (i % period) as f64 + 1.0)
            .collect();
        TimeSeries::new(Duration::from_secs(60), vals)
    }

    #[test]
    fn seasonal_naive_is_exact_on_periodic_signal() {
        let s = periodic_series(24, 4);
        let model = SeasonalNaive::new(24);
        let vals = s.values();
        for tau in 1..=24 {
            let pred = model.predict(&vals[..48], tau);
            assert_eq!(pred, vals[48 + tau - 1]);
        }
    }

    #[test]
    fn seasonal_naive_handles_tau_beyond_one_period() {
        let s = periodic_series(10, 5);
        let model = SeasonalNaive::new(10);
        let pred = model.predict(&s.values()[..30], 15);
        assert_eq!(pred, s.values()[30 + 14]);
    }

    #[test]
    fn fit_error_display() {
        let e = FitError::NotEnoughData {
            required: 10,
            available: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(FitError::Numerical("x".into()).to_string().contains('x'));
    }
}
