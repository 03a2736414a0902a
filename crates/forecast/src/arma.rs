//! ARMA(p, q) model fit with the two-stage Hannan–Rissanen procedure.
//!
//! Stage 1 fits a long auto-regression to estimate the innovation sequence;
//! stage 2 regresses the series on its own lags *and* the estimated
//! innovation lags. Forecasts beyond the first step set future innovations
//! to their mean (zero), so the MA terms only sharpen short-horizon
//! predictions — matching the paper's observation that ARMA sits between
//! plain AR and SPAR in accuracy on the B2W load (§5).

use crate::ar::{ArConfig, ArModel};
use crate::linalg::{ridge, Matrix};
use crate::model::{FitError, LoadPredictor};

/// Configuration for an ARMA(p, q) fit.
#[derive(Debug, Clone)]
pub struct ArmaConfig {
    /// AR order p.
    pub p: usize,
    /// MA order q.
    pub q: usize,
    /// Order of the stage-1 long auto-regression (defaults to
    /// `max(20, 2 * (p + q))` when `None`).
    pub long_ar_order: Option<usize>,
    /// Ridge regularisation for both stages.
    pub ridge_lambda: f64,
    /// Row-subsampling stride for stage 2.
    pub stride: usize,
}

impl Default for ArmaConfig {
    fn default() -> Self {
        ArmaConfig {
            p: 30,
            q: 10,
            long_ar_order: None,
            ridge_lambda: 1e-6,
            stride: 1,
        }
    }
}

/// A fitted ARMA(p, q) model.
#[derive(Debug, Clone)]
pub struct ArmaModel {
    intercept: f64,
    ar_coef: Vec<f64>, // ar_coef[i] multiplies y(t - 1 - i)
    ma_coef: Vec<f64>, // ma_coef[j] multiplies e(t - 1 - j)
    long_ar: ArModel,  // kept to rebuild innovations at prediction time
}

impl ArmaModel {
    /// Fits an ARMA model to `train`.
    ///
    /// # Errors
    /// Returns [`FitError::NotEnoughData`] when the series cannot support
    /// both stages, and [`FitError::Numerical`] on solver failure.
    pub fn fit(train: &[f64], config: &ArmaConfig) -> Result<Self, FitError> {
        assert!(config.p > 0, "ARMA requires p >= 1");
        let long_order = config
            .long_ar_order
            .unwrap_or_else(|| (2 * (config.p + config.q)).max(20));
        let required = long_order + config.p.max(config.q) + 4 * (config.p + config.q + 1);
        if train.len() < required {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }

        // Stage 1: long AR to estimate innovations e(t) = y(t) - yhat(t).
        let long_ar = ArModel::fit(
            train,
            &ArConfig {
                order: long_order,
                ridge_lambda: config.ridge_lambda,
                stride: 1,
            },
        )?;
        let innov = innovations(&long_ar, train);

        // Stage 2: regress y(t) on [1, y lags, e lags]. Row t is valid when
        // both y lags and innovation lags exist.
        let first = long_order + config.q.max(config.p);
        let targets: Vec<usize> = (first..train.len()).step_by(config.stride).collect();
        if targets.len() < config.p + config.q + 1 {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }
        let cols = 1 + config.p + config.q;
        let mut a = Matrix::zeros(targets.len(), cols);
        let mut b = Vec::with_capacity(targets.len());
        for (r, &t) in targets.iter().enumerate() {
            a[(r, 0)] = 1.0;
            for i in 0..config.p {
                a[(r, 1 + i)] = train[t - 1 - i];
            }
            for j in 0..config.q {
                a[(r, 1 + config.p + j)] = innov[t - 1 - j];
            }
            b.push(train[t]);
        }
        let x =
            ridge(&a, &b, config.ridge_lambda).map_err(|e| FitError::Numerical(e.to_string()))?;
        Ok(ArmaModel {
            intercept: x[0],
            ar_coef: x[1..1 + config.p].to_vec(),
            ma_coef: x[1 + config.p..].to_vec(),
            long_ar,
        })
    }

    /// AR order p.
    pub fn p(&self) -> usize {
        self.ar_coef.len()
    }

    /// MA order q.
    pub fn q(&self) -> usize {
        self.ma_coef.len()
    }
}

/// Innovation estimates from a fitted long AR: zero over the warm-up prefix,
/// one-step-ahead residuals afterwards.
fn innovations(long_ar: &ArModel, data: &[f64]) -> Vec<f64> {
    let order = long_ar.min_history();
    let mut innov = vec![0.0; data.len()];
    for t in order..data.len() {
        let pred = long_ar.predict(&data[..t], 1);
        innov[t] = data[t] - pred;
    }
    innov
}

impl LoadPredictor for ArmaModel {
    fn min_history(&self) -> usize {
        self.long_ar
            .min_history()
            .max(self.ar_coef.len())
            .max(self.ma_coef.len())
            + self.ma_coef.len()
    }

    fn predict(&self, history: &[f64], tau: usize) -> f64 {
        assert!(tau >= 1, "tau must be at least 1");
        self.predict_horizon(history, tau)[tau - 1]
    }

    fn predict_horizon(&self, history: &[f64], h: usize) -> Vec<f64> {
        assert!(
            history.len() >= self.min_history(),
            "history ({}) shorter than required ({})",
            history.len(),
            self.min_history()
        );
        let p = self.ar_coef.len();
        let q = self.ma_coef.len();

        // Reconstruct recent innovations from the long AR; future ones are 0.
        let innov = innovations(&self.long_ar, history);
        let mut e_lags: Vec<f64> = innov.iter().rev().take(q).copied().collect();
        let mut y_lags: Vec<f64> = history.iter().rev().take(p).copied().collect();

        let mut out = Vec::with_capacity(h);
        for _ in 0..h {
            let mut y = self.intercept;
            for (c, l) in self.ar_coef.iter().zip(&y_lags) {
                y += c * l;
            }
            for (c, l) in self.ma_coef.iter().zip(&e_lags) {
                y += c * l;
            }
            out.push(y);
            if p > 0 {
                y_lags.rotate_right(1);
                y_lags[0] = y;
            }
            if q > 0 {
                e_lags.rotate_right(1);
                e_lags[0] = 0.0; // expected future innovation
            }
        }
        out
    }

    fn name(&self) -> &str {
        "ARMA"
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
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn simulate_arma(n: usize, phi: f64, theta: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = vec![0.0f64; n];
        let mut prev_e = 0.0;
        for t in 1..n {
            let e: f64 = rng.random_range(-0.5..0.5);
            y[t] = 10.0 + phi * (y[t - 1] - 10.0) + e + theta * prev_e;
            prev_e = e;
        }
        y
    }

    #[test]
    fn fits_and_predicts_simulated_arma_process() {
        let y = simulate_arma(2000, 0.7, 0.4, 42);
        let model = ArmaModel::fit(
            &y,
            &ArmaConfig {
                p: 1,
                q: 1,
                long_ar_order: Some(20),
                ridge_lambda: 1e-8,
                stride: 1,
            },
        )
        .unwrap();
        // One-step predictions should beat the unconditional mean.
        let mut err_model = 0.0;
        let mut err_mean = 0.0;
        for t in 1500..1999 {
            let pred = model.predict(&y[..t], 1);
            err_model += (pred - y[t]).powi(2);
            err_mean += (10.0 - y[t]).powi(2);
        }
        assert!(
            err_model < err_mean,
            "ARMA should beat the mean: {err_model} vs {err_mean}"
        );
    }

    #[test]
    fn long_horizon_converges_towards_process_mean() {
        let y = simulate_arma(1500, 0.5, 0.3, 7);
        let model = ArmaModel::fit(
            &y,
            &ArmaConfig {
                p: 1,
                q: 1,
                long_ar_order: Some(15),
                ridge_lambda: 1e-8,
                stride: 1,
            },
        )
        .unwrap();
        let far = model.predict(&y, 200);
        assert!(
            (far - 10.0).abs() < 1.0,
            "far prediction {far} should be near 10"
        );
    }

    #[test]
    fn horizon_matches_point_predictions() {
        let y = simulate_arma(1200, 0.6, 0.2, 3);
        let model = ArmaModel::fit(
            &y,
            &ArmaConfig {
                p: 2,
                q: 2,
                long_ar_order: Some(15),
                ridge_lambda: 1e-8,
                stride: 1,
            },
        )
        .unwrap();
        let h = model.predict_horizon(&y, 4);
        for (tau, v) in h.iter().enumerate() {
            assert_eq!(model.predict(&y, tau + 1), *v);
        }
    }

    #[test]
    fn rejects_short_series() {
        let err = ArmaModel::fit(&[1.0; 30], &ArmaConfig::default()).unwrap_err();
        assert!(matches!(err, FitError::NotEnoughData { .. }));
    }

    #[test]
    fn orders_are_reported() {
        let y = simulate_arma(1000, 0.5, 0.1, 11);
        let model = ArmaModel::fit(
            &y,
            &ArmaConfig {
                p: 3,
                q: 2,
                long_ar_order: Some(12),
                ridge_lambda: 1e-8,
                stride: 1,
            },
        )
        .unwrap();
        assert_eq!(model.p(), 3);
        assert_eq!(model.q(), 2);
    }
}
