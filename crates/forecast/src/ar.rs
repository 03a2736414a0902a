//! Auto-regressive AR(p) model, fit by least squares.
//!
//! `y(t) = c + phi_1 y(t-1) + ... + phi_p y(t-p)`
//!
//! Multi-step forecasts are produced recursively by feeding predictions back
//! as inputs, which is why plain AR degrades quickly on long horizons of
//! strongly diurnal load (§5 of the paper reports 12.5% MRE at tau = 60 min
//! versus SPAR's 10.4%).

use crate::linalg::{ridge, Matrix};
use crate::model::{FitError, LoadPredictor};

/// Configuration for an AR(p) fit.
#[derive(Debug, Clone)]
pub struct ArConfig {
    /// Model order (number of lags).
    pub order: usize,
    /// Ridge regularisation strength; small positive values keep the fit
    /// well-posed when lag columns are nearly collinear.
    pub ridge_lambda: f64,
    /// Row-subsampling stride over the training set (1 = use every row).
    pub stride: usize,
}

impl Default for ArConfig {
    fn default() -> Self {
        ArConfig {
            order: 30,
            ridge_lambda: 1e-6,
            stride: 1,
        }
    }
}

/// A fitted AR(p) model.
#[derive(Debug, Clone)]
pub struct ArModel {
    intercept: f64,
    coef: Vec<f64>, // coef[i] multiplies y(t - 1 - i)
}

impl ArModel {
    /// Fits an AR model to `train` with the given configuration.
    ///
    /// # Errors
    /// Returns [`FitError::NotEnoughData`] when the training series cannot
    /// supply at least `2 * order` regression rows, and
    /// [`FitError::Numerical`] when the least-squares solve fails.
    pub fn fit(train: &[f64], config: &ArConfig) -> Result<Self, FitError> {
        assert!(config.order > 0, "AR order must be positive");
        assert!(config.stride > 0, "stride must be positive");
        let p = config.order;
        let required = p + 2 * p; // lags + a healthy number of rows
        if train.len() < required {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }

        let targets: Vec<usize> = (p..train.len()).step_by(config.stride).collect();
        let rows = targets.len();
        let mut a = Matrix::zeros(rows, p + 1);
        let mut b = Vec::with_capacity(rows);
        for (r, &t) in targets.iter().enumerate() {
            a[(r, 0)] = 1.0;
            for i in 0..p {
                a[(r, i + 1)] = train[t - 1 - i];
            }
            b.push(train[t]);
        }
        let x =
            ridge(&a, &b, config.ridge_lambda).map_err(|e| FitError::Numerical(e.to_string()))?;
        Ok(ArModel {
            intercept: x[0],
            coef: x[1..].to_vec(),
        })
    }

    /// Model order.
    pub fn order(&self) -> usize {
        self.coef.len()
    }

    /// One-step prediction given the trailing lags
    /// (`lags[0]` is the most recent observation).
    fn step(&self, lags: &[f64]) -> f64 {
        let mut y = self.intercept;
        for (c, l) in self.coef.iter().zip(lags) {
            y += c * l;
        }
        y
    }
}

impl LoadPredictor for ArModel {
    fn min_history(&self) -> usize {
        self.coef.len()
    }

    fn predict(&self, history: &[f64], tau: usize) -> f64 {
        assert!(tau >= 1, "tau must be at least 1");
        self.predict_horizon(history, tau)[tau - 1]
    }

    fn predict_horizon(&self, history: &[f64], h: usize) -> Vec<f64> {
        let p = self.coef.len();
        assert!(
            history.len() >= p,
            "history ({}) shorter than AR order ({p})",
            history.len()
        );
        // lags[0] = most recent value; predictions are fed back in.
        let mut lags: Vec<f64> = history.iter().rev().take(p).copied().collect();
        let mut out = Vec::with_capacity(h);
        for _ in 0..h {
            let y = self.step(&lags);
            out.push(y);
            lags.rotate_right(1);
            lags[0] = y;
        }
        out
    }

    fn name(&self) -> &str {
        "AR"
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

    #[test]
    fn recovers_ar1_process_coefficient() {
        // y(t) = 0.8 y(t-1) + 5, deterministic.
        let mut y = vec![10.0];
        for _ in 0..200 {
            let last = *y.last().unwrap();
            y.push(0.8 * last + 5.0);
        }
        let model = ArModel::fit(
            &y,
            &ArConfig {
                order: 1,
                ridge_lambda: 0.0,
                stride: 1,
            },
        )
        .unwrap();
        // The series converges to 25, making the regressors nearly constant;
        // coefficient + intercept must still reproduce the fixed point.
        let pred = model.predict(&y, 1);
        let expect = 0.8 * y.last().unwrap() + 5.0;
        assert!((pred - expect).abs() < 1e-6, "pred={pred}, expect={expect}");
    }

    #[test]
    fn exact_on_linear_recurrence() {
        // Fibonacci-like: y(t) = y(t-1) + y(t-2), exactly AR(2).
        let mut y = vec![1.0, 1.0];
        for t in 2..40 {
            let v: f64 = y[t - 1] + y[t - 2];
            y.push(v / 1.5); // damp to avoid overflow and collinearity
        }
        let model = ArModel::fit(
            &y,
            &ArConfig {
                order: 2,
                ridge_lambda: 1e-9,
                stride: 1,
            },
        )
        .unwrap();
        let pred = model.predict(&y, 1);
        let expect = (y[y.len() - 1] + y[y.len() - 2]) / 1.5;
        assert!((pred - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn horizon_is_recursive_and_consistent() {
        let y: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let model = ArModel::fit(&y, &ArConfig::default()).unwrap();
        let horizon = model.predict_horizon(&y, 5);
        assert_eq!(horizon.len(), 5);
        for (tau, expected) in horizon.iter().enumerate() {
            assert_eq!(model.predict(&y, tau + 1), *expected);
        }
    }

    #[test]
    fn rejects_short_training_series() {
        let y = vec![1.0; 10];
        let err = ArModel::fit(
            &y,
            &ArConfig {
                order: 8,
                ..ArConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FitError::NotEnoughData { .. }));
    }

    #[test]
    fn stride_subsampling_still_fits() {
        let y: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin() + 5.0).collect();
        let model = ArModel::fit(
            &y,
            &ArConfig {
                order: 10,
                ridge_lambda: 1e-6,
                stride: 3,
            },
        )
        .unwrap();
        let pred = model.predict(&y, 1);
        assert!(pred.is_finite());
        assert!((pred - 5.0).abs() < 2.0);
    }
}
