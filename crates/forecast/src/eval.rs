//! Rolling-origin ("walk-forward") forecast evaluation.
//!
//! The paper evaluates predictors by sweeping the forecast origin across a
//! held-out window and reporting mean relative error per forecasting
//! period tau (Figs 5b, 6b). This module packages that procedure so
//! experiments, examples and downstream users measure models the same way.

use crate::metrics::{mae, mre, rmse};
use crate::model::LoadPredictor;

/// Accuracy of one model at one forecasting period.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonAccuracy {
    /// Forecasting period (slots ahead).
    pub tau: usize,
    /// Mean relative error (the paper's metric), as a fraction.
    pub mre: f64,
    /// Mean absolute error, in load units.
    pub mae: f64,
    /// Root mean squared error, in load units.
    pub rmse: f64,
    /// Number of (prediction, actual) pairs evaluated.
    pub samples: usize,
}

/// Evaluation settings.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// First index of `data` treated as held-out (origins never look ahead
    /// of their own position, so indices before this are training-only).
    pub eval_start: usize,
    /// Stride between forecast origins (1 = every slot; larger = faster).
    pub origin_stride: usize,
}

impl EvalConfig {
    /// Evaluates every origin in the held-out region.
    pub fn dense(eval_start: usize) -> Self {
        EvalConfig {
            eval_start,
            origin_stride: 1,
        }
    }
}

/// Runs rolling-origin evaluation of `model` on `data` at each `tau`.
///
/// For every origin `t` (stepping by `origin_stride`) with
/// `t >= max(eval_start, min_history)` and `t - 1 + tau < data.len()`, the
/// model predicts `tau` slots ahead from `data[..t]` and the prediction is
/// paired with `data[t - 1 + tau]`.
///
/// # Panics
/// Panics if `taus` is empty, any tau is zero, or the configuration leaves
/// no origins to evaluate.
pub fn rolling_accuracy(
    model: &dyn LoadPredictor,
    data: &[f64],
    taus: &[usize],
    cfg: &EvalConfig,
) -> Vec<HorizonAccuracy> {
    assert!(!taus.is_empty(), "need at least one tau");
    assert!(taus.iter().all(|&t| t >= 1), "taus must be >= 1");
    assert!(cfg.origin_stride >= 1, "stride must be >= 1");

    taus.iter()
        .map(|&tau| {
            let mut preds = Vec::new();
            let mut actuals = Vec::new();
            let mut t = cfg.eval_start.max(model.min_history());
            while t - 1 + tau < data.len() {
                preds.push(model.predict(&data[..t], tau));
                actuals.push(data[t - 1 + tau]);
                t += cfg.origin_stride;
            }
            assert!(
                !preds.is_empty(),
                "no origins to evaluate at tau = {tau}; series too short"
            );
            HorizonAccuracy {
                tau,
                mre: mre(&preds, &actuals).unwrap_or(f64::NAN),
                mae: mae(&preds, &actuals),
                rmse: rmse(&preds, &actuals),
                samples: preds.len(),
            }
        })
        .collect()
}

/// Calibrates the prediction-inflation factor the controller applies
/// (§8.2 inflates by a fixed 15%): the smallest multiplier `f` such that
/// `f * prediction >= actual` in at least `quantile` of rolling-origin
/// evaluations at horizon `tau`.
///
/// # Panics
/// Panics if `quantile` is outside `(0, 1]` or no origins are available.
pub fn suggest_inflation(
    model: &dyn LoadPredictor,
    data: &[f64],
    tau: usize,
    quantile: f64,
    cfg: &EvalConfig,
) -> f64 {
    assert!(quantile > 0.0 && quantile <= 1.0, "quantile in (0, 1]");
    assert!(tau >= 1, "tau must be >= 1");
    let mut ratios = Vec::new();
    let mut t = cfg.eval_start.max(model.min_history());
    while t - 1 + tau < data.len() {
        let pred = model.predict(&data[..t], tau);
        let actual = data[t - 1 + tau];
        if pred > 1e-9 {
            ratios.push(actual / pred);
        }
        t += cfg.origin_stride;
    }
    assert!(!ratios.is_empty(), "no origins to calibrate on");
    ratios.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "quantile is in [0, 1] and ceil() >= 0, so the cast is exact"
    )]
    let idx = ((ratios.len() as f64 * quantile).ceil() as usize).clamp(1, ratios.len()) - 1;
    ratios[idx].max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SeasonalNaive;

    fn periodic(period: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| 100.0 + 20.0 * ((i % period) as f64))
            .collect()
    }

    #[test]
    fn perfect_model_scores_zero() {
        let data = periodic(12, 12 * 8);
        let model = SeasonalNaive::new(12);
        let acc = rolling_accuracy(&model, &data, &[1, 3, 6], &EvalConfig::dense(12 * 4));
        assert_eq!(acc.len(), 3);
        for a in &acc {
            assert!(a.mre < 1e-12, "tau {}: {}", a.tau, a.mre);
            assert!(a.samples > 0);
        }
    }

    #[test]
    fn stride_reduces_samples_not_meaning() {
        let data = periodic(12, 12 * 10);
        let model = SeasonalNaive::new(12);
        let dense = rolling_accuracy(&model, &data, &[2], &EvalConfig::dense(48));
        let sparse = rolling_accuracy(
            &model,
            &data,
            &[2],
            &EvalConfig {
                eval_start: 48,
                origin_stride: 5,
            },
        );
        assert!(sparse[0].samples < dense[0].samples);
        assert!((sparse[0].mre - dense[0].mre).abs() < 1e-12);
    }

    #[test]
    fn inflation_covers_the_requested_quantile() {
        // A model that systematically underpredicts by 20% needs ~1.25x.
        struct Low;
        impl crate::model::LoadPredictor for Low {
            fn min_history(&self) -> usize {
                1
            }
            fn predict(&self, history: &[f64], _tau: usize) -> f64 {
                history.last().unwrap() * 0.8
            }
            fn name(&self) -> &str {
                "low"
            }
        }
        let data = vec![100.0; 200];
        let f = suggest_inflation(&Low, &data, 1, 0.99, &EvalConfig::dense(50));
        assert!((f - 1.25).abs() < 1e-9, "factor {f}");
        // A perfect model needs no inflation.
        let naive = SeasonalNaive::new(1);
        let f = suggest_inflation(&naive, &data, 1, 0.99, &EvalConfig::dense(50));
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn rejects_empty_evaluation_windows() {
        let data = periodic(12, 24);
        let model = SeasonalNaive::new(12);
        let _ = rolling_accuracy(&model, &data, &[30], &EvalConfig::dense(20));
    }
}
