//! Holt–Winters triple exponential smoothing (additive seasonality).
//!
//! A classic seasonal forecaster, included as an additional baseline next
//! to the paper's SPAR/ARMA/AR comparison (§5). Holt–Winters tracks a
//! level, a trend and one seasonal index per phase of the period,
//! updating them with exponential smoothing as observations arrive:
//!
//! ```text
//! level_t  = alpha * (y_t - season_{t-T}) + (1 - alpha) * (level + trend)
//! trend_t  = beta  * (level_t - level_{t-1}) + (1 - beta) * trend
//! season_t = gamma * (y_t - level_t) + (1 - gamma) * season_{t-T}
//! yhat_{t+tau} = level + tau * trend + season_{t+tau-T}
//! ```
//!
//! Unlike SPAR it cannot exploit multiple previous periods (`n > 1`) or a
//! window of recent offsets, which is why SPAR wins on the B2W load; but
//! it is cheap, fully online, and a strong sanity baseline.

use crate::model::{FitError, LoadPredictor};

/// Configuration for a Holt–Winters fit.
#[derive(Debug, Clone)]
pub struct HoltWintersConfig {
    /// Season length `T` in slots.
    pub period: usize,
    /// Level smoothing factor in (0, 1).
    pub alpha: f64,
    /// Trend smoothing factor in [0, 1).
    pub beta: f64,
    /// Seasonal smoothing factor in [0, 1).
    pub gamma: f64,
}

impl Default for HoltWintersConfig {
    fn default() -> Self {
        HoltWintersConfig {
            period: 1440,
            alpha: 0.3,
            beta: 0.01,
            gamma: 0.2,
        }
    }
}

/// A fitted Holt–Winters model.
///
/// `fit` runs the smoothing recursions over the training series to obtain
/// the terminal state; `predict` re-runs them over the supplied history so
/// forecasts always reflect the latest observations (the model itself is
/// stateless between calls, like the other predictors in this crate).
#[derive(Debug, Clone)]
pub struct HoltWintersModel {
    cfg: HoltWintersConfig,
}

/// Smoothing state: level, trend, and per-phase seasonal indices.
#[derive(Debug, Clone)]
struct HwState {
    level: f64,
    trend: f64,
    season: Vec<f64>,
}

impl HoltWintersModel {
    /// Validates the configuration against the training series and returns
    /// the model. (Holt–Winters has no least-squares fit; the smoothing
    /// factors are hyper-parameters and the state is recomputed from
    /// history at prediction time.)
    ///
    /// # Errors
    /// Returns [`FitError::NotEnoughData`] when `train` spans fewer than
    /// two full periods.
    pub fn fit(train: &[f64], cfg: &HoltWintersConfig) -> Result<Self, FitError> {
        assert!(cfg.period > 0, "period must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.alpha) && cfg.alpha > 0.0,
            "alpha in (0,1)"
        );
        assert!((0.0..1.0).contains(&cfg.beta), "beta in [0,1)");
        assert!((0.0..1.0).contains(&cfg.gamma), "gamma in [0,1)");
        if train.len() < 2 * cfg.period {
            return Err(FitError::NotEnoughData {
                required: 2 * cfg.period,
                available: train.len(),
            });
        }
        Ok(HoltWintersModel { cfg: cfg.clone() })
    }

    fn run(&self, data: &[f64]) -> HwState {
        let t_len = self.cfg.period;
        // Initial level/trend from the first two periods; initial seasonal
        // indices from the first period's deviation from its mean.
        let first_mean: f64 = data[..t_len].iter().sum::<f64>() / t_len as f64;
        let second_mean: f64 = data[t_len..2 * t_len].iter().sum::<f64>() / t_len as f64;
        let mut state = HwState {
            level: first_mean,
            trend: (second_mean - first_mean) / t_len as f64,
            season: data[..t_len].iter().map(|y| y - first_mean).collect(),
        };
        for (t, &y) in data.iter().enumerate().skip(t_len) {
            let phase = t % t_len;
            let seasonal = state.season[phase];
            let prev_level = state.level;
            state.level = self.cfg.alpha * (y - seasonal)
                + (1.0 - self.cfg.alpha) * (state.level + state.trend);
            state.trend =
                self.cfg.beta * (state.level - prev_level) + (1.0 - self.cfg.beta) * state.trend;
            state.season[phase] =
                self.cfg.gamma * (y - state.level) + (1.0 - self.cfg.gamma) * seasonal;
        }
        state
    }

    /// The configuration.
    pub fn config(&self) -> &HoltWintersConfig {
        &self.cfg
    }
}

impl LoadPredictor for HoltWintersModel {
    fn min_history(&self) -> usize {
        2 * self.cfg.period
    }

    fn predict(&self, history: &[f64], tau: usize) -> f64 {
        assert!(tau >= 1, "tau must be at least 1");
        self.predict_horizon(history, tau)[tau - 1]
    }

    fn predict_horizon(&self, history: &[f64], h: usize) -> Vec<f64> {
        assert!(
            history.len() >= self.min_history(),
            "history shorter than two periods"
        );
        let state = self.run(history);
        let t_len = self.cfg.period;
        (1..=h)
            .map(|tau| {
                let phase = (history.len() + tau - 1) % t_len;
                state.level + tau as f64 * state.trend + state.season[phase]
            })
            .collect()
    }

    fn name(&self) -> &str {
        "Holt-Winters"
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
    use crate::metrics::mre;

    fn seasonal_signal(period: usize, len: usize, trend: f64) -> Vec<f64> {
        (0..len)
            .map(|t| {
                let phase = 2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64;
                100.0 + trend * t as f64 + 30.0 * phase.sin()
            })
            .collect()
    }

    #[test]
    fn tracks_a_pure_seasonal_signal() {
        let period = 48;
        let data = seasonal_signal(period, period * 10, 0.0);
        let model = HoltWintersModel::fit(
            &data[..period * 8],
            &HoltWintersConfig {
                period,
                ..HoltWintersConfig::default()
            },
        )
        .unwrap();
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for t in period * 8..data.len() - 4 {
            preds.push(model.predict(&data[..t], 4));
            actuals.push(data[t - 1 + 4]);
        }
        let err = mre(&preds, &actuals).unwrap();
        assert!(err < 0.03, "MRE on clean seasonal signal: {err}");
    }

    #[test]
    fn captures_linear_trend() {
        let period = 24;
        let data = seasonal_signal(period, period * 12, 0.5);
        let model = HoltWintersModel::fit(
            &data,
            &HoltWintersConfig {
                period,
                alpha: 0.4,
                beta: 0.05,
                gamma: 0.2,
            },
        )
        .unwrap();
        // Far-ahead prediction must keep climbing with the trend.
        let near = model.predict(&data, 1);
        let far = model.predict(&data, period);
        assert!(far > near, "trend not extrapolated: {near} vs {far}");
    }

    #[test]
    fn horizon_matches_point_predictions() {
        let data = seasonal_signal(24, 24 * 8, 0.1);
        let model = HoltWintersModel::fit(
            &data,
            &HoltWintersConfig {
                period: 24,
                ..HoltWintersConfig::default()
            },
        )
        .unwrap();
        let h = model.predict_horizon(&data, 6);
        for (i, v) in h.iter().enumerate() {
            assert_eq!(model.predict(&data, i + 1), *v);
        }
    }

    #[test]
    fn rejects_short_training() {
        let err = HoltWintersModel::fit(
            &[1.0; 30],
            &HoltWintersConfig {
                period: 24,
                ..HoltWintersConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FitError::NotEnoughData { .. }));
    }

    #[test]
    fn spar_beats_holt_winters_on_b2w_load() {
        // SPAR exploits multiple previous periods and a recent-offset
        // window; Holt-Winters has one exponential seasonal memory. On the
        // noisy multi-scale B2W load SPAR should win at tau = 60.
        use crate::generators::B2wLoadModel;
        use crate::spar::{SparConfig, SparModel};
        let load = B2wLoadModel::default().generate(32);
        let data = load.values();
        let train = 28 * 1440;
        let spar = SparModel::fit(&data[..train], &SparConfig::b2w_default()).unwrap();
        let hw = HoltWintersModel::fit(&data[..train], &HoltWintersConfig::default()).unwrap();
        let eval = |m: &dyn LoadPredictor| {
            let mut preds = Vec::new();
            let mut actuals = Vec::new();
            let mut t = train;
            while t - 1 + 60 < data.len() {
                preds.push(m.predict(&data[..t], 60));
                actuals.push(data[t - 1 + 60]);
                t += 173;
            }
            mre(&preds, &actuals).unwrap()
        };
        let e_spar = eval(&spar);
        let e_hw = eval(&hw);
        assert!(
            e_spar < e_hw,
            "SPAR {e_spar:.4} should beat Holt-Winters {e_hw:.4}"
        );
    }
}
