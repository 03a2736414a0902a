//! Sparse Periodic Auto-Regression (SPAR), the default P-Store predictor.
//!
//! Equation (8) of the paper models the load `tau` slots ahead as a linear
//! combination of the values at the same phase in the `n` previous periods
//! plus the offset of the `m` most recent observations from their expected
//! (periodic-average) level:
//!
//! ```text
//! y(t + tau) = sum_{k=1..n} a_k * y(t + tau - k*T)
//!            + sum_{j=1..m} b_j * dy(t - j)
//!
//! dy(t - j)  = y(t - j) - (1/n) * sum_{k=1..n} y(t - j - k*T)
//! ```
//!
//! The periodic terms capture the diurnal shape; the offset terms capture
//! how far today deviates from an average day. Coefficients are fit with
//! linear least squares over the training window, pooling rows across a
//! configurable set of forecast offsets so one coefficient vector serves
//! the whole planning horizon.
//!
//! A fit writes that regression straight into the layout the solver
//! takes, [`lstsq_in_place`]'s `[A | b]` stored by columns, in a
//! [`FitScratch`] a refitting forecaster keeps: each column top to
//! bottom, one row per origin and pooled `tau` in origin-major order, the
//! ridge rows last. Only where the values lie differs from a row-major
//! build; the rows, their order and every value (each sample's offset is
//! computed once, by the same expression) are the same, and the solver
//! adds the same terms in the same order, so the coefficients are the
//! same bits.
//!
//! ```
//! use pstore_forecast::spar::{SparConfig, SparModel};
//! use pstore_forecast::model::LoadPredictor;
//! // A perfectly daily signal is predicted exactly.
//! let cfg = SparConfig { period: 48, n_periods: 2, m_recent: 4,
//!                        taus: vec![1], ridge_lambda: 1e-6, max_rows: 4000 };
//! let data: Vec<f64> = (0..48 * 8)
//!     .map(|i| 100.0 + ((i % 48) as f64))
//!     .collect();
//! let model = SparModel::fit(&data[..48 * 6], &cfg).unwrap();
//! let pred = model.predict(&data, 1);
//! assert!((pred - data[data.len() - 48]).abs() < 1e-6);
//! ```

use crate::linalg::{lstsq_in_place, ridge_rows, write_ridge_rows};
use crate::model::{FitError, LoadPredictor};

/// Configuration for a SPAR fit.
#[derive(Debug, Clone)]
pub struct SparConfig {
    /// Period `T` in slots (1440 for per-minute data with a daily cycle,
    /// 168 for hourly data with a weekly cycle, ...).
    pub period: usize,
    /// Number of previous periods `n` used by the periodic component.
    pub n_periods: usize,
    /// Number of recent offsets `m` used by the transient component.
    pub m_recent: usize,
    /// Forecast offsets pooled into the training set. Empty means `{1}`.
    pub taus: Vec<usize>,
    /// Ridge regularisation strength (periodic lag columns of a strongly
    /// periodic signal are highly correlated).
    pub ridge_lambda: f64,
    /// Upper bound on training rows; origins are subsampled with a uniform
    /// stride to respect it.
    pub max_rows: usize,
}

impl SparConfig {
    /// The paper's B2W setting: per-minute slots, daily period `T = 1440`,
    /// `n = 7`, `m = 30` (§5).
    pub fn b2w_default() -> Self {
        SparConfig {
            period: 1440,
            n_periods: 7,
            m_recent: 30,
            taus: vec![1, 15, 30, 45, 60],
            ridge_lambda: 1e-4,
            max_rows: 20_000,
        }
    }

    /// Minimum history length required for fitting or predicting.
    pub fn min_history(&self) -> usize {
        Shape::of(self).min_history()
    }
}

impl Default for SparConfig {
    fn default() -> Self {
        Self::b2w_default()
    }
}

/// A fitted SPAR model.
#[derive(Debug, Clone)]
pub struct SparModel {
    shape: Shape,
    /// The `a_k` then the `b_j`: `coefficients[k-1]` multiplies
    /// `y(t + tau - k*T)` and `coefficients[n + j - 1]` multiplies `dy(t - j)`.
    coefficients: Vec<f64>,
}

/// What of a [`SparConfig`] a fitted model predicts with.
#[derive(Debug, Clone, Copy)]
struct Shape {
    period: usize,
    n_periods: usize,
    m_recent: usize,
}

impl Shape {
    fn of(cfg: &SparConfig) -> Self {
        Shape {
            period: cfg.period,
            n_periods: cfg.n_periods,
            m_recent: cfg.m_recent,
        }
    }

    fn min_history(self) -> usize {
        self.n_periods * self.period + self.m_recent + 1
    }

    /// `dy(s) = y(s) - (1/n) * sum_{k=1..n} y(s - k*T)`, the offset of
    /// sample `s` from its periodic average.
    fn offset(self, data: &[f64], s: usize) -> f64 {
        let periodic_mean = (1..=self.n_periods)
            .map(|k| data[s - k * self.period])
            .sum::<f64>()
            / self.n_periods as f64;
        data[s] - periodic_mean
    }

    /// The `dy(t - j)` features for `j = 1..=m` at forecast origin `t`
    /// (an index into `data`, with `data[t]` the latest observation).
    fn recent_offsets(self, data: &[f64], t: usize) -> impl Iterator<Item = f64> + '_ {
        (1..=self.m_recent).map(move |j| self.offset(data, t - j))
    }
}

/// Working storage for [`SparModel::fit_with`]: the regression system,
/// stored by columns as [`lstsq_in_place`] takes it, and each sample's
/// offset `dy`. A forecaster that refits on a schedule keeps one: the
/// system is sized at the first fit for the most rows its configuration
/// can give, and the offsets grow only with the window, so a refit whose
/// window is no longer than an earlier one writes into memory it already
/// owns.
#[derive(Debug, Clone, Default)]
pub struct FitScratch {
    system: Vec<f64>,
    offsets: Vec<f64>,
}

impl SparModel {
    /// Fits SPAR coefficients on `train` with least squares (Eq 8).
    ///
    /// # Errors
    /// Returns [`FitError::NotEnoughData`] if the training window is shorter
    /// than `n*T + m` plus the largest pooled `tau`, or
    /// [`FitError::Numerical`] if the regression is degenerate.
    pub fn fit(train: &[f64], config: &SparConfig) -> Result<Self, FitError> {
        Self::fit_with(train, config, &mut FitScratch::default())
    }

    /// [`fit`](Self::fit) over caller-kept working storage: features,
    /// targets and ridge rows are written straight into `scratch`, column
    /// by column, and factorised there. The coefficients do not depend on
    /// what the scratch held before.
    ///
    /// # Errors
    /// As [`fit`](Self::fit).
    pub fn fit_with(
        train: &[f64],
        config: &SparConfig,
        scratch: &mut FitScratch,
    ) -> Result<Self, FitError> {
        validate(config);
        let cols = scratch.build(train, config)?;
        let coefficients = lstsq_in_place(&mut scratch.system, cols)
            .map_err(|e| FitError::Numerical(e.to_string()))?;
        Ok(SparModel {
            shape: Shape::of(config),
            coefficients,
        })
    }

    /// The periodic coefficients `a_k`.
    pub fn periodic_coefficients(&self) -> &[f64] {
        &self.coefficients[..self.shape.n_periods]
    }

    /// The recent-offset coefficients `b_j`.
    pub fn recent_coefficients(&self) -> &[f64] {
        &self.coefficients[self.shape.n_periods..]
    }
}

impl FitScratch {
    /// Writes the regression system for `train` into `self.system`, laid
    /// out for [`lstsq_in_place`], and returns its number of columns.
    fn build(&mut self, train: &[f64], config: &SparConfig) -> Result<usize, FitError> {
        let taus: &[usize] = if config.taus.is_empty() {
            &[1]
        } else {
            &config.taus
        };
        let max_tau = taus.iter().max().copied().unwrap_or(1);
        let shape = Shape::of(config);
        let (period, n, m) = (shape.period, shape.n_periods, shape.m_recent);
        // Forecast origin t needs: t - m - n*T >= 0 and t + tau < len and
        // t + tau - n*T >= 0. The first condition dominates.
        let first_origin = n * period + m;
        let required = first_origin + max_tau + n + m + 1;
        if train.len() < required {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }

        let last_origin = train.len() - 1 - max_tau;
        let origins_available = last_origin - first_origin + 1;
        let rows_wanted = config.max_rows.max(n + m + 1);
        let stride = (origins_available * taus.len())
            .div_ceil(rows_wanted)
            .max(1);
        let cols = n + m;
        let nrows = origins_available.div_ceil(stride) * taus.len();
        if nrows < cols {
            return Err(FitError::NotEnoughData {
                required,
                available: train.len(),
            });
        }

        // One row `[periodic lags | recent offsets | target]` per origin
        // and pooled tau, origin-major, then the ridge rows; written a
        // column at a time, every value by index. Each sample's offset is
        // computed once, however many origins reach back to it.
        let ridge = ridge_rows(cols, config.ridge_lambda);
        let rows = nrows + ridge;
        let FitScratch { system, offsets } = self;
        let first_offset = first_origin - m;
        offsets.clear();
        offsets.extend((first_offset..last_origin).map(|s| shape.offset(train, s)));
        // Every value is written below, so the buffer keeps nothing across
        // fits. It is sized once for the most rows this configuration can
        // give — `nrows <= rows_wanted + taus.len()` for any window, by the
        // choice of stride — so a forecaster whose window grows neither
        // copies its system nor holds two at once.
        let len = rows * (cols + 1);
        if system.capacity() < len {
            *system = Vec::with_capacity((rows_wanted + taus.len() + ridge) * (cols + 1));
        }
        system.resize(len, 0.0);
        for (c, column) in system.chunks_exact_mut(rows).enumerate() {
            let origins = column[..nrows]
                .chunks_exact_mut(taus.len())
                .zip((first_origin..=last_origin).step_by(stride));
            if c < n {
                let back = (c + 1) * period;
                for (cells, t) in origins {
                    for (x, tau) in cells.iter_mut().zip(taus) {
                        *x = train[t + tau - back];
                    }
                }
            } else if c < cols {
                let j = c - n + 1;
                for (cells, t) in origins {
                    cells.fill(offsets[t - j - first_offset]);
                }
            } else {
                for (cells, t) in origins {
                    for (x, tau) in cells.iter_mut().zip(taus) {
                        *x = train[t + tau];
                    }
                }
            }
        }
        write_ridge_rows(system, cols, config.ridge_lambda);
        Ok(cols)
    }
}

fn validate(cfg: &SparConfig) {
    assert!(cfg.period > 0, "period must be positive");
    assert!(cfg.n_periods > 0, "n_periods must be positive");
    assert!(cfg.m_recent > 0, "m_recent must be positive");
    assert!(
        cfg.taus.iter().all(|&t| t >= 1 && t <= cfg.period),
        "all taus must be in 1..=period"
    );
}

impl LoadPredictor for SparModel {
    fn min_history(&self) -> usize {
        self.shape.min_history()
    }

    fn predict(&self, history: &[f64], tau: usize) -> f64 {
        assert!(tau >= 1, "tau must be at least 1");
        assert!(
            tau <= self.shape.period,
            "tau ({tau}) beyond one period ({}) is not supported by SPAR",
            self.shape.period
        );
        assert!(
            history.len() >= self.min_history(),
            "history ({}) shorter than required ({})",
            history.len(),
            self.min_history()
        );
        let t = history.len() - 1; // forecast origin index
        let mut y = 0.0;
        for (k, a_k) in self.periodic_coefficients().iter().enumerate() {
            // Periodic lag y(t + tau - k*T); k*T >= T >= tau keeps it in
            // the past.
            let idx = t + tau - (k + 1) * self.shape.period;
            y += a_k * history[idx];
        }
        for (b_j, dy) in self
            .recent_coefficients()
            .iter()
            .zip(self.shape.recent_offsets(history, t))
        {
            y += b_j * dy;
        }
        y
    }

    fn predict_horizon(&self, history: &[f64], h: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_horizon_into(history, h, &mut out);
        out
    }

    fn predict_horizon_into(&self, history: &[f64], h: usize, out: &mut Vec<f64>) {
        // Offsets are shared by every tau; compute them once.
        assert!(
            h <= self.shape.period,
            "horizon beyond one period is not supported by SPAR"
        );
        assert!(
            history.len() >= self.min_history(),
            "history shorter than required"
        );
        let t = history.len() - 1;
        let transient: f64 = self
            .recent_coefficients()
            .iter()
            .zip(self.shape.recent_offsets(history, t))
            .map(|(b, d)| b * d)
            .sum();
        out.clear();
        out.extend((1..=h).map(|tau| {
            let periodic: f64 = self
                .periodic_coefficients()
                .iter()
                .enumerate()
                .map(|(k, a_k)| a_k * history[t + tau - (k + 1) * self.shape.period])
                .sum();
            periodic + transient
        }));
    }

    fn name(&self) -> &str {
        "SPAR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mre;

    /// A noiseless signal that is exactly periodic with period `t`.
    fn periodic_signal(t: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let phase = (i % t) as f64 / t as f64;
                100.0 + 50.0 * (2.0 * std::f64::consts::PI * phase).sin()
            })
            .collect()
    }

    fn small_cfg() -> SparConfig {
        SparConfig {
            period: 48,
            n_periods: 3,
            m_recent: 6,
            taus: vec![1, 4, 8],
            ridge_lambda: 1e-6,
            max_rows: 5_000,
        }
    }

    #[test]
    fn exact_on_noiseless_periodic_signal() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 10);
        let train_len = cfg.period * 8;
        let model = SparModel::fit(&data[..train_len], &cfg).unwrap();
        // predict(history = ..t, tau) targets data[t - 1 + tau].
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for t in train_len..data.len() - 8 {
            for tau in [1usize, 8] {
                preds.push(model.predict(&data[..t], tau));
                actuals.push(data[t - 1 + tau]);
            }
        }
        let err = mre(&preds, &actuals).unwrap();
        assert!(err < 1e-6, "MRE on noiseless periodic signal: {err}");
    }

    #[test]
    fn transient_offsets_improve_shifted_days() {
        // Periodic base with day-level amplitude variation in training (so
        // the offset terms carry signal), plus a +20% shift on the final
        // day: the offset terms should pull predictions up. Compare against
        // a purely periodic model (b = 0).
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(9);
        let mut data = periodic_signal(cfg.period, cfg.period * 10);
        for day in 0..10 {
            let factor: f64 = 1.0 + rng.random_range(-0.1..0.1);
            for v in &mut data[day * cfg.period..(day + 1) * cfg.period] {
                *v *= factor;
            }
        }
        let shift_start = cfg.period * 9;
        for v in &mut data[shift_start..] {
            *v *= 1.2;
        }
        let train_len = cfg.period * 8;
        let model = SparModel::fit(&data[..train_len], &cfg).unwrap();

        let mut zeroed = model.clone();
        zeroed.coefficients[cfg.n_periods..].fill(0.0);

        let origin = shift_start + cfg.m_recent + 2;
        let (mut err_full, mut err_periodic) = (0.0, 0.0);
        for t in origin..data.len() - 4 {
            let actual = data[t - 1 + 4];
            err_full += (model.predict(&data[..t], 4) - actual).abs();
            err_periodic += (zeroed.predict(&data[..t], 4) - actual).abs();
        }
        assert!(
            err_full < err_periodic,
            "offset terms should help: {err_full} vs {err_periodic}"
        );
    }

    #[test]
    fn horizon_matches_point_predictions() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 9);
        let model = SparModel::fit(&data[..cfg.period * 7], &cfg).unwrap();
        let hist = &data[..cfg.period * 8];
        let horizon = model.predict_horizon(hist, 12);
        for (i, v) in horizon.iter().enumerate() {
            let point = model.predict(hist, i + 1);
            assert!((point - v).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_insufficient_history() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 2);
        assert!(matches!(
            SparModel::fit(&data, &cfg),
            Err(FitError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn periodic_coefficients_sum_near_one_for_periodic_signal() {
        // For a purely periodic signal the periodic terms must reproduce the
        // signal, so sum(a_k) ~ 1 (any convex combination of identical
        // periodic lags works; ridge pulls towards the symmetric one).
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 10);
        let model = SparModel::fit(&data[..cfg.period * 8], &cfg).unwrap();
        let sum: f64 = model.periodic_coefficients().iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum(a_k) = {sum}");
    }

    #[test]
    #[should_panic(expected = "beyond one period")]
    fn predict_rejects_tau_beyond_period() {
        let cfg = small_cfg();
        let data = periodic_signal(cfg.period, cfg.period * 9);
        let model = SparModel::fit(&data[..cfg.period * 8], &cfg).unwrap();
        let _ = model.predict(&data, cfg.period + 1);
    }

    /// The coefficients' bit patterns.
    fn coefficient_bits(model: &SparModel) -> Vec<u64> {
        model.coefficients.iter().map(|c| c.to_bits()).collect()
    }

    /// Five-minute B2W ticks with the live forecaster's 13-column shape
    /// (fewer rows, for a debug build), and per-minute B2W load with the
    /// 37-column B2W default.
    fn narrow_and_wide() -> ((Vec<f64>, SparConfig), (Vec<f64>, SparConfig)) {
        use crate::generators::B2wLoadModel;
        let (model, _) = B2wLoadModel::four_and_a_half_months(7);
        let ticks = model.generate(14).downsample_mean(5).values().to_vec();
        let tick = SparConfig {
            period: 288,
            n_periods: 7,
            m_recent: 6,
            taus: vec![1, 3, 6, 12],
            ridge_lambda: 1e-4,
            max_rows: 3_000,
        };
        let minutes = model.generate(9).values().to_vec();
        let wide = SparConfig {
            max_rows: 4_000,
            ..SparConfig::b2w_default()
        };
        ((ticks, tick), (minutes, wide))
    }

    #[test]
    fn a_reused_scratch_fits_what_a_fresh_one_does() {
        let ((ticks, tick), (minutes, wide)) = narrow_and_wide();
        // Two windows of different lengths, then the wide system, then a
        // narrow one again over the wide one's leftovers.
        let fits = [
            (&ticks[..12 * 288], &tick),
            (&ticks[300..300 + 10 * 288 + 17], &tick),
            (&minutes[..], &wide),
            (&ticks[..12 * 288], &tick),
        ];
        let mut scratch = FitScratch::default();
        for (i, (data, cfg)) in fits.into_iter().enumerate() {
            let reused = SparModel::fit_with(data, cfg, &mut scratch).unwrap();
            let fresh = SparModel::fit(data, cfg).unwrap();
            assert_eq!(
                coefficient_bits(&reused),
                coefficient_bits(&fresh),
                "fit {i}"
            );
        }
    }

    /// The twin of the test above: a build that wrote only the ridge rows'
    /// diagonal, leaving the rest of those rows as the wider system before
    /// it left them, must not pass for a fresh fit.
    #[test]
    #[should_panic(expected = "stale ridge rows")]
    fn ridge_rows_left_stale_are_caught() {
        let ((ticks, tick), (minutes, wide)) = narrow_and_wide();
        let window = &ticks[..12 * 288];
        let fresh = SparModel::fit(window, &tick).unwrap();
        let mut scratch = FitScratch::default();
        SparModel::fit_with(&minutes, &wide, &mut scratch).unwrap();
        let stale = scratch.system.clone();
        let cols = scratch.build(window, &tick).unwrap();
        let rows = scratch.system.len() / (cols + 1);
        for c in 0..=cols {
            for r in (0..cols).filter(|&r| r != c) {
                let i = c * rows + rows - cols + r;
                scratch.system[i] = stale[i];
            }
        }
        let coefficients = lstsq_in_place(&mut scratch.system, cols).unwrap();
        let bits: Vec<u64> = coefficients.iter().map(|c| c.to_bits()).collect();
        assert_eq!(bits, coefficient_bits(&fresh), "stale ridge rows");
    }

    #[test]
    fn accuracy_decays_gracefully_with_tau_on_noisy_signal() {
        // Add mild noise; MRE at tau=1 should be <= MRE at tau=16 (stale
        // offsets), and both should stay small. Mirrors Fig 5b's trend.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f64> = periodic_signal(cfg.period, cfg.period * 12)
            .into_iter()
            .map(|v| v * (1.0 + rng.random_range(-0.05..0.05)))
            .collect();
        let train_len = cfg.period * 9;
        let model = SparModel::fit(&data[..train_len], &cfg).unwrap();
        let eval = |tau: usize| {
            let mut preds = Vec::new();
            let mut actuals = Vec::new();
            for t in train_len..data.len() - tau {
                preds.push(model.predict(&data[..t], tau));
                actuals.push(data[t - 1 + tau]);
            }
            mre(&preds, &actuals).unwrap()
        };
        let short = eval(1);
        let long = eval(16);
        assert!(short < 0.1, "tau=1 MRE too high: {short}");
        assert!(long < 0.15, "tau=16 MRE too high: {long}");
        assert!(short <= long + 0.01, "short {short} vs long {long}");
    }
}
