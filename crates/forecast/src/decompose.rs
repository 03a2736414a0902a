//! Classical seasonal decomposition of load series.
//!
//! Splits a series into **trend** (centred moving average over one period),
//! **seasonal** (per-phase means of the detrended series, zero-centred) and
//! **residual** components — the standard additive decomposition. Useful
//! for characterising a workload before choosing predictor parameters:
//! the *seasonal strength* statistic quantifies how much of the variance
//! the daily pattern explains (high for B2W-like retail load, lower for
//! the German-Wikipedia-like series), which is exactly the property that
//! determines how well SPAR will do (§5).

/// ```
/// use pstore_forecast::decompose::decompose;
/// let daily: Vec<f64> = (0..24 * 4)
///     .map(|h| 100.0 + 30.0 * (2.0 * std::f64::consts::PI * (h % 24) as f64 / 24.0).sin())
///     .collect();
/// let d = decompose(&daily, 24);
/// assert!(d.seasonal_strength() > 0.9);
/// ```
///
/// An additive decomposition `y = trend + seasonal + residual`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Period used, in slots.
    pub period: usize,
    /// Centred moving-average trend (same length as the input).
    pub trend: Vec<f64>,
    /// Seasonal component (repeats with `period`, zero mean).
    pub seasonal: Vec<f64>,
    /// What remains.
    pub residual: Vec<f64>,
}

impl Decomposition {
    /// Seasonal strength in `[0, 1]`: `max(0, 1 - Var(resid) /
    /// Var(seasonal + resid))`. Values near 1 mean the period explains
    /// almost everything (Hyndman's FS statistic).
    pub fn seasonal_strength(&self) -> f64 {
        strength(&self.residual, &add(&self.seasonal, &self.residual))
    }

    /// Trend strength in `[0, 1]`: `max(0, 1 - Var(resid) / Var(trend +
    /// resid))`.
    pub fn trend_strength(&self) -> f64 {
        strength(&self.residual, &add(&self.trend, &self.residual))
    }
}

fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

fn variance(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64
}

fn strength(resid: &[f64], with: &[f64]) -> f64 {
    let vw = variance(with);
    if vw <= 0.0 {
        return 0.0;
    }
    (1.0 - variance(resid) / vw).max(0.0)
}

/// Decomposes `data` with the given period.
///
/// # Panics
/// Panics if `period < 2` or `data` spans fewer than two periods.
pub fn decompose(data: &[f64], period: usize) -> Decomposition {
    assert!(period >= 2, "period must be at least 2");
    assert!(
        data.len() >= 2 * period,
        "need at least two periods of data"
    );
    let n = data.len();

    // Centred moving average of window `period` (uses a window of
    // period+1 with half-weights at the ends when the period is even, the
    // textbook construction; edges fall back to the available window).
    let mut trend = vec![0.0; n];
    let half = period / 2;
    for (i, t) in trend.iter_mut().enumerate() {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        *t = data[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
    }

    // Seasonal: per-phase mean of the detrended series, centred to zero.
    let mut phase_sum = vec![0.0; period];
    let mut phase_count = vec![0usize; period];
    for i in 0..n {
        phase_sum[i % period] += data[i] - trend[i];
        phase_count[i % period] += 1;
    }
    let mut phase_mean: Vec<f64> = phase_sum
        .iter()
        .zip(&phase_count)
        .map(|(s, &c)| s / c.max(1) as f64)
        .collect();
    let grand = phase_mean.iter().sum::<f64>() / period as f64;
    for m in &mut phase_mean {
        *m -= grand;
    }

    let seasonal: Vec<f64> = (0..n).map(|i| phase_mean[i % period]).collect();
    let residual: Vec<f64> = (0..n).map(|i| data[i] - trend[i] - seasonal[i]).collect();
    Decomposition {
        period,
        trend,
        seasonal,
        residual,
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

    fn wave(period: usize, len: usize, amp: f64, slope: f64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64;
                100.0 + slope * i as f64 + amp * phase.sin()
            })
            .collect()
    }

    #[test]
    fn components_reassemble_the_series() {
        let data = wave(24, 24 * 6, 30.0, 0.1);
        let d = decompose(&data, 24);
        for (i, &y) in data.iter().enumerate() {
            let recon = d.trend[i] + d.seasonal[i] + d.residual[i];
            assert!((recon - y).abs() < 1e-9);
        }
    }

    #[test]
    fn seasonal_component_has_zero_mean_and_right_period() {
        let data = wave(24, 24 * 8, 30.0, 0.0);
        let d = decompose(&data, 24);
        let mean: f64 = d.seasonal[..24].iter().sum::<f64>() / 24.0;
        assert!(mean.abs() < 1e-9);
        // Repeats exactly.
        for i in 0..24 {
            assert_eq!(d.seasonal[i], d.seasonal[i + 24]);
        }
    }

    #[test]
    fn pure_seasonal_signal_scores_high_strength() {
        let data = wave(24, 24 * 10, 40.0, 0.0);
        let d = decompose(&data, 24);
        assert!(
            d.seasonal_strength() > 0.95,
            "strength {}",
            d.seasonal_strength()
        );
    }

    #[test]
    fn white_noise_scores_low_strength() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f64> = (0..24 * 10).map(|_| rng.random_range(0.0..1.0)).collect();
        let d = decompose(&data, 24);
        assert!(
            d.seasonal_strength() < 0.4,
            "strength {}",
            d.seasonal_strength()
        );
    }

    #[test]
    fn trend_strength_sees_the_slope() {
        let flat = wave(24, 24 * 8, 10.0, 0.0);
        let sloped = wave(24, 24 * 8, 10.0, 2.0);
        let df = decompose(&flat, 24);
        let ds = decompose(&sloped, 24);
        assert!(ds.trend_strength() > df.trend_strength());
        assert!(ds.trend_strength() > 0.9);
    }

    #[test]
    fn b2w_load_is_strongly_seasonal_wikipedia_german_less_so() {
        use crate::generators::{B2wLoadModel, WikipediaEdition, WikipediaLoadModel};
        let b2w = B2wLoadModel::default().generate(7);
        let b2w_hourly = b2w.downsample_mean(60);
        let d_b2w = decompose(b2w_hourly.values(), 24);

        let de = WikipediaLoadModel::new(WikipediaEdition::German, 5).generate(7);
        let d_de = decompose(de.values(), 24);

        assert!(
            d_b2w.seasonal_strength() > d_de.seasonal_strength(),
            "B2W {} vs DE {}",
            d_b2w.seasonal_strength(),
            d_de.seasonal_strength()
        );
        assert!(d_b2w.seasonal_strength() > 0.8);
    }

    #[test]
    #[should_panic(expected = "two periods")]
    fn rejects_short_series() {
        let _ = decompose(&[1.0; 30], 24);
    }
}
