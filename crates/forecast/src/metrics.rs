//! Forecast accuracy metrics.
//!
//! The paper reports Mean Relative Error (MRE) — "the deviation of the
//! predictions from the actual data" (§5) — which we take as
//! `mean(|pred - actual| / actual)` over slots with non-negligible actual
//! load. MAE/RMSE/MAPE/sMAPE are provided for completeness.

/// Mean relative error: `mean(|pred - actual| / |actual|)`, skipping slots
/// where `|actual| < eps` to avoid division blow-ups on idle periods.
///
/// Returns `None` if the inputs are empty or every slot is skipped.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mre(pred: &[f64], actual: &[f64]) -> Option<f64> {
    assert_eq!(pred.len(), actual.len(), "series must have equal length");
    let eps = 1e-9;
    let mut sum = 0.0;
    let mut n = 0usize;
    for (p, a) in pred.iter().zip(actual) {
        if a.abs() < eps {
            continue;
        }
        sum += (p - a).abs() / a.abs();
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Mean absolute error.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mae(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "series must have equal length");
    assert!(!pred.is_empty(), "series must be non-empty");
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn rmse(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "series must have equal length");
    assert!(!pred.is_empty(), "series must be non-empty");
    (pred
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).powi(2))
        .sum::<f64>()
        / pred.len() as f64)
        .sqrt()
}

/// Mean absolute percentage error, in percent (100 x MRE).
pub fn mape(pred: &[f64], actual: &[f64]) -> Option<f64> {
    mre(pred, actual).map(|m| m * 100.0)
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
    fn perfect_prediction_has_zero_error() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mre(&a, &a), Some(0.0));
        assert_eq!(mae(&a, &a), 0.0);
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn mre_matches_hand_computed_value() {
        // errors: |9-10|/10 = 0.1, |22-20|/20 = 0.1 -> mean 0.1
        let pred = [9.0, 22.0];
        let actual = [10.0, 20.0];
        let m = mre(&pred, &actual).unwrap();
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mre_skips_zero_actuals() {
        let pred = [5.0, 11.0];
        let actual = [0.0, 10.0];
        let m = mre(&pred, &actual).unwrap();
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mre_empty_or_all_zero_is_none() {
        assert_eq!(mre(&[], &[]), None);
        assert_eq!(mre(&[1.0], &[0.0]), None);
    }

    #[test]
    fn mae_and_rmse_on_constant_offset() {
        let pred = [2.0, 3.0, 4.0];
        let actual = [1.0, 2.0, 3.0];
        assert!((mae(&pred, &actual) - 1.0).abs() < 1e-12);
        assert!((rmse(&pred, &actual) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_penalises_outliers_more_than_mae() {
        let pred = [0.0, 0.0, 3.0];
        let actual = [0.0, 0.0, 0.0];
        assert!(rmse(&pred, &actual) > mae(&pred, &actual));
    }

    #[test]
    fn mape_is_percent_mre() {
        let pred = [11.0];
        let actual = [10.0];
        assert!((mape(&pred, &actual).unwrap() - 10.0).abs() < 1e-9);
    }
}
