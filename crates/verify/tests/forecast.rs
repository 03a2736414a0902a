//! The forecasters against `FOR-01` (finite output, and non-negative on
//! the clamped production path) and `FOR-02` (SPAR reproduces a periodic
//! signal), over seeded noisy periodic series.

use pstore_core::InvariantId;
use pstore_forecast::{
    ArConfig, ArModel, ArmaConfig, ArmaModel, HoltWintersConfig, HoltWintersModel, LoadPredictor,
    OnlinePredictor, SparConfig, SparModel,
};
use pstore_verify::forecast::{check_curve, check_curve_finite, check_spar_periodicity};
use pstore_verify::Violation;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A positive, roughly periodic series with multiplicative noise — the
/// kind of signal every model family should fit without blowing up.
fn noisy_periodic_series(rng: &mut StdRng, period: usize, len: usize) -> Vec<f64> {
    use std::f64::consts::PI;
    let base = rng.random_range(200.0..2_000.0);
    let amp = base * rng.random_range(0.2..0.6);
    (0..len)
        .map(|t| {
            let phase = 2.0 * PI * (t % period) as f64 / period as f64;
            let noise = 1.0 + 0.05 * (rng.random_range(0.0..1.0) - 0.5);
            ((base + amp * phase.sin()) * noise).max(1.0)
        })
        .collect()
}

/// SPAR periodicity, then 16 noisy series: each raw model family
/// (SPAR, AR, ARMA, Holt-Winters) must fit and predict finite values, and
/// `OnlinePredictor`'s forecast must pass `FOR-01` in full. One artifact
/// per check: 1 + 16 × 5.
#[test]
fn forecasters_are_finite_and_spar_is_periodic() {
    let mut checks: Vec<Vec<Violation>> = vec![check_spar_periodicity(1.0)];
    let unfit = |artifact: String, detail: &str| {
        vec![Violation::new(
            InvariantId::ForecastFinite,
            artifact,
            detail.to_string(),
        )]
    };

    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    let period = 48;
    let horizon = period;
    for series_idx in 0..16 {
        let series = noisy_periodic_series(&mut rng, period, period * 8);
        let spar_cfg = SparConfig {
            period,
            n_periods: 3,
            m_recent: 8,
            taus: vec![1],
            ridge_lambda: 1e-4,
            max_rows: 20_000,
        };
        let fits: [(&str, Option<Box<dyn LoadPredictor>>); 4] = [
            (
                "SPAR",
                SparModel::fit(&series, &spar_cfg)
                    .ok()
                    .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
            (
                "AR",
                ArModel::fit(
                    &series,
                    &ArConfig {
                        order: 8,
                        ridge_lambda: 1e-4,
                        stride: 1,
                    },
                )
                .ok()
                .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
            (
                "ARMA",
                ArmaModel::fit(
                    &series,
                    &ArmaConfig {
                        p: 4,
                        q: 2,
                        long_ar_order: None,
                        ridge_lambda: 1e-4,
                        stride: 1,
                    },
                )
                .ok()
                .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
            (
                "Holt-Winters",
                HoltWintersModel::fit(
                    &series,
                    &HoltWintersConfig {
                        period,
                        alpha: 0.3,
                        beta: 0.05,
                        gamma: 0.2,
                    },
                )
                .ok()
                .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
        ];
        for (family, model) in fits {
            let artifact = format!("{family} on noisy series {series_idx}");
            checks.push(match model {
                Some(m) => check_curve_finite(&artifact, &m.predict_horizon(&series, horizon)),
                None => unfit(artifact, "model failed to fit a well-conditioned series"),
            });
        }

        // The production path: OnlinePredictor's forecasts must additionally
        // be non-negative (FOR-01 in full).
        let min_history = spar_cfg.min_history();
        let mut online = OnlinePredictor::new(
            Box::new(move |hist: &[f64]| {
                SparModel::fit(hist, &spar_cfg).map(|m| Box::new(m) as Box<dyn LoadPredictor>)
            }),
            min_history,
            period,
            period * 16,
        );
        online.seed(&series);
        let artifact = format!("OnlinePredictor forecast on noisy series {series_idx}");
        checks.push(match online.forecast(horizon) {
            Some(curve) => check_curve(&artifact, &curve),
            None => unfit(artifact, "predictor not ready despite sufficient seed data"),
        });
    }
    assert_eq!(checks.concat(), vec![]);
    assert_eq!(checks.len(), 81);
}
