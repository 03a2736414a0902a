//! `OnlinePredictor` against a twin that trims its history eagerly.
//!
//! The predictor keeps up to two windows of samples and drops the older
//! half in one move when the store fills, so that an observation is O(1).
//! The model must not be able to tell: every fit sees the window an eager
//! trim would have left, and every forecast is the same bits.

use pstore_forecast::model::LoadPredictor;
use pstore_forecast::online::{FitFn, OnlinePredictor};
use pstore_forecast::spar::{SparConfig, SparModel};
use std::sync::{Arc, Mutex, PoisonError};

/// The life-cycle with the history cut back to `max_history` after every
/// sample — how the predictor worked when each observation shifted the
/// whole window.
struct EagerTwin {
    fit: FitFn,
    history: Vec<f64>,
    model: Option<Box<dyn LoadPredictor>>,
    min_train: usize,
    refit_every: usize,
    observations_since_fit: usize,
    max_history: usize,
}

impl EagerTwin {
    fn trim(&mut self) {
        let excess = self.history.len().saturating_sub(self.max_history);
        self.history.drain(..excess);
    }

    fn try_fit(&mut self) {
        if self.history.len() < self.min_train {
            return;
        }
        if let Ok(model) = (self.fit)(&self.history) {
            self.model = Some(model);
            self.observations_since_fit = 0;
        }
    }

    fn seed(&mut self, data: &[f64]) {
        self.history.extend_from_slice(data);
        self.trim();
        self.try_fit();
    }

    fn observe(&mut self, value: f64) {
        self.history.push(value);
        self.trim();
        self.observations_since_fit += 1;
        let due = self.model.is_none() || self.observations_since_fit >= self.refit_every;
        if due {
            self.try_fit();
        }
    }

    fn forecast(&self, h: usize) -> Option<Vec<f64>> {
        let model = self.model.as_ref()?;
        if self.history.len() < model.min_history() {
            return None;
        }
        let raw = model.predict_horizon(&self.history, h);
        Some(
            raw.into_iter()
                .map(|v| if v < 0.0 { 0.0 } else { v })
                .collect(),
        )
    }
}

/// The windows a fit function was called with, as bit patterns.
type FitLog = Arc<Mutex<Vec<Vec<u64>>>>;

/// A SPAR fit that records every window it is handed.
fn recording_fit(cfg: SparConfig, log: FitLog) -> FitFn {
    Box::new(move |window: &[f64]| {
        let bits = window.iter().map(|v| v.to_bits()).collect();
        log.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(bits);
        SparModel::fit(window, &cfg).map(|m| Box::new(m) as Box<dyn LoadPredictor>)
    })
}

fn small_spar() -> SparConfig {
    SparConfig {
        period: 24,
        n_periods: 2,
        m_recent: 4,
        taus: vec![1, 2],
        ridge_lambda: 1e-6,
        max_rows: 2_000,
    }
}

/// A daily wave with a slow drift and deterministic jitter, so every
/// window — and every fit — differs.
fn sample(i: usize) -> f64 {
    let wave = (i as f64 * std::f64::consts::TAU / 24.0).sin();
    let jitter = ((i * 2_654_435_761) % 1_000) as f64 / 1_000.0;
    60.0 + 25.0 * wave + 0.01 * i as f64 + 3.0 * jitter
}

#[test]
fn lazy_compaction_is_invisible_to_fits_and_forecasts() {
    let cfg = small_spar();
    let (min_train, refit_every, max_history) = (cfg.min_history() + 8, 37usize, 150usize);
    let (log, twin_log) = (FitLog::default(), FitLog::default());
    let mut predictor = OnlinePredictor::new(
        recording_fit(cfg.clone(), Arc::clone(&log)),
        min_train,
        refit_every,
        max_history,
    );
    let mut twin = EagerTwin {
        fit: recording_fit(cfg, Arc::clone(&twin_log)),
        history: Vec::new(),
        model: None,
        min_train,
        refit_every,
        observations_since_fit: 0,
        max_history,
    };
    let same = |predictor: &OnlinePredictor, twin: &EagerTwin, at: &str| {
        let bits =
            |f: Option<Vec<f64>>| f.map(|f| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        assert_eq!(predictor.history_len(), twin.history.len(), "{at}");
        assert_eq!(predictor.is_ready(), twin.forecast(1).is_some(), "{at}");
        assert_eq!(
            bits(predictor.forecast(12)),
            bits(twin.forecast(12)),
            "{at}"
        );
        assert_eq!(
            predictor.last_observation().map(f64::to_bits),
            twin.history.last().map(|v| v.to_bits()),
            "{at}"
        );
    };

    // A cold start that becomes ready on its own, ...
    let mut next = 0usize;
    for _ in 0..min_train + 10 {
        predictor.observe(sample(next));
        twin.observe(sample(next));
        same(&predictor, &twin, &format!("cold observation {next}"));
        next += 1;
    }
    // ... a seed longer than both the window and the store behind it, ...
    let seed: Vec<f64> = (next..next + 2 * max_history + 61).map(sample).collect();
    next += seed.len();
    predictor.seed(&seed);
    twin.seed(&seed);
    same(&predictor, &twin, "after the long seed");
    // ... and more than two stores' worth of observations after it.
    for _ in 0..4 * max_history + 11 {
        predictor.observe(sample(next));
        twin.observe(sample(next));
        same(&predictor, &twin, &format!("observation {next}"));
        next += 1;
    }

    let log = log.lock().expect("no panics under the lock");
    let twin_log = twin_log.lock().expect("no panics under the lock");
    assert!(log.len() > 15, "only {} fits", log.len());
    assert_eq!(*log, *twin_log, "the fits saw different windows");
    assert_eq!(log.last().map(Vec::len), Some(max_history));
    assert_eq!(predictor.fit_failures(), 0);
}
