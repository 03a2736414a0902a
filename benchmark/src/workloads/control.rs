//! `control_loop`: 105 days of five-minute controller ticks in the slot
//! simulator (`run_fast`) under P-Store with a live SPAR forecaster, after
//! 28 training days, with Black Friday on evaluation day 87.
//!
//! `forecast` and `core` do all the work and `dbms` and `b2w` none: this is
//! the workload every engine optimisation bypasses, and the sensitive
//! instrument for decision quality (slots short of capacity, machines,
//! reconfigurations). A slice is seven simulated days (2 016 ticks).

use super::{Cut, Mode, Outcome, Slicer, Work};
use crate::{calib, spans};
use pstore_core::controller::forecaster::{LoadForecaster, SparForecaster};
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::controller::Strategy;
use pstore_core::params::SystemParams;
use pstore_forecast::generators::B2wLoadModel;
use pstore_sim::fast::{run_fast, FastSimConfig};
use pstore_sim::scenarios::{
    per_tick, pstore_spar_fast, realtime_planner, static_alloc, tick_spar_config, PEAK_TXN_RATE,
    TICKS_PER_DAY, TRAINING_DAYS,
};
use std::collections::VecDeque;
use std::time::Instant;

const EVAL_DAYS: usize = 105;
const TICKS_PER_SLICE: usize = 7 * TICKS_PER_DAY;

/// Mean load of the evaluation window after scaling, in txn/s. Fig 12 pins
/// a normal day's peak at the benchmark's peak rate instead; a single
/// promotion in the first fortnight then rescales the whole curve, and
/// average machines swung from 3.3 to 5.1 across seeds. Pinning the mean
/// keeps the demand, and so the controller's work, comparable across seeds;
/// normal peaks land near the peak rate and Black Friday well beyond it.
const MEAN_TXN_RATE: f64 = 0.45 * PEAK_TXN_RATE;

/// Per-minute training and evaluation load.
fn curves(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let (model, _) = B2wLoadModel::four_and_a_half_months(seed);
    let raw = model.generate(TRAINING_DAYS + EVAL_DAYS);
    let eval_start = TRAINING_DAYS * 1440;
    let eval = &raw.values()[eval_start..];
    let mean = eval.iter().sum::<f64>() / eval.len() as f64;
    let scaled = raw.scaled(MEAN_TXN_RATE / mean);
    let (train, eval) = scaled.values().split_at(eval_start);
    (train.to_vec(), eval.to_vec())
}

fn config() -> FastSimConfig {
    let mut cfg = FastSimConfig::paper_defaults();
    cfg.record_timeline = false;
    cfg
}

/// One pass: generate the curves, seed the forecaster, run the months.
pub fn pass(seed: u64, mode: Mode) -> (Cut, Outcome, Vec<String>) {
    let probe_before = calib::run();
    let started = Instant::now();
    let (train, eval) = curves(seed);
    let params = SystemParams::b2w_paper();
    let strategy: Box<dyn Strategy> = match mode {
        Mode::Plain => Box::new(pstore_spar_fast(&train, eval[0], &params, params.q)),
        Mode::Traced => Box::new(traced_controller(&train, eval[0], &params)),
    };
    let mut slicer = Slicer::new(
        strategy,
        Work::Ticks,
        TICKS_PER_SLICE,
        started,
        probe_before,
    );
    let result = run_fast(&config(), &eval, &mut slicer);
    let cut = slicer.finish();
    let ticks = (eval.len() / 5) as u64;
    let outcome = Outcome {
        attempted: ticks,
        failed: 0,
        ok_time: result.total_slots - result.insufficient_slots,
        total_time: result.total_slots,
        avg_machines: result.avg_machines(),
        reconfigurations: result.reconfigurations,
        facts: vec![
            ("core.insufficient_pct", result.pct_insufficient()),
            ("core.insufficient_slots", result.insufficient_slots as f64),
        ],
    };
    (cut, outcome, Vec::new())
}

/// Host nanoseconds `run_fast` itself spends per slot, measured under a
/// controller that does nothing.
pub fn fast_slot_ns(seed: u64) -> f64 {
    let (_, eval) = curves(seed);
    let started = Instant::now();
    let result = run_fast(&config(), &eval, &mut static_alloc(6));
    started.elapsed().as_nanos() as f64 / result.total_slots as f64
}

/// `pstore_spar_fast` rebuilt around a forecaster that records a span per
/// call and scores every forecast. The traced run checks that this mirror
/// decides exactly as the original does.
fn traced_controller(
    train_minutes: &[f64],
    eval_first_load: f64,
    params: &SystemParams,
) -> PStoreController<TimedForecaster> {
    let mut inner = SparForecaster::new(tick_spar_config(), 7 * TICKS_PER_DAY, 40 * TICKS_PER_DAY);
    spans::begin("forecast.seed", 1);
    inner.seed(&per_tick(train_minutes));
    spans::end();
    PStoreController::new(
        realtime_planner(params, params.q),
        TimedForecaster {
            inner,
            tick: 0,
            due: [VecDeque::new(), VecDeque::new()],
        },
        PStoreConfig {
            horizon: 48,
            initial_machines: ((eval_first_load * 1.15 / params.q).ceil() as u32)
                .clamp(1, params.max_machines),
            ..PStoreConfig::default()
        },
    )
}

/// Forecast leads scored against what was later observed, in ticks.
const SCORED_LEADS: [usize; 2] = [1, 12];
const APE_SUM: [&str; 2] = ["forecast.ape_tau1_sum", "forecast.ape_tau12_sum"];
const APE_N: [&str; 2] = ["forecast.ape_tau1_n", "forecast.ape_tau12_n"];

struct TimedForecaster {
    inner: SparForecaster,
    /// Observations so far.
    tick: usize,
    /// Per scored lead: `(tick the prediction is for, predicted load)`.
    due: [VecDeque<(usize, f64)>; 2],
}

impl LoadForecaster for TimedForecaster {
    fn observe(&mut self, load: f64) {
        self.tick += 1;
        for (lead, due) in self.due.iter_mut().enumerate() {
            while due.front().is_some_and(|&(tick, _)| tick <= self.tick) {
                let (tick, predicted) = due.pop_front().expect("front was just seen");
                if tick == self.tick && load > 0.0 {
                    spans::add(APE_SUM[lead], (predicted - load).abs() / load);
                    spans::add(APE_N[lead], 1.0);
                }
            }
        }
        spans::begin("forecast.observe", 1);
        self.inner.observe(load);
        spans::end();
    }

    fn forecast(&mut self, horizon: usize) -> Option<Vec<f64>> {
        spans::begin("forecast.forecast", 1);
        let forecast = self.inner.forecast(horizon);
        spans::end();
        if let Some(values) = &forecast {
            for (lead, due) in self.due.iter_mut().enumerate() {
                if let Some(&predicted) = values.get(SCORED_LEADS[lead] - 1) {
                    due.push_back((self.tick + SCORED_LEADS[lead], predicted));
                }
            }
        }
        forecast
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Mean absolute percentage error of the forecasts scored so far at the
/// two scored leads.
pub fn mape_pct() -> [f64; 2] {
    [0, 1].map(|lead| match spans::counter(APE_N[lead]) {
        n if n > 0.0 => 100.0 * spans::counter(APE_SUM[lead]) / n,
        _ => 0.0,
    })
}
