//! Extended predictor shoot-out (beyond the paper's §5 three-model
//! comparison): SPAR vs ARMA vs AR vs Holt–Winters vs seasonal-naive, on
//! both the B2W-style and the Wikipedia-style loads, across forecasting
//! periods — all evaluated with the same rolling-origin protocol.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::sweep::{Cell, Sweep};
use pstore_bench::{section, RunReporter};
use pstore_forecast::ar::{ArConfig, ArModel};
use pstore_forecast::arma::{ArmaConfig, ArmaModel};
use pstore_forecast::eval::{rolling_accuracy, suggest_inflation, EvalConfig, HorizonAccuracy};
use pstore_forecast::generators::{B2wLoadModel, WikipediaEdition, WikipediaLoadModel};
use pstore_forecast::holt_winters::{HoltWintersConfig, HoltWintersModel};
use pstore_forecast::model::{LoadPredictor, SeasonalNaive};
use pstore_forecast::spar::{SparConfig, SparModel};
use std::sync::Arc;

/// What one model cell produces: its display name, per-tau accuracy, and
/// (for the B2W set) the calibrated inflation factor.
struct ModelEval {
    name: String,
    acc: Vec<HorizonAccuracy>,
    inflation: Option<f64>,
}

fn print_table(evals: &[ModelEval], taus: &[usize]) {
    print!("{:<16}", "model");
    for tau in taus {
        print!(" {:>9}", format!("tau={tau}"));
    }
    println!();
    for e in evals {
        print!("{:<16}", e.name);
        for a in &e.acc {
            print!(" {:>8.1}%", 100.0 * a.mre);
        }
        println!();
    }
}

/// Builds one cell that fits `make_model` and evaluates it with the
/// rolling-origin protocol (plus, optionally, the inflation calibration
/// at `inflation_tau`).
fn model_cell(
    data: Arc<Vec<f64>>,
    taus: Vec<usize>,
    cfg: EvalConfig,
    inflation_tau: Option<usize>,
    make_model: impl FnOnce(&[f64]) -> Box<dyn LoadPredictor> + Send + 'static,
) -> Cell<ModelEval> {
    Cell::new("model", move || {
        let m = make_model(&data);
        let acc = rolling_accuracy(m.as_ref(), &data, &taus, &cfg);
        let inflation =
            inflation_tau.map(|tau| suggest_inflation(m.as_ref(), &data, tau, 0.95, &cfg));
        ModelEval {
            name: m.name().to_string(),
            acc,
            inflation,
        }
    })
}

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let stride = if quick { 101 } else { 31 };
    let fit_stride = if quick { 8 } else { 3 };

    let load = B2wLoadModel::default().generate(if quick { 30 } else { 35 });
    let data: Arc<Vec<f64>> = Arc::new(load.values().to_vec());
    let train = 28 * 1440;
    let cfg = EvalConfig {
        eval_start: train,
        origin_stride: stride,
    };
    let b2w_taus = vec![10usize, 30, 60];

    // One cell per (workload, model): each fits on the training prefix and
    // rolls through the evaluation window independently.
    let mut cells: Vec<Cell<ModelEval>> = Vec::new();
    type MakeModel = Box<dyn FnOnce(&[f64]) -> Box<dyn LoadPredictor> + Send>;
    let b2w_models: Vec<MakeModel> = vec![
        Box::new(move |data: &[f64]| {
            Box::new(SparModel::fit(&data[..train], &SparConfig::b2w_default()).expect("SPAR"))
                as Box<dyn LoadPredictor>
        }),
        Box::new(move |data: &[f64]| {
            Box::new(
                ArmaModel::fit(
                    &data[..train],
                    &ArmaConfig {
                        p: 30,
                        q: 10,
                        long_ar_order: Some(60),
                        ridge_lambda: 1e-4,
                        stride: fit_stride,
                    },
                )
                .expect("ARMA"),
            )
        }),
        Box::new(move |data: &[f64]| {
            Box::new(
                ArModel::fit(
                    &data[..train],
                    &ArConfig {
                        order: 30,
                        ridge_lambda: 1e-4,
                        stride: fit_stride,
                    },
                )
                .expect("AR"),
            )
        }),
        Box::new(move |data: &[f64]| {
            Box::new(
                HoltWintersModel::fit(&data[..train], &HoltWintersConfig::default()).expect("HW"),
            )
        }),
        Box::new(|_: &[f64]| Box::new(SeasonalNaive::new(1440)) as Box<dyn LoadPredictor>),
    ];
    let n_b2w = b2w_models.len();
    for make in b2w_models {
        cells.push(model_cell(
            Arc::clone(&data),
            b2w_taus.clone(),
            cfg.clone(),
            Some(60),
            make,
        ));
    }

    let wiki = WikipediaLoadModel::new(WikipediaEdition::German, 2016).generate(if quick {
        42
    } else {
        56
    });
    let wdata: Arc<Vec<f64>> = Arc::new(wiki.values().to_vec());
    let wtrain = 28 * 24;
    let wcfg = EvalConfig {
        eval_start: wtrain,
        origin_stride: 1,
    };
    let wiki_taus = vec![1usize, 3, 6];
    let wiki_models: Vec<MakeModel> = vec![
        Box::new(move |data: &[f64]| {
            let spar_cfg = SparConfig {
                period: 24,
                n_periods: 7,
                m_recent: 12,
                taus: vec![1, 2, 3, 4, 5, 6],
                ridge_lambda: 1e-4,
                max_rows: 20_000,
            };
            Box::new(SparModel::fit(&data[..wtrain], &spar_cfg).expect("SPAR"))
                as Box<dyn LoadPredictor>
        }),
        Box::new(move |data: &[f64]| {
            Box::new(
                HoltWintersModel::fit(
                    &data[..wtrain],
                    &HoltWintersConfig {
                        period: 24,
                        ..HoltWintersConfig::default()
                    },
                )
                .expect("HW"),
            )
        }),
        Box::new(|_: &[f64]| Box::new(SeasonalNaive::new(24)) as Box<dyn LoadPredictor>),
    ];
    for make in wiki_models {
        cells.push(model_cell(
            Arc::clone(&wdata),
            wiki_taus.clone(),
            wcfg.clone(),
            None,
            make,
        ));
    }

    let sweep = Sweep::from_reporter(&reporter);
    reporter.progress(&format!(
        "fitting and evaluating {} model/workload cells on {} thread(s)...",
        cells.len(),
        sweep.threads().min(cells.len())
    ));
    let evals = sweep.run(cells);
    let (b2w_evals, wiki_evals) = evals.split_at(n_b2w);

    section("B2W-style load (per-minute, daily period): MRE by tau");
    print_table(b2w_evals, &b2w_taus);

    section("Calibrated prediction inflation (95th percentile coverage)");
    // What §8.2's fixed 15% buys: the factor each model would actually need
    // for 95% of actuals to fall under inflated predictions at tau = 60.
    for e in b2w_evals {
        println!(
            "{:<16} needs x{:.3} (paper's fixed inflation: x1.150)",
            e.name,
            e.inflation.unwrap_or(f64::NAN)
        );
    }

    section("Wikipedia-style hourly load (German edition): MRE by tau (hours)");
    print_table(wiki_evals, &wiki_taus);

    println!();
    println!("Expected: SPAR leads on both workloads (multiple previous");
    println!("periods + transient offsets); Holt-Winters is the strongest");
    println!("classical baseline; plain AR/ARMA trail at long horizons; the");
    println!("seasonal-naive floor shows how much of the signal is pure");
    println!("periodicity.");

    reporter.finish();
}
