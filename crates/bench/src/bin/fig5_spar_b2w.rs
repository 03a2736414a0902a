//! Fig 5: SPAR prediction quality on the B2W load.
//!
//! (a) 60-minute-ahead predictions against the actual load over a 24-hour
//!     window outside the training set;
//! (b) mean relative error as a function of the forecasting period tau;
//! plus the §5 text comparison SPAR vs ARMA vs AR at tau = 60 min
//! (paper: 10.4% / 12.2% / 12.5%).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{ascii_plot2, section, RunReporter};
use pstore_forecast::ar::{ArConfig, ArModel};
use pstore_forecast::arma::{ArmaConfig, ArmaModel};
use pstore_forecast::eval::{rolling_accuracy, EvalConfig};
use pstore_forecast::generators::B2wLoadModel;
use pstore_forecast::metrics::mre;
use pstore_forecast::model::LoadPredictor;
use pstore_forecast::spar::{SparConfig, SparModel};

const MIN_PER_DAY: usize = 1440;

fn rolling_mre(
    model: &dyn LoadPredictor,
    data: &[f64],
    eval_start: usize,
    tau: usize,
    stride: usize,
) -> f64 {
    rolling_accuracy(
        model,
        data,
        &[tau],
        &EvalConfig {
            eval_start,
            origin_stride: stride,
        },
    )[0]
    .mre
}

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let eval_days = if quick { 2 } else { 7 };
    let train_days = 28;
    let load = B2wLoadModel::default().generate(train_days + eval_days);
    let data = load.values();
    let train_len = train_days * MIN_PER_DAY;

    let spar = SparModel::fit(&data[..train_len], &SparConfig::b2w_default())
        .expect("SPAR fit on four weeks of training data");

    section("Fig 5a: actual vs 60-min-ahead SPAR predictions, 24-hour window");
    let day_start = train_len + MIN_PER_DAY / 2;
    let mut actual_day = Vec::new();
    let mut pred_day = Vec::new();
    for t in (day_start..day_start + MIN_PER_DAY).step_by(5) {
        pred_day.push(spar.predict(&data[..t - 59], 60)); // origin 60 min earlier
        actual_day.push(data[t]);
    }
    println!("{}", ascii_plot2(&actual_day, &pred_day, 96, 12));
    println!(
        "window MRE at tau=60: {:.1}%",
        100.0 * mre(&pred_day, &actual_day).unwrap()
    );

    section("Fig 5b: SPAR prediction accuracy vs forecasting period tau");
    let stride = if quick { 53 } else { 17 };
    println!("{:>10} {:>12}", "tau (min)", "MRE %");
    let mut errors = Vec::new();
    for tau in [10usize, 20, 30, 40, 50, 60] {
        let e = 100.0 * rolling_mre(&spar, data, train_len, tau, stride);
        println!("{tau:>10} {e:>12.1}");
        errors.push(e);
    }
    println!();
    println!("(paper Fig 5b: error grows gracefully from ~6% to ~10% over the",);
    println!(" same range; the shape — monotone, staying near 10% — holds)");
    assert!(
        errors.windows(2).all(|w| w[1] >= w[0] - 1.5),
        "error should not decrease sharply with tau: {errors:?}"
    );

    section("§5 text: SPAR vs ARMA vs AR at tau = 60 min");
    let fit_stride = if quick { 8 } else { 3 };
    let arma = ArmaModel::fit(
        &data[..train_len],
        &ArmaConfig {
            p: 30,
            q: 10,
            long_ar_order: Some(60),
            ridge_lambda: 1e-4,
            stride: fit_stride,
        },
    )
    .expect("ARMA fit");
    let ar = ArModel::fit(
        &data[..train_len],
        &ArConfig {
            order: 30,
            ridge_lambda: 1e-4,
            stride: fit_stride,
        },
    )
    .expect("AR fit");

    let eval_stride = if quick { 97 } else { 31 };
    let spar60 = 100.0 * rolling_mre(&spar, data, train_len, 60, eval_stride);
    let arma60 = 100.0 * rolling_mre(&arma, data, train_len, 60, eval_stride);
    let ar60 = 100.0 * rolling_mre(&ar, data, train_len, 60, eval_stride);
    println!("{:>8} {:>12} {:>12}", "model", "MRE % (ours)", "paper %");
    println!("{:>8} {:>12.1} {:>12}", "SPAR", spar60, "10.4");
    println!("{:>8} {:>12.1} {:>12}", "ARMA", arma60, "12.2");
    println!("{:>8} {:>12.1} {:>12}", "AR", ar60, "12.5");
    println!();
    if spar60 < arma60.min(ar60) {
        println!("ordering reproduced: SPAR < min(ARMA, AR)");
    } else {
        println!("WARNING: SPAR did not win on this seed — ordering not reproduced");
    }

    reporter.finish();
}
