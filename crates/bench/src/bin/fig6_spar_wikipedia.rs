//! Fig 6: SPAR on a workload with different periodicity and predictability
//! — hourly Wikipedia page views, English-like (strongly periodic) and
//! German-like (noisier).
//!
//! (a) 60-min-ahead (1-hour) predictions over a 24-hour window;
//! (b) MRE versus forecasting period tau = 1..6 hours. The paper finds the
//! German series under 10% up to 2 hours and within 13% at 6 hours, always
//! less predictable than English.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{ascii_plot2, section, RunReporter};
use pstore_forecast::eval::{rolling_accuracy, EvalConfig};
use pstore_forecast::generators::{WikipediaEdition, WikipediaLoadModel};
use pstore_forecast::model::LoadPredictor;
use pstore_forecast::spar::{SparConfig, SparModel};

fn spar_cfg() -> SparConfig {
    // Hourly data: daily period of 24 slots, n = 7 previous days, offsets
    // over the last 12 hours.
    SparConfig {
        period: 24,
        n_periods: 7,
        m_recent: 12,
        taus: vec![1, 2, 3, 4, 5, 6],
        ridge_lambda: 1e-4,
        max_rows: 20_000,
    }
}

fn main() {
    let reporter = RunReporter::from_args();
    let train_days = 28;
    let eval_days = 28;
    let mut curves = Vec::new();

    for (edition, name) in [
        (WikipediaEdition::English, "English"),
        (WikipediaEdition::German, "German"),
    ] {
        let load = WikipediaLoadModel::new(edition, 2016).generate(train_days + eval_days);
        let data = load.values().to_vec();
        let train_len = train_days * 24;
        let model = SparModel::fit(&data[..train_len], &spar_cfg())
            .unwrap_or_else(|e| panic!("SPAR fit for {name}: {e}"));

        section(&format!(
            "Fig 6a ({name}): actual vs 1-hour-ahead predictions, 24 hours"
        ));
        let start = train_len + 24;
        let mut actual = Vec::new();
        let mut pred = Vec::new();
        for t in start..start + 24 {
            pred.push(model.predict(&data[..t], 1));
            actual.push(data[t]);
        }
        println!("{}", ascii_plot2(&actual, &pred, 72, 10));
        println!(
            "peak load: {:.1}M req/hour (paper: EN ~9-10M, DE ~2-2.5M)",
            actual.iter().copied().fold(0.0, f64::max) / 1e6
        );

        let acc = rolling_accuracy(
            &model,
            &data,
            &[1, 2, 3, 4, 5, 6],
            &EvalConfig::dense(train_len),
        );
        let errs: Vec<f64> = acc.iter().map(|a| 100.0 * a.mre).collect();
        curves.push((name, errs));
    }

    section("Fig 6b: MRE % vs forecasting period tau (hours)");
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "edition", "1h", "2h", "3h", "4h", "5h", "6h"
    );
    for (name, errs) in &curves {
        print!("{name:>12}");
        for e in errs {
            print!(" {e:>8.1}");
        }
        println!();
    }
    println!();

    let en = &curves[0].1;
    let de = &curves[1].1;
    let en_worse: usize = (0..6).filter(|&i| en[i] > de[i]).count();
    println!(
        "German less predictable than English at {}/6 horizons (paper: all)",
        6 - en_worse
    );
    println!(
        "German error at 2h: {:.1}% (paper: under 10%); at 6h: {:.1}% (paper: ~13%)",
        de[1], de[5]
    );

    reporter.finish();
}
