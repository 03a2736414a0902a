//! Fig 13: actual load versus the effective capacity of three allocation
//! strategies over two 4-day windows of the 4.5-month simulation — an
//! ordinary week (left) and the Black Friday week (right). The Simple
//! time-of-day schedule looks adequate until the load deviates from the
//! pattern; P-Store rides the surge by combining prediction with its
//! reactive fallback.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{ascii_plot2, section, RunReporter};
use pstore_core::params::SystemParams;
use pstore_forecast::generators::B2wLoadModel;
use pstore_sim::fast::{run_fast, FastSimConfig, FastSimResult};
use pstore_sim::scenarios::{
    pstore_spar_fast, simple_schedule, static_alloc, PEAK_TXN_RATE, TRAINING_DAYS,
};

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    // Black Friday is day 115 of the 135-day window (day 87 of evaluation).
    let (model, total_days) = B2wLoadModel::four_and_a_half_months(0x0812);
    let eval_days = if quick {
        92
    } else {
        total_days - TRAINING_DAYS
    };
    let raw = model.generate(TRAINING_DAYS + eval_days);
    let eval_start = TRAINING_DAYS * 1440;
    let normal_peak = raw.values()[eval_start..eval_start + 14 * 1440]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let scaled = raw.scaled(PEAK_TXN_RATE / normal_peak);
    let train = &scaled.values()[..eval_start];
    let eval = &scaled.values()[eval_start..];

    let params = SystemParams::b2w_paper();
    let cfg = FastSimConfig {
        params: params.clone(),
        slot_duration_s: 60.0,
        tick_every_slots: 5,
        record_timeline: true,
    };

    let runs: Vec<(&str, FastSimResult)> = vec![
        (
            "P-Store SPAR",
            run_fast(
                &cfg,
                eval,
                &mut pstore_spar_fast(train, eval[0], &params, params.q),
            ),
        ),
        (
            "Simple 9/2",
            run_fast(&cfg, eval, &mut simple_schedule(9, 2)),
        ),
        ("Static 10", run_fast(&cfg, eval, &mut static_alloc(10))),
    ];

    // Windows: an ordinary 4-day stretch and the 4 days around Black
    // Friday (eval day 87).
    let bf_day = 115 - TRAINING_DAYS;
    let windows = [
        ("ordinary days 40-44", 40usize.min(eval_days - 4)),
        (
            "Black Friday window",
            bf_day.saturating_sub(2).min(eval_days.saturating_sub(4)),
        ),
    ];

    for (label, start_day) in windows {
        let lo = start_day * 1440;
        let hi = ((start_day + 4) * 1440).min(eval.len());
        section(&format!(
            "Fig 13 ({label}): load (#) vs effective capacity (*)"
        ));
        let load_window = &eval[lo..hi];
        for (name, r) in &runs {
            let capacity: Vec<f64> = r.capacity_timeline[lo..hi]
                .iter()
                .map(|&c| c as f64)
                .collect();
            println!("--- {name}");
            println!("{}", ascii_plot2(load_window, &capacity, 96, 9));
            let short = load_window
                .iter()
                .zip(&capacity)
                .filter(|(l, c)| l > c)
                .count();
            println!(
                "minutes with insufficient capacity in window: {short} / {}",
                hi - lo
            );
        }
    }

    section("Whole-run summary");
    println!(
        "{:<16} {:>12} {:>14} {:>9}",
        "strategy", "avg machines", "% time short", "moves"
    );
    for (name, r) in &runs {
        println!(
            "{:<16} {:>12.2} {:>14.3} {:>9}",
            name,
            r.avg_machines(),
            r.pct_insufficient(),
            r.reconfigurations
        );
    }
    println!();
    println!("expected (paper): Simple matches the ordinary week but breaks");
    println!("on Black Friday; Static-10 wastes machines all quarter and");
    println!("still gets caught by the surge; P-Store tracks both.");

    reporter.finish();
}
