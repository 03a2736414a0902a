//! Fig 1: load on one of B2W's databases over three days — the diurnal
//! wave with a ~10x peak-to-trough ratio that motivates elastic
//! provisioning.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{ascii_plot, section, RunReporter};
use pstore_forecast::generators::B2wLoadModel;

fn main() {
    let reporter = RunReporter::from_args();
    section("Fig 1: three days of B2W-style load (requests/min)");
    let load = B2wLoadModel::default().generate(3);
    println!("{}", ascii_plot(load.values(), 96, 14));

    let smoothed = load.smoothed(31);
    println!("samples      : {}", load.len());
    println!("peak         : {:>10.0} req/min", load.max());
    println!("trough       : {:>10.0} req/min", load.min());
    println!(
        "peak/trough  : {:>10.1}x (smoothed {:.1}x; paper: ~10x)",
        load.max() / load.min().max(1.0),
        smoothed.max() / smoothed.min().max(1.0)
    );
    // Workload characterisation: how much of the variance the daily
    // pattern explains (this is what makes SPAR viable, §5).
    let hourly = load.downsample_mean(60);
    let decomp = pstore_forecast::decompose::decompose(hourly.values(), 24);
    println!(
        "seasonal strength (daily, hourly samples): {:.3}  trend: {:.3}",
        decomp.seasonal_strength(),
        decomp.trend_strength()
    );
    for day in 0..3 {
        let d = load.slice(day * 1440, (day + 1) * 1440);
        let peak_min = d
            .values()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        println!(
            "day {day}: mean {:>8.0}  peak {:>8.0} at {:02}:{:02}",
            d.mean(),
            d.max(),
            peak_min / 60,
            peak_min % 60
        );
    }

    reporter.finish();
}
