//! Fig 7: parameter discovery — ramp the transaction rate on a single
//! machine until the latency constraint breaks; set `Q̂` to 80% and `Q` to
//! 65% of the saturation point (§4.1, §8.1: saturation at 438 txn/s with 6
//! partitions, hence `Q̂ = 350`, `Q = 285`).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
#![allow(
    clippy::cast_possible_truncation,
    reason = "simulation seconds are tiny; indexing a load curve by them cannot truncate"
)]
use pstore_bench::{ascii_plot, section, RunReporter};
use pstore_core::controller::baselines::StaticController;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    // Ramp 50 -> 650 txn/s over the run.
    let seconds = if quick { 300 } else { 1200 };
    let load: Vec<f64> = (0..seconds)
        .map(|s| 50.0 + 600.0 * s as f64 / seconds as f64)
        .collect();
    let mut cfg = DetailedSimConfig::paper_defaults(load.clone(), 7);
    if quick {
        cfg.workload.num_skus = 1_000;
        cfg.workload.initial_carts = 300;
    }
    let result = run_detailed(&cfg, &mut StaticController::new(1));

    section("Fig 7: increasing throughput on a single machine (6 partitions)");
    let p99: Vec<f64> = result.seconds.iter().map(|s| s.p99 * 1000.0).collect();
    println!("p99 latency (ms) while offered load ramps 50 -> 650 txn/s:");
    println!("{}", ascii_plot(&p99, 96, 12));

    println!(
        "{:>12} {:>12} {:>10} {:>10}",
        "load (txn/s)", "thr (txn/s)", "p50 (ms)", "p99 (ms)"
    );
    let step = seconds / 12;
    for w in result.seconds.chunks(step) {
        let mid = w[w.len() / 2].second as usize;
        let thr = w.iter().map(|s| s.throughput).sum::<u64>() as f64 / w.len() as f64;
        let p50 = w.iter().map(|s| s.p50).sum::<f64>() / w.len() as f64;
        let p99 = w.iter().map(|s| s.p99).sum::<f64>() / w.len() as f64;
        println!(
            "{:>12.0} {:>12.0} {:>10.1} {:>10.1}",
            load[mid.min(load.len() - 1)],
            thr,
            p50 * 1000.0,
            p99 * 1000.0
        );
    }

    // Saturation: first load at which p99 stays above 500 ms.
    let mut saturation = None;
    for w in result.seconds.windows(5) {
        if w.iter().all(|s| s.p99 > 0.5) {
            saturation = Some(load[w[0].second as usize]);
            break;
        }
    }
    println!();
    match saturation {
        Some(s) => {
            println!("saturation point       : {s:>7.0} txn/s (paper: 438)");
            println!(
                "=> Q̂ = 80% saturation  : {:>7.0} txn/s (paper: 350)",
                0.8 * s
            );
            println!(
                "=> Q  = 65% saturation : {:>7.0} txn/s (paper: 285)",
                0.65 * s
            );
        }
        None => println!("the ramp never saturated — extend the load range"),
    }

    reporter.finish();
}
