//! Fig 10: CDFs of the top 1% of per-second 50th/95th/99th percentile
//! latencies for the four elasticity approaches (same runs as Fig 9).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::fig9::{run_all_sweep, Fig9Config};
use pstore_bench::sweep::Sweep;
use pstore_bench::{section, RunReporter};
use pstore_sim::latency::{cdf_points, top_fraction};

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let cfg = Fig9Config {
        days: if quick { 1 } else { 3 },
        seed: 0x0709,
        quick,
    };
    reporter.progress("running the Fig 9 comparison to derive the CDFs...");
    let (_, results) = run_all_sweep(&cfg, &Sweep::from_reporter(&reporter));

    for (name, pick) in [("50th", 0usize), ("95th", 1), ("99th", 2)] {
        section(&format!(
            "Fig 10: CDF of the top 1% of per-second {name}-percentile latency"
        ));
        println!(
            "{:<36} latency (ms) at cumulative prob 0.1 .. 1.0",
            "approach"
        );
        for r in &results {
            let series: Vec<f64> = r
                .seconds
                .iter()
                .map(|s| match pick {
                    0 => s.p50,
                    1 => s.p95,
                    _ => s.p99,
                })
                .collect();
            let top = top_fraction(series, 0.01);
            let cdf = cdf_points(&top, 200);
            let at = |q: f64| -> f64 {
                cdf.iter()
                    .find(|(_, p)| *p >= q)
                    .map(|(v, _)| *v * 1000.0)
                    .unwrap_or(f64::NAN)
            };
            print!("{:<36}", r.strategy);
            for dec in 1..=10 {
                print!(" {:>7.0}", at(dec as f64 / 10.0));
            }
            println!();
        }
    }
    println!();
    println!("Reading: curves higher/left are better. Expected ordering");
    println!("(paper): static-10 best; P-Store close behind; static-4 beats");
    println!("P-Store only at the 50th percentile; reactive worst at every");
    println!("percentile because it reconfigures at peak capacity.");

    reporter.finish();
}
