//! A full simulated day of online-retail traffic under the P-Store
//! controller: real B2W transactions on the real partitioned engine, with
//! live migrations planned by the SPAR-fed dynamic program.
//!
//! Run with: `cargo run --release --example retail_day`

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "example code: abort loudly"
)]
use pstore::core::params::SystemParams;
use pstore::sim::detailed::{run_detailed, DetailedSimConfig};
use pstore::sim::latency::SLA_THRESHOLD_S;
use pstore::sim::scenarios::{pstore_spar, ExperimentTrace};

fn main() {
    // One evaluation day after the standard four training weeks, replayed
    // at the paper's 10x speed (8 640 wall-seconds).
    let trace = ExperimentTrace::b2w(1, 42);
    let params = SystemParams::b2w_paper();
    let mut controller = pstore_spar(&trace, &params);

    let mut cfg = DetailedSimConfig::paper_defaults(trace.wall_seconds.clone(), 42);
    cfg.workload.num_skus = 2_000;
    cfg.workload.initial_carts = 600;
    cfg.num_slots = 3_600;

    println!("simulating one day of retail traffic (10x compressed)...");
    let result = run_detailed(&cfg, &mut controller);

    println!("\n=== day summary under {} ===", result.strategy);
    println!("transactions committed : {}", result.committed);
    println!("business aborts        : {}", result.aborted);
    println!("client timeouts        : {}", result.dropped);
    println!("average machines       : {:.2}", result.avg_machines);
    println!(
        "SLA violations (s)     : p50 {}, p95 {}, p99 {}",
        result.violations.p50, result.violations.p95, result.violations.p99
    );
    println!("reconfigurations       : {}", result.reconfig_spans.len());
    for (i, (s, e)) in result.reconfig_spans.iter().enumerate() {
        println!("  move {i}: {:>6.0}s .. {:>6.0}s ({:.0}s)", s, e, e - s);
    }

    println!("\ntop procedures (committed/aborted):");
    for (name, c, a) in result.procedure_mix.iter().take(8) {
        println!("  {name:<24} {c:>9} / {a}");
    }

    // An hour-by-hour digest (each trace hour = 360 wall seconds).
    println!("\nhour  offered(txn/s)  machines  p99(ms)  bad-secs");
    for hour in 0..24 {
        let lo = hour * 360;
        let hi = ((hour + 1) * 360).min(result.seconds.len());
        if lo >= result.seconds.len() {
            break;
        }
        let window = &result.seconds[lo..hi];
        let offered = trace.wall_seconds[lo..hi.min(trace.wall_seconds.len())]
            .iter()
            .sum::<f64>()
            / (hi - lo) as f64;
        let machines = window.iter().map(|s| s.machines).sum::<f64>() / window.len() as f64;
        let p99 = window.iter().map(|s| s.p99).fold(0.0f64, f64::max);
        let bad = window.iter().filter(|s| s.p99 > SLA_THRESHOLD_S).count();
        println!(
            "{hour:>4}  {offered:>14.0}  {machines:>8.1}  {:>7.0}  {bad:>8}",
            p99 * 1000.0
        );
    }
}
