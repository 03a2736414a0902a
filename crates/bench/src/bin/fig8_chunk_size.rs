//! Fig 8: p50/p99 latency while reconfiguring with different migration
//! chunk sizes, against a static no-reconfiguration baseline. The paper
//! moves half of a 1 106 MB database at chunk sizes 1000–8000 kB with the
//! per-machine rate pinned at `Q̂`; 1000 kB chunks stay within acceptable
//! latency while larger chunks trade speed for latency spikes. The chunk
//! size maps to the pacing interval of a stream (1000 kB ≈ 4.1 s at
//! `R = 244 kB/s`), which is what we sweep.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{section, RunReporter};
use pstore_core::controller::{Action, Observation, ReconfigRequest, Strategy};
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};
use pstore_sim::latency::SLA_THRESHOLD_S;

/// Issues a single 1 -> 2 move at t = 30 s (the Fig 8 set-up: move half the
/// database off one machine while it serves Q̂).
struct HalveData {
    issued: bool,
}

impl Strategy for HalveData {
    fn tick(&mut self, obs: &Observation) -> Action {
        if !self.issued && obs.interval >= 1 && !obs.reconfiguring {
            self.issued = true;
            return Action::Reconfigure(ReconfigRequest::planned(2, 0));
        }
        Action::None
    }
    fn name(&self) -> &str {
        "halve"
    }
    fn initial_machines(&self) -> u32 {
        1
    }
}

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    // The 1 -> 2 move takes T = D/(2P) ≈ 387 s at the paper's D; quick mode
    // scales D down so the move still completes inside a short run.
    let seconds = if quick { 200 } else { 520 };
    // Per-machine rate pinned at Q̂ = 350 txn/s on the (single) source.
    let load = vec![350.0; seconds];

    section("Fig 8: latency during reconfiguration vs migration chunk size");
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "chunk", "pacing (s)", "p50 (ms)", "p99 (ms)", "viol (s)", "move (s)"
    );

    // Static baseline: no reconfiguration at all.
    let mut base_cfg = DetailedSimConfig::paper_defaults(load.clone(), 88);
    if quick {
        base_cfg.workload.num_skus = 1_500;
        base_cfg.workload.initial_carts = 400;
    }
    let baseline = run_detailed(
        &base_cfg,
        &mut pstore_core::controller::baselines::StaticController::new(1),
    );
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let base_p50: Vec<f64> = baseline.seconds.iter().map(|s| s.p50).collect();
    let base_p99: Vec<f64> = baseline.seconds.iter().map(|s| s.p99).collect();
    println!(
        "{:>12} {:>12} {:>10.1} {:>10.1} {:>12} {:>12}",
        "static",
        "-",
        1000.0 * avg(&base_p50),
        1000.0 * avg(&base_p99),
        baseline.violations.p99,
        "-"
    );

    // Chunk sizes as pacing multiples of the paper's 1000 kB (~4.1 s).
    for (label, pacing) in [
        ("1000 kB", 4.1),
        ("2000 kB", 8.2),
        ("4000 kB", 16.4),
        ("6000 kB", 24.6),
        ("8000 kB", 32.8),
    ] {
        let mut cfg = DetailedSimConfig::paper_defaults(load.clone(), 88);
        if quick {
            cfg.workload.num_skus = 1_500;
            cfg.workload.initial_carts = 400;
            cfg.params.d = std::time::Duration::from_secs(1200);
        }
        cfg.chunk_pacing_s = pacing;
        let r = run_detailed(&cfg, &mut HalveData { issued: false });
        let (start, end) = r
            .reconfig_spans
            .first()
            .copied()
            .unwrap_or((30.0, seconds as f64));
        // Latency during the move window (plus short tail while draining).
        let window: Vec<_> = r
            .seconds
            .iter()
            .filter(|s| (s.second as f64) >= start && (s.second as f64) <= end + 10.0)
            .collect();
        let p50: Vec<f64> = window.iter().map(|s| s.p50).collect();
        let p99: Vec<f64> = window.iter().map(|s| s.p99).collect();
        let viol = window.iter().filter(|s| s.p99 > SLA_THRESHOLD_S).count();
        println!(
            "{label:>12} {pacing:>12.1} {:>10.1} {:>10.1} {viol:>12} {:>12.0}",
            1000.0 * avg(&p50),
            1000.0 * avg(&p99),
            end - start,
        );
    }
    println!();
    println!("Expected shape (paper Fig 8): 1000 kB chunks cost little over");
    println!("static; larger chunks finish no faster at the same rate but");
    println!("concentrate partition occupancy into longer bursts, pushing");
    println!("p99 past the 500 ms SLA.");

    reporter.finish();
}
