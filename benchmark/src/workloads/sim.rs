//! `static_steady` and `elastic_day`: the detailed simulator, cut into one
//! slice per controller tick (30 simulated seconds) from outside.
//!
//! `static_steady` holds six machines under a flat 1 400 txn/s: the
//! per-transaction path `b2w` → `dbms` → `sim` does all the work and
//! `core`, `forecast` and migration none. `elastic_day` replays one B2W day
//! under P-Store with SPAR, the Fig 9 `--quick` P-Store cell: the same
//! layers used differently, with controller ticks, about twenty
//! reconfigurations, chunk events and in-flight routing beside the
//! transactions, and the paper's headline outcomes. Both use the Fig 9
//! `--quick` sizing (2 000 SKUs, 600 carts, 3 600 slots, 40 000 warm-up
//! transactions; about 5 MB of rows, cache-resident).

use super::{engine, Cut, Outcome, Slicer, Work, DEFAULT_SEED};
use crate::calib;
use crate::stats::median;
use pstore_core::controller::Strategy;
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};
use pstore_sim::scenarios::{pstore_spar, static_alloc, ExperimentTrace};
use std::time::Instant;

/// Offered load and cluster size of `static_steady`.
pub const STATIC_RATE: f64 = 1_400.0;
const STATIC_MACHINES: u32 = 6;

/// Which simulation, and how many simulated seconds of it, one pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// `elastic_day` (else `static_steady`).
    pub elastic: bool,
    /// Simulated seconds per pass.
    pub horizon_s: usize,
}

impl Spec {
    /// The timed pass: 30 ticks of flat load (repeated until the budget is
    /// spent), or the whole compressed day (8 640 s; one pass is a run).
    pub fn timed(elastic: bool) -> Spec {
        Spec {
            elastic,
            horizon_s: if elastic { 8_640 } else { 900 },
        }
    }

    /// A shorter pass of the same simulation for the traced run, which
    /// measures three configurations in the time the plain run has for
    /// one: for the day, midnight to 10:00 (trough, scale-in, morning ramp
    /// and scale-out).
    pub fn traced(elastic: bool) -> Spec {
        Spec {
            elastic,
            horizon_s: if elastic { 3_600 } else { 900 },
        }
    }

    /// The pass allocations are counted over.
    pub fn counted(elastic: bool) -> Spec {
        Spec {
            elastic,
            horizon_s: if elastic { 1_800 } else { 600 },
        }
    }

    /// Set-up only: the run ends right after the first tick.
    pub fn setup_only(elastic: bool) -> Spec {
        Spec {
            elastic,
            horizon_s: 1,
        }
    }
}

/// Seed of the B2W key stream. `DetailedSimConfig::seed` does not reach
/// `WorkloadConfig::seed`, so it is derived here; at the default seed it is
/// the generator's own default, which keeps `elastic_day` the Fig 9
/// `--quick` cell there.
fn workload_seed(default: u64, seed: u64) -> u64 {
    default ^ seed ^ DEFAULT_SEED
}

/// Mean offered load of the compressed day at the default seed, in txn/s.
/// `ExperimentTrace` pins each day's *peak*, so the demand a day carries,
/// and with it machines, transactions and host time per pass, swings by
/// ±12 % with the seed. Every seed's day is rescaled to carry this mean;
/// at the default seed the factor is exactly 1 and the day is Fig 9's.
const ELASTIC_MEAN_RATE: f64 = 1_184.249_857_928_674_6;

/// The day's trace, rescaled to the common mean demand.
fn elastic_trace(seed: u64) -> ExperimentTrace {
    let trace = ExperimentTrace::b2w(1, seed);
    let mean = trace.wall_seconds.iter().sum::<f64>() / trace.wall_seconds.len() as f64;
    let factor = ELASTIC_MEAN_RATE / mean;
    ExperimentTrace {
        minutes: trace.minutes.scaled(factor),
        wall_seconds: trace.wall_seconds.iter().map(|l| l * factor).collect(),
        ..trace
    }
}

fn build(spec: Spec, seed: u64) -> (DetailedSimConfig, Box<dyn Strategy>) {
    let (load, strategy): (Vec<f64>, Box<dyn Strategy>) = if spec.elastic {
        let trace = elastic_trace(seed);
        let controller = pstore_spar(&trace, &SystemParams::b2w_paper());
        (
            trace.wall_seconds[..spec.horizon_s].to_vec(),
            Box::new(controller),
        )
    } else {
        (
            vec![STATIC_RATE; spec.horizon_s],
            Box::new(static_alloc(STATIC_MACHINES)),
        )
    };
    // Only these fields are assigned; everything else stays whatever
    // `paper_defaults` says, so the simulator's configuration can grow or
    // shrink without touching the benchmark.
    let mut cfg = DetailedSimConfig::paper_defaults(load, seed);
    cfg.workload.seed = workload_seed(cfg.workload.seed, seed);
    cfg.workload.num_skus = 2_000;
    cfg.workload.initial_carts = 600;
    cfg.num_slots = 3_600;
    cfg.warmup_txns = 40_000;
    (cfg, strategy)
}

/// One pass: set-up, one `run_detailed`, and the checks on its result.
pub fn pass(spec: Spec, seed: u64) -> (Cut, Outcome, Vec<String>) {
    let probe_before = calib::run();
    let started = Instant::now();
    let (cfg, strategy) = build(spec, seed);
    let interval_s = cfg.monitor_interval_s;
    let work = Work::Arrivals(interval_s);
    let mut slicer = Slicer::new(strategy, work, 1, started, probe_before);
    let result = run_detailed(&cfg, &mut slicer);
    let cut = slicer.finish();

    let mut errors = Vec::new();
    let attempted = result.committed + result.aborted + result.dropped;
    let recorded: u64 = result.seconds.iter().map(|s| s.throughput).sum();
    if recorded != attempted {
        errors.push(format!(
            "committed+aborted+dropped = {attempted} but {recorded} transactions were recorded"
        ));
    }
    // The ticks saw every arrival up to the last tick; the recorder files
    // arrivals under the simulated second they arrived in.
    let seen_until = cut.slices.len() as f64 * interval_s;
    let before_last_tick: u64 = result
        .seconds
        .iter()
        .filter(|s| (s.second as f64) < seen_until)
        .map(|s| s.throughput)
        .sum();
    if before_last_tick as f64 != cut.work {
        errors.push(format!(
            "ticks reported {} arrivals, the simulator recorded {before_last_tick} before the last tick",
            cut.work
        ));
    }

    let p99_ms = if result.seconds.is_empty() {
        0.0
    } else {
        1e3 * median(result.seconds.iter().map(|s| s.p99).collect())
    };
    let total_time = result.seconds.len() as u64;
    let outcome = Outcome {
        attempted,
        failed: result.aborted + result.dropped,
        ok_time: total_time - result.violations.p99,
        total_time,
        avg_machines: result.avg_machines,
        reconfigurations: result.reconfig_spans.len() as u64,
        facts: vec![
            ("sim.p99_ms", p99_ms),
            ("sim.sla_p99_violation_s", result.violations.p99 as f64),
            ("sim.aborted", result.aborted as f64),
            ("sim.dropped", result.dropped as f64),
        ],
    };
    (cut, outcome, errors)
}

/// The per-transaction layer ledger: the engine loop on this workload's
/// database, timed layer by layer (see [`engine::ledger`]).
pub fn ledger(elastic: bool, seed: u64, budget: std::time::Duration) -> engine::Db {
    let (cfg, strategy) = build(Spec::setup_only(elastic), seed);
    let sizing = engine::Sizing {
        nodes: strategy.initial_machines(),
        partitions_per_node: cfg.params.partitions_per_node,
        num_slots: cfg.num_slots,
        num_skus: cfg.workload.num_skus,
        initial_carts: cfg.workload.initial_carts,
        warmup_txns: cfg.warmup_txns,
    };
    engine::ledger(&sizing, cfg.workload.seed, STATIC_RATE, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seeds_day_is_left_exactly_as_fig9_has_it() {
        let original = ExperimentTrace::b2w(1, DEFAULT_SEED);
        let mean = original.wall_seconds.iter().sum::<f64>() / original.wall_seconds.len() as f64;
        assert_eq!(
            mean, ELASTIC_MEAN_RATE,
            "the trace generator changed: re-derive the mean"
        );
        let rescaled = elastic_trace(DEFAULT_SEED);
        assert_eq!(rescaled.wall_seconds, original.wall_seconds);
        assert_eq!(rescaled.minutes.values(), original.minutes.values());
        // Another seed carries the same demand.
        let other = elastic_trace(7).wall_seconds;
        let other_mean = other.iter().sum::<f64>() / other.len() as f64;
        assert!((other_mean - ELASTIC_MEAN_RATE).abs() < 1e-6);
    }
}
