//! Shared runner for the §8.2 elasticity comparison (Fig 9, Fig 10,
//! Table 2): three days of B2W traffic replayed at 10x speed under four
//! provisioning approaches — static peak (10 machines), static trough
//! (4 machines), E-Store-style reactive, and P-Store with SPAR.

use crate::sweep::{Cell, Sweep};
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use pstore_sim::scenarios::{pstore_spar, reactive_default, static_alloc, ExperimentTrace};

/// Which §8.2 approach to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Fixed 10-machine cluster (peak provisioning, Fig 9a).
    StaticTen,
    /// Fixed 4-machine cluster (trough provisioning, Fig 9b).
    StaticFour,
    /// Reactive provisioning (Fig 9c).
    Reactive,
    /// P-Store with the SPAR predictive model (Fig 9d).
    PStore,
}

impl Approach {
    /// All four approaches, in the paper's presentation order.
    pub const ALL: [Approach; 4] = [
        Approach::StaticTen,
        Approach::StaticFour,
        Approach::Reactive,
        Approach::PStore,
    ];

    /// Display label matching Table 2.
    pub fn label(&self) -> &'static str {
        match self {
            Approach::StaticTen => "Static allocation with 10 servers",
            Approach::StaticFour => "Static allocation with 4 servers",
            Approach::Reactive => "Reactive provisioning",
            Approach::PStore => "P-Store",
        }
    }
}

/// Configuration of the comparison runs.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Evaluation days (the paper replays 3).
    pub days: usize,
    /// Trace seed.
    pub seed: u64,
    /// Scale down the workload for smoke runs.
    pub quick: bool,
}

/// Builds the detailed-sim configuration for the shared trace.
fn sim_config(cfg: &Fig9Config, trace: &ExperimentTrace) -> DetailedSimConfig {
    let mut sim = DetailedSimConfig::paper_defaults(trace.wall_seconds.clone(), cfg.seed);
    if cfg.quick {
        sim.workload.num_skus = 2_000;
        sim.workload.initial_carts = 600;
        sim.num_slots = 3_600;
        sim.warmup_txns = 40_000;
    }
    sim
}

/// Runs one approach over the trace.
fn run_approach(
    cfg: &Fig9Config,
    trace: &ExperimentTrace,
    approach: Approach,
) -> DetailedSimResult {
    let params = SystemParams::b2w_paper();
    let sim = sim_config(cfg, trace);
    let mut result = match approach {
        Approach::StaticTen => run_detailed(&sim, &mut static_alloc(10)),
        Approach::StaticFour => run_detailed(&sim, &mut static_alloc(4)),
        Approach::Reactive => run_detailed(&sim, &mut reactive_default(trace, &params)),
        Approach::PStore => run_detailed(&sim, &mut pstore_spar(trace, &params)),
    };
    result.strategy = approach.label().to_string();
    result
}

/// Runs all four approaches over one shared trace as cells of `sweep`
/// (each run is deterministic and independent; results and any captured
/// telemetry are reassembled in [`Approach::ALL`] order regardless of
/// thread count).
pub fn run_all_sweep(cfg: &Fig9Config, sweep: &Sweep) -> (ExperimentTrace, Vec<DetailedSimResult>) {
    let trace = ExperimentTrace::b2w(cfg.days, cfg.seed);
    let cells: Vec<Cell<DetailedSimResult>> = Approach::ALL
        .iter()
        .map(|&a| {
            let cfg = cfg.clone();
            let trace = trace.clone();
            Cell::new(a.label(), move || run_approach(&cfg, &trace, a))
        })
        .collect();
    let results = sweep.run(cells);
    (trace, results)
}
