//! Simulator smoke run: times a fixed grid of detailed-sim cells through
//! the [`pstore_bench::sweep`] runner and prints one JSON row — cells/s,
//! simulated-txns/s and peak RSS — to stdout. Performance is measured by
//! `benchmark/run.sh` (see `benchmark/README.md`); this bin remains as
//! the determinism probe of the sweep runner: its counters must not
//! depend on `--threads`.
//!
//! Takes the shared [`RunReporter`] flags only; `--quick` runs a smaller
//! grid for CI smoke.

use pstore_bench::sweep::{Cell, Sweep};
use pstore_bench::RunReporter;
use pstore_core::controller::baselines::StaticController;
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use std::time::Duration;
use std::time::Instant;

/// One baseline cell: a static-allocation detailed run, fully determined
/// by `(nodes, seconds, load, seed)`.
fn cell_cfg(seconds: usize, load_txn_s: f64, seed: u64) -> DetailedSimConfig {
    DetailedSimConfig {
        params: SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(300),
            partitions_per_node: 6,
            interval: Duration::from_secs(30),
            max_machines: 10,
        },
        workload: pstore_b2w::generator::WorkloadConfig {
            num_skus: 4_000,
            initial_carts: 800,
            ..pstore_b2w::generator::WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 5_000,
        ..DetailedSimConfig::paper_defaults(vec![load_txn_s; seconds], seed)
    }
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
#[cfg(target_os = "linux")]
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_kb() -> Option<u64> {
    None
}

fn main() {
    let reporter = RunReporter::from_args();
    // The grid: static clusters at varied sizes/loads/seeds, covering the
    // uncontended dispatch path, a migrating-free steady state, and a
    // saturated node (drop path). Each cell is independent — the same
    // shape the figure binaries fan out.
    let (seconds, grid): (usize, Vec<(u32, f64, u64)>) = if reporter.quick() {
        (45, vec![(4, 400.0, 1), (1, 600.0, 2)])
    } else {
        (
            180,
            vec![
                (4, 400.0, 1),
                (4, 400.0, 2),
                (6, 900.0, 3),
                (6, 900.0, 4),
                (2, 500.0, 5),
                (1, 600.0, 6),
                (8, 1_500.0, 7),
                (3, 700.0, 8),
            ],
        )
    };

    let mode = if reporter.quick() { "quick" } else { "full" };
    let sweep = Sweep::from_reporter(&reporter);
    let threads = sweep.threads();
    reporter.progress(&format!(
        "bench_baseline: {} cells x {seconds}s ({mode}), {threads} thread(s)",
        grid.len()
    ));

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cells: Vec<Cell<DetailedSimResult>> = grid
        .iter()
        .map(|&(nodes, load, seed)| {
            let cfg = cell_cfg(seconds, load, seed);
            Cell::new(format!("static{nodes}@{load}tps/seed{seed}"), move || {
                run_detailed(&cfg, &mut StaticController::new(nodes))
            })
        })
        .collect();
    let n_cells = cells.len();

    let start = Instant::now();
    let results = sweep.run(cells);
    let wall_s = start.elapsed().as_secs_f64();

    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let dropped: u64 = results.iter().map(|r| r.dropped).sum();
    #[allow(clippy::cast_precision_loss)] // counters far below 2^52
    let (cells_per_s, txns_per_s) = (n_cells as f64 / wall_s, committed as f64 / wall_s);
    let rss_json = peak_rss_kb().map_or_else(|| "null".to_string(), |kb| kb.to_string());
    println!(
        "{{\n  \"benchmark\": \"bench_baseline\",\n  \"mode\": \"{mode}\",\n  \
         \"threads\": {threads},\n  \"host_cpus\": {host_cpus},\n  \
         \"cells\": {n_cells},\n  \"sim_seconds_per_cell\": {seconds},\n  \
         \"committed_txns\": {committed},\n  \"dropped_txns\": {dropped},\n  \
         \"wall_s\": {wall_s:.3},\n  \"cells_per_s\": {cells_per_s:.4},\n  \
         \"sim_txns_per_wall_s\": {txns_per_s:.0},\n  \"peak_rss_kb\": {rss_json}\n}}"
    );
    reporter.progress(&format!(
        "bench_baseline: done ({wall_s:.1}s wall, {txns_per_s:.0} sim txns/s)"
    ));
    reporter.finish();
}
