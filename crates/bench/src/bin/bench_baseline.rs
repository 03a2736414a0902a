//! Simulator smoke run: times a fixed grid of detailed-sim cells through
//! the [`pstore_bench::sweep`] runner and prints one JSON row per shard
//! count — cells/s, simulated-txns/s and peak RSS. Performance is measured
//! by `benchmark/run.sh` (see `benchmark/README.md`); this bin remains as
//! the determinism probe of the sweep runner and the sharded engine: its
//! counters must not depend on `--threads` or `--shards`.
//!
//! Usage: `bench_baseline [--quick] [--threads N] [--shards LIST]
//! [--out PATH] [--quiet] [--trace PATH] [--summary PATH]
//! [--expose-metrics PORT]`
//!
//! Any other argument, `--help` included, prints this usage and exits 2
//! before anything runs. The rows go to stdout; a file is written only
//! where `--out` says.
//!
//! `--quick` runs a smaller grid for CI smoke.
//!
//! `--shards 1,2,4` runs the whole grid once per executor shard count
//! and emits a JSON array with one row per count (default: the
//! `PSTORE_SHARDS` environment variable, else `1`). The simulation
//! counters (`committed_txns`, `dropped_txns`) must be identical across
//! rows — the engine is deterministic in the shard count — so only the
//! timing fields vary; the run fails (exit 1) if they are not.

#![allow(clippy::expect_used, clippy::unwrap_used)] // experiment bin aborts loudly

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
        load: vec![load_txn_s; seconds],
        seed,
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
        txn_sample_every: 0,
        shards: 1,
        shard_spans: false,
        prov_events: false,
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

/// Parses a comma-separated shard list (`"1,2,4"`). Exits on nonsense.
fn parse_shard_list(list: &str) -> Vec<u32> {
    let shards: Vec<u32> = list
        .split(',')
        .map(|s| match s.trim().parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: --shards takes a comma-separated list of positive integers");
                std::process::exit(2);
            }
        })
        .collect();
    if shards.is_empty() {
        eprintln!("error: --shards list is empty");
        std::process::exit(2);
    }
    shards
}

const USAGE: &str = "usage: bench_baseline [--quick] [--threads N] [--shards LIST] \
[--out PATH] [--quiet] [--trace PATH] [--summary PATH] [--expose-metrics PORT]";

/// Refuses anything that is not a flag this bin or [`RunReporter`] reads,
/// so that a typo (or `--help`) cannot start a run.
fn reject_unknown_arguments(args: &[String]) {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" | "--quiet" => {}
            "--threads" | "--shards" | "--out" | "--trace" | "--summary" | "--expose-metrics" => {
                // The value; its absence is reported by whoever reads it.
                rest.next();
            }
            _ => {
                eprintln!("error: unrecognised argument `{arg}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_arguments(&args);
    let reporter = RunReporter::from_args();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| match args.get(i + 1) {
            Some(p) => std::path::PathBuf::from(p),
            None => {
                eprintln!("error: --out requires a file path argument");
                std::process::exit(2);
            }
        });
    let shard_counts: Vec<u32> = args.iter().position(|a| a == "--shards").map_or_else(
        || {
            // Mirror the simulator's own PSTORE_SHARDS default so an
            // env-driven run benches the engine it would actually use.
            std::env::var("PSTORE_SHARDS").map_or_else(|_| vec![1], |v| parse_shard_list(&v))
        },
        |i| match args.get(i + 1) {
            Some(list) => parse_shard_list(list),
            None => {
                eprintln!("error: --shards requires a comma-separated list (e.g. 1,2,4)");
                std::process::exit(2);
            }
        },
    );
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
        "bench_baseline: {} cells x {seconds}s ({mode}), {threads} thread(s), shards {shard_counts:?}",
        grid.len()
    ));

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut rows: Vec<String> = Vec::with_capacity(shard_counts.len());
    let mut counters: Vec<(u64, u64)> = Vec::with_capacity(shard_counts.len());
    for &shards in &shard_counts {
        let cells: Vec<Cell<DetailedSimResult>> = grid
            .iter()
            .map(|&(nodes, load, seed)| {
                let mut cfg = cell_cfg(seconds, load, seed);
                cfg.shards = shards;
                Cell::new(
                    format!("static{nodes}@{load}tps/seed{seed}/shards{shards}"),
                    move || run_detailed(&cfg, &mut StaticController::new(nodes)),
                )
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
        counters.push((committed, dropped));
        // Peak RSS is process-wide and monotone, so later rows inherit
        // the high-water mark of earlier ones; still worth recording.
        let rss_json = peak_rss_kb().map_or_else(|| "null".to_string(), |kb| kb.to_string());
        rows.push(format!(
            "  {{\n    \"benchmark\": \"bench_baseline\",\n    \"mode\": \"{mode}\",\n    \
             \"shards\": {shards},\n    \"threads\": {threads},\n    \
             \"host_cpus\": {host_cpus},\n    \
             \"cells\": {n_cells},\n    \"sim_seconds_per_cell\": {seconds},\n    \
             \"committed_txns\": {committed},\n    \"dropped_txns\": {dropped},\n    \
             \"wall_s\": {wall_s:.3},\n    \"cells_per_s\": {cells_per_s:.4},\n    \
             \"sim_txns_per_wall_s\": {txns_per_s:.0},\n    \"peak_rss_kb\": {rss_json}\n  }}"
        ));
        reporter.progress(&format!(
            "bench_baseline: shards={shards} done ({wall_s:.1}s wall, {txns_per_s:.0} sim txns/s)"
        ));
    }

    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    print!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write the --out file");
        reporter.progress(&format!("bench_baseline: wrote {}", path.display()));
    }
    if counters.iter().any(|c| *c != counters[0]) {
        eprintln!(
            "FAIL: (committed, dropped) differ across shard counts {shard_counts:?}: {counters:?}"
        );
        std::process::exit(1);
    }
    reporter.finish();
}
