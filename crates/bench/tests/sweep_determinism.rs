//! Serial-vs-parallel determinism of the sweep runner on *real*
//! simulator cells (the synthetic-cell contract lives in
//! `src/sweep.rs`): the same cell grid must produce bit-identical
//! results at any thread count, because every figure binary now fans
//! its runs through [`Sweep`]. The full fig9 `--quick` grid is held to
//! the same contract by the `fig9-golden` step of
//! `scripts/static_analysis.sh`, which runs it at `--threads 4` and
//! compares with a `--threads 1` blessing.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "tests abort loudly"
)]
use pstore_b2w::generator::WorkloadConfig;
use pstore_bench::sweep::{Cell, Sweep};
use pstore_core::controller::baselines::StaticController;
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
use pstore_telemetry::{trace::read_jsonl, Record, SpanName};
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// A deliberately tiny detailed-sim cell (runs in debug-mode test time).
fn tiny_cfg(nodes_hint: u64, load_txn_s: f64, seed: u64) -> DetailedSimConfig {
    DetailedSimConfig {
        params: SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(300),
            partitions_per_node: 6,
            interval: Duration::from_secs(30),
            max_machines: 10,
        },
        workload: WorkloadConfig {
            num_skus: 1_000,
            initial_carts: 200,
            ..WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 1_000,
        ..DetailedSimConfig::paper_defaults(vec![load_txn_s; 20], seed ^ (nodes_hint << 8))
    }
}

/// The grid every test below runs: varied cluster sizes, loads and seeds,
/// including a saturated single node (exercises the drop path).
fn grid_cells() -> Vec<Cell<DetailedSimResult>> {
    let grid: [(u32, f64, u64); 6] = [
        (4, 300.0, 1),
        (4, 300.0, 2),
        (2, 250.0, 3),
        (1, 600.0, 4),
        (6, 500.0, 5),
        (3, 350.0, 6),
    ];
    grid.iter()
        .map(|&(nodes, load, seed)| {
            let cfg = tiny_cfg(u64::from(nodes), load, seed);
            Cell::new(format!("static{nodes}/seed{seed}"), move || {
                run_detailed(&cfg, &mut StaticController::new(nodes))
            })
        })
        .collect()
}

/// Full-fidelity fingerprint of a result vector: the `Debug` rendering
/// covers every per-second metric, violation counter and procedure-mix
/// entry, so two fingerprints match iff the runs were bit-identical.
fn fingerprint(results: &[DetailedSimResult]) -> String {
    format!("{results:?}")
}

#[test]
fn detailed_sim_cells_are_identical_serial_vs_parallel() {
    let serial = fingerprint(&Sweep::new(1).run(grid_cells()));
    let parallel = fingerprint(&Sweep::new(8).run(grid_cells()));
    assert_eq!(
        serial, parallel,
        "sweep results diverged between --threads 1 and --threads 8"
    );
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Thread scheduling differs run to run; the merged output must not.
    let a = fingerprint(&Sweep::new(4).run(grid_cells()));
    let b = fingerprint(&Sweep::new(4).run(grid_cells()));
    assert_eq!(a, b, "two --threads 4 sweeps of the same grid diverged");
}

/// Cells capture under the caller's `TraceSpec`: the sweep hands the spec
/// installed with the calling thread's sink to every per-cell sink.
#[test]
fn cells_capture_under_the_callers_trace_spec() {
    let spec = pstore_telemetry::TraceSpec {
        prov: true,
        txn_sample_every: 7,
    };
    let (sink, _handle) = pstore_telemetry::MemorySink::new();
    let guard = pstore_telemetry::install_with(std::rc::Rc::new(sink), spec);
    let cells = (0..3)
        .map(|_| Cell::new("spec", pstore_telemetry::spec))
        .collect();
    let seen = Sweep::new(2).run(cells);
    drop(guard);
    assert_eq!(seen, vec![spec; 3]);
}

/// Runs `telemetry_smoke --quiet --trace <path>` and returns the trace.
fn smoke_trace(path: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry_smoke"))
        .args(["--quiet", "--trace"])
        .arg(path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(path).unwrap()
}

/// A trace carries sim time and payloads only, so two runs of the same
/// seeded binary write the same bytes. The trace must hold the run's
/// scale-out and scale-in as closed `reconfig` spans, so that two empty
/// or truncated traces cannot pass.
#[test]
fn a_seeded_traced_run_writes_the_same_bytes_twice() {
    let path = std::env::temp_dir().join(format!(
        "pstore_sweep_determinism_{}.jsonl",
        std::process::id()
    ));
    let first = smoke_trace(&path);
    let second = smoke_trace(&path);
    let (trace, errors) = read_jsonl(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(errors.is_empty(), "{errors:?}");
    let reconfig = |begin: bool| {
        trace
            .iter()
            .filter(|e| match &e.record {
                Record::SpanBegin(s) => begin && s.name == SpanName::Reconfig,
                Record::SpanEnd(s) => !begin && s.name == SpanName::Reconfig,
                _ => false,
            })
            .count()
    };
    assert!(reconfig(true) >= 2, "{} reconfig spans", reconfig(true));
    assert_eq!(reconfig(true), reconfig(false));
    assert!(
        first == second,
        "two runs of the same seed wrote different traces ({} and {} bytes)",
        first.len(),
        second.len()
    );
}
