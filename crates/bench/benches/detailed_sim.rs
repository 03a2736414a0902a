//! Microbenchmark for the detailed simulator's event loop — the hot path
//! behind every Fig 9 / Table 2 cell: per-second arrival batching,
//! routing-key hashing, engine dispatch, and queue/latency bookkeeping.

#![allow(clippy::expect_used, clippy::unwrap_used)] // benchmark setup aborts loudly
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pstore_b2w::generator::WorkloadConfig;
use pstore_core::controller::baselines::StaticController;
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};
use std::hint::black_box;
use std::time::Duration;

/// A small but representative run: same calibration as the test config in
/// `pstore-sim`, one simulated minute at moderate load.
fn bench_cfg(sim_seconds: usize, load_txn_s: f64, seed: u64) -> DetailedSimConfig {
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
            num_skus: 4_000,
            initial_carts: 800,
            ..WorkloadConfig::default()
        },
        num_slots: 360,
        monitor_interval_s: 30.0,
        service_mean_s: 6.0 / 490.0,
        service_jitter: 0.3,
        chunk_pacing_s: 2.0,
        migration_cpu_fraction: 0.05,
        max_queue_delay_s: 2.0,
        warmup_txns: 5_000,
        ..DetailedSimConfig::paper_defaults(vec![load_txn_s; sim_seconds], seed)
    }
}

fn bench_detailed_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("detailed_sim/event_loop");
    group.sample_size(10);

    // ~24k arrivals per iteration: throughput here is simulated txns per
    // wall-clock second, the figure `bench_baseline` tracks over time.
    let cfg = bench_cfg(60, 400.0, 7);
    group.throughput(Throughput::Elements(60 * 400));
    group.bench_function("static4_60s_at_400tps", |b| {
        b.iter(|| {
            let mut strat = StaticController::new(4);
            black_box(run_detailed(black_box(&cfg), &mut strat))
        })
    });

    // Saturated single node: deeper queues, more heap churn per arrival —
    // stresses the drop path and the per-partition busy accounting.
    let hot = bench_cfg(30, 600.0, 11);
    group.throughput(Throughput::Elements(30 * 600));
    group.bench_function("static1_30s_at_600tps", |b| {
        b.iter(|| {
            let mut strat = StaticController::new(1);
            black_box(run_detailed(black_box(&hot), &mut strat))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_detailed_sim);
criterion_main!(benches);
