//! Microbenchmarks for the dynamic-programming planner (Algorithms 1–3):
//! planning cost over horizon length and cluster scale — the per-tick cost
//! of the Predictive Controller's planning step.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "benchmark setup aborts loudly"
)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstore_core::planner::{Planner, PlannerConfig};
use std::hint::black_box;

fn rising_load(len: usize) -> Vec<f64> {
    (0..len)
        .map(|t| {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / len as f64;
            1500.0 - 1200.0 * phase.cos()
        })
        .collect()
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner/best_moves");
    for horizon in [12usize, 24, 48, 96] {
        let planner = Planner::new(PlannerConfig {
            q: 285.0,
            d_intervals: 15.5,
            partitions_per_node: 6,
            max_machines: 10,
        });
        let load = rising_load(horizon);
        group.bench_with_input(BenchmarkId::from_parameter(horizon), &horizon, |b, _| {
            b.iter(|| {
                let plan = planner.best_moves(black_box(&load), 2);
                black_box(plan)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("planner/max_machines");
    for max in [10u32, 20, 40] {
        let planner = Planner::new(PlannerConfig {
            q: 285.0,
            d_intervals: 15.5,
            partitions_per_node: 6,
            max_machines: max,
        });
        let load: Vec<f64> = rising_load(48)
            .into_iter()
            .map(|l| l * max as f64 / 10.0)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(max), &max, |b, _| {
            b.iter(|| black_box(planner.best_moves(black_box(&load), 2)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
