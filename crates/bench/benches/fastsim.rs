//! Microbenchmark for the slot-based long-horizon simulator: one simulated
//! week per strategy (the unit of work behind each Fig 12 point).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "benchmark setup aborts loudly"
)]
use criterion::{criterion_group, criterion_main, Criterion};
use pstore_core::controller::baselines::StaticController;
use pstore_core::params::SystemParams;
use pstore_sim::fast::{run_fast, FastSimConfig};
use pstore_sim::scenarios::pstore_oracle_fast;
use std::hint::black_box;

fn weekly_wave() -> Vec<f64> {
    (0..7 * 1440)
        .map(|m| {
            let phase = 2.0 * std::f64::consts::PI * (m % 1440) as f64 / 1440.0;
            1400.0 - 1100.0 * phase.cos()
        })
        .collect()
}

fn bench_fastsim(c: &mut Criterion) {
    let cfg = FastSimConfig {
        params: SystemParams::b2w_paper(),
        slot_duration_s: 60.0,
        tick_every_slots: 5,
        record_timeline: false,
    };
    let load = weekly_wave();

    let mut group = c.benchmark_group("fastsim/one_week");
    group.sample_size(10);
    group.bench_function("static", |b| {
        b.iter(|| {
            let mut s = StaticController::new(6);
            black_box(run_fast(&cfg, black_box(&load), &mut s))
        })
    });
    group.bench_function("pstore_oracle", |b| {
        b.iter(|| {
            let mut s = pstore_oracle_fast(&load, &cfg.params, 285.0);
            black_box(run_fast(&cfg, black_box(&load), &mut s))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fastsim);
criterion_main!(benches);
