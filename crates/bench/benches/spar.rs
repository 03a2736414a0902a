//! Microbenchmarks for the SPAR predictor: fitting over four weeks of
//! per-minute data (the weekly refit cost, §7) and forecasting a full
//! planning horizon (the per-tick prediction cost).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "benchmark setup aborts loudly"
)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstore_forecast::generators::B2wLoadModel;
use pstore_forecast::model::LoadPredictor;
use pstore_forecast::spar::{SparConfig, SparModel};
use std::hint::black_box;

fn bench_spar(c: &mut Criterion) {
    let load = B2wLoadModel::default().generate(31);
    let data = load.values();
    let train = &data[..28 * 1440];

    let mut group = c.benchmark_group("spar/fit");
    group.sample_size(10);
    for max_rows in [5_000usize, 20_000] {
        let cfg = SparConfig {
            max_rows,
            ..SparConfig::b2w_default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(max_rows), &cfg, |b, cfg| {
            b.iter(|| black_box(SparModel::fit(black_box(train), cfg).unwrap()))
        });
    }
    group.finish();

    let model = SparModel::fit(train, &SparConfig::b2w_default()).unwrap();
    let mut group = c.benchmark_group("spar/predict_horizon");
    for horizon in [60usize, 180, 360] {
        group.bench_with_input(BenchmarkId::from_parameter(horizon), &horizon, |b, &h| {
            b.iter(|| black_box(model.predict_horizon(black_box(data), h)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spar);
criterion_main!(benches);
