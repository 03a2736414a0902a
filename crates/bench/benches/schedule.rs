//! Microbenchmarks for migration planning: round-schedule construction
//! (§4.4.1, including the phase-3 edge colouring) and slot-plan
//! rebalancing (the §6 Scheduler).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "benchmark setup aborts loudly"
)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pstore_core::partition_plan::SlotPlan;
use pstore_core::schedule::MigrationSchedule;
use std::hint::black_box;

fn bench_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule/plan");
    for (b_, a) in [(3u32, 14u32), (10, 3), (8, 64), (64, 8)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{b_}->{a}")),
            &(b_, a),
            |bench, &(b_, a)| bench.iter(|| black_box(MigrationSchedule::plan(b_, a))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("slot_plan/rebalance");
    for slots in [720usize, 7_200, 72_000] {
        let plan = SlotPlan::balanced(4, slots);
        group.bench_with_input(BenchmarkId::from_parameter(slots), &plan, |bench, plan| {
            bench.iter(|| black_box(plan.rebalance_to(9)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedule);
criterion_main!(benches);
