//! Allocation budget of the controller tick, measured with a counting
//! global allocator (test binary only — the library never swaps
//! allocators).
//!
//! The predictive controller runs forecast → plan → first move at every
//! monitoring interval, and the long-horizon experiments (Fig 12's 4.5
//! months × strategies × Q) run that tick tens of thousands of times per
//! cell. Once warm it must stay off the heap — the plan, too, is refilled
//! in a sequence the controller keeps — and the weekly SPAR refit must
//! work in the buffers it already owns rather than fault in a fresh 2 MB
//! regression system each time.

use pstore_core::controller::forecaster::{LoadForecaster, SparForecaster};
use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
use pstore_core::controller::{Action, Observation, Strategy};
use pstore_core::moves::MoveSeq;
use pstore_core::params::SystemParams;
use pstore_core::planner::{Planner, PlannerConfig};
use pstore_forecast::generators::B2wLoadModel;
use pstore_forecast::spar::SparConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation routed through the global
/// allocator and remembers the largest request, **per thread**: the
/// harness runs tests on several threads, so process-global counters would
/// pick up another test's allocations mid-measurement.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: delegates every operation to `System`, only adding counters.
// `try_with` (not `with`) keeps allocations during TLS teardown from
// recursing into a destructed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract (valid,
    // non-zero-size layout); we forward it to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds the `GlobalAlloc::dealloc` contract (`ptr`
    // came from this allocator with this `layout`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (every alloc above
        // delegates to it), paired with the caller's `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds the `GlobalAlloc::realloc` contract; all
    // three arguments are forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` pair is the caller's obligation and
        // `ptr` originated from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What this thread asked the allocator for while running `f`.
struct Usage {
    allocations: u64,
    largest_bytes: usize,
}

fn measure<R>(f: impl FnOnce() -> R) -> (Usage, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    THREAD_LARGEST.with(|c| c.set(0));
    let out = f();
    let usage = Usage {
        allocations: THREAD_ALLOCS.with(Cell::get) - before,
        largest_bytes: THREAD_LARGEST.with(Cell::get),
    };
    (usage, out)
}

const TICKS_PER_DAY: usize = 288;
const REFIT_EVERY: usize = 7 * TICKS_PER_DAY;
const MAX_HISTORY: usize = 40 * TICKS_PER_DAY;
const TRAINING_DAYS: usize = 28;

/// `pstore_sim::scenarios::tick_spar_config()` (this crate cannot depend
/// on the simulator): five-minute ticks, daily period.
fn tick_spar_config() -> SparConfig {
    SparConfig {
        period: TICKS_PER_DAY,
        n_periods: 7,
        m_recent: 6,
        taus: vec![1, 3, 6, 12],
        ridge_lambda: 1e-4,
        max_rows: 20_000,
    }
}

/// `pstore_sim::scenarios::realtime_planner`: five-minute intervals.
fn realtime_planner(params: &SystemParams) -> Planner {
    Planner::new(PlannerConfig {
        q: params.q,
        d_intervals: params.d.as_secs_f64() / 300.0,
        partitions_per_node: params.partitions_per_node,
        max_machines: params.max_machines,
    })
}

/// Five-minute load over `days` days, scaled so a normal peak needs most
/// of the hardware.
fn tick_load(days: usize, params: &SystemParams) -> Vec<f64> {
    let (model, _) = B2wLoadModel::four_and_a_half_months(7);
    let ticks = model.generate(days).downsample_mean(5);
    let peak = ticks.max();
    ticks
        .scaled(0.8 * params.q * params.max_machines as f64 / peak)
        .values()
        .to_vec()
}

/// The `pstore_spar_fast` controller, seeded with four training weeks, and
/// the evaluation ticks that follow them.
fn seeded_controller(eval_days: usize) -> (PStoreController<SparForecaster>, Vec<f64>) {
    let params = SystemParams::b2w_paper();
    let load = tick_load(TRAINING_DAYS + eval_days, &params);
    let (train, eval) = load.split_at(TRAINING_DAYS * TICKS_PER_DAY);
    let mut forecaster = SparForecaster::new(tick_spar_config(), REFIT_EVERY, MAX_HISTORY);
    forecaster.seed(train);
    let controller = PStoreController::new(
        realtime_planner(&params),
        forecaster,
        PStoreConfig {
            horizon: 48,
            initial_machines: 4,
            ..PStoreConfig::default()
        },
    );
    (controller, eval.to_vec())
}

#[test]
fn warm_tick_allocates_nothing() {
    // Three evaluation weeks: two to warm every buffer (the planner's table
    // meets its largest search, the plan its horizon, the refit its
    // scratch, and the history store grows on the first tick and not again
    // within this run), then a week that is measured tick by tick.
    let (mut controller, eval) = seeded_controller(21);
    let mut machines = controller.initial_machines();
    let mut tick = |controller: &mut PStoreController<SparForecaster>, t: usize| {
        let obs = Observation {
            interval: t,
            load: eval[t],
            machines,
            reconfiguring: false,
        };
        let (usage, action) = measure(|| controller.tick(&obs));
        if let Action::Reconfigure(request) = action {
            machines = request.target;
        }
        usage
    };
    let warm = 2 * REFIT_EVERY;
    for t in 0..warm {
        tick(&mut controller, t);
    }
    let mut planned = 0u64;
    let mut worst = 0u64;
    for t in warm..eval.len() {
        let usage = tick(&mut controller, t);
        // Observation number `t + 1` since the seed fit; every
        // `REFIT_EVERY`-th one refits.
        if (t + 1).is_multiple_of(REFIT_EVERY) {
            // The refit: the coefficient vector and the boxed model that
            // holds it — and nothing the size of the regression.
            assert_eq!(
                usage.allocations, 2,
                "refit tick {t} made {} allocations",
                usage.allocations
            );
            assert!(
                usage.largest_bytes < 4096,
                "refit tick {t} allocated {} bytes at once",
                usage.largest_bytes
            );
        } else {
            planned += 1;
            worst = worst.max(usage.allocations);
        }
    }
    assert!(planned > 2_000, "measured only {planned} ticks");
    assert_eq!(worst, 0, "a warm non-refit tick allocated {worst} times");
    let stats = controller.stats();
    assert!(stats.planned_moves > 20, "the controller never moved");
    assert_eq!(stats.cold_cycles, 0);
}

#[test]
fn best_moves_allocates_only_the_returned_sequence() {
    let params = SystemParams::b2w_paper();
    let planner = realtime_planner(&params);
    let load = tick_load(2, &params);
    // The table grows to the largest horizon x machine count searched so
    // far; one search over all the hardware sizes it for good.
    let full = vec![params.q * params.max_machines as f64; 49];
    assert!(planner.best_moves(&full, params.max_machines).is_some());
    for start in (0..TICKS_PER_DAY).step_by(7) {
        let curve = &load[start..start + 49];
        let n0 = planner.machines_needed(curve[0]);
        let (usage, plan) = measure(|| planner.best_moves(curve, n0));
        let expected = u64::from(plan.is_some());
        assert_eq!(
            usage.allocations, expected,
            "best_moves at {start} made {} allocations",
            usage.allocations
        );
    }
}

#[test]
fn best_moves_into_allocates_nothing_once_warm() {
    let params = SystemParams::b2w_paper();
    let planner = realtime_planner(&params);
    let load = tick_load(2, &params);
    // One search over all the hardware sizes the table and the kept plan
    // for every 49-tick search after it.
    let mut plan = MoveSeq::default();
    let full = vec![params.q * params.max_machines as f64; 49];
    assert!(planner
        .best_moves_into(&full, params.max_machines, &mut plan)
        .is_some());
    let mut feasible = 0;
    for start in (0..TICKS_PER_DAY).step_by(7) {
        let curve = &load[start..start + 49];
        let n0 = planner.machines_needed(curve[0]);
        let (usage, cost) = measure(|| planner.best_moves_into(curve, n0, &mut plan));
        feasible += usize::from(cost.is_some());
        assert_eq!(
            usage.allocations, 0,
            "best_moves_into at {start} made {} allocations",
            usage.allocations
        );
    }
    assert!(feasible > 0, "no search found a plan");
}

#[test]
fn observe_allocates_nothing_between_refits() {
    // A small SPAR shape keeps the warm-up short; the property does not
    // depend on sizes. The store behind the history window holds up to
    // twice `max_history`, so warm past that and past one compaction.
    let cfg = SparConfig {
        period: 24,
        n_periods: 3,
        m_recent: 4,
        taus: vec![1, 2],
        ridge_lambda: 1e-4,
        max_rows: 5_000,
    };
    let (refit_every, max_history) = (100usize, 300usize);
    let signal = |i: usize| 80.0 + 30.0 * (i as f64 * std::f64::consts::TAU / 24.0).sin();
    let mut forecaster = SparForecaster::new(cfg, refit_every, max_history);
    let seed: Vec<f64> = (0..200).map(signal).collect();
    forecaster.seed(&seed);
    assert!(forecaster.is_ready());
    let mut observed = 0usize;
    let mut refits = 0u32;
    for i in 200..200 + 6 * max_history {
        let (usage, ()) = measure(|| forecaster.observe(signal(i)));
        observed += 1;
        if observed.is_multiple_of(refit_every) {
            refits += 1;
            // The first refit's window is longer than the seed's, so the
            // scratch's offsets may grow; from the second on it is full.
            if refits > 1 {
                assert_eq!(
                    usage.allocations, 2,
                    "refit {refits} made {} allocations",
                    usage.allocations
                );
            }
        } else if i >= 200 + 3 * max_history {
            assert_eq!(
                usage.allocations, 0,
                "observation {observed} allocated {} times",
                usage.allocations
            );
        }
    }
    assert!(refits >= 10);
    let mut out = Vec::with_capacity(12);
    let (usage, ready) = measure(|| forecaster.forecast_into(12, &mut out));
    assert!(ready);
    assert_eq!(usage.allocations, 0, "forecast_into allocated");
}
