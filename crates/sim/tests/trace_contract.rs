//! The trace is the contract: what one small reactive scale-out run emits
//! under each [`TraceSpec`], pinned as per-kind event counts plus an FNV
//! digest over `(kind, t, fields)` — `seq` and span ids, which count
//! whatever else the process emitted, are left out. The literals were recorded on the
//! commit before the simulators' emission moved behind `TraceSpec`, from
//! the config fields it replaced. With no sink installed the same runs
//! must allocate exactly the pinned counts: an untraced run builds nothing
//! for the trace.

use pstore_b2w::generator::WorkloadConfig;
use pstore_core::controller::baselines::StaticController;
use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
use pstore_core::params::SystemParams;
use pstore_sim::detailed::{run_detailed, DetailedSimConfig};
use pstore_sim::fast::{run_fast, FastSimConfig};
use pstore_telemetry::{kinds, Event, MemorySink, TraceSpec, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// Counts allocations per thread (the harness runs tests in parallel).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`, only adding a counter.
// `try_with` keeps allocations during TLS teardown from recursing into a
// destructed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `layout` is forwarded to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: `ptr` came from `System` (every alloc above delegates to
    // it) with the caller's `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see above.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: all three arguments are forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the `ptr`/`layout` pair is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (THREAD_ALLOCS.with(Cell::get) - before, out)
}

fn params() -> SystemParams {
    SystemParams {
        q: 285.0,
        q_hat: 350.0,
        d: Duration::from_secs(300),
        partitions_per_node: 6,
        interval: Duration::from_secs(30),
        max_machines: 10,
    }
}

fn reactive() -> ReactiveController {
    ReactiveController::new(ReactiveConfig {
        trigger_fraction: 0.9,
        headroom: 0.2,
        smoothing_window: 2,
        scale_in_patience: 10,
        ..ReactiveConfig::default()
    })
}

/// Runs `run` under a capturing sink installed with `spec`.
fn captured(spec: TraceSpec, run: fn()) -> Vec<Event> {
    let (sink, handle) = MemorySink::new();
    let _guard = pstore_telemetry::install_with(Rc::new(sink), spec);
    run();
    handle.events()
}

/// Load ramps 250 → 800 txn/s over 90 s and holds for 90 s: the reactive
/// controller scales 2 → 3 machines at t = 120 s and the move completes.
fn detailed_run() {
    let mut load: Vec<f64> = (0..90)
        .map(|s| 250.0 + 550.0 * f64::from(s) / 90.0)
        .collect();
    load.extend(vec![800.0; 90]);
    let cfg = DetailedSimConfig {
        params: params(),
        workload: WorkloadConfig {
            num_skus: 2_000,
            initial_carts: 600,
            ..WorkloadConfig::default()
        },
        num_slots: 360,
        chunk_pacing_s: 2.0,
        warmup_txns: 10_000,
        ..DetailedSimConfig::paper_defaults(load, 0xC0DE)
    };
    let result = run_detailed(&cfg, &mut reactive());
    assert_eq!(result.reconfig_spans, vec![(120.0, 132.0)]);
}

/// 800 txn/s for 20 s on one machine that serves about 490: queues pass
/// the 2 s client timeout within seconds and arrivals are shed — the only
/// run here whose trace holds `txn_abort` events.
fn overloaded_run() {
    let cfg = DetailedSimConfig {
        params: params(),
        workload: WorkloadConfig {
            num_skus: 2_000,
            initial_carts: 600,
            ..WorkloadConfig::default()
        },
        num_slots: 360,
        warmup_txns: 10_000,
        ..DetailedSimConfig::paper_defaults(vec![800.0; 20], 0xC0DE)
    };
    let result = run_detailed(&cfg, &mut StaticController::new(1));
    assert!(result.dropped > 0, "the overload shed nothing");
}

/// Two days of a smooth daily wave in the slot model: 20 reconfigurations.
fn fast_run() {
    let load: Vec<f64> = (0..2 * 1440)
        .map(|m| {
            let phase = 2.0 * std::f64::consts::PI * f64::from(m % 1440) / 1440.0;
            1550.0 - 1250.0 * phase.cos()
        })
        .collect();
    let cfg = FastSimConfig {
        params: SystemParams {
            d: Duration::from_secs(4646),
            interval: Duration::from_secs(300),
            ..params()
        },
        record_timeline: false,
        ..FastSimConfig::paper_defaults()
    };
    let result = run_fast(&cfg, &load, &mut reactive());
    assert_eq!(result.reconfigurations, 20);
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per-kind counts and the FNV-1a digest of a trace.
fn digest(events: &[Event]) -> (BTreeMap<&str, usize>, u64) {
    let mut counts = BTreeMap::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for ev in events {
        *counts.entry(ev.kind.as_str()).or_insert(0) += 1;
        fnv(&mut hash, ev.kind.as_bytes());
        fnv(
            &mut hash,
            &ev.t.map_or(u64::MAX, f64::to_bits).to_le_bytes(),
        );
        let is_span = ev.kind == kinds::SPAN_BEGIN || ev.kind == kinds::SPAN_END;
        for (key, value) in &ev.fields {
            if is_span && key == "id" {
                continue;
            }
            fnv(&mut hash, key.as_bytes());
            match value {
                Value::U64(v) => fnv(&mut hash, &v.to_le_bytes()),
                Value::I64(v) => fnv(&mut hash, &v.to_le_bytes()),
                Value::F64(v) => fnv(&mut hash, &v.to_bits().to_le_bytes()),
                Value::Bool(v) => fnv(&mut hash, &[u8::from(*v)]),
                Value::Str(v) => fnv(&mut hash, v.as_bytes()),
            }
        }
    }
    (counts, hash)
}

/// Checks a captured trace against its pinned counts and digest.
fn assert_trace(label: &str, events: &[Event], counts: &[&[(&str, usize)]], hash: u64) {
    let expected: BTreeMap<&str, usize> = counts.iter().flat_map(|c| c.iter().copied()).collect();
    let (got, got_hash) = digest(events);
    assert_eq!(got, expected, "{label}: per-kind event counts");
    assert_eq!(got_hash, hash, "{label}: digest {got_hash:#018x}");
}

const DETAILED_DEFAULT: &[(&str, usize)] = &[
    ("chunk_move", 192),
    ("scale_decision", 1),
    ("schedule_planned", 1),
    ("second", 180),
    ("skew_sample", 12),
    ("sla_violation", 39),
    ("span_begin", 201),
    ("span_end", 201),
];

const FAST_DEFAULT: &[(&str, usize)] = &[
    ("scale_decision", 20),
    ("schedule_planned", 20),
    ("span_begin", 21),
    ("span_end", 21),
];

fn prov() -> TraceSpec {
    TraceSpec {
        prov: true,
        ..TraceSpec::default()
    }
}

#[test]
fn detailed_default_trace_is_pinned() {
    assert_trace(
        "detailed/default",
        &captured(TraceSpec::default(), detailed_run),
        &[DETAILED_DEFAULT],
        0xd806_2f04_dfcf_ff5f,
    );
}

#[test]
fn detailed_prov_trace_is_pinned() {
    let family: &[(&str, usize)] = &[
        ("prov_chunk", 16),
        ("prov_decision", 1),
        ("prov_forecast", 11),
        ("prov_interval", 6),
        ("prov_reconfig", 1),
        ("prov_run", 1),
    ];
    assert_trace(
        "detailed/prov",
        &captured(prov(), detailed_run),
        &[DETAILED_DEFAULT, family],
        0x2576_8429_12e9_8f3d,
    );
}

#[test]
fn detailed_sampled_trace_is_pinned() {
    let family: &[(&str, usize)] = &[
        ("txn_arrive", 17_128),
        ("txn_commit", 17_128),
        ("txn_execute", 17_128),
        ("txn_queue", 17_128),
        ("txn_restart", 1),
        ("txn_rwset", 17_128),
        ("txn_stall", 165),
    ];
    let spec = TraceSpec {
        txn_sample_every: 7,
        ..TraceSpec::default()
    };
    assert_trace(
        "detailed/sampled",
        &captured(spec, detailed_run),
        &[DETAILED_DEFAULT, family],
        0xd404_127c_2743_f692,
    );
}

/// `txn_abort` has one spelling — `id, total, queue, exec, stall, end,
/// reason` — whichever site emits it; this run pins the timeout one.
#[test]
fn overloaded_sampled_trace_pins_timeout_aborts() {
    let spec = TraceSpec {
        txn_sample_every: 7,
        ..TraceSpec::default()
    };
    let events = captured(spec, overloaded_run);
    let counts: &[(&str, usize)] = &[
        ("second", 20),
        ("skew_sample", 2),
        ("sla_violation", 20),
        ("span_begin", 3),
        ("span_end", 3),
        ("txn_abort", 848),
        ("txn_arrive", 2_282),
        ("txn_commit", 1_434),
        ("txn_execute", 1_517),
        ("txn_queue", 2_282),
        ("txn_rwset", 1_517),
    ];
    assert_trace(
        "detailed/overloaded",
        &events,
        &[counts],
        0xc95c_ff4a_8c9b_c7b4,
    );
    // 83 of the 848 aborts are business aborts of executed transactions
    // (1 517 executed, 1 434 committed); the rest were shed at the timeout.
    let timeout = ("reason".to_string(), Value::from("timeout"));
    let shed = events
        .iter()
        .filter(|ev| ev.kind == kinds::TXN_ABORT && ev.fields.last() == Some(&timeout))
        .count();
    assert_eq!(shed, 765);
}

#[test]
fn fast_traces_are_pinned() {
    assert_trace(
        "fast/default",
        &captured(TraceSpec::default(), fast_run),
        &[FAST_DEFAULT],
        0x55b8_3af5_cb8f_22be,
    );
    let family: &[(&str, usize)] = &[
        ("prov_decision", 20),
        ("prov_forecast", 2_289),
        ("prov_interval", 576),
        ("prov_reconfig", 20),
        ("prov_run", 1),
    ];
    assert_trace(
        "fast/prov",
        &captured(prov(), fast_run),
        &[FAST_DEFAULT, family],
        0x5da2_cc04_16f1_d606,
    );
}

/// With no sink installed, untraced sites build nothing: both simulators
/// allocate exactly the pinned counts, which are those of a build with no
/// instrumentation in it at all. Debug builds also re-validate every plan
/// and schedule they make, which allocates. A `format!` hoisted out of a
/// `tel_event!` on either simulator's path fails this.
#[test]
fn an_untraced_run_allocates_the_pinned_counts() {
    assert!(!pstore_telemetry::enabled());
    let (detailed, fast) = if cfg!(debug_assertions) {
        (91_568, 1_024)
    } else {
        (91_557, 752)
    };
    assert_eq!(allocations(detailed_run).0, detailed, "detailed run");
    assert_eq!(allocations(fast_run).0, fast, "fast run");
}
