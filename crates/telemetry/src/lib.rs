//! pstore-telemetry: structured tracing, metrics registry, and
//! run-trace tooling for the P-Store workspace.
//!
//! Three layers:
//!
//! 1. **Metrics** ([`metrics`]): counters, gauges, and mergeable
//!    log-bucketed latency histograms with `SecondMetrics`-compatible
//!    p50/p95/p99/max readout.
//! 2. **Events and spans** ([`event`], this module): typed records of
//!    the one event schema ([`event`] declares it) plus begin/end span
//!    pairs with globally unique ids, emitted through a thread-local
//!    [`Sink`] (no-op by default, in-memory for tests, JSONL for runs).
//! 3. **Traces** ([`trace`], the `pstore-trace` binary): read a JSONL
//!    trace back into decoded [`Entry`]s, validate span pairing/nesting
//!    and ordering, and explain the run (`pstore-trace explain`: the run
//!    report, SLA attribution, provisioning audit and timeline).
//!
//! # The switch surface
//!
//! What a run emits is decided in this crate and nowhere else
//! (docs/observability.md, "Switch surface"). There is one build:
//! instrumentation sites are ordinary code behind [`enabled`],
//! [`prov_enabled`] or the [`tel_event!`] / [`tel_span!`] macros, which
//! are false without an installed sink, so an untraced run pays one
//! thread-local lookup per site and builds nothing. The sink itself
//! ([`install`]) decides whether a run emits, and the [`TraceSpec`]
//! installed with it ([`install_with`]) selects the optional event
//! families; library code never reads the environment.
//!
//! # Threading model
//!
//! Sink, clock, and metrics registry are thread-local. Simulator runs
//! are single-threaded, and `cargo test` runs tests on many threads in
//! one process — per-thread state means tests cannot contaminate each
//! other. [`install`] returns a [`SinkGuard`] that restores the previous
//! sink on drop, so even panicking tests clean up.

pub mod event;
pub mod json;
pub mod metrics;
pub mod prov;
pub mod sink;
pub mod slo;
pub mod summary;
pub mod timeline;
pub mod trace;

pub use event::*;
pub use metrics::{Histogram, MetricsRegistry};
pub use prov::RunProv;
pub use sink::{JsonlSink, MemorySink, MemorySinkHandle, NoopSink, Sink};
pub use slo::{RunSlo, SlaWindow};
pub use summary::RunSummary;

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static SINK: RefCell<Option<Rc<dyn Sink>>> = const { RefCell::new(None) };
    static CLOCK: Cell<f64> = const { Cell::new(f64::NAN) };
    static REGISTRY: RefCell<MetricsRegistry> = RefCell::new(MetricsRegistry::new());
    static SPEC: Cell<TraceSpec> = const { Cell::new(TraceSpec { prov: false, txn_sample_every: 0 }) };
}

/// Which optional event families a traced run emits on top of the default
/// trace. Installed together with the sink ([`install_with`]) and restored
/// with it; the default spec is the default trace the committed goldens
/// were cut from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSpec {
    /// Emit the provisioning-observatory family (`prov_run`,
    /// `prov_interval`, `prov_forecast`, `prov_decision`, `prov_reconfig`,
    /// `prov_chunk`).
    pub prov: bool,
    /// Emit the per-transaction lifecycle family (`txn_arrive`,
    /// `txn_queue`, `txn_stall`, `txn_execute`, `txn_commit`, `txn_abort`,
    /// plus the engine's `txn_rwset`/`txn_restart` with key-level version
    /// histories) for every Nth arrival of a detailed run; `0` emits none.
    pub txn_sample_every: u64,
}

/// Global event sequence (total order across threads within a process).
static SEQ: AtomicU64 = AtomicU64::new(1);
/// Global span-id source; 0 is reserved for "no span".
static SPAN_IDS: AtomicU64 = AtomicU64::new(1);

/// Installs `sink` as this thread's event sink with the default
/// [`TraceSpec`]. The returned guard restores the previous sink and spec
/// when dropped; keep it alive for the duration of the run or test.
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub fn install(sink: Rc<dyn Sink>) -> SinkGuard {
    install_with(sink, TraceSpec::default())
}

/// [`install`] with an explicit [`TraceSpec`].
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub fn install_with(sink: Rc<dyn Sink>, spec: TraceSpec) -> SinkGuard {
    SinkGuard {
        previous: SINK.with(|s| s.borrow_mut().replace(sink)),
        previous_spec: SPEC.with(|s| s.replace(spec)),
    }
}

/// Restores the previously installed sink and spec on drop.
pub struct SinkGuard {
    previous: Option<Rc<dyn Sink>>,
    previous_spec: TraceSpec,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let restored = self.previous.take();
        SINK.with(|s| *s.borrow_mut() = restored);
        SPEC.with(|s| s.set(self.previous_spec));
    }
}

/// The instrumentation sites' predicate: a sink is installed on this
/// thread. Untraced runs skip all event construction.
#[inline]
pub fn enabled() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// The [`TraceSpec`] installed with this thread's sink (the default spec
/// when none is).
pub fn spec() -> TraceSpec {
    SPEC.with(Cell::get)
}

/// [`enabled`] and the installed spec asks for the `prov_*` family.
#[inline]
pub fn prov_enabled() -> bool {
    enabled() && spec().prov
}

/// Sets the thread's simulated-time clock; subsequent events carry `t`.
pub fn set_time(t: f64) {
    CLOCK.with(|c| c.set(t));
}

/// Clears the thread's clock (events carry no `t`).
pub fn clear_time() {
    CLOCK.with(|c| c.set(f64::NAN));
}

/// Emits a typed record of the event schema through the installed sink,
/// stamping `seq` and the current sim clock. A no-op without a sink.
pub fn emit(record: impl Into<Record>) {
    if enabled() {
        let mut event = record.into().encode();
        let t = CLOCK.with(Cell::get);
        event.t = t.is_finite().then_some(t);
        forward(event);
    }
}

/// Re-emits an already-stamped event through the installed sink,
/// assigning a fresh global `seq` but preserving its `t` and fields.
///
/// This is the replay half of cross-thread capture: a sweep runner
/// records worker-thread events into per-cell [`MemorySink`]s and then
/// forwards them to the main thread's sink in a deterministic cell
/// order, so the merged trace is identical at any worker count (the
/// workers' original `seq` stamps reflect scheduling and are discarded).
/// A no-op without a sink.
pub fn forward(mut event: Event) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            event.seq = SEQ.fetch_add(1, Ordering::Relaxed);
            sink.record(&event);
        }
    });
}

/// Flushes the installed sink, if any.
pub fn flush() {
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.flush();
        }
    });
}

/// Emits a `span_begin` named `name` and returns the new span's id — or,
/// with no sink installed, returns the "no span" id 0 without building
/// anything.
pub fn begin_span(name: SpanName) -> u64 {
    if !enabled() {
        return 0;
    }
    begin_span_with(SpanBegin::new(0, name))
}

/// [`begin_span`] for a begin event that carries more than its name (a
/// reconfiguration's `from`/`to`); `span.id` is assigned here.
pub fn begin_span_with(mut span: SpanBegin) -> u64 {
    if !enabled() {
        return 0;
    }
    span.id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
    let id = span.id;
    emit(span);
    id
}

/// Emits the matching `span_end` for `id`. Ignores id 0 so callers can
/// keep a "no span" sentinel without branching (inlined, so a site whose
/// id is the constant 0 disappears).
#[inline]
pub fn end_span(name: SpanName, id: u64) {
    if id != 0 {
        emit(SpanEnd::new(id, name));
    }
}

/// [`end_span`] for a span whose work the end of the run cut short: the
/// end event carries `truncated: true`.
pub fn end_span_truncated(name: SpanName, id: u64) {
    if id != 0 {
        emit(SpanEnd {
            truncated: Some(true),
            ..SpanEnd::new(id, name)
        });
    }
}

/// RAII span: emits `span_begin` on creation and `span_end` on drop.
/// For spans whose lifetime does not follow lexical scope (e.g. a
/// reconfiguration tracked across simulator events), use
/// [`begin_span`]/[`end_span`] with a stored id instead.
pub struct SpanGuard {
    name: SpanName,
    id: u64,
}

impl SpanGuard {
    /// Opens a span named `name`.
    pub fn enter(name: SpanName) -> Self {
        SpanGuard {
            name,
            id: begin_span(name),
        }
    }

    /// The span's id (to correlate child events).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        end_span(self.name, self.id);
    }
}

/// Runs `f` with mutable access to this thread's metrics registry.
pub fn with_registry<R>(f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Clears this thread's metrics registry (between runs or tests).
pub fn reset_registry() {
    with_registry(MetricsRegistry::clear);
}

/// Emits a [`MetricsSnapshot`] carrying every counter and gauge in this
/// thread's registry, then flushes the sink. Histograms are summarised as
/// `<name>.p50/.p95/.p99/.max/.count` fields.
pub fn emit_metrics_snapshot() {
    if !enabled() {
        return;
    }
    let values = with_registry(|r| {
        let mut values: Vec<(String, Value)> = Vec::new();
        for (name, v) in r.counters() {
            values.push((name.to_string(), v.into()));
        }
        for (name, v) in r.gauges() {
            values.push((name.to_string(), v.into()));
        }
        for (name, h) in r.histograms() {
            values.push((format!("{name}.count"), h.count().into()));
            values.push((format!("{name}.p50"), h.quantile(0.50).into()));
            values.push((format!("{name}.p95"), h.quantile(0.95).into()));
            values.push((format!("{name}.p99"), h.quantile(0.99).into()));
            values.push((format!("{name}.max"), h.max().into()));
        }
        values
    });
    emit(MetricsSnapshot { values });
    flush();
}

/// Emits the typed record `$record` when [`enabled`]; otherwise nothing
/// is built and the expression is not evaluated.
///
/// ```ignore
/// tel_event!(SchedulePlanned { from: b.into(), to: a.into(), rounds: count(n) });
/// ```
#[macro_export]
macro_rules! tel_event {
    ($record:expr) => {
        if $crate::enabled() {
            $crate::emit($record);
        }
    };
}

/// Opens an RAII span bound to `$guard` for the rest of the enclosing
/// scope when [`enabled`]; otherwise `$guard` is `None`.
///
/// ```ignore
/// tel_span!(guard, SpanName::PlannerDp);
/// ```
#[macro_export]
macro_rules! tel_span {
    ($guard:ident, $name:expr) => {
        let $guard = if $crate::enabled() {
            Some($crate::SpanGuard::enter($name))
        } else {
            None
        };
        let _ = &$guard;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_sink_is_noop() {
        assert!(!enabled());
        emit(TxnArrive { id: 1, slot: 0 }); // must not panic
    }

    #[test]
    fn install_emit_and_guard_restore() {
        let (sink, handle) = MemorySink::new();
        {
            let _guard = install(Rc::new(sink));
            assert!(enabled());
            set_time(3.25);
            emit(TxnArrive { id: 1, slot: 0 });
            clear_time();
            emit(TxnArrive { id: 2, slot: 0 });
        }
        assert!(!enabled());
        let events = handle.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t, Some(3.25));
        assert_eq!(events[1].t, None);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn span_guard_emits_balanced_pair() {
        let (sink, handle) = MemorySink::new();
        let _guard = install(Rc::new(sink));
        {
            let span = SpanGuard::enter(SpanName::Tick);
            assert_ne!(span.id(), 0);
            emit(TxnArrive { id: 1, slot: 0 });
        }
        let (trace, errors) = decode_trace(&handle.events());
        assert!(errors.is_empty());
        let [Record::SpanBegin(begin), _, Record::SpanEnd(end)] =
            [&trace[0].record, &trace[1].record, &trace[2].record]
        else {
            panic!("expected begin, event, end: {trace:?}");
        };
        assert_eq!(begin.id, end.id);
        assert_eq!(begin.name, SpanName::Tick);
    }

    #[test]
    fn manual_span_ignores_zero_id() {
        let (sink, handle) = MemorySink::new();
        let _guard = install(Rc::new(sink));
        end_span(SpanName::Reconfig, 0);
        end_span_truncated(SpanName::Reconfig, 0);
        assert!(handle.is_empty());
        let id = begin_span_with(SpanBegin::reconfig(0, 2, 4));
        end_span_truncated(SpanName::Reconfig, id);
        let events = handle.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field_u64("from"), Some(2));
        assert_eq!(
            events[1].field("truncated").and_then(Value::as_bool),
            Some(true)
        );
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the registry is thread-local, and a second thread is what shows it"
    )]
    fn registry_is_per_thread() {
        reset_registry();
        with_registry(|r| r.inc_counter("c", 1));
        let other = std::thread::spawn(|| with_registry(|r| r.counter("c")))
            .join()
            .unwrap();
        assert_eq!(other, 0);
        assert_eq!(with_registry(|r| r.counter("c")), 1);
        reset_registry();
    }

    #[test]
    fn metrics_snapshot_summarises_registry() {
        let (sink, handle) = MemorySink::new();
        let _guard = install(Rc::new(sink));
        reset_registry();
        with_registry(|r| {
            r.inc_counter("moves", 4);
            r.set_gauge("skew", 1.25);
            r.record_histogram("lat", 0.2);
        });
        emit_metrics_snapshot();
        let events = handle.of_kind(kinds::METRICS_SNAPSHOT);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field_u64("moves"), Some(4));
        assert_eq!(events[0].field_f64("skew"), Some(1.25));
        assert_eq!(events[0].field_u64("lat.count"), Some(1));
        reset_registry();
    }

    #[test]
    fn nested_install_restores_outer_sink() {
        let (outer, outer_h) = MemorySink::new();
        let _outer_guard = install(Rc::new(outer));
        {
            let (inner, inner_h) = MemorySink::new();
            let _inner_guard = install(Rc::new(inner));
            emit(TxnArrive { id: 1, slot: 0 });
            assert_eq!(inner_h.len(), 1);
        }
        emit(TxnArrive { id: 2, slot: 0 });
        let outer_events = outer_h.events();
        assert_eq!(outer_events.len(), 1);
        assert_eq!(outer_events[0].field_u64("id"), Some(2));
    }
}
