//! Concurrency checkers for the sweep surface (`CON-01..CON-03`) and
//! the sharded execution engine (`CON-04`/`CON-05`).
//!
//! Two complementary layers enforce these invariants:
//!
//! * **Model checking** — `vendor/rayon/tests/loom_models.rs` explores
//!   *every* interleaving of the pool's claim/execute/store protocol,
//!   the merge happens-before edge and the registry-isolation
//!   discipline under `RUSTFLAGS="--cfg loom"` (the pool's primitives
//!   swap to `loom` types there), and
//!   `crates/dbms/tests/loom_models.rs` does the same for the engine's
//!   mailbox handoff and reconfig fence. That layer proves the
//!   protocols.
//! * **Runtime checking (this module)** — drives the *production*
//!   [`Sweep`] runner and the *production* sharded
//!   [`Cluster`](pstore_dbms::Cluster) on real threads: no cell is lost
//!   or mis-attributed (CON-01), the ordered merge observes every
//!   cell's results and telemetry exactly as a serial run does
//!   (CON-02), no cell sees another cell's registry state (CON-03), the
//!   engine's mailbox routing delivers every transaction's fate exactly
//!   once, in submission order, bit-identical to the serial engine
//!   (CON-04 — [`check_mailbox_handoff`]), and reconfiguration under
//!   concurrent traffic fences in-flight shard execution so chunk moves
//!   never observe or lose mid-flight work (CON-05 —
//!   [`check_reconfig_fence`]).
//!
//! The runtime layer cannot enumerate schedules, but it covers what the
//! models abstract away: the real telemetry machinery, panicking and
//! stalling cells, the full result path of `pstore-bench`, and the full
//! routing/migration state machine of `pstore-dbms`.

use std::rc::Rc;

use pstore_bench::sweep::{Cell, CellFailure, Sweep};
use pstore_core::{InvariantId, Violation};
use pstore_dbms::catalog::{columns, ColumnType, TableSchema};
use pstore_dbms::{
    Catalog, Cluster, ClusterConfig, Key, KeyValue, Procedure, Row, TxnCtx, TxnError, TxnFate,
    TxnOutput, Value,
};
use pstore_telemetry as tel;

/// Cells in the fault-injection grid (indices 2 and 4 fail, index 5
/// stalls; the rest return `index * 100`).
const FAULT_GRID: u64 = 6;
/// Instrumented cells in the merge-barrier comparison.
const MERGE_CELLS: u64 = 6;
/// Probe cells in the registry-isolation check.
const PROBE_CELLS: usize = 8;

/// CON-01: a fault-injected sweep at `threads` must return one entry
/// per cell, in cell order, with failures attributed to the right cell
/// — identically to the serial run.
pub fn check_queue_integrity(threads: usize) -> Vec<Violation> {
    let artifact = format!("fault-injected sweep threads={threads}");
    let mut violations = Vec::new();

    // Injected panics are expected; keep them off the report output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = Sweep::new(threads).run_fallible(fault_grid());
    let serial = Sweep::new(1).run_fallible(fault_grid());
    std::panic::set_hook(prev_hook);

    let expected = expected_fault_outcomes();
    if results.len() != expected.len() {
        violations.push(Violation::new(
            InvariantId::ConcurrencyQueueIntegrity,
            artifact.clone(),
            format!("{} cells in, {} results out", expected.len(), results.len()),
        ));
        return violations;
    }
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        if got != want {
            violations.push(Violation::new(
                InvariantId::ConcurrencyQueueIntegrity,
                artifact.clone(),
                format!("cell {i}: expected {want:?}, got {got:?}"),
            ));
        }
    }
    if results != serial {
        violations.push(Violation::new(
            InvariantId::ConcurrencyQueueIntegrity,
            artifact,
            "failure reporting differs from the serial run".to_string(),
        ));
    }
    violations
}

/// CON-02: after a capturing sweep at `threads`, the merged telemetry
/// (events, counters, gauges, histograms) and the results must be
/// indistinguishable from the serial run — evidence that the merge only
/// starts once every cell's writes are visible.
pub fn check_merge_barrier(threads: usize) -> Vec<Violation> {
    let artifact = format!("capturing sweep threads={threads} vs serial");
    let mut violations = Vec::new();
    let (r_ser, e_ser, m_ser) = capture_run(1);
    let (r_par, e_par, m_par) = capture_run(threads);

    if r_par != r_ser {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            "cell results differ from the serial run".to_string(),
        ));
    }
    if normalised(&e_par) != normalised(&e_ser) {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            format!(
                "forwarded event streams differ ({} serial vs {} parallel events)",
                e_ser.len(),
                e_par.len()
            ),
        ));
    }
    if m_par.counter("con_ticks") != m_ser.counter("con_ticks") {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            format!(
                "merged counter differs: serial {} vs parallel {}",
                m_ser.counter("con_ticks"),
                m_par.counter("con_ticks")
            ),
        ));
    }
    if m_par.gauge("con_last_seed").map(f64::to_bits)
        != m_ser.gauge("con_last_seed").map(f64::to_bits)
    {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact.clone(),
            "merged gauge differs from the serial run (ordered merge broken)".to_string(),
        ));
    }
    let histograms_match = match (m_ser.histogram("con_lat"), m_par.histogram("con_lat")) {
        (Some(s), Some(p)) => s.content_eq(p),
        (None, None) => true,
        _ => false,
    };
    if !histograms_match {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMergeBarrier,
            artifact,
            "merged histogram differs from the serial run".to_string(),
        ));
    }
    violations
}

/// CON-03: probe cells that read the registry before touching it must
/// all observe a clean state, including cells run back-to-back on a
/// reused worker (`threads == 1` forces maximal reuse).
pub fn check_registry_isolation(threads: usize) -> Vec<Violation> {
    let artifact = format!("registry probe sweep threads={threads}");
    let (sink, _handle) = tel::MemorySink::new();
    tel::reset_registry();
    let guard = tel::install(Rc::new(sink));
    let cells: Vec<Cell<u64>> = (0..PROBE_CELLS)
        .map(|_| {
            Cell::new("probe", || {
                let before = tel::with_registry(|r| r.counter("con_probe"));
                tel::with_registry(|r| r.inc_counter("con_probe", 1));
                before
            })
        })
        .collect();
    let observed = Sweep::new(threads).run(cells);
    drop(guard);
    tel::reset_registry();

    let mut violations = Vec::new();
    for (i, before) in observed.iter().enumerate() {
        if *before != 0 {
            violations.push(Violation::new(
                InvariantId::ConcurrencyRegistryIsolation,
                artifact.clone(),
                format!("cell {i} observed {before} leaked probe increment(s)"),
            ));
        }
    }
    if observed.len() != PROBE_CELLS {
        violations.push(Violation::new(
            InvariantId::ConcurrencyRegistryIsolation,
            artifact,
            format!("{PROBE_CELLS} probes in, {} results out", observed.len()),
        ));
    }
    violations
}

/// CON-04: the same mixed workload (upserts, reads, business aborts)
/// driven through the threaded engine at `shards` must produce the same
/// fate stream — count, order, results, read/write sets — and the same
/// post-state (stats, table contents, slot access counters) as the
/// serial inline engine. Any loss, duplication or reordering in the
/// mailbox routing shows up as a diff.
pub fn check_mailbox_handoff(shards: u32) -> Vec<Violation> {
    let artifact = format!("sharded engine mixed workload shards={shards}");
    let mut violations = Vec::new();
    let mut inline = kv_cluster(1);
    let mut sharded = kv_cluster(shards);
    let a = drive_mixed(&mut inline);
    let b = drive_mixed(&mut sharded);
    violations.extend(compare_fates(
        InvariantId::ConcurrencyMailboxHandoff,
        &artifact,
        &a,
        &b,
    ));
    if inline.stats() != sharded.stats() {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMailboxHandoff,
            artifact.clone(),
            format!(
                "engine stats diverged: serial {:?} vs sharded {:?}",
                inline.stats(),
                sharded.stats()
            ),
        ));
    }
    if inline.export_table(0) != sharded.export_table(0) {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMailboxHandoff,
            artifact.clone(),
            "table contents diverged from the serial engine".to_string(),
        ));
    }
    if inline.slot_access_report() != sharded.slot_access_report() {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMailboxHandoff,
            artifact,
            "slot access counters diverged from the serial engine".to_string(),
        ));
    }
    violations
}

/// CON-05: a live scale-out (2 → 5 nodes) with transactions submitted
/// against mid-flight slots between every chunk move must, at any shard
/// count, (a) match the serial engine's fate stream and post-state
/// bit-for-bit, (b) pass the engine's own integrity audit, and (c) keep
/// the incremental per-shard slot-access counters in agreement with the
/// fenced [`Cluster::rebuild_slot_access_report`] recount — the audit
/// oracle that a fence observing in-flight work would break.
pub fn check_reconfig_fence(shards: u32) -> Vec<Violation> {
    let artifact = format!("sharded engine live reconfiguration shards={shards}");
    let mut violations = Vec::new();
    let mut inline = kv_cluster(1);
    let mut sharded = kv_cluster(shards);
    let a = drive_reconfig(&mut inline, &artifact, &mut violations);
    let b = drive_reconfig(&mut sharded, &artifact, &mut violations);
    violations.extend(compare_fates(
        InvariantId::ConcurrencyReconfigFence,
        &artifact,
        &a,
        &b,
    ));
    for (name, c) in [("serial", &inline), ("sharded", &sharded)] {
        if let Err(err) = c.verify_integrity() {
            violations.push(Violation::new(
                InvariantId::ConcurrencyReconfigFence,
                artifact.clone(),
                format!("{name} engine failed its integrity audit: {err}"),
            ));
        }
        if c.rebuild_slot_access_report() != c.slot_access_report() {
            violations.push(Violation::new(
                InvariantId::ConcurrencyReconfigFence,
                artifact.clone(),
                format!(
                    "{name} engine: fenced slot-access recount disagrees with the \
                     incremental per-shard counters"
                ),
            ));
        }
    }
    if inline.stats() != sharded.stats()
        || inline.export_table(0) != sharded.export_table(0)
        || inline.partition_report() != sharded.partition_report()
    {
        violations.push(Violation::new(
            InvariantId::ConcurrencyReconfigFence,
            artifact.clone(),
            "post-reconfiguration state diverged from the serial engine".to_string(),
        ));
    }
    let shard_txns: u64 = sharded.shard_reports().iter().map(|r| r.txns).sum();
    let serial_txns: u64 = inline.shard_reports().iter().map(|r| r.txns).sum();
    if shard_txns != serial_txns {
        violations.push(Violation::new(
            InvariantId::ConcurrencyReconfigFence,
            artifact,
            format!("per-shard txn counts sum to {shard_txns}, serial engine ran {serial_txns}"),
        ));
    }
    violations
}

/// CON-04/05 at simulator granularity: one detailed-simulation run — a
/// load ramp that forces the reactive controller into a live scale-out
/// — executed on the serial engine and on four shards must agree on
/// every observable (the result struct's `Debug` rendering covers every
/// per-second metric, violation counter and reconfiguration span).
/// Under the `telemetry` feature both runs are captured and the sampled
/// transaction traces additionally (a) pass the full TEL-01/02/04,
/// TEL-06 and TXN-01 battery and (b) are identical between shard
/// counts.
pub fn check_sharded_sim() -> Vec<Violation> {
    let artifact = "detailed sim on the sharded engine (shards 1 vs 4)";
    let mut violations = Vec::new();

    #[cfg(feature = "telemetry")]
    let ((serial, serial_events), (sharded, sharded_events)) =
        (captured_sim_run(1), captured_sim_run(4));
    #[cfg(not(feature = "telemetry"))]
    let (serial, sharded) = (sharded_sim_run(1), sharded_sim_run(4));

    if serial.reconfig_spans.is_empty() {
        violations.push(Violation::new(
            InvariantId::ConcurrencyReconfigFence,
            artifact.to_string(),
            "scenario never migrated — the reconfig fence was not exercised".to_string(),
        ));
    }
    if format!("{serial:?}") != format!("{sharded:?}") {
        violations.push(Violation::new(
            InvariantId::ConcurrencyMailboxHandoff,
            artifact.to_string(),
            "sharded run is not bit-identical to the serial run".to_string(),
        ));
    }

    #[cfg(feature = "telemetry")]
    {
        for (label, events) in [("shards=1", &serial_events), ("shards=4", &sharded_events)] {
            let a = format!("{artifact} {label}");
            violations.extend(crate::telemetry::check_trace_spans(&a, events));
            violations.extend(crate::telemetry::check_trace_order(&a, events));
            violations.extend(crate::telemetry::check_txn_lifecycle(&a, events));
            violations.extend(crate::telemetry::check_txn_rwsets(&a, events));
        }
        if renumbered(&serial_events) != renumbered(&sharded_events) {
            violations.push(Violation::new(
                InvariantId::ConcurrencyMailboxHandoff,
                artifact.to_string(),
                "sampled telemetry streams differ between shard counts".to_string(),
            ));
        }
    }
    violations
}

/// One detailed run of the ramp scenario at `shards` executor shards.
fn sharded_sim_run(shards: u32) -> pstore_sim::detailed::DetailedSimResult {
    use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
    use pstore_sim::detailed::{run_detailed, DetailedSimConfig};

    let mut load: Vec<f64> = (0..60)
        .map(|s| 300.0 + 400.0 * f64::from(s) / 60.0)
        .collect();
    load.extend(vec![700.0; 120]);
    let mut cfg = DetailedSimConfig::paper_defaults(load, 0xBEEF);
    // The paper's 300 s decision interval would outlast this 180 s ramp;
    // tighten it so the reactive controller actually scales out mid-run.
    cfg.params.interval = std::time::Duration::from_secs(30);
    cfg.params.d = std::time::Duration::from_secs(300);
    cfg.workload.num_skus = 2_000;
    cfg.workload.initial_carts = 600;
    cfg.num_slots = 360;
    cfg.warmup_txns = 20_000;
    cfg.txn_sample_every = 7;
    cfg.shards = shards; // paper_defaults reads PSTORE_SHARDS; pin it
    let mut strat = ReactiveController::new(ReactiveConfig {
        q: 285.0,
        q_hat: 350.0,
        trigger_fraction: 0.9,
        headroom: 0.2,
        smoothing_window: 2,
        scale_in_patience: 10,
        max_machines: 10,
        initial_machines: 2,
    });
    run_detailed(&cfg, &mut strat)
}

/// [`sharded_sim_run`] under a capturing sink. Shared with the iso sweep
/// (`ISO-01..03` in `main.rs`), which replays the same fixed-seed ramp
/// at shards {1, 2, 4} and checks the sampled key-level histories.
#[cfg(feature = "telemetry")]
pub fn captured_sim_run(shards: u32) -> (pstore_sim::detailed::DetailedSimResult, Vec<tel::Event>) {
    let (sink, handle) = tel::MemorySink::new();
    let guard = tel::install(Rc::new(sink));
    let result = sharded_sim_run(shards);
    drop(guard);
    (result, handle.events())
}

/// [`normalised`], plus deterministic span-id renumbering: span ids come
/// from a process-global counter, so two runs in one process allocate
/// different raw ids. Renumbering each stream's span ids in first-seen
/// order makes structurally identical traces compare equal.
#[cfg(feature = "telemetry")]
fn renumbered(events: &[tel::Event]) -> Vec<EventKey> {
    use std::collections::HashMap;
    let mut dense: HashMap<u64, u64> = HashMap::new();
    events
        .iter()
        .map(|e| {
            let is_span = e.kind == tel::kinds::SPAN_BEGIN || e.kind == tel::kinds::SPAN_END;
            let fields = e
                .fields
                .iter()
                .map(|(k, v)| {
                    if is_span && k == "id" {
                        if let tel::Value::U64(raw) = v {
                            let next = dense.len() as u64 + 1;
                            return (
                                k.clone(),
                                tel::Value::U64(*dense.entry(*raw).or_insert(next)),
                            );
                        }
                    }
                    (k.clone(), v.clone())
                })
                .collect();
            (e.kind.clone(), e.t.map(f64::to_bits), fields)
        })
        .collect()
}

/// A two-node KV cluster on the real engine (threaded backend when
/// `shards > 1`), mirroring the catalog of the engine's own tests.
fn kv_cluster(shards: u32) -> Cluster {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new(
        "KV",
        columns(&[("k", ColumnType::Str), ("v", ColumnType::Int)]),
        1,
    ));
    Cluster::with_shards(
        cat,
        ClusterConfig {
            partitions_per_node: 4,
            num_slots: 64,
        },
        2,
        shards,
    )
}

/// Keys loaded (and re-read) by the engine drivers.
const ENGINE_KEYS: i64 = 300;

/// A trivial KV upsert routed by its key.
struct EnginePut {
    key: String,
    value: i64,
}

impl Procedure for EnginePut {
    fn name(&self) -> &'static str {
        "EnginePut"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.key.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        ctx.put(
            0,
            Key::str(self.key.clone()),
            Row(vec![Value::Int(self.value)]),
        );
        Ok(TxnOutput::None)
    }
}

/// A KV point read; aborts (business abort) on a missing key.
struct EngineGet {
    key: String,
}

impl Procedure for EngineGet {
    fn name(&self) -> &'static str {
        "EngineGet"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.key.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let row = ctx.get_required(0, "KV", &Key::str(self.key.clone()))?;
        Ok(TxnOutput::Row(row.clone()))
    }
}

/// Submits a put through the pipelined API, routed like production
/// traffic.
fn submit_put(c: &mut Cluster, i: i64) {
    let put = EnginePut {
        key: format!("key-{i}"),
        value: i,
    };
    let slot = c.slot_of_routing(&put.routing_key());
    c.submit(put, slot);
}

/// Submits a get through the pipelined API (missing keys abort).
fn submit_get(c: &mut Cluster, i: i64) {
    let get = EngineGet {
        key: format!("key-{i}"),
    };
    let slot = c.slot_of_routing(&get.routing_key());
    c.submit(get, slot);
}

/// Mixed workload: upserts, successful reads, and reads of missing keys
/// (business aborts), interleaved so fates of different kinds race
/// through the mailboxes together.
fn drive_mixed(c: &mut Cluster) -> Vec<TxnFate> {
    let mut fates = Vec::new();
    for i in 0..ENGINE_KEYS {
        submit_put(c, i);
        if i % 3 == 0 {
            submit_get(c, i / 2); // written earlier -> commits
        }
        if i % 17 == 0 {
            submit_get(c, ENGINE_KEYS + i); // never written -> aborts
        }
    }
    c.drain_fates_into(&mut fates);
    fates
}

/// Loads the table, then scales 2 → 5 nodes chunk by chunk with reads
/// submitted against in-flight slots between moves — the fence-critical
/// interleaving.
fn drive_reconfig(
    c: &mut Cluster,
    artifact: &str,
    violations: &mut Vec<Violation>,
) -> Vec<TxnFate> {
    let mut fates = Vec::new();
    for i in 0..ENGINE_KEYS {
        submit_put(c, i);
    }
    c.drain_fates_into(&mut fates);
    if let Err(err) = c.begin_reconfiguration(5) {
        violations.push(Violation::new(
            InvariantId::ConcurrencyReconfigFence,
            artifact.to_string(),
            format!("begin_reconfiguration failed: {err}"),
        ));
        return fates;
    }
    while c.reconfiguring() {
        for pair in 0..c.pair_transfers().len() {
            if !c.reconfiguring() {
                break;
            }
            if let Err(err) = c.migrate_chunk(pair, 700) {
                violations.push(Violation::new(
                    InvariantId::ConcurrencyReconfigFence,
                    artifact.to_string(),
                    format!("migrate_chunk failed mid-reconfiguration: {err}"),
                ));
                return fates;
            }
        }
        for i in 0..40 {
            submit_get(c, i);
        }
        c.drain_fates_into(&mut fates);
    }
    fates
}

/// Compares two fate streams element-wise; at most three diverging
/// entries are reported before the count summary.
fn compare_fates(
    id: InvariantId,
    artifact: &str,
    serial: &[TxnFate],
    sharded: &[TxnFate],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if serial.len() != sharded.len() {
        violations.push(Violation::new(
            id,
            artifact.to_string(),
            format!(
                "{} fates from the serial engine, {} from the sharded engine",
                serial.len(),
                sharded.len()
            ),
        ));
        return violations;
    }
    let mut diverged = 0usize;
    for (i, (a, b)) in serial.iter().zip(sharded).enumerate() {
        if a.result != b.result
            || a.slot != b.slot
            || a.rwset != b.rwset
            || a.touched_dest != b.touched_dest
            || a.key_reads != b.key_reads
            || a.key_writes != b.key_writes
        {
            diverged += 1;
            if diverged <= 3 {
                violations.push(Violation::new(
                    id,
                    artifact.to_string(),
                    format!("fate {i} diverged from the serial engine"),
                ));
            }
        }
    }
    if diverged > 3 {
        violations.push(Violation::new(
            id,
            artifact.to_string(),
            format!("{diverged} of {} fates diverged in total", serial.len()),
        ));
    }
    violations
}

/// The fault-injection grid: healthy, panicking (str and `String`
/// payloads) and stalling cells.
fn fault_grid() -> Vec<Cell<u64>> {
    (0..FAULT_GRID)
        .map(|i| {
            Cell::new(format!("fault-cell-{i}"), move || match i {
                2 => panic!("injected fault in cell 2"),
                4 => std::panic::panic_any(format!("injected String fault in cell {i}")),
                5 => {
                    // Stalling cell: completes well after its neighbours.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    i * 100
                }
                _ => i * 100,
            })
        })
        .collect()
}

/// What [`fault_grid`] must deterministically produce.
fn expected_fault_outcomes() -> Vec<Result<u64, CellFailure>> {
    (0..FAULT_GRID)
        .map(|i| match i {
            2 => Err(CellFailure {
                index: 2,
                label: "fault-cell-2".to_string(),
                message: "injected fault in cell 2".to_string(),
            }),
            4 => Err(CellFailure {
                index: 4,
                label: "fault-cell-4".to_string(),
                message: "injected String fault in cell 4".to_string(),
            }),
            _ => Ok(i * 100),
        })
        .collect()
}

/// An instrumented cell: a span, per-tick events, and counter /
/// histogram / gauge traffic derived from the seed.
fn instrumented_cell(seed: u64) -> Cell<u64> {
    Cell::new(format!("con-cell-{seed}"), move || {
        let span = tel::begin_span("con_work", &[("seed", tel::Value::U64(seed))]);
        for i in 0..4u64 {
            tel::emit(tel::Event::new("con_tick").with("i", i).with("seed", seed));
            tel::with_registry(|r| {
                r.inc_counter("con_ticks", 1);
                #[allow(clippy::cast_precision_loss)] // tiny probe values
                r.record_histogram("con_lat", 1e-3 * (seed + 1) as f64 * (i + 1) as f64);
            });
        }
        #[allow(clippy::cast_precision_loss)] // tiny probe values
        tel::with_registry(|r| r.set_gauge("con_last_seed", seed as f64));
        tel::end_span("con_work", span, &[]);
        seed * 7
    })
}

/// Runs the instrumented grid under a fresh sink/registry and returns
/// (results, forwarded events, merged registry).
fn capture_run(threads: usize) -> (Vec<u64>, Vec<tel::Event>, tel::MetricsRegistry) {
    let (sink, handle) = tel::MemorySink::new();
    tel::reset_registry();
    let guard = tel::install(Rc::new(sink));
    let cells: Vec<Cell<u64>> = (0..MERGE_CELLS).map(instrumented_cell).collect();
    let results = Sweep::new(threads).run(cells);
    drop(guard);
    let registry = tel::with_registry(|r| r.clone());
    tel::reset_registry();
    (results, handle.events(), registry)
}

/// An event's deterministic content: kind, timestamp (bit pattern) and
/// payload fields, with the process-global `seq` dropped.
type EventKey = (String, Option<u64>, Vec<(String, tel::Value)>);

/// Projects events onto their deterministic content.
fn normalised(events: &[tel::Event]) -> Vec<EventKey> {
    events
        .iter()
        .map(|e| (e.kind.clone(), e.t.map(f64::to_bits), e.fields.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Both runtime checkers spawn real OS threads and drive full sweep /
    // simulator runs — far beyond what miri can execute in reasonable
    // time (the pure ISO/TEL/TXN checker logic has its own miri-clean
    // unit tests).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn all_three_checkers_are_clean_at_one_and_four_threads() {
        for threads in [1, 4] {
            assert_eq!(check_queue_integrity(threads), Vec::new());
            assert_eq!(check_merge_barrier(threads), Vec::new());
            assert_eq!(check_registry_isolation(threads), Vec::new());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn engine_checkers_are_clean_at_one_and_four_shards() {
        for shards in [1, 4] {
            assert_eq!(check_mailbox_handoff(shards), Vec::new());
            assert_eq!(check_reconfig_fence(shards), Vec::new());
        }
    }
}
