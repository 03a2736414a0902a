//! Allocation accounting for the per-transaction warm path, measured with
//! a counting global allocator (test binary only — the library never
//! swaps allocators).
//!
//! The engine's dispatch path — routing-key hashing, slot lookup, dense
//! slot-access counters, procedure statistics — must stay off the heap
//! once warm: it runs once per simulated transaction, hundreds of
//! thousands of times per experiment cell. So must a row rewritten where
//! it lies and an insert that is refused. What a real workload adds on
//! top (rows written and returned; ids and keys are inline and cost
//! nothing) has its own budget, over the whole B2W stream, generator
//! included: `crates/b2w/tests/stream_alloc.rs`.

use pstore_dbms::catalog::{columns, Catalog, ColumnType, TableSchema};
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::partition::PartitionStore;
use pstore_dbms::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
use pstore_dbms::value::{Key, KeyValue, Row, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

/// Counts every allocation and reallocation routed through the global
/// allocator, **per thread**: the harness runs tests (and its own
/// bookkeeping) on several threads, so a process-global counter would
/// pick up another thread's allocations mid-measurement and flake — under
/// the native scheduler occasionally, under miri's deterministically.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`, only adding a counter.
// `try_with` (not `with`) keeps allocations during TLS teardown from
// recursing into a destructed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract (valid,
    // non-zero-size layout); we forward it to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
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
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` pair is the caller's obligation and
        // `ptr` originated from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (incl. reallocations) performed by this thread while
/// running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (THREAD_ALLOCS.with(Cell::get) - before, out)
}

/// Warm-up / probe iteration counts: full-size natively, scaled down
/// under miri (interpreted execution is ~1000x slower; the property —
/// zero allocations once warm — is count-independent as long as every
/// probe key was seen during warm-up).
const WARMUP_KEYS: i64 = if cfg!(miri) { 64 } else { 2_000 };
const PROBE_KEYS: i64 = if cfg!(miri) { 32 } else { 1_000 };

fn test_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new(
        "KV",
        columns(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        1,
    ));
    cat
}

/// A read-only probe: routes by an integer key and checks for a row that
/// is absent, touching routing, the slot-check, the storage lookup, and
/// the procedure/statistics bookkeeping — without producing owned output.
/// The key is owned by the probe (as a real transaction owns its data), so
/// executing it measures only the engine's work.
struct Probe {
    id: i64,
    key: Key,
}

impl Probe {
    fn new(id: i64) -> Self {
        Probe {
            id,
            key: Key::int(id),
        }
    }
}

impl Procedure for Probe {
    fn name(&self) -> &'static str {
        "Probe"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Int(self.id)
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let _ = ctx.get(0, &self.key);
        Ok(TxnOutput::None)
    }
}

#[test]
fn warm_engine_dispatch_path_is_allocation_free() {
    let mut cluster = Cluster::new(
        test_catalog(),
        ClusterConfig {
            partitions_per_node: 4,
            num_slots: 128,
        },
        3,
    );
    // Warm up: touch every slot so the dense per-partition counters have
    // grown to their final size and the procedure-stats entry exists.
    for key in 0..WARMUP_KEYS {
        let p = Probe::new(key);
        let slot = cluster.slot_of_routing(&p.routing_key());
        cluster.execute_at_slot(&p, slot).unwrap();
    }

    // Probe keys are a subset of the warm-up keys, so no lookup below
    // can grow a table for the first time.
    let probes: Vec<Probe> = (0..PROBE_KEYS).map(Probe::new).collect();
    let (n, ()) = allocations(|| {
        for p in &probes {
            let slot = cluster.slot_of_routing(&p.routing_key());
            cluster.execute_at_slot(p, slot).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "warm per-transaction dispatch path allocated {n} times over {PROBE_KEYS} txns"
    );
}

#[test]
fn slot_of_routing_never_allocates_for_typical_keys() {
    let cluster = Cluster::new(test_catalog(), ClusterConfig::default(), 2);
    let int_key = KeyValue::Int(0x00de_adbe_ef42);
    let str_key = KeyValue::Str("cart-00deadbeef42".into());
    let (n, _) = allocations(|| {
        let mut acc = 0u64;
        for _ in 0..PROBE_KEYS {
            acc ^= cluster.slot_of_routing(&int_key);
            acc ^= cluster.slot_of_routing(&str_key);
        }
        acc
    });
    assert_eq!(n, 0, "slot_of_routing allocated {n} times");
}

/// A row rewritten in place costs the heap nothing (the `get`, clone and
/// `put` it replaces allocated the clone), and neither does an insert
/// refused because the key is taken — nor the error that says so, its key
/// being inline.
#[test]
fn a_warm_update_and_a_refused_insert_allocate_nothing() {
    let mut store = PartitionStore::new(1);
    let keys: Vec<Key> = (0..PROBE_KEYS).map(|i| Key::str_int("cart-7", i)).collect();
    for (i, key) in (0..).zip(&keys) {
        store.put(0, 0, key.clone(), Row(vec![Value::Int(i), Value::Int(0)]));
    }
    // One routing component for every key: any slot count will do.
    let mut ctx = TxnCtx::settled(0, 1, &mut store);
    let (n, sum) = allocations(|| {
        let mut sum = 0;
        for key in &keys {
            sum += ctx
                .update(0, "KV", key, |row| {
                    let bumped = row.0[0].as_int().unwrap_or(0) + 1;
                    row.0[1] = Value::Int(bumped);
                    Ok(bumped)
                })
                .unwrap();
        }
        sum
    });
    assert_eq!(sum, (1..=PROBE_KEYS).sum::<i64>());
    assert_eq!(n, 0, "{PROBE_KEYS} warm updates allocated {n} times");

    // The rows to offer are built first: they are the caller's.
    let offered: Vec<(Key, Row)> = keys
        .iter()
        .map(|k| (k.clone(), Row(vec![Value::Null])))
        .collect();
    let (n, refused) = allocations(|| {
        offered
            .into_iter()
            .map(|(key, row)| ctx.insert_new(0, "KV", key, row))
            .filter(|r| matches!(r, Err(TxnError::AlreadyExists { table: "KV", .. })))
            .count()
    });
    assert_eq!(refused, keys.len());
    assert_eq!(n, 0, "{refused} refused inserts allocated {n} times");
    assert_eq!(
        store.get(0, 0, &keys[3]),
        Some(&Row(vec![Value::Int(3), Value::Int(4)]))
    );
    assert_eq!(store.total_bytes(), store.recompute_bytes());
}

/// With no sink installed the span helpers return the id-0 sentinel
/// without building a name, an event or anything else — `tel_span!` sits
/// on the planner's path in every run, traced or not.
#[test]
fn span_helpers_never_allocate_without_a_sink() {
    use pstore_telemetry::{begin_span, end_span, end_span_truncated, SpanGuard, SpanName};

    assert!(!pstore_telemetry::enabled());
    let (n, ids) = allocations(|| {
        let mut ids = 0u64;
        for _ in 0..PROBE_KEYS {
            let guard = SpanGuard::enter(SpanName::PlannerDp);
            ids += guard.id();
            let id = begin_span(SpanName::Reconfig);
            end_span(SpanName::Reconfig, id);
            end_span_truncated(SpanName::Reconfig, id);
            ids += id;
        }
        ids
    });
    assert_eq!(n, 0, "span helpers allocated {n} times with no sink");
    assert_eq!(ids, 0, "a span id was handed out with no sink installed");
}

#[test]
fn slot_access_reset_keeps_buffers_and_stays_allocation_free() {
    let mut cluster = Cluster::new(test_catalog(), ClusterConfig::default(), 2);
    let probes: Vec<Probe> = (0..PROBE_KEYS).map(Probe::new).collect();
    for p in &probes {
        cluster.execute(p).unwrap();
    }
    let (n, ()) = allocations(|| {
        cluster.reset_slot_accesses();
        for p in &probes {
            let slot = cluster.slot_of_routing(&p.routing_key());
            cluster.execute_at_slot(p, slot).unwrap();
        }
        let counts = cluster.slot_access_counts();
        assert_eq!(
            counts.iter().sum::<u64>(),
            u64::try_from(PROBE_KEYS).unwrap()
        );
    });
    assert_eq!(n, 0, "reset + warm re-count allocated {n} times");
}

/// The row `i` of the chunk-move tests: an inline two-part key and a
/// two-column row, 72 modelled bytes.
fn cart_line(i: usize) -> (Key, Row) {
    let i = i as i64;
    (
        Key::str_int("cart-7", i),
        Row(vec![Value::Int(i), Value::Int(-i)]),
    )
}

/// A source holding `rows` rows of `slot`, and a destination that has
/// held other slots: its slot table has room for one more.
fn chunk_move_stores(slot: u64, rows: usize) -> (PartitionStore, PartitionStore) {
    let (mut src, mut dst) = (PartitionStore::new(1), PartitionStore::new(1));
    for i in 0..rows {
        let (key, row) = cart_line(i);
        src.put(slot, 0, key, row);
    }
    for other in 100..105 {
        let (key, row) = cart_line(other);
        dst.put(other as u64, 0, key, row);
    }
    (src, dst)
}

/// A slot that fits the chunk budget changes owner as it is: no row is
/// touched, so nothing is allocated, whatever the slot's size.
#[test]
fn a_slot_handed_over_whole_allocates_nothing() {
    for rows in [30, 300] {
        let (mut src, mut dst) = chunk_move_stores(9, rows);
        let mut moved = HashMap::default();
        let bytes = src.slot_bytes(9);
        let (n, out) = allocations(|| src.migrate_chunk_to(&mut dst, &mut moved, 9, bytes));
        assert_eq!(out, (rows, bytes, true));
        assert_eq!(n, 0, "handing over a {rows}-row slot allocated {n} times");
        assert_eq!((src.total_rows(), dst.slot_bytes(9)), (0, bytes));
        assert!(moved.is_empty());
    }
}

/// A chunk that takes part of a slot is cut off the source's tree. Where
/// the destination holds nothing of the slot it lands as it is: the
/// cut's spine and the moved set, sized once, whatever the chunk's size.
/// Where part of the slot went ahead its rows are inserted one by one:
/// what a tree of them allocates, and the moved set's growth.
#[test]
fn a_partial_chunk_allocates_a_constant_beyond_its_rows() {
    for rows in [40, 400] {
        let lines: Vec<(Key, Row)> = (rows..2 * rows).map(cart_line).collect();
        let (tree_allocs, tree) = allocations(|| {
            let mut tree = BTreeMap::new();
            for (key, row) in lines {
                tree.insert((0usize, key), row);
            }
            tree
        });
        assert_eq!(tree.len(), rows);

        let (mut src, mut dst) = chunk_move_stores(9, 3 * rows);
        let mut moved = HashMap::default();
        let budget = src.slot_bytes(9) / 3;
        let (first, out) = allocations(|| src.migrate_chunk_to(&mut dst, &mut moved, 9, budget));
        assert_eq!(out, (rows, budget, false));
        assert_eq!(moved[&9].len(), rows);
        // The moved-set map's first table, the set's own, and a node per
        // level of the tree that was cut.
        assert!(
            first <= 8,
            "a first chunk of {rows} rows allocated {first} times"
        );

        let (second, out) = allocations(|| src.migrate_chunk_to(&mut dst, &mut moved, 9, budget));
        assert_eq!(out, (rows, budget, false));
        assert_eq!(moved[&9].len(), 2 * rows);
        assert!(
            second <= tree_allocs + 8,
            "a second chunk of {rows} rows allocated {second} times, a tree of them {tree_allocs}"
        );
    }
}
