//! Allocation budget of the B2W transaction stream, generator and engine
//! together, measured with a counting global allocator (test binary only).
//!
//! Ids, keys and string columns are stored inline (`pstore_dbms::value`),
//! so what is left on the heap per transaction is row storage: the one
//! `Vec` of each row a procedure writes or returns, tree nodes as tables
//! grow, and the generator's per-cart and per-checkout bookkeeping. This
//! file pins that: a procedure that only reads allocates its returned
//! payload and nothing else, and the stream as a whole stays within three
//! allocations per transaction (it made 16.4 when every id was a `String`).
//! The engine's dispatch path has its own zero-allocation proof in
//! `crates/dbms/tests/warm_path_alloc.rs`.

use pstore_b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore_b2w::schema::b2w_catalog;
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::txn::{Procedure, TxnOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation **per thread**, so that the
/// harness's other threads cannot leak into a measurement.
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

/// Heap allocations a returned payload is made of: one `Vec` per row,
/// and for a row set the outer `Vec` at each capacity it grew through
/// (1, then 4, 8, 16, …).
fn payload_allocations(output: &TxnOutput) -> u64 {
    match output {
        TxnOutput::None | TxnOutput::Count(_) | TxnOutput::Value(_) => 0,
        TxnOutput::Row(_) => 1,
        TxnOutput::Rows(rows) => {
            let mut outer = 1;
            let mut capacity = 1;
            while capacity < rows.len() {
                capacity = (capacity * 2).max(4);
                outer += 1;
            }
            outer + rows.len() as u64
        }
    }
}

#[test]
fn warm_stream_stays_within_its_allocation_budget() {
    const WARMUP_TXNS: usize = 40_000;
    const TXNS: usize = 20_000;

    // The Fig 9 `--quick` database on six machines, never reconfigured:
    // every slot is settled.
    let mut gen = WorkloadGenerator::new(WorkloadConfig {
        num_skus: 2_000,
        initial_carts: 600,
        ..WorkloadConfig::default()
    });
    let mut cluster = Cluster::new(
        b2w_catalog(),
        ClusterConfig {
            partitions_per_node: 6,
            num_slots: 3_600,
        },
        6,
    );
    for p in gen.seed_stock_procedures() {
        cluster.execute(&p).unwrap();
    }
    for t in gen.initial_load() {
        cluster.execute(&t).unwrap();
    }
    for _ in 0..WARMUP_TXNS {
        let txn = gen.next_txn();
        cluster.execute(&txn).unwrap();
    }

    let (mut generating, mut executing, mut read_only) = (0u64, 0u64, 0u64);
    for i in 0..TXNS {
        let (made, txn) = allocations(|| gen.next_txn());
        generating += made;
        let (made, result) = allocations(|| {
            let slot = cluster.slot_of_routing(&txn.routing_key());
            cluster.execute_at_slot(&txn, slot)
        });
        executing += made;
        let output = result.unwrap_or_else(|e| panic!("txn {i} ({}) aborted: {e}", txn.name()));
        if txn.is_read_only() {
            read_only += 1;
            assert!(
                made <= payload_allocations(&output),
                "read-only {} allocated {made} times for a payload of {}: {output:?}",
                txn.name(),
                payload_allocations(&output)
            );
        }
    }
    assert!(read_only > TXNS as u64 / 10, "only {read_only} read-only");

    let per_txn = |n: u64| n as f64 / TXNS as f64;
    assert!(
        per_txn(generating) <= 0.5,
        "generator: {} allocations per transaction",
        per_txn(generating)
    );
    assert!(
        per_txn(generating + executing) <= 3.0,
        "stream: {} + {} allocations per transaction (generator + engine)",
        per_txn(generating),
        per_txn(executing)
    );
}
