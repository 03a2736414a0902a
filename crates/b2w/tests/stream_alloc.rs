#![allow(
    clippy::unwrap_used,
    reason = "the stream helper aborts loudly, as the tests do"
)]

//! Allocation budget of the B2W transaction stream, generator and engine
//! together, measured with a counting global allocator (test binary only).
//!
//! Ids, keys and string columns are stored inline (`pstore_dbms::value`),
//! rows are shared rather than copied (a read hands out the stored row),
//! rewritten where they lie (`TxnCtx::update`) and deleted by prefix in
//! one pass, so what is left on the heap per transaction is row storage:
//! the one block of each row a procedure inserts, the outer `Vec` of a
//! row set it returns, tree nodes as tables grow, and the generator's
//! per-cart and per-checkout bookkeeping. This file pins that: a
//! procedure that only reads allocates at most its returned row set's
//! `Vec`, sized once, and nothing else; one that rewrites a stock row or
//! a stock transaction allocates nothing; and the stream as a whole stays
//! within 0.76 allocations per transaction (it measures 0.66; it made 1.26
//! while a returned row was a copy and a prefix delete listed its keys,
//! 1.8 while a rewrite cloned its row, and 16.4 when every id was a
//! `String`). With no per-process hash key left in the engine the count
//! is also the same on every run. The engine's dispatch path has its own
//! zero-allocation proof in `crates/dbms/tests/warm_path_alloc.rs`.

use pstore_b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore_b2w::procedures::B2wTxn;
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

/// Heap allocations a returned payload is made of: a returned row is the
/// stored row, shared, and a row set is its outer `Vec`, sized once.
fn payload_allocations(output: &TxnOutput) -> u64 {
    match output {
        TxnOutput::None | TxnOutput::Count(_) | TxnOutput::Value(_) | TxnOutput::Row(_) => 0,
        TxnOutput::Rows(_) => 1,
    }
}

const WARMUP_TXNS: usize = 40_000;
const TXNS: usize = 20_000;

/// The Fig 9 `--quick` database, loaded onto `nodes` machines and run
/// warm.
fn warm_stream(nodes: u32) -> (WorkloadGenerator, Cluster) {
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
        nodes,
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
    (gen, cluster)
}

#[test]
fn warm_stream_stays_within_its_allocation_budget() {
    // Six machines, never reconfigured: every slot is settled.
    let (mut gen, mut cluster) = warm_stream(6);

    let (mut generating, mut executing, mut read_only) = (0u64, 0u64, 0u64);
    let mut rewrites = [0u64; 3];
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
        let rewrite = match txn {
            B2wTxn::ReserveStock(_) => Some(0),
            B2wTxn::PurchaseStock(_) => Some(1),
            B2wTxn::UpdateStockTransaction(_) => Some(2),
            _ => None,
        };
        if let Some(which) = rewrite {
            rewrites[which] += 1;
            assert_eq!(made, 0, "{} allocated {made} times", txn.name());
        }
    }
    assert!(read_only > TXNS as u64 / 10, "only {read_only} read-only");
    assert!(
        rewrites.iter().all(|&n| n > TXNS as u64 / 100),
        "only {rewrites:?} ReserveStock / PurchaseStock / UpdateStockTransaction"
    );

    let per_txn = |n: u64| n as f64 / TXNS as f64;
    assert!(
        per_txn(generating) <= 0.5,
        "generator: {} allocations per transaction",
        per_txn(generating)
    );
    assert!(
        per_txn(generating + executing) <= 0.76,
        "stream: {} + {} allocations per transaction (generator + engine)",
        per_txn(generating),
        per_txn(executing)
    );
}

/// Two runs of one stream allocate the same number of times — through a
/// scale-out in chunks smaller than a slot, so that slots leave and enter
/// the stores' tables and moved-key sets are built and dropped between
/// transactions. Where an entry lands in a hash table decides whether an
/// insert reuses a tombstone or grows the table, so under a per-process
/// hash key the count is free to differ from run to run (the benchmark's
/// README records 16.682503 against 16.682504 per transaction on
/// `elastic_day`); under a fixed hasher it cannot.
#[test]
fn two_runs_of_a_stream_allocate_the_same() {
    let run = || {
        let (mut gen, mut cluster) = warm_stream(3);
        cluster.begin_reconfiguration(6).unwrap();
        let (made, moved_beside) = allocations(|| {
            for i in 0..TXNS {
                if i % 16 == 0 && cluster.reconfiguring() {
                    let pairs = cluster.pair_transfers();
                    let pair = (0..pairs.len()).find(|&p| !pairs[p].is_done()).unwrap();
                    cluster.migrate_chunk(pair, 256).unwrap();
                }
                let txn = gen.next_txn();
                cluster.execute(&txn).unwrap();
            }
            cluster.stats().touched_migrating
        });
        assert!(moved_beside > 0, "no transaction met a half-moved slot");
        made
    };
    assert_eq!(run(), run());
}
