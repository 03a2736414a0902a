//! Skew management (the paper's §10 future-work direction): detect a hot
//! key with slot-level monitoring, plan an E-Store-style rebalance, and
//! execute it live — alongside P-Store's size-changing reconfigurations.
//!
//! Run with: `cargo run --release --example skew_rebalancing`

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "example code: abort loudly"
)]
use pstore::b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore::b2w::procedures::GetStockQuantity;
use pstore::b2w::schema::b2w_catalog;
use pstore::dbms::cluster::{Cluster, ClusterConfig};
use pstore::dbms::skew::{imbalance, node_loads, plan_rebalance, SkewConfig};

fn main() {
    let mut gen = WorkloadGenerator::new(WorkloadConfig {
        num_skus: 2_000,
        initial_carts: 500,
        ..WorkloadConfig::default()
    });
    let mut cluster = Cluster::new(
        b2w_catalog(),
        ClusterConfig {
            partitions_per_node: 6,
            num_slots: 7_200,
        },
        4,
    );
    for p in gen.seed_stock_procedures() {
        cluster.execute(&p).unwrap();
    }
    for t in gen.initial_load() {
        cluster.execute(&t).unwrap();
    }

    // Normal traffic plus three viral products everyone is checking: 30%
    // of all requests hit three SKUs — the hot-tuple skew E-Store was
    // built for, which P-Store's uniform model does not handle.
    let viral: Vec<_> = [17, 171, 1234]
        .iter()
        .map(|&i| gen.seed_stock_procedures()[i].sku.clone())
        .collect();
    println!("running skewed traffic: 30% of reads hit {viral:?}");
    let skewed = |cluster: &mut Cluster, gen: &mut WorkloadGenerator, n: usize| {
        for i in 0..n {
            if i % 10 < 3 {
                let _ = cluster.execute(&GetStockQuantity {
                    sku: viral[i % 3].clone(),
                });
            } else {
                let t = gen.next_txn();
                let _ = cluster.execute(&t);
            }
        }
    };
    cluster.reset_slot_accesses();
    skewed(&mut cluster, &mut gen, 120_000);

    let report = cluster.slot_access_report();
    let loads = node_loads(cluster.current_plan(), &report);
    println!("\nper-node load (accesses) before rebalance: {loads:?}");
    println!(
        "imbalance: max is {:.1}% above the mean",
        100.0 * imbalance(&loads)
    );

    let proposal = plan_rebalance(
        cluster.current_plan(),
        &report,
        &SkewConfig {
            imbalance_threshold: 0.10,
            max_slot_moves: 64,
        },
    )
    .expect("the viral SKU should trip the imbalance detector");
    println!(
        "\nrebalance plan: {} slot moves, predicted imbalance {:.1}%",
        proposal.moves.len(),
        100.0 * proposal.predicted_imbalance
    );
    for (slot, from, to) in proposal.moves.iter().take(5) {
        println!("  slot {slot}: node {from} -> node {to}");
    }

    // Execute it live, traffic still running.
    cluster.begin_plan_reconfiguration(proposal.plan).unwrap();
    let mut i = 0usize;
    while cluster.reconfiguring() {
        let pairs = cluster.pair_transfers().len();
        let _ = cluster.migrate_chunk(i % pairs, 32 * 1024).unwrap();
        skewed(&mut cluster, &mut gen, 10);
        i += 1;
    }
    println!("\nrebalance executed live ({i} chunk steps)");

    // Measure again under the same skewed traffic.
    cluster.reset_slot_accesses();
    skewed(&mut cluster, &mut gen, 120_000);
    let report = cluster.slot_access_report();
    let loads = node_loads(cluster.current_plan(), &report);
    println!("\nper-node load (accesses) after rebalance:  {loads:?}");
    println!(
        "imbalance: max is {:.1}% above the mean",
        100.0 * imbalance(&loads)
    );
    println!("\n(P-Store decides *how many* machines; this balancer decides");
    println!(" *where* the hot data lives — the combination §10 calls for)");
}
