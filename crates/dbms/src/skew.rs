//! Skew-driven rebalancing: an E-Store-style planner over virtual slots.
//!
//! P-Store deliberately does not manage skew (§10 lists combining
//! predictive provisioning with E-Store/Clay-style skew management as
//! future work). This module implements that combination's building block:
//! given per-slot access counts (the detailed tier of E-Store's two-tier
//! monitoring, collected by
//! [`Cluster::slot_access_report`](crate::cluster::Cluster::slot_access_report)),
//! it detects load imbalance across nodes and produces a new [`SlotPlan`]
//! that greedily relocates the hottest slots from overloaded nodes onto
//! the least-loaded ones — E-Store's "hot tuples first, then cold chunks"
//! placement at slot granularity. The plan can be executed live with
//! [`Cluster::begin_plan_reconfiguration`](crate::cluster::Cluster::begin_plan_reconfiguration).

//!
//! ```
//! use pstore_dbms::skew::{plan_rebalance, SkewConfig};
//! use pstore_core::partition_plan::SlotPlan;
//! use std::collections::HashMap;
//!
//! let plan = SlotPlan::balanced(3, 30);
//! // Slot 0 is hot; everything else idle.
//! let mut accesses: HashMap<u64, u64> = (0..30).map(|s| (s, 10)).collect();
//! accesses.insert(0, 5_000);
//! let proposal = plan_rebalance(&plan, &accesses, &SkewConfig::default())
//!     .expect("imbalance detected");
//! assert!(!proposal.moves.is_empty());
//! ```

use pstore_core::partition_plan::SlotPlan;
use std::collections::HashMap;

/// Configuration of the skew balancer.
#[derive(Debug, Clone)]
pub struct SkewConfig {
    /// Rebalance only when the hottest node carries more than
    /// `1 + imbalance_threshold` times the mean node load (E-Store used a
    /// high/low CPU watermark; 0.15–0.3 are sensible values here).
    pub imbalance_threshold: f64,
    /// Upper bound on slots moved per rebalance (bounds migration work).
    pub max_slot_moves: usize,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            imbalance_threshold: 0.2,
            max_slot_moves: 64,
        }
    }
}

/// A proposed rebalance.
#[derive(Debug, Clone)]
pub struct SkewPlan {
    /// The new slot assignment.
    pub plan: SlotPlan,
    /// `(slot, from, to)` relocations, hottest first.
    pub moves: Vec<(u64, u32, u32)>,
    /// Predicted max-over-mean node load after the rebalance.
    pub predicted_imbalance: f64,
}

/// Per-node load implied by a plan and per-slot access counts.
pub fn node_loads(plan: &SlotPlan, accesses: &HashMap<u64, u64>) -> Vec<f64> {
    let mut loads = vec![0.0f64; plan.machines() as usize];
    for (slot, &owner) in plan.assignments().iter().enumerate() {
        let a = accesses.get(&(slot as u64)).copied().unwrap_or(0);
        loads[owner as usize] += a as f64;
    }
    loads
}

/// Max-over-mean imbalance of a load vector (0 = perfectly balanced).
pub fn imbalance(loads: &[f64]) -> f64 {
    let n = loads.len().max(1) as f64;
    let mean = loads.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let max = loads.iter().copied().fold(0.0, f64::max);
    max / mean - 1.0
}

/// Detects imbalance and proposes a greedy hot-slot relocation plan, or
/// `None` when the load is already within the threshold (or there is
/// nothing to move).
#[allow(
    clippy::cast_possible_truncation,
    reason = "slot ids and node indices fit their targets"
)]
pub fn plan_rebalance(
    plan: &SlotPlan,
    accesses: &HashMap<u64, u64>,
    cfg: &SkewConfig,
) -> Option<SkewPlan> {
    assert!(cfg.imbalance_threshold >= 0.0, "threshold must be >= 0");
    if plan.machines() < 2 {
        return None;
    }
    let mut loads = node_loads(plan, accesses);
    if imbalance(&loads) <= cfg.imbalance_threshold {
        return None;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;

    // Hottest slots first, as E-Store relocates hot tuples first.
    let mut hot_slots: Vec<(u64, u64)> = accesses
        .iter()
        .map(|(&s, &c)| (s, c))
        .filter(|&(_, c)| c > 0)
        .collect();
    hot_slots.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut assignment = plan.assignments().to_vec();
    let mut moves = Vec::new();
    for (slot, count) in hot_slots {
        if moves.len() >= cfg.max_slot_moves {
            break;
        }
        let from = assignment[slot as usize];
        // Only shed from nodes above the mean.
        if loads[from as usize] <= mean {
            continue;
        }
        // Coldest destination.
        let Some((to, &to_load)) = loads.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1))
        else {
            break;
        };
        let to = to as u32;
        if to == from {
            continue;
        }
        // Move only if it strictly improves the pair's balance.
        let c = count as f64;
        if to_load + c >= loads[from as usize] {
            continue;
        }
        assignment[slot as usize] = to;
        loads[from as usize] -= c;
        loads[to as usize] += c;
        moves.push((slot, from, to));
        if imbalance(&loads) <= cfg.imbalance_threshold {
            break;
        }
    }
    if moves.is_empty() {
        return None;
    }
    let new_plan = SlotPlan::from_assignments(assignment, plan.machines());
    Some(SkewPlan {
        predicted_imbalance: imbalance(&loads),
        plan: new_plan,
        moves,
    })
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests use exact values and tiny ids"
    )]
    use super::*;

    fn uniform_accesses(num_slots: usize, per_slot: u64) -> HashMap<u64, u64> {
        (0..num_slots as u64).map(|s| (s, per_slot)).collect()
    }

    #[test]
    fn balanced_load_needs_no_rebalance() {
        let plan = SlotPlan::balanced(4, 64);
        let accesses = uniform_accesses(64, 10);
        assert!(plan_rebalance(&plan, &accesses, &SkewConfig::default()).is_none());
    }

    #[test]
    fn hot_slot_is_relocated_off_the_hot_node() {
        let plan = SlotPlan::balanced(4, 64);
        let mut accesses = uniform_accesses(64, 10);
        // Slot 0 (node 0) is scorching: node 0 carries ~4x the mean.
        accesses.insert(0, 2_000);
        let proposal =
            plan_rebalance(&plan, &accesses, &SkewConfig::default()).expect("imbalance detected");
        // With one mega-hot slot, the balancer isolates it: every move
        // drains *other* load off the hot node (moving the hot slot itself
        // would only relocate the hotspot).
        assert!(
            proposal.moves.iter().all(|&(_, from, _)| from == 0),
            "all moves should shed load from the hot node: {:?}",
            proposal.moves
        );
        assert!(!proposal.moves.is_empty());
        let before = imbalance(&node_loads(&plan, &accesses));
        assert!(
            proposal.predicted_imbalance < before,
            "imbalance must improve: {} -> {}",
            before,
            proposal.predicted_imbalance
        );
        assert!(proposal.plan.num_slots() == 64);
    }

    #[test]
    fn respects_move_budget() {
        let plan = SlotPlan::balanced(2, 64);
        let mut accesses = uniform_accesses(64, 1);
        // Many moderately hot slots all on node 0's side.
        for s in (0..64u64).filter(|s| plan.owner(*s as usize) == 0) {
            accesses.insert(s, 100);
        }
        let cfg = SkewConfig {
            imbalance_threshold: 0.01,
            max_slot_moves: 3,
        };
        if let Some(p) = plan_rebalance(&plan, &accesses, &cfg) {
            assert!(p.moves.len() <= 3);
        }
    }

    #[test]
    fn single_node_cluster_never_rebalances() {
        let plan = SlotPlan::balanced(1, 16);
        let mut accesses = HashMap::new();
        accesses.insert(0u64, 1_000u64);
        assert!(plan_rebalance(&plan, &accesses, &SkewConfig::default()).is_none());
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(imbalance(&[10.0, 10.0]), 0.0);
        assert!((imbalance(&[20.0, 10.0]) - (20.0 / 15.0 - 1.0)).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn proposed_plan_executes_on_a_cluster() {
        use crate::catalog::{columns, Catalog, ColumnType, TableSchema};
        use crate::cluster::{Cluster, ClusterConfig};
        use crate::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
        use crate::value::{Key, KeyValue, Row, Value};

        struct Put(String);
        impl Procedure for Put {
            fn name(&self) -> &'static str {
                "Put"
            }
            fn routing_key(&self) -> KeyValue {
                KeyValue::Str(self.0.as_str().into())
            }
            fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
                ctx.put(0, Key::str(self.0.clone()), Row::new([Value::Int(1)]));
                Ok(TxnOutput::None)
            }
        }

        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new(
            "KV",
            columns(&[("k", ColumnType::Str), ("v", ColumnType::Int)]),
            1,
        ));
        let mut cluster = Cluster::new(
            cat,
            ClusterConfig {
                partitions_per_node: 2,
                num_slots: 64,
            },
            3,
        );
        // Create a hot key: hammer one cart id.
        for i in 0..200 {
            cluster.execute(&Put(format!("key-{i}"))).unwrap();
        }
        for _ in 0..5_000 {
            cluster.execute(&Put("hot-key".into())).unwrap();
        }
        let report = cluster.slot_access_report();
        let proposal = plan_rebalance(
            cluster.current_plan(),
            &report,
            &SkewConfig {
                imbalance_threshold: 0.1,
                max_slot_moves: 8,
            },
        )
        .expect("the hot key should trigger a rebalance");
        let rows = cluster.total_rows();
        cluster
            .begin_plan_reconfiguration(proposal.plan.clone())
            .unwrap();
        cluster.run_reconfiguration_to_completion(8_192).unwrap();
        assert_eq!(cluster.total_rows(), rows);
        assert_eq!(
            cluster.current_plan().assignments(),
            proposal.plan.assignments()
        );
    }
}
