//! The cluster's storage: one [`PartitionStore`] per `(node, local
//! partition)`, plus the moved-key sets of in-flight slots.
//!
//! `local_of_slot` is a pure hash of the slot id — independent of the
//! slot→node assignment — so a slot's local index never changes, and a
//! migrating slot's source and destination partitions share it.
//!
//! Everything in this module is pure state manipulation: it emits no
//! telemetry and draws no randomness. [`crate::cluster::Cluster`] owns
//! routing, plans, statistics and telemetry, and calls in here with the
//! routing already resolved.
//!
//! Every "node" lives in this one address space, so a migration chunk is
//! a change of owner, not a copy: a slot that fits the chunk budget moves
//! as the tree it is. What a migration costs in *simulated* time is
//! computed from the modelled bytes a chunk reports, the database size
//! `D` and the chunk pacing (DESIGN.md §1), never from what the move
//! costs the host — so how the rows change hands alters no simulated
//! quantity.

use crate::catalog::TableId;
use crate::hash::FxBuild;
use crate::partition::{MovedKeys, PartitionStore};
use crate::txn::{KeyAccess, Procedure, RwSet, TxnCtx, TxnError, TxnOutput};
use crate::value::{Key, Row};
use std::collections::HashMap;

/// The outcome of one executed transaction. The cluster folds it into
/// its statistics and (for sampled transactions) telemetry.
#[derive(Debug)]
pub(crate) struct TxnFate {
    /// The procedure's result.
    pub result: Result<TxnOutput, TxnError>,
    /// Whether any access resolved against the migration destination.
    pub touched_dest: bool,
    /// Procedure name (for per-procedure counters).
    pub proc: &'static str,
    /// The recorded read/write set.
    pub rwset: RwSet,
    /// Whether the slot was in-flight (migrating) at execution time.
    pub migrating: bool,
    /// Key-level `(table, key, version-observed)` reads, in program
    /// order. Empty unless the transaction was captured (sampled with
    /// version tracking on).
    pub key_reads: Vec<KeyAccess>,
    /// Key-level `(table, key, version-installed)` writes, in program
    /// order. Empty unless the transaction was captured.
    pub key_writes: Vec<KeyAccess>,
}

/// Integrity-audit snapshot of one partition store.
#[derive(Debug)]
pub(crate) struct StoreIntegrity {
    /// Owning node.
    pub node: u32,
    /// Local partition index.
    pub local: u32,
    /// Slots with resident data.
    pub resident_slots: Vec<u64>,
    /// Incrementally-maintained byte estimate.
    pub claimed_bytes: usize,
    /// Bytes recomputed from the actual rows.
    pub actual_bytes: usize,
}

/// Every partition store of the cluster, indexed `stores[node][local]`.
#[derive(Debug)]
pub(crate) struct Storage {
    partitions_per_node: u32,
    num_tables: usize,
    num_slots: u64,
    stores: Vec<Vec<PartitionStore>>,
    /// Moved-key sets of in-flight slots: the ones a chunk left half
    /// moved. Empty while every slot fits the chunk budget.
    moved: HashMap<u64, MovedKeys, FxBuild>,
    /// Whether per-key version counting is on (applied to every store,
    /// including ones created by later `ensure_nodes` growth).
    track_versions: bool,
}

impl Storage {
    /// Creates the stores of `nodes` initial nodes.
    pub fn new(partitions_per_node: u32, num_tables: usize, num_slots: u64, nodes: u32) -> Self {
        let mut storage = Storage {
            partitions_per_node,
            num_tables,
            num_slots,
            stores: Vec::new(),
            moved: HashMap::default(),
            track_versions: false,
        };
        storage.ensure_nodes(nodes);
        storage
    }

    /// Enables or disables per-key version counting across every store
    /// (current and future).
    pub fn set_track_versions(&mut self, on: bool) {
        self.track_versions = on;
        for store in self.stores.iter_mut().flatten() {
            store.set_track_versions(on);
        }
    }

    /// Whether per-key version counting is on.
    pub fn track_versions(&self) -> bool {
        self.track_versions
    }

    /// Grows the store matrix to `count` nodes.
    pub fn ensure_nodes(&mut self, count: u32) {
        while self.stores.len() < count as usize {
            self.stores.push(
                (0..self.partitions_per_node)
                    .map(|_| {
                        let mut store = PartitionStore::new(self.num_tables);
                        store.set_track_versions(self.track_versions);
                        store
                    })
                    .collect(),
            );
        }
    }

    /// Truncates to `keep` nodes; the dropped stores must be empty.
    pub fn drop_nodes(&mut self, keep: u32) {
        if (keep as usize) < self.stores.len() {
            for node in &self.stores[keep as usize..] {
                for store in node {
                    debug_assert_eq!(store.total_rows(), 0, "dropping a non-empty node");
                }
            }
            self.stores.truncate(keep as usize);
        }
    }

    /// Executes one transaction on partition `local` of `node` — or, for
    /// an in-flight slot, across partition `local` of its `(from, to)`
    /// migration endpoints. A `traced` transaction tallies its read/write
    /// set and, with version counting on, captures its key history.
    pub fn execute(
        &mut self,
        proc: &dyn Procedure,
        slot: u64,
        node: u32,
        local: u32,
        in_flight: Option<(u32, u32)>,
        traced: bool,
    ) -> TxnFate {
        let (num_slots, capture) = (self.num_slots, self.track_versions);
        let l = local as usize;
        let (result, touched_dest, rwset, key_reads, key_writes) = match in_flight {
            None => {
                let store = &mut self.stores[node as usize][l];
                store.record_access();
                let mut ctx = TxnCtx::settled(slot, num_slots, store);
                if traced {
                    ctx.set_traced(capture);
                }
                let result = proc.execute(&mut ctx);
                (
                    result,
                    ctx.touched_dest,
                    ctx.rwset,
                    ctx.key_reads,
                    ctx.key_writes,
                )
            }
            Some((from, to)) => {
                debug_assert_ne!(from, to);
                let (src, dst) = two_nodes(&mut self.stores, from as usize, to as usize);
                let source = &mut src[l];
                source.record_access();
                let dest = &mut dst[l];
                // A slot is in flight once a chunk has left part of it
                // behind, so its moved set exists; were it missing, an
                // empty one routes everything to the source, and
                // an empty `HashSet` does not allocate.
                let empty = MovedKeys::default();
                let moved = self.moved.get(&slot).unwrap_or(&empty);
                let mut ctx = TxnCtx::migrating(slot, num_slots, source, dest, moved);
                if traced {
                    ctx.set_traced(capture);
                }
                let result = proc.execute(&mut ctx);
                (
                    result,
                    ctx.touched_dest,
                    ctx.rwset,
                    ctx.key_reads,
                    ctx.key_writes,
                )
            }
        };
        TxnFate {
            result,
            touched_dest,
            proc: proc.name(),
            rwset,
            migrating: in_flight.is_some(),
            key_reads,
            key_writes,
        }
    }

    /// Moves up to `budget` bytes of `slot` from `from` to `to`: whole
    /// when it fits, otherwise cut off under the slot's moved-key set
    /// (see [`PartitionStore::migrate_chunk_to`]). Returns `(rows, bytes,
    /// emptied)`; on `emptied` the slot has no moved set (the cluster
    /// flips routing).
    pub fn migrate_chunk(
        &mut self,
        slot: u64,
        from: u32,
        to: u32,
        local: u32,
        budget: usize,
    ) -> (usize, usize, bool) {
        let l = local as usize;
        let (src, dst) = two_nodes(&mut self.stores, from as usize, to as usize);
        src[l].migrate_chunk_to(&mut dst[l], &mut self.moved, slot, budget)
    }

    /// Per-partition report: `(node, local, accesses, bytes, rows)` for
    /// every store, in `(node, local)` order.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "node/partition indices fit u32"
    )]
    pub fn report(&self) -> Vec<(u32, u32, u64, usize, usize)> {
        let mut out = Vec::new();
        for (n, node) in self.stores.iter().enumerate() {
            for (l, store) in node.iter().enumerate() {
                out.push((
                    n as u32,
                    l as u32,
                    store.accesses(),
                    store.total_bytes(),
                    store.total_rows(),
                ));
            }
        }
        out
    }

    /// Resident bytes of `slot` on `(node, local)`.
    pub fn slot_bytes_at(&self, slot: u64, node: u32, local: u32) -> usize {
        self.stores[node as usize][local as usize].slot_bytes(slot)
    }

    /// Clones every row of `table` (unsorted).
    pub fn export_table(&self, table: TableId) -> Vec<(Key, Row)> {
        let mut out = Vec::new();
        for store in self.stores.iter().flatten() {
            for slot in store.resident_slots().collect::<Vec<_>>() {
                out.extend(store.export_slot_table(slot, table));
            }
        }
        out
    }

    /// Integrity snapshot of every store.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "node/partition indices fit u32"
    )]
    pub fn integrity(&self) -> Vec<StoreIntegrity> {
        let mut out = Vec::new();
        for (n, node) in self.stores.iter().enumerate() {
            for (l, store) in node.iter().enumerate() {
                let mut resident: Vec<u64> = store.resident_slots().collect();
                resident.sort_unstable();
                out.push(StoreIntegrity {
                    node: n as u32,
                    local: l as u32,
                    resident_slots: resident,
                    claimed_bytes: store.total_bytes(),
                    actual_bytes: store.recompute_bytes(),
                });
            }
        }
        out
    }
}

/// Splits two distinct nodes' store rows out of the matrix for
/// simultaneous mutation (migration source and destination).
fn two_nodes<T>(nodes: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "nodes must be distinct");
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn key(i: usize) -> Key {
        Key::int(i as i64)
    }

    fn row(i: usize) -> Row {
        Row(vec![Value::Int(i as i64)])
    }

    /// The whole move and the cut one through `two_nodes`, in both index
    /// orders, with counters and a tombstone aboard. Kept small: this is
    /// the test Miri runs over the slot changing owner between the two
    /// `&mut` stores (the property tests are too slow for it).
    #[test]
    fn a_slot_changes_owner_whole_or_row_by_row() {
        let mut s = Storage::new(2, 2, 8, 3);
        s.set_track_versions(true);
        let store = &mut s.stores[2][1];
        for i in 0..6 {
            store.put(5, i % 2, key(i), row(i));
            store.bump_version(5, i % 2, &key(i));
        }
        store.delete(5, 0, &key(0));
        store.bump_version(5, 0, &key(0));
        let bytes = s.slot_bytes_at(5, 2, 1);

        // Whole, to a lower-numbered node: one call, no moved set.
        assert_eq!(s.migrate_chunk(5, 2, 0, 1, bytes), (5, bytes, true));
        assert!(s.moved.is_empty());
        assert_eq!(s.slot_bytes_at(5, 2, 1), 0);
        assert_eq!(s.slot_bytes_at(5, 0, 1), bytes);
        assert_eq!(s.stores[2][1].resident_slots().count(), 0);
        assert_eq!(s.stores[0][1].version_of(5, 0, &key(0)), 2);
        assert_eq!(s.stores[0][1].version_of(5, 1, &key(3)), 1);
        assert_eq!(s.stores[2][1].version_of(5, 1, &key(3)), 0);

        // Back a row at a time: the moved set grows until the slot has
        // emptied, then is gone.
        for call in 1..=5 {
            let (rows, _, emptied) = s.migrate_chunk(5, 0, 2, 1, 1);
            assert_eq!((rows, emptied), (1, call == 5));
            assert_eq!(s.moved.get(&5).map_or(0, MovedKeys::len), call % 5);
        }
        assert_eq!(s.slot_bytes_at(5, 2, 1), bytes);
        for i in 1..6 {
            assert_eq!(s.stores[2][1].get(5, i % 2, &key(i)), Some(&row(i)));
            assert_eq!(s.stores[2][1].version_of(5, i % 2, &key(i)), 1);
        }
        assert_eq!(s.stores[2][1].version_of(5, 0, &key(0)), 2);

        // Emptied by deletes: the slot leaves its source and arrives
        // nowhere; its counters still travel.
        for i in 1..6 {
            s.stores[2][1].delete(5, i % 2, &key(i));
        }
        assert_eq!(s.stores[2][1].resident_slots().count(), 1);
        assert_eq!(s.migrate_chunk(5, 2, 1, 1, 1), (0, 0, true));
        assert_eq!(s.migrate_chunk(5, 2, 1, 1, 1), (0, 0, true));
        assert!(s.stores.iter().flatten().all(|p| p.total_rows() == 0));
        assert!(s
            .stores
            .iter()
            .flatten()
            .all(|p| p.resident_slots().count() == 0));
        assert_eq!(s.stores[1][1].version_of(5, 0, &key(0)), 2);
        for snap in s.integrity() {
            assert_eq!(snap.claimed_bytes, snap.actual_bytes);
        }
    }
}
