//! Per-partition storage.
//!
//! Each partition owns a set of virtual hash slots; all rows whose routing
//! key hashes to a slot live together, so a slot can be migrated as a unit
//! and prefix scans (all lines of one cart) never cross slots — a routing
//! key's rows always share its slot.

use crate::catalog::TableId;
use crate::hash::FxBuild;
use crate::value::{Key, Row};
use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap, HashMap, HashSet};

/// The keys of one in-flight slot whose rows already live at the
/// migration destination. A slot has one only between a chunk that left
/// part of it behind and the chunk that empties it: a slot that moves
/// whole is never in flight.
pub type MovedKeys = HashSet<(TableId, Key), FxBuild>;

/// All rows of one virtual slot.
#[derive(Debug, Clone, Default)]
pub struct SlotData {
    /// Rows of every table, ordered by `(table, key)`. One tree per slot,
    /// not one per table: a slot holds a handful of rows of each table, and
    /// a tree's smallest node has room for eleven, so per-table trees
    /// would spend most of the database's memory on nearly empty nodes.
    rows: BTreeMap<(TableId, Key), Row>,
    /// Estimated resident bytes of this slot.
    bytes: usize,
}

impl SlotData {
    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Total rows across tables.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the slot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts or replaces a row, keeping the byte estimate; returns the
    /// previous row if any.
    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Option<Row> {
        let key_sz = key.size_estimate();
        let row_sz = row.size_estimate();
        let old = self.rows.insert((table, key), row);
        match &old {
            None => self.bytes += key_sz + row_sz,
            // Replace: the key stays resident, only the row size changes.
            Some(o) => self.bytes = (self.bytes + row_sz).saturating_sub(o.size_estimate()),
        }
        old
    }
}

/// Hands a row of a slot to `rewrite` where it lies, and moves the slot's
/// byte estimate `bytes` by what that did to the row's size.
fn rewrite_in_place<R>(bytes: &mut usize, row: &mut Row, rewrite: impl FnOnce(&mut Row) -> R) -> R {
    let before = row.size_estimate();
    let out = rewrite(row);
    *bytes = (*bytes + row.size_estimate()).saturating_sub(before);
    out
}

/// Write-version counters per slot, then table, then key.
type Versions = HashMap<u64, Vec<HashMap<Key, u64, FxBuild>>, FxBuild>;

/// Advances a key's counter in `versions` and returns the new version;
/// does nothing and returns 0 unless versions are `tracked`.
fn bump(
    versions: &mut Versions,
    tracked: bool,
    num_tables: usize,
    slot: u64,
    table: TableId,
    key: &Key,
) -> u64 {
    if !tracked {
        return 0;
    }
    let n = num_tables.max(table + 1);
    let tables = versions.entry(slot).or_default();
    if tables.len() < n {
        tables.resize_with(n, HashMap::default);
    }
    let v = tables[table].entry(key.clone()).or_insert(0);
    *v += 1;
    *v
}

/// The storage engine of one partition.
#[derive(Debug, Default)]
pub struct PartitionStore {
    num_tables: usize,
    slots: HashMap<u64, SlotData, FxBuild>,
    accesses: u64,
    /// Per-key write-version counters, keyed by slot (so a slot's history
    /// migrates as a unit) then table. Only maintained while
    /// [`track_versions`] is set (the ISO-01..03 serializability sweep);
    /// the default keeps the warm path free of version bookkeeping.
    ///
    /// [`track_versions`]: PartitionStore::set_track_versions
    versions: Versions,
    track_versions: bool,
}

impl PartitionStore {
    /// Creates a store for a catalog with `num_tables` tables.
    pub fn new(num_tables: usize) -> Self {
        PartitionStore {
            num_tables,
            slots: HashMap::default(),
            accesses: 0,
            versions: HashMap::default(),
            track_versions: false,
        }
    }

    /// Enables or disables per-key version counting. Disabling clears the
    /// recorded counters, so re-enabling restarts every chain at 0.
    pub fn set_track_versions(&mut self, on: bool) {
        self.track_versions = on;
        if !on {
            self.versions.clear();
        }
    }

    /// Whether per-key version counting is on.
    pub fn track_versions(&self) -> bool {
        self.track_versions
    }

    /// The current write version of a key: the number of installs (puts
    /// and deletes) observed since tracking started. 0 for never-written
    /// keys.
    pub fn version_of(&self, slot: u64, table: TableId, key: &Key) -> u64 {
        self.versions
            .get(&slot)
            .and_then(|tables| tables.get(table))
            .and_then(|m| m.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Advances a key's write version and returns the new (installed)
    /// version. No-op returning 0 when tracking is off. Called by the
    /// transaction layer only, beside its `put`, `update` and `delete`
    /// ([`insert_new`](Self::insert_new),
    /// [`update_prefix`](Self::update_prefix) and
    /// [`delete_prefix`](Self::delete_prefix) advance it by themselves) —
    /// migration re-installs rows without bumping, so a key's history
    /// survives chunk moves intact.
    pub fn bump_version(&mut self, slot: u64, table: TableId, key: &Key) -> u64 {
        let (tracked, tables) = (self.track_versions, self.num_tables);
        bump(&mut self.versions, tracked, tables, slot, table, key)
    }

    /// Removes and returns a key's version counter (migration handoff).
    pub fn take_version(&mut self, slot: u64, table: TableId, key: &Key) -> Option<u64> {
        self.versions.get_mut(&slot)?.get_mut(table)?.remove(key)
    }

    /// Removes and returns every remaining version counter of `slot`
    /// (end-of-slot migration handoff: tombstoned keys have a counter but
    /// no row, so they are not carried by `extract_chunk`).
    pub fn take_slot_versions(&mut self, slot: u64) -> Vec<((TableId, Key), u64)> {
        self.versions
            .remove(&slot)
            .map(|tables| {
                tables
                    .into_iter()
                    .enumerate()
                    .flat_map(|(tid, m)| m.into_iter().map(move |(k, v)| ((tid, k), v)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Installs version counters delivered by a migration chunk.
    pub fn install_versions(&mut self, slot: u64, entries: Vec<((TableId, Key), u64)>) {
        if entries.is_empty() {
            return;
        }
        let max_table = entries.iter().map(|((t, _), _)| *t + 1).max().unwrap_or(0);
        let n = self.num_tables.max(max_table);
        let tables = self.versions.entry(slot).or_default();
        if tables.len() < n {
            tables.resize_with(n, HashMap::default);
        }
        for ((tid, key), v) in entries {
            tables[tid].insert(key, v);
        }
    }

    /// Records a logical access: one executed transaction (for the §8.1
    /// skew statistics; which slot it went to is the cluster's count).
    pub fn record_access(&mut self) {
        self.accesses += 1;
    }

    /// Logical accesses recorded so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Looks up a row.
    pub fn get(&self, slot: u64, table: TableId, key: &Key) -> Option<&Row> {
        self.slots.get(&slot)?.rows.get(&(table, key.clone()))
    }

    /// Inserts or replaces a row; returns the previous row if any.
    pub fn put(&mut self, slot: u64, table: TableId, key: Key, row: Row) -> Option<Row> {
        self.slots.entry(slot).or_default().insert(table, key, row)
    }

    /// Inserts a row unless its key is taken, in one descent, as a
    /// transaction's write of it: while versions are tracked the key's
    /// counter advances. Returns the version installed (0 while tracking
    /// is off).
    ///
    /// # Errors
    /// Hands the key back when a row already holds it; nothing is written.
    pub fn insert_new(
        &mut self,
        slot: u64,
        table: TableId,
        key: Key,
        row: Row,
    ) -> Result<u64, Key> {
        let data = self.slots.entry(slot).or_default();
        match data.rows.entry((table, key)) {
            btree_map::Entry::Occupied(held) => Err(held.key().1.clone()),
            btree_map::Entry::Vacant(free) => {
                let key = &free.key().1;
                data.bytes += key.size_estimate() + row.size_estimate();
                let (tracked, tables) = (self.track_versions, self.num_tables);
                let installed = bump(&mut self.versions, tracked, tables, slot, table, key);
                free.insert(row);
                Ok(installed)
            }
        }
    }

    /// Hands a row to `rewrite` where it lies, keeping the slot's byte
    /// estimate in step with the row's size; `None` if there is no such
    /// row.
    pub fn update<R>(
        &mut self,
        slot: u64,
        table: TableId,
        key: &Key,
        rewrite: impl FnOnce(&mut Row) -> R,
    ) -> Option<R> {
        let data = self.slots.get_mut(&slot)?;
        let row = data.rows.get_mut(&(table, key.clone()))?;
        Some(rewrite_in_place(&mut data.bytes, row, rewrite))
    }

    /// Hands every row [`prefix_rows`](Self::prefix_rows) yields to
    /// `rewrite`, in key order and where it lies, as a transaction's write
    /// of it: the byte estimate follows the row's size and, while versions
    /// are tracked, the key's counter advances. `rewrite` is given the key,
    /// the row, and the version the write installs (0 while tracking is
    /// off). Returns how many rows there were.
    pub fn update_prefix(
        &mut self,
        slot: u64,
        table: TableId,
        prefix: &Key,
        mut rewrite: impl FnMut(&Key, &mut Row, u64),
    ) -> u64 {
        let Some(data) = self.slots.get_mut(&slot) else {
            return 0;
        };
        let (tracked, tables) = (self.track_versions, self.num_tables);
        let mut n = 0;
        for ((t, key), row) in data.rows.range_mut((table, prefix.clone())..) {
            if *t != table || !key.starts_with(prefix) {
                break;
            }
            let installed = bump(&mut self.versions, tracked, tables, slot, table, key);
            rewrite_in_place(&mut data.bytes, row, |row| rewrite(key, row, installed));
            n += 1;
        }
        n
    }

    /// Removes every row [`prefix_rows`](Self::prefix_rows) yields, in
    /// key order and in one pass, as a transaction's delete of it: the
    /// byte estimate drops by the row's size and, while versions are
    /// tracked, the key's counter advances. `deleted` is given the key
    /// and the version the delete installs (0 while tracking is off).
    /// Returns how many rows there were.
    pub fn delete_prefix(
        &mut self,
        slot: u64,
        table: TableId,
        prefix: &Key,
        mut deleted: impl FnMut(&Key, u64),
    ) -> u64 {
        let Some(data) = self.slots.get_mut(&slot) else {
            return 0;
        };
        let (tracked, tables) = (self.track_versions, self.num_tables);
        // The table's rows from the prefix on (`Key::int(i64::MIN)` is the
        // least key): those with the prefix come first.
        let from_prefix = (table, prefix.clone())..(table + 1, Key::int(i64::MIN));
        let mut n = 0;
        for ((_, key), row) in data
            .rows
            .extract_if(from_prefix, |(_, key), _| key.starts_with(prefix))
        {
            let installed = bump(&mut self.versions, tracked, tables, slot, table, &key);
            data.bytes = data
                .bytes
                .saturating_sub(key.size_estimate() + row.size_estimate());
            deleted(&key, installed);
            n += 1;
        }
        n
    }

    /// Removes a row; returns it if present.
    pub fn delete(&mut self, slot: u64, table: TableId, key: &Key) -> Option<Row> {
        let data = self.slots.get_mut(&slot)?;
        let old = data.rows.remove(&(table, key.clone()))?;
        data.bytes = data
            .bytes
            .saturating_sub(key.size_estimate() + old.size_estimate());
        Some(old)
    }

    /// The rows in `table` within `slot` whose key starts with `prefix`, in
    /// key order, borrowed.
    pub fn prefix_rows<'a>(
        &'a self,
        slot: u64,
        table: TableId,
        prefix: &'a Key,
    ) -> impl Iterator<Item = (&'a Key, &'a Row)> {
        self.slots
            .get(&slot)
            .into_iter()
            .flat_map(move |data| data.rows.range((table, prefix.clone())..))
            .take_while(move |((t, k), _)| *t == table && k.starts_with(prefix))
            .map(|((_, k), row)| (k, row))
    }

    /// Removes and returns up to `budget_bytes` worth of rows from `slot`,
    /// one row at a time in `(table, key)` order, stopping at the row
    /// that reaches the budget. Returns `(rows, bytes, slot_now_empty)`.
    /// This defines what a chunk holds;
    /// [`migrate_chunk_to`](Self::migrate_chunk_to) takes the same rows
    /// without visiting them and is tested against this.
    pub fn extract_chunk(
        &mut self,
        slot: u64,
        budget_bytes: usize,
    ) -> (Vec<(TableId, Key, Row)>, usize, bool) {
        let Some(data) = self.slots.get_mut(&slot) else {
            return (Vec::new(), 0, true);
        };
        let mut out = Vec::new();
        let mut moved = 0usize;
        // Table by table, each in key order.
        while let Some(((tid, k), row)) = data.rows.pop_first() {
            let sz = k.size_estimate() + row.size_estimate();
            moved += sz;
            data.bytes = data.bytes.saturating_sub(sz);
            out.push((tid, k, row));
            if moved >= budget_bytes {
                break;
            }
        }
        let empty = data.is_empty();
        if empty {
            self.slots.remove(&slot);
        }
        (out, moved, empty)
    }

    /// Moves up to `budget` bytes (at least one row) of `slot` from this
    /// store to `dst`, the same local partition of another node. `moved`
    /// holds the moved-key sets of the in-flight slots. Returns `(rows,
    /// bytes, emptied)`; on `emptied` the slot has left this store and has
    /// no moved set (the cluster flips its routing).
    ///
    /// The chunk is the rows [`extract_chunk`](Self::extract_chunk) would
    /// pop, taken as a tree instead: all of the slot's when it fits the
    /// budget, else cut off at the first row past it. Where `dst` holds
    /// nothing of the slot yet the tree lands as it is. So a slot that
    /// fits the budget changes owner in two hash-table operations, no
    /// row touched and no moved set built, and only a slot larger than a
    /// chunk is ever in flight. Both "nodes" share an address space and a
    /// move's simulated duration comes from its modelled bytes, so nothing
    /// simulated can tell a handed-over tree from a copied one.
    pub fn migrate_chunk_to(
        &mut self,
        dst: &mut PartitionStore,
        moved: &mut HashMap<u64, MovedKeys, FxBuild>,
        slot: u64,
        budget: usize,
    ) -> (usize, usize, bool) {
        let budget = budget.max(1);
        let (chunk, bytes, emptied) = match self.slots.entry(slot) {
            Entry::Vacant(_) => (BTreeMap::new(), 0, true),
            Entry::Occupied(held) if held.get().bytes <= budget => {
                let data = held.remove();
                (data.rows, data.bytes, true)
            }
            Entry::Occupied(mut held) => {
                let data = held.get_mut();
                let mut bytes = 0usize;
                let mut rest = data.rows.iter();
                for ((_, key), row) in rest.by_ref() {
                    bytes += key.size_estimate() + row.size_estimate();
                    if bytes >= budget {
                        break;
                    }
                }
                match rest.next().map(|(at, _)| at.clone()) {
                    Some(at) => {
                        let stay = data.rows.split_off(&at);
                        data.bytes = data.bytes.saturating_sub(bytes);
                        (std::mem::replace(&mut data.rows, stay), bytes, false)
                    }
                    // The budget ends inside the last row: all of it goes.
                    None => (held.remove().rows, bytes, true),
                }
            }
        };
        let n_rows = chunk.len();

        // Transactions find a moved key through the slot's moved set
        // while the rest is still here; once nothing is, nobody asks.
        if emptied {
            moved.remove(&slot);
        } else {
            let moved_keys = moved.entry(slot).or_default();
            moved_keys.reserve(n_rows);
            moved_keys.extend(chunk.keys().cloned());
        }

        // A moving key's version counter travels with it so the sampled
        // history stays one chain across the migration; the last chunk
        // takes every counter left, tombstones included — the slot's map
        // as it is, where none went ahead. (All of this finds an empty
        // map, and does nothing, while tracking is off.)
        if !emptied {
            let carried: Vec<((TableId, Key), u64)> = chunk
                .keys()
                .filter_map(|(tid, key)| {
                    let v = self.take_version(slot, *tid, key)?;
                    Some(((*tid, key.clone()), v))
                })
                .collect();
            dst.install_versions(slot, carried);
        } else if let Some(tables) = self.versions.remove(&slot) {
            match dst.versions.entry(slot) {
                Entry::Vacant(none_ahead) => {
                    none_ahead.insert(tables);
                }
                Entry::Occupied(mut ahead) => {
                    let ahead = ahead.get_mut();
                    if ahead.len() < tables.len() {
                        ahead.resize_with(tables.len(), HashMap::default);
                    }
                    for (into, counters) in ahead.iter_mut().zip(tables) {
                        into.extend(counters);
                    }
                }
            }
        }

        match dst.slots.entry(slot) {
            // A slot emptied by deletes leaves here and arrives nowhere.
            Entry::Vacant(_) if chunk.is_empty() => {}
            Entry::Vacant(landing) => {
                landing.insert(SlotData { rows: chunk, bytes });
            }
            Entry::Occupied(mut held) => {
                let data = held.get_mut();
                for ((tid, key), row) in chunk {
                    data.insert(tid, key, row);
                }
            }
        }
        (n_rows, bytes, emptied)
    }

    /// Estimated bytes held in `slot`.
    pub fn slot_bytes(&self, slot: u64) -> usize {
        self.slots.get(&slot).map_or(0, SlotData::bytes)
    }

    /// Estimated total resident bytes.
    pub fn total_bytes(&self) -> usize {
        self.slots.values().map(SlotData::bytes).sum()
    }

    /// Total rows resident.
    pub fn total_rows(&self) -> usize {
        self.slots.values().map(SlotData::rows).sum()
    }

    /// The slots with resident data.
    pub fn resident_slots(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.keys().copied()
    }

    /// Clones all rows of `table` within `slot` (warehouse export).
    pub fn export_slot_table(&self, slot: u64, table: TableId) -> Vec<(Key, Row)> {
        self.slots
            .get(&slot)
            .into_iter()
            .flat_map(|data| &data.rows)
            .filter(|((t, _), _)| *t == table)
            .map(|((_, k), row)| (k.clone(), row.clone()))
            .collect()
    }

    /// Recomputes resident bytes from the actual values, not the sizes
    /// the rows carry (integrity audits).
    pub fn recompute_bytes(&self) -> usize {
        self.slots
            .values()
            .flat_map(|data| &data.rows)
            .map(|((_, k), row)| k.size_estimate() + Row::modelled_size(row))
            .sum()
    }
}

#[cfg(test)]
mod update_twins;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(v: i64) -> Row {
        Row::new([Value::Int(v)])
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut p = PartitionStore::new(2);
        let k = Key::str("cart-1");
        assert!(p.put(5, 0, k.clone(), row(1)).is_none());
        assert_eq!(p.get(5, 0, &k), Some(&row(1)));
        // Different table: independent namespace.
        assert_eq!(p.get(5, 1, &k), None);
        assert_eq!(p.delete(5, 0, &k), Some(row(1)));
        assert_eq!(p.get(5, 0, &k), None);
    }

    #[test]
    fn put_replaces_and_returns_old() {
        let mut p = PartitionStore::new(1);
        let k = Key::str("x");
        p.put(0, 0, k.clone(), row(1));
        let old = p.put(0, 0, k.clone(), row(2));
        assert_eq!(old, Some(row(1)));
        assert_eq!(p.get(0, 0, &k), Some(&row(2)));
        assert_eq!(p.total_rows(), 1);
    }

    #[test]
    fn prefix_scan_returns_all_lines() {
        let mut p = PartitionStore::new(1);
        for i in 0..5 {
            p.put(3, 0, Key::str_int("cart-7", i), row(i));
        }
        p.put(3, 0, Key::str_int("cart-8", 0), row(99));
        let cart = Key::str("cart-7");
        let lines: Vec<_> = p.prefix_rows(3, 0, &cart).collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn tables_of_a_slot_are_separate_namespaces() {
        let mut p = PartitionStore::new(3);
        for table in 0..3 {
            for i in 0..2 {
                p.put(
                    3,
                    table,
                    Key::str_int("cart-7", i),
                    row(10 * table as i64 + i),
                );
            }
        }
        // A prefix scan stops at the table's edge although the next
        // table's keys carry the same prefix.
        let cart = Key::str("cart-7");
        let lines: Vec<_> = p.prefix_rows(3, 1, &cart).collect();
        assert_eq!(
            lines,
            vec![
                (&Key::str_int("cart-7", 0), &row(10)),
                (&Key::str_int("cart-7", 1), &row(11)),
            ]
        );
        assert_eq!(p.export_slot_table(3, 2).len(), 2);
        assert_eq!(p.delete(3, 1, &Key::str_int("cart-7", 0)), Some(row(10)));
        assert_eq!(p.get(3, 0, &Key::str_int("cart-7", 0)), Some(&row(0)));
        // Chunks leave table by table, each in key order.
        let (rows, _, emptied) = p.extract_chunk(3, usize::MAX);
        assert!(emptied);
        let order: Vec<(TableId, i64)> = rows
            .iter()
            .map(|(t, _, r)| (*t, r[0].as_int().unwrap()))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 11), (2, 20), (2, 21)]);
    }

    #[test]
    fn extract_chunk_respects_budget_and_empties_slot() {
        let mut p = PartitionStore::new(1);
        for i in 0..10 {
            p.put(1, 0, Key::int(i), row(i));
        }
        let total = p.slot_bytes(1);
        let (rows, bytes, empty) = p.extract_chunk(1, total / 2);
        assert!(!rows.is_empty());
        assert!(bytes >= total / 2);
        assert!(!empty);
        let (rows2, _, empty2) = p.extract_chunk(1, usize::MAX);
        assert!(empty2);
        assert_eq!(rows.len() + rows2.len(), 10);
        assert_eq!(p.total_rows(), 0);
        assert_eq!(p.slot_bytes(1), 0);
    }

    #[test]
    fn install_rows_restores_data() {
        let mut src = PartitionStore::new(2);
        for i in 0..6 {
            src.put(4, i % 2, Key::int(i as i64), row(i as i64));
        }
        let (rows, bytes, _) = src.extract_chunk(4, usize::MAX);
        let mut dst = PartitionStore::new(2);
        for (table, key, row) in rows {
            dst.put(4, table, key, row);
        }
        assert_eq!(dst.total_rows(), 6);
        assert_eq!(dst.slot_bytes(4), bytes);
        for i in 0..6 {
            assert_eq!(dst.get(4, i % 2, &Key::int(i as i64)), Some(&row(i as i64)));
        }
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_deletes() {
        let mut p = PartitionStore::new(1);
        assert_eq!(p.total_bytes(), 0);
        let k = Key::str("abcdef");
        p.put(0, 0, k.clone(), row(1));
        let b = p.total_bytes();
        assert!(b > 0);
        p.delete(0, 0, &k);
        assert_eq!(p.total_bytes(), 0);
    }

    #[test]
    fn access_counter() {
        let mut p = PartitionStore::new(1);
        p.record_access();
        p.record_access();
        assert_eq!(p.accesses(), 2);
    }

    #[test]
    fn version_counters_follow_writes_and_survive_handoff() {
        let mut src = PartitionStore::new(1);
        let k = Key::str("cart-1");
        // Off by default: bumping is a no-op (ISO sweep opt-in).
        assert_eq!(src.bump_version(2, 0, &k), 0);
        src.set_track_versions(true);
        assert_eq!(src.version_of(2, 0, &k), 0);
        assert_eq!(src.bump_version(2, 0, &k), 1);
        assert_eq!(src.bump_version(2, 0, &k), 2);
        assert_eq!(src.version_of(2, 0, &k), 2);
        // A tombstoned key keeps its chain alive.
        let dead = Key::str("gone");
        src.put(2, 0, dead.clone(), Row::new([Value::Int(1)]));
        src.bump_version(2, 0, &dead);
        src.delete(2, 0, &dead);
        src.bump_version(2, 0, &dead);
        assert_eq!(src.version_of(2, 0, &dead), 2);
        // Chunk handoff: per-key transfer, then the slot-tail transfer
        // carries counters with no resident row.
        let mut dst = PartitionStore::new(1);
        dst.set_track_versions(true);
        let v = src.take_version(2, 0, &k).expect("tracked");
        dst.install_versions(2, vec![((0, k.clone()), v)]);
        dst.install_versions(2, src.take_slot_versions(2));
        assert_eq!(dst.version_of(2, 0, &k), 2);
        assert_eq!(dst.version_of(2, 0, &dead), 2);
        assert_eq!(src.version_of(2, 0, &k), 0);
        // Migration re-install must not advance the chain.
        dst.put(2, 0, k.clone(), Row::new([Value::Int(9)]));
        assert_eq!(dst.version_of(2, 0, &k), 2);
        // Disabling clears state.
        dst.set_track_versions(false);
        assert_eq!(dst.version_of(2, 0, &k), 0);
    }
}
