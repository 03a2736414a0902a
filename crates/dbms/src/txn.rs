//! Transactions: stored procedures, execution context, errors.
//!
//! As in H-Store, a transaction is an invocation of a pre-declared stored
//! procedure routed by a single partitioning-key value and executed serially
//! on the owning partition. The execution context enforces the
//! single-partition discipline: every key a procedure touches must hash to
//! the same virtual slot as its routing key (multi-partition transactions
//! are rejected, matching the B2W workload's single-key procedures, §7).

use crate::catalog::TableId;
use crate::partition::{MovedKeys, PartitionStore};
use crate::value::{Key, KeyValue, Row, Value};
use std::fmt;

/// Result payload of a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOutput {
    /// No payload (pure write).
    None,
    /// A single value (e.g. a stock quantity).
    Value(Value),
    /// A single row.
    Row(Row),
    /// A set of keyed rows (e.g. the lines of a cart).
    Rows(Vec<(Key, Row)>),
    /// A count of affected rows.
    Count(u64),
}

/// A transaction abort.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// A row the procedure requires does not exist.
    NotFound {
        /// Table name.
        table: &'static str,
        /// The missing key.
        key: Key,
    },
    /// A row the procedure would create already exists.
    AlreadyExists {
        /// Table name.
        table: &'static str,
        /// The conflicting key.
        key: Key,
    },
    /// Business-logic abort (e.g. reserving out-of-stock items).
    Aborted(String),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::NotFound { table, key } => write!(f, "{table}{key} not found"),
            TxnError::AlreadyExists { table, key } => write!(f, "{table}{key} already exists"),
            TxnError::Aborted(msg) => write!(f, "aborted: {msg}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A stored procedure.
pub trait Procedure {
    /// Procedure name (for statistics and tracing).
    fn name(&self) -> &'static str;

    /// The partitioning-key value this invocation routes on.
    fn routing_key(&self) -> KeyValue;

    /// Executes against the owning partition.
    ///
    /// # Errors
    /// Returns a [`TxnError`] to abort; all context mutations made before an
    /// abort are the procedure's responsibility to avoid (procedures are
    /// written check-then-write, as in H-Store's Java procedures).
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError>;
}

/// Where a key's row currently lives while its slot is mid-migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source,
    Dest,
}

/// Counts of row accesses made by one transaction, split by migration
/// side — the read/write-set record behind the `txn_rwset` trace event
/// and the TXN-01 invariant. The counters only tick for a traced
/// transaction ([`TxnCtx::set_traced`]); an untraced one stays all-zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RwSet {
    /// Rows read, both sides (each prefix scan counts as one read).
    pub reads: u64,
    /// Rows written or deleted, both sides.
    pub writes: u64,
    /// Reads served by the migration destination.
    pub dest_reads: u64,
    /// Writes landing at the migration destination.
    pub dest_writes: u64,
}

/// One key-level access record: `(table, key, write-version)`. For a read
/// the version is the key's version *observed* (0 = never written); for a
/// write it is the version *installed* by this transaction. The version
/// counters live in the partition store (see
/// [`PartitionStore::bump_version`]) so histories stay meaningful across
/// migrations and Squall restarts.
pub type KeyAccess = (TableId, Key, u64);

/// Execution context: a view over the partition(s) holding the routing
/// slot. During live migration of the slot the view spans the source and
/// destination partitions, consulting the migrated-key set per access — the
/// Squall-style key-granularity switchover.
pub struct TxnCtx<'a> {
    slot: u64,
    num_slots: u64,
    source: &'a mut PartitionStore,
    /// Destination store and the set of keys already migrated, when the
    /// routing slot is in flight.
    dest: Option<(&'a mut PartitionStore, &'a MovedKeys)>,
    /// The routing component last hashed and found to map to `slot`. A
    /// procedure touches one entity, so every key after its first carries
    /// this same component and is checked by comparison, not by hashing.
    checked: Option<KeyValue>,
    /// Set when any access hit the destination side (lets the engine track
    /// migration-overlap statistics).
    pub touched_dest: bool,
    /// Read/write-set tally of this transaction. Stays all-zero unless it
    /// is traced (see [`RwSet`]).
    pub rwset: RwSet,
    /// Set for a transaction the engine was asked to trace: its accesses
    /// are tallied into [`rwset`](Self::rwset).
    traced: bool,
    /// When set, every access also records a key-level [`KeyAccess`]
    /// entry (the sampled serializability history). Off by default:
    /// unsampled transactions never clone keys.
    capture: bool,
    /// `(table, key, version-observed)` per read, in program order.
    /// Filled only while capturing (see [`set_traced`](Self::set_traced)).
    pub key_reads: Vec<KeyAccess>,
    /// `(table, key, version-installed)` per write, in program order.
    /// Filled only while capturing.
    pub key_writes: Vec<KeyAccess>,
}

impl<'a> TxnCtx<'a> {
    /// Creates a context for a settled slot.
    pub fn settled(slot: u64, num_slots: u64, store: &'a mut PartitionStore) -> Self {
        TxnCtx {
            slot,
            num_slots,
            source: store,
            dest: None,
            checked: None,
            touched_dest: false,
            rwset: RwSet::default(),
            traced: false,
            capture: false,
            key_reads: Vec::new(),
            key_writes: Vec::new(),
        }
    }

    /// Creates a context for a slot that is mid-migration.
    pub fn migrating(
        slot: u64,
        num_slots: u64,
        source: &'a mut PartitionStore,
        dest: &'a mut PartitionStore,
        moved: &'a MovedKeys,
    ) -> Self {
        TxnCtx {
            slot,
            num_slots,
            source,
            dest: Some((dest, moved)),
            checked: None,
            touched_dest: false,
            rwset: RwSet::default(),
            traced: false,
            capture: false,
            key_reads: Vec::new(),
            key_writes: Vec::new(),
        }
    }

    /// The virtual slot this transaction executes against.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Marks this transaction traced: its accesses are tallied into
    /// [`rwset`](Self::rwset) and, with `capture`, also recorded key by
    /// key (the sampled ISO-01..03 record; see [`KeyAccess`]).
    pub fn set_traced(&mut self, capture: bool) {
        self.traced = true;
        self.capture = capture;
    }

    /// Enforces the single-partition discipline: every key a procedure
    /// touches must hash to the transaction's routing slot.
    ///
    /// # Panics
    /// Panics on a cross-partition access — that is a bug in the procedure
    /// (in H-Store such a transaction would have had to be declared
    /// multi-partition, which this engine, like the B2W workload, forbids).
    fn check_slot(&mut self, key: &Key) {
        let part = key.routing_part();
        if self.checked.as_ref() == Some(part) {
            return;
        }
        // Allocation-free: hashes the routing component from a stack
        // buffer, so per-access slot checks stay off the heap.
        let s = part.with_hash_bytes(|b| crate::hash::bucket_of(b, self.num_slots));
        assert_eq!(
            s, self.slot,
            "single-partition violation: key {key} hashes to slot {s}, \
             transaction executes on slot {}",
            self.slot
        );
        self.checked = Some(part.clone());
    }

    /// Tallies a read into the read/write set of a traced transaction.
    #[inline]
    fn note_read(&mut self, dest: bool) {
        if self.traced {
            self.rwset.reads += 1;
            if dest {
                self.rwset.dest_reads += 1;
            }
        }
    }

    /// Tallies a write/delete into the read/write set of a traced
    /// transaction.
    #[inline]
    fn note_write(&mut self, dest: bool) {
        if self.traced {
            self.rwset.writes += 1;
            if dest {
                self.rwset.dest_writes += 1;
            }
        }
    }

    fn side_of(&mut self, table: TableId, key: &Key) -> Side {
        self.check_slot(key);
        match &self.dest {
            // A set lookup and nothing cheaper: a key first written while
            // its slot is in flight lands at the source, possibly below
            // rows already extracted, so no cursor or range over what has
            // moved can answer this. Cloning an inline key is a copy.
            Some((_, moved)) if moved.contains(&(table, key.clone())) => Side::Dest,
            _ => Side::Source,
        }
    }

    fn store(&self, side: Side) -> &PartitionStore {
        match (side, &self.dest) {
            (Side::Source, _) => self.source,
            (Side::Dest, Some((dest, _))) => dest,
            (Side::Dest, None) => unreachable!("dest side implies dest view"),
        }
    }

    fn store_mut(&mut self, side: Side) -> &mut PartitionStore {
        match (side, &mut self.dest) {
            (Side::Source, _) => self.source,
            (Side::Dest, Some((dest, _))) => dest,
            (Side::Dest, None) => unreachable!("dest side implies dest view"),
        }
    }

    /// Reads a row in place. A procedure that goes on to rewrite it uses
    /// [`update`](Self::update) instead of cloning it and putting it back.
    pub fn get(&mut self, table: TableId, key: &Key) -> Option<&Row> {
        let side = self.note_get(table, key);
        self.store(side).get(self.slot, table, key)
    }

    /// Tallies (and, while capturing, records) a read of `key`; returns
    /// the side it resolves to.
    fn note_get(&mut self, table: TableId, key: &Key) -> Side {
        let side = self.side_of(table, key);
        self.note_read(side == Side::Dest);
        self.touched_dest |= side == Side::Dest;
        if self.capture {
            let v = self.store(side).version_of(self.slot, table, key);
            self.key_reads.push((table, key.clone(), v));
        }
        side
    }

    /// Reads a row in place, aborting with `NotFound` if absent.
    pub fn get_required(
        &mut self,
        table: TableId,
        table_name: &'static str,
        key: &Key,
    ) -> Result<&Row, TxnError> {
        self.get(table, key).ok_or_else(|| TxnError::NotFound {
            table: table_name,
            key: key.clone(),
        })
    }

    /// Inserts or replaces a row.
    pub fn put(&mut self, table: TableId, key: Key, row: Row) -> Option<Row> {
        let side = self.side_of(table, &key);
        self.note_install(side, table, &key);
        let slot = self.slot;
        self.store_mut(side).put(slot, table, key, row)
    }

    /// Inserts a new row, aborting with `AlreadyExists` if present: the
    /// read that looks and the write that lands, in one descent.
    pub fn insert_new(
        &mut self,
        table: TableId,
        table_name: &'static str,
        key: Key,
        row: Row,
    ) -> Result<(), TxnError> {
        let side = self.note_get(table, &key);
        let captured = self.capture.then(|| key.clone());
        let slot = self.slot;
        match self.store_mut(side).insert_new(slot, table, key, row) {
            Ok(installed) => {
                self.note_write(side == Side::Dest);
                if let Some(key) = captured {
                    self.key_writes.push((table, key, installed));
                }
                Ok(())
            }
            Err(key) => Err(TxnError::AlreadyExists {
                table: table_name,
                key,
            }),
        }
    }

    /// Rewrites a row where it lies: what `get_required`, a clone of the
    /// row and a `put` of the clone did, without the clone and in one
    /// descent, and tallied as those two — one read, then one write.
    /// Aborts with `NotFound` if the row is absent.
    ///
    /// `rewrite` may abort the transaction by returning `Err`; like a
    /// procedure it is written check-then-write, so a row it refuses is
    /// a row it has not touched, and an abort writes nothing.
    ///
    /// # Errors
    /// `NotFound`, or whatever `rewrite` returns.
    pub fn update<R>(
        &mut self,
        table: TableId,
        table_name: &'static str,
        key: &Key,
        rewrite: impl FnOnce(&mut Row) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        let side = self.note_get(table, key);
        let slot = self.slot;
        let out = self
            .store_mut(side)
            .update(slot, table, key, rewrite)
            .ok_or_else(|| TxnError::NotFound {
                table: table_name,
                key: key.clone(),
            })??;
        self.note_install(side, table, key);
        Ok(out)
    }

    /// Rewrites, where they lie, all rows with the given key prefix, on
    /// both migration sides; returns how many. Tallied as the
    /// `scan_prefix` and the `put` per row it stands for: one read, a
    /// write per row.
    pub fn update_prefix(
        &mut self,
        table: TableId,
        prefix: &Key,
        mut rewrite: impl FnMut(&mut Row),
    ) -> u64 {
        let slot = self.slot;
        self.write_prefix(table, prefix, |store, record| {
            store.update_prefix(slot, table, prefix, |key, row, installed| {
                record(key, installed);
                rewrite(row);
            })
        })
    }

    /// Deletes every row with the given key prefix, in one pass per
    /// migration side; returns how many. Tallied as the `scan_prefix` and
    /// the `delete` per row it stands for: one read, a write per row.
    pub fn delete_prefix(&mut self, table: TableId, prefix: &Key) -> u64 {
        let slot = self.slot;
        self.write_prefix(table, prefix, |store, record| {
            store.delete_prefix(slot, table, prefix, record)
        })
    }

    /// Runs `at_side` on the source and, in flight, on the destination,
    /// and tallies what it wrote as one read of the prefix and a write
    /// per row. `at_side` writes a store's rows with the prefix and hands
    /// each key, with the version its write installs, to `record`.
    fn write_prefix(
        &mut self,
        table: TableId,
        prefix: &Key,
        mut at_side: impl FnMut(&mut PartitionStore, &mut dyn FnMut(&Key, u64)) -> u64,
    ) -> u64 {
        self.check_slot(prefix);
        let capture = self.capture;
        let (reads, writes) = (&mut self.key_reads, &mut self.key_writes);
        let (first_read, first_write) = (reads.len(), writes.len());
        let mut record = |key: &Key, installed: u64| {
            if capture {
                // The version read is the one this write supersedes.
                let observed = installed.saturating_sub(1);
                reads.push((table, key.clone(), observed));
                writes.push((table, key.clone(), installed));
            }
        };
        // A row lies at the destination exactly when its key is in the
        // moved set, so each store's rows are that side's keys.
        let at_source = at_side(self.source, &mut record);
        let at_dest = match &mut self.dest {
            Some((dest, _)) => at_side(dest, &mut record),
            None => 0,
        };
        if capture && at_source > 0 && at_dest > 0 {
            // The scan reads, and the writes land, in key order across
            // the sides; the keys are distinct and of one table.
            reads[first_read..].sort_unstable_by(|a, b| a.1.cmp(&b.1));
            writes[first_write..].sort_unstable_by(|a, b| a.1.cmp(&b.1));
        }
        self.touched_dest |= at_dest > 0;
        self.note_read(at_dest > 0);
        if self.traced {
            self.rwset.writes += at_source + at_dest;
            self.rwset.dest_writes += at_dest;
        }
        at_source + at_dest
    }

    /// Deletes a row, returning it if present.
    pub fn delete(&mut self, table: TableId, key: &Key) -> Option<Row> {
        let side = self.side_of(table, key);
        self.note_install(side, table, key);
        let slot = self.slot;
        self.store_mut(side).delete(slot, table, key)
    }

    /// Tallies a write or delete of `key` at `side`, advances the key's
    /// version there and, while capturing, records the version installed.
    fn note_install(&mut self, side: Side, table: TableId, key: &Key) {
        self.note_write(side == Side::Dest);
        self.touched_dest |= side == Side::Dest;
        let slot = self.slot;
        let v = self.store_mut(side).bump_version(slot, table, key);
        if self.capture {
            self.key_writes.push((table, key.clone(), v));
        }
    }

    /// Visits, in key order and in place, every row with the given key
    /// prefix, merged across migration sides.
    pub fn scan_prefix_with(
        &mut self,
        table: TableId,
        prefix: &Key,
        mut visit: impl FnMut(&Key, &Row),
    ) {
        self.check_slot(prefix);
        let slot = self.slot;
        let (source, capture, key_reads) = (&*self.source, self.capture, &mut self.key_reads);
        let dest = self.dest.as_ref().map(|(dest, moved)| (&**dest, *moved));
        let mut dest_rows = dest
            .into_iter()
            .flat_map(|(dest, _)| dest.prefix_rows(slot, table, prefix))
            .peekable();
        let hit_dest = dest_rows.peek().is_some();
        merge_by_key(
            source.prefix_rows(slot, table, prefix),
            dest_rows,
            |k, row| {
                if capture {
                    let v = match dest {
                        Some((dest, moved)) if moved.contains(&(table, k.clone())) => {
                            dest.version_of(slot, table, k)
                        }
                        _ => source.version_of(slot, table, k),
                    };
                    key_reads.push((table, k.clone(), v));
                }
                visit(k, row);
            },
        );
        self.touched_dest |= hit_dest;
        self.note_read(hit_dest);
    }

    /// How many rows [`scan_prefix_with`](Self::scan_prefix_with) would
    /// visit, for sizing what collects them. It looks at no row, so it is
    /// not an access: nothing is tallied or captured.
    pub fn prefix_len(&mut self, table: TableId, prefix: &Key) -> usize {
        self.check_slot(prefix);
        let at_dest = self.dest.as_ref().map_or(0, |(dest, _)| {
            dest.prefix_rows(self.slot, table, prefix).count()
        });
        self.source.prefix_rows(self.slot, table, prefix).count() + at_dest
    }

    /// All rows with the given key prefix, merged across migration sides.
    pub fn scan_prefix(&mut self, table: TableId, prefix: &Key) -> Vec<(Key, Row)> {
        let mut rows = Vec::new();
        self.scan_prefix_with(table, prefix, |k, row| rows.push((k.clone(), row.clone())));
        rows
    }
}

/// Visits two key-ordered row streams as one key-ordered stream. A key
/// both hold is visited once, with the row of `first`.
fn merge_by_key<'r>(
    first: impl Iterator<Item = (&'r Key, &'r Row)>,
    second: impl Iterator<Item = (&'r Key, &'r Row)>,
    mut visit: impl FnMut(&'r Key, &'r Row),
) {
    use std::cmp::Ordering;
    let (mut first, mut second) = (first.peekable(), second.peekable());
    loop {
        let order = match (first.peek(), second.peek()) {
            (Some((a, _)), Some((b, _))) => a.cmp(b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let next = match order {
            Ordering::Less => first.next(),
            Ordering::Greater => second.next(),
            Ordering::Equal => {
                second.next();
                first.next()
            }
        };
        if let Some((k, row)) = next {
            visit(k, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::bucket_of;

    const SLOTS: u64 = 64;

    fn row(v: i64) -> Row {
        Row::new([Value::Int(v)])
    }

    /// The slot a key with routing part `root` maps to.
    fn slot_of(root: &str) -> u64 {
        bucket_of(&Key::str(root).routing_bytes(), SLOTS)
    }

    #[test]
    fn settled_context_reads_and_writes_source() {
        let mut store = PartitionStore::new(1);
        let slot = slot_of("a");
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        let k = Key::str("a");
        assert_eq!(ctx.get(0, &k), None);
        ctx.put(0, k.clone(), row(1));
        assert_eq!(ctx.get(0, &k), Some(&row(1)));
        assert_eq!(ctx.delete(0, &k), Some(row(1)));
        assert!(!ctx.touched_dest);
    }

    #[test]
    fn migrating_context_routes_by_moved_set() {
        // All keys share the routing part "cart-9" (one logical entity).
        let slot = slot_of("cart-9");
        let moved_key = Key::str_int("cart-9", 1);
        let staying_key = Key::str_int("cart-9", 2);
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        dst.put(slot, 0, moved_key.clone(), row(10));
        src.put(slot, 0, staying_key.clone(), row(20));
        let moved = MovedKeys::from_iter([(0usize, moved_key.clone())]);

        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        assert_eq!(ctx.get(0, &moved_key), Some(&row(10)));
        assert!(ctx.touched_dest);
        assert_eq!(ctx.get(0, &staying_key), Some(&row(20)));

        // Writes follow the same routing: updating the moved key lands at
        // the destination, new keys land at the source.
        ctx.put(0, moved_key.clone(), row(11));
        ctx.put(0, Key::str_int("cart-9", 3), row(30));
        let _ = ctx;
        assert_eq!(dst.get(slot, 0, &moved_key), Some(&row(11)));
        assert_eq!(src.get(slot, 0, &Key::str_int("cart-9", 3)), Some(&row(30)));
    }

    #[test]
    fn scan_merges_both_sides() {
        let slot = slot_of("cart");
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        // Lines 1 and 3 have moved; 2 and 4 have not, and 5 was written
        // after the chunk that took its neighbours.
        for line in [2, 4, 5] {
            src.put(slot, 0, Key::str_int("cart", line), row(line));
        }
        for line in [1, 3] {
            dst.put(slot, 0, Key::str_int("cart", line), row(line));
        }
        let moved = MovedKeys::from_iter([1, 3].map(|line| (0usize, Key::str_int("cart", line))));
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        let rows = ctx.scan_prefix(0, &Key::str("cart"));
        let expected: Vec<(Key, Row)> = (1..=5)
            .map(|line| (Key::str_int("cart", line), row(line)))
            .collect();
        assert_eq!(rows, expected); // sorted merge
        assert!(ctx.touched_dest);
        assert_eq!(ctx.delete_prefix(0, &Key::str("cart")), 5);
        assert_eq!(src.total_rows() + dst.total_rows(), 0);
    }

    #[test]
    fn insert_new_rejects_duplicates_across_sides() {
        let slot = slot_of("dup");
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        let k = Key::str("dup");
        dst.put(slot, 0, k.clone(), row(1));
        let moved = MovedKeys::from_iter([(0usize, k.clone())]);
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        let err = ctx.insert_new(0, "T", k.clone(), row(2)).unwrap_err();
        assert!(matches!(err, TxnError::AlreadyExists { .. }));
    }

    #[test]
    fn delete_prefix_removes_all_lines() {
        let slot = slot_of("c");
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        for i in 0..4 {
            ctx.put(0, Key::str_int("c", i), row(i));
        }
        assert_eq!(ctx.delete_prefix(0, &Key::str("c")), 4);
        assert_eq!(ctx.scan_prefix(0, &Key::str("c")).len(), 0);
    }

    #[test]
    fn get_required_aborts_cleanly() {
        let slot = slot_of("nope");
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        let err = ctx.get_required(0, "CART", &Key::str("nope")).unwrap_err();
        assert_eq!(
            err,
            TxnError::NotFound {
                table: "CART",
                key: Key::str("nope")
            }
        );
        assert!(err.to_string().contains("CART"));
    }

    #[test]
    fn rwset_tallies_by_side_only_when_traced() {
        let slot = slot_of("cart-9");
        let moved_key = Key::str_int("cart-9", 1);
        let staying_key = Key::str_int("cart-9", 2);
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        dst.put(slot, 0, moved_key.clone(), row(10));
        src.put(slot, 0, staying_key.clone(), row(20));
        let moved = MovedKeys::from_iter([(0usize, moved_key.clone())]);
        let accesses = |ctx: &mut TxnCtx<'_>| {
            let _ = ctx.get(0, &moved_key); // dest read
            let _ = ctx.get(0, &staying_key); // source read
            ctx.put(0, moved_key.clone(), row(11)); // dest write
            let _ = ctx.scan_prefix(0, &Key::str("cart-9")); // read hitting dest
            ctx.update_prefix(0, &Key::str("cart-9"), |_| {}); // read, 2 writes
            let _ = ctx.delete(0, &staying_key); // source write
            ctx.rwset
        };
        let mut traced = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        traced.set_traced(false);
        assert_eq!(
            accesses(&mut traced),
            RwSet {
                reads: 4,
                writes: 4,
                dest_reads: 3,
                dest_writes: 2,
            }
        );
        assert!(traced.key_reads.is_empty() && traced.key_writes.is_empty());
        let mut untraced = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        assert_eq!(accesses(&mut untraced), RwSet::default());
    }

    #[test]
    fn key_capture_records_observed_and_installed_versions() {
        let slot = slot_of("cart-9");
        let moved_key = Key::str_int("cart-9", 1);
        let staying_key = Key::str_int("cart-9", 2);
        let mut src = PartitionStore::new(1);
        let mut dst = PartitionStore::new(1);
        src.set_track_versions(true);
        dst.set_track_versions(true);
        dst.put(slot, 0, moved_key.clone(), row(10));
        src.put(slot, 0, staying_key.clone(), row(20));
        let moved = MovedKeys::from_iter([(0usize, moved_key.clone())]);
        let mut ctx = TxnCtx::migrating(slot, SLOTS, &mut src, &mut dst, &moved);
        ctx.set_traced(true);
        let _ = ctx.get(0, &staying_key); // never txn-written: observes 0
        ctx.put(0, staying_key.clone(), row(21)); // installs 1
        let _ = ctx.get(0, &staying_key); // observes 1
        ctx.put(0, moved_key.clone(), row(11)); // dest install 1
        let _ = ctx.delete(0, &staying_key); // installs 2 (tombstone)
        assert_eq!(
            ctx.key_reads,
            vec![(0, staying_key.clone(), 0), (0, staying_key.clone(), 1),]
        );
        assert_eq!(
            ctx.key_writes,
            vec![
                (0, staying_key.clone(), 1),
                (0, moved_key.clone(), 1),
                (0, staying_key.clone(), 2),
            ]
        );
    }

    #[test]
    fn key_capture_off_records_nothing_but_versions_still_advance() {
        let slot = slot_of("a");
        let mut store = PartitionStore::new(1);
        store.set_track_versions(true);
        let k = Key::str("a");
        {
            let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
            ctx.put(0, k.clone(), row(1));
            assert!(ctx.key_reads.is_empty() && ctx.key_writes.is_empty());
        }
        // An unsampled transaction's writes still advance the chain a
        // later sampled transaction observes.
        let mut ctx = TxnCtx::settled(slot, SLOTS, &mut store);
        ctx.set_traced(true);
        let _ = ctx.get(0, &k);
        assert_eq!(ctx.key_reads, vec![(0, k, 1)]);
    }

    #[test]
    #[should_panic(expected = "single-partition violation")]
    fn cross_partition_access_panics() {
        // Find two roots mapping to different slots.
        let a = "root-a";
        let mut b = String::new();
        for i in 0..1000 {
            let cand = format!("root-{i}");
            if slot_of(&cand) != slot_of(a) {
                b = cand;
                break;
            }
        }
        let mut store = PartitionStore::new(1);
        let mut ctx = TxnCtx::settled(slot_of(a), SLOTS, &mut store);
        ctx.put(0, Key::str(a), row(1)); // fine
        ctx.put(0, Key::str(b), row(2)); // cross-partition: panics
    }
}
