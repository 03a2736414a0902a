//! Twin stores: `TxnCtx::update`, `update_prefix`, `insert_new` and
//! `delete_prefix` against the `get` → clone → `put` and the per-key
//! `delete` they stand for.
//!
//! Random transactions run against two populations that start equal. One
//! twin uses the operations as they are; the other spells each out in
//! `get`, `put`, `delete` and `scan_prefix`, as the procedures did before
//! the operations existed. After every transaction the twins must agree on
//! every outcome, on the transaction's tally and captured history, and on
//! everything the stores hold. Five seeded bugs show that each comparison
//! can fail. (A child of `partition` because some of them reach into a
//! slot's byte estimate or version counters, which nothing outside the
//! module can.)

use super::{MovedKeys, PartitionStore};
use crate::catalog::TableId;
use crate::txn::{KeyAccess, RwSet, TxnCtx, TxnError};
use crate::value::{Key, Row, Value};
use proptest::prelude::*;

const TABLES: usize = 2;
/// One slot of one: every routing root hashes to it, so that a prefix has
/// neighbours in its own slot to leave alone.
const SLOT: u64 = 0;
const NUM_SLOTS: u64 = 1;
const ROOTS: [&str; 2] = ["cart-a", "cart-b"];
const LINES: i64 = 5;
const TABLE_NAME: &str = "T";

/// A key of the universe: the root's own row, or one of its lines.
#[derive(Debug, Clone, Copy)]
struct KeyId {
    table: TableId,
    root: usize,
    line: Option<i64>,
}

impl KeyId {
    fn key(self) -> Key {
        match self.line {
            None => Key::str(ROOTS[self.root]),
            Some(line) => Key::str_int(ROOTS[self.root], line),
        }
    }
}

fn universe() -> impl Iterator<Item = KeyId> {
    (0..TABLES).flat_map(|table| {
        (0..ROOTS.len()).flat_map(move |root| {
            std::iter::once(None)
                .chain((0..LINES).map(Some))
                .map(move |line| KeyId { table, root, line })
        })
    })
}

fn row(counter: i64, payload: u8) -> Row {
    Row::new([
        Value::Int(counter),
        Value::from("x".repeat(usize::from(payload)).as_str()),
    ])
}

#[derive(Debug, Clone)]
enum Op {
    Get(KeyId),
    Put(KeyId, u8),
    Delete(KeyId),
    InsertNew(KeyId, u8),
    /// Rewrites the payload to that many bytes; at `None` the closure
    /// looks at the row and refuses.
    Update(KeyId, Option<u8>),
    UpdatePrefix(TableId, usize, u8),
    DeletePrefix(TableId, usize),
}

/// A population — `(key, payload or tombstone, already moved)` — and the
/// transactions to run against it.
#[derive(Debug, Clone)]
struct Case {
    rows: Vec<(KeyId, Option<u8>, bool)>,
    txns: Vec<Vec<Op>>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let key = || {
        (0..TABLES, 0..ROOTS.len(), -1..LINES).prop_map(|(table, root, line)| KeyId {
            table,
            root,
            line: (line >= 0).then_some(line),
        })
    };
    let payload = || 0u8..40;
    let op = prop_oneof![
        key().prop_map(Op::Get),
        (key(), payload()).prop_map(|(k, n)| Op::Put(k, n)),
        key().prop_map(Op::Delete),
        (key(), payload()).prop_map(|(k, n)| Op::InsertNew(k, n)),
        (key(), payload()).prop_map(|(k, n)| Op::Update(k, Some(n))),
        (key(), payload()).prop_map(|(k, n)| Op::Update(k, Some(n))),
        key().prop_map(|k| Op::Update(k, None)),
        (0..TABLES, 0..ROOTS.len(), payload()).prop_map(|(t, r, n)| Op::UpdatePrefix(t, r, n)),
        (0..TABLES, 0..ROOTS.len(), payload()).prop_map(|(t, r, n)| Op::UpdatePrefix(t, r, n)),
        (0..TABLES, 0..ROOTS.len()).prop_map(|(t, r)| Op::DeletePrefix(t, r)),
    ];
    // One row in eight starts as a tombstone: a key with a version (and,
    // in flight, perhaps a place in the moved set) and no row.
    let held = prop_oneof![
        payload().prop_map(Some),
        payload().prop_map(Some),
        payload().prop_map(Some),
        payload().prop_map(Some),
        payload().prop_map(Some),
        payload().prop_map(Some),
        payload().prop_map(Some),
        Just(None),
    ];
    (
        prop::collection::vec((key(), held, any::<bool>()), 0..30),
        prop::collection::vec(prop::collection::vec(op, 1..4), 1..16),
    )
        .prop_map(|(rows, txns)| Case { rows, txns })
}

/// How a twin carries out the operations under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum How {
    /// As they are.
    InPlace,
    /// As what they stand for.
    Expanded,
    /// Seeded bug: an `update` that leaves the slot's byte estimate where
    /// it was.
    UpdateSkipsTheByteDelta,
    /// Seeded bug: an `update` that advances the key's version before its
    /// closure has agreed to the write.
    UpdateBumpsBeforeItRewrites,
    /// Seeded bug: an `update_prefix` that is an `update` per row, each
    /// with a read of its own (the first in-place `ReserveCart`).
    PrefixReadsEveryRow,
    /// Seeded bug: an `update_prefix` whose rewrites `set` columns
    /// without moving the row's modelled size.
    SetSkipsTheSizeDelta,
    /// Seeded bug: a `delete_prefix` that leaves the deleted keys'
    /// versions where they were.
    DeletePrefixSkipsTheBump,
}

/// What one transaction showed of itself.
#[derive(Debug, PartialEq)]
struct Shown {
    outcomes: Vec<String>,
    rwset: RwSet,
    key_reads: Vec<KeyAccess>,
    key_writes: Vec<KeyAccess>,
    touched_dest: bool,
}

/// One population: a source and, in flight, a destination holding the
/// rows whose keys are in the moved set.
struct Twin {
    source: PartitionStore,
    dest: PartitionStore,
    moved: MovedKeys,
    in_flight: bool,
    how: How,
}

impl Twin {
    fn new(case: &Case, track_versions: bool, in_flight: bool, how: How) -> Self {
        let mut twin = Twin {
            source: PartitionStore::new(TABLES),
            dest: PartitionStore::new(TABLES),
            moved: MovedKeys::default(),
            in_flight,
            how,
        };
        twin.source.set_track_versions(track_versions);
        twin.dest.set_track_versions(track_versions);
        for &(id, payload, moved) in &case.rows {
            let key = id.key();
            if twin.moved.contains(&(id.table, key.clone())) {
                continue; // Already at the destination; keep it on one side.
            }
            let moved = moved && in_flight && twin.source.get(SLOT, id.table, &key).is_none();
            if moved {
                twin.moved.insert((id.table, key.clone()));
            }
            let store = match moved {
                true => &mut twin.dest,
                false => &mut twin.source,
            };
            // Written and, for a tombstone, deleted again as a
            // transaction would have: the version counts both.
            store.put(SLOT, id.table, key.clone(), row(0, payload.unwrap_or(0)));
            store.bump_version(SLOT, id.table, &key);
            if payload.is_none() {
                store.delete(SLOT, id.table, &key);
                store.bump_version(SLOT, id.table, &key);
            }
        }
        twin
    }

    /// Runs `ops` as one transaction.
    fn transact(&mut self, ops: &[Op], capture: bool) -> Shown {
        let bytes_before = [&self.source, &self.dest].map(|store| store.slot_bytes(SLOT));
        let versions_before = [&self.source, &self.dest].map(|store| store.versions.clone());
        let how = self.how;
        let mut ctx = match self.in_flight {
            true => TxnCtx::migrating(
                SLOT,
                NUM_SLOTS,
                &mut self.source,
                &mut self.dest,
                &self.moved,
            ),
            false => TxnCtx::settled(SLOT, NUM_SLOTS, &mut self.source),
        };
        ctx.set_traced(capture);
        let outcomes = ops.iter().map(|op| run(&mut ctx, op, how)).collect();
        let shown = Shown {
            outcomes,
            rwset: ctx.rwset,
            key_reads: std::mem::take(&mut ctx.key_reads),
            key_writes: std::mem::take(&mut ctx.key_writes),
            touched_dest: ctx.touched_dest,
        };

        // The two bugs that sit below what a transaction can reach are
        // seeded by what they would have left behind.
        let updates_only = ops.iter().all(|op| matches!(op, Op::Update(..)));
        if how == How::UpdateSkipsTheByteDelta && updates_only {
            for (store, before) in [&mut self.source, &mut self.dest]
                .into_iter()
                .zip(bytes_before)
            {
                if let Some(data) = store.slots.get_mut(&SLOT) {
                    data.bytes = before;
                }
            }
        }
        let prefix_deletes_only = ops.iter().all(|op| matches!(op, Op::DeletePrefix(..)));
        if how == How::DeletePrefixSkipsTheBump && prefix_deletes_only {
            for (store, before) in [&mut self.source, &mut self.dest]
                .into_iter()
                .zip(versions_before)
            {
                store.versions = before;
            }
        }
        if how == How::UpdateBumpsBeforeItRewrites {
            for (op, outcome) in ops.iter().zip(&shown.outcomes) {
                if let (Op::Update(id, None), true) = (op, outcome.contains("Aborted")) {
                    let key = (id.table, id.key());
                    let store = match self.moved.contains(&key) {
                        true => &mut self.dest,
                        false => &mut self.source,
                    };
                    store.bump_version(SLOT, key.0, &key.1);
                }
            }
        }
        shown
    }

    /// Everything the stores hold, and that each store's byte estimate is
    /// what its rows add up to.
    fn held(&self) -> impl PartialEq + std::fmt::Debug {
        [&self.source, &self.dest].map(|store| {
            assert_eq!(
                store.total_bytes(),
                store.recompute_bytes(),
                "byte estimate drifted: total_bytes() != recompute_bytes()"
            );
            let rows: Vec<_> = (0..TABLES)
                .map(|table| store.export_slot_table(SLOT, table))
                .collect();
            (rows, store.slot_bytes(SLOT), store.total_rows())
        })
    }

    fn versions(&self) -> Vec<[u64; 2]> {
        universe()
            .map(|id| [&self.source, &self.dest].map(|s| s.version_of(SLOT, id.table, &id.key())))
            .collect()
    }
}

/// The closure of an `Update`: check, then write.
fn rewrite(to: Option<u8>) -> impl Fn(&mut Row) -> Result<usize, TxnError> {
    move |row| {
        let Some(n) = to else {
            return Err(TxnError::Aborted(format!(
                "refused at {} columns",
                row.len()
            )));
        };
        grow(row, n, Row::set);
        Ok(row.size_estimate())
    }
}

/// Counts the rewrite in column 0 and resizes the payload in column 1,
/// writing each through `set`.
fn grow(row: &mut Row, payload: u8, set: fn(&mut Row, usize, Value)) {
    set(row, 0, Value::Int(row[0].as_int().unwrap_or(0) + 1));
    set(
        row,
        1,
        Value::from("x".repeat(usize::from(payload)).as_str()),
    );
}

/// `update`, as `get_required`, a clone and a `put`.
fn update_expanded<R>(
    ctx: &mut TxnCtx<'_>,
    table: TableId,
    key: &Key,
    rewrite: impl FnOnce(&mut Row) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    let mut row = ctx.get_required(table, TABLE_NAME, key)?.clone();
    let out = rewrite(&mut row)?;
    ctx.put(table, key.clone(), row);
    Ok(out)
}

fn run(ctx: &mut TxnCtx<'_>, op: &Op, how: How) -> String {
    match *op {
        Op::Get(id) => format!("{:?}", ctx.get(id.table, &id.key())),
        Op::Put(id, n) => format!("{:?}", ctx.put(id.table, id.key(), row(7, n))),
        Op::Delete(id) => format!("{:?}", ctx.delete(id.table, &id.key())),
        Op::InsertNew(id, n) => {
            let (key, row) = (id.key(), row(9, n));
            let inserted = match how {
                How::Expanded if ctx.get(id.table, &key).is_some() => {
                    Err(TxnError::AlreadyExists {
                        table: TABLE_NAME,
                        key,
                    })
                }
                How::Expanded => {
                    ctx.put(id.table, key, row);
                    Ok(())
                }
                _ => ctx.insert_new(id.table, TABLE_NAME, key, row),
            };
            format!("{inserted:?}")
        }
        Op::Update(id, to) => {
            let updated = match how {
                How::Expanded => update_expanded(ctx, id.table, &id.key(), rewrite(to)),
                _ => ctx.update(id.table, TABLE_NAME, &id.key(), rewrite(to)),
            };
            format!("{updated:?}")
        }
        Op::UpdatePrefix(table, root, n) => {
            let prefix = Key::str(ROOTS[root]);
            let rows = match how {
                How::Expanded => {
                    let mut rows = 0u64;
                    for (key, mut row) in ctx.scan_prefix(table, &prefix) {
                        grow(&mut row, n, Row::set);
                        ctx.put(table, key, row);
                        rows += 1;
                    }
                    rows
                }
                How::PrefixReadsEveryRow => {
                    let mut keys = Vec::new();
                    ctx.scan_prefix_with(table, &prefix, |key, _| keys.push(key.clone()));
                    for key in &keys {
                        let rewritten = ctx.update(table, TABLE_NAME, key, |row| {
                            grow(row, n, Row::set);
                            Ok(())
                        });
                        assert_eq!(rewritten, Ok(()));
                    }
                    keys.len() as u64
                }
                How::SetSkipsTheSizeDelta => ctx.update_prefix(table, &prefix, |row| {
                    grow(row, n, Row::set_skipping_size);
                }),
                _ => ctx.update_prefix(table, &prefix, |row| grow(row, n, Row::set)),
            };
            format!("{rows}")
        }
        Op::DeletePrefix(table, root) => {
            let prefix = Key::str(ROOTS[root]);
            let rows = match how {
                How::Expanded => {
                    let mut keys = Vec::new();
                    ctx.scan_prefix_with(table, &prefix, |key, _| keys.push(key.clone()));
                    let deleted = keys.iter().filter(|key| ctx.delete(table, key).is_some());
                    deleted.count() as u64
                }
                _ => ctx.delete_prefix(table, &prefix),
            };
            format!("{rows}")
        }
    }
}

/// Runs the case on a twin that works `how` and on the expanded one, and
/// compares them after every transaction.
fn assert_twins_agree(case: &Case, track_versions: bool, capture: bool, in_flight: bool, how: How) {
    let mut subject = Twin::new(case, track_versions, in_flight, how);
    let mut expanded = Twin::new(case, track_versions, in_flight, How::Expanded);
    let setting = format!("versions {track_versions}, capture {capture}, in flight {in_flight}");
    for (n, ops) in case.txns.iter().enumerate() {
        let (got, want) = (
            subject.transact(ops, capture),
            expanded.transact(ops, capture),
        );
        let at = format!("transaction {n} {ops:?} ({setting})");
        assert_eq!(got.outcomes, want.outcomes, "outcomes differ at {at}");
        assert_eq!(got.key_reads, want.key_reads, "key_reads differ at {at}");
        assert_eq!(got.key_writes, want.key_writes, "key_writes differ at {at}");
        assert_eq!(got.rwset, want.rwset, "RwSet differs at {at}");
        assert_eq!(
            got.touched_dest, want.touched_dest,
            "touched_dest differs at {at}"
        );
        assert!(
            subject.held() == expanded.held(),
            "rows or bytes differ at {at}"
        );
        assert_eq!(
            subject.versions(),
            expanded.versions(),
            "version counters differ at {at}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The operations are what they stand for: settled and in flight,
    /// with and without version counters, captured or not — and with
    /// counters but no capture, where a skipped bump shows only later.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn in_place_writes_are_the_get_clone_put_they_stand_for(case in case_strategy()) {
        for setting in 0..8 {
            let [track_versions, capture, in_flight] = [1, 2, 4].map(|bit| setting & bit != 0);
            assert_twins_agree(&case, track_versions, capture, in_flight, How::InPlace);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "byte estimate drifted")]
    fn an_update_that_skips_the_byte_delta_is_reported(case in case_strategy()) {
        assert_twins_agree(&case, false, false, false, How::UpdateSkipsTheByteDelta);
        assert_twins_agree(&case, false, false, true, How::UpdateSkipsTheByteDelta);
    }

    /// Counters on, capture off: the setting in which the prototype's
    /// missing bump went unseen by everything but the trace digests.
    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "version counters differ")]
    fn an_update_that_bumps_before_it_rewrites_is_reported(case in case_strategy()) {
        assert_twins_agree(&case, true, false, false, How::UpdateBumpsBeforeItRewrites);
        assert_twins_agree(&case, true, false, true, How::UpdateBumpsBeforeItRewrites);
    }

    /// The rows agree value for value; only the audit that sums the
    /// values, not the sizes the rows carry, tells them apart.
    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "byte estimate drifted")]
    fn a_set_that_skips_the_size_delta_is_reported(case in case_strategy()) {
        assert_twins_agree(&case, false, false, false, How::SetSkipsTheSizeDelta);
        assert_twins_agree(&case, false, false, true, How::SetSkipsTheSizeDelta);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "version counters differ")]
    fn a_prefix_delete_that_skips_the_bump_is_reported(case in case_strategy()) {
        assert_twins_agree(&case, true, false, false, How::DeletePrefixSkipsTheBump);
        assert_twins_agree(&case, true, false, true, How::DeletePrefixSkipsTheBump);
    }

    /// The tally and the captured history both show the extra reads; the
    /// history is compared first.
    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "key_reads differ")]
    fn an_update_prefix_tallied_as_reads_per_row_is_reported(case in case_strategy()) {
        assert_twins_agree(&case, true, true, false, How::PrefixReadsEveryRow);
        assert_twins_agree(&case, true, true, true, How::PrefixReadsEveryRow);
    }
}
