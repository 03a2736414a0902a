#![allow(clippy::cast_possible_truncation, reason = "test slot ids are tiny")]

//! Model-based property tests: the engine must behave exactly like a flat
//! in-memory map, no matter how operations interleave with live
//! reconfigurations.

use proptest::prelude::*;
use pstore_core::partition_plan::SlotPlan;
use pstore_dbms::catalog::{columns, Catalog, ColumnType, TableSchema};
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::hash::FxBuild;
use pstore_dbms::partition::{MovedKeys, PartitionStore};
use pstore_dbms::skew::{imbalance, node_loads, plan_rebalance, SkewConfig};
use pstore_dbms::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
use pstore_dbms::value::{Key, KeyValue, Row, Text, Value};
use pstore_dbms::TableId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

fn kv_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new(
        "KV",
        columns(&[("k", ColumnType::Str), ("v", ColumnType::Int)]),
        1,
    ));
    cat
}

struct Put(String, i64);
impl Procedure for Put {
    fn name(&self) -> &'static str {
        "Put"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.0.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        ctx.put(0, Key::str(self.0.clone()), Row::new([Value::Int(self.1)]));
        Ok(TxnOutput::None)
    }
}

struct Get(String);
impl Procedure for Get {
    fn name(&self) -> &'static str {
        "Get"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.0.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        match ctx.get(0, &Key::str(self.0.clone())) {
            Some(r) => Ok(TxnOutput::Row(r.clone())),
            None => Ok(TxnOutput::None),
        }
    }
}

struct Del(String);
impl Procedure for Del {
    fn name(&self) -> &'static str {
        "Del"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.0.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let n = u64::from(ctx.delete(0, &Key::str(self.0.clone())).is_some());
        Ok(TxnOutput::Count(n))
    }
}

/// One step of the random workload.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, i64),
    Get(u8),
    Del(u8),
    /// Start (or continue) a reconfiguration to this node count.
    Reconfigure(u8),
    /// Push a few migration chunks.
    Chunks(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Del),
        (1u8..=8).prop_map(Op::Reconfigure),
        (1u8..=16).prop_map(Op::Chunks),
    ]
}

fn key_name(k: u8) -> String {
    format!("key-{k:03}")
}

/// Byte lengths on both sides of every representation edge: 22 is the
/// longest inline `Text`, 59 the longest string `with_hash_bytes` hashes
/// from its stack buffer.
const EDGE_LENGTHS: [usize; 12] = [0, 1, 21, 22, 23, 24, 25, 58, 59, 60, 61, 80];

/// Strings of 0–80 bytes: any length, the edge lengths exactly, and
/// multi-byte characters (which may straddle an edge).
fn text_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-c]{0,80}",
        "[a-cé€]{0,30}",
        ("[ab]{80}", 0usize..EDGE_LENGTHS.len())
            .prop_map(|(s, i)| s[..EDGE_LENGTHS[i]].to_string()),
    ]
}

fn key_value_strategy() -> impl Strategy<Value = KeyValue> {
    prop_oneof![
        (-3i64..4).prop_map(KeyValue::Int),
        "[a-c]{0,3}".prop_map(|s| KeyValue::Str(s.into())),
        text_strategy().prop_map(|s| KeyValue::Str(s.into())),
    ]
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A `Text` is indistinguishable from the `String` it was made from,
    /// whichever side of the inline/heap boundary it lands on and
    /// whichever constructor made it.
    #[test]
    fn text_behaves_as_the_string_it_holds(a in text_strategy(), b in text_strategy()) {
        let (ta, tb) = (Text::from(a.as_str()), Text::from(b.as_str()));
        prop_assert_eq!(ta.as_str(), a.as_str());
        prop_assert_eq!(ta.len(), a.len());
        prop_assert_eq!(ta.is_empty(), a.is_empty());
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(hash_of(&ta), hash_of(&a));
        prop_assert_eq!(ta.to_string(), a.clone());
        prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{ta:>30}|{ta:<5}"), format!("{a:>30}|{a:<5}"));
        // One canonical form per string: every way of building it agrees.
        let mid = (0..=a.len() / 2).rev().find(|&i| a.is_char_boundary(i)).unwrap_or(0);
        for built in [
            Text::from(a.clone()),
            Text::format(format_args!("{a}")),
            Text::format(format_args!("{}{}", &a[..mid], &a[mid..])),
            ta.clone(),
        ] {
            prop_assert_eq!(&built, &ta);
            prop_assert_eq!(built.cmp(&tb), a.cmp(&b));
            prop_assert_eq!(hash_of(&built), hash_of(&ta));
        }
        // The modelled size is the paper's, not the real one.
        prop_assert_eq!(Value::from(a.as_str()).size_estimate(), 24 + a.len());
        prop_assert_eq!(KeyValue::Str(ta).size_estimate(), 24 + a.len());
    }

    /// The allocation-free routing hash sees the bytes the allocating one
    /// does, on both sides of its stack buffer's edge.
    #[test]
    fn with_hash_bytes_matches_routing_bytes(part in key_value_strategy()) {
        let expected = Key::new(vec![part.clone()]).routing_bytes();
        prop_assert!(part.with_hash_bytes(|b| b == expected.as_slice()));
        if let KeyValue::Str(s) = &part {
            let mut layout = vec![4u8];
            layout.extend((s.len() as u32).to_le_bytes());
            layout.extend(s.as_bytes());
            prop_assert_eq!(expected, layout);
        }
    }

    /// A `Key` orders, compares, hashes and prints as the `Vec` of its
    /// components did, for one, two (inline) and three (spilled) of them;
    /// in particular a prefix sorts directly before its extensions, which
    /// is what prefix scans walk.
    #[test]
    fn key_behaves_as_the_vec_of_its_parts(
        a in prop::collection::vec(key_value_strategy(), 1..4),
        b in prop::collection::vec(key_value_strategy(), 1..4),
        extra in key_value_strategy(),
    ) {
        let (ka, kb) = (Key::new(a.clone()), Key::new(b.clone()));
        prop_assert_eq!(ka.parts(), a.as_slice());
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.starts_with(&kb), a.starts_with(&b));
        if a == b {
            prop_assert_eq!(hash_of(&ka), hash_of(&kb));
        }
        prop_assert_eq!(format!("{ka:?}"), format!("Key({a:?})"));
        prop_assert_eq!(format!("{ka:#?}"), format!("Key(\n{}\n)", indent(&format!("{a:#?},"))));
        prop_assert_eq!(ka.size_estimate(), a.iter().map(KeyValue::size_estimate).sum::<usize>());

        let mut longer = a.clone();
        longer.push(extra);
        let extended = Key::new(longer);
        prop_assert!(ka < extended);
        prop_assert!(extended.starts_with(&ka));
        // Nothing sorts between a key and its extensions but other
        // extensions: `kb` is below the prefix, an extension, or above all.
        if kb > ka && !kb.starts_with(&ka) {
            prop_assert!(kb > extended);
        }
    }
}

/// Indents every line by four spaces, as `{:#?}` nests a field.
fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random puts/gets/deletes interleaved with random reconfigurations
    /// behave exactly like a HashMap.
    #[test]
    fn engine_matches_model_under_migration(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut cluster = Cluster::new(
            kv_catalog(),
            ClusterConfig { partitions_per_node: 2, num_slots: 64 },
            2,
        );
        let mut model: HashMap<String, i64> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    cluster.execute(&Put(key_name(k), v)).unwrap();
                    model.insert(key_name(k), v);
                }
                Op::Get(k) => {
                    let out = cluster.execute(&Get(key_name(k))).unwrap();
                    match model.get(&key_name(k)) {
                        Some(&v) => prop_assert_eq!(out, TxnOutput::Row(Row::new([Value::Int(v)]))),
                        None => prop_assert_eq!(out, TxnOutput::None),
                    }
                }
                Op::Del(k) => {
                    let out = cluster.execute(&Del(key_name(k))).unwrap();
                    let existed = model.remove(&key_name(k)).is_some();
                    prop_assert_eq!(out, TxnOutput::Count(u64::from(existed)));
                }
                Op::Reconfigure(n) => {
                    // Ignored when one is already running or it's a no-op.
                    let _ = cluster.begin_reconfiguration(n as u32);
                }
                Op::Chunks(n) => {
                    for i in 0..n as usize {
                        if !cluster.reconfiguring() {
                            break;
                        }
                        let pairs = cluster.pair_transfers().len();
                        let _ = cluster.migrate_chunk(i % pairs, 512);
                    }
                }
            }
        }
        // Drain any outstanding reconfiguration, then do a full audit.
        if cluster.reconfiguring() {
            cluster.run_reconfiguration_to_completion(4096).unwrap();
        }
        prop_assert_eq!(cluster.total_rows(), model.len());
        for (k, &v) in &model {
            let out = cluster.execute(&Get(k.clone())).unwrap();
            prop_assert_eq!(out, TxnOutput::Row(Row::new([Value::Int(v)])));
        }
    }

    /// The skew balancer never unbalances: for any access distribution the
    /// proposed plan's imbalance is no worse than the current one, and the
    /// proposal only touches slots that exist.
    #[test]
    fn skew_balancer_never_hurts(
        machines in 2u32..=8,
        counts in prop::collection::vec(0u64..2_000, 64),
    ) {
        let plan = SlotPlan::balanced(machines, 64);
        let accesses: HashMap<u64, u64> = counts
            .iter()
            .enumerate()
            .map(|(s, &c)| (s as u64, c))
            .collect();
        let before = imbalance(&node_loads(&plan, &accesses));
        if let Some(p) = plan_rebalance(&plan, &accesses, &SkewConfig::default()) {
            let after = imbalance(&node_loads(&p.plan, &accesses));
            prop_assert!(after <= before + 1e-9, "{before} -> {after}");
            prop_assert_eq!(p.plan.num_slots(), 64);
            prop_assert_eq!(p.plan.machines(), machines);
            for &(slot, from, to) in &p.moves {
                prop_assert!(slot < 64);
                prop_assert_eq!(plan.owner(slot as usize), from);
                prop_assert_eq!(p.plan.owner(slot as usize), to);
            }
        }
    }

    /// Routing is stable: the slot of a key never depends on cluster state.
    #[test]
    fn routing_is_deterministic(keys in prop::collection::vec("[a-z]{1,12}", 1..40)) {
        let c2 = Cluster::new(
            kv_catalog(),
            ClusterConfig { partitions_per_node: 3, num_slots: 128 },
            2,
        );
        let c7 = Cluster::new(
            kv_catalog(),
            ClusterConfig { partitions_per_node: 3, num_slots: 128 },
            7,
        );
        for k in &keys {
            let key = Key::str(k.clone());
            prop_assert_eq!(c2.slot_of_key(&key), c7.slot_of_key(&key));
        }
    }
}

/// Tables of the chunk-move stores.
const MOVE_TABLES: usize = 3;

/// What one call may move, relative to what the source holds of the slot
/// at that moment. `AllButLastRow` is the edge of emptying a slot: a
/// chunk stops at the first row that reaches its budget, so with exactly
/// this budget the last row stays behind, and with one byte more it goes
/// along — which is why `OneByteLess` than the slot still takes all of it.
#[derive(Debug, Clone, Copy)]
enum Budget {
    One,
    AllButLastRow,
    OneByteLess,
    Exact,
    Unbounded,
}

/// One step against a slot of the store pair.
#[derive(Debug, Clone)]
enum MoveStep {
    Chunk(Budget),
    /// A write that reaches the source (a key first written in flight).
    PutAtSource(u16, u8),
    DeleteAtSource(u16),
}

/// One slot's population: `(table, key id, payload bytes)` rows, and of
/// every how many of them one is deleted again (0 = none, 1 = all: a slot
/// emptied by deletes).
type SlotRows = (Vec<(TableId, u16, u8)>, usize);

/// A population of 1..=3 slots and the steps to run against them.
#[derive(Debug, Clone)]
struct MoveCase {
    track_versions: bool,
    slots: Vec<SlotRows>,
    steps: Vec<(usize, MoveStep)>,
}

fn move_case_strategy() -> impl Strategy<Value = MoveCase> {
    let rows = prop::collection::vec((0..MOVE_TABLES, 0u16..600, 0u8..40), 1..=400);
    let slot = (
        rows,
        prop_oneof![Just(0usize), Just(0usize), Just(1usize), 2usize..6],
    );
    let budget = || {
        prop_oneof![
            Just(Budget::One),
            Just(Budget::AllButLastRow),
            Just(Budget::OneByteLess),
            Just(Budget::Exact),
            Just(Budget::Unbounded),
        ]
    };
    // Two chunks to every write.
    let step = prop_oneof![
        budget().prop_map(MoveStep::Chunk),
        budget().prop_map(MoveStep::Chunk),
        (0u16..600, 0u8..40).prop_map(|(k, n)| MoveStep::PutAtSource(k, n)),
        (0u16..600).prop_map(MoveStep::DeleteAtSource),
    ];
    (
        any::<bool>(),
        prop::collection::vec(slot, 1..=3),
        prop::collection::vec((0usize..3, step), 1..12),
    )
        .prop_map(|(track_versions, slots, steps)| MoveCase {
            track_versions,
            slots,
            steps,
        })
}

/// Keys of two shapes and rows of many sizes, so that budgets fall on
/// every kind of row boundary.
fn move_key(id: u16) -> Key {
    if id.is_multiple_of(3) {
        Key::int(i64::from(id))
    } else {
        Key::str_int(format!("k{id}"), i64::from(id))
    }
}

fn move_row(id: u16, payload: u8) -> Row {
    Row::new([
        Value::Int(i64::from(id)),
        Value::from("x".repeat(payload as usize).as_str()),
    ])
}

/// A source holding the case's slots and an empty destination. Every
/// write bumps the key's version as a transaction's would, so deleted
/// keys leave tombstone counters behind when tracking is on.
fn move_stores(case: &MoveCase) -> (PartitionStore, PartitionStore) {
    let mut src = PartitionStore::new(MOVE_TABLES);
    let mut dst = PartitionStore::new(MOVE_TABLES);
    src.set_track_versions(case.track_versions);
    dst.set_track_versions(case.track_versions);
    for (slot, (rows, delete_every)) in case.slots.iter().enumerate() {
        let slot = slot as u64;
        for &(table, id, payload) in rows {
            src.put(slot, table, move_key(id), move_row(id, payload));
            src.bump_version(slot, table, &move_key(id));
        }
        for (i, &(table, id, _)) in rows.iter().enumerate() {
            if *delete_every > 0 && i % delete_every == 0 {
                src.delete(slot, table, &move_key(id));
                src.bump_version(slot, table, &move_key(id));
            }
        }
    }
    (src, dst)
}

/// Modelled bytes of the last row `store` holds of `slot`, 0 if none.
fn last_row_bytes(store: &PartitionStore, slot: u64) -> usize {
    (0..MOVE_TABLES)
        .rev()
        .find_map(|table| store.export_slot_table(slot, table).pop())
        .map_or(0, |(key, row)| key.size_estimate() + row.size_estimate())
}

/// Everything observable of one store: rows, byte accounting, residency
/// and the version of every key the case ever names.
fn observe(store: &PartitionStore, case: &MoveCase) -> impl PartialEq + std::fmt::Debug {
    let slots = 0..case.slots.len() as u64;
    let rows: Vec<_> = slots
        .clone()
        .flat_map(|slot| (0..MOVE_TABLES).map(move |t| (slot, t, store.export_slot_table(slot, t))))
        .collect();
    let slot_bytes: Vec<usize> = slots.clone().map(|slot| store.slot_bytes(slot)).collect();
    let mut resident: Vec<u64> = store.resident_slots().collect();
    resident.sort_unstable();
    let versions: Vec<u64> = slots
        .flat_map(|slot| {
            (0..MOVE_TABLES)
                .flat_map(move |t| (0..600).map(move |id| store.version_of(slot, t, &move_key(id))))
        })
        .collect();
    (
        rows,
        slot_bytes,
        (
            store.total_bytes(),
            store.recompute_bytes(),
            store.total_rows(),
        ),
        resident,
        versions,
    )
}

/// One chunk move between a store pair.
type ChunkMover = fn(
    &mut PartitionStore,
    &mut PartitionStore,
    &mut HashMap<u64, MovedKeys, FxBuild>,
    u64,
    usize,
) -> (usize, usize, bool);

/// The move as it was before slots were handed over: pop the chunk, note
/// each key as moved, carry each key's version counter (and, once the
/// slot is empty, the tombstones'), re-insert row by row.
fn row_by_row(
    src: &mut PartitionStore,
    dst: &mut PartitionStore,
    moved: &mut HashMap<u64, MovedKeys, FxBuild>,
    slot: u64,
    budget: usize,
) -> (usize, usize, bool) {
    let moved_keys = moved.entry(slot).or_default();
    let (rows, bytes, emptied) = src.extract_chunk(slot, budget.max(1));
    for (table, key, _) in &rows {
        moved_keys.insert((*table, key.clone()));
    }
    if src.track_versions() {
        for (table, key, _) in &rows {
            if let Some(v) = src.take_version(slot, *table, key) {
                dst.install_versions(slot, vec![((*table, key.clone()), v)]);
            }
        }
        if emptied {
            dst.install_versions(slot, src.take_slot_versions(slot));
        }
    }
    let n_rows = rows.len();
    for (table, key, row) in rows {
        dst.put(slot, table, key, row);
    }
    if emptied {
        moved.remove(&slot);
    }
    (n_rows, bytes, emptied)
}

/// Seeded bug: takes the slot whole as soon as all but its last row fit
/// the budget — one row too early. (The slack has to be a row: a slot of
/// `budget + 1` bytes leaves whole row by row as well.)
fn handed_over_a_row_early(
    src: &mut PartitionStore,
    dst: &mut PartitionStore,
    moved: &mut HashMap<u64, MovedKeys, FxBuild>,
    slot: u64,
    budget: usize,
) -> (usize, usize, bool) {
    let reach = budget.saturating_add(last_row_bytes(src, slot));
    let budget = if src.slot_bytes(slot) <= reach {
        usize::MAX
    } else {
        budget
    };
    src.migrate_chunk_to(dst, moved, slot, budget)
}

/// Seeded bug: a slot with no rows left arrives as an empty resident
/// slot instead of nowhere.
fn handed_over_empty_slots_too(
    src: &mut PartitionStore,
    dst: &mut PartitionStore,
    moved: &mut HashMap<u64, MovedKeys, FxBuild>,
    slot: u64,
    budget: usize,
) -> (usize, usize, bool) {
    let out = src.migrate_chunk_to(dst, moved, slot, budget);
    if out == (0, 0, true) {
        let key = Key::int(-1);
        dst.put(slot, 0, key.clone(), Row::new([]));
        dst.delete(slot, 0, &key);
    }
    out
}

/// Runs the case against `mover` and against [`row_by_row`] on a twin
/// store pair: every call's `(rows, bytes, emptied)`, both stores and the
/// moved sets must agree after every step, until every slot has left.
fn assert_moves_row_by_row(case: &MoveCase, mover: ChunkMover) {
    let (mut src, mut dst) = move_stores(case);
    let (mut ref_src, mut ref_dst) = move_stores(case);
    let (mut moved, mut ref_moved) = (HashMap::default(), HashMap::default());
    let slots = case.slots.len();
    // The steps, then whatever is left of each slot in one chunk, then a
    // chunk of a slot that is already gone.
    let drain = (0..2 * slots).map(|i| (i, MoveStep::Chunk(Budget::Unbounded)));
    for (n, (slot, step)) in case.steps.iter().cloned().chain(drain).enumerate() {
        let slot = (slot % slots) as u64;
        match step {
            MoveStep::Chunk(budget) => {
                let held = ref_src.slot_bytes(slot);
                let budget = match budget {
                    Budget::One => 1,
                    Budget::AllButLastRow => held - last_row_bytes(&ref_src, slot),
                    Budget::OneByteLess => held.saturating_sub(1),
                    Budget::Exact => held,
                    Budget::Unbounded => usize::MAX,
                };
                let got = mover(&mut src, &mut dst, &mut moved, slot, budget);
                let want = row_by_row(&mut ref_src, &mut ref_dst, &mut ref_moved, slot, budget);
                assert!(
                    got == want,
                    "diverged at step {n}: slot {slot}, budget {budget} of {held} bytes: \
                     moved {got:?}, row by row {want:?}"
                );
            }
            MoveStep::PutAtSource(id, payload) => {
                for store in [&mut src, &mut ref_src] {
                    store.put(slot, 0, move_key(id), move_row(id, payload));
                    store.bump_version(slot, 0, &move_key(id));
                }
            }
            MoveStep::DeleteAtSource(id) => {
                for store in [&mut src, &mut ref_src] {
                    store.delete(slot, 0, &move_key(id));
                    store.bump_version(slot, 0, &move_key(id));
                }
            }
        }
        assert!(
            observe(&src, case) == observe(&ref_src, case),
            "diverged at step {n}: the sources differ"
        );
        assert!(
            observe(&dst, case) == observe(&ref_dst, case),
            "diverged at step {n}: the destinations differ"
        );
        assert!(
            moved == ref_moved,
            "diverged at step {n}: moved sets differ"
        );
    }
    assert_eq!(src.total_rows(), 0, "rows left at the source");
    assert!(moved.is_empty(), "a moved set outlived its slot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Handing a slot over is the row-by-row move: same returns, same
    /// stores, same versions, for any population, budget and tracking.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_handed_over_slot_is_the_slot_moved_row_by_row(case in move_case_strategy()) {
        assert_moves_row_by_row(&case, PartitionStore::migrate_chunk_to);
    }

    /// The comparison can fail: a handoff one row too eager is reported
    /// on the same corpus.
    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "diverged at step")]
    fn a_slot_handed_over_a_row_early_is_reported(case in move_case_strategy()) {
        assert_moves_row_by_row(&case, handed_over_a_row_early);
    }

    /// ... and so is one that makes an emptied slot resident.
    #[test]
    #[cfg_attr(miri, ignore)]
    #[should_panic(expected = "diverged at step")]
    fn an_empty_slot_handed_over_is_reported(case in move_case_strategy()) {
        assert_moves_row_by_row(&case, handed_over_empty_slots_too);
    }
}

/// Slots of a handful of B2W-shaped ids, recorded at the commit before
/// values went inline: a changed byte in a key's hash input moves every
/// row of the database.
#[test]
fn routing_slots_of_b2w_ids_are_pinned() {
    let ids = [
        "cart-0000deadbeef",
        "cart-9e3779b97f4a7c15",
        "sku-0001f3a9",
        "sku-bf58476d1ce4e5b9",
        "chk-00c0ffee1234",
        "chk-fedcba9876543210",
        "stx-000000000057",
        "stx-8badf00d8badf00d",
    ];
    for (num_slots, expected) in [
        (3_600, [968u64, 586, 2327, 1086, 310, 131, 1679, 153]),
        (7_200, [968, 586, 5927, 4686, 3910, 131, 1679, 153]),
    ] {
        let cluster = Cluster::new(
            kv_catalog(),
            ClusterConfig {
                partitions_per_node: 6,
                num_slots,
            },
            3,
        );
        let slots = ids.map(|id| cluster.slot_of_routing(&KeyValue::Str(id.into())));
        assert_eq!(slots, expected, "{num_slots} slots");
        let by_key = ids.map(|id| cluster.slot_of_key(&Key::str_int(id, 7)));
        assert_eq!(by_key, expected, "{num_slots} slots, composite keys");
    }
}

/// Modelled sizes of one row of each B2W table, recorded at the same
/// commit. The paper's database size D and the migration chunk budget are
/// expressed in these bytes; they do not follow the real representation.
#[test]
fn modelled_sizes_of_b2w_rows_are_pinned() {
    let s = |v: &str| Value::from(v);
    let (int, float) = (Value::Int, Value::Float);
    let cart = "cart-0000deadbeef";
    let (chk, sku, stx) = ("chk-00c0ffee1234", "sku-0001f3a9", "stx-8badf00d8badf00d");
    let rows = [
        (
            "CART",
            Key::str(cart),
            vec![s(cart), s("cust-0badcafe"), s("OPEN"), float(59.5), int(17)],
            41,
            138,
        ),
        (
            "CART_LINE",
            Key::str_int(cart, 2),
            vec![s(cart), int(2), s(sku), int(3), float(19.75), s("RESERVED")],
            49,
            149,
        ),
        (
            "CHECKOUT",
            Key::str(chk),
            vec![s(chk), s(cart), s("PAID"), float(59.5), int(18)],
            40,
            141,
        ),
        (
            "CHECKOUT_LINE",
            Key::str_int(chk, 2),
            vec![s(chk), int(2), s(sku), int(3), float(19.75), s(stx)],
            48,
            160,
        ),
        (
            "CHECKOUT_PAYMENT",
            Key::str_int(chk, 0),
            vec![s(chk), int(0), s("BOLETO"), float(59.5), s("OPEN")],
            48,
            130,
        ),
        (
            "STOCK",
            Key::str(sku),
            vec![s(sku), int(999_997), int(3), int(0), s("WH-1")],
            36,
            104,
        ),
        (
            "STOCK_TXN",
            Key::str(stx),
            vec![s(stx), s(sku), s(cart), int(3), s("PURCHASED")],
            44,
            178,
        ),
    ];
    for (table, key, row, key_size, row_size) in rows {
        assert_eq!(key.size_estimate(), key_size, "{table} key");
        assert_eq!(Row::from(row).size_estimate(), row_size, "{table} row");
    }
    let line = (
        Key::str_int(cart, 2),
        Row::new([s(cart), int(2), Value::Null, Value::Bool(true)]),
    );
    assert_eq!(
        format!("{line:?}"),
        r#"(Key([Str("cart-0000deadbeef"), Int(2)]), Row([Str("cart-0000deadbeef"), Int(2), Null, Bool(true)]))"#
    );
    assert_eq!(line.0.to_string(), "('cart-0000deadbeef', 2)");
}
