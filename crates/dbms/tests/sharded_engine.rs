//! Integration tests for the sharded execution engine's failure and
//! audit paths: a panicking shard must surface as an attributed
//! coordinator panic (the same contract `Sweep::run_fallible` gives
//! cells), and the fenced slot-access recount must agree with the
//! incremental per-shard counters after concurrent runs.

#![allow(clippy::expect_used, clippy::unwrap_used)] // tests abort loudly

use pstore_dbms::catalog::{columns, ColumnType, TableSchema};
use pstore_dbms::{
    Catalog, Cluster, ClusterConfig, Key, KeyValue, Procedure, Row, TxnCtx, TxnError, TxnOutput,
    Value,
};

fn kv_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new(
        "KV",
        columns(&[("k", ColumnType::Str), ("v", ColumnType::Int)]),
        1,
    ));
    cat
}

fn sharded(nodes: u32, shards: u32) -> Cluster {
    Cluster::with_shards(
        kv_catalog(),
        ClusterConfig {
            partitions_per_node: 4,
            num_slots: 64,
        },
        nodes,
        shards,
    )
}

struct Put {
    key: String,
    value: i64,
}

impl Procedure for Put {
    fn name(&self) -> &'static str {
        "Put"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.key.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        ctx.put(
            0,
            Key::str(self.key.clone()),
            Row(vec![Value::Int(self.value)]),
        );
        Ok(TxnOutput::None)
    }
}

struct Get {
    key: String,
}

impl Procedure for Get {
    fn name(&self) -> &'static str {
        "Get"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str(self.key.as_str().into())
    }
    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        let row = ctx.get_required(0, "KV", &Key::str(self.key.clone()))?;
        Ok(TxnOutput::Row(row.clone()))
    }
}

/// A procedure that panics mid-execution — the shard-side equivalent of
/// the fault-injected cells `Sweep::run_fallible` attributes.
struct Kaboom;

impl Procedure for Kaboom {
    fn name(&self) -> &'static str {
        "Kaboom"
    }
    fn routing_key(&self) -> KeyValue {
        KeyValue::Str("kaboom-key".into())
    }
    fn execute(&self, _ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
        panic!("kaboom: injected shard fault");
    }
}

fn submit_put(c: &mut Cluster, i: i64) {
    let put = Put {
        key: format!("key-{i}"),
        value: i,
    };
    let slot = c.slot_of_routing(&put.routing_key());
    c.submit(put, slot);
}

fn submit_get(c: &mut Cluster, i: i64) {
    let get = Get {
        key: format!("key-{i}"),
    };
    let slot = c.slot_of_routing(&get.routing_key());
    c.submit(get, slot);
}

/// A panic inside a shard's procedure does not poison the engine
/// silently and does not tear down the process from a detached thread:
/// it surfaces on the coordinator as a panic naming the shard, so a
/// sweep cell driving this cluster gets the same "caught and
/// attributed" treatment as any other panicking cell.
#[test]
fn panicking_shard_is_caught_and_attributed() {
    let payload = {
        let mut c = sharded(2, 2);
        // Healthy traffic before the fault, so the panic races real work
        // through the mailboxes.
        for i in 0..50 {
            submit_put(&mut c, i);
        }
        let slot = c.slot_of_routing(&Kaboom.routing_key());
        c.submit(Kaboom, slot);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fates = Vec::new();
            c.drain_fates_into(&mut fates);
        }))
        .expect_err("draining past a panicked shard must panic");
        // The cluster must still drop cleanly after the fault (workers
        // joined, mailboxes closed) — reaching the end of this scope
        // without hanging is part of the test.
        caught
    };
    let message = payload
        .downcast_ref::<String>()
        .expect("coordinator panic carries a String payload")
        .clone();
    let suffix = message
        .strip_prefix("executor shard ")
        .unwrap_or_else(|| panic!("panic not attributed to a shard: {message}"));
    let (shard, rest) = suffix.split_once(' ').expect("shard index then detail");
    let shard: u32 = shard.parse().expect("numeric shard index");
    assert!(shard < 2, "shard {shard} out of range");
    assert!(
        rest.starts_with("panicked: kaboom: injected shard fault"),
        "wrong attribution detail: {message}"
    );
}

/// The audit oracle at shards > 1: after mixed traffic and a live
/// scale-out on the threaded backend, the fenced per-shard recount
/// (`rebuild_slot_access_report`) must agree with the incrementally
/// maintained counters, survive a counter reset, and match the serial
/// engine bit-for-bit.
#[test]
fn rebuild_slot_access_report_matches_incremental_at_four_shards() {
    let mut serial = sharded(2, 1);
    let mut sharded4 = sharded(2, 4);
    for c in [&mut serial, &mut sharded4] {
        let mut fates = Vec::new();
        for i in 0..300 {
            submit_put(c, i);
            if i % 4 == 0 {
                submit_get(c, i / 2);
            }
        }
        c.drain_fates_into(&mut fates);
        assert_eq!(fates.len(), 375);

        // The incremental counters and the fenced recount must agree
        // after purely concurrent traffic...
        assert_eq!(c.rebuild_slot_access_report(), c.slot_access_report());

        // ... and stay in agreement through a live scale-out with reads
        // against mid-flight slots between chunk moves.
        c.begin_reconfiguration(5).unwrap();
        while c.reconfiguring() {
            for pair in 0..c.pair_transfers().len() {
                if c.reconfiguring() {
                    c.migrate_chunk(pair, 500).unwrap();
                }
            }
            for i in 0..25 {
                submit_get(c, i);
            }
            c.drain_fates_into(&mut fates);
        }
        assert_eq!(c.rebuild_slot_access_report(), c.slot_access_report());

        // A reset clears both views; fresh traffic re-fills them in sync.
        c.reset_slot_accesses();
        assert!(c.slot_access_report().is_empty());
        assert!(c.rebuild_slot_access_report().is_empty());
        for i in 0..60 {
            submit_get(c, i);
        }
        c.drain_fates_into(&mut fates);
        assert_eq!(c.rebuild_slot_access_report(), c.slot_access_report());
    }
    assert_eq!(serial.slot_access_report(), sharded4.slot_access_report());
    assert_eq!(
        serial.rebuild_slot_access_report(),
        sharded4.rebuild_slot_access_report()
    );
}

/// Per-shard execution reports cover every transaction exactly once:
/// the shard totals sum to the serial engine's single-shard count, and
/// every shard of the partitioned slot space carries some of the load.
#[test]
fn shard_reports_partition_the_work() {
    let mut serial = sharded(2, 1);
    let mut sharded4 = sharded(2, 4);
    let mut fates = Vec::new();
    for c in [&mut serial, &mut sharded4] {
        for i in 0..400 {
            submit_put(c, i);
        }
        c.drain_fates_into(&mut fates);
    }
    let serial_reports = serial.shard_reports();
    let sharded_reports = sharded4.shard_reports();
    assert_eq!(serial_reports.len(), 1);
    assert_eq!(sharded_reports.len(), 4);
    assert_eq!(
        sharded_reports.iter().map(|r| r.txns).sum::<u64>(),
        serial_reports[0].txns
    );
    for (i, report) in sharded_reports.iter().enumerate() {
        assert!(report.txns > 0, "shard {i} executed nothing");
    }
}
