//! ISO-01/02 seeded-bug twin tests: each anomaly has
//! a positive test proving the checker names the violating cycle/edge,
//! and a `#[should_panic(expected = "ISO-xx seeded bug")]` twin that
//! asserts the seeded history is clean — which must fail, proving the
//! discriminating power is intact.
//!
//! The bugs are injected where the captured accesses are folded into a
//! history: an armed [`ReadBug`] makes each recorded read lie about the
//! version it observed, so the history carries the exact signature of a
//! lost update (stale read before a blind install), a write skew (two
//! crossed stale reads), or a read from the future — while execution
//! itself stays correct. The workloads below run against the real
//! partition store and execution context with version tracking on, i.e.
//! the same capture path the engine uses for sampled transactions.

use pstore_dbms::partition::PartitionStore;
use pstore_dbms::txn::TxnCtx;
use pstore_dbms::value::{Key, Row, Value};
use pstore_verify::iso::{
    check_dsg_acyclic, check_key_histories, check_read_commit_order, TxnHistory,
};

/// Which read-capture anomaly the history fold fabricates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadBug {
    /// Record versions faithfully.
    None,
    /// Record each read one version *older* than observed — the
    /// stale-read signature behind lost updates and write skew (ISO-01
    /// cycles).
    StaleRead,
    /// Record each read one version *newer* than observed — a read from
    /// the future (ISO-02).
    FutureRead,
}

/// A one-table, one-slot engine surface: each `txn` call executes a
/// closure against a fresh settled context with key capture on (the
/// sampled path), then folds the captured accesses into a history,
/// distorting its reads as the armed [`ReadBug`] says.
struct MiniEngine {
    store: PartitionStore,
    histories: Vec<TxnHistory>,
    bug: ReadBug,
}

impl MiniEngine {
    fn new() -> Self {
        let mut store = PartitionStore::new(1);
        store.set_track_versions(true);
        MiniEngine {
            store,
            histories: Vec::new(),
            bug: ReadBug::None,
        }
    }

    fn txn(&mut self, f: impl FnOnce(&mut TxnCtx<'_>)) {
        // num_slots = 1: every key hashes to slot 0, so the
        // single-partition discipline is trivially satisfied.
        let mut ctx = TxnCtx::settled(0, 1, &mut self.store);
        ctx.set_traced(true);
        f(&mut ctx);
        let id = self.histories.len() as u64 + 1;
        let mut h = TxnHistory::new(id);
        for (table, key, version) in &ctx.key_reads {
            let version = match self.bug {
                ReadBug::None => *version,
                ReadBug::StaleRead => version.saturating_sub(1),
                ReadBug::FutureRead => version + 1,
            };
            h = h.read(*table as u64, &key.to_string(), version);
        }
        for (table, key, version) in &ctx.key_writes {
            h = h.write(*table as u64, &key.to_string(), *version);
        }
        self.histories.push(h);
    }
}

fn row(v: i64) -> Row {
    Row::new([Value::Int(v)])
}

/// T1 seeds `k`; with the stale-read bug armed, T2 and T3 each
/// read-modify-write `k`. Their recorded reads claim the version *one
/// before* the one they observed — so both appear to have read the same
/// version and blindly installed over each other: the lost update.
fn lost_update_history() -> Vec<TxnHistory> {
    let mut e = MiniEngine::new();
    let k = Key::str("k");
    e.txn(|ctx| {
        ctx.put(0, k.clone(), row(1));
    });
    e.bug = ReadBug::StaleRead;
    for bump in [2, 3] {
        e.txn(|ctx| {
            let cur = ctx.get(0, &k);
            assert!(cur.is_some());
            ctx.put(0, k.clone(), row(bump));
        });
    }
    e.histories
}

/// T1 seeds `a` and `b`; T2 reads `a` and writes `b` (faithfully); with
/// the stale bug armed, T3 reads `b` and writes `a` — its recorded read
/// of `b` misses T2's install, crossing two RW anti-dependencies: the
/// write skew.
fn write_skew_history() -> Vec<TxnHistory> {
    let mut e = MiniEngine::new();
    let (a, b) = (Key::str("a"), Key::str("b"));
    e.txn(|ctx| {
        ctx.put(0, a.clone(), row(1));
        ctx.put(0, b.clone(), row(1));
    });
    e.txn(|ctx| {
        ctx.get(0, &a);
        ctx.put(0, b.clone(), row(2));
    });
    e.bug = ReadBug::StaleRead;
    e.txn(|ctx| {
        ctx.get(0, &b);
        ctx.put(0, a.clone(), row(2));
    });
    e.histories
}

/// T1 seeds `k`; with the future-read bug armed, T2's recorded read
/// claims the version T3 installs only *later* in the commit order.
fn future_read_history() -> Vec<TxnHistory> {
    let mut e = MiniEngine::new();
    let k = Key::str("k");
    e.txn(|ctx| {
        ctx.put(0, k.clone(), row(1));
    });
    e.bug = ReadBug::FutureRead;
    e.txn(|ctx| {
        ctx.get(0, &k);
    });
    e.bug = ReadBug::None;
    e.txn(|ctx| {
        ctx.put(0, k.clone(), row(2));
    });
    e.histories
}

/// Control: the same workloads with no bug armed are clean — the fold
/// is faithful by default, and the real capture path is serializable.
#[test]
fn unseeded_workloads_are_clean() {
    let mut e = MiniEngine::new();
    let (k, a, b) = (Key::str("k"), Key::str("a"), Key::str("b"));
    e.txn(|ctx| {
        ctx.put(0, k.clone(), row(1));
        ctx.put(0, a.clone(), row(1));
        ctx.put(0, b.clone(), row(1));
    });
    e.txn(|ctx| {
        ctx.get(0, &k);
        ctx.put(0, k.clone(), row(2));
        ctx.get(0, &a);
        ctx.put(0, b.clone(), row(2));
    });
    e.txn(|ctx| {
        ctx.get(0, &b);
        ctx.put(0, a.clone(), row(2));
        ctx.get(0, &k);
    });
    let violations = check_key_histories("unseeded twin control", &e.histories);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn lost_update_is_flagged_with_a_named_cycle() {
    let violations = check_dsg_acyclic("seeded lost update", &lost_update_history());
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].invariant.code(), "ISO-01");
    let detail = &violations[0].detail;
    // The diagnostic names the cycle: transaction ids, edge kinds
    // (the lost update is a WW/RW loop), and the key.
    assert!(detail.contains("dependency cycle"), "{detail}");
    assert!(detail.contains("RW"), "{detail}");
    assert!(detail.contains("WW"), "{detail}");
    assert!(detail.contains("(t0:('k'))"), "{detail}");
}

/// Negative twin: asserting the seeded history is serializable must
/// panic — ISO-01 catches the lost update.
#[test]
#[should_panic(expected = "ISO-01 seeded bug")]
fn iso_01_seeded_lost_update_is_caught() {
    let violations = check_dsg_acyclic("seeded lost update", &lost_update_history());
    assert!(
        violations.is_empty(),
        "ISO-01 seeded bug: {}",
        violations[0].detail
    );
}

#[test]
fn write_skew_is_flagged_with_crossed_anti_dependencies() {
    let violations = check_dsg_acyclic("seeded write skew", &write_skew_history());
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].invariant.code(), "ISO-01");
    let detail = &violations[0].detail;
    // The canonical write-skew cycle: T2 and T3 joined by two RW
    // anti-dependencies, one per key.
    assert!(detail.contains("T2"), "{detail}");
    assert!(detail.contains("T3"), "{detail}");
    assert_eq!(detail.matches("RW").count(), 2, "{detail}");
    assert!(detail.contains("(t0:('a'))"), "{detail}");
    assert!(detail.contains("(t0:('b'))"), "{detail}");
}

/// Negative twin: asserting the seeded write skew is serializable must
/// panic — ISO-01 catches it.
#[test]
#[should_panic(expected = "ISO-01 seeded bug")]
fn iso_01_seeded_write_skew_is_caught() {
    let violations = check_dsg_acyclic("seeded write skew", &write_skew_history());
    assert!(
        violations.is_empty(),
        "ISO-01 seeded bug: {}",
        violations[0].detail
    );
}

#[test]
fn future_read_is_flagged_with_the_violating_edge() {
    let violations = check_read_commit_order("seeded future read", &future_read_history());
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].invariant.code(), "ISO-02");
    let detail = &violations[0].detail;
    assert!(detail.contains("T2"), "{detail}");
    assert!(detail.contains("T3"), "{detail}");
    assert!(detail.contains("later commit position"), "{detail}");
}

/// Negative twin: asserting the seeded future read observes only
/// committed versions must panic — ISO-02 catches it.
#[test]
#[should_panic(expected = "ISO-02 seeded bug")]
fn iso_02_seeded_future_read_is_caught() {
    let violations = check_read_commit_order("seeded future read", &future_read_history());
    assert!(
        violations.is_empty(),
        "ISO-02 seeded bug: {}",
        violations[0].detail
    );
}
