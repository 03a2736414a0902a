//! `engine_scale_cycle`: the partitioned engine driven directly, with no
//! simulator and no controller, on a database larger than the cache.
//!
//! Ten settled slices alternate with ten slices run under back-to-back
//! 3→6→3 reconfigurations (one 8 KiB `migrate_chunk` per 16 transactions),
//! so migration runs beside transactions and read-only procedures beside
//! read-write ones (the B2W mix is about a fifth read-only). A gain for one
//! of those that costs the other shows up here.
//!
//! The same loop, on the simulator workloads' small database, is the layer
//! ledger of `static_steady` and `elastic_day` (see [`ledger`]).

use super::{Measurement, Mode, Outcome};
use crate::stats::Slice;
use crate::{alloc, calib, spans};
use pstore_b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore_b2w::procedures::B2wTxn;
use pstore_b2w::schema::b2w_catalog;
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::txn::Procedure;
use pstore_sim::latency::LatencyRecorder;
use std::time::{Duration, Instant};

/// Transactions per timed slice (about 30 ms).
const SLICE_TXNS: usize = 12_000;
/// Slices per settled block and per reconfiguring block.
const BLOCK_SLICES: usize = 10;
/// Transactions between migration chunks while reconfiguring.
const TXNS_PER_CHUNK: usize = 16;
/// Byte budget of one migration chunk.
const CHUNK_BYTES: usize = 8 * 1024;
/// Calls per traced batch: generate 256, route 256, execute 256, so cache
/// behaviour stays close to the interleaved loop while one clock pair
/// covers 256 calls.
const BATCH: usize = 256;
/// One traced batch in this many times its calls individually instead.
const EACH_EVERY: usize = 8;
/// Cluster sizes the reconfigurations alternate between.
const SMALL: u32 = 3;
const LARGE: u32 = 6;

/// Database and cluster sizing.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Nodes at start.
    pub nodes: u32,
    /// Partitions per node.
    pub partitions_per_node: u32,
    /// Virtual hash slots.
    pub num_slots: usize,
    /// SKUs in the stock table.
    pub num_skus: usize,
    /// Open carts loaded at start.
    pub initial_carts: usize,
    /// Untimed warm-up transactions that bring the tables to steady size.
    pub warmup_txns: usize,
}

/// 140 k rows and 25 MB of row data after warm-up, growing towards 200 k
/// and 40 MB as the run goes on; 115–150 MB resident: well beyond the
/// last-level cache, unlike the simulator workloads' 2.5 MB of rows.
pub const BIG: Sizing = Sizing {
    nodes: SMALL,
    partitions_per_node: 6,
    num_slots: 7_200,
    num_skus: 50_000,
    initial_carts: 15_000,
    warmup_txns: 300_000,
};

/// A loaded, warmed-up cluster and the generator that feeds it.
pub struct Db {
    cluster: Cluster,
    gen: WorkloadGenerator,
    /// Seconds, at reference speed, that loading and warming up took.
    pub load_s: f64,
}

/// Counts over a run of transactions.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Transactions executed.
    pub txns: u64,
    /// Transactions that aborted.
    pub failed: u64,
    /// Read-only transactions.
    pub read_only: u64,
    /// Sum over transactions of the nodes allocated when each ran.
    pub node_txns: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.txns += other.txns;
        self.failed += other.failed;
        self.read_only += other.read_only;
        self.node_txns += other.node_txns;
    }
}

/// Host nanoseconds a batched run spent in each layer.
#[derive(Debug, Default, Clone, Copy)]
struct LayerNanos {
    generating: u64,
    routing: u64,
    executing: u64,
    /// Transactions `executing` covers (batches timed call by call are not
    /// in it).
    executed: u64,
    recording: u64,
}

impl Db {
    /// Boots a cluster, loads stock and carts and runs the warm-up, the
    /// way the detailed simulator sets itself up.
    pub fn load(sizing: &Sizing, workload_seed: u64) -> Db {
        let probe_before = calib::run();
        let started = Instant::now();
        let mut cluster = Cluster::new(
            b2w_catalog(),
            ClusterConfig {
                partitions_per_node: sizing.partitions_per_node,
                num_slots: sizing.num_slots,
            },
            sizing.nodes,
        );
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            seed: workload_seed,
            num_skus: sizing.num_skus,
            initial_carts: sizing.initial_carts,
            ..WorkloadConfig::default()
        });
        for proc in gen.seed_stock_procedures() {
            cluster.execute(&proc).expect("stock seeding failed");
        }
        for txn in gen.initial_load() {
            cluster.execute(&txn).expect("initial cart load failed");
        }
        let mut db = Db {
            cluster,
            gen,
            load_s: 0.0,
        };
        db.run_plain(sizing.warmup_txns, None);
        let load_s = started.elapsed().as_secs_f64();
        let probe = (probe_before + calib::run()) as f64 / 2.0;
        db.load_s = calib::at_reference_speed(load_s, probe);
        db
    }

    /// The loop the end-to-end numbers time: generate, route, execute, one
    /// transaction at a time; a migration chunk every 16th when moving.
    fn run_plain(&mut self, txns: usize, mut mover: Option<&mut Mover>) -> Tally {
        let mut tally = Tally::default();
        for i in 0..txns {
            let txn = self.gen.next_txn();
            let slot = self.cluster.slot_of_routing(&txn.routing_key());
            tally.failed += u64::from(self.cluster.execute_at_slot(&txn, slot).is_err());
            tally.read_only += u64::from(txn.is_read_only());
            if i % TXNS_PER_CHUNK == TXNS_PER_CHUNK - 1 {
                if let Some(mover) = mover.as_deref_mut() {
                    mover.step(&mut self.cluster);
                }
                tally.node_txns +=
                    u64::from(self.cluster.allocated_nodes()) * TXNS_PER_CHUNK as u64;
            }
        }
        tally.txns = txns as u64;
        tally
    }

    /// The same work in batches of [`BATCH`], each layer's calls under one
    /// span; `clock` adds the simulator's latency recording as a fourth
    /// layer, once for the whole stretch so that its once-a-second flush is
    /// in it.
    fn run_batched(
        &mut self,
        txns: usize,
        mut mover: Option<&mut Mover>,
        clock: Option<&mut SimClock>,
    ) -> (Tally, LayerNanos) {
        let mut tally = Tally::default();
        let mut layers = LayerNanos::default();
        let mut batch: Vec<B2wTxn> = Vec::with_capacity(BATCH);
        let mut slots: Vec<u64> = Vec::with_capacity(BATCH);
        for b in 0..txns / BATCH {
            batch.clear();
            slots.clear();
            spans::begin("b2w.next_txn", BATCH as u64);
            batch.extend((0..BATCH).map(|_| self.gen.next_txn()));
            layers.generating += spans::end();
            spans::begin("dbms.route", BATCH as u64);
            slots.extend(
                batch
                    .iter()
                    .map(|t| self.cluster.slot_of_routing(&t.routing_key())),
            );
            layers.routing += spans::end();
            if b % EACH_EVERY == EACH_EVERY - 1 {
                tally.failed += self.execute_each(&batch, &slots);
            } else {
                spans::begin("dbms.execute", BATCH as u64);
                for (txn, &slot) in batch.iter().zip(&slots) {
                    tally.failed += u64::from(self.cluster.execute_at_slot(txn, slot).is_err());
                }
                layers.executing += spans::end();
                layers.executed += BATCH as u64;
            }
            tally.read_only += batch.iter().filter(|t| t.is_read_only()).count() as u64;
            if let Some(mover) = mover.as_deref_mut() {
                for _ in 0..BATCH / TXNS_PER_CHUNK {
                    mover.step(&mut self.cluster);
                }
            }
            tally.node_txns += u64::from(self.cluster.allocated_nodes()) * BATCH as u64;
            tally.txns += BATCH as u64;
        }
        if let Some(clock) = clock {
            spans::begin("sim.latency_record", tally.txns);
            clock.record(tally.txns);
            layers.recording = spans::end();
        }
        spans::add("b2w.read_only", tally.read_only as f64);
        spans::add("b2w.txns", tally.txns as f64);
        (tally, layers)
    }

    /// Executes one batch timing every call, split by whether the
    /// procedure only reads: the pair shows a read/write trade.
    fn execute_each(&mut self, batch: &[B2wTxn], slots: &[u64]) -> u64 {
        let mut failed = 0;
        let (mut ro, mut rw) = (Vec::new(), Vec::new());
        spans::begin("dbms.execute_each", batch.len() as u64);
        for (txn, &slot) in batch.iter().zip(slots) {
            let started = Instant::now();
            failed += u64::from(self.cluster.execute_at_slot(txn, slot).is_err());
            let nanos = started.elapsed().as_nanos() as f64;
            if txn.is_read_only() {
                ro.push(nanos);
            } else {
                rw.push(nanos);
            }
        }
        spans::end();
        spans::sample("dbms.exec_ro", ro);
        spans::sample("dbms.exec_rw", rw);
        failed
    }

    /// One timed slice, bracketed by runs of the calibration probe. A
    /// traced slice also files each layer's time per transaction as one
    /// sample of that layer: a batch is too small to carry the average mix
    /// of procedures, a slice is not. The sample is at reference speed, by
    /// the slice's own two probe runs, so that the layers and the whole they
    /// are subtracted from (`sim.self_ns_per_txn`) are in one unit even when
    /// a slow spell covers one of the two runs and not the other.
    fn slice(
        &mut self,
        mode: Mode,
        mover: Option<&mut Mover>,
        clock: Option<&mut SimClock>,
    ) -> (Slice, Tally) {
        let reconfig = mover.is_some();
        let probe_before = calib::run();
        let started = Instant::now();
        let (tally, layers) = match mode {
            Mode::Plain => (self.run_plain(SLICE_TXNS, mover), LayerNanos::default()),
            Mode::Traced => {
                spans::begin("slice", 1);
                let done = self.run_batched(SLICE_TXNS, mover, clock);
                spans::end();
                done
            }
        };
        let nanos = started.elapsed().as_nanos() as f64;
        let probe_nanos = (probe_before + calib::run()) as f64 / 2.0;
        if mode == Mode::Traced {
            let per_txn = |nanos: u64, txns: u64| {
                (txns > 0)
                    .then(|| calib::at_reference_speed(nanos as f64 / txns as f64, probe_nanos))
            };
            let execute = if reconfig {
                "dbms.execute_reconfig"
            } else {
                "dbms.execute"
            };
            spans::sample("b2w.next_txn", per_txn(layers.generating, tally.txns));
            spans::sample("dbms.route", per_txn(layers.routing, tally.txns));
            spans::sample(execute, per_txn(layers.executing, layers.executed));
            spans::sample("sim.latency_record", per_txn(layers.recording, tally.txns));
        }
        let slice = Slice {
            work: tally.txns as f64,
            nanos,
            reconfig,
            probe_nanos,
        };
        (slice, tally)
    }

    /// A block of settled slices, then a block under back-to-back
    /// reconfigurations, then (untimed) the move in flight run to its end
    /// so the next settled block is settled.
    fn cycle(&mut self, mode: Mode, blocks: [usize; 2], mover: &mut Mover) -> (Vec<Slice>, Tally) {
        let mut slices = Vec::with_capacity(blocks[0] + blocks[1]);
        let mut tally = Tally::default();
        for i in 0..blocks[0] + blocks[1] {
            let (slice, t) = self.slice(mode, (i >= blocks[0]).then_some(&mut *mover), None);
            slices.push(slice);
            tally.absorb(t);
        }
        if self.cluster.reconfiguring() {
            self.cluster
                .run_reconfiguration_to_completion(CHUNK_BYTES)
                .expect("a reconfiguration is running");
            mover.completed += 1;
        }
        (slices, tally)
    }

    /// Allocations per transaction made by the generator and by the engine,
    /// counted apart over a stretch of fixed length.
    pub fn count_layer_allocations(&mut self) {
        const TXNS: usize = 20 * BATCH;
        let (mut generating, mut executing) = (0, 0);
        let mut batch: Vec<B2wTxn> = Vec::with_capacity(BATCH);
        alloc::set_counting(true);
        for _ in 0..TXNS / BATCH {
            batch.clear();
            let before = alloc::allocations();
            batch.extend((0..BATCH).map(|_| self.gen.next_txn()));
            let between = alloc::allocations();
            for txn in &batch {
                let slot = self.cluster.slot_of_routing(&txn.routing_key());
                // Aborts are part of the mix; their cost counts too.
                let _ = self.cluster.execute_at_slot(txn, slot);
            }
            generating += between - before;
            executing += alloc::allocations() - between;
        }
        alloc::set_counting(false);
        spans::add("b2w.allocations", generating as f64);
        spans::add("dbms.allocations", executing as f64);
        spans::add("ledger.counted_txns", TXNS as f64);
    }

    /// Rows, row bytes and a full integrity audit of a settled cluster.
    pub fn audit(&self) -> Result<(usize, usize), String> {
        self.cluster.verify_integrity()?;
        Ok((self.cluster.total_rows(), self.cluster.total_bytes()))
    }
}

/// Drives reconfigurations one chunk at a time, visiting machine pairs
/// round-robin and starting the next move (3→6, 6→3, …) when none runs.
#[derive(Debug, Default)]
struct Mover {
    next_pair: usize,
    completed: u64,
}

impl Mover {
    /// One chunk. The spans record only in a traced run.
    fn step(&mut self, cluster: &mut Cluster) {
        if !cluster.reconfiguring() {
            let target = if cluster.active_nodes() == SMALL {
                LARGE
            } else {
                SMALL
            };
            spans::begin("dbms.begin_reconfig", 1);
            cluster
                .begin_reconfiguration(target)
                .expect("a settled cluster accepts a different size");
            spans::end();
            self.next_pair = 0;
        }
        let pairs = cluster.pair_transfers();
        let pair = (0..pairs.len())
            .map(|i| (self.next_pair + i) % pairs.len())
            .find(|&i| !pairs[i].is_done())
            .expect("a running reconfiguration has an unfinished pair");
        self.next_pair = pair + 1;
        spans::begin("dbms.migrate_chunk", 1);
        let moved = cluster
            .migrate_chunk(pair, CHUNK_BYTES)
            .expect("a reconfiguration is running");
        spans::end();
        spans::add("dbms.migrate_bytes", moved.bytes as f64);
        self.completed += u64::from(moved.reconfig_done);
    }
}

/// Feeds a [`LatencyRecorder`] the way the detailed simulator does: one
/// attributed sample per arrival on a simulated clock, seconds flushed as
/// the clock crosses them.
struct SimClock {
    recorder: LatencyRecorder,
    now: f64,
    gap_s: f64,
}

impl SimClock {
    /// A clock on which `rate` transactions arrive per simulated second.
    fn new(rate: f64) -> Self {
        SimClock {
            recorder: LatencyRecorder::new(),
            now: 0.0,
            gap_s: 1.0 / rate,
        }
    }

    fn record(&mut self, arrivals: u64) {
        for _ in 0..arrivals {
            self.recorder.record_attributed(self.now, 0.002, 0.012, 0.0);
            self.now += self.gap_s;
        }
        self.recorder.advance_to(self.now);
    }
}

/// Times transactions layer by layer on a freshly loaded database for
/// about `budget`: the per-transaction ledger of the simulator workloads,
/// whose own loop cannot be cut open from outside. `rate` is the arrival
/// rate the latency recorder sees. Also counts each layer's allocations.
/// Everything lands in the span recorder.
pub fn ledger(sizing: &Sizing, workload_seed: u64, rate: f64, budget: Duration) -> Db {
    let mut db = Db::load(sizing, workload_seed);
    let mut clock = SimClock::new(rate);
    let started = Instant::now();
    while started.elapsed() < budget {
        db.slice(Mode::Traced, None, Some(&mut clock));
    }
    db.count_layer_allocations();
    db
}

/// Times cycles until `budget` is spent.
pub fn measure(seed: u64, budget: Duration, mode: Mode) -> (Measurement, Db) {
    let mut db = Db::load(&BIG, seed);
    let mut mover = Mover::default();
    let mut slices = Vec::new();
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut cycles = 0u32;
    loop {
        let (s, t) = db.cycle(mode, [BLOCK_SLICES; 2], &mut mover);
        slices.extend(s);
        tally.absorb(t);
        cycles += 1;
        let spent = started.elapsed();
        if spent + spent / cycles / 2 > budget {
            break;
        }
    }
    let mut errors = Vec::new();
    if let Err(e) = db.audit() {
        errors.push(format!("integrity after {cycles} cycles: {e}"));
    }
    if mode == Mode::Traced {
        spans::add("dbms.reconfigs", mover.completed as f64);
    }
    let measurement = Measurement {
        slices,
        setup_s: vec![db.load_s],
        // The exact outcome comes from `fixed_work`, not from a run whose
        // length depends on the host.
        outcome: Outcome {
            attempted: tally.txns,
            failed: tally.failed,
            ok_time: 0,
            total_time: 0,
            avg_machines: tally.node_txns as f64 / tally.txns as f64,
            reconfigurations: mover.completed,
            facts: Vec::new(),
        },
        attempted: tally.txns,
        failed: tally.failed,
        passes: cycles,
        errors,
    };
    (measurement, db)
}

/// The fixed-work pass: one cycle with allocations counted, checked against
/// a twin database that runs the same transactions and never moves a row.
/// Migration beside transactions must lose, duplicate and change nothing:
/// same rows, same bytes, same aborts. Returns the exact outcome, the
/// allocations per transaction and the two extra set-up times.
pub fn fixed_work(seed: u64) -> (Outcome, f64, Vec<f64>, Vec<String>) {
    const BLOCKS: [usize; 2] = [BLOCK_SLICES / 2, BLOCK_SLICES];
    let mut errors = Vec::new();

    let mut still = Db::load(&BIG, seed);
    let twin = still.run_plain((BLOCKS[0] + BLOCKS[1]) * SLICE_TXNS, None);
    let still_state = still.audit();
    let still_load_s = still.load_s;
    drop(still);

    let mut db = Db::load(&BIG, seed);
    let mut mover = Mover::default();
    alloc::set_counting(true);
    let before = alloc::allocations();
    let (_, tally) = db.cycle(Mode::Plain, BLOCKS, &mut mover);
    let allocations = alloc::allocations() - before;
    alloc::set_counting(false);

    let moved_state = db.audit();
    if moved_state.is_err() || moved_state != still_state {
        errors.push(format!(
            "rows/bytes after migrating {moved_state:?} differ from the unmoved twin {still_state:?}"
        ));
    }
    if (tally.txns, tally.failed) != (twin.txns, twin.failed) {
        errors.push(format!(
            "aborts changed under migration: {} of {} vs {} of {}",
            tally.failed, tally.txns, twin.failed, twin.txns
        ));
    }
    let (rows, bytes) = moved_state.unwrap_or_default();
    let outcome = Outcome {
        attempted: tally.txns,
        failed: tally.failed,
        ok_time: 0,
        total_time: 0,
        avg_machines: tally.node_txns as f64 / tally.txns as f64,
        reconfigurations: mover.completed,
        facts: vec![
            ("dbms.rows", rows as f64),
            ("dbms.data_bytes", bytes as f64),
            ("b2w.read_only", tally.read_only as f64),
        ],
    };
    (
        outcome,
        allocations as f64 / tally.txns as f64,
        vec![still_load_s, db.load_s],
        errors,
    )
}
