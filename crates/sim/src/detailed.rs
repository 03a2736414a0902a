//! Discrete-event simulation of the full system: real engine, real B2W
//! transactions, per-partition queueing, chunk-paced live migration, and a
//! provisioning controller in the loop.
//!
//! This is the vehicle for the paper's §8.1–8.2 experiments (Figs 7–11,
//! Table 2). Timing model:
//!
//! * Each partition is a serial FIFO server, a [`PartitionQueue`]; a
//!   transaction's latency is its wait plus its jittered service time. The
//!   default calibration is 6 partitions/node at a mean service of
//!   6/490 s ≈ 12.2 ms (the comment in [`DetailedSimConfig::paper_defaults`]
//!   says why not 6/438), so a node saturates near the paper's 438 txn/s
//!   (Fig 7, `Q̂ = 350`, `Q = 285`).
//! * Live migration streams run one per machine pair, paced so that a
//!   single stream moves data at rate `R = db_bytes / D`. Every chunk
//!   additionally *occupies* the source and destination partitions for a
//!   fraction of its pacing interval — that contention is what makes
//!   reconfiguration under peak load hurt tail latency (Fig 8, Fig 9c) and
//!   emergency `R x 8` migration overload partitions (Fig 11).
//! * Machine-pair streams follow the §4.4.1 round schedule
//!   ([`MigrationSchedule`]), so machines are allocated just-in-time and
//!   the cost accounting matches Algorithm 4.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::expect_used,
    reason = "the event loop quantises time and load into slots and bytes, and panics on broken setup by design"
)]
use crate::control::{ControlLoop, MoveLedger};
use crate::latency::{
    average_machines, count_sla_violations, LatencyRecorder, SecondMetrics, SlaViolations,
    SLA_THRESHOLD_S,
};
use pstore_b2w::generator::{WorkloadConfig, WorkloadGenerator};
use pstore_b2w::schema::b2w_catalog;
use pstore_core::controller::{ReconfigRequest, Strategy};
use pstore_core::params::SystemParams;
use pstore_core::schedule::{MigrationSchedule, Transfer};
use pstore_dbms::cluster::{Cluster, ClusterConfig};
use pstore_dbms::txn::Procedure;
use pstore_telemetry as tel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of a detailed simulation run.
#[derive(Debug, Clone)]
pub struct DetailedSimConfig {
    /// System parameters (`Q`, `Q̂`, `D`, `P`, hardware cap).
    pub params: SystemParams,
    /// Offered load per wall-clock second (txn/s). The run lasts
    /// `load.len()` seconds. A +∞ second is refused; NaN and negative
    /// seconds get no arrivals.
    pub load: Vec<f64>,
    /// RNG seed for arrivals and service jitter.
    pub seed: u64,
    /// Benchmark workload tuning.
    pub workload: WorkloadConfig,
    /// Virtual slot count for the engine.
    pub num_slots: usize,
    /// Controller monitoring cadence in seconds.
    pub monitor_interval_s: f64,
    /// Mean transaction service time per partition (seconds).
    pub service_mean_s: f64,
    /// Uniform jitter applied to service times (0.3 = +-30%).
    pub service_jitter: f64,
    /// Pacing interval of one migration chunk at the non-disruptive rate
    /// (seconds). The paper's 1000 kB chunks at `R ≈ 244 kB/s` pace at
    /// ~4.1 s.
    pub chunk_pacing_s: f64,
    /// Fraction of each involved partition that one migration stream
    /// occupies while transferring at the non-disruptive rate (`R x 1`).
    /// Emergency moves at `R x m` occupy `m` times as much.
    pub migration_cpu_fraction: f64,
    /// Client timeout: an arrival that would wait longer than this in a
    /// partition queue is dropped and observed by the client at this
    /// latency. Models the benchmark driver's bounded outstanding work —
    /// without it an overloaded open-loop system accumulates unbounded
    /// backlog that takes hours to drain, which real drivers never see.
    pub max_queue_delay_s: f64,
    /// Untimed warm-up transactions executed before the clock starts, so
    /// the database reaches its steady-state size (the paper's §4.2
    /// assumes a stable database; a growing one stretches early moves
    /// because the migration rate is calibrated to `D` at start size).
    pub warmup_txns: usize,
}

impl DetailedSimConfig {
    /// The paper's calibration (§8.1) around a given load curve.
    pub fn paper_defaults(load: Vec<f64>, seed: u64) -> Self {
        DetailedSimConfig {
            params: SystemParams::b2w_paper(),
            load,
            seed,
            workload: WorkloadConfig {
                num_skus: 5_000,
                initial_carts: 1_500,
                ..WorkloadConfig::default()
            },
            num_slots: 7_200,
            monitor_interval_s: 30.0,
            // Slightly faster than 6/438 so that after residual partition
            // skew the *measured* saturation (Fig 7) lands at the paper's
            // 438 txn/s per node.
            service_mean_s: 6.0 / 490.0,
            service_jitter: 0.3,
            chunk_pacing_s: 4.1,
            migration_cpu_fraction: 0.05,
            max_queue_delay_s: 2.0,
            warmup_txns: 150_000,
        }
    }
}

/// Result of a detailed simulation run.
#[derive(Debug, Clone)]
pub struct DetailedSimResult {
    /// Name of the controller that produced the run.
    pub strategy: String,
    /// Per-second metrics.
    pub seconds: Vec<SecondMetrics>,
    /// SLA violations per percentile (Table 2).
    pub violations: SlaViolations,
    /// Average machines allocated (Table 2).
    pub avg_machines: f64,
    /// `(start, end)` times of each reconfiguration.
    pub reconfig_spans: Vec<(f64, f64)>,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (business aborts).
    pub aborted: u64,
    /// Arrivals dropped by the client timeout.
    pub dropped: u64,
    /// Per-procedure `(name, committed, aborted)` counts, most-called
    /// first — the realised workload mix (cf. Table 4).
    pub procedure_mix: Vec<(String, u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Per-second bookkeeping: generate next second's arrivals.
    Second(u64),
    /// Controller monitoring tick.
    Monitor,
    /// A chunk of the (from, to) migration stream.
    Chunk { from: u32, to: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Timed {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The pending non-arrival events, earliest first; ties pop in push order.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Timed>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, time: f64, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse(Timed {
            time,
            seq: self.seq,
            event,
        }));
    }
}

/// One partition's serial FIFO executor and its migration-stall state.
///
/// An arrival at `at` waits until `busy_until`, then holds the partition
/// for its service time. A migration chunk's burst occupies the partition
/// the same way, from `max(busy_until, now)`; it adds to `backlog`, and
/// `frontier` is `busy_until` right after the last burst. Of an arrival's
/// wait, at most `backlog` and at most the time left to `frontier` is
/// migration stall; the rest is queueing. An arrival at or after the
/// frontier resets the backlog: the bursts have drained, so later waits are
/// pure queueing.
#[derive(Clone, Default)]
struct PartitionQueue {
    busy_until: f64,
    backlog: f64,
    frontier: f64,
}

impl PartitionQueue {
    /// An arrival at `at`: its wait, and the cap on the wait's stall share.
    fn wait(&mut self, at: f64) -> (f64, f64) {
        if at >= self.frontier {
            self.backlog = 0.0;
        }
        let wait = (self.busy_until - at).max(0.0);
        (wait, self.backlog.min((self.frontier - at).max(0.0)))
    }

    /// Serves an arrival at `at` for `service`; returns its end time.
    fn serve(&mut self, at: f64, service: f64) -> f64 {
        self.busy_until = self.busy_until.max(at) + service;
        self.busy_until
    }

    /// A migration burst of `burst` seconds at `at`.
    fn burst(&mut self, at: f64, burst: f64) {
        self.busy_until = self.busy_until.max(at) + burst;
        self.backlog += burst;
        self.frontier = self.busy_until;
    }
}

struct ActiveMigration {
    schedule: MigrationSchedule,
    current_round: usize,
    /// (from, to) -> engine pair index.
    pair_index: HashMap<(u32, u32), usize>,
    /// Streams of the current round still pacing.
    active_streams: usize,
    rate_multiplier: f64,
    /// Byte rate of one stream at multiplier 1 (`db_bytes / D`).
    stream_rate: f64,
    /// Start time, endpoints, requesting decision and running move totals.
    ledger: MoveLedger,
}

/// Runs a detailed simulation under the given provisioning strategy.
pub fn run_detailed(cfg: &DetailedSimConfig, strategy: &mut dyn Strategy) -> DetailedSimResult {
    cfg.params.validate();
    assert!(cfg.monitor_interval_s > 0.0, "monitor interval must be > 0");
    // A second's load is its Poisson rate: +∞ would ask for unboundedly many
    // arrivals. NaN and negative loads mean no arrivals.
    if let Some(s) = cfg
        .load
        .iter()
        .position(|l| l.is_infinite() && l.is_sign_positive())
    {
        panic!("load of second {s} is +inf: a second's arrivals must be finite");
    }
    // Root span for the whole run; the sim clock starts at 0 so setup
    // and warm-up events are stamped (at t=0, they take no sim time).
    let run_span = if tel::enabled() {
        tel::set_time(0.0);
        tel::begin_span(tel::SpanName::DetailedSim)
    } else {
        0
    };
    let mut sim = Sim::new(cfg, strategy);
    sim.run();
    let result = sim.finish();
    tel::end_span(tel::SpanName::DetailedSim, run_span);
    result
}

/// The state of one detailed run, with one method per kind of event.
struct Sim<'a> {
    cfg: &'a DetailedSimConfig,
    strategy: &'a mut dyn Strategy,
    control: ControlLoop,
    cluster: Cluster,
    gen: WorkloadGenerator,
    rng: StdRng,
    /// Every partition's queue, indexed `node * P + local`.
    queues: Vec<PartitionQueue>,
    recorder: LatencyRecorder,
    queue: EventQueue,
    /// The current second's arrival times, sorted ascending, drained by
    /// cursor. Arrivals vastly outnumber every other event, so keeping them
    /// out of the heap turns n pushes and n pops of `O(log heap)` each into
    /// one sort of an already-allocated buffer per second. The sort need
    /// not be stable: times `total_cmp` calls equal have identical bits,
    /// so no order among them can show.
    arrivals: Vec<f64>,
    next_arrival: usize,
    /// Arrival ordinal, doubling as the sampled per-txn trace id.
    arrival_seq: u64,
    /// The trace's per-transaction sampling period (0 = none).
    sample_every: u64,
    arrivals_in_window: u64,
    migration: Option<ActiveMigration>,
    reconfig_spans: Vec<(f64, f64)>,
    committed: u64,
    aborted: u64,
    dropped: u64,
}

impl<'a> Sim<'a> {
    /// Boots and warms the cluster and schedules the first events.
    fn new(cfg: &'a DetailedSimConfig, strategy: &'a mut dyn Strategy) -> Self {
        let p = cfg.params.partitions_per_node;
        let (control, initial) =
            ControlLoop::start(&cfg.params, cfg.monitor_interval_s, strategy, true);
        let mut cluster = Cluster::new(
            b2w_catalog(),
            ClusterConfig {
                partitions_per_node: p,
                num_slots: cfg.num_slots,
            },
            initial,
        );
        // Key-level version tracking rides the sampling switch: default
        // traces keep the engine version-free (and stay byte-stable);
        // sampled runs get per-key version histories so the ISO-01..03
        // serializability checkers have real WR/WW/RW evidence to work with.
        let sample_every = if tel::enabled() {
            tel::spec().txn_sample_every
        } else {
            0
        };
        if sample_every > 0 {
            cluster.set_track_versions(true);
        }
        let mut gen = WorkloadGenerator::new(cfg.workload.clone());
        warm_up(&mut cluster, &mut gen, cfg.warmup_txns);
        let mut recorder = LatencyRecorder::new();
        recorder.set_machines(cluster.active_nodes() as f64);
        let mut queue = EventQueue::default();
        queue.push(0.0, Event::Second(0));
        queue.push(0.0, Event::Monitor);
        Sim {
            cfg,
            strategy,
            control,
            cluster,
            gen,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xD15C),
            queues: vec![PartitionQueue::default(); cfg.params.max_machines as usize * p as usize],
            recorder,
            queue,
            arrivals: Vec::new(),
            next_arrival: 0,
            arrival_seq: 0,
            sample_every,
            arrivals_in_window: 0,
            migration: None,
            reconfig_spans: Vec::new(),
            committed: 0,
            aborted: 0,
            dropped: 0,
        }
    }

    fn horizon(&self) -> f64 {
        self.cfg.load.len() as f64
    }

    /// The event loop: runs until the load curve is exhausted.
    fn run(&mut self) {
        loop {
            // Arrivals due before the next scheduled event run first; ties go
            // to the heap event (arrival times are strictly inside a second,
            // so they can never tie with the integer-timed Second events that
            // bound their window).
            if let Some(&at) = self.arrivals.get(self.next_arrival) {
                if self.queue.heap.peek().is_none_or(|r| at < r.0.time) {
                    self.arrival(at);
                    continue;
                }
            }
            let Some(Reverse(Timed { time, event, .. })) = self.queue.heap.pop() else {
                break;
            };
            if time >= self.horizon() && self.queue.heap.is_empty() {
                break;
            }
            // Stamp telemetry events with simulation time rather than wall time.
            if tel::enabled() {
                tel::set_time(time);
            }
            match event {
                Event::Second(s) => self.second(time, s),
                Event::Monitor => self.monitor(time),
                Event::Chunk { from, to } => self.chunk(time, from, to),
            }
        }
    }

    /// One client request arriving at `at`: queue, execute, record.
    fn arrival(&mut self, at: f64) {
        let cfg = self.cfg;
        self.next_arrival += 1;
        self.arrivals_in_window += 1;
        self.arrival_seq += 1;
        let id = self.arrival_seq;
        let txn = self.gen.next_txn();
        // Resolve the routing slot once; execution reuses it instead of
        // re-hashing the routing key.
        let slot = self.cluster.slot_of_routing(&txn.routing_key());
        let (node, local) = self.cluster.partition_of_slot(slot);
        let q = node as usize * cfg.params.partitions_per_node as usize + local as usize;
        let (wait, stall_cap) = self.queues[q].wait(at);
        let sampled = self.sample_every > 0 && id.is_multiple_of(self.sample_every);
        // A sampled transaction's lifecycle events are all stamped at its
        // arrival (end times travel as fields).
        if sampled {
            tel::set_time(at);
            tel::emit(tel::TxnArrive { id, slot });
        }
        // Client timeout: a request that would wait longer is shed, observed
        // at the timeout latency, and never executes.
        let shed = wait > cfg.max_queue_delay_s;
        let waited = wait.min(cfg.max_queue_delay_s);
        let stall = waited.min(stall_cap);
        let queue = waited - stall;
        let (exec, end, abort) = if shed {
            self.dropped += 1;
            let exec = cfg.service_mean_s;
            (exec, at + queue + exec + stall, Some("timeout"))
        } else {
            // Sampled transactions carry a trace tag: the engine then emits
            // their `txn_rwset` (and `txn_restart`) itself.
            let trace_id = sampled.then_some(id);
            let ok = self.cluster.execute_traced(&txn, slot, trace_id).is_ok();
            if ok {
                self.committed += 1;
            } else {
                self.aborted += 1;
            }
            let service = cfg.service_mean_s
                * (1.0
                    + self
                        .rng
                        .random_range(-cfg.service_jitter..cfg.service_jitter));
            let end = self.queues[q].serve(at, service);
            (service, end, (!ok).then_some("business"))
        };
        self.recorder.record_attributed(at, queue, exec, stall);
        if sampled {
            tel::emit(tel::TxnQueue {
                id,
                wait: queue + stall,
                stall,
            });
            if stall > 0.0 {
                tel::emit(tel::TxnStall { id, stall });
            }
            if !shed {
                tel::emit(tel::TxnExecute { id, service: exec });
            }
            let total = queue + exec + stall;
            match abort {
                None => tel::emit(tel::TxnCommit {
                    id,
                    total,
                    queue,
                    exec,
                    stall,
                    end,
                }),
                Some(reason) => tel::emit(tel::TxnAbort {
                    id,
                    total,
                    queue,
                    exec,
                    stall,
                    end,
                    reason: Some(reason.into()),
                }),
            }
        }
    }

    /// Second boundary `s` at `time`: generates that second's arrivals.
    fn second(&mut self, time: f64, s: u64) {
        self.recorder.advance_to(time);
        if (s as f64) < self.horizon() {
            // Generate this second's Poisson arrivals into the reused
            // buffer (the previous second's are always fully drained: they
            // are strictly earlier than this event).
            debug_assert_eq!(self.next_arrival, self.arrivals.len());
            let lambda = self.cfg.load[s as usize].max(0.0);
            let n = sample_poisson(&mut self.rng, lambda);
            self.arrivals.clear();
            self.next_arrival = 0;
            for _ in 0..n {
                self.arrivals.push(time + self.rng.random_range(0.0..1.0));
            }
            self.arrivals.sort_unstable_by(f64::total_cmp);
            self.queue.push(time + 1.0, Event::Second(s + 1));
        }
    }

    /// Controller monitoring tick at `time`.
    fn monitor(&mut self, time: f64) {
        self.recorder.advance_to(time);
        let window = self.cfg.monitor_interval_s;
        let measured = self.arrivals_in_window as f64 / window;
        self.arrivals_in_window = 0;
        // Each monitor tick also samples the §8.1 uniformity figures
        // (Table 2's companion analysis): access and data skew land in the
        // metrics registry as gauges and in the trace as `skew_sample`
        // events.
        record_skew_sample(&self.cluster);
        let request = self.control.step(
            &mut *self.strategy,
            measured,
            self.cluster.active_nodes(),
            self.migration.is_some(),
        );
        if let Some(req) = request {
            self.start_migration(&req, time);
        }
        if time + window < self.horizon() {
            self.queue.push(time + window, Event::Monitor);
        }
    }

    /// Initialises engine + schedule state for the reconfiguration `req`
    /// and schedules the first round's chunk events.
    fn start_migration(&mut self, req: &ReconfigRequest, now: f64) {
        let before = self.cluster.active_nodes();
        let db_bytes = self.cluster.total_bytes() as f64;
        self.cluster
            .begin_reconfiguration(req.target)
            .expect("reconfiguration accepted");
        let pair_index: HashMap<(u32, u32), usize> = self
            .cluster
            .pair_transfers()
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.from, p.to), i))
            .collect();
        let params = &self.cfg.params;
        let mut m = ActiveMigration {
            schedule: MigrationSchedule::plan(before, req.target),
            // Start round 0 (skipping over rounds whose pairs have no
            // slots): `advance_round` steps before it looks.
            current_round: usize::MAX,
            pair_index,
            active_streams: 0,
            rate_multiplier: req.rate_multiplier.max(0.1),
            // A machine-pair stream is P parallel partition streams, each at
            // the single-thread rate db / D (Equation 3's accounting).
            stream_rate: params.partitions_per_node as f64 * db_bytes / params.d.as_secs_f64(),
            ledger: MoveLedger::open(req, before, now),
        };
        advance_round(&mut m, &self.cluster, now, &mut self.queue);
        self.recorder.set_reconfiguring(true);
        self.recorder
            .set_machines(m.schedule.machines_in_round(0) as f64);
        self.migration = Some(m);
    }

    /// One chunk of the `(from, to)` migration stream at `time`.
    fn chunk(&mut self, time: f64, from: u32, to: u32) {
        let cfg = self.cfg;
        let Some(m) = self.migration.as_mut() else {
            return;
        };
        // A chunk is a byte budget; it may span several (possibly empty)
        // slots of this pair's stream. Pacing and occupancy are
        // proportional to the bytes actually carried, so the whole move
        // takes T(B, A) regardless of slot sizes.
        let chunk_bytes = (m.stream_rate * cfg.chunk_pacing_s).max(1.0) as usize;
        let mut moved = 0usize;
        let mut moved_rows = 0usize;
        let mut pair_done;
        let mut reconfig_done = false;
        if let Some(&pair_idx) = m.pair_index.get(&(from, to)) {
            let mut remaining = chunk_bytes;
            loop {
                let result = self
                    .cluster
                    .migrate_chunk(pair_idx, remaining.max(1))
                    .expect("migration running");
                moved += result.bytes;
                moved_rows += result.rows;
                reconfig_done = result.reconfig_done;
                pair_done = result.pair_done;
                if pair_done || reconfig_done {
                    break;
                }
                if result.bytes >= remaining || !result.slot_completed {
                    break; // budget consumed mid-slot
                }
                remaining -= result.bytes;
            }
        } else {
            // The engine had no slots for this schedule pair.
            pair_done = true;
        }
        if moved > 0 {
            m.ledger.chunks += 1;
            m.ledger.rows += moved_rows as u64;
            m.ledger.bytes += moved as u64;
            if tel::prov_enabled() {
                tel::emit(tel::ProvChunk {
                    id: m.ledger.decision_id,
                    from: from.into(),
                    to: to.into(),
                    bytes: tel::count(moved),
                });
            }
        }

        // Partition occupancy on both sides: a machine-pair transfer runs P
        // parallel partition streams, so every partition of both endpoints
        // carries the per-stream overhead, proportional to the data carried.
        let fill = (moved as f64 / chunk_bytes as f64).min(1.0);
        let burst = cfg.migration_cpu_fraction * cfg.chunk_pacing_s * fill;
        if burst > 0.0 {
            let p = cfg.params.partitions_per_node as usize;
            for node in [from, to] {
                let first = node as usize * p;
                for queue in &mut self.queues[first..first + p] {
                    queue.burst(time, burst);
                }
            }
        }

        if reconfig_done {
            self.reconfig_spans.push((m.ledger.started_at, time));
            m.ledger.emit_prov_reconfig(time);
            self.migration = None;
            self.recorder.set_reconfiguring(false);
            self.recorder
                .set_machines(self.cluster.active_nodes() as f64);
        } else if pair_done {
            m.active_streams -= 1;
            if m.active_streams == 0 {
                // Advance to the next round with live pairs.
                advance_round(m, &self.cluster, time, &mut self.queue);
                self.recorder.set_machines(
                    m.schedule.machines_in_round(
                        m.current_round
                            .min(m.schedule.total_rounds().saturating_sub(1)),
                    ) as f64,
                );
            }
        } else {
            // Pace the next chunk proportionally to what was moved.
            let frac = fill.max(0.05);
            let next = time + cfg.chunk_pacing_s * frac / m.rate_multiplier;
            self.queue.push(next, Event::Chunk { from, to });
        }
    }

    /// Closes the run and assembles its result.
    fn finish(mut self) -> DetailedSimResult {
        // A migration still in flight when the run ends would leave the
        // engine's reconfig span dangling (TEL-01) and the caller's root
        // close out of LIFO order (TEL-02); close it explicitly, marked
        // truncated.
        if self.migration.is_some() {
            self.cluster.end_truncated_reconfig_span();
        }
        // Flush the recorder's trailing seconds before the root span
        // closes, so their `second` events land inside the run and trace
        // analyses (`slo::analyze`) attribute them to it rather than to
        // a phantom between-runs segment.
        let seconds = self.recorder.finish();
        let violations = count_sla_violations(&seconds, SLA_THRESHOLD_S);
        let avg_machines = average_machines(&seconds);
        let procedure_mix = self
            .cluster
            .procedure_report()
            .into_iter()
            .map(|(name, c, a)| (name.to_string(), c, a))
            .collect();
        DetailedSimResult {
            strategy: self.strategy.name().to_string(),
            seconds,
            violations,
            avg_machines,
            reconfig_spans: self.reconfig_spans,
            committed: self.committed,
            aborted: self.aborted,
            dropped: self.dropped,
            procedure_mix,
        }
    }
}

/// Loads the initial database, then runs the generator untimed until
/// carts/checkouts/stock-txn populations reach steady state so the
/// database size is stable.
fn warm_up(cluster: &mut Cluster, gen: &mut WorkloadGenerator, warmup_txns: usize) {
    let warmup_span = if tel::enabled() {
        tel::begin_span(tel::SpanName::Warmup)
    } else {
        0
    };
    for proc in gen.seed_stock_procedures() {
        assert!(cluster.execute(&proc).is_ok(), "stock seeding failed");
    }
    for txn in gen.initial_load() {
        assert!(cluster.execute(&txn).is_ok(), "initial cart load failed");
    }
    for _ in 0..warmup_txns {
        let _ = cluster.execute(&gen.next_txn());
    }
    tel::end_span(tel::SpanName::Warmup, warmup_span);
}

/// Records access- and data-skew summaries over the cluster's partitions
/// into the telemetry registry (gauges under `skew.access.*` /
/// `skew.data.*`) and emits one `skew_sample` event per quantity.
fn record_skew_sample(cluster: &Cluster) {
    use pstore_dbms::stats::SkewSummary;
    if !tel::enabled() {
        return;
    }
    let report = cluster.partition_report();
    #[allow(
        clippy::cast_precision_loss,
        reason = "access/byte counts are far below 2^53"
    )]
    let access: Vec<f64> = report.iter().map(|r| r.2 as f64).collect();
    #[allow(
        clippy::cast_precision_loss,
        reason = "access/byte counts are far below 2^53"
    )]
    let data: Vec<f64> = report.iter().map(|r| r.3 as f64).collect();
    for (prefix, values) in [("skew.access", &access), ("skew.data", &data)] {
        let Some(summary) = SkewSummary::from_values(values) else {
            continue;
        };
        tel::with_registry(|reg| {
            for (name, value) in summary.gauge_entries(prefix) {
                reg.set_gauge(&name, value);
            }
        });
        tel::emit(tel::SkewSample {
            metric: prefix.into(),
            partitions: tel::count(summary.partitions),
            max_over_mean: summary.max_over_mean,
            stddev_over_mean: summary.stddev_over_mean,
        });
    }
}

/// Starts the next round that has at least one live pair. Returns with
/// `active_streams > 0` unless every remaining round is empty (in which
/// case the engine must already have committed — the caller's next chunk
/// event resolves it).
fn advance_round(m: &mut ActiveMigration, cluster: &Cluster, now: f64, queue: &mut EventQueue) {
    loop {
        m.current_round = m.current_round.wrapping_add(1);
        let Some(round) = m.schedule.rounds().get(m.current_round) else {
            return;
        };
        let mut started = 0usize;
        for &Transfer { from, to } in &round.transfers {
            let live = m
                .pair_index
                .get(&(from, to))
                .map(|&i| !cluster.pair_transfers()[i].is_done())
                .unwrap_or(false);
            if live {
                started += 1;
                queue.push(now, Event::Chunk { from, to });
            }
        }
        if started > 0 {
            m.active_streams = started;
            return;
        }
    }
}

/// Poisson sample: exact (Knuth) for small rates, normal approximation for
/// large ones.
fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut prod = 1.0;
        loop {
            prod *= rng.random_range(0.0..1.0f64);
            if prod <= l {
                return k;
            }
            k += 1;
            if k > 1000 {
                return k; // numerical guard
            }
        }
    }
    // Box-Muller normal approximation.
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (lambda + lambda.sqrt() * z).round().max(0.0) as u64
}

/// Averages a per-second load curve into controller-interval buckets
/// (useful for building oracle forecasters aligned with monitor ticks).
pub fn per_interval_load(load_per_s: &[f64], interval_s: f64) -> Vec<f64> {
    assert!(interval_s >= 1.0, "interval must be at least one second");
    let step = interval_s as usize;
    load_per_s
        .chunks(step)
        .map(|w| w.iter().sum::<f64>() / w.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact rational arithmetic")]
    use super::*;
    use pstore_core::controller::baselines::StaticController;
    use pstore_core::controller::forecaster::OracleForecaster;
    use pstore_core::controller::pstore::{PStoreConfig, PStoreController};
    use pstore_core::controller::reactive::{ReactiveConfig, ReactiveController};
    use pstore_core::controller::{Action, Observation};
    use pstore_core::planner::{Planner, PlannerConfig};
    use std::time::Duration;

    /// A small, fast test setup: tiny database, short run.
    fn test_cfg(load: Vec<f64>, seed: u64) -> DetailedSimConfig {
        DetailedSimConfig {
            params: SystemParams {
                q: 285.0,
                q_hat: 350.0,
                d: Duration::from_secs(300),
                partitions_per_node: 6,
                interval: Duration::from_secs(30),
                max_machines: 10,
            },
            workload: WorkloadConfig {
                num_skus: 4_000,
                initial_carts: 800,
                ..WorkloadConfig::default()
            },
            num_slots: 360,
            chunk_pacing_s: 2.0,
            warmup_txns: 20_000,
            ..DetailedSimConfig::paper_defaults(load, seed)
        }
    }

    /// One queue under Poisson arrivals and the simulator's jittered
    /// service against M/G/1's Pollaczek–Khinchine mean wait. Service is
    /// `m·(1 + U(−j, j))`, so `E[S²] = m²(1 + j²/3)` and
    /// `Wq = ρ·m·(1 + j²/3) / (2(1 − ρ))`. The bound is the run's own: 4
    /// standard errors of 20 batch means of 100 000 arrivals each.
    #[test]
    fn a_partition_queue_waits_as_pollaczek_khinchine_says() {
        const BATCHES: usize = 20;
        const PER_BATCH: usize = 100_000;
        let (m, j) = (6.0 / 490.0, 0.3);
        for (seed, rho) in [(1, 0.3), (2, 0.7), (3, 0.9)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = PartitionQueue::default();
            let mut at = 0.0;
            let batches: Vec<f64> = (0..BATCHES)
                .map(|_| {
                    let mut waited = 0.0;
                    for _ in 0..PER_BATCH {
                        at -= (1.0 - rng.random_range(0.0..1.0f64)).ln() * m / rho;
                        waited += queue.wait(at).0;
                        queue.serve(at, m * (1.0 + rng.random_range(-j..j)));
                    }
                    waited / PER_BATCH as f64
                })
                .collect();
            let mean = batches.iter().sum::<f64>() / BATCHES as f64;
            let var =
                batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
            let se = (var / BATCHES as f64).sqrt();
            let pk = rho * m * (1.0 + j * j / 3.0) / (2.0 * (1.0 - rho));
            assert!(
                (mean - pk).abs() <= 4.0 * se,
                "rho {rho}: mean wait {mean} against PK {pk} (ratio {:.3}, z {:.2})",
                mean / pk,
                (mean - pk) / se
            );
        }
    }

    /// The stall rule, step by step: a burst on an idle queue, an arrival
    /// inside its frontier (all of its wait is stall), one after it (none
    /// is, and the backlog resets), then a burst behind queued work.
    #[test]
    fn a_burst_is_stall_until_its_frontier_passes() {
        let mut queue = PartitionQueue::default();
        queue.burst(1.0, 0.5);
        assert_eq!(
            (queue.busy_until, queue.backlog, queue.frontier),
            (1.5, 0.5, 1.5)
        );
        assert_eq!(queue.wait(1.25), (0.25, 0.25));
        assert_eq!(queue.serve(1.25, 0.5), 2.0);
        assert_eq!(queue.wait(1.75), (0.25, 0.0));
        assert_eq!(queue.backlog, 0.0);
        queue.burst(1.75, 0.25);
        assert_eq!(
            (queue.busy_until, queue.backlog, queue.frontier),
            (2.25, 0.25, 2.25)
        );
        // 0.375 s of wait, of which only the new burst's 0.25 s is stall.
        assert_eq!(queue.wait(1.875), (0.375, 0.25));
    }

    #[test]
    #[should_panic(expected = "load of second 1 is +inf")]
    fn an_infinite_load_second_is_refused() {
        let cfg = test_cfg(vec![400.0, f64::INFINITY], 1);
        run_detailed(&cfg, &mut StaticController::new(4));
    }

    #[test]
    fn static_cluster_handles_moderate_load_with_low_latency() {
        let cfg = test_cfg(vec![400.0; 120], 1);
        let mut strat = StaticController::new(4);
        let r = run_detailed(&cfg, &mut strat);
        assert!(r.seconds.len() >= 120);
        assert!(r.committed > 30_000, "committed {}", r.committed);
        assert_eq!(r.violations.p99, 0, "violations: {:?}", r.violations);
        assert_eq!(r.avg_machines, 4.0);
        assert!(r.reconfig_spans.is_empty());
    }

    #[test]
    fn overloaded_node_violates_sla() {
        // 600 txn/s on one node (saturation ~438): queues must blow up.
        let cfg = test_cfg(vec![600.0; 90], 2);
        let mut strat = StaticController::new(1);
        let r = run_detailed(&cfg, &mut strat);
        assert!(
            r.violations.p99 > 20,
            "expected saturation violations, got {:?}",
            r.violations
        );
    }

    #[test]
    fn saturation_point_matches_calibration() {
        // Ramp load on a single node; find where p99 departs: should be in
        // the neighbourhood of 438 txn/s (Fig 7).
        let load: Vec<f64> = (0..200).map(|s| 100.0 + 3.0 * s as f64).collect();
        let cfg = test_cfg(load.clone(), 3);
        let mut strat = StaticController::new(1);
        let r = run_detailed(&cfg, &mut strat);
        // Find the first second where p99 exceeds 500 ms persistently.
        let mut first_bad = None;
        for w in r.seconds.windows(5) {
            if w.iter().all(|s| s.p99 > SLA_THRESHOLD_S) {
                first_bad = Some(w[0].second);
                break;
            }
        }
        let sec = first_bad.expect("ramp should eventually saturate") as f64;
        let rate_at_break = 100.0 + 3.0 * sec;
        assert!(
            (380.0..520.0).contains(&rate_at_break),
            "saturation at {rate_at_break} txn/s"
        );
    }

    #[test]
    fn reactive_controller_scales_out_under_load() {
        // Ramp from 250 to 800 txn/s over two minutes, then hold. The
        // reactive policy only acts once load crosses 0.9 * Q̂ * machines,
        // i.e. while the cluster is already under pressure.
        let mut load: Vec<f64> = (0..120).map(|s| 250.0 + 550.0 * s as f64 / 120.0).collect();
        load.extend(vec![800.0; 240]);
        let cfg = test_cfg(load, 4);
        let mut strat = ReactiveController::new(ReactiveConfig {
            q: 285.0,
            q_hat: 350.0,
            trigger_fraction: 0.9,
            headroom: 0.2,
            smoothing_window: 2,
            scale_in_patience: 10,
            max_machines: 10,
            initial_machines: 2,
        });
        let r = run_detailed(&cfg, &mut strat);
        assert!(
            !r.reconfig_spans.is_empty(),
            "reactive controller never reconfigured"
        );
        // It must not have acted before the load approached the trigger
        // (that is the defining weakness of reactive provisioning).
        assert!(r.reconfig_spans[0].0 >= 60.0, "acted too early");
        let final_machines = r.seconds.last().unwrap().machines;
        assert!(final_machines >= 3.0, "ended at {final_machines} machines");
        // After scale-out completes, the tail of the run should be clean.
        let tail = &r.seconds[r.seconds.len() - 60..];
        let tail_bad = tail.iter().filter(|s| s.p99 > SLA_THRESHOLD_S).count();
        assert!(tail_bad < 10, "tail still violating: {tail_bad}");
    }

    #[test]
    fn pstore_with_oracle_scales_before_the_rise() {
        let mut load = vec![250.0; 120];
        load.extend(vec![800.0; 180]);
        let cfg = test_cfg(load.clone(), 5);
        let per_interval = per_interval_load(&cfg.load, cfg.monitor_interval_s);
        let planner = Planner::new(PlannerConfig {
            q: 285.0,
            d_intervals: 300.0 / 30.0,
            partitions_per_node: 6,
            max_machines: 10,
        });
        let mut strat = PStoreController::new(
            planner,
            OracleForecaster::new(per_interval),
            PStoreConfig {
                horizon: 10,
                prediction_inflation: 1.0,
                scale_in_confirmations: 3,
                emergency_rate_multiplier: 1.0,
                initial_machines: 1,
            },
        );
        let r = run_detailed(&cfg, &mut strat);
        assert!(!r.reconfig_spans.is_empty(), "P-Store never reconfigured");
        // The first reconfiguration must start before the load rise at
        // t = 120 s.
        let (start, _) = r.reconfig_spans[0];
        assert!(start < 120.0, "reconfigured too late: {start}");
        // Violations should be few (prediction leaves headroom).
        assert!(
            r.violations.p99 < 15,
            "too many violations: {:?}",
            r.violations
        );
    }

    #[test]
    fn migration_at_accelerated_rate_hurts_latency_more() {
        // Run the same forced mid-load reconfiguration at rate 1 and rate 8
        // and compare p99 violations during the move (Fig 11's trade-off:
        // higher rate = worse transient latency, faster completion).
        struct ForcedMove {
            at_tick: usize,
            target: u32,
            rate: f64,
            issued: bool,
        }
        impl Strategy for ForcedMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.issued && obs.interval >= self.at_tick && !obs.reconfiguring {
                    self.issued = true;
                    return Action::Reconfigure(ReconfigRequest::emergency(
                        self.target,
                        self.rate,
                        0,
                    ));
                }
                Action::None
            }
            fn name(&self) -> &str {
                "forced"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }

        let load = vec![650.0; 240]; // near Q̂ for 2 nodes
        let run = |rate: f64, seed: u64| {
            let cfg = test_cfg(load.clone(), seed);
            let mut strat = ForcedMove {
                at_tick: 1,
                target: 4,
                rate,
                issued: false,
            };
            run_detailed(&cfg, &mut strat)
        };
        let slow = run(1.0, 10);
        let fast = run(8.0, 10);
        // The accelerated move must complete sooner.
        let slow_dur = slow.reconfig_spans[0].1 - slow.reconfig_spans[0].0;
        let fast_dur = fast.reconfig_spans[0].1 - fast.reconfig_spans[0].0;
        assert!(
            fast_dur < slow_dur * 0.5,
            "fast {fast_dur} vs slow {slow_dur}"
        );
        // And the transient latency hit during the fast move is larger
        // (Fig 11: migration at 8R overloads the partitions it touches).
        let move_peak = |r: &DetailedSimResult| {
            let (s, e) = r.reconfig_spans[0];
            r.seconds
                .iter()
                .filter(|x| (x.second as f64) >= s && (x.second as f64) <= e + 5.0)
                .map(|x| x.p99)
                .fold(0.0f64, f64::max)
        };
        assert!(
            move_peak(&fast) > move_peak(&slow),
            "fast move peak {} vs slow move peak {}",
            move_peak(&fast),
            move_peak(&slow)
        );
    }

    #[test]
    fn attribution_identity_holds_every_second() {
        // queue + exec + stall must equal the recorded total latency — the
        // TEL-06 identity, at per-second aggregate granularity.
        let cfg = test_cfg(vec![400.0; 90], 11);
        let r = run_detailed(&cfg, &mut StaticController::new(2));
        for s in &r.seconds {
            let recorded = s.mean * s.throughput as f64;
            assert!(
                (s.attr_total - recorded).abs() < 1e-6 * recorded.max(1.0),
                "second {}: attr_total {} vs mean*n {}",
                s.second,
                s.attr_total,
                recorded
            );
            assert!(
                (s.attr_queue + s.attr_exec + s.attr_stall - s.attr_total).abs() < 1e-9,
                "second {}: components do not sum",
                s.second
            );
        }
    }

    #[test]
    fn stall_is_zero_without_migration_and_positive_during_one() {
        // No reconfiguration → no migration interference anywhere.
        let quiet = run_detailed(
            &test_cfg(vec![400.0; 90], 12),
            &mut StaticController::new(2),
        );
        assert!(quiet.reconfig_spans.is_empty());
        assert!(quiet.seconds.iter().all(|s| s.attr_stall == 0.0));

        // A forced mid-load move must show up as stall time during (or
        // shortly after) the reconfiguration window, and nowhere before it.
        struct OneMove(bool);
        impl Strategy for OneMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.0 && obs.interval >= 1 && !obs.reconfiguring {
                    self.0 = true;
                    return Action::Reconfigure(ReconfigRequest::emergency(4, 8.0, 0));
                }
                Action::None
            }
            fn name(&self) -> &str {
                "one-move"
            }
            fn initial_machines(&self) -> u32 {
                2
            }
        }
        let cfg = test_cfg(vec![650.0; 180], 12);
        let r = run_detailed(&cfg, &mut OneMove(false));
        assert_eq!(r.reconfig_spans.len(), 1);
        let (start, _) = r.reconfig_spans[0];
        let before: f64 = r
            .seconds
            .iter()
            .filter(|s| (s.second as f64) < start - 1.0)
            .map(|s| s.attr_stall)
            .sum();
        let during_or_after: f64 = r
            .seconds
            .iter()
            .filter(|s| (s.second as f64) >= start)
            .map(|s| s.attr_stall)
            .sum();
        assert_eq!(before, 0.0, "stall attributed before any chunk moved");
        assert!(
            during_or_after > 0.0,
            "migration produced no attributed stall"
        );
    }

    #[test]
    fn per_interval_load_averages() {
        let load = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(per_interval_load(&load, 2.0), vec![15.0, 35.0]);
    }

    #[test]
    fn machine_allocation_follows_schedule_during_moves() {
        // Scale 1 -> 4 under light load; during the move the allocated
        // machine count must pass through the schedule's staircase and the
        // run must end at 4.
        let load = vec![100.0; 200];
        let cfg = test_cfg(load, 6);
        struct OneMove(bool);
        impl Strategy for OneMove {
            fn tick(&mut self, obs: &Observation) -> Action {
                if !self.0 && !obs.reconfiguring {
                    self.0 = true;
                    return Action::Reconfigure(ReconfigRequest::planned(4, 0));
                }
                Action::None
            }
            fn name(&self) -> &str {
                "one-move"
            }
            fn initial_machines(&self) -> u32 {
                1
            }
        }
        let r = run_detailed(&cfg, &mut OneMove(false));
        assert_eq!(r.reconfig_spans.len(), 1);
        assert_eq!(r.seconds.last().unwrap().machines, 4.0);
        // Mid-move the allocation is between 1 and 4.
        let (s, e) = r.reconfig_spans[0];
        let mid: Vec<f64> = r
            .seconds
            .iter()
            .filter(|x| (x.second as f64) > s && (x.second as f64) < e)
            .map(|x| x.machines)
            .collect();
        assert!(
            mid.iter().any(|&m| m > 1.0 && m <= 4.0),
            "staircase: {mid:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = test_cfg(vec![300.0; 60], 42);
        let a = run_detailed(&cfg, &mut StaticController::new(2));
        let b = run_detailed(&cfg, &mut StaticController::new(2));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.violations, b.violations);
        let pa: Vec<f64> = a.seconds.iter().map(|s| s.p99).collect();
        let pb: Vec<f64> = b.seconds.iter().map(|s| s.p99).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn prov_events_trace_the_control_loop_when_enabled() {
        use tel::kinds;

        // Same ramp that forces the reactive controller to scale out.
        let mut load: Vec<f64> = (0..120).map(|s| 250.0 + 550.0 * s as f64 / 120.0).collect();
        load.extend(vec![800.0; 240]);
        let mut reactive = ReactiveController::new(ReactiveConfig {
            trigger_fraction: 0.9,
            headroom: 0.2,
            smoothing_window: 2,
            scale_in_patience: 10,
            ..ReactiveConfig::default()
        });

        // Opted in (the default spec's trace, without a single `prov_*`
        // event, is pinned in `tests/trace_contract.rs`), the full
        // provenance chain appears, and every reconfiguration summary
        // points back at the decision that issued it (the PRV-02 contract
        // the verifier checks).
        let (sink, handle) = tel::MemorySink::new();
        {
            let spec = tel::TraceSpec {
                prov: true,
                ..Default::default()
            };
            let _guard = tel::install_with(std::rc::Rc::new(sink), spec);
            run_detailed(&test_cfg(load, 4), &mut reactive);
        }
        let runs = handle.of_kind(kinds::PROV_RUN);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].field_str("policy"), Some("Reactive"));
        assert!(!handle.of_kind(kinds::PROV_INTERVAL).is_empty());
        assert!(!handle.of_kind(kinds::PROV_FORECAST).is_empty());
        let decisions = handle.of_kind(kinds::PROV_DECISION);
        assert!(!decisions.is_empty());
        let ids: Vec<_> = decisions.iter().filter_map(|d| d.field_u64("id")).collect();
        let reconfigs = handle.of_kind(kinds::PROV_RECONFIG);
        assert!(!reconfigs.is_empty(), "scale-out must emit prov_reconfig");
        for r in &reconfigs {
            let id = r.field_u64("id").unwrap_or(0);
            assert!(ids.contains(&id), "reconfig id {id} has no decision");
            assert!(r.field_u64("bytes").unwrap_or(0) > 0, "move carried data");
        }
        let chunks = handle.of_kind(kinds::PROV_CHUNK);
        assert!(!chunks.is_empty(), "chunked migration must emit prov_chunk");
    }
}
