//! The multi-node cluster: routing, execution, and Squall-style live
//! reconfiguration.
//!
//! A cluster holds `N` nodes of `P` partitions each. The hash space is
//! divided into virtual slots; a [`SlotPlan`] maps slots to nodes and the
//! local partition of a slot is a hash of the slot id (kept independent of
//! the node assignment so every partition receives data). Reconfiguration moves slots
//! between nodes in chunks: each chunk relocates up to a byte budget of one
//! slot's rows, and the migrated-key set lets transactions keep executing
//! against the slot while it is in flight (key-granularity switchover).
//! Chunk *pacing* — how often chunks run and how long they occupy the
//! partition — is the simulator's job; this module provides the mechanism.

use crate::catalog::{Catalog, TableId};
use crate::hash::{bucket_of, FxBuild};
use crate::storage::{Storage, TxnFate};
use crate::txn::{Procedure, TxnError, TxnOutput};
use crate::value::Key;
use pstore_core::partition_plan::SlotPlan;
use pstore_telemetry as tel;
use std::collections::HashMap;
use std::fmt;

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Partitions per node (`P`; the paper's clusters use 6).
    pub partitions_per_node: u32,
    /// Number of virtual hash slots. More slots = finer migration chunks
    /// and better balance; must be at least the maximum node count.
    pub num_slots: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions_per_node: 6,
            num_slots: 720, // divisible by 1..=10 nodes x 6 partitions
        }
    }
}

/// One sender-to-receiver stream of a reconfiguration: the ordered slots it
/// must move. Pairs correspond 1:1 to the machine-pair transfers of the
/// §4.4.1 migration schedule.
#[derive(Debug, Clone)]
pub struct PairTransfer {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Slots to move, in order.
    pub slots: Vec<u64>,
    next: usize,
}

impl PairTransfer {
    /// Whether all slots of this pair have been moved.
    pub fn is_done(&self) -> bool {
        self.next >= self.slots.len()
    }

    /// Slots not yet fully moved.
    pub fn remaining_slots(&self) -> usize {
        self.slots.len() - self.next
    }

    /// The slot the next chunk will draw from, if any remain.
    pub fn current_slot(&self) -> Option<u64> {
        self.slots.get(self.next).copied()
    }
}

/// An in-progress reconfiguration: the plan it moves towards and what is
/// left of each pair's stream. Which slots are half-moved is in the
/// cluster's `route_dest`; [`Storage`] tracks their moved-key sets.
#[derive(Debug)]
struct Reconfig {
    new_plan: SlotPlan,
    pairs: Vec<PairTransfer>,
    pending_pairs: usize,
    /// Telemetry span covering this reconfiguration (0 = no span).
    span_id: u64,
}

/// Result of one migration chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkResult {
    /// Estimated bytes relocated by this chunk.
    pub bytes: usize,
    /// Rows relocated.
    pub rows: usize,
    /// Whether the chunk completed a slot.
    pub slot_completed: bool,
    /// Whether the pair has no slots left.
    pub pair_done: bool,
    /// Whether the whole reconfiguration just committed.
    pub reconfig_done: bool,
}

/// Errors starting or driving a reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// A reconfiguration is already running.
    AlreadyRunning,
    /// No reconfiguration is running.
    NotRunning,
    /// The requested size equals the current size.
    NoChange,
    /// The requested size is invalid (zero, or more nodes than slots).
    InvalidTarget {
        /// The rejected size.
        target: u32,
    },
    /// The running reconfiguration has no pair of that index (a driver
    /// holding an index from an earlier reconfiguration).
    NoSuchPair {
        /// The rejected index.
        pair: usize,
        /// How many pairs the running reconfiguration has.
        pairs: usize,
    },
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::AlreadyRunning => write!(f, "a reconfiguration is already running"),
            ReconfigError::NotRunning => write!(f, "no reconfiguration is running"),
            ReconfigError::NoChange => write!(f, "target size equals current size"),
            ReconfigError::InvalidTarget { target } => {
                write!(f, "invalid target cluster size {target}")
            }
            ReconfigError::NoSuchPair { pair, pairs } => {
                write!(f, "no pair {pair}: the reconfiguration has {pairs}")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The `route_dest` entry of a slot that is not in flight.
const SETTLED: u32 = u32::MAX;

/// Aggregate execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Transactions that touched in-flight (migrating) data.
    pub touched_migrating: u64,
    /// Completed reconfigurations.
    pub reconfigurations: u64,
}

/// A shared-nothing, partitioned, main-memory cluster.
pub struct Cluster {
    catalog: Catalog,
    cfg: ClusterConfig,
    plan: SlotPlan,
    /// Dense slot → node routing cache: the committed plan with completed
    /// in-flight moves applied on top (the role the override map used to
    /// play, but resolved with one indexed load instead of two hash
    /// lookups). In-flight slots keep routing to their source node until
    /// their last chunk lands, exactly as before.
    route_node: Vec<u32>,
    /// Dense slot → local-partition cache. `local_of_slot` is a pure hash
    /// of the slot id, so this never changes after construction.
    route_local: Vec<u32>,
    /// Dense slot → migration destination, [`SETTLED`] for every slot but
    /// the ones a chunk left half-moved (at most one per pair): set by the
    /// chunk that leaves rows behind, cleared by the one that empties the
    /// slot. The source of an in-flight slot is its `route_node` entry.
    route_dest: Vec<u32>,
    /// Per-slot access counters: one increment per executed transaction,
    /// committed or aborted (the detailed tier of E-Store-style two-tier
    /// monitoring). Dense, indexed by slot id, sized at construction: no
    /// hashing on the per-transaction path, and a reset keeps the buffer.
    slot_access_totals: Vec<u64>,
    /// Nodes currently holding resources.
    allocated: u32,
    storage: Storage,
    reconfig: Option<Reconfig>,
    stats: ClusterStats,
    /// Per-procedure (committed, aborted) counters.
    procedure_stats: HashMap<&'static str, (u64, u64), FxBuild>,
}

impl Cluster {
    /// Boots a cluster of `initial_nodes` nodes.
    ///
    /// # Panics
    /// Panics on zero nodes or too few slots.
    pub fn new(catalog: Catalog, cfg: ClusterConfig, initial_nodes: u32) -> Self {
        assert!(initial_nodes > 0, "need at least one node");
        assert!(
            cfg.num_slots >= initial_nodes as usize,
            "need at least one slot per node"
        );
        assert!(cfg.partitions_per_node > 0, "need at least one partition");
        let plan = SlotPlan::balanced(initial_nodes, cfg.num_slots);
        let num_tables = catalog.len();
        let route_node = plan.assignments().to_vec();
        #[allow(
            clippy::cast_possible_truncation,
            reason = "the bucket is below P, a u32"
        )]
        let route_local: Vec<u32> = (0..cfg.num_slots as u64)
            .map(|slot| bucket_of(&slot.to_le_bytes(), cfg.partitions_per_node as u64) as u32)
            .collect();
        let storage = Storage::new(
            cfg.partitions_per_node,
            num_tables,
            cfg.num_slots as u64,
            initial_nodes,
        );
        Cluster {
            catalog,
            plan,
            route_node,
            route_local,
            route_dest: vec![SETTLED; cfg.num_slots],
            slot_access_totals: vec![0; cfg.num_slots],
            allocated: initial_nodes,
            storage,
            cfg,
            reconfig: None,
            stats: ClusterStats::default(),
            procedure_stats: HashMap::default(),
        }
    }

    /// Enables or disables per-key version counting across every store —
    /// the substrate of the sampled ISO-01..03 serializability histories.
    /// Off by default: the warm path then carries no version bookkeeping
    /// and sampled `txn_rwset` events keep their side-tally-only shape,
    /// so golden traces stay byte-stable.
    pub fn set_track_versions(&mut self, on: bool) {
        self.storage.set_track_versions(on);
    }

    /// Whether per-key version counting is on.
    pub fn track_versions(&self) -> bool {
        self.storage.track_versions()
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current (committed) number of nodes. During a scale-out this is
    /// still the pre-move count until the reconfiguration commits; use
    /// [`allocated_nodes`](Self::allocated_nodes) for machine-cost
    /// accounting.
    pub fn active_nodes(&self) -> u32 {
        self.plan.machines()
    }

    /// Nodes currently holding resources (includes scale-out targets while
    /// a reconfiguration runs).
    pub fn allocated_nodes(&self) -> u32 {
        self.allocated
    }

    /// Whether a reconfiguration is running.
    pub fn reconfiguring(&self) -> bool {
        self.reconfig.is_some()
    }

    /// Execution counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The virtual slot a routing key hashes to.
    pub fn slot_of_key(&self, key: &Key) -> u64 {
        bucket_of(&key.routing_bytes(), self.cfg.num_slots as u64)
    }

    /// The virtual slot a single routing-key component hashes to, without
    /// materialising a [`Key`] (no heap allocation for integer components
    /// or strings up to 59 bytes). Agrees with
    /// `slot_of_key(&Key::new(vec![part.clone()]))` for every component.
    pub fn slot_of_routing(&self, part: &crate::value::KeyValue) -> u64 {
        part.with_hash_bytes(|bytes| bucket_of(bytes, self.cfg.num_slots as u64))
    }

    /// The node currently serving `slot`. In-flight slots keep routing to
    /// their migration source until the last chunk lands; the cache entry
    /// flips to the destination at that moment.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "slot ids fit usize on supported targets"
    )]
    pub fn node_of_slot(&self, slot: u64) -> u32 {
        self.route_node[slot as usize]
    }

    /// The local partition index a slot maps to on whichever node owns it.
    ///
    /// Hashed (rather than `slot % P`) so it stays uncorrelated with the
    /// slot-to-node assignment — `slot % machines` and `slot % P` share
    /// factors, which would leave some (node, partition) combinations
    /// permanently empty. Precomputed per slot at construction.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "slot ids fit usize on supported targets"
    )]
    pub fn local_of_slot(&self, slot: u64) -> u32 {
        self.route_local[slot as usize]
    }

    /// The (node, local-partition) pair serving `slot`.
    pub fn partition_of_slot(&self, slot: u64) -> (u32, u32) {
        (self.node_of_slot(slot), self.local_of_slot(slot))
    }

    /// Executes a stored procedure, routing by its partitioning key.
    ///
    /// # Errors
    /// Propagates the procedure's [`TxnError`] on abort.
    pub fn execute(&mut self, proc: &dyn Procedure) -> Result<TxnOutput, TxnError> {
        let slot = self.slot_of_routing(&proc.routing_key());
        self.execute_at_slot(proc, slot)
    }

    /// Executes a stored procedure whose routing slot the caller has
    /// already resolved (e.g. a simulator that needed the slot for queue
    /// placement before deciding to execute). Routing then costs the
    /// caller's hash and no second one here; the routing component is
    /// still hashed once more inside, by the transaction's first row
    /// access (`TxnCtx::check_slot`) — in release builds the only check
    /// that the supplied slot is the key's.
    ///
    /// # Errors
    /// Propagates the procedure's [`TxnError`] on abort.
    ///
    /// # Panics
    /// Debug builds assert that `slot` matches the procedure's routing
    /// key. In release builds a mismatched slot is counted and routed as
    /// given, and the transaction panics with a single-partition
    /// violation at its first row access.
    pub fn execute_at_slot(
        &mut self,
        proc: &dyn Procedure,
        slot: u64,
    ) -> Result<TxnOutput, TxnError> {
        self.execute_traced(proc, slot, None)
    }

    /// [`execute_at_slot`](Self::execute_at_slot), tagging a transaction
    /// its caller sampled with a `trace_id`: the engine then tallies that
    /// transaction's read/write set and, with a sink installed, emits its
    /// `txn_rwset` record (and `txn_restart` when it touched a migration
    /// destination) under the id — with key-level read/write sets when
    /// [`track_versions`](Self::track_versions) is on. Untagged
    /// executions tally nothing and carry no per-transaction trace traffic.
    ///
    /// # Errors
    /// Propagates the procedure's [`TxnError`] on abort.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "slot ids fit usize on supported targets"
    )]
    pub fn execute_traced(
        &mut self,
        proc: &dyn Procedure,
        slot: u64,
        trace_id: Option<u64>,
    ) -> Result<TxnOutput, TxnError> {
        debug_assert_eq!(
            slot,
            self.slot_of_routing(&proc.routing_key()),
            "caller-resolved slot disagrees with the routing key"
        );
        let (node, local, in_flight) = self.routing_of(slot);
        self.slot_access_totals[slot as usize] += 1;
        let fate = self
            .storage
            .execute(proc, slot, node, local, in_flight, trace_id.is_some());
        account(&mut self.stats, &mut self.procedure_stats, &fate);
        if let Some(id) = trace_id {
            if tel::enabled() {
                if fate.touched_dest {
                    // The Squall-style switchover: an access resolved
                    // against the destination means the transaction was
                    // rerouted mid-migration — the engine-level analogue
                    // of a restart-on-moved-data.
                    tel::emit(tel::TxnRestart { id, slot });
                }
                tel::emit(txn_rwset_record(id, slot, &fate));
            }
        }
        fate.result
    }

    /// `(node, local, in_flight)` routing of a slot.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "slot ids fit usize on supported targets"
    )]
    fn routing_of(&self, slot: u64) -> (u32, u32, Option<(u32, u32)>) {
        let node = self.route_node[slot as usize];
        let dest = self.route_dest[slot as usize];
        let in_flight = (dest != SETTLED).then_some((node, dest));
        (node, self.route_local[slot as usize], in_flight)
    }

    /// Per-procedure `(committed, aborted)` counters, sorted by call count
    /// (descending) — the workload-mix report of a run.
    pub fn procedure_report(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = self
            .procedure_stats
            .iter()
            .map(|(&name, &(c, a))| (name, c, a))
            .collect();
        out.sort_by(|x, y| (y.1 + y.2).cmp(&(x.1 + x.2)).then(x.0.cmp(y.0)));
        out
    }

    /// Starts a reconfiguration to `target` nodes. New nodes are allocated
    /// immediately at the engine level; the simulator decides *when* to
    /// call this per the §4.4.1 just-in-time schedule by issuing staged
    /// reconfigurations.
    ///
    /// # Errors
    /// See [`ReconfigError`].
    pub fn begin_reconfiguration(&mut self, target: u32) -> Result<(), ReconfigError> {
        if self.reconfig.is_some() {
            return Err(ReconfigError::AlreadyRunning);
        }
        if target == self.active_nodes() {
            return Err(ReconfigError::NoChange);
        }
        if target == 0 || target as usize > self.cfg.num_slots {
            return Err(ReconfigError::InvalidTarget { target });
        }
        let (new_plan, transfers) = self.plan.rebalance_to(target);
        let pairs: Vec<PairTransfer> = transfers
            .into_iter()
            .map(|t| PairTransfer {
                from: t.from,
                to: t.to,
                slots: t.slots.into_iter().map(|s| s as u64).collect(),
                next: 0,
            })
            .collect();
        self.install_reconfig(new_plan, pairs);
        Ok(())
    }

    /// Starts a reconfiguration to an arbitrary caller-supplied plan — the
    /// hook for skew-driven rebalancing (E-Store-style hot-slot placement,
    /// the future-work combination sketched in the paper's §10). The plan
    /// must keep the slot count and may change the machine count.
    ///
    /// # Errors
    /// See [`ReconfigError`]; additionally rejects plans whose slot count
    /// differs from the cluster's.
    pub fn begin_plan_reconfiguration(&mut self, new_plan: SlotPlan) -> Result<(), ReconfigError> {
        if self.reconfig.is_some() {
            return Err(ReconfigError::AlreadyRunning);
        }
        if new_plan.num_slots() != self.cfg.num_slots {
            return Err(ReconfigError::InvalidTarget {
                target: new_plan.machines(),
            });
        }
        if new_plan.machines() == 0 {
            return Err(ReconfigError::InvalidTarget { target: 0 });
        }
        if new_plan.assignments() == self.plan.assignments() {
            return Err(ReconfigError::NoChange);
        }
        // Diff the plans into per-(from, to) slot streams.
        let mut by_pair: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        for (slot, (&old, &new)) in self
            .plan
            .assignments()
            .iter()
            .zip(new_plan.assignments())
            .enumerate()
        {
            if old != new {
                by_pair.entry((old, new)).or_default().push(slot as u64);
            }
        }
        let mut pairs: Vec<PairTransfer> = by_pair
            .into_iter()
            .map(|((from, to), slots)| PairTransfer {
                from,
                to,
                slots,
                next: 0,
            })
            .collect();
        pairs.sort_by_key(|p| (p.from, p.to));
        self.install_reconfig(new_plan, pairs);
        Ok(())
    }

    fn install_reconfig(&mut self, new_plan: SlotPlan, pairs: Vec<PairTransfer>) {
        // Allocate any nodes the new plan references.
        let max_node = new_plan
            .assignments()
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(new_plan.machines().saturating_sub(1));
        let needed = max_node + 1;
        if needed > self.allocated {
            self.storage.ensure_nodes(needed);
            self.allocated = needed;
        }
        let pending = pairs.iter().filter(|p| !p.is_done()).count();
        let span_id = if tel::enabled() {
            // The reconfig span covers the whole migration lifetime — opened
            // here, closed in commit_reconfig / end_truncated_reconfig_span;
            // TEL-01/02 verify the pairing on every traced run.
            tel::begin_span_with(tel::SpanBegin::reconfig(
                0,
                self.plan.machines().into(),
                new_plan.machines().into(),
            ))
        } else {
            0
        };
        self.reconfig = Some(Reconfig {
            new_plan,
            pairs,
            pending_pairs: pending,
            span_id,
        });
        if pending == 0 {
            self.commit_reconfig();
        }
    }

    /// The current slot plan (committed routing, ignoring in-flight moves).
    pub fn current_plan(&self) -> &SlotPlan {
        &self.plan
    }

    /// Per-slot access counts since the last
    /// [`reset_slot_accesses`](Self::reset_slot_accesses), non-zero entries
    /// only — the input to skew-driven rebalancing.
    pub fn slot_access_report(&self) -> HashMap<u64, u64> {
        self.slot_access_totals
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s as u64, c))
            .collect()
    }

    /// The dense per-slot access counters, indexed by slot id — the
    /// allocation-free view of [`slot_access_report`](Self::slot_access_report).
    pub fn slot_access_counts(&self) -> &[u64] {
        &self.slot_access_totals
    }

    /// Clears all per-slot access counters (start a fresh monitoring
    /// window).
    pub fn reset_slot_accesses(&mut self) {
        self.slot_access_totals.fill(0);
    }

    /// The pair transfers of the running reconfiguration.
    pub fn pair_transfers(&self) -> &[PairTransfer] {
        self.reconfig.as_ref().map_or(&[], |r| &r.pairs)
    }

    /// Moves up to `budget_bytes` of the next slot of pair `pair_idx`.
    ///
    /// # Errors
    /// Returns [`ReconfigError::NotRunning`] outside a reconfiguration and
    /// [`ReconfigError::NoSuchPair`] for an index the running one lacks.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "slot ids fit usize on supported targets"
    )]
    pub fn migrate_chunk(
        &mut self,
        pair_idx: usize,
        budget_bytes: usize,
    ) -> Result<ChunkResult, ReconfigError> {
        let Some(reconfig) = self.reconfig.as_mut() else {
            return Err(ReconfigError::NotRunning);
        };
        let pairs = reconfig.pairs.len();
        let Some(pair) = reconfig.pairs.get(pair_idx) else {
            return Err(ReconfigError::NoSuchPair {
                pair: pair_idx,
                pairs,
            });
        };
        if pair.is_done() {
            return Ok(ChunkResult {
                bytes: 0,
                rows: 0,
                slot_completed: false,
                pair_done: true,
                reconfig_done: false,
            });
        }
        let slot = pair.slots[pair.next];
        let (from, to) = (pair.from, pair.to);
        let local = self.route_local[slot as usize];

        // Per-chunk work span: nests inside the open reconfiguration
        // span and makes extract/install cost visible to the profiler.
        let step_span = if tel::enabled() {
            tel::begin_span(tel::SpanName::ChunkStep)
        } else {
            0
        };
        let (n_rows, bytes, emptied) =
            self.storage
                .migrate_chunk(slot, from, to, local, budget_bytes);
        tel::end_span(tel::SpanName::ChunkStep, step_span);

        tel::tel_event!(tel::ChunkMove {
            from: from.into(),
            to: to.into(),
            slot,
            bytes: tel::count(bytes),
            rows: tel::count(n_rows),
            slot_completed: emptied,
        });
        if tel::enabled() {
            tel::with_registry(|r| {
                r.inc_counter("reconfig.chunks_moved", 1);
                r.inc_counter("reconfig.bytes_moved", bytes as u64);
                r.inc_counter("reconfig.rows_moved", n_rows as u64);
            });
        }

        let Some(reconfig) = self.reconfig.as_mut() else {
            unreachable!("reconfig cannot end mid-chunk");
        };
        let mut slot_completed = false;
        let mut pair_done = false;
        let mut reconfig_done = false;
        if emptied {
            // Slot fully relocated: switch routing. One that moved whole
            // was never marked in flight; clearing covers both.
            self.route_dest[slot as usize] = SETTLED;
            self.route_node[slot as usize] = to;
            let pair = &mut reconfig.pairs[pair_idx];
            pair.next += 1;
            slot_completed = true;
            if pair.is_done() {
                pair_done = true;
                reconfig.pending_pairs -= 1;
                if reconfig.pending_pairs == 0 {
                    self.commit_reconfig();
                    reconfig_done = true;
                }
            }
        } else {
            // Rows left behind: in flight until a later chunk empties it.
            self.route_dest[slot as usize] = to;
        }
        Ok(ChunkResult {
            bytes,
            rows: n_rows,
            slot_completed,
            pair_done,
            reconfig_done,
        })
    }

    /// Drives the whole reconfiguration to completion in one call, visiting
    /// pairs round-robin with the given chunk budget. Intended for tests
    /// and standalone use; simulations pace chunks themselves.
    ///
    /// # Errors
    /// Returns [`ReconfigError::NotRunning`] outside a reconfiguration.
    pub fn run_reconfiguration_to_completion(
        &mut self,
        budget_bytes: usize,
    ) -> Result<u64, ReconfigError> {
        if self.reconfig.is_none() {
            return Err(ReconfigError::NotRunning);
        }
        let mut chunks = 0u64;
        // Upper bound: every slot needs at least one chunk, plus slack for
        // small budgets; a pass without progress indicates a logic bug.
        let mut stalled_passes = 0u32;
        loop {
            let pairs = self.pair_transfers().len();
            let mut progressed = false;
            for p in 0..pairs {
                if self.reconfig.is_none() {
                    return Ok(chunks);
                }
                let r = self.migrate_chunk(p, budget_bytes)?;
                chunks += 1;
                if r.reconfig_done {
                    return Ok(chunks);
                }
                if r.bytes > 0 || r.slot_completed {
                    progressed = true;
                }
            }
            stalled_passes = if progressed { 0 } else { stalled_passes + 1 };
            assert!(
                stalled_passes < 3,
                "reconfiguration stalled: no chunk made progress"
            );
        }
    }

    /// Closes the telemetry span of an in-flight reconfiguration without
    /// committing it — for simulators whose run ends mid-migration. The
    /// engine state is untouched (the run is over); only the trace is
    /// balanced so every `span_begin` pairs (TEL-01/02) and downstream
    /// cells can legally reset the sim clock (TEL-04). No-op when nothing
    /// is in flight or telemetry is off.
    pub fn end_truncated_reconfig_span(&mut self) {
        if let Some(reconfig) = self.reconfig.as_mut() {
            tel::end_span_truncated(
                tel::SpanName::Reconfig,
                std::mem::take(&mut reconfig.span_id),
            );
        }
    }

    fn commit_reconfig(&mut self) {
        let Some(reconfig) = self.reconfig.take() else {
            unreachable!("commit requires reconfig");
        };
        debug_assert_eq!(reconfig.pending_pairs, 0);
        tel::end_span(tel::SpanName::Reconfig, reconfig.span_id);
        let target = reconfig.new_plan.machines();
        self.plan = reconfig.new_plan;
        // Completed moves already flipped their routing-cache entries to
        // the destination, which is the new plan's owner; unmoved slots
        // kept their owner. The cache therefore already equals the new
        // plan — re-sync defensively and assert the invariant.
        debug_assert_eq!(self.route_node, self.plan.assignments());
        self.route_node.copy_from_slice(self.plan.assignments());
        debug_assert!(self.route_dest.iter().all(|&d| d == SETTLED));
        // Drop drained nodes on scale-in.
        if target < self.allocated {
            self.storage.drop_nodes(target);
            self.allocated = target;
        }
        self.stats.reconfigurations += 1;
    }

    /// Estimated total resident bytes across the cluster.
    pub fn total_bytes(&self) -> usize {
        self.storage.report().iter().map(|r| r.3).sum()
    }

    /// Total resident rows across the cluster.
    pub fn total_rows(&self) -> usize {
        self.storage.report().iter().map(|r| r.4).sum()
    }

    /// Exports every row of a table as a snapshot, ordered by key — the
    /// extraction side of the paper's §4.2 archival story (historical data
    /// moves to a separate warehouse out of band).
    ///
    /// # Errors
    /// Refuses while a reconfiguration is running (rows would be split
    /// between migration sides).
    pub fn export_table(
        &self,
        table: TableId,
    ) -> Result<Vec<(Key, crate::value::Row)>, ReconfigError> {
        if self.reconfig.is_some() {
            return Err(ReconfigError::AlreadyRunning);
        }
        let mut out = self.storage.export_table(table);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Per-partition statistics: `(node, local_partition, accesses, bytes,
    /// rows)`, in `(node, local_partition)` order.
    pub fn partition_report(&self) -> Vec<(u32, u32, u64, usize, usize)> {
        self.storage.report()
    }

    /// Full integrity audit: every resident row lives in the slot its key
    /// hashes to, on the partition and node that currently serve that
    /// slot; byte accounting matches row contents. Intended for tests and
    /// post-migration assertions (O(total rows)).
    ///
    /// # Errors
    /// Returns a description of the first violation found.
    pub fn verify_integrity(&self) -> Result<(), String> {
        if self.reconfig.is_some() {
            return Err("verify_integrity requires a settled cluster".into());
        }
        let snapshots = self.storage.integrity();
        for snap in &snapshots {
            for &slot in &snap.resident_slots {
                let (owner, local) = self.partition_of_slot(slot);
                if owner != snap.node || local != snap.local {
                    return Err(format!(
                        "slot {slot} resident on node {} partition {}, \
                         but routing maps it to node {owner} partition {local}",
                        snap.node, snap.local
                    ));
                }
            }
            if snap.claimed_bytes != snap.actual_bytes {
                return Err(format!(
                    "node {} partition {}: byte accounting drift \
                     (claimed {}, actual {})",
                    snap.node, snap.local, snap.claimed_bytes, snap.actual_bytes
                ));
            }
        }
        Ok(())
    }

    /// Bytes that a reconfiguration to `target` nodes would move (the data
    /// on slots that change owners under the minimal rebalance).
    pub fn bytes_to_move(&self, target: u32) -> usize {
        let (_, transfers) = self.plan.rebalance_to(target);
        transfers
            .iter()
            .flat_map(|t| t.slots.iter())
            .map(|&s| {
                let slot = s as u64;
                let (node, local) = self.partition_of_slot(slot);
                self.storage.slot_bytes_at(slot, node, local)
            })
            .sum()
    }
}

/// Folds a fate into the aggregate and per-procedure counters.
fn account(
    stats: &mut ClusterStats,
    procedure_stats: &mut HashMap<&'static str, (u64, u64), FxBuild>,
    fate: &TxnFate,
) {
    let proc_entry = procedure_stats.entry(fate.proc).or_insert((0, 0));
    match &fate.result {
        Ok(_) => {
            stats.committed += 1;
            proc_entry.0 += 1;
        }
        Err(_) => {
            stats.aborted += 1;
            proc_entry.1 += 1;
        }
    }
    if fate.touched_dest {
        stats.touched_migrating += 1;
    }
}

/// Builds the sampled `txn_rwset` record for a fate traced under `id`. The
/// key-level `rset` / `wset` fields appear only when the fate captured any
/// key accesses (sampling on *and* version tracking enabled), which keeps
/// pre-existing golden traces byte-stable.
fn txn_rwset_record(id: u64, slot: u64, fate: &TxnFate) -> tel::TxnRwset {
    let key_versions = |accesses: &[crate::txn::KeyAccess]| -> Vec<tel::KeyVersion> {
        accesses
            .iter()
            .map(|(table, key, version)| (*table as u64, key.to_string(), *version))
            .collect()
    };
    let captured = !fate.key_reads.is_empty() || !fate.key_writes.is_empty();
    tel::TxnRwset {
        id,
        slot,
        proc: fate.proc.into(),
        reads: fate.rwset.reads,
        writes: fate.rwset.writes,
        dest_reads: fate.rwset.dest_reads,
        dest_writes: fate.rwset.dest_writes,
        migrating: fate.migrating,
        restarted: fate.touched_dest,
        committed: fate.result.is_ok(),
        rset: captured.then(|| key_versions(&fate.key_reads)),
        wset: captured.then(|| key_versions(&fate.key_writes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{columns, ColumnType, TableSchema};
    use crate::txn::TxnCtx;
    use crate::value::{KeyValue, Row, Value};

    fn test_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new(
            "KV",
            columns(&[("k", ColumnType::Str), ("v", ColumnType::Int)]),
            1,
        ));
        cat
    }

    /// A trivial upsert procedure.
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

    fn cluster(nodes: u32) -> Cluster {
        Cluster::new(
            test_catalog(),
            ClusterConfig {
                partitions_per_node: 2,
                num_slots: 64,
            },
            nodes,
        )
    }

    fn load_keys(c: &mut Cluster, n: usize) {
        for i in 0..n {
            c.execute(&Put {
                key: format!("key-{i}"),
                value: i as i64,
            })
            .unwrap();
        }
    }

    fn check_all_keys(c: &mut Cluster, n: usize) {
        for i in 0..n {
            let out = c
                .execute(&Get {
                    key: format!("key-{i}"),
                })
                .unwrap_or_else(|e| panic!("key-{i} lost: {e}"));
            assert_eq!(out, TxnOutput::Row(Row(vec![Value::Int(i as i64)])));
        }
    }

    #[test]
    fn execute_routes_and_round_trips() {
        let mut c = cluster(3);
        load_keys(&mut c, 200);
        check_all_keys(&mut c, 200);
        assert_eq!(c.total_rows(), 200);
        assert_eq!(c.stats().committed, 400);
    }

    #[test]
    fn procedure_report_counts_by_name() {
        let mut c = cluster(2);
        load_keys(&mut c, 10);
        let _ = c.execute(&Get { key: "nope".into() });
        let report = c.procedure_report();
        assert_eq!(report[0], ("Put", 10, 0));
        let get = report.iter().find(|r| r.0 == "Get").unwrap();
        assert_eq!((get.1, get.2), (0, 1));
    }

    #[test]
    fn missing_key_aborts() {
        let mut c = cluster(2);
        let err = c.execute(&Get { key: "nope".into() }).unwrap_err();
        assert!(matches!(err, TxnError::NotFound { .. }));
        assert_eq!(c.stats().aborted, 1);
    }

    #[test]
    fn scale_out_preserves_every_row() {
        let mut c = cluster(2);
        load_keys(&mut c, 300);
        c.begin_reconfiguration(5).unwrap();
        assert!(c.reconfiguring());
        assert!(c.verify_integrity().is_err()); // mid-move audits refused
        c.run_reconfiguration_to_completion(4096).unwrap();
        assert!(!c.reconfiguring());
        assert_eq!(c.active_nodes(), 5);
        assert_eq!(c.total_rows(), 300);
        c.verify_integrity().unwrap();
        check_all_keys(&mut c, 300);
    }

    #[test]
    fn scale_in_preserves_every_row_and_drops_nodes() {
        let mut c = cluster(5);
        load_keys(&mut c, 300);
        c.begin_reconfiguration(2).unwrap();
        c.run_reconfiguration_to_completion(4096).unwrap();
        assert_eq!(c.active_nodes(), 2);
        assert_eq!(c.allocated_nodes(), 2);
        assert_eq!(c.total_rows(), 300);
        check_all_keys(&mut c, 300);
    }

    #[test]
    fn transactions_execute_correctly_mid_migration() {
        let mut c = cluster(2);
        load_keys(&mut c, 400);
        c.begin_reconfiguration(4).unwrap();
        // Interleave chunks with reads and writes.
        let mut i = 0usize;
        while c.reconfiguring() {
            let pairs = c.pair_transfers().len();
            let _ = c.migrate_chunk(i % pairs, 512).unwrap();
            // Read an existing key and write a new one every step.
            let k = format!("key-{}", i % 400);
            let out = c.execute(&Get { key: k }).unwrap();
            assert!(matches!(out, TxnOutput::Row(_)));
            c.execute(&Put {
                key: format!("new-{i}"),
                value: -1,
            })
            .unwrap();
            i += 1;
            assert!(i < 100_000, "migration did not converge");
        }
        check_all_keys(&mut c, 400);
        // New keys written during migration also survive.
        for j in 0..i {
            c.execute(&Get {
                key: format!("new-{j}"),
            })
            .unwrap_or_else(|e| panic!("new-{j} lost: {e}"));
        }
    }

    #[test]
    fn updates_to_moved_keys_land_at_destination() {
        let mut c = cluster(2);
        load_keys(&mut c, 200);
        c.begin_reconfiguration(4).unwrap();
        // Move a couple of chunks, then update every key; values must all
        // read back updated regardless of which side they live on.
        for p in 0..c.pair_transfers().len() {
            let _ = c.migrate_chunk(p, 2048).unwrap();
        }
        for i in 0..200 {
            c.execute(&Put {
                key: format!("key-{i}"),
                value: 1000 + i as i64,
            })
            .unwrap();
        }
        c.run_reconfiguration_to_completion(4096).unwrap();
        for i in 0..200 {
            let out = c
                .execute(&Get {
                    key: format!("key-{i}"),
                })
                .unwrap();
            assert_eq!(out, TxnOutput::Row(Row(vec![Value::Int(1000 + i as i64)])));
        }
        assert_eq!(c.total_rows(), 200);
    }

    #[test]
    fn reconfig_guards() {
        let mut c = cluster(2);
        assert_eq!(
            c.begin_reconfiguration(2).unwrap_err(),
            ReconfigError::NoChange
        );
        assert_eq!(
            c.begin_reconfiguration(0).unwrap_err(),
            ReconfigError::InvalidTarget { target: 0 }
        );
        c.begin_reconfiguration(3).unwrap();
        assert_eq!(
            c.begin_reconfiguration(4).unwrap_err(),
            ReconfigError::AlreadyRunning
        );
        assert_eq!(
            Cluster::new(test_catalog(), ClusterConfig::default(), 1)
                .migrate_chunk(0, 100)
                .unwrap_err(),
            ReconfigError::NotRunning
        );
        // A pair index the running reconfiguration lacks (one kept from
        // an earlier, wider one) is refused and changes nothing.
        load_keys(&mut c, 100);
        let pairs = c.pair_transfers().len();
        for pair in [pairs, pairs + 7, usize::MAX] {
            assert_eq!(
                c.migrate_chunk(pair, 100).unwrap_err(),
                ReconfigError::NoSuchPair { pair, pairs }
            );
        }
        assert_eq!(c.pair_transfers().len(), pairs);
        assert!(c.pair_transfers().iter().all(|p| p.next == 0));
        // Once the last chunk has committed there is nothing to drive,
        // whatever the index.
        let mut last = None;
        while c.reconfiguring() {
            let pair = (0..pairs)
                .find(|&p| !c.pair_transfers()[p].is_done())
                .unwrap();
            last = Some((pair, c.migrate_chunk(pair, 100).unwrap()));
        }
        let (pair, chunk) = last.unwrap();
        assert!(chunk.reconfig_done);
        for pair in [pair, 0, pairs] {
            assert_eq!(
                c.migrate_chunk(pair, 100).unwrap_err(),
                ReconfigError::NotRunning
            );
        }
        assert_eq!(c.active_nodes(), 3);
        check_all_keys(&mut c, 100);
    }

    #[test]
    fn chained_reconfigurations_keep_data_intact() {
        let mut c = cluster(1);
        load_keys(&mut c, 250);
        for &target in &[4u32, 9, 3, 10, 2] {
            c.begin_reconfiguration(target).unwrap();
            c.run_reconfiguration_to_completion(1500).unwrap();
            assert_eq!(c.active_nodes(), target);
            assert_eq!(c.total_rows(), 250);
            c.verify_integrity().unwrap();
        }
        check_all_keys(&mut c, 250);
        assert_eq!(c.stats().reconfigurations, 5);
    }

    #[test]
    fn export_table_returns_all_rows_sorted() {
        let mut c = cluster(3);
        load_keys(&mut c, 120);
        let rows = c.export_table(0).unwrap();
        assert_eq!(rows.len(), 120);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        // Refused mid-reconfiguration.
        c.begin_reconfiguration(5).unwrap();
        assert!(c.export_table(0).is_err());
        c.run_reconfiguration_to_completion(8192).unwrap();
        assert_eq!(c.export_table(0).unwrap().len(), 120);
    }

    /// What the access counters must read: one count per executed
    /// procedure, committed or aborted, at the slot its routing key
    /// hashes to — kept by the test, beside the cluster.
    #[derive(Default)]
    struct Tally(HashMap<u64, u64>);

    impl Tally {
        fn count(&mut self, c: &Cluster, proc: &dyn Procedure) {
            *self
                .0
                .entry(c.slot_of_routing(&proc.routing_key()))
                .or_default() += 1;
        }

        fn execute(
            &mut self,
            c: &mut Cluster,
            proc: &dyn Procedure,
        ) -> Result<TxnOutput, TxnError> {
            self.count(c, proc);
            c.execute(proc)
        }

        /// The sparse report and the dense counters, entry by entry.
        fn assert_matches(&self, c: &Cluster, when: &str) {
            assert_eq!(c.slot_access_report(), self.0, "{when}");
            for (slot, &count) in c.slot_access_counts().iter().enumerate() {
                let expected = self.0.get(&(slot as u64)).copied().unwrap_or(0);
                assert_eq!(count, expected, "{when}: slot {slot}");
            }
        }
    }

    #[test]
    fn slot_access_report_matches_a_test_side_tally() {
        // The counters against what was executed: settled, between the
        // chunks of a reconfiguration that hands slots over whole and of
        // one that leaves them half-moved, and after a window reset.
        // Aborted transactions count: they ran on the slot too.
        let mut c = cluster(2);
        let mut tally = Tally::default();
        for i in 0..300 {
            let put = Put {
                key: format!("key-{i}"),
                value: i,
            };
            tally.execute(&mut c, &put).unwrap();
        }
        for i in 0..20 {
            let missing = Get {
                key: format!("nope-{i}"),
            };
            assert!(tally.execute(&mut c, &missing).is_err());
        }
        tally.assert_matches(&c, "settled");
        assert_eq!(tally.0.values().sum::<u64>(), 320);

        for (target, budget, half_moved) in [(4, 4096, false), (3, 48, true)] {
            let met_moved_data = c.stats().touched_migrating;
            c.begin_reconfiguration(target).unwrap();
            let mut i = 0usize;
            while c.reconfiguring() {
                let pairs = c.pair_transfers().len();
                let _ = c.migrate_chunk(i % pairs, budget).unwrap();
                for j in 0..8 {
                    let get = Get {
                        key: format!("key-{}", (8 * i + j) % 300),
                    };
                    tally.execute(&mut c, &get).unwrap();
                }
                let missing = Get {
                    key: format!("nope-{i}"),
                };
                assert!(tally.execute(&mut c, &missing).is_err());
                let put = Put {
                    key: format!("mid-{target}-{i}"),
                    value: 0,
                };
                tally.execute(&mut c, &put).unwrap();
                tally.assert_matches(&c, "mid-migration");
                i += 1;
                assert!(i < 100_000, "migration did not converge");
            }
            assert_eq!(
                c.stats().touched_migrating > met_moved_data,
                half_moved,
                "to {target} nodes in {budget}-byte chunks"
            );
        }

        c.reset_slot_accesses();
        tally.0.clear();
        tally.assert_matches(&c, "after a reset");
        for i in 0..50 {
            let get = Get {
                key: format!("key-{i}"),
            };
            tally.execute(&mut c, &get).unwrap();
        }
        tally.assert_matches(&c, "a new window");
        assert_eq!(tally.0.values().sum::<u64>(), 50);
    }

    #[test]
    fn slot_of_routing_matches_slot_of_key() {
        let c = cluster(3);
        let mut parts = vec![
            KeyValue::Int(0),
            KeyValue::Int(-7),
            KeyValue::Int(i64::MAX),
            KeyValue::Str("".into()),
            KeyValue::Str("cart-00deadbeef42".into()),
            // Longer than the 59-byte stack-buffer fast path.
            KeyValue::Str("x".repeat(200).into()),
        ];
        for i in 0..64 {
            parts.push(KeyValue::Str(format!("key-{i}").into()));
        }
        for part in parts {
            assert_eq!(
                c.slot_of_routing(&part),
                c.slot_of_key(&Key::new(vec![part.clone()])),
                "mismatch for {part:?}"
            );
        }
    }

    #[test]
    fn routing_cache_tracks_plan_across_reconfigurations() {
        let mut c = cluster(2);
        load_keys(&mut c, 200);
        let settled = |c: &Cluster| c.route_dest.iter().all(|&d| d == SETTLED);
        for &target in &[5u32, 3, 1, 4] {
            c.begin_reconfiguration(target).unwrap();
            assert!(settled(&c), "a slot in flight before any chunk");
            c.run_reconfiguration_to_completion(2048).unwrap();
            for slot in 0..64usize {
                let owner = c.current_plan().owner(slot);
                assert_eq!(c.node_of_slot(slot as u64), owner);
                assert!(owner < target);
            }
            assert!(settled(&c), "a slot in flight after the commit");
        }
        // A caller's plan, in chunks below a slot's size: while it runs
        // the marked slots are the half-moved ones, each pair's current
        // slot at most, and they route to their source until they empty.
        let mut owners = c.current_plan().assignments().to_vec();
        owners.rotate_left(1);
        c.begin_plan_reconfiguration(SlotPlan::from_assignments(owners, 4))
            .unwrap();
        assert!(settled(&c), "a slot in flight before any chunk");
        let mut half_moved = 0;
        while c.reconfiguring() {
            for p in 0..c.pair_transfers().len() {
                if c.reconfiguring() {
                    let _ = c.migrate_chunk(p, 48).unwrap();
                }
            }
            for (slot, &dest) in c.route_dest.iter().enumerate() {
                if dest != SETTLED {
                    half_moved += 1;
                    let pair = c
                        .pair_transfers()
                        .iter()
                        .find(|p| p.current_slot() == Some(slot as u64))
                        .expect("a marked slot is some pair's current one");
                    assert_eq!((pair.from, pair.to), (c.route_node[slot], dest));
                }
            }
        }
        assert!(half_moved > 0, "no slot was ever left half-moved");
        assert!(settled(&c), "a slot in flight after the commit");
        check_all_keys(&mut c, 200);
    }

    #[test]
    fn a_slot_moved_whole_is_never_in_flight() {
        // The benchmark's ratio: a chunk budget of 1.9 average slots, a
        // chunk every 16 transactions, 3 -> 6 -> 3. Every slot fits the
        // budget, so each leaves in one call and no transaction — they
        // touch every slot between any two chunks — meets moved data.
        let mut c = cluster(3);
        load_keys(&mut c, 2560);
        let budget = c.total_bytes() / 64 * 19 / 10;
        for slot in 0..64 {
            let (node, local) = c.partition_of_slot(slot);
            assert!(c.storage.slot_bytes_at(slot, node, local) <= budget);
        }
        let mut txns = 0usize;
        for target in [6, 3] {
            c.begin_reconfiguration(target).unwrap();
            while c.reconfiguring() {
                let pairs = c.pair_transfers();
                let pair = (0..pairs.len()).find(|&p| !pairs[p].is_done()).unwrap();
                let chunk = c.migrate_chunk(pair, budget).unwrap();
                assert!(chunk.slot_completed && chunk.rows > 0);
                assert!(c.route_dest.iter().all(|&d| d == SETTLED));
                for _ in 0..16 {
                    let key = format!("key-{}", txns * 37 % 2560);
                    c.execute(&Get { key: key.clone() }).unwrap();
                    c.execute(&Put {
                        key,
                        value: txns as i64,
                    })
                    .unwrap();
                    txns += 1;
                }
            }
        }
        assert_eq!(c.stats().touched_migrating, 0);
        assert_eq!(c.stats().aborted, 0);
        assert_eq!(c.stats().reconfigurations, 2);
        assert_eq!(c.total_rows(), 2560);
        c.verify_integrity().unwrap();
    }

    #[test]
    fn execute_at_slot_matches_execute() {
        // Resolving the slot first is the plain engine minus one hash:
        // same results, same stats, same counters, same stores.
        let mut a = cluster(3);
        let mut b = cluster(3);
        let mut tally = Tally::default();
        for i in 0..80 {
            let key = format!("key-{i}");
            let put = Put { key, value: i };
            let ra = tally.execute(&mut a, &put);
            let slot = b.slot_of_routing(&put.routing_key());
            assert_eq!(ra, b.execute_at_slot(&put, slot));
        }
        tally.assert_matches(&a, "execute");
        tally.assert_matches(&b, "execute_at_slot");
        check_all_keys(&mut b, 80);
        check_all_keys(&mut a, 80);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.slot_access_report(), b.slot_access_report());
        assert_eq!(a.export_table(0).unwrap(), b.export_table(0).unwrap());
    }

    #[test]
    fn bytes_to_move_matches_fraction() {
        let mut c = cluster(2);
        load_keys(&mut c, 1000);
        let total = c.total_bytes();
        let to_move = c.bytes_to_move(4);
        // Scale 2 -> 4 moves ~half the data.
        let frac = to_move as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn data_balanced_after_scale_out() {
        let mut c = cluster(2);
        load_keys(&mut c, 2000);
        c.begin_reconfiguration(5).unwrap();
        c.run_reconfiguration_to_completion(8192).unwrap();
        let report = c.partition_report();
        let node_bytes: Vec<usize> = (0..5)
            .map(|n| {
                report
                    .iter()
                    .filter(|r| r.0 == n)
                    .map(|r| r.3)
                    .sum::<usize>()
            })
            .collect();
        let mean = node_bytes.iter().sum::<usize>() as f64 / 5.0;
        for (n, &b) in node_bytes.iter().enumerate() {
            let dev = (b as f64 - mean).abs() / mean;
            assert!(dev < 0.25, "node {n} holds {b} bytes vs mean {mean}");
        }
    }

    #[test]
    fn execute_at_slot_through_a_live_scale_out() {
        // Every transaction's outcome through a 2 -> 5 scale-out with
        // traffic against in-flight slots between chunk moves, and
        // export / recount / integrity agreement once it commits.
        let mut c = Cluster::new(
            test_catalog(),
            ClusterConfig {
                partitions_per_node: 4,
                num_slots: 64,
            },
            2,
        );
        let mut tally = Tally::default();
        let mut at_slot = |c: &mut Cluster, proc: &dyn Procedure| {
            tally.count(c, proc);
            let slot = c.slot_of_routing(&proc.routing_key());
            c.execute_at_slot(proc, slot)
        };
        let mut model = std::collections::BTreeMap::new();
        for i in 0..200i64 {
            let key = format!("key-{i}");
            let put = Put {
                key: key.clone(),
                value: i,
            };
            assert_eq!(at_slot(&mut c, &put), Ok(TxnOutput::None));
            model.insert(key, i);
        }
        c.begin_reconfiguration(5).unwrap();
        let mut round = 0i64;
        while c.reconfiguring() {
            for p in 0..c.pair_transfers().len() {
                if c.reconfiguring() {
                    // Less than a slot's rows, so slots stay half-moved
                    // while the traffic below runs.
                    let _ = c.migrate_chunk(p, 48).unwrap();
                }
            }
            for i in 0..40i64 {
                let key = format!("key-{i}");
                let get = Get { key: key.clone() };
                assert_eq!(
                    at_slot(&mut c, &get),
                    Ok(TxnOutput::Row(Row(vec![Value::Int(model[&key])])))
                );
                // Overwrite half of them mid-flight; the new value must
                // be what the next round reads, whichever side holds it.
                if i % 2 == 0 {
                    let value = 1_000 * (round + 1) + i;
                    assert_eq!(
                        at_slot(
                            &mut c,
                            &Put {
                                key: key.clone(),
                                value
                            }
                        ),
                        Ok(TxnOutput::None)
                    );
                    model.insert(key, value);
                }
            }
            round += 1;
            assert!(round < 10_000, "migration did not converge");
        }
        let stats = c.stats();
        assert_eq!(stats.aborted, 0);
        assert_eq!(stats.committed, 200 + 60 * round.unsigned_abs());
        assert!(stats.touched_migrating > 0, "no access met moved data");
        assert_eq!(c.active_nodes(), 5);
        c.verify_integrity().unwrap();
        let exported: Vec<(String, i64)> = c
            .export_table(0)
            .unwrap()
            .into_iter()
            .map(|(k, row)| match (&k.parts()[0], &row.0[0]) {
                (KeyValue::Str(s), Value::Int(v)) => (s.to_string(), *v),
                other => panic!("unexpected row shape {other:?}"),
            })
            .collect();
        assert_eq!(exported, model.into_iter().collect::<Vec<_>>());
        let report = c.partition_report();
        assert_eq!(report.len(), 5 * 4);
        assert_eq!(report.iter().map(|r| r.4).sum::<usize>(), 200);
        assert_eq!(
            report.iter().map(|r| r.2).sum::<u64>(),
            stats.committed,
            "every transaction is one partition access"
        );
        tally.assert_matches(&c, "after a live scale-out");
    }
}
