//! The `pstore-verify` sweep: checks every invariant the workspace's
//! artifact producers are supposed to uphold, across an exhaustive
//! machine-count grid and randomized planner / forecast scenarios, and
//! exits non-zero if anything is violated.
//!
//! Run with `cargo run -p pstore-verify [--release]`. The sweep covers:
//!
//! 1. every migration-schedule pair `(A, B)` with `A, B <= 64` (`SCH-*`),
//! 2. randomized planner scenarios over mixed load shapes (`MOV-*`,
//!    `PLN-01/02`),
//! 3. small randomized instances cross-checked against a brute-force
//!    optimality oracle (`PLN-03`),
//! 4. forecaster output on periodic and noisy series (`FOR-*`),
//! 5. telemetry span traces generated through the live span API plus
//!    randomized histogram merges (`TEL-*`),
//! 6. serializability of the sampled
//!    key-level version histories from a fixed-seed detailed-sim run
//!    with reconfiguration traffic (`ISO-01..03`); the phase line gives
//!    the DSG's transaction, key and edge counts,
//! 7. the provisioning observatory's
//!    `prov_*` event family from fixed-seed reactive *and* predictive
//!    runs (`PRV-01..03`): ledger conservation,
//!    decision→reconfiguration causality, forecast bookkeeping; the phase
//!    line gives each policy's decision, reconfiguration, score and lead
//!    counts.

use pstore_core::planner::{Planner, PlannerConfig};
use pstore_forecast::{
    ArConfig, ArModel, ArmaConfig, ArmaModel, HoltWintersConfig, HoltWintersModel, LoadPredictor,
    OnlinePredictor, SparConfig, SparModel,
};
use pstore_verify::{concurrency, forecast, plan, schedule, telemetry, CheckStats, Violation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Largest machine count in the exhaustive schedule sweep.
const MAX_MACHINES: u32 = 64;
/// Randomized end-to-end planner scenarios (the acceptance bar is >= 100).
const PLANNER_SCENARIOS: usize = 128;
/// Randomized instances (up to 12 machines × 16 intervals) cross-checked
/// against the memoised optimality oracle.
const ORACLE_SCENARIOS: usize = 100;
/// Randomized forecast series per model family.
const FORECAST_SERIES: usize = 16;
/// Randomized telemetry span-trace / histogram-merge scenarios.
const TELEMETRY_SCENARIOS: usize = 64;
/// Parallel thread count for the concurrency sweep (each checker also
/// runs at 1 thread, the forced worker-reuse case).
const CONCURRENCY_THREADS: usize = 4;
fn main() {
    let mut all = Vec::new();

    let stats = schedule_sweep();
    report_phase(
        &format!("schedule sweep: all (A,B) pairs with A,B <= {MAX_MACHINES}"),
        &stats,
    );
    all.extend(stats.violations);

    let (stats, planned) = planner_sweep();
    report_phase(
        &format!("planner sweep: {PLANNER_SCENARIOS} randomized scenarios ({planned} feasible)"),
        &stats,
    );
    all.extend(stats.violations);

    let (stats, planned) = oracle_sweep();
    report_phase(
        &format!(
            "optimality oracle: {ORACLE_SCENARIOS} instances up to 12 machines x 16 intervals vs memoised oracle ({planned} feasible)"
        ),
        &stats,
    );
    all.extend(stats.violations);

    let stats = forecast_sweep();
    report_phase("forecast sweep: periodicity + randomized series", &stats);
    all.extend(stats.violations);

    let stats = telemetry_sweep();
    report_phase(
        &format!(
            "telemetry sweep: {TELEMETRY_SCENARIOS} span traces (pairing, ordering, profile conservation, txn lifecycles, rwsets) + histogram merges"
        ),
        &stats,
    );
    all.extend(stats.violations);

    let stats = concurrency_sweep();
    report_phase(
        &format!(
            "concurrency sweep: fault-injected sweep + merge + isolation at threads 1 and {CONCURRENCY_THREADS}"
        ),
        &stats,
    );
    all.extend(stats.violations);

    let (stats, counts) = iso_sweep();
    report_phase(
        &format!("iso sweep: serializability of sampled key histories with migrations ({counts})"),
        &stats,
    );
    all.extend(stats.violations);

    let (stats, counts) = prov_sweep();
    report_phase(
        &format!(
            "prov sweep: provisioning ledger, decision causality, forecast bookkeeping ({counts})"
        ),
        &stats,
    );
    all.extend(stats.violations);

    if all.is_empty() {
        println!("pstore-verify: all invariants hold");
    } else {
        eprintln!("pstore-verify: {} violation(s)\n", all.len());
        eprintln!("{}", pstore_core::invariant::report(&all));
        std::process::exit(1);
    }
}

fn report_phase(title: &str, stats: &CheckStats) {
    println!(
        "[{}] {title}: {} artifacts checked, {} violation(s)",
        if stats.is_clean() { "ok" } else { "FAIL" },
        stats.artifacts,
        stats.violations.len()
    );
}

/// Phase 1: every unordered pair covers both the scale-out and scale-in
/// schedule, so this examines all 64 x 64 ordered schedules.
fn schedule_sweep() -> CheckStats {
    let mut stats = CheckStats::default();
    for b in 1..=MAX_MACHINES {
        for a in b..=MAX_MACHINES {
            stats.absorb(schedule::check_schedule_pair(b, a));
        }
    }
    stats
}

/// Phase 2: randomized planner configurations and load shapes; every plan
/// produced is structurally validated and independently capacity-checked.
fn planner_sweep() -> (CheckStats, usize) {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let mut stats = CheckStats::default();
    let mut planned = 0usize;
    for case in 0..PLANNER_SCENARIOS {
        let q = rng.random_range(50.0..400.0);
        let max_machines = rng.random_range(4u32..=64);
        let cfg = PlannerConfig {
            q,
            d_intervals: rng.random_range(0.5..30.0),
            partitions_per_node: rng.random_range(1u32..=8),
            max_machines,
        };
        let n0 = rng.random_range(1u32..=max_machines.div_ceil(2));
        let horizon = rng.random_range(6usize..=48);
        let load = random_load(&mut rng, horizon, q, n0, max_machines);
        let planner = Planner::new(cfg);
        let label = format!("random scenario {case}");
        if planner.best_moves(&load, n0).is_some() {
            planned += 1;
        }
        stats.absorb(plan::check_plan(&planner, &load, n0, &label));
    }
    (stats, planned)
}

/// A random load curve: flat, ramp, step, sine or a bounded random walk,
/// scaled so `n0` usually carries the start and the peak usually fits the
/// hardware (some scenarios are deliberately infeasible).
fn random_load(rng: &mut StdRng, horizon: usize, q: f64, n0: u32, max_machines: u32) -> Vec<f64> {
    let base = q * n0 as f64 * rng.random_range(0.2..0.95);
    let peak = (q * max_machines as f64 * rng.random_range(0.2..1.05)).max(base);
    let n = horizon + 1;
    let shape = rng.random_range(0u32..5);
    (0..n)
        .map(|t| {
            let x = t as f64 / horizon.max(1) as f64;
            let v = match shape {
                0 => base,
                1 => base + (peak - base) * x,
                2 => {
                    if t >= n / 2 {
                        peak
                    } else {
                        base
                    }
                }
                3 => base + (peak - base) * (std::f64::consts::PI * x).sin().max(0.0),
                _ => base + (peak - base) * rng.random_range(0.0..1.0) * x,
            };
            (v * rng.random_range(0.95..1.05)).max(0.0)
        })
        .collect()
}

/// Phase 3: randomized instances cross-checked against the memoised
/// optimality oracle. The memoised `(interval, machines)` value-iteration
/// is polynomial, so the sweep covers instances up to 12 machines × 16
/// intervals — well past what the naive enumeration (kept as the oracle's
/// own reference, see `proptest_plan.rs`) could handle.
fn oracle_sweep() -> (CheckStats, usize) {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    let mut stats = CheckStats::default();
    let mut planned = 0usize;
    for case in 0..ORACLE_SCENARIOS {
        let max_machines = rng.random_range(2u32..=12);
        let cfg = PlannerConfig {
            q: 100.0,
            d_intervals: rng.random_range(0.3..6.0),
            partitions_per_node: rng.random_range(1u32..=2),
            max_machines,
        };
        let n0 = rng.random_range(1u32..=max_machines);
        let horizon = rng.random_range(6usize..=16);
        let load = random_load(&mut rng, horizon, cfg.q, n0, max_machines);
        let planner = Planner::new(cfg);
        let label = format!("oracle scenario {case}");
        if planner.best_moves(&load, n0).is_some() {
            planned += 1;
        }
        stats.absorb(plan::check_plan(&planner, &load, n0, &label));
        stats.absorb(plan::check_plan_optimality(&planner, &load, n0, &label));
    }
    (stats, planned)
}

/// Phase 4: SPAR periodicity, raw-model finiteness on noisy series, and
/// the clamped production path of `OnlinePredictor`.
fn forecast_sweep() -> CheckStats {
    let mut stats = CheckStats::default();
    stats.absorb(forecast::check_spar_periodicity(1.0));

    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    let period = 48;
    for series_idx in 0..FORECAST_SERIES {
        let series = noisy_periodic_series(&mut rng, period, period * 8);
        let horizon = period;

        let spar_cfg = SparConfig {
            period,
            n_periods: 3,
            m_recent: 8,
            taus: vec![1],
            ridge_lambda: 1e-4,
            max_rows: 20_000,
        };
        let fits: Vec<(String, Option<Box<dyn LoadPredictor>>)> = vec![
            (
                format!("SPAR on noisy series {series_idx}"),
                SparModel::fit(&series, &spar_cfg)
                    .ok()
                    .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
            (
                format!("AR on noisy series {series_idx}"),
                ArModel::fit(
                    &series,
                    &ArConfig {
                        order: 8,
                        ridge_lambda: 1e-4,
                        stride: 1,
                    },
                )
                .ok()
                .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
            (
                format!("ARMA on noisy series {series_idx}"),
                ArmaModel::fit(
                    &series,
                    &ArmaConfig {
                        p: 4,
                        q: 2,
                        long_ar_order: None,
                        ridge_lambda: 1e-4,
                        stride: 1,
                    },
                )
                .ok()
                .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
            (
                format!("Holt-Winters on noisy series {series_idx}"),
                HoltWintersModel::fit(
                    &series,
                    &HoltWintersConfig {
                        period,
                        alpha: 0.3,
                        beta: 0.05,
                        gamma: 0.2,
                    },
                )
                .ok()
                .map(|m| Box::new(m) as Box<dyn LoadPredictor>),
            ),
        ];
        for (artifact, model) in fits {
            match model {
                Some(m) => {
                    let preds = m.predict_horizon(&series, horizon);
                    stats.absorb(forecast::check_curve_finite(&artifact, &preds));
                }
                None => stats.absorb(vec![Violation::new(
                    pstore_core::InvariantId::ForecastFinite,
                    artifact,
                    "model failed to fit a well-conditioned series".to_string(),
                )]),
            }
        }

        // The production path: OnlinePredictor's forecasts must additionally
        // be non-negative (FOR-01 in full).
        let cfg = spar_cfg.clone();
        let mut online = OnlinePredictor::new(
            Box::new(move |hist: &[f64]| {
                SparModel::fit(hist, &cfg).map(|m| Box::new(m) as Box<dyn LoadPredictor>)
            }),
            cfg_min_history(&spar_cfg),
            period,
            period * 16,
        );
        online.seed(&series);
        match online.forecast(horizon) {
            Some(curve) => stats.absorb(forecast::check_curve(
                &format!("OnlinePredictor forecast on noisy series {series_idx}"),
                &curve,
            )),
            None => stats.absorb(vec![Violation::new(
                pstore_core::InvariantId::ForecastFinite,
                format!("OnlinePredictor forecast on noisy series {series_idx}"),
                "predictor not ready despite sufficient seed data".to_string(),
            )]),
        }
    }
    stats
}

fn cfg_min_history(cfg: &SparConfig) -> usize {
    cfg.min_history()
}

/// Phase 5: every trace produced through the live span API must satisfy
/// `TEL-01`/`TEL-02` (pairing/nesting), `TEL-04` (total event ordering
/// under a monotone sim clock) and `TEL-05` (profile-tree time
/// conservation), and randomized histogram merges must satisfy `TEL-03`
/// regardless of sample values or grouping. Each trace also carries
/// randomized per-transaction lifecycle traffic, which must satisfy
/// `TEL-06` (well-formed lifecycles, attribution summing) and `TXN-01`
/// (read/write sets consistent with declared partition access).
fn telemetry_sweep() -> CheckStats {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let mut stats = CheckStats::default();
    for case in 0..TELEMETRY_SCENARIOS {
        // Generate a well-formed randomized span tree through the real
        // begin/end API — sim-time-stamped so the profiler has real
        // durations to aggregate — captured by an in-memory sink.
        let (sink, handle) = pstore_telemetry::MemorySink::new();
        let guard = pstore_telemetry::install(std::rc::Rc::new(sink));
        let depth = rng.random_range(1usize..=4);
        let width = rng.random_range(1usize..=4);
        let mut now = 0.0;
        emit_span_tree(&mut rng, depth, width, &mut now);
        emit_txn_traffic(&mut rng, &mut now);
        pstore_telemetry::clear_time();
        drop(guard);
        let events = handle.events();
        let artifact = format!("span trace {case}");
        stats.absorb(telemetry::check_trace_spans(&artifact, &events));
        stats.absorb(telemetry::check_trace_order(&artifact, &events));
        stats.absorb(telemetry::check_profile_conservation(
            &artifact,
            &events,
            pstore_telemetry::ProfileClock::Sim,
        ));
        stats.absorb(telemetry::check_txn_lifecycle(&artifact, &events));
        stats.absorb(telemetry::check_txn_rwsets(&artifact, &events));

        // Random sample sets, including empties and extreme magnitudes.
        let mut set = || -> Vec<f64> {
            let n = rng.random_range(0usize..200);
            (0..n)
                .map(|_| {
                    let exp = rng.random_range(-7.0..6.0f64);
                    10f64.powf(exp)
                })
                .collect()
        };
        let sets = [set(), set(), set()];
        stats.absorb(telemetry::check_histogram_merge(
            &format!("histogram merge {case}"),
            &sets,
        ));
    }
    stats
}

/// Phase 6: the `CON-*` runtime checks — fault-injected sweeps, the
/// merge happens-before edge and registry isolation, each at 1 thread
/// (forced worker reuse) and at [`CONCURRENCY_THREADS`].
fn concurrency_sweep() -> CheckStats {
    let mut stats = CheckStats::default();
    for threads in [1, CONCURRENCY_THREADS] {
        stats.absorb(concurrency::check_queue_integrity(threads));
        stats.absorb(concurrency::check_merge_barrier(threads));
        stats.absorb(concurrency::check_registry_isolation(threads));
    }
    stats
}

/// Phase 7: the `ISO-01..03` serializability
/// sweep. Replays the ramp scenario — fixed seed, reactive scale-out,
/// live chunk migrations — decodes the sampled key-level version
/// histories out of the captured trace, and checks DSG acyclicity,
/// commit-order equivalence, and restart/version integrity. The run
/// must additionally be a *serial witness*: every dependency edge
/// points forward in commit order, because the engine executes
/// transactions one at a time in exactly that order. A run that
/// captures no histories (or induces no edges) fails — a vacuous pass
/// proves nothing.
///
/// Also returns the DSG's counts for the phase line.
fn iso_sweep() -> (CheckStats, String) {
    use pstore_core::InvariantId;
    use pstore_verify::iso;

    let mut stats = CheckStats::default();
    let mut counts = "no history decoded".to_string();
    let artifact = "detailed sim key history".to_string();
    // Sample roughly one arrival in seven.
    let (_result, events) = pstore_verify::captured_ramp_run(pstore_telemetry::TraceSpec {
        txn_sample_every: 7,
        ..Default::default()
    });
    match iso::histories_of(&events) {
        Ok(histories) => {
            let d = iso::dsg_stats(&histories);
            let mut violations = iso::check_key_histories(&artifact, &histories);
            if d.txns == 0 || d.wr + d.ww + d.rw == 0 {
                violations.push(Violation::new(
                    InvariantId::IsoDsgAcyclic,
                    artifact.clone(),
                    format!(
                        "vacuous history: {} sampled txns, {} dependency edges — nothing was checked",
                        d.txns,
                        d.wr + d.ww + d.rw
                    ),
                ));
            }
            for err in iso::serial_witness_errors(&histories) {
                violations.push(Violation::new(
                    InvariantId::IsoReadCommitOrder,
                    artifact.clone(),
                    format!("commit order is not a serial witness: {err}"),
                ));
            }
            counts = format!(
                "DSG: {} txns, {} keys, wr/ww/rw {}/{}/{}",
                d.txns, d.keys, d.wr, d.ww, d.rw
            );
            stats.absorb(violations);
        }
        Err(e) => stats.absorb(vec![Violation::new(
            InvariantId::IsoDsgAcyclic,
            artifact,
            format!("undecodable key history: {e}"),
        )]),
    }
    (stats, counts)
}

/// Phase 8: the `PRV-01..03` provisioning
/// sweep. Replays fixed-seed detailed runs with provenance events on —
/// the reactive ramp and a predictive flat-then-step scenario under the
/// P-Store controller with an oracle forecaster — and checks the
/// captured `prov_*` stream: ledger conservation against the raw
/// per-interval integral (PRV-01), decision→reconfiguration causality
/// and lead preservation (PRV-02), and exactly-once forecast scoring
/// against real observations (PRV-03). A trace with no decisions, no
/// reconfigurations or (for the reactive run) no forecast scores fails —
/// a vacuous pass proves nothing — and the predictive run must contain
/// at least one planned decision with a real lead, or the
/// lead-preservation check never fired.
///
/// Also returns each policy's counts for the phase line.
fn prov_sweep() -> (CheckStats, String) {
    use pstore_core::InvariantId;
    use pstore_verify::prov;

    let mut stats = CheckStats::default();
    let mut counts = Vec::new();
    for predictive in [false, true] {
        let policy = if predictive { "predictive" } else { "reactive" };
        let artifact = format!("detailed sim prov trace policy={policy}");
        let (_result, events) = prov::captured_prov_run(predictive);
        let runs = prov::raw_runs(&pstore_telemetry::decode_trace(&events).0);
        let decisions: usize = runs.iter().map(|r| r.decisions.len()).sum();
        let reconfigs: usize = runs.iter().map(|r| r.reconfigs.len()).sum();
        let scores: usize = runs.iter().map(|r| r.scores.len()).sum();
        let leads: usize = runs
            .iter()
            .flat_map(|r| &r.decisions)
            .filter(|(_, d)| d.lead >= 1)
            .count();
        let mut violations = prov::check_events(&artifact, &events);
        if decisions == 0 || reconfigs == 0 || scores == 0 {
            violations.push(Violation::new(
                InvariantId::ProvDecisionCausality,
                artifact.clone(),
                format!(
                    "vacuous trace: {decisions} decisions, {reconfigs} reconfigs, \
                     {scores} forecast scores — nothing was checked"
                ),
            ));
        }
        if predictive && leads == 0 {
            violations.push(Violation::new(
                InvariantId::ProvDecisionCausality,
                artifact.clone(),
                "predictive run issued no decision with lead >= 1 — the \
                 lead-preservation check never fired"
                    .to_string(),
            ));
        }
        counts.push(format!("{policy} {decisions}/{reconfigs}/{scores}/{leads}"));
        stats.absorb(violations);
    }
    let counts = format!(
        "decisions/reconfigs/scores/lead decisions: {}",
        counts.join(", ")
    );
    (stats, counts)
}

/// Emits a random tree of nested spans (interleaved with plain events)
/// through the live telemetry API. `now` is the sim clock, advanced by a
/// random positive step around every event so traces are totally ordered
/// (`TEL-04`) and spans have real durations for the profiler (`TEL-05`).
fn emit_span_tree(rng: &mut StdRng, depth: usize, width: usize, now: &mut f64) {
    for _ in 0..width {
        pstore_telemetry::set_time(*now);
        let id = pstore_telemetry::begin_span(pstore_telemetry::SpanName::Reconfig);
        *now += rng.random_range(0.0..2.0);
        pstore_telemetry::set_time(*now);
        pstore_telemetry::emit(pstore_telemetry::ChunkMove {
            bytes: 1000,
            ..Default::default()
        });
        if depth > 1 && rng.random_range(0u32..2) == 0 {
            let child_width = rng.random_range(1usize..=width);
            emit_span_tree(rng, depth - 1, child_width, now);
        }
        *now += rng.random_range(0.0..2.0);
        pstore_telemetry::set_time(*now);
        pstore_telemetry::end_span(pstore_telemetry::SpanName::Reconfig, id);
    }
}

/// Emits randomized per-transaction lifecycle traffic through the live
/// telemetry API, mirroring what the detailed simulator samples: arrive,
/// queue (with optional migration stall), execute or timeout-drop, a
/// read/write-set record, and a terminal commit/abort whose attribution
/// components sum to the end-to-end latency (`TEL-06`/`TXN-01` fodder).
fn emit_txn_traffic(rng: &mut StdRng, now: &mut f64) {
    use pstore_telemetry::{
        TxnAbort, TxnArrive, TxnCommit, TxnExecute, TxnQueue, TxnRestart, TxnRwset, TxnStall,
    };
    let txns = rng.random_range(2u64..24);
    for id in 1..=txns {
        *now += rng.random_range(0.0..0.5);
        pstore_telemetry::set_time(*now);
        let slot = rng.random_range(0u64..64);
        let migrating = rng.random_range(0u32..4) == 0;
        pstore_telemetry::emit(TxnArrive { id, slot });
        let stall = if migrating {
            rng.random_range(0.0..0.3)
        } else {
            0.0
        };
        let queue = rng.random_range(0.0..0.2);
        pstore_telemetry::emit(TxnQueue {
            id,
            wait: queue + stall,
            stall,
        });
        if stall > 0.0 {
            pstore_telemetry::emit(TxnStall { id, stall });
        }
        let exec = rng.random_range(0.001..0.05);
        let dropped = rng.random_range(0u32..8) == 0;
        if !dropped {
            pstore_telemetry::emit(TxnExecute { id, service: exec });
            if migrating && rng.random_range(0u32..2) == 0 {
                pstore_telemetry::emit(TxnRestart { id, slot });
            }
            let reads = rng.random_range(1u64..6);
            let writes = rng.random_range(0u64..3);
            pstore_telemetry::emit(TxnRwset {
                id,
                slot,
                proc: "ycsb".into(),
                reads,
                writes,
                dest_reads: if migrating { reads.min(1) } else { 0 },
                dest_writes: if migrating { writes.min(1) } else { 0 },
                migrating,
                restarted: false,
                committed: true,
                rset: None,
                wset: None,
            });
        }
        let (total, end) = (queue + exec + stall, *now + queue + stall + exec);
        if dropped {
            pstore_telemetry::emit(TxnAbort {
                id,
                total,
                queue,
                exec,
                stall,
                end,
                reason: Some("timeout".into()),
            });
        } else {
            pstore_telemetry::emit(TxnCommit {
                id,
                total,
                queue,
                exec,
                stall,
                end,
            });
        }
    }
}

/// A positive, roughly periodic series with multiplicative noise — the
/// kind of signal every model family should fit without blowing up.
fn noisy_periodic_series(rng: &mut StdRng, period: usize, len: usize) -> Vec<f64> {
    use std::f64::consts::PI;
    let base = rng.random_range(200.0..2_000.0);
    let amp = base * rng.random_range(0.2..0.6);
    (0..len)
        .map(|t| {
            let phase = 2.0 * PI * (t % period) as f64 / period as f64;
            let noise = 1.0 + 0.05 * (rng.random_range(0.0..1.0) - 0.5);
            ((base + amp * phase.sin()) * noise).max(1.0)
        })
        .collect()
}
