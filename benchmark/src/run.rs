//! One workload, measured in this process: the plain run that yields the
//! end-to-end metrics and the traced run that yields the per-layer ledger.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::cli::Args;
use crate::stats::{
    at_reference_speed, fast_quartile, fast_quartile_mean, median, slice_iqr_pct, summarize, Slice,
};
use crate::workloads::{control, engine, repeat_passes, sim, Measurement, Mode, Outcome, Workload};
use crate::{alloc, spans};
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What a run reports.
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the timed slices.
    pub attempted: u64,
    /// Operations of those that were dropped, aborted or failed.
    pub failed: u64,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The exact outcome (plain runs), as `expected.json` stores it.
    pub outcome: Option<String>,
    /// A header line, then one line per failed check.
    pub notes: Vec<String>,
}

/// Timed passes of `workload` for about `budget`. `short` selects the
/// traced run's shorter pass of `elastic_day`.
fn measure(
    workload: Workload,
    seed: u64,
    budget: Duration,
    mode: Mode,
    short: bool,
) -> Measurement {
    match workload {
        Workload::StaticSteady | Workload::ElasticDay => {
            let elastic = workload == Workload::ElasticDay;
            let spec = if short {
                sim::Spec::traced(elastic)
            } else {
                sim::Spec::timed(elastic)
            };
            repeat_passes(budget, || sim::pass(spec, seed))
        }
        Workload::EngineScaleCycle => engine::measure(seed, budget, mode).0,
        Workload::ControlLoop => repeat_passes(budget, || control::pass(seed, mode)),
    }
}

/// The pass of fixed work: heap allocations per operation, and for the
/// engine loop (whose timed run has no fixed length) the exact outcome.
/// Also returns the set-ups it had to perform and any failed checks.
fn fixed_work(workload: Workload, seed: u64) -> (f64, Option<Outcome>, Vec<f64>, Vec<String>) {
    if workload == Workload::EngineScaleCycle {
        let (outcome, allocs_per_op, setups, errors) = engine::fixed_work(seed);
        return (allocs_per_op, Some(outcome), setups, errors);
    }
    alloc::set_counting(true);
    let (cut, _, errors) = match workload {
        Workload::ControlLoop => control::pass(seed, Mode::Plain),
        _ => sim::pass(sim::Spec::counted(workload == Workload::ElasticDay), seed),
    };
    alloc::set_counting(false);
    (
        cut.allocations as f64 / cut.work,
        None,
        vec![cut.setup_s],
        errors,
    )
}

/// One more set-up, timed.
fn setup_once(workload: Workload, seed: u64) -> f64 {
    match workload {
        Workload::StaticSteady | Workload::ElasticDay => {
            let spec = sim::Spec::setup_only(workload == Workload::ElasticDay);
            sim::pass(spec, seed).0.setup_s
        }
        Workload::EngineScaleCycle => engine::Db::load(&engine::BIG, seed).load_s,
        Workload::ControlLoop => control::pass(seed, Mode::Plain).0.setup_s,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(ops_per_s, reconfig_ops_per_s)`: operations per second at reference
/// speed, the fast quartile of the settled slices and of those touching a
/// reconfiguration. A workload without one of the strata reports the
/// throughput of the other for it.
fn throughput(slices: &[Slice]) -> (f64, f64) {
    let slices = at_reference_speed(slices);
    let moving = fast_quartile(&slices, |s| s.reconfig);
    let settled = fast_quartile(&slices, |s| !s.reconfig)
        .or(moving)
        .unwrap_or(0.0);
    (settled, moving.unwrap_or(settled))
}

/// `(median, fast quartile)` of the calibration probe's times around the
/// slices, in ms. Both follow the host. If they differ between two versions
/// of the program pair after pair, on alternating runs, the probe was not
/// independent of the change and times at reference speed do not compare:
/// go by the raw ones.
fn probe_ms(slices: &[Slice]) -> (f64, f64) {
    let nanos: Vec<f64> = slices.iter().map(|s| s.probe_nanos).collect();
    (median(nanos.clone()) / 1e6, fast_quartile_mean(nanos) / 1e6)
}

/// Fast-quartile throughput of the settled slices as the stopwatch saw them,
/// not at reference speed (of all slices where none is settled).
fn raw_ops_per_s(slices: &[Slice]) -> f64 {
    fast_quartile(slices, |s| !s.reconfig)
        .or_else(|| fast_quartile(slices, |_| true))
        .unwrap_or(0.0)
}

fn header(args: &Args, workload: Workload, m: &Measurement) -> String {
    let (probe, probe_fast) = probe_ms(&m.slices);
    format!(
        "# {} seed={:#x} seconds={} trace={} passes={} slices={} (of which reconfiguring {}) \
         op={} probe_ms={probe:.3} probe_fast_ms={probe_fast:.3} raw_ops_per_s={:.0}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.passes,
        m.slices.len(),
        m.slices.iter().filter(|s| s.reconfig).count(),
        workload.op(),
        raw_ops_per_s(&m.slices),
    )
}

/// The end-to-end run, tracing off.
pub fn plain(args: &Args, workload: Workload) -> Report {
    let budget = Duration::from_secs(args.seconds);
    let mut m = measure(workload, args.seed, budget, Mode::Plain, false);
    let mut notes = vec![header(args, workload, &m)];
    let mut errors = std::mem::take(&mut m.errors);

    let (allocs_per_op, fixed_outcome, setups, fixed_errors) = fixed_work(workload, args.seed);
    errors.extend(fixed_errors);
    m.setup_s.extend(setups);
    while m.setup_s.len() < SETUPS {
        m.setup_s.push(setup_once(workload, args.seed));
    }
    let outcome = fixed_outcome.unwrap_or(m.outcome);

    let (settled, moving) = throughput(&m.slices);
    let values = [
        ("setup_s", median(m.setup_s.clone())),
        ("ops_per_s", settled),
        ("reconfig_ops_per_s", moving),
        ("peak_rss_mb", peak_rss_mb()),
        ("allocs_per_op", allocs_per_op),
        ("served_pct", outcome.served_pct()),
        ("sla_ok_pct", outcome.sla_ok_pct()),
        ("avg_machines", outcome.avg_machines),
    ];
    let correct = errors.is_empty();
    notes.extend(errors);
    Report {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics: in_catalogue_order(END_TO_END.iter().map(|e| (e.name, e.unit)), &values),
        outcome: Some(outcome.canonical()),
        notes,
    }
}

/// Plain throughput of the traced run's pass, for comparing builds of the
/// benchmark across processes.
pub fn probe(args: &Args, workload: Workload) -> f64 {
    let budget = Duration::from_secs(args.seconds);
    throughput(&measure(workload, args.seed, budget, Mode::Plain, true).slices).0
}

/// Runs the `telemetry` build's probe and returns its throughput.
fn telemetry_probe(
    bin: &Path,
    args: &Args,
    workload: Workload,
    seconds: u64,
) -> Result<f64, String> {
    let output = Command::new(bin)
        .args(["--probe", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", bin.display(), output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("{} printed no throughput: {e}", bin.display()))
}

fn pct_slower(baseline: f64, other: f64) -> f64 {
    100.0 * (baseline - other) / baseline
}

/// `a / b`, or 0 where there was nothing to divide by: a layer the workload
/// never called.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The measured values as `(name, value, unit)` in the catalogue's order.
/// Panics if the two do not name the same metrics: that is a bug here.
fn in_catalogue_order(
    catalogue: impl ExactSizeIterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    assert_eq!(
        catalogue.len(),
        values.len(),
        "metrics measured and catalogued differ"
    );
    catalogue
        .map(|(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name);
            let value = value.unwrap_or_else(|| panic!("{name} is catalogued but not measured"));
            (name, value.1, unit)
        })
        .collect()
}

/// The per-layer run: the workload once plain and once with spans around
/// every call the benchmark makes, the per-transaction ledger, and the
/// telemetry build, each for a quarter of the time.
pub fn traced(args: &Args, workload: Workload) -> Report {
    let quarter = Duration::from_secs(args.seconds) / 4;
    let clock_pair_ns = spans::clock_pair_ns();
    let plain = measure(workload, args.seed, quarter, Mode::Plain, true);
    spans::start();
    let (mut m, engine_db) = if workload == Workload::EngineScaleCycle {
        let (m, db) = engine::measure(args.seed, quarter, Mode::Traced);
        (m, Some(db))
    } else {
        (
            measure(workload, args.seed, quarter, Mode::Traced, true),
            None,
        )
    };
    let mut notes = vec![header(args, workload, &m)];
    let mut errors = std::mem::take(&mut m.errors);
    errors.extend(plain.errors);
    if workload != Workload::EngineScaleCycle && m.outcome != plain.outcome {
        errors.push(format!(
            "the traced run decided differently: {} vs {}",
            m.outcome.canonical(),
            plain.outcome.canonical()
        ));
    }

    let plain_ops = throughput(&plain.slices).0;
    let traced_ops = throughput(&m.slices).0;
    let is_sim = matches!(workload, Workload::StaticSteady | Workload::ElasticDay);
    let db = match workload {
        Workload::StaticSteady | Workload::ElasticDay => Some(sim::ledger(
            workload == Workload::ElasticDay,
            args.seed,
            quarter / 2,
        )),
        // The engine loop is its own ledger: its traced slices already ran
        // layer by layer.
        _ => engine_db.map(|mut db| {
            db.count_layer_allocations();
            db
        }),
    };
    let telemetry_overhead = match &args.telemetry_bin {
        Some(bin) => match telemetry_probe(bin, args, workload, quarter.as_secs().max(1)) {
            Ok(ops) => pct_slower(plain_ops, ops),
            Err(e) => {
                errors.push(e);
                0.0
            }
        },
        None => 0.0,
    };

    let layer_ns = |name: &str| fast_quartile_mean(spans::take_samples(name));
    let per_counted =
        |name: &str| ratio(spans::counter(name), spans::counter("ledger.counted_txns"));
    let fact = |name: &str| {
        m.outcome
            .facts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let next_txn_ns = layer_ns("b2w.next_txn");
    let route_ns = layer_ns("dbms.route");
    let execute_ns = layer_ns("dbms.execute");
    let record_ns = layer_ns("sim.latency_record");
    // The whole and its layers, all at reference speed: what is left is
    // the simulator's own event loop.
    let self_ns = if is_sim {
        1e9 / plain_ops - next_txn_ns - route_ns - execute_ns - record_ns
    } else {
        0.0
    };
    if self_ns < 0.0 {
        errors.push(format!(
            "the layers sum to more than the whole: sim.self_ns_per_txn = {self_ns:.1}"
        ));
    }
    let ro = summarize(spans::take_samples("dbms.exec_ro"));
    let rw = summarize(spans::take_samples("dbms.exec_rw"));
    let chunk_total = spans::total("dbms.migrate_chunk");
    let chunk = summarize(spans::take_samples("dbms.migrate_chunk"));
    let moved_bytes = spans::counter("dbms.migrate_bytes");
    let tick_total = spans::total("core.tick");
    let tick = summarize(spans::take_samples("core.tick"));
    let observe = summarize(spans::take_samples("forecast.observe"));
    let forecast = summarize(spans::take_samples("forecast.forecast"));
    let (rows, data_bytes) = db
        .as_ref()
        .and_then(|db| db.audit().map_err(|e| errors.push(e)).ok())
        .unwrap_or_default();
    let data_mb = data_bytes as f64 / 1e6;
    let [mape_tau1, mape_tau12] = control::mape_pct();
    let all_ns: Vec<f64> = m.slices.iter().map(|s| s.nanos / s.work).collect();
    let mean_ns = |name: &str| {
        let total = spans::total(name);
        ratio(total.nanos as f64, total.calls as f64)
    };
    let (probe, probe_fast) = probe_ms(&m.slices);

    let values = [
        ("b2w.next_txn_ns", next_txn_ns),
        ("b2w.allocs_per_txn", per_counted("b2w.allocations")),
        (
            "b2w.readonly_share_pct",
            100.0 * ratio(spans::counter("b2w.read_only"), spans::counter("b2w.txns")),
        ),
        ("dbms.route_ns", route_ns),
        ("dbms.execute_ns", execute_ns),
        (
            "dbms.execute_reconfig_ns",
            layer_ns("dbms.execute_reconfig"),
        ),
        ("dbms.allocs_per_txn", per_counted("dbms.allocations")),
        ("dbms.exec_ro_p50_ns", ro.p50),
        ("dbms.exec_ro_p99_ns", ro.p99),
        ("dbms.exec_rw_p50_ns", rw.p50),
        ("dbms.exec_rw_p99_ns", rw.p99),
        ("dbms.exec_samples", (ro.n + rw.n) as f64),
        (
            "dbms.begin_reconfig_us",
            mean_ns("dbms.begin_reconfig") / 1e3,
        ),
        ("dbms.migrate_chunk_p50_us", chunk.p50 / 1e3),
        ("dbms.migrate_chunk_p99_us", chunk.p99 / 1e3),
        (
            "dbms.migrate_bytes_per_call",
            ratio(moved_bytes, chunk.n as f64),
        ),
        (
            "dbms.migrate_mb_per_s",
            ratio(moved_bytes / 1e6, chunk_total.nanos as f64 / 1e9),
        ),
        ("dbms.chunks", chunk.n as f64),
        (
            "dbms.reconfigs",
            if workload == Workload::EngineScaleCycle {
                spans::counter("dbms.reconfigs")
            } else {
                m.outcome.reconfigurations as f64
            },
        ),
        ("dbms.load_s", db.as_ref().map_or(0.0, |db| db.load_s)),
        ("dbms.rows", rows as f64),
        ("dbms.data_mb", data_mb),
        ("dbms.rss_per_data_mb", ratio(peak_rss_mb(), data_mb)),
        ("sim.latency_record_ns", record_ns),
        ("sim.self_ns_per_txn", self_ns),
        (
            "sim.fast_slot_ns",
            if workload == Workload::ControlLoop {
                control::fast_slot_ns(args.seed)
            } else {
                0.0
            },
        ),
        ("sim.p99_ms", fact("sim.p99_ms")),
        ("sim.sla_p99_violation_s", fact("sim.sla_p99_violation_s")),
        ("sim.setup_s", median(m.setup_s.clone())),
        (
            "sim.run_s",
            m.slices.iter().map(|s| s.nanos).sum::<f64>() / 1e9,
        ),
        ("sim.slices", m.slices.len() as f64),
        ("sim.raw_ops_per_s", raw_ops_per_s(&plain.slices)),
        ("sim.slice_median_ns", median(all_ns)),
        ("sim.slice_iqr_pct", slice_iqr_pct(&m.slices)),
        ("core.tick_p50_us", tick.p50 / 1e3),
        ("core.tick_p99_us", tick.p99 / 1e3),
        ("core.tick_samples", tick.n as f64),
        ("core.plan_us", tick_total.self_ns_per_call() / 1e3),
        ("core.decisions", spans::counter("core.decisions")),
        ("core.insufficient_pct", fact("core.insufficient_pct")),
        ("forecast.observe_p50_us", observe.p50 / 1e3),
        ("forecast.observe_max_ms", observe.max / 1e6),
        ("forecast.forecast_p50_us", forecast.p50 / 1e3),
        ("forecast.seed_s", mean_ns("forecast.seed") / 1e9),
        ("forecast.mape_tau1_pct", mape_tau1),
        ("forecast.mape_tau12_pct", mape_tau12),
        ("telemetry.compiled_in_overhead_pct", telemetry_overhead),
        ("trace.clock_pair_ns", clock_pair_ns),
        ("trace.overhead_pct", pct_slower(plain_ops, traced_ops)),
        ("trace.spans", spans::spans_opened() as f64),
        ("calib.probe_ms", probe),
        ("calib.probe_fast_ms", probe_fast),
    ];

    let trace_file = args.out.join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(&args.out).and_then(|()| spans::write_jsonl(&trace_file))
    {
        errors.push(format!("cannot write {}: {e}", trace_file.display()));
    }
    let correct = errors.is_empty();
    notes.extend(errors);
    Report {
        correct,
        attempted: m.attempted + plain.attempted,
        failed: m.failed + plain.failed,
        metrics: in_catalogue_order(PER_LAYER.iter().map(|l| (l.0, l.1)), &values),
        outcome: None,
        notes,
    }
}
