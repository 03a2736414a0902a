//! The metrics the benchmark reports, in the order it reports them. The
//! same names, units, directions and bounds are in `BENCHMARK.json`; a test
//! holds the two together.

/// An end-to-end metric. Every workload reports every one; the README says
/// what each means on each workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. Only the driver acts on it; it is here so
    /// the test can hold this table and `BENCHMARK.json` together.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated: repeats bit for bit at a given seed. (`allocs_per_op` is
    /// counted but not exact: hash-map resizes on the migration path depend
    /// on the per-process hash seed, a few allocations in a million.)
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("ops_per_s", "1/s", "higher", 0.25, false),
    e2e("reconfig_ops_per_s", "1/s", "higher", 0.25, false),
    e2e("peak_rss_mb", "MB", "lower", 0.15, false),
    e2e("allocs_per_op", "count", "lower", 0.02, false),
    e2e("served_pct", "%", "higher", 0.002, true),
    e2e("sla_ok_pct", "%", "higher", 0.005, true),
    e2e("avg_machines", "count", "lower", 0.2, true),
];

/// `(name, unit, better)` of every per-layer metric. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    ("b2w.next_txn_ns", "ns", "lower"),
    ("b2w.allocs_per_txn", "count", "lower"),
    ("b2w.readonly_share_pct", "%", "higher"),
    ("dbms.route_ns", "ns", "lower"),
    ("dbms.execute_ns", "ns", "lower"),
    ("dbms.execute_reconfig_ns", "ns", "lower"),
    ("dbms.allocs_per_txn", "count", "lower"),
    ("dbms.exec_ro_p50_ns", "ns", "lower"),
    ("dbms.exec_ro_p99_ns", "ns", "lower"),
    ("dbms.exec_rw_p50_ns", "ns", "lower"),
    ("dbms.exec_rw_p99_ns", "ns", "lower"),
    ("dbms.exec_samples", "count", "higher"),
    ("dbms.begin_reconfig_us", "us", "lower"),
    ("dbms.migrate_chunk_p50_us", "us", "lower"),
    ("dbms.migrate_chunk_p99_us", "us", "lower"),
    ("dbms.migrate_bytes_per_call", "B", "higher"),
    ("dbms.migrate_mb_per_s", "MB/s", "higher"),
    ("dbms.chunks", "count", "higher"),
    ("dbms.reconfigs", "count", "lower"),
    ("dbms.load_s", "s", "lower"),
    ("dbms.rows", "count", "lower"),
    ("dbms.data_mb", "MB", "lower"),
    ("dbms.rss_per_data_mb", "MB/MB", "lower"),
    ("sim.latency_record_ns", "ns", "lower"),
    ("sim.self_ns_per_txn", "ns", "lower"),
    ("sim.fast_slot_ns", "ns", "lower"),
    ("sim.p99_ms", "ms", "lower"),
    ("sim.sla_p99_violation_s", "s", "lower"),
    ("sim.setup_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.slices", "count", "higher"),
    ("sim.raw_ops_per_s", "1/s", "higher"),
    ("sim.slice_median_ns", "ns", "lower"),
    ("sim.slice_iqr_pct", "%", "lower"),
    ("core.tick_p50_us", "us", "lower"),
    ("core.tick_p99_us", "us", "lower"),
    ("core.tick_samples", "count", "higher"),
    ("core.plan_us", "us", "lower"),
    ("core.decisions", "count", "lower"),
    ("core.insufficient_pct", "%", "lower"),
    ("forecast.observe_p50_us", "us", "lower"),
    ("forecast.observe_max_ms", "ms", "lower"),
    ("forecast.forecast_p50_us", "us", "lower"),
    ("forecast.seed_s", "s", "lower"),
    ("forecast.mape_tau1_pct", "%", "lower"),
    ("forecast.mape_tau12_pct", "%", "lower"),
    ("telemetry.compiled_in_overhead_pct", "%", "lower"),
    ("trace.clock_pair_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("calib.probe_ms", "ms", "lower"),
    ("calib.probe_fast_ms", "ms", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is written by hand to the driver's contract; the
    /// program's tables must say the same, entry for entry and in order.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entries = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\": [")).expect(key);
            let body = &json[start..start + json[start..].find(']').expect("list closes")];
            body.lines()
                .map(|l| l.trim().trim_end_matches(','))
                .filter(|l| l.starts_with('{'))
                .map(str::to_string)
                .collect()
        };
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|e| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    e.name, e.unit, e.better, e.bound
                )
            })
            .collect();
        assert_eq!(entries("end_to_end"), end_to_end);
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
            })
            .collect();
        assert_eq!(entries("per_layer"), per_layer);
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|l| l.split('"').nth(3).expect("a name").to_string())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|l| l.0));
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(ok(name, "_.-", 64), "{name}");
        }
        for unit in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|l| l.1))
        {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }
}
