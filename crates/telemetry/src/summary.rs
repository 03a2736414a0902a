//! Run summaries: the document the golden gate compares byte for byte.
//!
//! A [`RunSummary`] flattens a trace (or [`RunReport`]) into named
//! scalar metrics — counters, histogram quantiles, SLA-violation
//! seconds, the `slo.*` and `prov.*` families — written as a small JSON
//! document (`{"schema":"pstore-run-summary/v1","metrics":{...}}`) by
//! `RunReporter --summary`. Every run is seeded and deterministic, so the
//! one golden, `results/golden/fig9_quick.summary.json`, is checked with
//! `cmp`, not under a tolerance: any change to a paper-facing number
//! (p99 tails, bytes moved, SLA seconds, the Fig 9 capacity areas — §8
//! of the paper) changes the bytes and has to be re-blessed on purpose.

use crate::json;
use crate::metrics::Histogram;
use crate::trace::RunReport;
use std::collections::BTreeMap;

/// Schema tag written into every summary document.
pub const SCHEMA: &str = "pstore-run-summary/v1";

/// A run flattened to named scalar metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Metric name -> value, in sorted order.
    pub metrics: BTreeMap<String, f64>,
}

impl RunSummary {
    /// Derives the summary from an aggregated [`RunReport`].
    pub fn from_report(report: &RunReport) -> Self {
        let mut metrics = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            metrics.insert(k.to_string(), v);
        };
        #[allow(clippy::cast_precision_loss, reason = "counts far below 2^53")]
        {
            put("events", report.events as f64);
            put("reconfigs", report.reconfigs.len() as f64);
            put("chunk_moves", report.chunk_moves as f64);
            let bytes: u64 = report.reconfigs.iter().map(|r| r.bytes_moved).sum();
            put("bytes_moved", bytes as f64);
            put("sla_violation_seconds", report.sla_violations as f64);
            put("planner_calls", report.planner_calls as f64);
            put("planner_feasible", report.planner_feasible as f64);
            put("forecasts", report.forecasts as f64);
            put("span_errors", report.span_errors.len() as f64);
        }
        let mut put_hist = |prefix: &str, h: &Histogram| {
            #[allow(clippy::cast_precision_loss, reason = "counts far below 2^53")]
            metrics.insert(format!("{prefix}.count"), h.count() as f64);
            metrics.insert(format!("{prefix}.p50"), h.quantile(0.50));
            metrics.insert(format!("{prefix}.p95"), h.quantile(0.95));
            metrics.insert(format!("{prefix}.p99"), h.quantile(0.99));
            metrics.insert(format!("{prefix}.max"), h.max());
        };
        put_hist("stable_p99", &report.stable_p99);
        put_hist("reconfig_p99", &report.reconfig_p99);
        #[allow(clippy::cast_precision_loss, reason = "counts far below 2^53")]
        metrics.insert(
            "throughput.count".to_string(),
            report.throughput.count() as f64,
        );
        metrics.insert("throughput.mean".to_string(), report.throughput.mean());
        RunSummary { metrics }
    }

    /// Derives the summary straight from a decoded trace, including
    /// the per-run SLA/attribution metrics (`slo.*`) from [`crate::slo`]
    /// and the provisioning-observatory metrics (`prov.*`) from
    /// [`crate::prov`]. Traces without `prov_*` events (the default —
    /// emission is gated) contribute no `prov.*` keys.
    pub fn from_trace(trace: &[crate::Entry]) -> Self {
        let mut summary = RunSummary::from_report(&RunReport::from_trace(trace));
        for (name, value) in crate::slo::metrics(&crate::slo::analyze(trace)) {
            summary.metrics.insert(name, value);
        }
        for (name, value) in crate::prov::metrics(&crate::prov::analyze(trace)) {
            summary.metrics.insert(name, value);
        }
        summary
    }

    /// Serialises the summary as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 40 * self.metrics.len());
        out.push_str("{\n  \"schema\": ");
        json::write_str(&mut out, SCHEMA);
        out.push_str(",\n  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            out.push_str("    ");
            json::write_str(&mut out, k);
            out.push_str(": ");
            json::write_f64(&mut out, *v);
            if i + 1 < self.metrics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChunkMove, Entry, ProvInterval, ProvRun, Second, SpanBegin, SpanEnd};
    use crate::event::{Record, SpanName};

    fn sample_summary() -> RunSummary {
        let records: Vec<Record> = vec![
            SpanBegin::reconfig(1, 2, 3).into(),
            ChunkMove {
                bytes: 2048,
                ..ChunkMove::default()
            }
            .into(),
            SpanEnd::new(1, SpanName::Reconfig).into(),
        ];
        let seconds = [0.01f64, 0.02, 0.03].map(|p99| {
            Record::from(Second {
                p99,
                throughput: 1000,
                ..Second::default()
            })
        });
        let trace: Vec<Entry> = records
            .into_iter()
            .chain(seconds)
            .zip(1..)
            .map(|(record, seq)| Entry {
                seq,
                ..Entry::new(record)
            })
            .collect();
        RunSummary::from_trace(&trace)
    }

    #[test]
    fn summary_flattens_report() {
        let s = sample_summary();
        assert_eq!(s.metrics.get("reconfigs"), Some(&1.0));
        assert_eq!(s.metrics.get("chunk_moves"), Some(&1.0));
        assert_eq!(s.metrics.get("bytes_moved"), Some(&2048.0));
        assert_eq!(s.metrics.get("stable_p99.count"), Some(&3.0));
        assert_eq!(s.metrics.get("span_errors"), Some(&0.0));
        assert!(s.metrics.contains_key("stable_p99.p99"));
    }

    #[test]
    fn to_json_writes_a_sorted_schema_tagged_document() {
        let s = RunSummary {
            metrics: [("b.x", 0.5), ("a", 3.0)]
                .map(|(k, v)| (k.to_string(), v))
                .into_iter()
                .collect(),
        };
        assert_eq!(
            s.to_json(),
            "{\n  \"schema\": \"pstore-run-summary/v1\",\n  \"metrics\": {\n    \"a\": 3,\n    \"b.x\": 0.5\n  }\n}\n"
        );
    }

    #[test]
    fn prov_metrics_flow_into_event_summaries() {
        let header = ProvRun {
            q: 100.0,
            interval_s: 1.0,
            initial: 1,
            policy: "reactive".into(),
            ..ProvRun::default()
        };
        let intervals = (0..3).map(|interval| {
            Entry::new(ProvInterval {
                interval,
                observed: 150.0,
                machines: 1,
                reconfiguring: false,
            })
        });
        let trace: Vec<Entry> = std::iter::once(Entry::new(header))
            .chain(intervals)
            .collect();
        let s = RunSummary::from_trace(&trace);
        // One machine serving 150 load against q=100 under-provisions.
        assert!(
            s.metrics
                .get("prov.run0.under_provision_machine_s")
                .is_some_and(|v| *v > 0.0),
            "metrics: {:?}",
            s.metrics
        );
        // Without prov events no prov.* key appears.
        let plain = sample_summary();
        assert!(!plain.metrics.keys().any(|k| k.starts_with("prov.")));
    }
}
