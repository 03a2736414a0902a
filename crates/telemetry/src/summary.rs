//! Run summaries and the trace-diff regression gate.
//!
//! A [`RunSummary`] flattens a trace (or [`RunReport`]) into named
//! scalar metrics — counters, histogram quantiles, SLA-violation
//! seconds — serialisable as a small JSON document
//! (`{"schema":"pstore-run-summary/v1","metrics":{...}}`). Golden
//! summaries for canonical runs live under `results/golden/`, and
//! `pstore-trace diff <baseline> <candidate>` compares two summaries
//! against per-metric tolerances ([`ToleranceTable`]), exiting non-zero
//! on regression. This is the first automated guard on the paper-facing
//! metrics themselves (p99 tails, bytes moved per reconfiguration, SLA
//! seconds — §8 of the paper).

use crate::json::{self, Json};
use crate::metrics::Histogram;
use crate::trace::{self, RunReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag written into every summary document.
pub const SCHEMA: &str = "pstore-run-summary/v1";

/// Metric counting the names outside every known family (see
/// [`known_metric`]). Always present in summaries built by
/// [`RunSummary::from_trace`] or parsed by
/// [`RunSummary::from_json_str`], and gated at zero tolerance so any
/// drift in the count is a regression.
pub const UNKNOWN_METRICS: &str = "meta.unknown_metrics";

/// Whether `name` belongs to a metric family the summary schema
/// understands: the fixed per-report counters plus the
/// `stable_p99.*` / `reconfig_p99.*` / `throughput.*` / `slo.*` /
/// `prov.*` / `meta.*` families.
///
/// Unknown names are *tolerated* — they stay in the metric map and the
/// diff still compares them — but they are *counted* into
/// [`UNKNOWN_METRICS`]. Without the count, a typo'd family name
/// (`prv.run0.mape` for `prov.run0.mape`) would silently ride through
/// the gate as "new metric, passes" while the real metric quietly
/// vanished from future baselines.
pub fn known_metric(name: &str) -> bool {
    const EXACT: [&str; 9] = [
        "events",
        "reconfigs",
        "chunk_moves",
        "bytes_moved",
        "sla_violation_seconds",
        "planner_calls",
        "planner_feasible",
        "forecasts",
        "span_errors",
    ];
    const FAMILIES: [&str; 6] = [
        "stable_p99.",
        "reconfig_p99.",
        "throughput.",
        "slo.",
        "prov.",
        "meta.",
    ];
    EXACT.contains(&name) || FAMILIES.iter().any(|p| name.starts_with(p))
}

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
        #[allow(clippy::cast_precision_loss)] // counts far below 2^53
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
            #[allow(clippy::cast_precision_loss)] // counts far below 2^53
            metrics.insert(format!("{prefix}.count"), h.count() as f64);
            metrics.insert(format!("{prefix}.p50"), h.quantile(0.50));
            metrics.insert(format!("{prefix}.p95"), h.quantile(0.95));
            metrics.insert(format!("{prefix}.p99"), h.quantile(0.99));
            metrics.insert(format!("{prefix}.max"), h.max());
        };
        put_hist("stable_p99", &report.stable_p99);
        put_hist("reconfig_p99", &report.reconfig_p99);
        #[allow(clippy::cast_precision_loss)] // counts far below 2^53
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
    /// emission is gated) contribute no `prov.*` keys, keeping
    /// pre-existing golden summaries comparable.
    pub fn from_trace(trace: &[crate::Entry]) -> Self {
        let mut summary = RunSummary::from_report(&RunReport::from_trace(trace));
        for (name, value) in crate::slo::metrics(&crate::slo::analyze(trace)) {
            summary.metrics.insert(name, value);
        }
        for (name, value) in crate::prov::metrics(&crate::prov::analyze(trace)) {
            summary.metrics.insert(name, value);
        }
        summary.count_unknown();
        summary
    }

    /// Recounts the metric names outside every known family into
    /// [`UNKNOWN_METRICS`]. The names themselves are kept — tolerated,
    /// diffed — but the count makes them explicit so a typo'd family
    /// can't be silently absorbed.
    fn count_unknown(&mut self) {
        #[allow(clippy::cast_precision_loss)] // counts far below 2^53
        let unknown = self.metrics.keys().filter(|k| !known_metric(k)).count() as f64;
        self.metrics.insert(UNKNOWN_METRICS.to_string(), unknown);
    }

    /// Loads a summary from either a `.jsonl` trace (summarised on the
    /// fly) or a `.json` summary document.
    ///
    /// # Errors
    /// Fails on I/O problems, malformed or undecodable trace lines
    /// (reported with their 1-based line number — the diff gate must not
    /// trust a summary built from a corrupt trace), or a bad summary
    /// document.
    pub fn load(path: &Path) -> Result<RunSummary, String> {
        let is_trace = path.extension().is_some_and(|e| e == "jsonl");
        if is_trace {
            let (entries, errors) =
                trace::read_jsonl(path).map_err(|e| format!("{}: {e}", path.display()))?;
            if let Some(first) = errors.first() {
                return Err(format!(
                    "{}: {} malformed line(s); first at line {}: {}",
                    path.display(),
                    errors.len(),
                    first.line,
                    first.msg
                ));
            }
            Ok(RunSummary::from_trace(&entries))
        } else {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            RunSummary::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
        }
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

    /// Parses a summary document produced by [`RunSummary::to_json`].
    ///
    /// [`UNKNOWN_METRICS`] is recomputed from the parsed names rather
    /// than trusted from the document, so a hand-edited or typo'd
    /// summary reports its own drift.
    ///
    /// # Errors
    /// Fails on JSON errors, a missing/foreign `schema` tag, or
    /// non-numeric metric values.
    pub fn from_json_str(text: &str) -> Result<RunSummary, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let obj = value.as_obj().ok_or("summary is not a JSON object")?;
        match obj.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported schema \"{s}\" (want \"{SCHEMA}\")")),
            None => return Err("missing \"schema\" tag".to_string()),
        }
        let metrics_obj = obj
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing \"metrics\" object")?;
        let mut metrics = BTreeMap::new();
        for (k, v) in metrics_obj {
            let v = v
                .as_num()
                .ok_or_else(|| format!("metric \"{k}\" is not a number"))?;
            metrics.insert(k.clone(), v);
        }
        let mut summary = RunSummary { metrics };
        summary.count_unknown();
        Ok(summary)
    }
}

/// Allowed drift for one metric: a value passes when
/// `|cand - base| <= max(abs, rel * |base|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative slack, as a fraction of the baseline's magnitude.
    pub rel: f64,
    /// Absolute slack, in the metric's own units.
    pub abs: f64,
}

impl Tolerance {
    /// True when `cand` is within this tolerance of `base`.
    pub fn accepts(&self, base: f64, cand: f64) -> bool {
        (cand - base).abs() <= self.abs.max(self.rel * base.abs())
    }
}

/// Per-metric tolerance rules: exact names or `prefix*` patterns, looked
/// up most-specific-first, with a default for everything else. File
/// rules (from `--tolerances <path>`) outrank the built-in table.
#[derive(Debug, Clone)]
pub struct ToleranceTable {
    default: Tolerance,
    /// `(pattern, tolerance)`; a trailing `*` makes it a prefix pattern.
    rules: Vec<(String, Tolerance)>,
}

impl Default for ToleranceTable {
    fn default() -> Self {
        Self::builtin()
    }
}

impl ToleranceTable {
    /// The built-in table used when no tolerance file is given: exact
    /// counters get 2% slack, histogram quantiles 15% (log-bucket
    /// resolution is ~9%), SLA seconds 25% or 3 s, reconfiguration
    /// count ±1, and any new span error — or any change in the
    /// unknown-metric count — is an outright regression.
    pub fn builtin() -> Self {
        let t = |rel: f64, abs: f64| Tolerance { rel, abs };
        ToleranceTable {
            default: t(0.02, 1e-9),
            rules: vec![
                ("span_errors".to_string(), t(0.0, 0.0)),
                (UNKNOWN_METRICS.to_string(), t(0.0, 0.0)),
                ("reconfigs".to_string(), t(0.0, 1.0)),
                ("sla_violation_seconds".to_string(), t(0.25, 3.0)),
                ("slo.*".to_string(), t(0.25, 1.0)),
                ("prov.*".to_string(), t(0.25, 1.0)),
                ("chunk_moves".to_string(), t(0.05, 2.0)),
                ("bytes_moved".to_string(), t(0.05, 0.0)),
                ("stable_p99.count".to_string(), t(0.02, 1.0)),
                ("reconfig_p99.count".to_string(), t(0.05, 5.0)),
                ("throughput.count".to_string(), t(0.02, 1.0)),
                ("stable_p99.*".to_string(), t(0.15, 1e-3)),
                ("reconfig_p99.*".to_string(), t(0.20, 2e-3)),
                ("throughput.*".to_string(), t(0.10, 1.0)),
            ],
        }
    }

    /// Parses a tolerance file and layers it over the built-in table:
    ///
    /// ```json
    /// {
    ///   "default": {"rel": 0.02, "abs": 0.0},
    ///   "metrics": {
    ///     "stable_p99.p99": {"rel": 0.25},
    ///     "throughput.*":  {"rel": 0.10, "abs": 5.0}
    ///   }
    /// }
    /// ```
    ///
    /// Omitted `rel`/`abs` components default to 0.
    ///
    /// # Errors
    /// Fails on JSON errors or non-numeric components.
    pub fn from_json_str(text: &str) -> Result<ToleranceTable, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let obj = value
            .as_obj()
            .ok_or("tolerance file is not a JSON object")?;
        let parse_tol = |v: &Json, what: &str| -> Result<Tolerance, String> {
            let o = v
                .as_obj()
                .ok_or_else(|| format!("{what} is not an object"))?;
            let comp = |key: &str| -> Result<f64, String> {
                match o.get(key) {
                    None => Ok(0.0),
                    Some(v) => v
                        .as_num()
                        .ok_or_else(|| format!("{what}.{key} is not a number")),
                }
            };
            Ok(Tolerance {
                rel: comp("rel")?,
                abs: comp("abs")?,
            })
        };
        let mut table = ToleranceTable::builtin();
        if let Some(d) = obj.get("default") {
            table.default = parse_tol(d, "default")?;
        }
        if let Some(metrics) = obj.get("metrics") {
            let metrics = metrics.as_obj().ok_or("\"metrics\" is not an object")?;
            // File rules take priority: prepend them (lookup scans in order).
            let mut file_rules = Vec::new();
            for (pattern, v) in metrics {
                file_rules.push((pattern.clone(), parse_tol(v, pattern)?));
            }
            file_rules.append(&mut table.rules);
            table.rules = file_rules;
        }
        Ok(table)
    }

    /// The tolerance applied to `metric`: first exact match in rule
    /// order, else the first matching `prefix*` pattern in rule order
    /// (file rules precede built-ins, so a file pattern always wins),
    /// else the default.
    pub fn lookup(&self, metric: &str) -> Tolerance {
        for (pattern, tol) in &self.rules {
            if pattern == metric {
                return *tol;
            }
        }
        for (pattern, tol) in &self.rules {
            if let Some(prefix) = pattern.strip_suffix('*') {
                if metric.starts_with(prefix) {
                    return *tol;
                }
            }
        }
        self.default
    }
}

/// One metric's comparison in a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` when the metric is new in the candidate).
    pub base: Option<f64>,
    /// Candidate value (`None` when the metric vanished).
    pub cand: Option<f64>,
    /// The tolerance that was applied.
    pub tolerance: Tolerance,
    /// True when this line fails the gate.
    pub regression: bool,
}

/// The result of diffing two summaries.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every compared metric, sorted by name.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Lines that fail the gate.
    pub fn regressions(&self) -> Vec<&DiffLine> {
        self.lines.iter().filter(|l| l.regression).collect()
    }

    /// True when no metric regressed.
    pub fn is_clean(&self) -> bool {
        self.lines.iter().all(|l| !l.regression)
    }

    /// Renders the diff table; `verbose` includes in-tolerance lines.
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let regressions = self.regressions();
        let _ = writeln!(
            out,
            "trace diff: {} metric(s) compared, {} regression(s)",
            self.lines.len(),
            regressions.len()
        );
        let fmt_opt = |v: Option<f64>| v.map_or("(missing)".to_string(), |v| format!("{v:.6}"));
        for line in &self.lines {
            if !line.regression && !verbose {
                continue;
            }
            let marker = if line.regression { "FAIL" } else { "  ok" };
            let _ = writeln!(
                out,
                "  {marker} {:<28} base {:>14} -> cand {:>14}  (tol rel {} abs {})",
                line.metric,
                fmt_opt(line.base),
                fmt_opt(line.cand),
                line.tolerance.rel,
                line.tolerance.abs
            );
        }
        if regressions.is_empty() {
            let _ = writeln!(out, "  within tolerance: no regression");
        }
        out
    }
}

/// Compares `candidate` against `baseline` under `table`. Every metric
/// present in the baseline must exist in the candidate and sit within
/// tolerance (drift in *either* direction fails — a too-good-to-be-true
/// p99 usually means the workload silently changed). Metrics new in the
/// candidate are reported but pass: instrumentation is allowed to grow.
pub fn diff(baseline: &RunSummary, candidate: &RunSummary, table: &ToleranceTable) -> DiffReport {
    let mut lines = Vec::new();
    for (metric, base) in &baseline.metrics {
        let tolerance = table.lookup(metric);
        let cand = candidate.metrics.get(metric).copied();
        let regression = match cand {
            Some(c) => !tolerance.accepts(*base, c),
            None => true,
        };
        lines.push(DiffLine {
            metric: metric.clone(),
            base: Some(*base),
            cand,
            tolerance,
            regression,
        });
    }
    for (metric, cand) in &candidate.metrics {
        if !baseline.metrics.contains_key(metric) {
            lines.push(DiffLine {
                metric: metric.clone(),
                base: None,
                cand: Some(*cand),
                tolerance: table.lookup(metric),
                regression: false,
            });
        }
    }
    lines.sort_by(|a, b| a.metric.cmp(&b.metric));
    DiffReport { lines }
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
    fn summary_json_round_trips() {
        let s = sample_summary();
        let text = s.to_json();
        assert!(text.contains(SCHEMA));
        let back = RunSummary::from_json_str(&text).unwrap_or_default();
        assert_eq!(back, s);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(RunSummary::from_json_str("not json").is_err());
        assert!(RunSummary::from_json_str(r#"{"metrics":{}}"#).is_err());
        assert!(RunSummary::from_json_str(r#"{"schema":"other/v9","metrics":{}}"#).is_err());
        assert!(RunSummary::from_json_str(
            r#"{"schema":"pstore-run-summary/v1","metrics":{"a":"x"}}"#
        )
        .is_err());
    }

    #[test]
    fn self_diff_is_clean() {
        let s = sample_summary();
        let report = diff(&s, &s, &ToleranceTable::builtin());
        assert!(report.is_clean());
        assert!(report.render(false).contains("no regression"));
    }

    #[test]
    fn inflated_p99_fails_and_names_the_metric() {
        let base = sample_summary();
        let mut cand = base.clone();
        if let Some(v) = cand.metrics.get_mut("stable_p99.p99") {
            *v *= 2.0;
        }
        let report = diff(&base, &cand, &ToleranceTable::builtin());
        assert!(!report.is_clean());
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|l| l.metric.as_str())
            .collect();
        assert_eq!(names, vec!["stable_p99.p99"]);
        assert!(report.render(false).contains("FAIL stable_p99.p99"));
    }

    #[test]
    fn improvement_beyond_tolerance_also_fails() {
        let base = sample_summary();
        let mut cand = base.clone();
        if let Some(v) = cand.metrics.get_mut("stable_p99.p99") {
            *v *= 0.2;
        }
        assert!(!diff(&base, &cand, &ToleranceTable::builtin()).is_clean());
    }

    #[test]
    fn missing_metric_is_a_regression_but_new_metric_passes() {
        let base = sample_summary();
        let mut cand = base.clone();
        cand.metrics.remove("chunk_moves");
        cand.metrics.insert("brand_new".to_string(), 7.0);
        let report = diff(&base, &cand, &ToleranceTable::builtin());
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|l| l.metric.as_str())
            .collect();
        assert_eq!(names, vec!["chunk_moves"]);
        assert!(report.lines.iter().any(|l| l.metric == "brand_new"));
    }

    #[test]
    fn tolerance_lookup_prefers_exact_then_longest_prefix() {
        let table = ToleranceTable::builtin();
        assert!(table.lookup("span_errors").abs.abs() < 1e-12);
        assert!((table.lookup("stable_p99.p50").rel - 0.15).abs() < 1e-12);
        // Exact beats the prefix rule.
        assert!((table.lookup("stable_p99.count").rel - 0.02).abs() < 1e-12);
        // Unknown metric falls to the default.
        assert!((table.lookup("something_else").rel - 0.02).abs() < 1e-12);
    }

    #[test]
    fn tolerance_file_overrides_builtin() {
        let table = ToleranceTable::from_json_str(
            r#"{
                "default": {"rel": 0.5},
                "metrics": {
                    "stable_p99.p99": {"abs": 10.0},
                    "through*": {"rel": 0.9}
                }
            }"#,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!((table.lookup("stable_p99.p99").abs - 10.0).abs() < 1e-12);
        assert!((table.lookup("throughput.mean").rel - 0.9).abs() < 1e-12);
        assert!((table.lookup("unknown").rel - 0.5).abs() < 1e-12);
        assert!(ToleranceTable::from_json_str("[]").is_err());
        assert!(ToleranceTable::from_json_str(r#"{"metrics":{"a":{"rel":"x"}}}"#).is_err());
    }

    #[test]
    fn typo_metric_family_is_counted_and_trips_the_gate() {
        let base = sample_summary();
        assert_eq!(base.metrics.get(UNKNOWN_METRICS), Some(&0.0));
        // A typo'd family name ("prv." for "prov.") sneaks into a
        // candidate document; parsing recomputes the unknown count.
        let mut doc = base.clone();
        doc.metrics.insert("prv.run0.mape".to_string(), 12.0);
        let cand = RunSummary::from_json_str(&doc.to_json()).unwrap_or_default();
        assert_eq!(cand.metrics.get(UNKNOWN_METRICS), Some(&1.0));
        // Tolerated: the unknown key is kept, not dropped.
        assert!(cand.metrics.contains_key("prv.run0.mape"));
        // Counted: the zero-tolerance count is the line that fails.
        let report = diff(&base, &cand, &ToleranceTable::builtin());
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|l| l.metric.as_str())
            .collect();
        assert_eq!(names, vec![UNKNOWN_METRICS]);
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
        assert_eq!(s.metrics.get(UNKNOWN_METRICS), Some(&0.0));
        // Without prov events no prov.* key appears (golden stability).
        let plain = sample_summary();
        assert!(!plain.metrics.keys().any(|k| k.starts_with("prov.")));
    }

    #[test]
    fn span_error_appearance_is_always_a_regression() {
        let base = sample_summary();
        let mut cand = base.clone();
        cand.metrics.insert("span_errors".to_string(), 1.0);
        assert!(!diff(&base, &cand, &ToleranceTable::builtin()).is_clean());
    }
}
