//! Per-second latency accounting: percentiles, SLA violations, CDFs.
//!
//! The paper measures 50th/95th/99th percentile latency every second and
//! counts *SLA violations* as the number of seconds in which a percentile
//! exceeds 500 ms — "the maximum delay that is unnoticeable by users"
//! (§8.2, Table 2). Fig 10 plots CDFs of the top 1% of those per-second
//! percentiles.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "latency accounting buckets completion times into whole seconds and sample indices"
)]
pub use pstore_telemetry::slo::SLA_THRESHOLD_S;
use pstore_telemetry::Histogram;
use std::collections::VecDeque;

/// Sliding-window width (seconds) for the windowed percentile series:
/// per-second log-bucketed histograms are retained for this many seconds
/// and merged (`TEL-03` makes the merge order-insensitive) into
/// `win_p50/win_p95/win_p99`.
pub const QUANTILE_WINDOW_S: usize = 30;

/// Latency percentiles of one wall-clock second.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SecondMetrics {
    /// Second index since the start of the run.
    pub second: u64,
    /// Transactions completed in this second.
    pub throughput: u64,
    /// Median latency (seconds).
    pub p50: f64,
    /// 95th percentile latency (seconds).
    pub p95: f64,
    /// 99th percentile latency (seconds).
    pub p99: f64,
    /// Mean latency (seconds).
    pub mean: f64,
    /// Machines allocated during this second (cost accounting).
    pub machines: f64,
    /// Whether a reconfiguration was in progress.
    pub reconfiguring: bool,
    /// Summed end-to-end latency (txn-seconds) completed this second.
    pub attr_total: f64,
    /// Txn-seconds of pure queueing (wait minus migration stall).
    pub attr_queue: f64,
    /// Txn-seconds of execution (service time).
    pub attr_exec: f64,
    /// Txn-seconds of migration interference (wait spent behind chunk
    /// service bursts). `attr_queue + attr_exec + attr_stall ==
    /// attr_total` exactly, by construction (the TEL-06 identity).
    pub attr_stall: f64,
    /// Median over the trailing [`QUANTILE_WINDOW_S`]-second window.
    pub win_p50: f64,
    /// 95th percentile over the trailing window.
    pub win_p95: f64,
    /// 99th percentile over the trailing window.
    pub win_p99: f64,
}

/// Collects per-second latency samples and reduces them to metrics.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    current_second: u64,
    samples: Vec<f64>,
    seconds: Vec<SecondMetrics>,
    machines: f64,
    reconfiguring: bool,
    // Latency-attribution accumulators for the second being filled.
    attr_queue: f64,
    attr_exec: f64,
    attr_stall: f64,
    // Per-second histograms of the trailing window, newest last.
    window: VecDeque<Histogram>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Updates the machine count attributed to subsequent seconds.
    pub fn set_machines(&mut self, machines: f64) {
        self.machines = machines;
    }

    /// Updates the reconfiguring flag attributed to subsequent seconds.
    pub fn set_reconfiguring(&mut self, reconfiguring: bool) {
        self.reconfiguring = reconfiguring;
    }

    /// Records a completed transaction: completion time (seconds since
    /// start) and its latency in seconds. The whole latency is attributed
    /// to execution; use [`LatencyRecorder::record_attributed`] when the
    /// queue/exec/stall decomposition is known.
    ///
    /// Completions must arrive in non-decreasing second order.
    pub fn record(&mut self, completion_time: f64, latency: f64) {
        self.record_attributed(completion_time, 0.0, latency, 0.0);
    }

    /// Records a completed transaction with its end-to-end latency
    /// decomposed into pure queueing, execution, and migration-stall
    /// components (each in seconds; the latency is their sum).
    ///
    /// Completions must arrive in non-decreasing second order.
    pub fn record_attributed(&mut self, completion_time: f64, queue: f64, exec: f64, stall: f64) {
        let sec = completion_time.max(0.0) as u64;
        while sec > self.current_second {
            self.flush_second();
        }
        self.samples.push(queue + exec + stall);
        self.attr_queue += queue;
        self.attr_exec += exec;
        self.attr_stall += stall;
    }

    /// Advances the clock to `time` (flushing finished seconds) without
    /// recording a sample — used by idle periods.
    pub fn advance_to(&mut self, time: f64) {
        let sec = time.max(0.0) as u64;
        while sec > self.current_second {
            self.flush_second();
        }
    }

    fn flush_second(&mut self) {
        // Sorted and cleared where it lies, so the buffer keeps its
        // capacity from second to second. Unstable is enough: values
        // `total_cmp` calls equal have identical bits.
        self.samples.sort_unstable_by(f64::total_cmp);
        let samples = &self.samples;
        let n = samples.len();
        let pick = |q: f64| -> f64 {
            if n == 0 {
                0.0
            } else {
                samples[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1]
            }
        };
        let mean = if n == 0 {
            0.0
        } else {
            samples.iter().sum::<f64>() / n as f64
        };
        let mut second_hist = Histogram::new();
        for &s in samples {
            second_hist.record(s);
        }
        if self.window.len() >= QUANTILE_WINDOW_S {
            self.window.pop_front();
        }
        self.window.push_back(second_hist);
        let mut windowed = Histogram::new();
        for h in &self.window {
            windowed.merge(h);
        }
        let win_q = |q: f64| {
            if windowed.count() == 0 {
                0.0
            } else {
                windowed.quantile(q)
            }
        };
        let metrics = SecondMetrics {
            second: self.current_second,
            throughput: n as u64,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            mean,
            machines: self.machines,
            reconfiguring: self.reconfiguring,
            attr_total: self.attr_queue + self.attr_exec + self.attr_stall,
            attr_queue: self.attr_queue,
            attr_exec: self.attr_exec,
            attr_stall: self.attr_stall,
            win_p50: win_q(0.50),
            win_p95: win_q(0.95),
            win_p99: win_q(0.99),
        };
        self.attr_queue = 0.0;
        self.attr_exec = 0.0;
        self.attr_stall = 0.0;
        pstore_telemetry::tel_event!(pstore_telemetry::Second {
            second: metrics.second,
            throughput: metrics.throughput,
            p50: metrics.p50,
            p95: metrics.p95,
            p99: metrics.p99,
            mean: metrics.mean,
            machines: metrics.machines,
            reconfiguring: metrics.reconfiguring,
            attr_total: metrics.attr_total,
            attr_queue: metrics.attr_queue,
            attr_exec: metrics.attr_exec,
            attr_stall: metrics.attr_stall,
            win_p50: metrics.win_p50,
            win_p95: metrics.win_p95,
            win_p99: metrics.win_p99,
        });
        if pstore_telemetry::enabled() {
            pstore_telemetry::with_registry(|r| {
                let phase = if metrics.reconfiguring {
                    "latency.p99.reconfig"
                } else {
                    "latency.p99.stable"
                };
                r.record_histogram(phase, metrics.p99);
                r.inc_counter("latency.seconds", 1);
            });
            if metrics.p99 > SLA_THRESHOLD_S {
                pstore_telemetry::with_registry(|r| r.inc_counter("sla.violation_seconds", 1));
                pstore_telemetry::emit(pstore_telemetry::SlaViolation {
                    second: metrics.second,
                    p99: metrics.p99,
                });
            }
        }
        self.seconds.push(metrics);
        self.samples.clear();
        self.current_second += 1;
    }

    /// Finalises the recorder, returning all per-second metrics.
    pub fn finish(mut self) -> Vec<SecondMetrics> {
        self.flush_second();
        self.seconds
    }
}

/// SLA-violation counts per percentile (the rows of Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaViolations {
    /// Seconds in which p50 exceeded the threshold.
    pub p50: u64,
    /// Seconds in which p95 exceeded the threshold.
    pub p95: u64,
    /// Seconds in which p99 exceeded the threshold.
    pub p99: u64,
}

/// Counts per-second SLA violations against `threshold` (seconds).
pub fn count_sla_violations(seconds: &[SecondMetrics], threshold: f64) -> SlaViolations {
    let mut v = SlaViolations::default();
    for s in seconds {
        if s.p50 > threshold {
            v.p50 += 1;
        }
        if s.p95 > threshold {
            v.p95 += 1;
        }
        if s.p99 > threshold {
            v.p99 += 1;
        }
    }
    v
}

/// Average machines allocated over the run.
pub fn average_machines(seconds: &[SecondMetrics]) -> f64 {
    if seconds.is_empty() {
        return 0.0;
    }
    seconds.iter().map(|s| s.machines).sum::<f64>() / seconds.len() as f64
}

/// The top `fraction` (e.g. 0.01) of a per-second percentile series, sorted
/// ascending — the data behind the Fig 10 CDFs.
pub fn top_fraction(mut values: Vec<f64>, fraction: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    values.sort_by(f64::total_cmp);
    let keep = ((values.len() as f64) * fraction).ceil() as usize;
    values.split_off(values.len().saturating_sub(keep.max(1).min(values.len())))
}

/// Evaluates the empirical CDF of `sorted_values` at the given points.
/// Returns `(value, cumulative_probability)` pairs.
pub fn cdf_points(sorted_values: &[f64], resolution: usize) -> Vec<(f64, f64)> {
    if sorted_values.is_empty() {
        return Vec::new();
    }
    let n = sorted_values.len();
    (0..=resolution)
        .map(|i| {
            let idx = (i * (n - 1)) / resolution.max(1);
            (sorted_values[idx], (idx + 1) as f64 / n as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact rational arithmetic")]
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let mut r = LatencyRecorder::new();
        r.set_machines(4.0);
        for i in 1..=100 {
            r.record(0.5, i as f64 / 1000.0); // 1..100 ms in second 0
        }
        let secs = r.finish();
        assert_eq!(secs.len(), 1);
        let s = secs[0];
        assert_eq!(s.throughput, 100);
        assert!((s.p50 - 0.050).abs() < 1e-9);
        assert!((s.p95 - 0.095).abs() < 1e-9);
        assert!((s.p99 - 0.099).abs() < 1e-9);
        assert!((s.mean - 0.0505).abs() < 1e-9);
        assert_eq!(s.machines, 4.0);
    }

    #[test]
    fn seconds_are_contiguous_even_when_idle() {
        let mut r = LatencyRecorder::new();
        r.record(0.1, 0.01);
        r.record(3.7, 0.02); // seconds 1 and 2 are idle
        let secs = r.finish();
        assert_eq!(secs.len(), 4);
        assert_eq!(secs[1].throughput, 0);
        assert_eq!(secs[2].throughput, 0);
        assert_eq!(secs[3].throughput, 1);
    }

    #[test]
    fn sla_violation_counting() {
        let mk = |p50, p95, p99| SecondMetrics {
            throughput: 1,
            p50,
            p95,
            p99,
            machines: 1.0,
            ..SecondMetrics::default()
        };
        let secs = vec![mk(0.1, 0.3, 0.6), mk(0.6, 0.7, 0.8), mk(0.1, 0.2, 0.3)];
        let v = count_sla_violations(&secs, SLA_THRESHOLD_S);
        assert_eq!(v.p50, 1);
        assert_eq!(v.p95, 1);
        assert_eq!(v.p99, 2);
    }

    #[test]
    fn average_machines_over_run() {
        let mk = |m| SecondMetrics {
            machines: m,
            ..SecondMetrics::default()
        };
        let secs = vec![mk(2.0), mk(4.0), mk(6.0)];
        assert_eq!(average_machines(&secs), 4.0);
    }

    #[test]
    fn top_fraction_keeps_largest_values() {
        let vals: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let top = top_fraction(vals, 0.01);
        assert_eq!(top, vec![199.0, 200.0]);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut vals: Vec<f64> = (0..100).map(|i| (i as f64 * 37.0) % 13.0).collect();
        vals.sort_by(f64::total_cmp);
        let cdf = cdf_points(&vals, 20);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn advance_to_flushes_idle_seconds() {
        let mut r = LatencyRecorder::new();
        r.advance_to(5.5);
        let secs = r.finish();
        assert_eq!(secs.len(), 6);
        assert!(secs.iter().all(|s| s.throughput == 0));
    }

    #[test]
    fn advance_to_gap_seconds_have_zero_percentiles_and_current_flags() {
        // Gap seconds created by advance_to must appear with zero
        // throughput AND zero percentiles, carrying whatever machine
        // count / reconfiguring flag is current when they flush.
        let mut r = LatencyRecorder::new();
        r.set_machines(3.0);
        r.record(0.2, 0.040);
        r.advance_to(1.0); // flush second 0 under the old settings
        r.set_machines(5.0);
        r.set_reconfiguring(true);
        r.advance_to(4.0); // seconds 1..3 idle under the new settings
        let secs = r.finish();
        assert_eq!(secs.len(), 5);
        assert_eq!(secs[0].machines, 3.0);
        assert!(!secs[0].reconfiguring);
        for s in &secs[1..=3] {
            assert_eq!(s.throughput, 0);
            assert_eq!((s.p50, s.p95, s.p99, s.mean), (0.0, 0.0, 0.0, 0.0));
            assert_eq!(s.machines, 5.0);
            assert!(s.reconfiguring);
        }
        // Seconds stay contiguous across the gap.
        for (i, s) in secs.iter().enumerate() {
            assert_eq!(s.second, i as u64);
        }
    }

    #[test]
    fn advance_to_same_second_does_not_flush() {
        let mut r = LatencyRecorder::new();
        r.record(0.1, 0.010);
        r.advance_to(0.9); // still inside second 0
        r.record(0.95, 0.030);
        let secs = r.finish();
        assert_eq!(secs.len(), 1);
        assert_eq!(secs[0].throughput, 2);
    }

    #[test]
    fn finish_flushes_the_final_partial_second() {
        // Samples in a second that never completes must still be reported:
        // finish() flushes the trailing partial second exactly once.
        let mut r = LatencyRecorder::new();
        r.record(2.3, 0.100);
        r.record(2.8, 0.300);
        let secs = r.finish();
        assert_eq!(secs.len(), 3);
        let last = secs[2];
        assert_eq!(last.second, 2);
        assert_eq!(last.throughput, 2);
        assert_eq!(last.p50, 0.100);
        assert_eq!(last.p99, 0.300);
        assert_eq!(last.mean, 0.200);
    }

    #[test]
    fn finish_on_empty_recorder_reports_one_empty_second() {
        let secs = LatencyRecorder::new().finish();
        assert_eq!(secs.len(), 1);
        assert_eq!(secs[0].second, 0);
        assert_eq!(secs[0].throughput, 0);
    }

    #[test]
    fn sla_violation_boundary_is_strictly_greater() {
        // §8.2: a violation is a second whose percentile *exceeds* 500 ms.
        // Exactly-at-threshold seconds are compliant.
        let mk = |p: f64| SecondMetrics {
            throughput: 1,
            p50: p,
            p95: p,
            p99: p,
            mean: p,
            machines: 1.0,
            ..SecondMetrics::default()
        };
        let secs = vec![
            mk(SLA_THRESHOLD_S),                // exactly at: no violation
            mk(SLA_THRESHOLD_S + f64::EPSILON), // barely over: violation
            mk(SLA_THRESHOLD_S - 1e-12),        // barely under: no violation
        ];
        let v = count_sla_violations(&secs, SLA_THRESHOLD_S);
        assert_eq!((v.p50, v.p95, v.p99), (1, 1, 1));
    }

    #[test]
    fn single_sample_second_has_equal_percentiles() {
        // rank = ceil(n*q).clamp(1, n): with n = 1 every percentile is the
        // sample itself.
        let mut r = LatencyRecorder::new();
        r.record(0.5, 0.123);
        let s = r.finish()[0];
        assert_eq!((s.p50, s.p95, s.p99, s.mean), (0.123, 0.123, 0.123, 0.123));
    }

    #[test]
    fn attribution_components_sum_to_recorded_latency() {
        let mut r = LatencyRecorder::new();
        r.record_attributed(0.2, 0.010, 0.025, 0.005);
        r.record_attributed(0.8, 0.0, 0.030, 0.0);
        let secs = r.finish();
        assert_eq!(secs.len(), 1);
        let s = secs[0];
        assert!((s.attr_queue - 0.010).abs() < 1e-12);
        assert!((s.attr_exec - 0.055).abs() < 1e-12);
        assert!((s.attr_stall - 0.005).abs() < 1e-12);
        // The TEL-06 identity: components sum to the attributed total,
        // which is itself the sum of recorded latencies (mean * n).
        assert!((s.attr_total - (s.attr_queue + s.attr_exec + s.attr_stall)).abs() < 1e-12);
        assert!((s.mean * s.throughput as f64 - s.attr_total).abs() < 1e-12);
    }

    #[test]
    fn plain_record_attributes_everything_to_execution() {
        let mut r = LatencyRecorder::new();
        r.record(0.1, 0.040);
        let s = r.finish()[0];
        assert_eq!(s.attr_queue, 0.0);
        assert_eq!(s.attr_stall, 0.0);
        assert!((s.attr_exec - 0.040).abs() < 1e-12);
    }

    #[test]
    fn attribution_accumulators_reset_each_second() {
        let mut r = LatencyRecorder::new();
        r.record_attributed(0.5, 0.1, 0.2, 0.3);
        r.record_attributed(1.5, 0.0, 0.05, 0.0);
        let secs = r.finish();
        assert!((secs[0].attr_stall - 0.3).abs() < 1e-12);
        assert_eq!(secs[1].attr_stall, 0.0);
        assert!((secs[1].attr_exec - 0.05).abs() < 1e-12);
    }

    #[test]
    fn windowed_percentiles_remember_then_evict_a_spike() {
        let mut r = LatencyRecorder::new();
        // Second 0: five slow txns. Seconds 1..=35: fast traffic. The
        // per-second p99 forgets the spike immediately; the windowed p99
        // must hold it for QUANTILE_WINDOW_S seconds, then let it go.
        for i in 0..5 {
            r.record(0.1 + f64::from(i) * 0.01, 2.0);
        }
        for s in 1..=35u32 {
            for i in 0..5 {
                r.record(f64::from(s) + 0.1 + f64::from(i) * 0.01, 0.010);
            }
        }
        let secs = r.finish();
        assert_eq!(secs[10].p99, 0.010);
        assert!(
            secs[10].win_p99 > SLA_THRESHOLD_S,
            "window at second 10 still sees the spike: {}",
            secs[10].win_p99
        );
        assert!(
            secs[35].win_p99 < SLA_THRESHOLD_S,
            "spike evicted after the window passes: {}",
            secs[35].win_p99
        );
    }

    #[test]
    fn windowed_percentiles_on_idle_run_are_zero() {
        let mut r = LatencyRecorder::new();
        r.advance_to(3.0);
        let secs = r.finish();
        assert!(secs.iter().all(|s| s.win_p99 == 0.0 && s.win_p50 == 0.0));
    }
}
