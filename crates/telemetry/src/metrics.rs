//! Metrics registry: counters, gauges, and log-bucketed latency
//! histograms.
//!
//! The histogram uses logarithmic buckets (8 sub-buckets per octave,
//! ~9% relative error) so merging is exact on counts and quantile
//! readout matches the rank-selection semantics of
//! `pstore_sim::SecondMetrics`: the q-quantile of n samples is the
//! sample at rank `ceil(n * q)` (clamped to `[1, n]`), here answered to
//! bucket resolution and clamped to the exact observed min/max.

use std::collections::BTreeMap;

/// Smallest distinguishable value; everything at or below maps to
/// bucket 0. 1 microsecond when recording seconds.
const MIN_VALUE: f64 = 1e-6;
/// Sub-buckets per octave (power of two). 8 gives <= 9% relative error.
const SUB_BUCKETS: usize = 8;
/// Octaves covered above `MIN_VALUE`: 2^44 * 1e-6 ~ 1.8e7, plenty for
/// latencies in seconds and loads in txn/s.
const OCTAVES: usize = 44;
/// Total bucket count (one extra catch-all bucket at the top).
const BUCKETS: usize = OCTAVES * SUB_BUCKETS + 1;

/// A mergeable log-bucketed histogram of non-negative `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Negative and non-finite samples are clamped
    /// to zero (they land in the bottom bucket) so a stray NaN cannot
    /// poison a whole run's statistics.
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss, reason = "counts far below 2^52")]
            {
                self.sum / self.count as f64
            }
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The q-quantile using the same rank rule as `SecondMetrics`
    /// (`rank = ceil(n*q)` clamped to `[1, n]`), answered at bucket
    /// resolution and clamped to the exact observed `[min, max]`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "rank fits u64 because count does; q clamped below"
        )]
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Structural equality that tolerates floating-point reassociation
    /// in `sum`: bucket counts and count must match exactly, `sum`
    /// within a relative tolerance, min/max exactly by bit pattern.
    ///
    /// This is the right equality for checking merge associativity
    /// (`(a+b)+c == a+(b+c)`): `f64` addition itself is not associative,
    /// so exact `sum` equality would be a false invariant.
    pub fn content_eq(&self, other: &Histogram) -> bool {
        let sum_close = {
            let scale = self.sum.abs().max(other.sum.abs()).max(1.0);
            (self.sum - other.sum).abs() <= 1e-9 * scale
        };
        self.counts == other.counts
            && self.count == other.count
            && sum_close
            && self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
    }
}

/// Maps a non-negative finite sample to its bucket index.
fn bucket_index(v: f64) -> usize {
    if v <= MIN_VALUE {
        return 0;
    }
    let octaves = (v / MIN_VALUE).log2();
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        reason = "octaves > 0 here; index clamped to the table"
    )]
    let idx = (octaves * SUB_BUCKETS as f64).floor() as usize + 1;
    idx.min(BUCKETS - 1)
}

/// Upper edge of bucket `i` (a representative value for quantiles).
fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        return MIN_VALUE;
    }
    #[allow(clippy::cast_precision_loss, reason = "i <= BUCKETS")]
    {
        MIN_VALUE * 2f64.powf(i as f64 / SUB_BUCKETS as f64)
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are free-form dotted strings (`"reconfig.chunks_moved"`). The
/// registry is plain data — ownership/threading is the caller's concern
/// (the crate-level API keeps one per thread).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn inc_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram (creating it empty).
    pub fn record_histogram(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry: counters add, gauges take `other`'s
    /// value (last write wins), histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Clears all recorded data.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, rel: f64) {
        let scale = a.abs().max(b.abs()).max(1e-12);
        assert!(
            (a - b).abs() <= rel * scale,
            "expected {a} ~ {b} within {rel}"
        );
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_close(h.quantile(0.5), 0.0, 1e-12);
        assert_close(h.mean(), 0.0, 1e-12);
        assert_close(h.max(), 0.0, 1e-12);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(0.137);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            // min == max == sample, so the bucket answer clamps exact.
            assert_close(h.quantile(q), 0.137, 1e-12);
        }
    }

    #[test]
    fn quantiles_match_rank_semantics_within_bucket_error() {
        // Mirror SecondMetrics: sorted samples, pick rank ceil(n*q).
        let samples: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1e-3).collect();
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        for q in [0.5, 0.95, 0.99] {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "rank is ceil(q * 1000) for q in (0, 1]: small and positive"
            )]
            let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            // Log buckets with 8 sub-buckets per octave: <= 9% relative.
            assert_close(h.quantile(q), exact, 0.09);
        }
    }

    #[test]
    fn merge_matches_bulk_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut bulk = Histogram::new();
        for i in 0..500 {
            let v = f64::from(i) * 7e-4 + 1e-4;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            bulk.record(v);
        }
        a.merge(&b);
        assert!(a.content_eq(&bulk));
    }

    #[test]
    fn pathological_samples_are_clamped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(-3.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_close(h.max(), 0.0, 1e-12);
        assert!(h.quantile(0.99).is_finite());
    }

    #[test]
    fn huge_values_land_in_top_bucket() {
        let mut h = Histogram::new();
        h.record(1e30);
        assert_eq!(h.count(), 1);
        // Clamped to exact max by the quantile path.
        assert_close(h.quantile(1.0), 1e30, 1e-12);
    }

    #[test]
    fn registry_basics() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("moves", 2);
        r.inc_counter("moves", 3);
        r.set_gauge("skew", 1.5);
        r.record_histogram("lat", 0.01);
        assert_eq!(r.counter("moves"), 5);
        assert_close(r.gauge("skew").unwrap(), 1.5, 1e-12);
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
        assert_eq!(r.counter("absent"), 0);

        let mut other = MetricsRegistry::new();
        other.inc_counter("moves", 10);
        other.set_gauge("skew", 2.0);
        other.record_histogram("lat", 0.02);
        r.merge(&other);
        assert_eq!(r.counter("moves"), 15);
        assert_close(r.gauge("skew").unwrap(), 2.0, 1e-12);
        assert_eq!(r.histogram("lat").unwrap().count(), 2);
    }
}
