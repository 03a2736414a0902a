//! Regularly sampled time series of load measurements.

use std::fmt;
use std::time::Duration;

/// A regularly sampled, contiguous time series.
///
/// Values are load measurements (e.g. requests per minute) taken at a fixed
/// interval. Index `0` corresponds to `start_slot` ticks of `interval` since
/// an arbitrary epoch, so two series produced by the same generator can be
/// aligned.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    interval: Duration,
    start_slot: u64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series starting at slot 0.
    pub fn new(interval: Duration, values: Vec<f64>) -> Self {
        Self::with_start(interval, 0, values)
    }

    /// Creates a series starting at the given slot offset.
    pub fn with_start(interval: Duration, start_slot: u64, values: Vec<f64>) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        TimeSeries {
            interval,
            start_slot,
            values,
        }
    }

    /// Sampling interval between consecutive values.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Slot index (in units of `interval`) of the first value.
    pub fn start_slot(&self) -> u64 {
        self.start_slot
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Appends a new observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The last observation, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Maximum value, or 0 for the empty series.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum value, or 0 for the empty series.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Arithmetic mean, or 0 for the empty series.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Returns the contiguous sub-series `[from, to)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, from: usize, to: usize) -> TimeSeries {
        assert!(from <= to && to <= self.values.len(), "invalid slice range");
        TimeSeries {
            interval: self.interval,
            start_slot: self.start_slot + from as u64,
            values: self.values[from..to].to_vec(),
        }
    }

    /// Splits into `(train, test)` at `at` (train gets `[0, at)`).
    pub fn split(&self, at: usize) -> (TimeSeries, TimeSeries) {
        (self.slice(0, at), self.slice(at, self.len()))
    }

    /// Downsamples by summing non-overlapping windows of `factor` samples.
    ///
    /// Converts e.g. per-minute request counts into per-hour request counts.
    /// A trailing partial window is dropped.
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "factors are tiny (e.g. 60)"
    )]
    pub fn downsample_sum(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "factor must be positive");
        let values: Vec<f64> = self
            .values
            .chunks_exact(factor)
            .map(|w| w.iter().sum())
            .collect();
        TimeSeries {
            interval: self.interval * factor as u32,
            start_slot: self.start_slot / factor as u64,
            values,
        }
    }

    /// Downsamples by averaging non-overlapping windows of `factor` samples.
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn downsample_mean(&self, factor: usize) -> TimeSeries {
        let mut s = self.downsample_sum(factor);
        for v in &mut s.values {
            *v /= factor as f64;
        }
        s
    }

    /// Multiplies every value by `scale` (used e.g. for the paper's 15%
    /// prediction inflation and the 10x trace speed-up).
    pub fn scaled(&self, scale: f64) -> TimeSeries {
        TimeSeries {
            interval: self.interval,
            start_slot: self.start_slot,
            values: self.values.iter().map(|v| v * scale).collect(),
        }
    }

    /// Centred moving average with the given (odd) window; edges use the
    /// available samples only.
    pub fn smoothed(&self, window: usize) -> TimeSeries {
        assert!(window % 2 == 1, "window must be odd");
        let half = window / 2;
        let n = self.values.len();
        let values = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect();
        TimeSeries {
            interval: self.interval,
            start_slot: self.start_slot,
            values,
        }
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimeSeries({} samples @ {:?}, start slot {})",
            self.values.len(),
            self.interval,
            self.start_slot
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact rational arithmetic on tiny values"
    )]
    use super::*;

    fn minutes(n: u64) -> Duration {
        Duration::from_secs(60 * n)
    }

    #[test]
    fn basic_stats() {
        let s = TimeSeries::new(minutes(1), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.last(), Some(4.0));
    }

    #[test]
    fn empty_series_stats_are_zero() {
        let s = TimeSeries::new(minutes(1), vec![]);
        assert!(s.is_empty());
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn slice_preserves_alignment() {
        let s = TimeSeries::new(minutes(1), (0..10).map(|i| i as f64).collect());
        let sub = s.slice(3, 7);
        assert_eq!(sub.start_slot(), 3);
        assert_eq!(sub.values(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn split_partitions_series() {
        let s = TimeSeries::new(minutes(1), (0..10).map(|i| i as f64).collect());
        let (train, test) = s.split(6);
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 4);
        assert_eq!(test.start_slot(), 6);
        assert_eq!(test.values()[0], 6.0);
    }

    #[test]
    fn downsample_sum_aggregates_windows() {
        let s = TimeSeries::new(minutes(1), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let d = s.downsample_sum(3);
        assert_eq!(d.values(), &[6.0, 15.0]); // trailing partial window dropped
        assert_eq!(d.interval(), minutes(3));
    }

    #[test]
    fn downsample_mean_averages_windows() {
        let s = TimeSeries::new(minutes(1), vec![2.0, 4.0, 6.0, 8.0]);
        let d = s.downsample_mean(2);
        assert_eq!(d.values(), &[3.0, 7.0]);
    }

    #[test]
    fn scaled_multiplies_values() {
        let s = TimeSeries::new(minutes(1), vec![1.0, 2.0]);
        assert_eq!(s.scaled(1.15).values(), &[1.15, 2.3]);
    }

    #[test]
    fn smoothing_reduces_variance_of_noise() {
        let vals: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 10.0 })
            .collect();
        let s = TimeSeries::new(minutes(1), vals);
        let sm = s.smoothed(5);
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(sm.values()) < var(s.values()));
        assert_eq!(sm.len(), s.len());
    }

    #[test]
    #[should_panic(expected = "invalid slice range")]
    fn slice_panics_out_of_range() {
        let s = TimeSeries::new(minutes(1), vec![1.0]);
        let _ = s.slice(0, 2);
    }
}
