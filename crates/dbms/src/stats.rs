//! Distribution statistics: the §8.1 uniformity analysis.
//!
//! The paper validates the uniform-workload assumption by measuring, over
//! 30 partitions and 24 hours, that the most-accessed partition receives
//! only 10.15% more accesses than average (σ = 2.62%) and the largest
//! partition holds only 0.185% more data than average (σ = 0.099%). These
//! helpers compute the same summary over a cluster's partition report.

/// Summary of how evenly a quantity is spread across partitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSummary {
    /// Number of partitions measured.
    pub partitions: usize,
    /// Mean of the quantity.
    pub mean: f64,
    /// Maximum observed value.
    pub max: f64,
    /// `(max - mean) / mean`, the paper's "most-X partition receives Y%
    /// more than average" figure.
    pub max_over_mean: f64,
    /// Standard deviation relative to the mean.
    pub stddev_over_mean: f64,
}

impl SkewSummary {
    /// Computes the summary over per-partition values.
    ///
    /// Returns `None` for empty input, a zero-mean distribution (skew
    /// relative to a zero mean is undefined), or any non-finite input —
    /// a `Some` summary never carries NaN/infinite fields.
    pub fn from_values(values: &[f64]) -> Option<SkewSummary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        if mean == 0.0 || !mean.is_finite() {
            return None;
        }
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Some(SkewSummary {
            partitions: values.len(),
            mean,
            max,
            max_over_mean: (max - mean) / mean,
            stddev_over_mean: var.sqrt() / mean,
        })
    }
}

impl SkewSummary {
    /// Flattens the summary into `(name, value)` gauge entries under
    /// `prefix` (e.g. `skew.access.max_over_mean`) — the wire format the
    /// detailed simulator records into the telemetry metrics registry and
    /// `table0_uniformity` reads back.
    pub fn gauge_entries(&self, prefix: &str) -> Vec<(String, f64)> {
        #[allow(clippy::cast_precision_loss, reason = "partition counts are tiny")]
        let partitions = self.partitions as f64;
        vec![
            (format!("{prefix}.partitions"), partitions),
            (format!("{prefix}.mean"), self.mean),
            (format!("{prefix}.max"), self.max),
            (format!("{prefix}.max_over_mean"), self.max_over_mean),
            (format!("{prefix}.stddev_over_mean"), self.stddev_over_mean),
        ]
    }
}

impl std::fmt::Display for SkewSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} partitions: max +{:.3}% over mean, stddev {:.3}% of mean",
            self.partitions,
            self.max_over_mean * 100.0,
            self.stddev_over_mean * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests use exact values and tiny ids"
    )]
    use super::*;

    #[test]
    fn uniform_distribution_has_zero_skew() {
        let s = SkewSummary::from_values(&[10.0; 8]).unwrap();
        assert_eq!(s.max_over_mean, 0.0);
        assert_eq!(s.stddev_over_mean, 0.0);
        assert_eq!(s.partitions, 8);
    }

    #[test]
    fn skewed_distribution_is_reported() {
        // One partition with double the load of the others.
        let mut v = vec![10.0; 9];
        v.push(20.0);
        let s = SkewSummary::from_values(&v).unwrap();
        assert!((s.mean - 11.0).abs() < 1e-9);
        assert!((s.max_over_mean - 9.0 / 11.0).abs() < 1e-9);
        assert!(s.stddev_over_mean > 0.0);
    }

    #[test]
    fn empty_and_zero_inputs_are_none() {
        assert!(SkewSummary::from_values(&[]).is_none());
        assert!(SkewSummary::from_values(&[0.0, 0.0]).is_none());
        // Mixed-sign inputs that cancel to a zero mean are equally
        // undefined, not a division by zero.
        assert!(SkewSummary::from_values(&[-1.0, 1.0]).is_none());
    }

    #[test]
    fn single_value_input_has_zero_skew() {
        let s = SkewSummary::from_values(&[42.0]).unwrap();
        assert_eq!(s.partitions, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.max_over_mean, 0.0);
        assert_eq!(s.stddev_over_mean, 0.0);
    }

    #[test]
    fn all_equal_input_has_zero_skew_and_finite_fields() {
        let s = SkewSummary::from_values(&[3.5; 30]).unwrap();
        assert_eq!(s.partitions, 30);
        assert_eq!(s.max_over_mean, 0.0);
        assert_eq!(s.stddev_over_mean, 0.0);
        assert!(s.mean.is_finite() && s.max.is_finite());
    }

    #[test]
    fn non_finite_inputs_are_none_not_nan() {
        // Previously a NaN input slipped past the zero-mean guard and
        // produced a summary whose every field was NaN.
        assert!(SkewSummary::from_values(&[1.0, f64::NAN]).is_none());
        assert!(SkewSummary::from_values(&[f64::INFINITY, 1.0]).is_none());
        assert!(SkewSummary::from_values(&[f64::NEG_INFINITY]).is_none());
    }

    #[test]
    fn gauge_entries_flatten_all_fields() {
        let s = SkewSummary::from_values(&[10.0, 10.0, 20.0]).unwrap();
        let entries = s.gauge_entries("skew.access");
        assert_eq!(entries.len(), 5);
        assert!(entries.iter().all(|(k, _)| k.starts_with("skew.access.")));
        let max = entries
            .iter()
            .find(|(k, _)| k == "skew.access.max")
            .unwrap();
        assert_eq!(max.1, 20.0);
    }

    #[test]
    fn display_is_percentage_based() {
        let s = SkewSummary::from_values(&[1.0, 1.0, 1.1]).unwrap();
        let text = s.to_string();
        assert!(text.contains("3 partitions"));
        assert!(text.contains('%'));
    }
}
