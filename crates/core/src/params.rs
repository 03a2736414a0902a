//! System parameters discovered offline (§4.1 / §8.1 of the paper).

use std::time::Duration;

/// Empirically discovered parameters of the database/workload pair.
///
/// The paper's parameter-discovery procedure (§8.1) yields, for the B2W
/// workload on H-Store with 6 partitions per node:
///
/// * saturation at 438 txn/s per node,
/// * `Q̂ = 350` txn/s (80% of saturation),
/// * `Q = 285` txn/s (65% of saturation),
/// * `D = 4646 s` — time to migrate the whole database once with a single
///   sender/receiver thread pair without impacting latency (incl. 10%
///   buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Target throughput per node `Q` (load units per second). Planning
    /// keeps predicted load under `Q * nodes`.
    pub q: f64,
    /// Maximum throughput per node `Q̂` (load units per second). Load above
    /// this risks violating the latency SLA.
    pub q_hat: f64,
    /// Time `D` to migrate the entire database exactly once with a single
    /// sender-receiver thread pair at the non-disruptive rate.
    pub d: Duration,
    /// Number of data partitions per node `P`.
    pub partitions_per_node: u32,
    /// Length of one planning interval (the DP time step; the paper's
    /// simulations use 5-minute predictions).
    pub interval: Duration,
    /// Hard upper bound on cluster size (available hardware).
    pub max_machines: u32,
}

impl SystemParams {
    /// The paper's discovered B2W/H-Store parameters (§8.1), with a 5-minute
    /// planning interval and a 10-node cluster.
    pub fn b2w_paper() -> Self {
        SystemParams {
            q: 285.0,
            q_hat: 350.0,
            d: Duration::from_secs(4646),
            partitions_per_node: 6,
            interval: Duration::from_secs(300),
            max_machines: 10,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics when any invariant is violated; call once at construction
    /// boundaries (e.g. controller/simulator setup).
    pub fn validate(&self) {
        assert!(self.q > 0.0, "Q must be positive");
        assert!(self.q_hat >= self.q, "Q̂ must be at least Q");
        assert!(!self.d.is_zero(), "D must be positive");
        assert!(self.partitions_per_node > 0, "P must be positive");
        assert!(!self.interval.is_zero(), "interval must be positive");
        assert!(self.max_machines > 0, "max_machines must be positive");
    }

    /// `D` expressed in planning intervals (fractional).
    pub fn d_intervals(&self) -> f64 {
        self.d.as_secs_f64() / self.interval.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact rational arithmetic")]
    use super::*;

    #[test]
    fn paper_parameters_are_consistent() {
        let p = SystemParams::b2w_paper();
        p.validate();
        assert_eq!(p.q, 285.0);
        assert_eq!(p.q_hat, 350.0);
        assert_eq!(p.d.as_secs(), 4646);
    }

    #[test]
    fn d_intervals_converts_units() {
        let p = SystemParams::b2w_paper();
        assert!((p.d_intervals() - 4646.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "Q̂ must be at least Q")]
    fn validate_rejects_q_above_q_hat() {
        let mut p = SystemParams::b2w_paper();
        p.q = 400.0;
        p.validate();
    }
}
