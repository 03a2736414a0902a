//! Simulation harnesses for the P-Store reproduction.
//!
//! Two simulators regenerate the paper's evaluation:
//!
//! * [`detailed`] — a discrete-event simulation that executes real B2W
//!   transactions on the real partitioned engine with per-partition
//!   queueing and chunk-paced live migration (Figs 7–11, Table 2).
//! * [`fast`] — a slot-based allocation/capacity model for multi-month
//!   strategy comparisons (Figs 12–13), mirroring the simulation the paper
//!   itself uses for §8.3.
//!
//! [`latency`] provides the shared per-second percentile and SLA
//! accounting; both simulators drive one controller-tick step (the
//! private `control` module).

#![warn(missing_docs)]

mod control;
pub mod detailed;
pub mod fast;
pub mod latency;
pub mod scenarios;

pub use detailed::{run_detailed, DetailedSimConfig, DetailedSimResult};
pub use fast::{run_fast, FastSimConfig, FastSimResult};
pub use latency::{SecondMetrics, SlaViolations, SLA_THRESHOLD_S};
