//! Provisioning controllers (§6 and the baselines of §8).
//!
//! A controller is stepped once per monitoring interval with an
//! [`Observation`] of the running system and may request a reconfiguration.
//! The P-Store controller (predict → plan → execute first move) lives in
//! [`pstore`]; the E-Store-style reactive baseline in [`reactive`]; static,
//! time-of-day ("Simple") and oracle variants in [`baselines`].

pub mod baselines;
pub mod forecaster;
pub mod manual;
pub mod provenance;
pub mod pstore;
pub mod reactive;

pub use baselines::{GreedyLookahead, SimpleController, StaticController};
pub use forecaster::{LoadForecaster, OracleForecaster, SparForecaster};
pub use manual::{ManualOverride, Reservation};
pub use provenance::ProvScorer;
pub use pstore::{PStoreConfig, PStoreController};
pub use reactive::{ReactiveConfig, ReactiveController};

/// A snapshot of the running system handed to a controller each monitoring
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Monotonically increasing monitoring-interval index.
    pub interval: usize,
    /// Load measured over the last interval (same units as `Q`, e.g. txn/s).
    pub load: f64,
    /// Machines currently allocated.
    pub machines: u32,
    /// Whether a reconfiguration is currently in progress.
    pub reconfiguring: bool,
}

/// Why a reconfiguration was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigReason {
    /// Scheduled by the predictive planner ahead of a load change.
    Planned,
    /// Fallback reaction to an unpredicted spike (no feasible plan;
    /// §4.3.1's options (1)/(2)).
    Emergency,
    /// Issued by a reactive or schedule-based baseline policy.
    Policy,
}

/// A reconfiguration request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigRequest {
    /// Desired cluster size after the move.
    pub target: u32,
    /// Multiplier on the non-disruptive migration rate `R`; `1.0` preserves
    /// latency, larger values trade latency for speed (Fig 11's `R x 8`).
    pub rate_multiplier: f64,
    /// Why the move was requested.
    pub reason: ReconfigReason,
    /// Id of the `prov_decision` event that issued this request
    /// (0 = unattributed, e.g. baseline policies or provenance off).
    pub decision_id: u64,
}

impl ReconfigRequest {
    /// A move the predictive planner scheduled, at the non-disruptive rate.
    pub fn planned(target: u32, decision_id: u64) -> Self {
        ReconfigRequest {
            target,
            rate_multiplier: 1.0,
            reason: ReconfigReason::Planned,
            decision_id,
        }
    }

    /// An emergency scale-out at `rate_multiplier` times the
    /// non-disruptive rate (§4.3.1).
    pub fn emergency(target: u32, rate_multiplier: f64, decision_id: u64) -> Self {
        ReconfigRequest {
            target,
            rate_multiplier,
            reason: ReconfigReason::Emergency,
            decision_id,
        }
    }
}

/// A controller's decision for one monitoring interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Keep the current configuration.
    None,
    /// Start a reconfiguration.
    Reconfigure(ReconfigRequest),
}

/// A provisioning policy: maps observations to actions.
pub trait Strategy: Send {
    /// Steps the controller by one monitoring interval.
    fn tick(&mut self, obs: &Observation) -> Action;

    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &str;

    /// The cluster size this policy wants at start-up.
    fn initial_machines(&self) -> u32;
}
