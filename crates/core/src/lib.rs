//! P-Store predictive elasticity — the core algorithms of the SIGMOD 2018
//! paper *"P-Store: An Elastic Database System with Predictive
//! Provisioning"*.
//!
//! This crate contains the paper's primary contribution, independent of any
//! particular database engine:
//!
//! * [`cost_model`] — the analytical migration model: parallelism (Eq 2),
//!   move duration (Eq 3), machines allocated (Algorithm 4), capacity (Eq 5)
//!   and effective capacity during reconfiguration (Eq 7).
//! * [`schedule`] — round-by-round migration schedules with just-in-time
//!   machine allocation (§4.4.1, Table 1, Fig 4), including the three-phase
//!   construction and a bipartite edge-colouring solver.
//! * [`planner`] — the dynamic program that chooses *when* to reconfigure
//!   and *how many* machines to use (Algorithms 1–3).
//! * [`partition_plan`] — the Scheduler that turns a move into an
//!   equal-share slot reassignment (§6).
//! * [`controller`] — the Predictive Controller plus the reactive, static,
//!   time-of-day and oracle baselines evaluated in §8.
//!
//! # Quick example
//!
//! ```
//! use pstore_core::planner::{Planner, PlannerConfig};
//!
//! let planner = Planner::new(PlannerConfig {
//!     q: 285.0,             // target txn/s per machine
//!     d_intervals: 15.5,    // D = 4646 s in 5-minute intervals
//!     partitions_per_node: 6,
//!     max_machines: 10,
//! });
//! // Load rises from 400 to 1600 txn/s over the next two hours.
//! let load: Vec<f64> = (0..24).map(|t| 400.0 + 50.0 * t as f64).collect();
//! let plan = planner.best_moves(&load, 2).expect("feasible plan");
//! assert!(plan.final_machines().unwrap() >= 6);
//! planner.verify_feasible(&plan, &load).unwrap();
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod cost_model;
pub mod invariant;
pub mod moves;
pub mod params;
pub mod partition_plan;
pub mod planner;
pub mod schedule;

pub use controller::{Action, Observation, ReconfigReason, ReconfigRequest, Strategy};
pub use invariant::{InvariantId, Violation};
pub use moves::{check_moves, Move, MoveSeq};
pub use params::SystemParams;
pub use partition_plan::{SlotPlan, SlotTransfer};
pub use planner::{Planner, PlannerConfig};
pub use schedule::MigrationSchedule;
