//! The B2W Digital online-retail benchmark (§7 and Appendix C of the
//! P-Store paper).
//!
//! Implements the shopping-cart / checkout / stock schema of Fig 14, all 19
//! stored procedures of Table 4, and a session-driven workload generator
//! that stands in for B2W's proprietary transaction logs (see DESIGN.md for
//! the substitution argument). Every generated transaction is
//! single-partition, and keys are random identifiers so partition access is
//! near-uniform — the two workload properties P-Store's planner assumes
//! (§4.2, §8.1).
//!
//! # Quick example
//!
//! ```
//! use pstore_b2w::generator::{WorkloadConfig, WorkloadGenerator};
//! use pstore_b2w::schema::b2w_catalog;
//! use pstore_dbms::cluster::{Cluster, ClusterConfig};
//!
//! let mut gen = WorkloadGenerator::new(WorkloadConfig {
//!     num_skus: 100,
//!     initial_carts: 10,
//!     ..WorkloadConfig::default()
//! });
//! let mut cluster = Cluster::new(b2w_catalog(), ClusterConfig::default(), 2);
//! for p in gen.seed_stock_procedures() {
//!     cluster.execute(&p).unwrap();
//! }
//! for t in gen.initial_load() {
//!     cluster.execute(&t).unwrap();
//! }
//! for _ in 0..100 {
//!     let txn = gen.next_txn();
//!     let _ = cluster.execute(&txn); // business aborts are part of life
//! }
//! assert!(cluster.total_rows() > 0);
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod procedures;
pub mod schema;

pub use generator::{SeedStock, WorkloadConfig, WorkloadGenerator};
pub use procedures::B2wTxn;
pub use schema::b2w_catalog;
