//! An H-Store-like partitioned main-memory OLTP engine with Squall-like
//! chunked live migration — the execution substrate of the P-Store
//! reproduction.
//!
//! The engine mirrors the architecture the paper relies on (§2, §6):
//!
//! * **Shared-nothing nodes**, each with `P` serial data partitions.
//! * **Hash partitioning** of routing keys (MurmurHash 2.0, §8.1) onto
//!   virtual slots; a [`SlotPlan`](pstore_core::partition_plan::SlotPlan)
//!   maps slots to nodes.
//! * **Single-partition stored procedures** routed by partitioning key; the
//!   execution context enforces the single-partition discipline.
//! * **Live reconfiguration** in chunks with key-granularity switchover:
//!   transactions keep running against slots whose rows are mid-flight,
//!   exactly the property Squall provides to P-Store.
//!
//! Timing (service times, queueing, chunk pacing) is deliberately *not*
//! modelled here: the engine is purely functional, and the `pstore-sim`
//! crate wraps it in a discrete-event simulation that reproduces the
//! paper's performance behaviour.
//!
//! # Quick example
//!
//! ```
//! use pstore_dbms::catalog::{columns, Catalog, ColumnType, TableSchema};
//! use pstore_dbms::cluster::{Cluster, ClusterConfig};
//! use pstore_dbms::txn::{Procedure, TxnCtx, TxnError, TxnOutput};
//! use pstore_dbms::value::{Key, KeyValue, Row, Text, Value};
//!
//! let mut catalog = Catalog::new();
//! let kv = catalog.add_table(TableSchema::new(
//!     "KV",
//!     columns(&[("k", ColumnType::Str), ("v", ColumnType::Int)]),
//!     1,
//! ));
//!
//! // Ids are `Text`: up to 22 bytes inline, so copying one into a key or
//! // a row allocates nothing.
//! struct Put(Text, i64);
//! impl Procedure for Put {
//!     fn name(&self) -> &'static str { "Put" }
//!     fn routing_key(&self) -> KeyValue { KeyValue::Str(self.0.clone()) }
//!     fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
//!         ctx.put(0, Key::str(&self.0), Row::new([Value::Int(self.1)]));
//!         Ok(TxnOutput::None)
//!     }
//! }
//!
//! // A rewrite writes columns through `set`, where the row lies; the
//! // row keeps its modelled size as it goes.
//! struct Add(Text, i64);
//! impl Procedure for Add {
//!     fn name(&self) -> &'static str { "Add" }
//!     fn routing_key(&self) -> KeyValue { KeyValue::Str(self.0.clone()) }
//!     fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
//!         ctx.update(0, "KV", &Key::str(&self.0), |row| {
//!             let v = row[0].as_int().unwrap_or(0) + self.1;
//!             row.set(0, Value::Int(v));
//!             Ok(TxnOutput::None)
//!         })
//!     }
//! }
//!
//! struct Get(Text);
//! impl Procedure for Get {
//!     fn name(&self) -> &'static str { "Get" }
//!     fn routing_key(&self) -> KeyValue { KeyValue::Str(self.0.clone()) }
//!     fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<TxnOutput, TxnError> {
//!         // A read hands out the stored row itself: cloning a `Row`
//!         // shares it, and a later write to either copies it first.
//!         let row = ctx.get_required(0, "KV", &Key::str(&self.0))?;
//!         Ok(TxnOutput::Row(row.clone()))
//!     }
//! }
//!
//! let mut cluster = Cluster::new(catalog, ClusterConfig::default(), 2);
//! cluster.execute(&Put("cart-1".into(), 42)).unwrap();
//! // Scale out live; data survives and stays balanced.
//! cluster.begin_reconfiguration(4).unwrap();
//! cluster.run_reconfiguration_to_completion(1_000_000).unwrap();
//! assert_eq!(cluster.active_nodes(), 4);
//! assert_eq!(cluster.total_rows(), 1);
//! cluster.execute(&Add("cart-1".into(), 1)).unwrap();
//! let got = cluster.execute(&Get("cart-1".into())).unwrap();
//! assert_eq!(got, TxnOutput::Row(Row::new([Value::Int(43)])));
//! # let _ = kv;
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod cluster;
pub mod hash;
pub mod partition;
pub mod skew;
pub mod stats;
mod storage;
pub mod txn;
pub mod value;

pub use catalog::{Catalog, TableId, TableSchema};
pub use cluster::{ChunkResult, Cluster, ClusterConfig, ReconfigError};
pub use txn::{Procedure, TxnCtx, TxnError, TxnOutput};
pub use value::{Key, KeyValue, Row, Text, Value};
