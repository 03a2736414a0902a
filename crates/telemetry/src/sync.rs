//! Synchronisation gateway for the telemetry crate.
//!
//! pstore-lint: sync-shim — this module is the crate's single sanctioned
//! gateway to synchronisation primitives (SA-04): everything here is a
//! plain `std::sync` re-export, named in one place so the crate's
//! cross-thread surface (the `SEQ`/`SPAN_IDS` id counters, `WALL_EPOCH`)
//! can be read off this list.

pub use std::sync::atomic::{AtomicU64, Ordering};
pub use std::sync::OnceLock;
