//! pstore-lint: sync-shim — the crate's gateway to synchronisation
//! primitives.

pub use std::sync::Mutex;
