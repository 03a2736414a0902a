//! Pluggable event sinks.
//!
//! A [`Sink`] receives every emitted [`Event`]. Three implementations
//! cover the crate's needs: [`NoopSink`] (every event is built, then
//! dropped; with no sink installed at all nothing is built),
//! [`MemorySink`] for tests, and [`JsonlSink`] for runs that want a trace
//! file `pstore-trace` can read back.

use crate::event::Event;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// Receives emitted events. Sinks are thread-local (installed via
/// [`crate::install`]), so implementations use interior mutability
/// rather than `&mut self`.
pub trait Sink {
    /// Records one event.
    fn record(&self, event: &Event);
    /// Flushes buffered output (no-op for unbuffered sinks).
    fn flush(&self) {}
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Collects events in memory; the [`MemorySinkHandle`] returned by
/// [`MemorySink::new`] stays valid for assertions after the sink is
/// installed.
pub struct MemorySink {
    events: Rc<RefCell<Vec<Event>>>,
}

/// Shared view into a [`MemorySink`]'s collected events.
#[derive(Clone)]
pub struct MemorySinkHandle {
    events: Rc<RefCell<Vec<Event>>>,
}

impl MemorySink {
    /// Creates a sink plus a handle for reading what it collected.
    pub fn new() -> (Self, MemorySinkHandle) {
        let events = Rc::new(RefCell::new(Vec::new()));
        (
            MemorySink {
                events: Rc::clone(&events),
            },
            MemorySinkHandle { events },
        )
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.borrow_mut().push(event.clone());
    }
}

impl MemorySinkHandle {
    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Events of one kind, cloned.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }
}

/// Appends one JSON object per event to a file.
pub struct JsonlSink {
    writer: RefCell<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: RefCell::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self.writer.borrow_mut();
        // Trace output is best-effort: a full disk should not crash the
        // run being traced.
        let _ = writeln!(w, "{}", event.to_json_line());
    }

    fn flush(&self) {
        let _ = self.writer.borrow_mut().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.borrow_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_collects_and_filters() {
        let (sink, handle) = MemorySink::new();
        sink.record(&Event::new("a"));
        sink.record(&Event::new("b"));
        sink.record(&Event::new("a"));
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.of_kind("a").len(), 2);
        assert!(!handle.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "miri isolation rejects real file I/O")]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("pstore_telemetry_sink_test.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            let mut ev = Event::new("x").with("v", 1u64);
            ev.seq = 7;
            sink.record(&ev);
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().next().unwrap();
        let parsed = Event::from_json(&crate::json::parse(line).unwrap()).unwrap();
        assert_eq!(parsed.seq, 7);
        assert_eq!(parsed.field_u64("v"), Some(1));
        let _ = std::fs::remove_file(&path);
    }
}
