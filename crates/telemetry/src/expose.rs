//! Prometheus-text-format exposition over a plain `TcpListener`.
//!
//! [`Exposer::bind`] starts a background thread serving the current
//! [`LiveMetrics`] state at every request (any path), using the
//! Prometheus text format version 0.0.4. No HTTP library: the server
//! reads until the end of the request headers and writes one fixed
//! response, which is all a scraper (or `curl`) needs. Opt-in via
//! `--expose-metrics <port>` on the shared bench `RunReporter`; with the
//! flag off nothing binds and the telemetry feature still compiles away
//! in consumer crates.

use crate::sync::{Arc, AtomicBool, Mutex, Ordering};
use crate::timeseries::LiveMetrics;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running exposition endpoint. Dropping it (or calling
/// [`Exposer::shutdown`]) stops the background thread.
pub struct Exposer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Exposer {
    /// Binds `127.0.0.1:port` (port 0 picks an ephemeral port — read the
    /// result from [`Exposer::addr`]) and serves `shared` until shutdown.
    ///
    /// # Errors
    /// Returns the bind error with the attempted address spelled out —
    /// `--expose-metrics` on an already-bound port must surface as a
    /// clear, actionable message, never a panic path.
    pub fn bind(port: u16, shared: Arc<Mutex<LiveMetrics>>) -> std::io::Result<Exposer> {
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| {
            let hint = if e.kind() == std::io::ErrorKind::AddrInUse {
                " (already in use — pick another port, or 0 for an ephemeral one)"
            } else {
                ""
            };
            std::io::Error::new(
                e.kind(),
                format!("cannot bind metrics endpoint 127.0.0.1:{port}: {e}{hint}"),
            )
        })?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // pstore-lint: allow(SA-04): the exposition thread blocks in socket
        // accept() for the life of the run, which no scoped map can host; its
        // shared state (stop flag, LiveMetrics mutex) still goes through the
        // crate::sync gateway.
        let thread = std::thread::Builder::new()
            .name("pstore-expose".to_string())
            .spawn(move || serve(&listener, &shared, &stop_flag))?;
        Ok(Exposer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub fn shutdown(&mut self) {
        if self.thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only checks the flag between connections, so
        // poke it awake with one throwaway connect.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Exposer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(listener: &TcpListener, shared: &Arc<Mutex<LiveMetrics>>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Per-connection errors (slow or vanished scrapers) must not
        // take the run down; just drop the connection.
        let _ = handle_connection(stream, shared);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &Arc<Mutex<LiveMetrics>>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the blank line ending the request headers (or timeout /
    // a hard cap — the request itself is irrelevant, every path serves
    // the same metrics page).
    let mut buf = [0u8; 1024];
    let mut seen = Vec::with_capacity(1024);
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = match shared.lock() {
        Ok(live) => live.render_prometheus(),
        Err(_) => String::new(),
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// One blocking scrape of `addr`, returning the response body. Used by
/// the telemetry smoke test and the bench self-checks.
///
/// # Errors
/// Propagates connect/read errors and malformed (headerless) responses.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some(idx) = response.find("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response has no header/body separator",
        ));
    };
    if !response.starts_with("HTTP/1.0 200") && !response.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "non-200 response: {}",
                response.lines().next().unwrap_or_default()
            ),
        ));
    }
    Ok(response[idx + 4..].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{kinds, Event};

    #[test]
    #[cfg_attr(miri, ignore = "miri cannot bind TCP sockets")]
    fn binds_serves_and_shuts_down() {
        let shared = Arc::new(Mutex::new(LiveMetrics::new()));
        {
            let mut ev = Event::new(kinds::SECOND)
                .with("p99", 0.02)
                .with("throughput", 1000.0);
            ev.t = Some(1.0);
            if let Ok(mut live) = shared.lock() {
                live.observe(&ev);
            }
        }
        let mut exposer = Exposer::bind(0, Arc::clone(&shared)).unwrap();
        let body = scrape(exposer.addr()).unwrap();
        assert!(body.contains("pstore_events_total{kind=\"second\"} 1"));
        assert!(body.contains("pstore_p99 0.02"));

        // State updates are visible on the next scrape.
        if let Ok(mut live) = shared.lock() {
            live.inc_counter("chunk_moves", 3.0);
        }
        let body = scrape(exposer.addr()).unwrap();
        assert!(body.contains("pstore_chunk_moves_total 3"));

        let addr = exposer.addr();
        exposer.shutdown();
        // After shutdown the port no longer answers.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore = "miri cannot bind TCP sockets")]
    fn bind_of_taken_port_is_a_clear_error_not_a_panic() {
        let shared = Arc::new(Mutex::new(LiveMetrics::new()));
        let first = Exposer::bind(0, Arc::clone(&shared)).unwrap();
        let port = first.addr().port();
        let second = Exposer::bind(port, shared);
        let err = second.err().expect("second bind of the same port");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("127.0.0.1:{port}")),
            "error names the address: {msg}"
        );
        assert!(msg.contains("already in use"), "error gives a hint: {msg}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "miri cannot bind TCP sockets")]
    fn scrape_of_dead_port_errors() {
        let shared = Arc::new(Mutex::new(LiveMetrics::new()));
        let exposer = Exposer::bind(0, shared).unwrap();
        let addr = exposer.addr();
        drop(exposer);
        assert!(scrape(addr).is_err());
    }
}
