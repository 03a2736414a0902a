//! A fixed piece of work run between slices, to tell how fast the host is
//! right now.
//!
//! On a shared host identical work runs up to one and a half times slower
//! for seconds or minutes at a time, with CPU time equal to wall time: a
//! neighbour on the same core or cache, not descheduling. No statistic of
//! the slices alone can see through a slow spell that outlasts the run (see
//! `stats`). So every slice is bracketed by runs of this probe, and host
//! times are reported at **reference speed**: scaled by what the probe takes
//! on a quiet sizing host over what it took around the slice.
//!
//! The probe has to move with the host and with nothing else:
//!
//! - It does the program's kind of work (building string keys, ordered-map
//!   and hash-map lookups, row updates) but shares no code with it, so a
//!   change to the program's code cannot move it.
//! - Its data (about 1 MB) fits the core's private cache, and every run first
//!   touches all of it and runs a few operations *untimed*. Whatever the
//!   workload evicted since the last run is back before the clock starts, so
//!   a change to the program's cache footprint cannot move it either. (An
//!   earlier 3 MB probe, timed cold, took 2.0 ms beside the engine loop,
//!   2.5 ms inside the simulators and 1.2 ms back to back.)
//! - It is not so small that it is pure arithmetic: during one slow spell
//!   the cache-resident simulator slowed by 31 %, a 70 KB probe by 15 % and
//!   one of this size by 28 %. (It is also not so large that it feels a
//!   neighbour's pressure on the shared cache and on memory, which
//!   `engine_scale_cycle` does feel: warmed probes of 4 and 16 MB followed
//!   that workload a little better and the simulators worse, at three and
//!   six times the cost.)

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// What one probe run takes on the sizing host (2-vCPU sandbox) when
/// nothing interferes: the fast quartile of its times was 1.09–1.13 ms in the
/// quieter half of forty 20 s runs. It only fixes the scale of the reported
/// times, so that they are about what a stopwatch shows on that host on a
/// quiet day; comparisons between two versions of the program do not depend
/// on it.
pub const REFERENCE_NANOS: f64 = 1_100_000.0;

const ROWS: u64 = 4_096;
/// Untimed operations after the untimed pass over the data: they bring the
/// probe's code and branch history back as that pass brings back its data.
const WARM_OPS: u32 = 256;
const TIMED_OPS: u32 = 5_000;

/// The probe's own little database.
struct Probe {
    /// The key being looked up, formatted afresh for every operation (the
    /// program, too, spends much of its time building and comparing keys)
    /// into one buffer, so that the probe allocates nothing.
    key: String,
    rows: BTreeMap<String, Vec<u64>>,
    index: HashMap<String, u64>,
    state: u64,
}

fn write_key(key: &mut String, i: u64) {
    key.clear();
    write!(key, "{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).expect("writing to a String");
}

fn key(i: u64) -> String {
    let mut key = String::new();
    write_key(&mut key, i);
    key
}

impl Probe {
    fn new() -> Self {
        Probe {
            key: String::with_capacity(16),
            rows: (0..ROWS).map(|i| (key(i), vec![i; 8])).collect(),
            index: (0..ROWS).map(|i| (key(i), i)).collect(),
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Reads every key and row once.
    fn touch_all(&self) -> u64 {
        let mut sum = 0u64;
        for (key, row) in &self.rows {
            sum = sum.wrapping_add(u64::from(key.as_bytes()[0]));
            sum = row.iter().fold(sum, |a, &v| a.wrapping_add(v));
        }
        for (key, &i) in &self.index {
            sum = sum.wrapping_add(u64::from(key.as_bytes()[0]) ^ i);
        }
        sum
    }

    fn operate(&mut self, ops: u32) -> u64 {
        let mut sum = 0u64;
        for _ in 0..ops {
            // xorshift64: the same key sequence on every host, forever.
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            write_key(&mut self.key, self.state % ROWS);
            if let Some(&i) = self.index.get(&self.key) {
                sum = sum.wrapping_add(i);
            }
            if let Some(row) = self.rows.get_mut(&self.key) {
                row[(self.state >> 32) as usize % 8] = sum;
                // The rows hold running sums: wrapping is the arithmetic
                // meant, in every build profile.
                sum = row.iter().fold(sum, |a, &v| a.wrapping_add(v));
            }
        }
        sum
    }

    /// Allocates nothing, so it can run while allocations are counted.
    fn run(&mut self) -> u64 {
        std::hint::black_box(self.touch_all());
        std::hint::black_box(self.operate(WARM_OPS));
        let started = Instant::now();
        std::hint::black_box(self.operate(TIMED_OPS));
        started.elapsed().as_nanos() as u64
    }
}

thread_local! {
    // One probe per (single-threaded) process; a thread-local keeps the
    // strategy wrapper that runs it `Send`.
    static PROBE: RefCell<Probe> = RefCell::new(Probe::new());
}

/// Runs the probe once and returns the host nanoseconds its timed part
/// took. The first call on a thread also builds the probe's data.
pub fn run() -> u64 {
    PROBE.with(|p| p.borrow_mut().run())
}

/// `nanos` of host time as they would have been at reference speed, given
/// what the probe took around them.
pub fn at_reference_speed(nanos: f64, probe_nanos: f64) -> f64 {
    nanos * REFERENCE_NANOS / probe_nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_repeats_its_work_and_scales_times() {
        let first = run();
        let second = run();
        assert!(first > 0 && second > 0);
        // Its work is fixed: two probes built alike end in the same state.
        let (mut a, mut b) = (Probe::new(), Probe::new());
        assert_eq!(a.operate(1_000), b.operate(1_000));
        assert_eq!(a.touch_all(), b.touch_all());
        // A slice that took 30 ms while the probe ran at half speed would
        // have taken 15 ms on a quiet host.
        let scaled = at_reference_speed(30e6, 2.0 * REFERENCE_NANOS);
        assert!((scaled - 15e6).abs() < 1e-3);
    }
}
