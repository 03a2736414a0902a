//! The four workloads and what they share: the slice-cutting strategy
//! wrapper, the exact outcome of a pass, and the pass-repeating loop.
//!
//! Load is closed loop with one client thread: the benchmark calls the
//! program and waits. Inside the simulators arrivals are open-loop Poisson
//! on the simulated clock. Every random stream derives from `--seed`.

pub mod control;
pub mod engine;
pub mod sim;

use crate::stats::Slice;
use crate::{alloc, calib, spans};
use pstore_core::controller::{Action, Observation, Strategy};
use std::time::{Duration, Instant};

/// Seed the committed outcomes and baseline were recorded at. (`0x5EED` is
/// the held-out seed: used for no decision while a change is written.)
pub const DEFAULT_SEED: u64 = 0x0709;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Flat load on a fixed cluster in the detailed simulator.
    StaticSteady,
    /// One B2W day under P-Store/SPAR in the detailed simulator.
    ElasticDay,
    /// The engine alone, settled and under back-to-back reconfigurations.
    EngineScaleCycle,
    /// Months of controller ticks in the slot simulator.
    ControlLoop,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 4] = [
        Workload::StaticSteady,
        Workload::ElasticDay,
        Workload::EngineScaleCycle,
        Workload::ControlLoop,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticSteady => "static_steady",
            Workload::ElasticDay => "elastic_day",
            Workload::EngineScaleCycle => "engine_scale_cycle",
            Workload::ControlLoop => "control_loop",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation of `ops_per_s` is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ControlLoop => "controller tick",
            _ => "transaction",
        }
    }
}

/// What a run does besides timing slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed slices only: the end-to-end configuration.
    Plain,
    /// Timed slices plus spans around every call the benchmark makes.
    Traced,
}

/// The exact, host-independent result of one pass of fixed work. Two passes
/// at one seed must compare equal; a change meant only to speed the host
/// must leave every field bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations offered (arrivals, transactions or ticks).
    pub attempted: u64,
    /// Operations dropped, aborted or failed.
    pub failed: u64,
    /// Simulated seconds (detailed simulator) or slots (slot simulator)
    /// that met the service objective, and their total; `(0, 0)` where the
    /// workload has no simulated clock.
    pub ok_time: u64,
    /// See `ok_time`.
    pub total_time: u64,
    /// Machines allocated, averaged over simulated time (or, for the engine
    /// loop, over transactions).
    pub avg_machines: f64,
    /// Reconfigurations completed.
    pub reconfigurations: u64,
    /// Further exact facts, reported per layer and kept in `expected.json`.
    pub facts: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Share of offered operations that completed, in percent.
    pub fn served_pct(&self) -> f64 {
        100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Share of simulated time that met the service objective, in percent
    /// (100 where there is no simulated clock to violate it on).
    pub fn sla_ok_pct(&self) -> f64 {
        if self.total_time == 0 {
            return 100.0;
        }
        100.0 * self.ok_time as f64 / self.total_time as f64
    }

    /// One canonical line: what `expected.json` stores and compares.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "{{\"attempted\": {}, \"failed\": {}, \"ok_time\": {}, \"total_time\": {}, \
             \"avg_machines\": {}, \"reconfigurations\": {}",
            self.attempted,
            self.failed,
            self.ok_time,
            self.total_time,
            self.avg_machines,
            self.reconfigurations
        );
        for (name, value) in &self.facts {
            s.push_str(&format!(", \"{name}\": {value}"));
        }
        s.push('}');
        s
    }
}

/// Timed slices and outcomes of repeated passes of one workload.
#[derive(Debug)]
pub struct Measurement {
    /// Every timed slice of every pass.
    pub slices: Vec<Slice>,
    /// One set-up time per set-up performed, in seconds.
    pub setup_s: Vec<f64>,
    /// Outcome of the first pass.
    pub outcome: Outcome,
    /// Operations attempted and failed over all passes.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Passes completed.
    pub passes: u32,
    /// Correctness failures found while measuring.
    pub errors: Vec<String>,
}

/// Repeats `pass` until the time spent is as close to `budget` as whole
/// passes get (at least one), checking that every pass has the same outcome.
pub fn repeat_passes(
    budget: Duration,
    mut pass: impl FnMut() -> (Cut, Outcome, Vec<String>),
) -> Measurement {
    let started = Instant::now();
    let (cut, outcome, errors) = pass();
    let mut m = Measurement {
        slices: cut.slices,
        setup_s: vec![cut.setup_s],
        attempted: outcome.attempted,
        failed: outcome.failed,
        outcome,
        passes: 1,
        errors,
    };
    loop {
        let spent = started.elapsed();
        if spent + spent / m.passes / 2 > budget {
            return m;
        }
        let (cut, outcome, errors) = pass();
        m.slices.extend(cut.slices);
        m.setup_s.push(cut.setup_s);
        m.attempted += outcome.attempted;
        m.failed += outcome.failed;
        m.passes += 1;
        m.errors.extend(errors);
        if outcome != m.outcome {
            m.errors.push(format!(
                "pass {} differs from pass 1: {} vs {}",
                m.passes,
                outcome.canonical(),
                m.outcome.canonical()
            ));
        }
    }
}

/// What the slicer cut out of one simulator run.
#[derive(Debug, Default)]
pub struct Cut {
    /// The timed slices.
    pub slices: Vec<Slice>,
    /// Seconds, at reference speed, from the start of set-up to the first
    /// controller tick.
    pub setup_s: f64,
    /// Operations the slices account for.
    pub work: f64,
    /// Heap allocations between the first and the last tick (counted only
    /// while the allocator's flag is on).
    pub allocations: u64,
}

/// How a slice's work is counted.
#[derive(Debug, Clone, Copy)]
pub enum Work {
    /// Transactions: the arrivals each tick reports for its interval of
    /// this many simulated seconds.
    Arrivals(f64),
    /// Controller ticks. Such slices span days and every one contains
    /// reconfigurations, so they are not labelled by them.
    Ticks,
}

/// A [`Strategy`] that delegates to the real controller and cuts the run
/// into slices from outside: it reads the clock on entry to every
/// `ticks_per_slice`-th tick, so a slice is everything the simulator did
/// between two reads.
pub struct Slicer {
    inner: Box<dyn Strategy>,
    work: Work,
    ticks_per_slice: usize,
    started: Instant,
    last_cut: Option<Instant>,
    ticks_in_slice: usize,
    work_in_slice: f64,
    /// A reconfiguration was in flight at, or requested by, an earlier
    /// tick of the slice being filled.
    touched: bool,
    allocations_at_first_tick: u64,
    /// What the probe took when last run: before set-up, then at each cut.
    probe_before: u64,
    cut: Cut,
}

impl Slicer {
    /// Wraps `inner`. `started` is when set-up began and `probe_before`
    /// what the calibration probe took just before that.
    pub fn new(
        inner: Box<dyn Strategy>,
        work: Work,
        ticks_per_slice: usize,
        started: Instant,
        probe_before: u64,
    ) -> Self {
        Slicer {
            inner,
            work,
            ticks_per_slice,
            started,
            last_cut: None,
            ticks_in_slice: 0,
            work_in_slice: 0.0,
            touched: false,
            allocations_at_first_tick: 0,
            probe_before,
            cut: Cut::default(),
        }
    }

    /// The slices cut so far.
    pub fn finish(self) -> Cut {
        self.cut
    }
}

impl Strategy for Slicer {
    fn tick(&mut self, obs: &Observation) -> Action {
        let now = Instant::now();
        let Some(last_cut) = self.last_cut else {
            // First tick: set-up ends here and the first slice starts.
            let probe_after = calib::run();
            self.cut.setup_s = calib::at_reference_speed(
                (now - self.started).as_secs_f64(),
                (self.probe_before + probe_after) as f64 / 2.0,
            );
            self.probe_before = probe_after;
            self.allocations_at_first_tick = alloc::allocations();
            self.last_cut = Some(Instant::now());
            return self.delegate(obs);
        };
        self.ticks_in_slice += 1;
        self.work_in_slice += match self.work {
            Work::Arrivals(interval_s) => (obs.load * interval_s).round(),
            Work::Ticks => 1.0,
        };
        if self.ticks_in_slice == self.ticks_per_slice {
            self.cut.allocations = alloc::allocations() - self.allocations_at_first_tick;
            let probe_after = calib::run();
            self.cut.slices.push(Slice {
                work: self.work_in_slice,
                nanos: (now - last_cut).as_nanos() as f64,
                reconfig: matches!(self.work, Work::Arrivals(_))
                    && (self.touched || obs.reconfiguring),
                probe_nanos: (self.probe_before + probe_after) as f64 / 2.0,
            });
            self.probe_before = probe_after;
            self.cut.work += self.work_in_slice;
            self.last_cut = Some(Instant::now());
            self.ticks_in_slice = 0;
            self.work_in_slice = 0.0;
            self.touched = false;
        }
        self.delegate(obs)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_machines(&self) -> u32 {
        self.inner.initial_machines()
    }
}

impl Slicer {
    /// The real tick, under a span when a traced run is recording.
    fn delegate(&mut self, obs: &Observation) -> Action {
        spans::begin("core.tick", 1);
        let action = self.inner.tick(obs);
        spans::end();
        if action != Action::None {
            spans::add("core.decisions", 1.0);
            self.touched = true;
        }
        self.touched |= obs.reconfiguring;
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstore_core::controller::{ReconfigReason, ReconfigRequest};

    /// Asks for a reconfiguration at the ticks listed.
    struct Scripted(Vec<usize>);
    impl Strategy for Scripted {
        fn tick(&mut self, obs: &Observation) -> Action {
            if self.0.contains(&obs.interval) {
                Action::Reconfigure(ReconfigRequest {
                    target: 2,
                    rate_multiplier: 1.0,
                    reason: ReconfigReason::Policy,
                    decision_id: 0,
                })
            } else {
                Action::None
            }
        }
        fn name(&self) -> &str {
            "scripted"
        }
        fn initial_machines(&self) -> u32 {
            1
        }
    }

    fn obs(interval: usize, load: f64, reconfiguring: bool) -> Observation {
        Observation {
            interval,
            load,
            machines: 1,
            reconfiguring,
        }
    }

    #[test]
    fn slicer_counts_arrivals_and_labels_slices_by_reconfiguration() {
        let mut s = Slicer::new(
            Box::new(Scripted(vec![1])),
            Work::Arrivals(30.0),
            1,
            Instant::now(),
            0,
        );
        s.tick(&obs(0, 0.0, false)); // set-up ends
        s.tick(&obs(1, 10.0, false)); // slice 0: settled; asks for a move
        s.tick(&obs(2, 20.0, true)); // slice 1: the move started inside it
        s.tick(&obs(3, 30.0, false)); // slice 2: the move ended inside it
        s.tick(&obs(4, 40.0, false)); // slice 3: settled again
        let cut = s.finish();
        let labels: Vec<bool> = cut.slices.iter().map(|s| s.reconfig).collect();
        assert_eq!(labels, [false, true, true, false]);
        let work: Vec<f64> = cut.slices.iter().map(|s| s.work).collect();
        assert_eq!(work, [300.0, 600.0, 900.0, 1200.0]);
        assert_eq!(cut.work, 3000.0);
    }

    #[test]
    fn slicer_groups_ticks_into_slices_and_drops_the_partial_tail() {
        let mut s = Slicer::new(
            Box::new(Scripted(Vec::new())),
            Work::Ticks,
            3,
            Instant::now(),
            0,
        );
        for k in 0..=7 {
            s.tick(&obs(k, 1.0, false));
        }
        let cut = s.finish();
        assert_eq!(cut.slices.len(), 2);
        assert!(cut.slices.iter().all(|s| s.work == 3.0));
        assert_eq!(cut.work, 6.0);
    }

    #[test]
    fn passes_repeat_until_the_budget_and_must_agree() {
        let outcome = |attempted| Outcome {
            attempted,
            failed: 0,
            ok_time: 0,
            total_time: 0,
            avg_machines: 1.0,
            reconfigurations: 0,
            facts: Vec::new(),
        };
        // A zero budget still runs one pass.
        let m = repeat_passes(Duration::ZERO, || (Cut::default(), outcome(5), Vec::new()));
        assert_eq!((m.passes, m.attempted, m.errors.len()), (1, 5, 0));
        // Passes that disagree are reported.
        let mut n = 0;
        let m = repeat_passes(Duration::from_millis(20), || {
            n += 1;
            std::thread::sleep(Duration::from_millis(5));
            (Cut::default(), outcome(n.min(2)), Vec::new())
        });
        assert!(m.passes >= 2 && !m.errors.is_empty(), "{m:?}");
        assert_eq!(m.setup_s.len(), m.passes as usize);
    }

    #[test]
    fn outcome_shares() {
        let o = Outcome {
            attempted: 200,
            failed: 1,
            ok_time: 99,
            total_time: 100,
            avg_machines: 5.5,
            reconfigurations: 2,
            facts: vec![("sim.p99_ms", 31.5)],
        };
        assert_eq!((o.served_pct(), o.sla_ok_pct()), (99.5, 99.0));
        assert!(o
            .canonical()
            .ends_with("\"reconfigurations\": 2, \"sim.p99_ms\": 31.5}"));
    }
}
