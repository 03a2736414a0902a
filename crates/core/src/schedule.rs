//! Round-by-round migration schedules (§4.4.1, Table 1, Fig 4).
//!
//! A move from `B` to `A` machines transfers an equal amount of data between
//! every (sender, receiver) machine pair — `1/(A*B)` of the database per
//! pair — so that data stays evenly spread. Each machine participates in at
//! most one transfer at a time, so a schedule is a sequence of *rounds*,
//! each a matching between senders and receivers. P-Store's schedules
//! achieve the minimum possible number of rounds (`max(s, Δ)` where `s` is
//! the smaller cluster and `Δ` the number of machines added or removed)
//! while allocating new machines as late as possible:
//!
//! * **Case 1** (`Δ <= s`): all new machines at once, senders rotate.
//! * **Case 2** (`Δ = k*s`): `k` blocks of `s` machines, allocated
//!   just-in-time, each filled by `s` perfect-matching rounds.
//! * **Case 3** (otherwise): three phases — `k-1` full blocks, one block
//!   filled only `r/s` of the way, then the final `r` machines while the
//!   partial block tops up (Table 1's 3 -> 14 example). Phase 3 is scheduled
//!   with a bipartite edge-colouring solver, which guarantees `s` perfect
//!   rounds.
//!
//! Scale-in schedules are the exact time-reverse of scale-out schedules,
//! with machines deallocated as soon as they are drained.
//!
//! ```
//! use pstore_core::schedule::MigrationSchedule;
//! let s = MigrationSchedule::plan(3, 14); // Table 1's example
//! assert_eq!(s.total_rounds(), 11);
//! assert_eq!(s.total_transfers(), 33);
//! s.check_valid().unwrap();
//! ```

use crate::cost_model::{eff_cap, move_time};
use crate::invariant::{InvariantId, Violation};

/// A single machine-to-machine transfer of `1/(A*B)` of the database.
/// With `P` partitions per machine it runs as `P` parallel partition
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sending machine id.
    pub from: u32,
    /// Receiving machine id.
    pub to: u32,
}

/// One round of parallel transfers (a matching: no machine appears twice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// The concurrent transfers of this round.
    pub transfers: Vec<Transfer>,
}

/// A complete schedule for one move.
///
/// Machine ids: `0..min(B, A)` are the machines present before and after;
/// on scale-out ids `B..A` are the new machines, on scale-in ids `A..B` are
/// the machines being drained and removed.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationSchedule {
    b: u32,
    a: u32,
    rounds: Vec<Round>,
    /// For each transient machine id (new on scale-out, leaving on
    /// scale-in), the rounds `[start, end)` during which it is allocated,
    /// as indices into `rounds` (end exclusive; `end == rounds.len()` means
    /// "until the move completes").
    presence: Vec<(u32, usize, usize)>,
}

impl MigrationSchedule {
    /// Plans the schedule for a move from `b` to `a` machines.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn plan(b: u32, a: u32) -> Self {
        assert!(b > 0 && a > 0, "machine counts must be positive");
        let schedule = Self::plan_unchecked(b, a);
        pstore_telemetry::tel_event!(pstore_telemetry::SchedulePlanned {
            from: b.into(),
            to: a.into(),
            rounds: pstore_telemetry::count(schedule.rounds.len()),
        });
        if cfg!(debug_assertions) {
            let violations = schedule.check_violations();
            assert!(
                violations.is_empty(),
                "MigrationSchedule::plan({b}, {a}) violated its own invariants:\n{}",
                crate::invariant::report(&violations)
            );
        }
        schedule
    }

    fn plan_unchecked(b: u32, a: u32) -> Self {
        if b == a {
            return MigrationSchedule {
                b,
                a,
                rounds: Vec::new(),
                presence: Vec::new(),
            };
        }
        if b < a {
            let (rounds, alloc) = scale_out_rounds(b, a - b);
            let total = rounds.len();
            let presence = alloc.into_iter().map(|(m, r)| (m, r, total)).collect();
            MigrationSchedule {
                b,
                a,
                rounds,
                presence,
            }
        } else {
            // Scale-in b -> a: time-reverse the scale-out a -> b schedule.
            // In the scale-out view, "senders" 0..a are the keepers and
            // "receivers" a..b are, here, the leaving machines that drain
            // back into the keepers.
            let (out_rounds, alloc) = scale_out_rounds(a, b - a);
            let total = out_rounds.len();
            let rounds: Vec<Round> = out_rounds
                .into_iter()
                .rev()
                .map(|r| Round {
                    transfers: r
                        .transfers
                        .into_iter()
                        .map(|t| Transfer {
                            from: t.to,
                            to: t.from,
                        })
                        .collect(),
                })
                .collect();
            // A machine allocated at round r in forward time (present for
            // rounds [r, total)) is present for reversed rounds
            // [0, total - r) and deallocated as soon as it drains.
            let presence = alloc.into_iter().map(|(m, r)| (m, 0, total - r)).collect();
            MigrationSchedule {
                b,
                a,
                rounds,
                presence,
            }
        }
    }

    /// Machines before the move.
    pub fn before(&self) -> u32 {
        self.b
    }

    /// Machines after the move.
    pub fn after(&self) -> u32 {
        self.a
    }

    /// The rounds in execution order.
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// Total number of rounds (equals `max(s, Δ)`, the theoretical minimum).
    pub fn total_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total machine-pair transfers (`s * Δ`).
    pub fn total_transfers(&self) -> usize {
        self.rounds.iter().map(|r| r.transfers.len()).sum()
    }

    /// Fraction of the database each pair transfer carries: `1/(A*B)`.
    pub fn pair_fraction(&self) -> f64 {
        1.0 / (self.a as f64 * self.b as f64)
    }

    /// Number of machines allocated during round `i`.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "at most `max(B, A)` transient machines"
    )]
    pub fn machines_in_round(&self, i: usize) -> u32 {
        let stable = self.b.min(self.a);
        let transient = self
            .presence
            .iter()
            .filter(|&&(_, start, end)| i >= start && i < end)
            .count() as u32;
        stable + transient
    }

    /// Average machines allocated over the move (each round lasts the same
    /// wall-clock time, so this is the simple mean over rounds). Matches
    /// Algorithm 4's closed form.
    pub fn avg_machines(&self) -> f64 {
        if self.rounds.is_empty() {
            return self.a as f64;
        }
        (0..self.rounds.len())
            .map(|i| self.machines_in_round(i) as f64)
            .sum::<f64>()
            / self.rounds.len() as f64
    }

    /// Fraction of the *moving* data transferred after `i` completed rounds
    /// (the `f` of Equation 7).
    pub fn fraction_after_round(&self, i: usize) -> f64 {
        let total = self.total_transfers();
        if total == 0 {
            return 1.0;
        }
        let done: usize = self.rounds[..i.min(self.rounds.len())]
            .iter()
            .map(|r| r.transfers.len())
            .sum();
        done as f64 / total as f64
    }

    /// Wall-clock duration of the move given `d` (single-thread full-DB
    /// migration time) and `p` partitions per machine — equals Equation 3.
    pub fn duration(&self, p: u32, d: f64) -> f64 {
        move_time(self.b, self.a, p, d)
    }

    /// Duration of a single round: one pair transfer of `1/(A*B)` of the
    /// database with `p` parallel partition streams.
    pub fn round_duration(&self, p: u32, d: f64) -> f64 {
        d * self.pair_fraction() / p as f64
    }

    /// The (time-in-units-of-D, machines-allocated, effective-capacity)
    /// trajectory sampled at round boundaries — the data behind Fig 4.
    pub fn trajectory(&self, p: u32, d: f64, q: f64) -> Vec<TrajectoryPoint> {
        let rd = self.round_duration(p, d);
        (0..=self.rounds.len())
            .map(|i| TrajectoryPoint {
                time: i as f64 * rd,
                machines: if i < self.rounds.len() {
                    self.machines_in_round(i)
                } else {
                    self.a.max(self.b.min(self.a))
                },
                effective_capacity: eff_cap(self.b, self.a, self.fraction_after_round(i), q),
            })
            .collect()
    }

    /// The artifact label used in [`Violation`] diagnostics.
    fn artifact(&self) -> String {
        format!("schedule {}->{}", self.b, self.a)
    }

    /// Checks every structural invariant of this schedule, returning one
    /// [`Violation`] per failure (empty when valid).
    ///
    /// Checked invariants: `SCH-01` round-count minimality, `SCH-02`
    /// per-round matching validity, `SCH-03` pair coverage (`1/(A*B)`
    /// data conservation), `SCH-04` just-in-time presence, `SCH-05`
    /// sender/receiver role direction, and `SCH-06` empty no-op. The
    /// cross-schedule invariants (`SCH-07` reversal symmetry, `SCH-08`
    /// Algorithm 4 agreement) live in the `pstore-verify` crate because
    /// they compare multiple artifacts.
    pub fn check_violations(&self) -> Vec<Violation> {
        use std::collections::HashSet;
        let mut out = Vec::new();
        let artifact = self.artifact();
        if self.b == self.a {
            if !self.rounds.is_empty() {
                out.push(Violation::new(
                    InvariantId::ScheduleNoopEmpty,
                    artifact,
                    format!("noop move must have no rounds, found {}", self.rounds.len()),
                ));
            }
            return out;
        }
        let s = self.b.min(self.a);
        let delta = self.b.abs_diff(self.a);
        let (senders, receivers): (Vec<u32>, Vec<u32>) = if self.b < self.a {
            ((0..self.b).collect(), (self.b..self.a).collect())
        } else {
            ((self.a..self.b).collect(), (0..self.a).collect())
        };

        if self.rounds.len() != s.max(delta) as usize {
            out.push(Violation::new(
                InvariantId::ScheduleRoundCount,
                artifact.clone(),
                format!(
                    "expected {} rounds, found {}",
                    s.max(delta),
                    self.rounds.len()
                ),
            ));
        }

        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for (i, round) in self.rounds.iter().enumerate() {
            let mut busy: HashSet<u32> = HashSet::new();
            for t in &round.transfers {
                if !senders.contains(&t.from) {
                    out.push(Violation::new(
                        InvariantId::ScheduleRoleDirection,
                        artifact.clone(),
                        format!("round {i}: {} is not a sender", t.from),
                    ));
                }
                if !receivers.contains(&t.to) {
                    out.push(Violation::new(
                        InvariantId::ScheduleRoleDirection,
                        artifact.clone(),
                        format!("round {i}: {} is not a receiver", t.to),
                    ));
                }
                if !busy.insert(t.from) || !busy.insert(t.to) {
                    out.push(Violation::new(
                        InvariantId::ScheduleRoundMatching,
                        artifact.clone(),
                        format!("round {i}: machine used twice"),
                    ));
                }
                if !seen.insert((t.from, t.to)) {
                    out.push(Violation::new(
                        InvariantId::SchedulePairCoverage,
                        artifact.clone(),
                        format!("pair {} -> {} repeated", t.from, t.to),
                    ));
                }
                // Transient machines must be allocated during this round.
                for m in [t.from, t.to] {
                    if let Some(&(_, start, end)) =
                        self.presence.iter().find(|&&(id, _, _)| id == m)
                    {
                        if i < start || i >= end {
                            out.push(Violation::new(
                                InvariantId::SchedulePresence,
                                artifact.clone(),
                                format!(
                                    "round {i}: machine {m} used outside presence [{start}, {end})"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        let expected_pairs = (s * delta) as usize;
        if seen.len() != expected_pairs {
            out.push(Violation::new(
                InvariantId::SchedulePairCoverage,
                artifact,
                format!(
                    "expected {expected_pairs} distinct pairs (1/(A*B) of the data each), found {}",
                    seen.len()
                ),
            ));
        }
        out
    }

    /// Validates structural invariants; used by tests and debug assertions.
    ///
    /// A thin `Result` adapter over [`Self::check_violations`] — the error
    /// string is the first violation's report line.
    pub fn check_valid(&self) -> Result<(), String> {
        match self.check_violations().into_iter().next() {
            None => Ok(()),
            Some(v) => Err(v.to_string()),
        }
    }
}

/// One sampled point of the Fig 4 trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Elapsed time since the move began, in the unit of `d`.
    pub time: f64,
    /// Machines allocated at this instant.
    pub machines: u32,
    /// Effective capacity (Equation 7) at this instant.
    pub effective_capacity: f64,
}

/// Builds the scale-out schedule for `s` senders (ids `0..s`) and `delta`
/// receivers (ids `s..s+delta`). Returns the rounds plus, for each receiver,
/// the round index at whose start it is allocated.
fn scale_out_rounds(s: u32, delta: u32) -> (Vec<Round>, Vec<(u32, usize)>) {
    debug_assert!(s > 0 && delta > 0);
    let mut rounds: Vec<Round> = Vec::new();
    let mut alloc: Vec<(u32, usize)> = Vec::new();

    if delta <= s {
        // Case 1: all receivers at once; senders rotate round-robin.
        for m in 0..delta {
            alloc.push((s + m, 0));
        }
        for t in 0..s {
            let transfers = (0..delta)
                .map(|j| Transfer {
                    from: (j + t) % s,
                    to: s + j,
                })
                .collect();
            rounds.push(Round { transfers });
        }
        return (rounds, alloc);
    }

    let k = delta / s;
    let r = delta % s;
    let full_blocks = if r == 0 { k } else { k - 1 };

    // Phase 1 (and all of case 2): just-in-time blocks of s receivers, each
    // filled completely by s perfect-matching rounds.
    for block in 0..full_blocks {
        let base = s + block * s;
        let start_round = rounds.len();
        for m in 0..s {
            alloc.push((base + m, start_round));
        }
        for t in 0..s {
            let transfers = (0..s)
                .map(|i| Transfer {
                    from: i,
                    to: base + (i + t) % s,
                })
                .collect();
            rounds.push(Round { transfers });
        }
    }
    if r == 0 {
        return (rounds, alloc);
    }

    // Phase 2: one block of s receivers, filled only r/s of the way.
    let base2 = s + full_blocks * s;
    let phase2_start = rounds.len();
    for m in 0..s {
        alloc.push((base2 + m, phase2_start));
    }
    for t in 0..r {
        let transfers = (0..s)
            .map(|i| Transfer {
                from: i,
                to: base2 + (i + t) % s,
            })
            .collect();
        rounds.push(Round { transfers });
    }

    // Phase 3: the final r receivers arrive; the partial block tops up. The
    // remaining bipartite graph is s-regular on the sender side, so an edge
    // colouring with s colours yields s perfect rounds.
    let base3 = base2 + s;
    let phase3_start = rounds.len();
    for m in 0..r {
        alloc.push((base3 + m, phase3_start));
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for q in 0..s {
        // Receiver base2 + q already got senders (q - t) mod s, t in 0..r.
        for t in r..s {
            let i = (q + s - t % s) % s;
            edges.push((i, base2 + q));
        }
    }
    for m in 0..r {
        for i in 0..s {
            edges.push((i, base3 + m));
        }
    }
    for class in edge_color_bipartite(&edges, s as usize) {
        rounds.push(Round {
            transfers: class
                .into_iter()
                .map(|(from, to)| Transfer { from, to })
                .collect(),
        });
    }
    (rounds, alloc)
}

/// Properly edge-colours a bipartite multigraph-free graph with `colors`
/// colours (must be at least the maximum degree) using the alternating-path
/// (König) method. Returns the colour classes, each a matching.
fn edge_color_bipartite(edges: &[(u32, u32)], colors: usize) -> Vec<Vec<(u32, u32)>> {
    use std::collections::HashMap;

    // Dense remap for left (senders) and right (receivers) vertices.
    let mut left_ids: HashMap<u32, usize> = HashMap::new();
    let mut right_ids: HashMap<u32, usize> = HashMap::new();
    for &(u, v) in edges {
        let next = left_ids.len();
        left_ids.entry(u).or_insert(next);
        let next = right_ids.len();
        right_ids.entry(v).or_insert(next);
    }
    // at_left[v][c] = edge index currently coloured c at left vertex v.
    let mut at_left = vec![vec![None::<usize>; colors]; left_ids.len()];
    let mut at_right = vec![vec![None::<usize>; colors]; right_ids.len()];
    let mut edge_color = vec![usize::MAX; edges.len()];

    let free = |slots: &Vec<Option<usize>>| -> usize {
        slots
            .iter()
            .position(|s| s.is_none())
            .unwrap_or_else(|| unreachable!("colour count below maximum degree"))
    };

    for (e, &(u_raw, v_raw)) in edges.iter().enumerate() {
        let u = left_ids[&u_raw];
        let v = right_ids[&v_raw];
        let cu = free(&at_left[u]);
        let cv = free(&at_right[v]);
        if cu == cv || at_right[v][cu].is_none() {
            // cu free at both ends.
            let c = cu;
            edge_color[e] = c;
            at_left[u][c] = Some(e);
            at_right[v][c] = Some(e);
            continue;
        }
        // Flip the (cu, cv)-alternating path starting at v along colour cu.
        // Path: v --cu-- l1 --cv-- r1 --cu-- l2 ... The path cannot reach u
        // (u has no cu edge and left vertices are entered via cu edges).
        // Collect the path first, then recolour in two passes so the walk
        // never follows an edge it just flipped.
        let mut path: Vec<usize> = Vec::new();
        let mut at_right_vertex = true;
        let mut vertex = v;
        let mut want = cu;
        loop {
            let slot = if at_right_vertex {
                at_right[vertex][want]
            } else {
                at_left[vertex][want]
            };
            let Some(edge) = slot else { break };
            path.push(edge);
            let (lu, rv) = (left_ids[&edges[edge].0], right_ids[&edges[edge].1]);
            vertex = if at_right_vertex { lu } else { rv };
            at_right_vertex = !at_right_vertex;
            want = if want == cu { cv } else { cu };
        }
        for &edge in &path {
            let (lu, rv) = (left_ids[&edges[edge].0], right_ids[&edges[edge].1]);
            let c = edge_color[edge];
            at_left[lu][c] = None;
            at_right[rv][c] = None;
        }
        for &edge in &path {
            let (lu, rv) = (left_ids[&edges[edge].0], right_ids[&edges[edge].1]);
            let flipped = if edge_color[edge] == cu { cv } else { cu };
            edge_color[edge] = flipped;
            at_left[lu][flipped] = Some(edge);
            at_right[rv][flipped] = Some(edge);
        }
        // cu is now free at v (and still free at u).
        edge_color[e] = cu;
        at_left[u][cu] = Some(e);
        at_right[v][cu] = Some(e);
    }

    let mut classes = vec![Vec::new(); colors];
    for (e, &(u, v)) in edges.iter().enumerate() {
        classes[edge_color[e]].push((u, v));
    }
    classes.retain(|c| !c.is_empty());
    classes
}

/// Returns the schedule's implied maximum parallelism, for cross-checking
/// against Equation 2 (machine-pair granularity, i.e. `max‖ / P`).
pub fn peak_parallelism(schedule: &MigrationSchedule) -> usize {
    schedule
        .rounds()
        .iter()
        .map(|r| r.transfers.len())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact rational arithmetic on tiny counts"
    )]
    use super::*;
    use crate::cost_model::{avg_machines_allocated, max_parallel_transfers};

    #[test]
    fn noop_schedule_is_empty() {
        let s = MigrationSchedule::plan(4, 4);
        assert_eq!(s.total_rounds(), 0);
        s.check_valid().unwrap();
    }

    #[test]
    fn case1_three_to_five() {
        // Fig 4a: Δ = 2 <= s = 3. All machines at once, 3 rounds.
        let s = MigrationSchedule::plan(3, 5);
        s.check_valid().unwrap();
        assert_eq!(s.total_rounds(), 3);
        assert_eq!(s.total_transfers(), 6);
        assert_eq!(s.machines_in_round(0), 5);
        assert_eq!(s.avg_machines(), 5.0);
    }

    #[test]
    fn case2_three_to_nine() {
        // Fig 4b: Δ = 6 = 2s. Two just-in-time blocks, 6 rounds.
        let s = MigrationSchedule::plan(3, 9);
        s.check_valid().unwrap();
        assert_eq!(s.total_rounds(), 6);
        assert_eq!(s.machines_in_round(0), 6); // first block only
        assert_eq!(s.machines_in_round(3), 9); // second block allocated
        assert!((s.avg_machines() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn case3_three_to_fourteen_matches_table1() {
        // Table 1: Δ = 11, 11 rounds in three phases.
        let s = MigrationSchedule::plan(3, 14);
        s.check_valid().unwrap();
        assert_eq!(s.total_rounds(), 11);
        assert_eq!(s.total_transfers(), 33);
        // Phase 1: rounds 0-5 with blocks of 3 (6, then 9 machines).
        assert_eq!(s.machines_in_round(0), 6);
        assert_eq!(s.machines_in_round(3), 9);
        // Phase 2: rounds 6-7 with 12 machines.
        assert_eq!(s.machines_in_round(6), 12);
        assert_eq!(s.machines_in_round(7), 12);
        // Phase 3: rounds 8-10 with all 14.
        assert_eq!(s.machines_in_round(8), 14);
        assert_eq!(s.machines_in_round(10), 14);
        // Average matches Algorithm 4's closed form.
        assert!((s.avg_machines() - 111.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn schedules_match_algorithm4_closed_form() {
        for b in 1..=10u32 {
            for a in 1..=16u32 {
                let s = MigrationSchedule::plan(b, a);
                s.check_valid()
                    .unwrap_or_else(|e| panic!("invalid schedule {b}->{a}: {e}"));
                let avg = s.avg_machines();
                let expect = avg_machines_allocated(b, a);
                assert!(
                    (avg - expect).abs() < 1e-9,
                    "avg mismatch for {b}->{a}: schedule {avg} vs closed form {expect}"
                );
            }
        }
    }

    #[test]
    fn scale_in_is_valid_and_symmetric() {
        for (b, a) in [(5u32, 3u32), (9, 3), (14, 3), (10, 4), (7, 2)] {
            let s = MigrationSchedule::plan(b, a);
            s.check_valid()
                .unwrap_or_else(|e| panic!("invalid schedule {b}->{a}: {e}"));
            let mirror = MigrationSchedule::plan(a, b);
            assert_eq!(s.total_rounds(), mirror.total_rounds());
            assert!((s.avg_machines() - mirror.avg_machines()).abs() < 1e-9);
        }
    }

    #[test]
    fn scale_in_deallocates_early() {
        // 9 -> 3: leaving machines drain in blocks; once drained they free.
        let s = MigrationSchedule::plan(9, 3);
        assert_eq!(s.total_rounds(), 6);
        assert_eq!(s.machines_in_round(0), 9);
        assert_eq!(s.machines_in_round(5), 6); // first drained block gone
        assert!((s.avg_machines() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn round_count_is_theoretical_minimum() {
        for b in 1..=12u32 {
            for a in 1..=12u32 {
                if a == b {
                    continue;
                }
                let s = MigrationSchedule::plan(b, a);
                let small = b.min(a);
                let delta = b.abs_diff(a);
                assert_eq!(s.total_rounds() as u32, small.max(delta), "{b}->{a}");
            }
        }
    }

    #[test]
    fn peak_parallelism_matches_equation2() {
        for (b, a) in [(3u32, 5u32), (3, 9), (3, 14), (5, 3), (14, 3), (4, 10)] {
            let s = MigrationSchedule::plan(b, a);
            assert_eq!(
                peak_parallelism(&s) as u32,
                max_parallel_transfers(b, a, 1),
                "{b}->{a}"
            );
        }
    }

    #[test]
    fn duration_matches_equation3() {
        let s = MigrationSchedule::plan(3, 14);
        let d = 4646.0;
        let direct = s.duration(6, d);
        let from_rounds = s.total_rounds() as f64 * s.round_duration(6, d);
        assert!((direct - from_rounds).abs() < 1e-6);
    }

    #[test]
    fn trajectory_starts_at_b_and_ends_at_a_capacity() {
        let q = 285.0;
        let s = MigrationSchedule::plan(3, 14);
        let traj = s.trajectory(1, 1.0, q);
        assert_eq!(traj.len(), 12);
        assert!((traj[0].effective_capacity - 3.0 * q).abs() < 1e-6);
        assert!((traj.last().unwrap().effective_capacity - 14.0 * q).abs() < 1e-6);
        // Effective capacity is monotone non-decreasing on scale-out.
        for w in traj.windows(2) {
            assert!(w[1].effective_capacity >= w[0].effective_capacity - 1e-9);
        }
        // Machines allocated always at least the eff-cap-equivalent count.
        for p in &traj {
            assert!(p.machines as f64 * q >= p.effective_capacity - 1e-6);
        }
    }

    #[test]
    fn senders_and_receivers_have_uniform_pair_counts() {
        use std::collections::HashMap;
        let s = MigrationSchedule::plan(3, 14);
        let mut sent: HashMap<u32, usize> = HashMap::new();
        let mut recv: HashMap<u32, usize> = HashMap::new();
        for round in s.rounds() {
            for t in &round.transfers {
                *sent.entry(t.from).or_default() += 1;
                *recv.entry(t.to).or_default() += 1;
            }
        }
        // Every sender sends Δ = 11 pairs; every receiver gets s = 3 pairs.
        assert_eq!(sent.len(), 3);
        assert!(sent.values().all(|&c| c == 11));
        assert_eq!(recv.len(), 11);
        assert!(recv.values().all(|&c| c == 3));
    }

    #[test]
    fn edge_colouring_produces_proper_matchings() {
        // Complete bipartite K4,4 needs exactly 4 colours.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 100..104u32 {
                edges.push((u, v));
            }
        }
        let classes = edge_color_bipartite(&edges, 4);
        assert_eq!(classes.len(), 4);
        for class in &classes {
            assert_eq!(class.len(), 4);
            let mut seen = std::collections::HashSet::new();
            for &(u, v) in class {
                assert!(seen.insert(u));
                assert!(seen.insert(v));
            }
        }
    }
}
