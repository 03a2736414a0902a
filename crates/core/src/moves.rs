//! Moves: reconfigurations between cluster sizes (§4.3).

use crate::invariant::{InvariantId, Violation};
use std::fmt;

/// A single move: a reconfiguration from `from` machines to `to` machines
/// occupying the planning intervals `[start, end)`.
///
/// `from == to` is the "do nothing" move, which by construction always lasts
/// exactly one interval (Algorithm 2, line 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// First interval of the move (inclusive).
    pub start: usize,
    /// End interval of the move (exclusive); `end > start`.
    pub end: usize,
    /// Machines allocated before the move.
    pub from: u32,
    /// Machines allocated after the move.
    pub to: u32,
}

impl Move {
    /// Whether this is a "do nothing" move.
    pub fn is_noop(&self) -> bool {
        self.from == self.to
    }

    /// Whether this move adds machines.
    pub fn is_scale_out(&self) -> bool {
        self.to > self.from
    }

    /// Whether this move removes machines.
    pub fn is_scale_in(&self) -> bool {
        self.to < self.from
    }

    /// Duration in intervals.
    pub fn duration(&self) -> usize {
        self.end - self.start
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_noop() {
            write!(f, "[{}..{}) hold {}", self.start, self.end, self.from)
        } else {
            write!(
                f,
                "[{}..{}) {} -> {} machines",
                self.start, self.end, self.from, self.to
            )
        }
    }
}

/// A contiguous, non-overlapping sequence of moves ordered by starting time
/// — the output of the predictive elasticity planner (Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MoveSeq {
    moves: Vec<Move>,
}

impl MoveSeq {
    /// Builds a sequence, validating contiguity and consistency.
    ///
    /// # Panics
    /// Panics if the moves violate any `MOV-*` invariant of
    /// [`check_moves`]: non-contiguous in time, machine counts that do not
    /// chain (`moves[i].to == moves[i+1].from`), non-positive durations,
    /// or multi-interval no-ops.
    pub fn new(moves: Vec<Move>) -> Self {
        assert_valid(&moves);
        MoveSeq { moves }
    }

    /// Replaces the moves in place, keeping the allocation: `fill` writes
    /// into the emptied vector, and the result is checked as in
    /// [`MoveSeq::new`].
    pub(crate) fn refill(&mut self, fill: impl FnOnce(&mut Vec<Move>)) {
        self.moves.clear();
        fill(&mut self.moves);
        assert_valid(&self.moves);
    }

    /// The moves in execution order.
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// The first move that actually changes the cluster size, if any.
    pub fn first_reconfiguration(&self) -> Option<&Move> {
        self.moves.iter().find(|m| !m.is_noop())
    }

    /// Machine count at the end of the sequence (`None` when empty).
    pub fn final_machines(&self) -> Option<u32> {
        self.moves.last().map(|m| m.to)
    }

    /// Total cost in machine-intervals using the nominal (post-move)
    /// allocation per move; the planner's internal cost additionally models
    /// intra-move allocation (Algorithm 4).
    pub fn nominal_cost(&self) -> f64 {
        self.moves
            .iter()
            .map(|m| m.duration() as f64 * m.to.max(m.from) as f64)
            .sum()
    }
}

/// Checks the structural `MOV-*` invariants of a would-be move sequence
/// (Algorithm 2): `MOV-01` contiguous tiling, `MOV-02` positive duration,
/// `MOV-03` single-interval no-ops, `MOV-04` machine-count chaining.
///
/// This is the single source of truth shared by [`MoveSeq`]'s assertions
/// and the `pstore-verify` checker. A clean sequence costs no allocation.
pub fn check_moves(moves: &[Move]) -> Vec<Violation> {
    let artifact = || {
        let chain: Vec<String> = moves.iter().map(ToString::to_string).collect();
        format!("moves [{}]", chain.join("; "))
    };
    let mut out = Vec::new();
    for w in moves.windows(2) {
        if w[0].end != w[1].start {
            out.push(Violation::new(
                InvariantId::MoveTiling,
                artifact(),
                format!("moves must be contiguous in time: {} then {}", w[0], w[1]),
            ));
        }
        if w[0].to != w[1].from {
            out.push(Violation::new(
                InvariantId::MoveChaining,
                artifact(),
                format!("machine counts must chain: {} then {}", w[0], w[1]),
            ));
        }
    }
    for m in moves {
        if m.end <= m.start {
            out.push(Violation::new(
                InvariantId::MoveDuration,
                artifact(),
                format!("moves must have positive duration: {m}"),
            ));
        } else if m.is_noop() && m.duration() != 1 {
            out.push(Violation::new(
                InvariantId::MoveNoopUnit,
                artifact(),
                format!("noop moves must last exactly one interval: {m}"),
            ));
        }
    }
    out
}

fn assert_valid(moves: &[Move]) {
    let violations = check_moves(moves);
    assert!(
        violations.is_empty(),
        "invalid move sequence: {}",
        crate::invariant::report(&violations)
    );
}

impl fmt::Display for MoveSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for m in &self.moves {
            if !first {
                write!(f, "; ")?;
            }
            write!(f, "{m}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_classification() {
        let out = Move {
            start: 0,
            end: 2,
            from: 3,
            to: 5,
        };
        assert!(out.is_scale_out() && !out.is_scale_in() && !out.is_noop());
        let in_ = Move {
            start: 0,
            end: 2,
            from: 5,
            to: 3,
        };
        assert!(in_.is_scale_in());
        let noop = Move {
            start: 0,
            end: 1,
            from: 3,
            to: 3,
        };
        assert!(noop.is_noop());
        assert_eq!(noop.duration(), 1);
    }

    #[test]
    fn check_moves_flags_bad_durations_and_long_noops() {
        // MOV-02: a move must have positive duration.
        let v = check_moves(&[Move {
            start: 2,
            end: 2,
            from: 3,
            to: 4,
        }]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantId::MoveDuration);

        // MOV-03: a no-op "move" stands for one interval of staying put,
        // so it must last exactly one interval.
        let v = check_moves(&[Move {
            start: 0,
            end: 3,
            from: 3,
            to: 3,
        }]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantId::MoveNoopUnit);

        // A unit-length no-op is clean.
        assert!(check_moves(&[Move {
            start: 0,
            end: 1,
            from: 3,
            to: 3,
        }])
        .is_empty());
    }

    #[test]
    fn sequence_accepts_contiguous_chain() {
        let seq = MoveSeq::new(vec![
            Move {
                start: 0,
                end: 1,
                from: 2,
                to: 2,
            },
            Move {
                start: 1,
                end: 4,
                from: 2,
                to: 4,
            },
        ]);
        assert_eq!(seq.final_machines(), Some(4));
        assert_eq!(seq.first_reconfiguration().unwrap().to, 4);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn sequence_rejects_time_gap() {
        MoveSeq::new(vec![
            Move {
                start: 0,
                end: 1,
                from: 2,
                to: 2,
            },
            Move {
                start: 2,
                end: 3,
                from: 2,
                to: 3,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn sequence_rejects_count_mismatch() {
        MoveSeq::new(vec![
            Move {
                start: 0,
                end: 1,
                from: 2,
                to: 2,
            },
            Move {
                start: 1,
                end: 3,
                from: 3,
                to: 4,
            },
        ]);
    }

    #[test]
    fn first_reconfiguration_skips_noops() {
        let seq = MoveSeq::new(vec![
            Move {
                start: 0,
                end: 1,
                from: 2,
                to: 2,
            },
            Move {
                start: 1,
                end: 2,
                from: 2,
                to: 2,
            },
        ]);
        assert!(seq.first_reconfiguration().is_none());
    }
}
