//! Checks for move sequences against a planning horizon (Algorithm 2).
//!
//! The structural checks `MOV-02` (durations), `MOV-03` (no-op length) and
//! `MOV-04` (chaining contiguity) live in [`pstore_core::check_moves`] so
//! the producer can assert them too; this module layers the horizon-tiling
//! check on top: a plan for a horizon of `t_max` intervals must start at
//! interval 0 and end exactly at `t_max`, with no gap before the first
//! move or after the last.

use pstore_core::{check_moves, InvariantId, MoveSeq, Violation};

/// Checks a move sequence's structural invariants plus `MOV-01` horizon
/// tiling: the moves must cover exactly `[0, horizon)`.
///
/// A zero-length horizon (a single-interval plan) must produce an empty
/// sequence; any longer horizon must be tiled completely.
pub fn check_move_seq(seq: &MoveSeq, horizon: usize) -> Vec<Violation> {
    let mut out = check_moves(seq.moves());
    let artifact = format!("plan [{seq}] over {horizon} intervals");
    match (seq.moves().first(), seq.moves().last()) {
        (None, _) | (_, None) => {
            if horizon > 0 {
                out.push(Violation::new(
                    InvariantId::MoveTiling,
                    artifact,
                    format!("empty plan for a {horizon}-interval horizon"),
                ));
            }
        }
        (Some(first), Some(last)) => {
            if horizon == 0 {
                out.push(Violation::new(
                    InvariantId::MoveTiling,
                    artifact,
                    "non-empty plan for a zero-interval horizon".to_string(),
                ));
            } else {
                if first.start != 0 {
                    out.push(Violation::new(
                        InvariantId::MoveTiling,
                        artifact.clone(),
                        format!("first move starts at {} instead of 0", first.start),
                    ));
                }
                if last.end != horizon {
                    out.push(Violation::new(
                        InvariantId::MoveTiling,
                        artifact,
                        format!("last move ends at {} instead of {horizon}", last.end),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstore_core::Move;

    #[test]
    fn tiled_sequence_is_clean() {
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
                to: 5,
            },
        ]);
        assert!(check_move_seq(&seq, 4).is_empty());
    }

    #[test]
    fn short_sequence_is_flagged() {
        let seq = MoveSeq::new(vec![Move {
            start: 0,
            end: 1,
            from: 2,
            to: 2,
        }]);
        let v = check_move_seq(&seq, 3);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantId::MoveTiling);
    }

    #[test]
    fn empty_sequence_needs_empty_horizon() {
        assert!(check_move_seq(&MoveSeq::default(), 0).is_empty());
        assert!(!check_move_seq(&MoveSeq::default(), 2).is_empty());
    }
}
