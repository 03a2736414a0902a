//! The analytical model of data migrations (§4.4 of the paper):
//! parallelism (Eq 2), duration (Eq 3), machines allocated (Algorithm 4;
//! the planner's move cost, Eq 4, is their product) and capacity /
//! effective capacity (Eq 5, Eq 7).
//!
//! All functions are pure; `d` (time to move the whole database once with a
//! single thread pair) can be expressed in any time unit and results come
//! back in the same unit.
//!
//! ```
//! use pstore_core::cost_model::{move_time, avg_machines_allocated, eff_cap};
//! // The paper's Fig 4c example: scaling 3 -> 14 with one partition per
//! // machine takes 11/42 of D and averages 111/11 machines.
//! assert!((move_time(3, 14, 1, 1.0) - 11.0 / 42.0).abs() < 1e-12);
//! assert!((avg_machines_allocated(3, 14) - 111.0 / 11.0).abs() < 1e-12);
//! // Halfway through, effective capacity is well below 14 machines.
//! assert!(eff_cap(3, 14, 0.5, 1.0) < 5.0);
//! ```

/// Maximum number of parallel data transfers during a move from `b` to `a`
/// machines with `p` partitions per machine (Equation 2).
///
/// Each partition transfers with at most one peer at a time, so parallelism
/// is bounded by the smaller of the sender and receiver partition counts.
pub fn max_parallel_transfers(b: u32, a: u32, p: u32) -> u32 {
    assert!(b > 0 && a > 0, "machine counts must be positive");
    assert!(p > 0, "partitions per machine must be positive");
    if b == a {
        0
    } else if b < a {
        p * b.min(a - b)
    } else {
        p * a.min(b - a)
    }
}

/// Time `T(B, A)` for a move from `b` to `a` machines (Equation 3), in the
/// unit of `d`.
///
/// `d` is the single-thread whole-database migration time; the move streams
/// the fraction of the database that actually changes hands
/// (`1 - min/max`) at the maximum parallelism of Equation 2.
pub fn move_time(b: u32, a: u32, p: u32, d: f64) -> f64 {
    assert!(d >= 0.0, "d must be non-negative");
    if b == a {
        return 0.0;
    }
    let par = max_parallel_transfers(b, a, p) as f64;
    let fraction = if b < a {
        1.0 - b as f64 / a as f64
    } else {
        1.0 - a as f64 / b as f64
    };
    d / par * fraction
}

/// Average number of machines allocated during a move from `b` to `a`
/// machines (Algorithm 4).
///
/// Machine allocation is symmetric in scale-in and scale-out; only the
/// larger/smaller cluster sizes matter. The three cases correspond to the
/// three scheduling strategies of §4.4.1 (Fig 4).
pub fn avg_machines_allocated(b: u32, a: u32) -> f64 {
    assert!(b > 0 && a > 0, "machine counts must be positive");
    let l = b.max(a) as f64; // larger cluster
    let s = b.min(a) as f64; // smaller cluster
    let delta = l - s;
    if delta == 0.0 {
        return l;
    }
    // `delta` and `s` are whole numbers (from u32), so the remainder is exact.
    let r = delta % s;

    // Case 1: all machines added/removed at once.
    if s >= delta {
        return l;
    }
    // Case 2: delta is a multiple of the smaller cluster; blocks of s
    // machines allocated just in time.
    if r == 0.0 {
        return (2.0 * s + l) / 2.0;
    }
    // Case 3: three phases (see Table 1 / Fig 4c).
    let n1 = (delta / s).floor() - 1.0; // full blocks in phase 1
    let t1 = s / delta; // time per phase-1 step
    let m1 = (s + l - r) / 2.0; // avg machines across phase-1 steps
    let phase1 = n1 * t1 * m1;

    let t2 = r / delta; // phase 2: one block, filled r/s of the way
    let m2 = l - r;
    let phase2 = t2 * m2;

    let t3 = s / delta; // phase 3: final r machines added
    let m3 = l;
    let phase3 = t3 * m3;

    phase1 + phase2 + phase3
}

/// Machines needed to serve `load` at per-machine throughput `q`
/// (Equation 5 solved for `n`, rounded up, at least one machine).
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "ceil of a non-negative finite ratio"
)]
pub fn machines_for_load(load: f64, q: f64) -> u32 {
    assert!(q > 0.0, "Q must be positive");
    (load / q).ceil().max(1.0) as u32
}

/// Total capacity of `n` evenly loaded machines (Equation 5): `Q * n`.
pub fn cap(n: u32, q: f64) -> f64 {
    q * n as f64
}

/// Effective capacity of the system after a fraction `f` of the moving data
/// has been transferred during a reconfiguration from `b` to `a` machines
/// (Equation 7).
///
/// During a move the node holding the largest share of the database caps
/// system throughput: on scale-out the original `b` senders drain from
/// `1/B` towards `1/A` of the data each, so effective capacity climbs from
/// `cap(B)` to `cap(A)`; scale-in mirrors this.
///
/// # Panics
/// Panics unless `0 <= f <= 1`.
pub fn eff_cap(b: u32, a: u32, f: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
    assert!(b > 0 && a > 0, "machine counts must be positive");
    let (bf, af) = (b as f64, a as f64);
    let equivalent_machines = if b == a {
        bf
    } else if b < a {
        // Each of the B senders holds 1/B - f*(1/B - 1/A) of the data.
        1.0 / (1.0 / bf - f * (1.0 / bf - 1.0 / af))
    } else {
        // Each of the A receivers grows from 1/B towards 1/A.
        1.0 / (1.0 / bf + f * (1.0 / af - 1.0 / bf))
    };
    q * equivalent_machines
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, reason = "tests assert exact rational arithmetic")]
    use super::*;

    const Q: f64 = 285.0;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    // ---- Equation 2 ----

    #[test]
    fn parallelism_is_zero_without_change() {
        assert_eq!(max_parallel_transfers(3, 3, 6), 0);
    }

    #[test]
    fn parallelism_scale_out_cases() {
        // Fig 4a: 3 -> 5, P=1: min(3, 2) = 2.
        assert_eq!(max_parallel_transfers(3, 5, 1), 2);
        // Fig 4b: 3 -> 9, P=1: min(3, 6) = 3.
        assert_eq!(max_parallel_transfers(3, 9, 1), 3);
        // Fig 4c: 3 -> 14, P=1: min(3, 11) = 3.
        assert_eq!(max_parallel_transfers(3, 14, 1), 3);
        // Partitions multiply parallelism.
        assert_eq!(max_parallel_transfers(3, 14, 6), 18);
    }

    #[test]
    fn parallelism_scale_in_mirrors_scale_out() {
        for p in [1u32, 6] {
            for (b, a) in [(5, 3), (9, 3), (14, 3)] {
                assert_eq!(
                    max_parallel_transfers(b, a, p),
                    max_parallel_transfers(a, b, p)
                );
            }
        }
    }

    // ---- Equation 3 ----

    #[test]
    fn move_time_zero_for_noop() {
        assert_eq!(move_time(4, 4, 6, 100.0), 0.0);
    }

    #[test]
    fn move_time_scale_out_formula() {
        // 3 -> 9, P = 1: D/3 * (1 - 3/9) = D * 2/9.
        assert!(close(move_time(3, 9, 1, 1.0), 2.0 / 9.0));
        // 3 -> 14, P = 1: D/3 * (1 - 3/14) = D * 11/42.
        assert!(close(move_time(3, 14, 1, 1.0), 11.0 / 42.0));
    }

    #[test]
    fn move_time_scale_in_is_symmetric() {
        assert!(close(move_time(9, 3, 1, 1.0), move_time(3, 9, 1, 1.0)));
        assert!(close(move_time(14, 3, 1, 1.0), move_time(3, 14, 1, 1.0)));
    }

    #[test]
    fn move_time_shrinks_with_more_partitions() {
        let slow = move_time(3, 9, 1, 1.0);
        let fast = move_time(3, 9, 6, 1.0);
        assert!(close(fast, slow / 6.0));
    }

    #[test]
    fn doubling_cluster_size_moves_half_the_data() {
        // 5 -> 10: fraction moved = 1/2, parallelism = 5P.
        assert!(close(move_time(5, 10, 1, 1.0), 0.5 / 5.0));
    }

    // ---- Algorithm 4 ----

    #[test]
    fn avg_alloc_noop_is_cluster_size() {
        assert_eq!(avg_machines_allocated(4, 4), 4.0);
    }

    #[test]
    fn avg_alloc_case1_all_at_once() {
        // 3 -> 5: delta = 2 <= s = 3, all allocated at once -> 5.
        assert_eq!(avg_machines_allocated(3, 5), 5.0);
        // 10 -> 15: delta = 5 <= 10 -> 15.
        assert_eq!(avg_machines_allocated(10, 15), 15.0);
    }

    #[test]
    fn avg_alloc_case2_perfect_multiple() {
        // 3 -> 9: delta = 6 = 2*3, avg = (2*3 + 9)/2 = 7.5.
        assert_eq!(avg_machines_allocated(3, 9), 7.5);
        // 2 -> 8: delta = 6 = 3*2, avg = (4 + 8)/2 = 6.
        assert_eq!(avg_machines_allocated(2, 8), 6.0);
    }

    #[test]
    fn avg_alloc_case3_three_phases() {
        // 3 -> 14 (Table 1): s=3, l=14, delta=11, r=2.
        // phase1: N1 = floor(11/3)-1 = 2 steps, T1 = 3/11, M1 = (3+14-2)/2 = 7.5
        //         -> 2 * 3/11 * 7.5 = 45/11
        // phase2: T2 = 2/11, M2 = 12 -> 24/11
        // phase3: T3 = 3/11, M3 = 14 -> 42/11
        // total = 111/11 ≈ 10.0909
        assert!(close(avg_machines_allocated(3, 14), 111.0 / 11.0));
    }

    #[test]
    fn avg_alloc_symmetric_in_scale_direction() {
        for (x, y) in [(3u32, 5u32), (3, 9), (3, 14), (2, 7), (4, 10)] {
            assert!(close(
                avg_machines_allocated(x, y),
                avg_machines_allocated(y, x)
            ));
        }
    }

    #[test]
    fn avg_alloc_bounded_by_cluster_sizes() {
        for b in 1..=12u32 {
            for a in 1..=12u32 {
                let avg = avg_machines_allocated(b, a);
                assert!(avg >= b.min(a) as f64 - 1e-9);
                assert!(avg <= b.max(a) as f64 + 1e-9);
            }
        }
    }

    // ---- Equation 5 ----

    #[test]
    fn cap_is_linear() {
        assert_eq!(cap(4, Q), 4.0 * Q);
        assert_eq!(cap(1, Q), Q);
    }

    // ---- Equation 7 ----

    #[test]
    fn eff_cap_noop_is_full_capacity() {
        assert_eq!(eff_cap(4, 4, 0.5, Q), cap(4, Q));
    }

    #[test]
    fn eff_cap_boundaries_match_cap() {
        // Start of scale-out: capacity of B machines; end: capacity of A.
        assert!(close(eff_cap(3, 14, 0.0, Q), cap(3, Q)));
        assert!(close(eff_cap(3, 14, 1.0, Q), cap(14, Q)));
        assert!(close(eff_cap(14, 3, 0.0, Q), cap(14, Q)));
        assert!(close(eff_cap(14, 3, 1.0, Q), cap(3, Q)));
    }

    #[test]
    fn eff_cap_monotone_during_scale_out() {
        let mut prev = 0.0;
        for i in 0..=10 {
            let f = i as f64 / 10.0;
            let c = eff_cap(3, 14, f, Q);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn eff_cap_monotone_decreasing_during_scale_in() {
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let f = i as f64 / 10.0;
            let c = eff_cap(14, 3, f, Q);
            assert!(c <= prev);
            prev = c;
        }
    }

    #[test]
    fn eff_cap_midpoint_scale_out_formula() {
        // B=3, A=9, f=0.5: sender fraction = 1/3 - 0.5*(1/3 - 1/9) = 2/9,
        // equivalent machines = 4.5.
        assert!(close(eff_cap(3, 9, 0.5, Q), 4.5 * Q));
    }

    #[test]
    fn eff_cap_lags_machine_allocation() {
        // Mid-way through 3 -> 14, effective capacity is far below the
        // 14-machine capacity (the planning pitfall Fig 4c illustrates).
        let mid = eff_cap(3, 14, 0.5, Q);
        assert!(mid < 0.5 * cap(14, Q));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn eff_cap_rejects_bad_fraction() {
        let _ = eff_cap(3, 5, 1.5, Q);
    }
}
