//! Property tests for the least-squares solver.

use proptest::prelude::*;
use pstore_forecast::linalg::{
    cholesky, lstsq, lstsq_in_place, ridge, ridge_rows, write_ridge_rows, Matrix, SolveError,
};

/// Builds a well-conditioned random design matrix by perturbing an
/// identity-like pattern.
fn design(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut idx = 0;
    for r in 0..rows {
        for c in 0..cols {
            let noise = vals[idx % vals.len()];
            idx += 1;
            m[(r, c)] = noise + if r % cols == c { 3.0 } else { 0.0 };
        }
    }
    m
}

/// Householder QR one column at a time over a row-major copy of the
/// matrix, as the solver was first written: the reference whose every bit
/// the column-major solver must reproduce.
fn lstsq_by_columns(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    householder_reference(a, b, false)
}

/// [`lstsq_by_columns`], or with `rhs_bottom_up` a twin that sums the
/// right-hand side's dot product with each reflection from the last row up:
/// the same terms in another order, which the comparison must notice.
fn householder_reference(
    a: &Matrix,
    b: &[f64],
    rhs_bottom_up: bool,
) -> Result<Vec<f64>, SolveError> {
    let (m, n) = (a.rows(), a.cols());
    if m < n {
        return Err(SolveError::Underdetermined { rows: m, cols: n });
    }
    let mut r = a.clone();
    let mut qtb = b.to_vec();
    for k in 0..n {
        let mut norm = 0.0f64;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            return Err(SolveError::RankDeficient { column: k });
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        for c in k..n {
            let mut dot = 0.0;
            for (vi, i) in v.iter().zip(k..m) {
                dot += vi * r[(i, c)];
            }
            let scale = 2.0 * dot / vnorm2;
            for (vi, i) in v.iter().zip(k..m) {
                r[(i, c)] -= scale * vi;
            }
        }
        let mut dot = 0.0;
        if rhs_bottom_up {
            for (vi, i) in v.iter().zip(k..m).rev() {
                dot += vi * qtb[i];
            }
        } else {
            for (vi, i) in v.iter().zip(k..m) {
                dot += vi * qtb[i];
            }
        }
        let scale = 2.0 * dot / vnorm2;
        for (vi, i) in v.iter().zip(k..m) {
            qtb[i] -= scale * vi;
        }
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut s = qtb[k];
        for c in k + 1..n {
            s -= r[(k, c)] * x[c];
        }
        let diag = r[(k, k)];
        if diag.abs() < 1e-12 {
            return Err(SolveError::RankDeficient { column: k });
        }
        x[k] = s / diag;
    }
    Ok(x)
}

/// `a` with the rows `[sqrt(lambda) * I]` appended and `b` with as many
/// zeros, when `lambda > 0`.
fn augmented(a: &Matrix, b: &[f64], lambda: f64) -> (Matrix, Vec<f64>) {
    let (m, n) = (a.rows(), a.cols());
    let extra = ridge_rows(n, lambda);
    let mut aug = Matrix::zeros(m + extra, n);
    for r in 0..m {
        aug.row_mut(r).copy_from_slice(a.row(r));
    }
    for k in 0..extra {
        aug[(m + k, k)] = lambda.sqrt();
    }
    let mut rhs = b.to_vec();
    rhs.resize(m + extra, 0.0);
    (aug, rhs)
}

/// `[A | b]` and its ridge rows by columns, as [`lstsq_in_place`] takes
/// them, written by index over a buffer that starts out holding `stale`.
fn column_major(a: &Matrix, b: &[f64], lambda: f64, stale: f64) -> Vec<f64> {
    let (rows, cols) = (a.rows(), a.cols());
    let m = rows + ridge_rows(cols, lambda);
    let mut system = vec![stale; m * (cols + 1)];
    for (c, column) in system.chunks_exact_mut(m).enumerate() {
        for (r, x) in column[..rows].iter_mut().enumerate() {
            *x = if c < cols { a[(r, c)] } else { b[r] };
        }
    }
    write_ridge_rows(&mut system, cols, lambda);
    system
}

fn bits(solution: Result<Vec<f64>, SolveError>) -> Result<Vec<u64>, SolveError> {
    solution.map(|x| x.into_iter().map(f64::to_bits).collect())
}

/// The column-major entry point and both copying wrappers against the
/// reference on the ridge-augmented system, bit for bit and error for
/// error; returns what they agreed on.
fn assert_all_agree(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<u64>, SolveError> {
    let (aug, rhs) = augmented(a, b, lambda);
    let want = bits(lstsq_by_columns(&aug, &rhs));
    assert_eq!(bits(ridge(a, b, lambda)), want, "ridge, lambda {lambda}");
    if lambda == 0.0 {
        assert_eq!(bits(lstsq(a, b)), want, "lstsq");
    }
    let mut system = column_major(a, b, lambda, -7.5e8);
    assert_eq!(
        bits(lstsq_in_place(&mut system, a.cols())),
        want,
        "lstsq_in_place, lambda {lambda}"
    );
    want
}

/// SplitMix64 mapped to `[-1, 1)`.
fn noise(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// A system shaped like a SPAR refit: `lags` strongly correlated periodic
/// lag columns of a daily wave, then offset columns (small, centred on
/// zero), and a target near the wave.
fn spar_shaped(rows: usize, lags: usize, offsets: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut next = noise(seed);
    let mut a = Matrix::zeros(rows, lags + offsets);
    let mut b = Vec::with_capacity(rows);
    for r in 0..rows {
        let wave = 100.0 + 40.0 * (r as f64 * 0.07).sin();
        for c in 0..lags {
            a[(r, c)] = wave * (1.0 + 0.05 * next());
        }
        for c in lags..lags + offsets {
            a[(r, c)] = 8.0 * next();
        }
        b.push(wave * 1.02 + 3.0 * next());
    }
    (a, b)
}

proptest! {
    /// Column-at-a-time reference, copying wrappers and the column-major
    /// entry point agree bit for bit — and on the error — for full-rank
    /// designs, designs with a repeated or an all-zero column, and fewer
    /// rows than columns, with and without ridge rows.
    #[test]
    fn in_place_copying_and_by_column_solvers_agree_bit_for_bit(
        raw in prop::collection::vec(-1.0f64..1.0, 64),
        b in prop::collection::vec(-10.0f64..10.0, 12),
        rows in 2usize..=12,
        defect in 0u32..4,
        lambda_pick in 0usize..3,
    ) {
        let cols = 4;
        let mut a = design(rows, cols, &raw);
        for r in 0..rows {
            match defect {
                1 => a[(r, 2)] = a[(r, 0)],
                2 => a[(r, 1)] = 0.0,
                _ => {}
            }
        }
        let _ = assert_all_agree(&a, &b[..rows], [0.0, 1e-4, 2.5][lambda_pick]);
    }

    /// The widths of the tick (7 + 6), hourly-weekly (4 + 24) and B2W
    /// default (7 + 30) configurations: every way the solver splits the
    /// trailing columns into groups of eight, four, two and one, from
    /// square systems up.
    #[test]
    fn spar_shaped_widths_agree_bit_for_bit(
        shape_pick in 0usize..3,
        extra_rows in prop_oneof![0usize..3, 3usize..200],
        lambda_pick in 0usize..2,
        seed in any::<u64>(),
    ) {
        let (lags, offsets) = [(7, 6), (4, 24), (7, 30)][shape_pick];
        let (a, b) = spar_shaped(lags + offsets + extra_rows, lags, offsets, seed);
        prop_assert!(assert_all_agree(&a, &b, [0.0, 1e-4][lambda_pick]).is_ok());
    }

    /// The solver recovers the generating coefficients of a consistent
    /// (noise-free) overdetermined system.
    #[test]
    fn lstsq_recovers_exact_solutions(
        raw in prop::collection::vec(-1.0f64..1.0, 64),
        coef in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let a = design(12, 4, &raw);
        let b = a.mul_vec(&coef);
        let x = lstsq(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&coef) {
            prop_assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    /// Least-squares residuals are orthogonal to the column space:
    /// A^T (A x - b) = 0.
    #[test]
    fn residual_is_orthogonal_to_columns(
        raw in prop::collection::vec(-1.0f64..1.0, 64),
        b in prop::collection::vec(-10.0f64..10.0, 12),
    ) {
        let a = design(12, 4, &raw);
        let x = lstsq(&a, &b).unwrap();
        let pred = a.mul_vec(&x);
        let resid: Vec<f64> = pred.iter().zip(&b).map(|(p, y)| p - y).collect();
        let at_r = a.transpose().mul_vec(&resid);
        for v in at_r {
            prop_assert!(v.abs() < 1e-6, "A^T r component {v}");
        }
    }

    /// Ridge shrinks coefficient norms monotonically in lambda.
    #[test]
    fn ridge_shrinks_with_lambda(
        raw in prop::collection::vec(-1.0f64..1.0, 64),
        b in prop::collection::vec(-10.0f64..10.0, 12),
    ) {
        let a = design(12, 4, &raw);
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let n0 = norm(&ridge(&a, &b, 0.0).unwrap());
        let n1 = norm(&ridge(&a, &b, 1.0).unwrap());
        let n2 = norm(&ridge(&a, &b, 100.0).unwrap());
        prop_assert!(n1 <= n0 + 1e-9);
        prop_assert!(n2 <= n1 + 1e-9);
    }

    /// Cholesky factors reconstruct SPD matrices built as G G^T + eps I.
    #[test]
    fn cholesky_reconstructs_spd(raw in prop::collection::vec(-1.0f64..1.0, 16)) {
        let g = Matrix::from_rows(4, 4, &raw);
        let mut spd = g.mul(&g.transpose());
        for i in 0..4 {
            spd[(i, i)] += 0.5;
        }
        let l = cholesky(&spd).expect("SPD by construction");
        let recon = l.mul(&l.transpose());
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!((recon[(r, c)] - spd[(r, c)]).abs() < 1e-9);
            }
        }
    }
}

/// Columns that are already reduced when their step comes: nothing below
/// the pivot, which is positive, negative or tiny, in the first, a middle
/// and the last column.
///
/// With `alpha = -sign(pivot) * norm` the pivot entry of `v` is
/// `|pivot| + norm >= norm >= 1e-12` on any input that passes the rank
/// check, so neither side special-cases such a column: it takes the
/// ordinary reflection (`v = 2 * pivot * e_k`), and these systems pin that
/// both sides agree on it.
#[test]
fn already_reduced_columns_agree_bit_for_bit() {
    let (a, b) = spar_shaped(40, 7, 6, 0x5eed);
    for (column, pivot) in [(0usize, 3.25f64), (5, -0.75), (12, 1e-6), (12, -41.0)] {
        let mut a = a.clone();
        for r in 0..a.rows() {
            a[(r, column)] = if r == column { pivot } else { 0.0 };
        }
        for lambda in [0.0, 1e-4] {
            assert!(assert_all_agree(&a, &b, lambda).is_ok());
        }
    }
    // A whole upper-triangular system: every column is reduced on arrival.
    let mut next = noise(3);
    let mut a = Matrix::zeros(13, 13);
    for r in 0..13 {
        for c in r..13 {
            a[(r, c)] = next() + if r == c { 4.0 } else { 0.0 };
        }
    }
    let b: Vec<f64> = (0..13).map(|_| next()).collect();
    assert!(assert_all_agree(&a, &b, 0.0).is_ok());
}

/// Rank-deficient designs: both sides return the same bits or the same
/// error at the same column, and their ridge forms solve to the same bits.
/// A zero column fails the rank check exactly where it stands; a repeated
/// or dependent column leaves a rounding-sized residue, which may or may
/// not pass it, the same way on both sides.
#[test]
fn rank_deficient_systems_agree_on_the_error() {
    let (base, b) = spar_shaped(60, 7, 6, 0xdef);
    // A repeated lag, a column that is the sum of two others, and an
    // all-zero first and last column.
    for (defect, zero_column) in [None, None, Some(0), Some(12)].into_iter().enumerate() {
        let mut a = base.clone();
        for r in 0..a.rows() {
            match defect {
                0 => a[(r, 3)] = a[(r, 1)],
                1 => a[(r, 9)] = a[(r, 2)] + a[(r, 8)],
                2 => a[(r, 0)] = 0.0,
                _ => a[(r, 12)] = 0.0,
            }
        }
        let plain = assert_all_agree(&a, &b, 0.0);
        if let Some(column) = zero_column {
            assert_eq!(plain, Err(SolveError::RankDeficient { column }));
        }
        assert!(assert_all_agree(&a, &b, 1e-4).is_ok());
    }
    let (a, b) = spar_shaped(12, 7, 6, 1);
    assert_eq!(
        assert_all_agree(&a, &b, 0.0),
        Err(SolveError::Underdetermined { rows: 12, cols: 13 })
    );
}

/// The twin of the oracle: a reference that sums one dot product from the
/// bottom up must not pass for the solver.
#[test]
#[should_panic(expected = "assertion `left == right` failed")]
fn a_bottom_up_dot_product_is_caught() {
    let (a, b) = spar_shaped(400, 7, 6, 0xb0770);
    let mut system = column_major(&a, &b, 0.0, 0.0);
    assert_eq!(
        bits(lstsq_in_place(&mut system, a.cols())),
        bits(householder_reference(&a, &b, true))
    );
}
