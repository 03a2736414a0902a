//! Property tests for the least-squares solver.

use proptest::prelude::*;
use pstore_forecast::linalg::{
    cholesky, lstsq, lstsq_in_place, push_ridge_rows, ridge, Matrix, SolveError,
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

/// Householder QR one column at a time over a copy of the matrix, as the
/// solver was written before it was reduced in place along the rows: the
/// reference whose every bit the row-major passes must reproduce.
fn lstsq_by_columns(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
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
        if vnorm2 < 1e-24 {
            r[(k, k)] = alpha;
            continue;
        }
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
        for (vi, i) in v.iter().zip(k..m) {
            dot += vi * qtb[i];
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

/// The reference applied to the ridge-augmented system.
fn ridge_by_columns(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, SolveError> {
    if lambda == 0.0 {
        return lstsq_by_columns(a, b);
    }
    let (m, n) = (a.rows(), a.cols());
    let mut aug = Matrix::zeros(m + n, n);
    for r in 0..m {
        aug.row_mut(r).copy_from_slice(a.row(r));
    }
    for k in 0..n {
        aug[(m + k, k)] = lambda.sqrt();
    }
    let mut rhs = b.to_vec();
    rhs.resize(m + n, 0.0);
    lstsq_by_columns(&aug, &rhs)
}

fn bits(solution: Result<Vec<f64>, SolveError>) -> Result<Vec<u64>, SolveError> {
    solution.map(|x| x.into_iter().map(f64::to_bits).collect())
}

proptest! {
    /// Column-at-a-time reference, copying wrappers and the in-place entry
    /// point agree bit for bit — and on the error — for full-rank designs,
    /// designs with a repeated or an all-zero column, and fewer rows than
    /// columns, with and without ridge rows.
    #[test]
    fn in_place_copying_and_by_column_solvers_agree_bit_for_bit(
        raw in prop::collection::vec(-1.0f64..1.0, 64),
        b in prop::collection::vec(-10.0f64..10.0, 12),
        rows in 2usize..=12,
        defect in 0u32..4,
        lambda_pick in 0usize..3,
        stale in -1e9f64..1e9,
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
        let b = &b[..rows];
        let lambda = [0.0, 1e-4, 2.5][lambda_pick];
        let want = bits(ridge_by_columns(&a, b, lambda));

        prop_assert_eq!(bits(ridge(&a, b, lambda)), want.clone());
        if lambda == 0.0 {
            prop_assert_eq!(bits(lstsq(&a, b)), want.clone());
        }

        // The in-place entry point over a caller-built system, with
        // scratch left over from some other solve.
        let mut system = Vec::new();
        for (r, rhs) in b.iter().enumerate() {
            system.extend_from_slice(a.row(r));
            system.push(*rhs);
        }
        push_ridge_rows(&mut system, cols, lambda);
        let mut scratch = vec![stale; 7];
        prop_assert_eq!(bits(lstsq_in_place(&mut system, cols, &mut scratch)), want);
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
