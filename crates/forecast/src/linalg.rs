//! Minimal dense linear algebra used by the forecasting models.
//!
//! The forecasting models in this crate (AR, ARMA, SPAR) are all fit with
//! linear least squares over modest design matrices (tens of columns,
//! thousands of rows), so a small, dependency-free implementation is both
//! sufficient and easy to audit. The solver uses Householder QR, which is
//! numerically robust for the mildly ill-conditioned design matrices that
//! arise when periodic lag columns are strongly correlated.
//!
//! There is one solver, [`lstsq_in_place`]: it reduces a caller-built
//! `[A | b]` buffer where it lies and walks it only along its rows. SPAR's
//! weekly refit on the control path builds its 19 000-row system straight
//! into a buffer it keeps and calls that; [`lstsq`] and [`ridge`] copy a
//! [`Matrix`] into a fresh buffer and call the same function.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns a view of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable view of row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect()
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let src = other.row(k);
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        out
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Error returned when a least-squares system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The design matrix has fewer rows than columns.
    Underdetermined {
        /// Number of observations (rows).
        rows: usize,
        /// Number of parameters (columns).
        cols: usize,
    },
    /// The design matrix is (numerically) rank deficient.
    RankDeficient {
        /// The column at which a negligible pivot was found.
        column: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Underdetermined { rows, cols } => write!(
                f,
                "least-squares system is underdetermined: {rows} rows < {cols} cols"
            ),
            SolveError::RankDeficient { column } => {
                write!(f, "design matrix is rank deficient at column {column}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves the linear least-squares problem `min ||a x - b||` using
/// Householder QR with column-pivot-free elimination.
///
/// Returns the coefficient vector `x` of length `a.cols()`. Copies the
/// system and hands it to [`lstsq_in_place`].
///
/// # Errors
/// Returns [`SolveError::Underdetermined`] when there are fewer observations
/// than parameters and [`SolveError::RankDeficient`] when a pivot collapses
/// numerically (collinear regressors).
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    ridge(a, b, 0.0)
}

/// Solves the ridge-regularised least squares `min ||a x - b||^2 + lambda ||x||^2`.
///
/// Implemented by augmenting the design matrix with `sqrt(lambda) * I`, which
/// keeps the QR path and guarantees full rank for any `lambda > 0`. Useful
/// when periodic lag columns are nearly collinear (e.g. an almost perfectly
/// periodic training signal). Copies the system and hands it to
/// [`lstsq_in_place`].
///
/// # Errors
/// Propagates [`SolveError`] from the underlying solver (only possible when
/// `lambda == 0`).
pub fn ridge(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, SolveError> {
    assert_eq!(a.rows(), b.len(), "rhs length must match rows");
    let mut system = Vec::with_capacity((a.rows() + a.cols()) * (a.cols() + 1));
    for (r, rhs) in b.iter().enumerate() {
        system.extend_from_slice(a.row(r));
        system.push(*rhs);
    }
    push_ridge_rows(&mut system, a.cols(), lambda);
    lstsq_in_place(&mut system, a.cols(), &mut Vec::new())
}

/// Appends the `cols` rows `[sqrt(lambda) * I | 0]` that turn a
/// least-squares system laid out for [`lstsq_in_place`] into its
/// ridge-regularised form; nothing for `lambda == 0`.
///
/// # Panics
/// Panics on a negative `lambda`.
pub fn push_ridge_rows(system: &mut Vec<f64>, cols: usize, lambda: f64) {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda == 0.0 {
        return;
    }
    let s = lambda.sqrt();
    let first = system.len();
    system.resize(first + cols * (cols + 1), 0.0);
    for k in 0..cols {
        system[first + k * (cols + 1) + k] = s;
    }
}

/// Solves `min ||A x - b||` for a system the caller has laid out row by
/// row, `[a_i1 .. a_in | b_i]`, `cols + 1` values per row, and reduces it
/// in place (the contents of `system` afterwards are the triangular factor
/// and reflected right-hand side, of no use to the caller). `scratch` is
/// working storage that a caller solving repeatedly keeps between calls;
/// its contents do not matter.
///
/// Each Householder step makes two passes over the rows at and below the
/// pivot, both along the rows as they lie in memory: one accumulating the
/// reflection's dot product with every trailing column (the right-hand
/// side is simply the last of them), one applying the update — and picking
/// up the next column and its sum of squares on the way, so no pass ever
/// walks down a column of the row-major system. Every scalar is still the
/// sum of the same terms added in the same (ascending row) order as the
/// textbook column-at-a-time loop, so the solution is that loop's, bit for
/// bit.
///
/// # Errors
/// As [`lstsq`].
///
/// # Panics
/// Panics if `cols` is zero or `system` is not a whole number of rows.
pub fn lstsq_in_place(
    system: &mut [f64],
    cols: usize,
    scratch: &mut Vec<f64>,
) -> Result<Vec<f64>, SolveError> {
    let (n, width) = (cols, cols + 1);
    assert!(n > 0, "a system needs at least one column");
    assert_eq!(system.len() % width, 0, "system must be whole rows");
    let m = system.len() / width;
    if m < n {
        return Err(SolveError::Underdetermined { rows: m, cols: n });
    }

    // `column[k..]` is column k from its pivot down and `norm2` its sum of
    // squares whenever step k begins; `scale` has one slot per column.
    scratch.clear();
    scratch.resize(m + width, 0.0);
    let (column, scale) = scratch.split_at_mut(m);
    let gather = |system: &[f64], column: &mut [f64], k: usize| {
        let mut norm2 = 0.0f64;
        for (slot, row) in column[k..]
            .iter_mut()
            .zip(system[k * width..].chunks_exact(width))
        {
            *slot = row[k];
            norm2 += row[k] * row[k];
        }
        norm2
    };

    let mut norm2 = gather(system, column, 0);
    for k in 0..n {
        // Householder vector for column k, rows k..m.
        let norm = norm2.sqrt();
        if norm < 1e-12 {
            return Err(SolveError::RankDeficient { column: k });
        }
        let alpha = if column[k] >= 0.0 { -norm } else { norm };
        let v = &mut column[k..];
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        let below = &mut system[k * width..];
        if vnorm2 < 1e-24 {
            // Column already reduced; just set the diagonal.
            below[k] = alpha;
            norm2 = gather(system, column, k + 1);
            continue;
        }

        // Apply the reflection H = I - 2 v v^T / (v^T v) to the trailing
        // columns and the right-hand side.
        let scale = &mut scale[k..];
        scale.fill(0.0);
        for (row, vi) in below.chunks_exact(width).zip(v.iter()) {
            for (dot, x) in scale.iter_mut().zip(&row[k..]) {
                *dot += vi * x;
            }
        }
        for dot in scale.iter_mut() {
            *dot = 2.0 * *dot / vnorm2;
        }
        norm2 = 0.0;
        for (i, (row, vi)) in below.chunks_exact_mut(width).zip(v.iter_mut()).enumerate() {
            for (x, s) in row[k..].iter_mut().zip(scale.iter()) {
                *x -= s * *vi;
            }
            if i > 0 {
                // Column k + 1 (or, after the last step, the right-hand
                // side, which nobody reads) for the next step.
                *vi = row[k + 1];
                norm2 += row[k + 1] * row[k + 1];
            }
        }
    }

    // Back substitution on the upper-triangular system R x = Q^T b.
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let row = &system[k * width..(k + 1) * width];
        let mut s = row[n];
        for c in k + 1..n {
            s -= row[c] * x[c];
        }
        let diag = row[k];
        if diag.abs() < 1e-12 {
            return Err(SolveError::RankDeficient { column: k });
        }
        x[k] = s / diag;
    }
    Ok(x)
}

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor `L` with `L L^T = a`, or `None` if the
/// matrix is not positive definite.
pub fn cholesky(a: &Matrix) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact rational arithmetic on tiny values"
    )]
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn identity_mul_vec_is_noop() {
        let i = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.mul_vec(&v), v);
    }

    #[test]
    fn mul_matches_hand_computed_product() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_rows(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.mul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn lstsq_solves_exact_square_system() {
        // 2x + y = 5; x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, -1.0]);
        let x = lstsq(&a, &[5.0, 1.0]).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 1.0, 1e-10);
    }

    #[test]
    fn lstsq_recovers_overdetermined_line_fit() {
        // y = 3x + 2 with exact observations: least squares must recover it.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut a = Matrix::zeros(xs.len(), 2);
        let mut b = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            a[(i, 0)] = x;
            a[(i, 1)] = 1.0;
            b.push(3.0 * x + 2.0);
        }
        let coef = lstsq(&a, &b).unwrap();
        assert_close(coef[0], 3.0, 1e-10);
        assert_close(coef[1], 2.0, 1e-10);
    }

    #[test]
    fn lstsq_minimises_residual_on_noisy_fit() {
        // Perturb one observation; the residual of the LS solution must be
        // no larger than that of the true generating coefficients.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let mut a = Matrix::zeros(xs.len(), 2);
        let mut b = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            a[(i, 0)] = x;
            a[(i, 1)] = 1.0;
            b.push(3.0 * x + 2.0 + if i == 2 { 0.5 } else { 0.0 });
        }
        let coef = lstsq(&a, &b).unwrap();
        let resid = |c: &[f64]| -> f64 {
            a.mul_vec(c)
                .iter()
                .zip(&b)
                .map(|(p, y)| (p - y).powi(2))
                .sum()
        };
        assert!(resid(&coef) <= resid(&[3.0, 2.0]) + 1e-12);
    }

    #[test]
    fn lstsq_rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            lstsq(&a, &[0.0, 0.0]),
            Err(SolveError::Underdetermined { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn lstsq_rejects_rank_deficient() {
        // Two identical columns.
        let a = Matrix::from_rows(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert!(matches!(
            lstsq(&a, &[1.0, 2.0, 3.0]),
            Err(SolveError::RankDeficient { .. })
        ));
    }

    #[test]
    fn ridge_handles_collinear_columns() {
        let a = Matrix::from_rows(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = ridge(&a, &[2.0, 4.0, 6.0], 1e-6).unwrap();
        // Symmetric problem: both coefficients near 1.
        assert_close(x[0], 1.0, 1e-3);
        assert_close(x[1], 1.0, 1e-3);
    }

    #[test]
    fn cholesky_factorises_spd_matrix() {
        let a = Matrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]);
        let l = cholesky(&a).unwrap();
        let recon = l.mul(&l.transpose());
        for r in 0..2 {
            for c in 0..2 {
                assert_close(recon[(r, c)], a[(r, c)], 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
