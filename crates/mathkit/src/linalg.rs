//! Symmetric positive-definite linear algebra: Cholesky factorisation and
//! triangular solves.
//!
//! These routines back the Gaussian-process regression used by the Bayesian
//! optimisation baseline tuner. Factorisation failures are reported through
//! [`MathError::NotPositiveDefinite`] so callers can retry with jitter.

use crate::{MathError, Matrix, Result};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
///
/// # Examples
///
/// ```
/// use mathkit::{Matrix, linalg::Cholesky};
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = Cholesky::factor(&a)?;
/// let x = ch.solve(&[2.0, 3.0])?;
/// // verify A x = b
/// assert!((4.0 * x[0] + 2.0 * x[1] - 2.0).abs() < 1e-10);
/// assert!((2.0 * x[0] + 3.0 * x[1] - 3.0).abs() < 1e-10);
/// # Ok::<(), mathkit::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix `a` as `L L^T`.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed rather
    /// than checked.
    ///
    /// # Errors
    ///
    /// * [`MathError::DimensionMismatch`] if `a` is not square.
    /// * [`MathError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(MathError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{n}x{m}"),
            });
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(MathError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factors `a + jitter * I`, increasing `jitter` geometrically (up to
    /// `max_tries` times) until the factorisation succeeds.
    ///
    /// This is the standard defensive pattern for Gram matrices built from
    /// kernels, which are positive semi-definite in exact arithmetic but can
    /// lose definiteness to rounding.
    ///
    /// # Errors
    ///
    /// Returns the final [`MathError::NotPositiveDefinite`] if every attempt
    /// fails, or [`MathError::DimensionMismatch`] for non-square input.
    pub fn factor_with_jitter(a: &Matrix, mut jitter: f64, max_tries: usize) -> Result<Self> {
        let n = a.rows();
        match Self::factor(a) {
            Ok(c) => return Ok(c),
            Err(MathError::NotPositiveDefinite) => {}
            Err(e) => return Err(e),
        }
        for _ in 0..max_tries {
            let mut aj = a.clone();
            for i in 0..n {
                aj[(i, i)] += jitter;
            }
            match Self::factor(&aj) {
                Ok(c) => return Ok(c),
                Err(MathError::NotPositiveDefinite) => jitter *= 10.0,
                Err(e) => return Err(e),
            }
        }
        Err(MathError::NotPositiveDefinite)
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `b.len()` differs from the
    /// factor dimension.
    #[allow(clippy::needless_range_loop)] // k indexes y and b in lockstep
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(MathError::DimensionMismatch {
                expected: format!("length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `L^T x = y` (backward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `y.len()` differs from the
    /// factor dimension.
    #[allow(clippy::needless_range_loop)] // k indexes x and y in lockstep
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if y.len() != n {
            return Err(MathError::DimensionMismatch {
                expected: format!("length {n}"),
                found: format!("length {}", y.len()),
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves the full system `A x = b` where `A = L L^T`.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = M M^T + I for a fixed M, guaranteed SPD.
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 3.0], &[2.0, 0.0, 1.0]]);
        let mut a = m.matmul_t(&m);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul_t(ch.l());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = ch.solve(&b).unwrap();
        // verify A x == b
        for i in 0..3 {
            let mut acc = 0.0;
            for j in 0..3 {
                acc += a[(i, j)] * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn non_spd_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            MathError::NotPositiveDefinite
        );
    }

    #[test]
    fn jitter_recovers_semidefinite() {
        // Rank-deficient Gram matrix: [1 1; 1 1].
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let ch = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(ch.l()[(0, 0)] > 0.0);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dot_and_sq_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn solve_dimension_mismatch() {
        let ch = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }
}
