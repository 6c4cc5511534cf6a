//! Travelling Salesman Problem: instances, generators, QUBO encoding,
//! pre-processing and reference heuristics.
//!
//! Sub-modules:
//!
//! * [`generator`] — the synthetic dataset of paper appendix D (uniform and
//!   exponential coordinate distributions);
//! * [`encoding`] — the n²-variable permutation QUBO of Lucas (2014),
//!   paper §4.1 eqs. (4)–(6);
//! * [`preprocess`] — distance scaling and Minimizing the Variance Of the
//!   Distance Matrix (MVODM), paper appendix E;
//! * [`heuristics`] — nearest-neighbour + 2-opt + Or-opt reference tours
//!   used to normalise optimality gaps.

pub mod encoding;
pub mod features;
pub mod generator;
pub mod heuristics;
pub mod preprocess;

pub use encoding::TspEncoding;

use mathkit::Matrix;
use serde::{Deserialize, Serialize};

use crate::ProblemError;

/// A TSP instance: a symmetric distance matrix with zero diagonal.
///
/// # Examples
///
/// ```
/// use problems::TspInstance;
/// let inst = TspInstance::from_coords("square", &[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]);
/// assert_eq!(inst.num_cities(), 4);
/// // optimal tour walks the square perimeter
/// assert_eq!(inst.tour_length(&[0, 1, 2, 3]), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TspInstance {
    name: String,
    dist: Matrix,
    /// Generating coordinates, kept when the instance was built with
    /// [`TspInstance::from_coords`] — the family layer persists these
    /// (2n floats) instead of the dense n×n matrix, and re-deriving the
    /// matrix from them is bit-identical because the Euclidean distance
    /// computation is deterministic. `None` for explicit-matrix
    /// instances (TSPLIB `EXPLICIT`, MVODM outputs, scaled copies).
    coords: Option<Vec<(f64, f64)>>,
}

impl TspInstance {
    /// Builds an instance from planar coordinates with plain Euclidean
    /// distances (no TSPLIB rounding — use [`crate::tsplib`] for that).
    /// The coordinates are retained (see [`TspInstance::coords`]).
    pub fn from_coords(name: &str, coords: &[(f64, f64)]) -> Self {
        let n = coords.len();
        let mut dist = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = coords[i].0 - coords[j].0;
                let dy = coords[i].1 - coords[j].1;
                let d = (dx * dx + dy * dy).sqrt();
                dist[(i, j)] = d;
                dist[(j, i)] = d;
            }
        }
        TspInstance {
            name: name.to_string(),
            dist,
            coords: Some(coords.to_vec()),
        }
    }

    /// Builds an instance from an explicit distance matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::InvalidInstance`] if the matrix is not
    /// square, has a non-zero diagonal, is asymmetric, or contains
    /// non-finite entries. (MVODM-transformed matrices may contain
    /// negative off-diagonal values; those are accepted.)
    pub fn from_matrix(name: &str, dist: Matrix) -> Result<Self, ProblemError> {
        let (r, c) = dist.shape();
        if r != c {
            return Err(ProblemError::InvalidInstance {
                message: format!("distance matrix must be square, got {r}x{c}"),
            });
        }
        for i in 0..r {
            if dist[(i, i)] != 0.0 {
                return Err(ProblemError::InvalidInstance {
                    message: format!("diagonal entry ({i},{i}) must be zero"),
                });
            }
            for j in 0..c {
                let d = dist[(i, j)];
                if !d.is_finite() {
                    return Err(ProblemError::InvalidInstance {
                        message: format!("non-finite distance at ({i},{j})"),
                    });
                }
                if (d - dist[(j, i)]).abs() > 1e-9 {
                    return Err(ProblemError::InvalidInstance {
                        message: format!("asymmetric distances at ({i},{j})"),
                    });
                }
            }
        }
        Ok(TspInstance {
            name: name.to_string(),
            dist,
            coords: None,
        })
    }

    /// Instance identifier.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generating planar coordinates, when the instance was built
    /// from them (`None` for explicit-matrix instances).
    pub fn coords(&self) -> Option<&[(f64, f64)]> {
        self.coords.as_deref()
    }

    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.dist.rows()
    }

    /// Distance between cities `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.dist[(i, j)]
    }

    /// Borrow of the full distance matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.dist
    }

    /// Mean off-diagonal distance (the scale used to normalise instances
    /// so relaxation parameters of different problems live on the same
    /// order of magnitude — paper §3.3).
    pub fn mean_distance(&self) -> f64 {
        let n = self.num_cities();
        if n < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    acc += self.dist[(i, j)];
                }
            }
        }
        acc / (n * (n - 1)) as f64
    }

    /// Largest off-diagonal distance.
    pub fn max_distance(&self) -> f64 {
        let n = self.num_cities();
        let mut m = 0.0_f64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m = m.max(self.dist[(i, j)]);
                }
            }
        }
        m
    }

    /// Length of a closed tour visiting `tour[0], tour[1], …` and
    /// returning to `tour[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `tour` is not a permutation-sized slice of valid city
    /// indices (length must equal `num_cities`).
    pub fn tour_length(&self, tour: &[usize]) -> f64 {
        assert_eq!(
            tour.len(),
            self.num_cities(),
            "tour must visit every city exactly once"
        );
        let n = tour.len();
        let mut acc = 0.0;
        for k in 0..n {
            acc += self.dist[(tour[k], tour[(k + 1) % n])];
        }
        acc
    }

    /// Returns a copy with every distance multiplied by `factor` (used by
    /// normalisation; see [`preprocess`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not positive.
    pub fn scaled(&self, factor: f64) -> TspInstance {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite"
        );
        TspInstance {
            name: self.name.clone(),
            dist: self.dist.scale(factor),
            // Scaled distances no longer match the coordinates; drop them
            // rather than persist a recipe that would rebuild the wrong
            // matrix.
            coords: None,
        }
    }
}

impl std::fmt::Display for TspInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TspInstance({}, {} cities)",
            self.name,
            self.num_cities()
        )
    }
}

/// Returns `true` when `tour` is a permutation of `0..n`.
pub fn is_permutation(tour: &[usize], n: usize) -> bool {
    if tour.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &c in tour {
        if c >= n || seen[c] {
            return false;
        }
        seen[c] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> TspInstance {
        TspInstance::from_coords("square", &[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])
    }

    #[test]
    fn distances_symmetric_zero_diagonal() {
        let s = square();
        for i in 0..4 {
            assert_eq!(s.distance(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(s.distance(i, j), s.distance(j, i));
            }
        }
        assert!((s.distance(0, 2) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn tour_length_rotation_invariant() {
        let s = square();
        let l1 = s.tour_length(&[0, 1, 2, 3]);
        let l2 = s.tour_length(&[1, 2, 3, 0]);
        let l3 = s.tour_length(&[3, 2, 1, 0]); // reflection
        assert!((l1 - l2).abs() < 1e-12);
        assert!((l1 - l3).abs() < 1e-12);
    }

    #[test]
    fn diagonal_tour_longer() {
        let s = square();
        let perimeter = s.tour_length(&[0, 1, 2, 3]);
        let crossing = s.tour_length(&[0, 2, 1, 3]);
        assert!(crossing > perimeter);
    }

    #[test]
    fn mean_and_max_distance() {
        let s = square();
        // 8 unit edges + 4 diagonals of sqrt(2), over 12 ordered pairs
        let want_mean = (8.0 + 4.0 * 2.0_f64.sqrt()) / 12.0;
        assert!((s.mean_distance() - want_mean).abs() < 1e-12);
        assert!((s.max_distance() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn from_matrix_validation() {
        let mut bad = Matrix::zeros(2, 2);
        bad[(0, 1)] = 1.0;
        bad[(1, 0)] = 2.0; // asymmetric
        assert!(TspInstance::from_matrix("bad", bad).is_err());

        let mut diag = Matrix::zeros(2, 2);
        diag[(0, 0)] = 1.0;
        assert!(TspInstance::from_matrix("diag", diag).is_err());

        assert!(TspInstance::from_matrix("rect", Matrix::zeros(2, 3)).is_err());

        let mut ok = Matrix::zeros(2, 2);
        ok[(0, 1)] = 3.0;
        ok[(1, 0)] = 3.0;
        assert!(TspInstance::from_matrix("ok", ok).is_ok());
    }

    #[test]
    fn negative_off_diagonal_accepted() {
        // MVODM can legitimately produce negative entries.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = -1.5;
        m[(1, 0)] = -1.5;
        assert!(TspInstance::from_matrix("neg", m).is_ok());
    }

    #[test]
    fn scaled_scales_lengths() {
        let s = square();
        let s2 = s.scaled(3.0);
        assert!((s2.tour_length(&[0, 1, 2, 3]) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_check() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }

    #[test]
    #[should_panic(expected = "every city")]
    fn tour_length_wrong_size_panics() {
        let s = square();
        let _ = s.tour_length(&[0, 1, 2]);
    }
}
