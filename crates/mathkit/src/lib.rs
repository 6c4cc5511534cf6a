//! # mathkit — numerical substrate for the QROSS reproduction
//!
//! Self-contained numerical routines used across the workspace:
//!
//! * [`matrix`] — dense row-major matrices with the small set of BLAS-like
//!   operations the neural network and Gaussian-process code need;
//! * [`kernel`] — register-tiled matmul kernels behind [`Matrix`], all
//!   bit-identical to the naive reference loop;
//! * [`linalg`] — Cholesky factorisation and triangular solves for symmetric
//!   positive-definite systems (Gaussian-process regression);
//! * [`stats`] — descriptive statistics and confidence intervals;
//! * [`special`] — complementary error function, Gaussian pdf/cdf and a
//!   stable sigmoid;
//! * [`integrate`] — fixed-order and composite Gauss–Legendre quadrature
//!   (used by the Minimum Fitness Strategy integral);
//! * [`optimize`] — golden-section refinement of a precomputed grid (the
//!   stand-in for scipy's `shgo` in the paper);
//! * [`fit`] — damped Gauss–Newton sigmoid fitting (Online Fitting Strategy)
//!   and linear least squares;
//! * [`kde`] — 1-D truncated Parzen (Gaussian-mixture) estimators for the
//!   TPE baseline tuner;
//! * [`rng`] — deterministic seed-derivation helpers so every experiment is
//!   reproducible from a single root seed.
//!
//! # Examples
//!
//! ```
//! use mathkit::special::normal_cdf;
//! let p = normal_cdf(0.0, 0.0, 1.0);
//! assert!((p - 0.5).abs() < 1e-12);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod fit;
pub mod integrate;
pub mod kde;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod optimize;
pub mod rng;
pub mod special;
pub mod stats;

pub use matrix::Matrix;

/// Crate-wide error type for numerical failures.
///
/// # Examples
///
/// ```
/// use mathkit::MathError;
/// let err = MathError::NotPositiveDefinite;
/// assert_eq!(err.to_string(), "matrix is not positive definite");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// A Cholesky factorisation encountered a non-positive pivot.
    NotPositiveDefinite,
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch {
        /// textual description of the expected shape
        expected: String,
        /// textual description of the shape that was provided
        found: String,
    },
    /// The input was empty where at least one element is required.
    EmptyInput,
    /// An argument was outside its mathematical domain.
    Domain {
        /// explanation of the violated precondition
        message: String,
    },
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            MathError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MathError::EmptyInput => write!(f, "empty input"),
            MathError::Domain { message } => write!(f, "domain error: {message}"),
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MathError>;
