//! # qubo — QUBO models, energies and penalty relaxation
//!
//! The paper's problem-solving pipeline starts from a constrained binary
//! program `min x'Qx  s.t.  Cx = d` and relaxes it into an unconstrained
//! QUBO `min x'Qx + A·‖Cx − d‖²` (§1). This crate provides:
//!
//! * [`model`] — [`QuboModel`]: a sparse symmetric quadratic form over
//!   binary variables stored as flat **CSR arrays** (`row_offsets` /
//!   `col_indices` / `values`, plus a `mirror` permutation linking each
//!   entry to its symmetric twin), built through [`QuboBuilder`]; energy
//!   evaluation walks contiguous memory;
//! * [`state`] — [`QuboState`]: the single incremental flip engine shared
//!   by every solver — cached total energy, a maintained flip-delta vector
//!   (`flip_delta` is an O(1) read, `flip` an O(degree) update), and bulk
//!   `assign_all`/`randomize` resets that rebuild both caches in one CSR
//!   pass without reallocating. Incremental values agree with a full
//!   recomputation to ≤ 1e-9 over arbitrary flip sequences
//!   (property-tested);
//! * [`batch`] — [`ReplicaBatch`]: the lockstep multi-replica counterpart
//!   of [`QuboState`] — N replicas' assignments and flip-delta vectors
//!   stored structure-of-arrays and rebuilt in one shared CSR traversal,
//!   with every lane bit-identical to an independent state
//!   (property-tested); the SA/DA replica loops batch through it;
//! * [`program`] — [`ConstrainedBinaryProgram`]: linear-equality-constrained
//!   binary programs and their penalty relaxation parameterised by `A`;
//! * [`ising`] — conversion between QUBO and Ising forms.
//!
//! # Examples
//!
//! Build a tiny QUBO and evaluate its energy:
//!
//! ```
//! use qubo::QuboBuilder;
//! let mut b = QuboBuilder::new(3);
//! b.add_linear(0, -1.0);
//! b.add_quadratic(0, 1, 2.0);
//! let model = b.build();
//! // x = [1, 1, 0]: E = -1 + 2 = 1
//! assert_eq!(model.energy(&[1, 1, 0]), 1.0);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod batch;
pub mod ising;
pub mod model;
pub mod program;
pub mod state;

pub use batch::ReplicaBatch;
pub use ising::IsingModel;
pub use model::{QuboBuilder, QuboModel};
pub use program::{ConstrainedBinaryProgram, LinearConstraint};
pub use state::QuboState;

/// Errors from QUBO construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuboError {
    /// A variable index was at least the declared number of variables.
    VariableOutOfRange {
        /// offending index
        index: usize,
        /// declared number of variables
        num_vars: usize,
    },
    /// A coefficient was NaN or infinite.
    NonFiniteCoefficient,
}

impl std::fmt::Display for QuboError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuboError::VariableOutOfRange { index, num_vars } => {
                write!(
                    f,
                    "variable index {index} out of range for {num_vars} variables"
                )
            }
            QuboError::NonFiniteCoefficient => write!(f, "non-finite coefficient"),
        }
    }
}

impl std::error::Error for QuboError {}
