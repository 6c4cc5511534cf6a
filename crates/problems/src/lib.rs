//! # problems — constrained combinatorial problems and QUBO encodings
//!
//! The paper's case study is the Travelling Salesman Problem (§4), its
//! appendix uses Minimum Vertex Cover (appendix B), and it confirms the
//! core hypothesis on QAPLIB (§3.1 fn. 2). This crate implements all
//! three problem families end to end:
//!
//! * [`tsp`] — instances, the synthetic generators of appendix D, the n²
//!   QUBO encoding of Lucas (2014) used in §4.1, the MVODM pre-processing
//!   of appendix E, and classical reference heuristics (nearest-neighbour,
//!   2-opt, Or-opt) that provide the "near-optimal fitness" the paper
//!   normalises against;
//! * [`tsplib`] — a TSPLIB95 parser (EUC_2D, CEIL_2D, MAN_2D, MAX_2D, ATT,
//!   GEO and EXPLICIT matrices);
//! * [`realworld`] — the out-of-distribution benchmark set standing in for
//!   the paper's 11 TSPLIB instances (see DESIGN.md: the original data
//!   files are not redistributable here, so deterministic generators with
//!   matching sizes and diverse spatial structure are used instead — load
//!   genuine `.tsp` files through [`tsplib`] when available);
//! * [`mvc`] — weighted Minimum Vertex Cover with the appendix-B QUBO
//!   penalty form;
//! * [`qap`] — Quadratic Assignment Problem with the permutation QUBO
//!   encoding;
//! * [`maxcut`] — balanced Max-Cut (cardinality constraint relaxed with
//!   penalty `A`);
//! * [`knapsack`] — 0/1 knapsack with slack-bit capacity encoding
//!   (Lucas 2014 §5.2).
//!
//! All encodings implement [`RelaxableProblem`], the interface the QROSS
//! pipeline consumes: build a QUBO for a relaxation parameter `A`, test
//! feasibility of solver outputs, and score feasible solutions in original
//! objective units. The [`family`] module raises that contract to the
//! *family* level: a [`family::ProblemFamily`] owns generation,
//! featurization and a compact instance encoding, and a static registry
//! makes families addressable by name — adding one means touching only
//! this crate plus one registration line.

#![forbid(unsafe_code)]

pub mod family;
pub mod knapsack;
pub mod maxcut;
pub mod mvc;
pub mod qap;
pub mod realworld;
pub mod tsp;
pub mod tsplib;

pub use family::{
    known_families, lookup_family, registry, CorpusTier, FamilyProblem, InstanceData,
    ProblemFamily, FAMILY_FEATURE_DIM,
};
pub use knapsack::KnapsackInstance;
pub use maxcut::MaxCutInstance;
pub use mvc::MvcInstance;
pub use qap::QapInstance;
pub use tsp::{TspEncoding, TspInstance};

use qubo::QuboModel;

/// A constrained problem relaxed into QUBO form with a penalty parameter.
///
/// This is the contract between problem encodings and the QROSS pipeline:
/// the surrogate learns `Pf(g, A)` and energy statistics of the QUBO built
/// by [`RelaxableProblem::to_qubo`], while [`RelaxableProblem::fitness`]
/// scores feasible assignments in the *original* objective units (for TSP,
/// tour length under the unmodified distance matrix — appendix E).
pub trait RelaxableProblem: Send + Sync {
    /// Human-readable instance identifier.
    fn name(&self) -> &str;

    /// Number of binary variables of the QUBO encoding.
    fn num_vars(&self) -> usize;

    /// Builds the penalty relaxation for parameter `relaxation`.
    fn to_qubo(&self, relaxation: f64) -> QuboModel;

    /// Whether `x` satisfies every constraint of the original problem.
    fn is_feasible(&self, x: &[u8]) -> bool;

    /// Original-units objective of `x`, or `None` when `x` is infeasible.
    fn fitness(&self, x: &[u8]) -> Option<f64>;
}

impl<T: RelaxableProblem + ?Sized> RelaxableProblem for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn num_vars(&self) -> usize {
        (**self).num_vars()
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        (**self).to_qubo(relaxation)
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        (**self).is_feasible(x)
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        (**self).fitness(x)
    }
}

/// Errors from problem construction and data parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A TSPLIB file could not be parsed.
    Parse {
        /// line number (1-based) where parsing failed, when known
        line: usize,
        /// explanation
        message: String,
    },
    /// The instance data is structurally invalid (wrong matrix shape,
    /// negative dimension, unknown edge-weight type, ...).
    InvalidInstance {
        /// explanation
        message: String,
    },
    /// A problem-family name did not match any registered family.
    UnknownFamily {
        /// the name that failed to resolve
        name: String,
        /// ` | `-joined registered family names
        known: String,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ProblemError::InvalidInstance { message } => {
                write!(f, "invalid instance: {message}")
            }
            ProblemError::UnknownFamily { name, known } => {
                write!(f, "unknown problem family `{name}` (known: {known})")
            }
        }
    }
}

impl std::error::Error for ProblemError {}
