//! # qross — QUBO Relaxation parameter Optimisation via Solver Surrogates
//!
//! The paper's primary contribution (Huang et al., ICDCS 2021): learn a
//! *solver surrogate* — a neural network predicting, for a problem instance
//! `g` and relaxation parameter `A`, the probability of feasibility
//! `Pf(g, A)` and the batch energy statistics `Eavg(g, A)`, `Estd(g, A)` of
//! a stochastic QUBO solver — then use the surrogate to propose promising
//! `A` values *without* calling the expensive solver.
//!
//! Pipeline (paper Fig. 2):
//!
//! 1. **Featurise** instances into fixed-size vectors ([`features`] — the
//!    stand-in for the pre-trained GCN of appendix C/G);
//! 2. **Collect** solver batches over an `A` schedule covering the sigmoid
//!    slope and both plateaus ([`collect`], §3.3);
//! 3. **Train** the two-headed surrogate: BCE on `Pf`, Huber on the energy
//!    statistics ([`surrogate`], §3.2);
//! 4. **Propose** parameters with the offline strategies — Minimum Fitness
//!    Strategy ([`strategy::mfs`], eq. 2) and Pf-based Strategy
//!    ([`strategy::pbs`], eq. 3) — then refine online with the Online
//!    Fitting Strategy ([`strategy::ofs`], Algorithm 1);
//! 5. **Evaluate** against the baseline tuners with the optimality-gap
//!    harness ([`eval`], Figs. 3–5 and Table 1).
//!
//! [`pipeline`] wires steps 1–3 into a single reproducible call.
//!
//! # Examples
//!
//! End-to-end at toy scale (a few seconds):
//!
//! ```no_run
//! use qross::pipeline::{Pipeline, PipelineConfig};
//! use solvers::SimulatedAnnealer;
//!
//! let config = PipelineConfig::quick();
//! let solver = SimulatedAnnealer::default();
//! let trained = Pipeline::new(config).try_run(&solver)?;
//! println!("surrogate trained on {} samples", trained.dataset_len);
//! # Ok::<(), qross::QrossError>(())
//! ```

#![forbid(unsafe_code)]

pub mod collect;
pub mod dataset;
pub mod eval;
pub mod features;
pub mod landscape;
pub mod online;
pub mod pipeline;
pub mod serve;
pub mod store;
pub mod strategy;
pub mod surrogate;

pub use features::{FeatureExtractor, FeaturizerSpec, RandomGcnFeaturizer, StatisticalFeaturizer};
pub use online::{FeedbackRecord, LineageHeader, OnlineConfig, ReplayBuffer, SurrogateCheckpoint};
pub use pipeline::{CollectedCorpus, QrossBundle};
pub use serve::{ServeConfig, ServeEngine, ServeModel, ServeObs, ServeStats, VersionedModel};
pub use surrogate::{PredictScratch, Surrogate, SurrogatePrediction};

/// Errors from the QROSS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum QrossError {
    /// The dataset is empty or degenerate (e.g. a single A value).
    BadDataset {
        /// explanation
        message: String,
    },
    /// Surrogate training diverged (non-finite loss).
    TrainingDiverged,
    /// Model persistence failed.
    Persistence {
        /// explanation
        message: String,
    },
    /// A strategy could not produce a candidate (e.g. surrogate predicts
    /// Pf = 0 everywhere in the domain).
    NoCandidate {
        /// explanation
        message: String,
    },
    /// A solver returned an empty sample set for a positive batch request
    /// — its statistics (`Pf`, `Eavg`, `Estd`, `min_energy`) are
    /// undefined, so the observation must be rejected rather than recorded
    /// as NaN.
    EmptyBatch {
        /// the relaxation parameter that was being evaluated
        a: f64,
    },
    /// A serving request was malformed (wrong feature width, non-finite
    /// values, non-positive relaxation parameter, unparseable payload…).
    /// Client error: the request is rejected, the engine keeps serving.
    BadRequest {
        /// explanation
        message: String,
    },
    /// The serving queue is at capacity. Backpressure error: the request
    /// is rejected immediately instead of growing the queue without bound
    /// — the caller should retry later or shed load upstream.
    Overloaded {
        /// the configured queue capacity (in pending prediction rows)
        capacity: usize,
    },
    /// An internal serving-engine fault (e.g. a worker thread died while
    /// holding a request). Should not happen in normal operation.
    Serve {
        /// explanation
        message: String,
    },
}

impl std::fmt::Display for QrossError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrossError::BadDataset { message } => write!(f, "bad dataset: {message}"),
            QrossError::TrainingDiverged => write!(f, "surrogate training diverged"),
            QrossError::Persistence { message } => write!(f, "persistence: {message}"),
            QrossError::NoCandidate { message } => write!(f, "no candidate: {message}"),
            QrossError::EmptyBatch { a } => {
                write!(f, "solver returned an empty sample set at A = {a}")
            }
            QrossError::BadRequest { message } => write!(f, "bad request: {message}"),
            QrossError::Overloaded { capacity } => {
                write!(f, "serving queue full ({capacity} rows): request rejected")
            }
            QrossError::Serve { message } => write!(f, "serving engine: {message}"),
        }
    }
}

impl std::error::Error for QrossError {}
