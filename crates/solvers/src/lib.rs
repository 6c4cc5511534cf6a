//! # solvers — QUBO solver substrates
//!
//! The paper evaluates QROSS against two production solvers — the Fujitsu
//! Digital Annealer and D-Wave's Qbsolv (run in simulator mode) — plus plain
//! Simulated Annealing on CPU. None of these is available as a Rust
//! dependency, so this crate implements each from its published algorithm
//! (see DESIGN.md §2 for the substitution argument):
//!
//! * [`sa`] — [`SimulatedAnnealer`]: Metropolis single-flip annealing with a
//!   geometric β schedule auto-scaled to the model's coefficient range;
//! * [`da`] — [`DigitalAnnealer`]: the parallel-trial, dynamic-escape-offset
//!   Monte Carlo of Aramon et al. (2019);
//! * [`tabu`] — [`TabuSearch`]: 1-flip tabu with aspiration, also the
//!   qbsolv subsolver;
//! * [`qbsolv`] — [`Qbsolv`]: the decomposition loop of Booth et al. (2017);
//! * [`exhaustive`] — [`ExhaustiveSolver`]: exact enumeration for ≤ 24
//!   variables, the ground-truth oracle in tests;
//! * [`noise`] — [`AnalogNoise`]: a solver wrapper injecting *analog
//!   control error* (paper appendix B);
//! * [`sample`] — [`Sample`]/[`SampleSet`]: the batch-of-solutions result
//!   format whose statistics (`Pf`, `Eavg`, `Estd`) the surrogate learns.
//!
//! Every solver implements the [`Solver`] trait: given a QUBO and a seed it
//! returns a `SampleSet` of `batch` stochastic solutions, mirroring how the
//! paper's solvers return 128 solutions per call.
//!
//! # Shared incremental state
//!
//! All solvers drive the **same** flip engine, [`qubo::QuboState`], over
//! the model's CSR layout (see the `qubo` crate docs): reading a candidate
//! flip's energy delta is an O(1) array read, committing a flip is
//! O(degree), and the cached energy/delta caches agree with a full
//! recomputation to ≤ 1e-9 over arbitrary flip sequences. No solver calls
//! the full O(n + couplings) `model.energy()` inside its sweep loop — full
//! evaluations appear only at batch boundaries (e.g. the noise wrapper
//! re-scoring solutions on the true Hamiltonian) and in test oracles. Even
//! [`ExhaustiveSolver`] enumerates by Gray code, one incremental flip per
//! assignment.
//!
//! # Replica parallelism and determinism
//!
//! Batches fan out through [`parallel::parallel_map_with`]: replicas are
//! split into contiguous chunks, one worker thread per chunk, and each
//! worker allocates its solver state **once** and bulk-resets it
//! (`assign_all`/`randomize`) between replicas. Every replica derives its
//! RNG stream from `(seed, replica_index)`, so output is bit-identical
//! across thread counts, including the sequential fallback — sampling is a
//! pure function of `(model, batch, seed)`.
//!
//! # Examples
//!
//! ```
//! use qubo::QuboBuilder;
//! use solvers::{sa::SimulatedAnnealer, Solver};
//!
//! let mut b = QuboBuilder::new(2);
//! b.add_linear(0, -1.0);
//! b.add_quadratic(0, 1, 2.0);
//! let model = b.build();
//! let solver = SimulatedAnnealer::default();
//! let set = solver.sample(&model, 8, 42);
//! assert_eq!(set.len(), 8);
//! // ground state is x = [1, 0] with energy -1
//! assert_eq!(set.best().unwrap().energy, -1.0);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod da;
pub mod exhaustive;
pub mod metrics;
pub mod noise;
pub mod parallel;
pub mod qbsolv;
pub mod sa;
pub mod sample;
pub mod schedule;
pub mod tabu;

pub use da::DigitalAnnealer;
pub use exhaustive::ExhaustiveSolver;
pub use noise::AnalogNoise;
pub use qbsolv::Qbsolv;
pub use sa::SimulatedAnnealer;
pub use sample::{Sample, SampleSet};
pub use tabu::TabuSearch;

use qubo::QuboModel;

/// Default lockstep lane width for the SA/DA batched replica kernels.
pub const DEFAULT_REPLICA_LANES: usize = 8;

thread_local! {
    static REPLICA_LANES: std::cell::Cell<usize> =
        const { std::cell::Cell::new(DEFAULT_REPLICA_LANES) };
}

/// Lockstep lane width the SA/DA replica loops will use for batches
/// dispatched from the calling thread: replicas are grouped into chunks of
/// this many [`qubo::ReplicaBatch`] lanes and advanced over one shared CSR
/// traversal per chunk.
///
/// The width is a **pure performance knob**: every lane runs the unchanged
/// per-replica algorithm on its own RNG stream, so sample output is
/// bit-identical at any width (CI replays collection at 1-vs-N lanes and
/// diffs dataset bytes). Solvers read the width once, on the caller's
/// thread, before fanning out to workers.
pub fn replica_lanes() -> usize {
    REPLICA_LANES.with(|c| c.get())
}

/// Overrides [`replica_lanes`] on the calling thread; `0` restores
/// [`DEFAULT_REPLICA_LANES`]. Used by determinism tests and benches to pin
/// the lane width; production code should leave the default.
pub fn set_replica_lanes(width: usize) {
    let width = if width == 0 {
        DEFAULT_REPLICA_LANES
    } else {
        width
    };
    REPLICA_LANES.with(|c| c.set(width));
}

/// A stochastic QUBO solver: returns a batch of candidate solutions.
///
/// Implementations must be deterministic given `(model, batch, seed)` so
/// that experiments are reproducible, and must report energies measured on
/// the *input* model even if they internally perturb coefficients (see
/// [`noise`]).
pub trait Solver: Send + Sync {
    /// Short stable identifier used in experiment reports (e.g. `"da"`).
    fn name(&self) -> &str;

    /// Draws `batch` solutions for `model` using the given seed.
    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet;
}

impl<S: Solver + ?Sized> Solver for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        (**self).sample(model, batch, seed)
    }
}

impl<S: Solver + ?Sized> Solver for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        (**self).sample(model, batch, seed)
    }
}
