//! # tuners — baseline hyper-parameter optimisers
//!
//! The paper compares QROSS against three "representative optimisation
//! methods" (§5.1): Random Search, Bayesian Optimisation (GPyOpt-style
//! Gaussian process with Expected Improvement) and the Tree-structured
//! Parzen Estimator of Hyperopt. This crate implements all three behind a
//! common ask/tell interface over a bounded 1-D search domain (the
//! relaxation parameter `A ∈ [1, 100]` in the experiments).
//!
//! All tuners **minimise** the observed objective and are deterministic
//! given their seed.
//!
//! # Examples
//!
//! ```
//! use tuners::{random::RandomSearch, Tuner};
//! let mut t = RandomSearch::new(0.0, 10.0, 42);
//! for _ in 0..20 {
//!     let a = t.ask();
//!     assert!((0.0..=10.0).contains(&a));
//!     t.tell(a, (a - 3.0).powi(2));
//! }
//! let (best_a, best_y) = t.best().unwrap();
//! assert!((best_a - 3.0).abs() < 3.0);
//! assert!(best_y >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod bayesopt;
pub mod random;
pub mod tpe;

pub use bayesopt::BayesOpt;
pub use random::RandomSearch;
pub use tpe::Tpe;

/// One observed trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// evaluated parameter
    pub x: f64,
    /// observed objective (lower is better)
    pub y: f64,
}

/// Sequential model-based optimiser over a bounded scalar domain.
///
/// The caller loop is: `ask` for a candidate, evaluate it (one QUBO-solver
/// call in the experiments), `tell` the result. Objectives must be finite —
/// encode infeasible trials as a large finite penalty before telling.
pub trait Tuner: Send {
    /// Short identifier used in experiment reports.
    fn name(&self) -> &str;

    /// Proposes the next parameter to evaluate.
    fn ask(&mut self) -> f64;

    /// Records the objective observed at `x`.
    ///
    /// # Panics
    ///
    /// Implementations panic on non-finite `y` (the experiment harness
    /// must encode infeasibility as a finite penalty).
    fn tell(&mut self, x: f64, y: f64);

    /// All observations so far, in evaluation order.
    fn observations(&self) -> &[Observation];

    /// Best (lowest-objective) observation so far.
    fn best(&self) -> Option<(f64, f64)> {
        self.observations()
            .iter()
            .min_by(|a, b| a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal))
            .map(|o| (o.x, o.y))
    }
}

/// Shared validation for `tell` implementations.
pub(crate) fn validate_observation(lo: f64, hi: f64, x: f64, y: f64) {
    assert!(
        y.is_finite(),
        "objective must be finite (got {y}); encode infeasibility as a finite penalty"
    );
    assert!(
        x.is_finite() && x >= lo - 1e-9 && x <= hi + 1e-9,
        "parameter {x} outside domain [{lo}, {hi}]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic multimodal objective on [0, 100] with the global
    /// minimum at x* ≈ 23.
    pub(crate) fn test_objective(x: f64) -> f64 {
        let base = ((x - 23.0) / 18.0).powi(2);
        let ripple = 0.15 * (x * 0.45).sin();
        base + ripple
    }

    /// All three tuners should land substantially closer to the optimum
    /// than the worst point of the domain within 25 trials.
    #[test]
    fn all_tuners_make_progress() {
        let tuners: Vec<Box<dyn Tuner>> = vec![
            Box::new(RandomSearch::new(0.0, 100.0, 5)),
            Box::new(BayesOpt::new(0.0, 100.0, 5)),
            Box::new(Tpe::new(0.0, 100.0, 5)),
        ];
        for mut t in tuners {
            for _ in 0..25 {
                let x = t.ask();
                let y = test_objective(x);
                t.tell(x, y);
            }
            let (bx, by) = t.best().unwrap();
            assert!(
                by < test_objective(80.0),
                "{}: best {by} at {bx} did not beat a bad baseline point",
                t.name()
            );
        }
    }

    /// Model-based tuners should, on average over seeds, be competitive
    /// with random search given the same budget.
    #[test]
    fn model_based_competitive_with_random() {
        let budget = 20;
        let mut totals = [0.0f64; 3]; // random, bo, tpe
        for seed in 0..8 {
            let mut tuners: Vec<Box<dyn Tuner>> = vec![
                Box::new(RandomSearch::new(0.0, 100.0, seed)),
                Box::new(BayesOpt::new(0.0, 100.0, seed)),
                Box::new(Tpe::new(0.0, 100.0, seed)),
            ];
            for (i, t) in tuners.iter_mut().enumerate() {
                for _ in 0..budget {
                    let x = t.ask();
                    t.tell(x, test_objective(x));
                }
                totals[i] += t.best().unwrap().1;
            }
        }
        assert!(
            totals[1] <= totals[0] + 0.2,
            "BO {totals:?} should not lose badly to random"
        );
        assert!(
            totals[2] <= totals[0] + 0.2,
            "TPE {totals:?} should not lose badly to random"
        );
    }
}
