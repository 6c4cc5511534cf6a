//! Hardware-degradation model: analog control error (paper appendix B).
//!
//! Appendix B shows that on both quantum annealers (DW_2000Q) and classical
//! solvers, solution quality degrades as the penalty weight grows, because
//! the *objective* part of the Hamiltonian shrinks relative to the
//! hardware's coefficient resolution. Quantum annealers suffer **analog
//! control error** — "the coefficients of the Hamiltonian implemented
//! differ from those intended" (Barends et al.; Pearson et al.).
//! [`AnalogNoise`] models this, and it is the only model of appendix B
//! here: it rescales the model to the hardware coefficient range and adds
//! i.i.d. Gaussian error proportional to that full range before the
//! wrapped solver runs.
//!
//! The wrapper reports energies on the **true** model, so the measured
//! degradation is exactly "solver optimised the wrong Hamiltonian".

use rand::Rng;

use mathkit::rng::derive_rng;
use qubo::QuboModel;

use crate::sample::{Sample, SampleSet};
use crate::Solver;

/// Analog-control-error wrapper: perturbs every coefficient with Gaussian
/// noise whose standard deviation is `error_rate × max|coefficient|`.
///
/// # Examples
///
/// ```
/// use qubo::QuboBuilder;
/// use solvers::{AnalogNoise, ExhaustiveSolver, Solver};
/// let mut b = QuboBuilder::new(2);
/// b.add_linear(0, -1.0);
/// let model = b.build();
/// // zero error rate: behaves exactly like the inner solver
/// let clean = AnalogNoise::new(ExhaustiveSolver::new(), 0.0);
/// assert_eq!(clean.sample(&model, 1, 0).best().unwrap().energy, -1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AnalogNoise<S> {
    inner: S,
    error_rate: f64,
    name: String,
}

impl<S: Solver> AnalogNoise<S> {
    /// Wraps `inner` with relative coefficient noise `error_rate`
    /// (typical hardware values are 0.01–0.05).
    ///
    /// # Panics
    ///
    /// Panics if `error_rate` is negative or not finite.
    pub fn new(inner: S, error_rate: f64) -> Self {
        assert!(
            error_rate.is_finite() && error_rate >= 0.0,
            "error_rate must be a finite non-negative number"
        );
        let name = format!("analog({})", inner.name());
        AnalogNoise {
            inner,
            error_rate,
            name,
        }
    }

    /// The configured relative error rate.
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    fn perturb(&self, model: &QuboModel, seed: u64) -> QuboModel {
        if self.error_rate == 0.0 || model.max_abs_coefficient() == 0.0 {
            return model.clone();
        }
        // Hardware programs local fields and couplings through separate
        // DACs, each normalised to its own range (D-Wave: h ∈ [−2, 2],
        // J ∈ [−1, 1]); analog error is relative to the respective range.
        // Perturbing in Ising space with per-kind scales models exactly
        // that — a single QUBO-wide scale would let the (large) penalty
        // fields swamp the (small) couplings with noise.
        let ising = qubo::IsingModel::from_qubo(model);
        let h_scale = (0..ising.num_spins())
            .map(|i| ising.field(i).abs())
            .fold(0.0_f64, f64::max);
        let j_scale = ising
            .couplings()
            .iter()
            .fold(0.0_f64, |m, &(_, _, j)| m.max(j.abs()));
        let mut rng = derive_rng(seed, 0xA0A);
        let mut gauss = move || {
            let u1: f64 = rng.gen::<f64>().max(1e-300);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let fields: Vec<f64> = (0..ising.num_spins())
            .map(|i| ising.field(i) + self.error_rate * h_scale * gauss())
            .collect();
        let couplings: Vec<(u32, u32, f64)> = ising
            .couplings()
            .iter()
            .map(|&(a, b, j)| (a, b, j + self.error_rate * j_scale * gauss()))
            .collect();
        qubo::IsingModel::from_parts(ising.offset(), fields, couplings).to_qubo()
    }
}

impl<S: Solver> Solver for AnalogNoise<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        let noisy = self.perturb(model, seed);
        let raw = self.inner.sample(&noisy, batch, seed);
        // Re-score assignments on the true Hamiltonian.
        SampleSet::from_samples(
            raw.into_samples()
                .into_iter()
                .map(|s| Sample {
                    energy: model.energy(&s.assignment),
                    assignment: s.assignment,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::sa::SimulatedAnnealer;
    use qubo::QuboBuilder;

    /// Weighted MVC-like model: small objective coefficients (weights)
    /// plus large penalty couplings whose magnitude we can scale.
    fn mvc_like(penalty: f64) -> QuboModel {
        let weights = [0.3, 0.7, 0.5, 0.9, 0.2];
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)];
        let mut b = QuboBuilder::new(5);
        for (i, &w) in weights.iter().enumerate() {
            b.add_linear(i, w);
        }
        for &(i, j) in &edges {
            // σ (1 - u_i - u_j + u_i u_j)
            b.add_offset(penalty);
            b.add_linear(i, -penalty);
            b.add_linear(j, -penalty);
            b.add_quadratic(i, j, penalty);
        }
        b.build()
    }

    #[test]
    fn zero_noise_is_identity() {
        let m = mvc_like(2.0);
        let plain = ExhaustiveSolver::new().sample(&m, 4, 1);
        let wrapped = AnalogNoise::new(ExhaustiveSolver::new(), 0.0).sample(&m, 4, 1);
        assert_eq!(plain, wrapped);
    }

    #[test]
    fn energies_scored_on_true_model() {
        let m = mvc_like(10.0);
        let noisy = AnalogNoise::new(SimulatedAnnealer::default(), 0.2);
        for s in noisy.sample(&m, 8, 3).iter() {
            assert!((m.energy(&s.assignment) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn high_penalty_with_noise_degrades_objective() {
        // The appendix-B mechanism: with noise fixed relative to the
        // largest coefficient, cranking the penalty weight must (on
        // average) worsen the solution found for the *true* model.
        let noisy = AnalogNoise::new(ExhaustiveSolver::new(), 0.05);
        let mut low_sum = 0.0;
        let mut high_sum = 0.0;
        for seed in 0..12 {
            let m_low = mvc_like(2.0);
            let m_high = mvc_like(2000.0);
            low_sum += noisy.sample(&m_low, 1, seed).best().unwrap().energy;
            high_sum += noisy.sample(&m_high, 1, seed).best().unwrap().energy;
        }
        // True optima: identical cover structure; the high-penalty model's
        // feasible optimum has the same cover weight. Compare normalised
        // against exact.
        let exact_low = ExhaustiveSolver::new().ground_state(&mvc_like(2.0)).energy;
        let exact_high = ExhaustiveSolver::new()
            .ground_state(&mvc_like(2000.0))
            .energy;
        let gap_low = low_sum / 12.0 - exact_low;
        let gap_high = high_sum / 12.0 - exact_high;
        assert!(
            gap_high > gap_low,
            "expected degradation: low {gap_low}, high {gap_high}"
        );
    }

    #[test]
    fn names_compose() {
        let a = AnalogNoise::new(ExhaustiveSolver::new(), 0.1);
        assert_eq!(a.name(), "analog(exhaustive)");
    }

    #[test]
    #[should_panic(expected = "error_rate")]
    fn analog_rejects_negative_rate() {
        let _ = AnalogNoise::new(ExhaustiveSolver::new(), -0.1);
    }
}
