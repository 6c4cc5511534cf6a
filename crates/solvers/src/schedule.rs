//! Annealing temperature schedules.
//!
//! Both annealers sweep an inverse temperature β from hot to cold. The
//! default range is auto-scaled from the model's coefficient magnitudes
//! (the heuristic used by D-Wave's `neal` reference sampler): the hot end
//! accepts a worst-case uphill move with probability ~50%, the cold end
//! accepts a typical smallest move with probability ~1%.
//!
//! This auto-scaling is also what makes the penalty-weight experiment
//! (paper appendix B, Fig. 6) behave like real hardware: as the penalty
//! weight grows, the temperature range grows with it and the solver loses
//! resolution on the (now relatively tiny) objective terms.

use qubo::QuboModel;
use serde::{Deserialize, Serialize};

/// Geometric β (inverse temperature) schedule.
///
/// # Examples
///
/// ```
/// use solvers::schedule::BetaSchedule;
/// let s = BetaSchedule::geometric(0.1, 10.0, 5);
/// let betas: Vec<f64> = s.iter().collect();
/// assert_eq!(betas.len(), 5);
/// assert!((betas[0] - 0.1).abs() < 1e-12);
/// assert!((betas[4] - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaSchedule {
    beta_hot: f64,
    beta_cold: f64,
    steps: usize,
}

impl BetaSchedule {
    /// Creates a geometric schedule from `beta_hot` to `beta_cold` over
    /// `steps` steps.
    ///
    /// # Panics
    ///
    /// Panics if the betas are not positive or `steps == 0`.
    pub fn geometric(beta_hot: f64, beta_cold: f64, steps: usize) -> Self {
        assert!(
            beta_hot > 0.0 && beta_cold > 0.0,
            "betas must be positive, got hot={beta_hot}, cold={beta_cold}"
        );
        assert!(steps > 0, "schedule needs at least one step");
        BetaSchedule {
            beta_hot,
            beta_cold,
            steps,
        }
    }

    /// Derives a schedule from the model's coefficient scale.
    ///
    /// `Δmax = max_i (|l_i| + Σ_j |w_ij|)` bounds any single-flip energy
    /// change; the hot β accepts such a move with probability 0.5 and the
    /// cold β accepts a move of size `Δmax/1000` with probability 0.01.
    /// A zero model falls back to the range `[0.1, 10]`.
    pub fn auto(model: &QuboModel, steps: usize) -> Self {
        let mut delta_max: f64 = 0.0;
        for i in 0..model.num_vars() {
            let mut reach = model.linear(i).abs();
            for &w in model.neighbor_weights(i) {
                reach += w.abs();
            }
            delta_max = delta_max.max(reach);
        }
        if delta_max <= 0.0 {
            return BetaSchedule::geometric(0.1, 10.0, steps);
        }
        let beta_hot = (2.0_f64).ln() / delta_max;
        let delta_min = delta_max / 1000.0;
        let beta_cold = (100.0_f64).ln() / delta_min;
        BetaSchedule::geometric(beta_hot, beta_cold, steps)
    }

    /// Number of steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// β at step `k ∈ [0, steps)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= steps`.
    pub fn beta_at(&self, k: usize) -> f64 {
        assert!(k < self.steps, "step {k} out of range");
        if self.steps == 1 {
            return self.beta_cold;
        }
        let t = k as f64 / (self.steps - 1) as f64;
        self.beta_hot * (self.beta_cold / self.beta_hot).powf(t)
    }

    /// Iterates over all β values hot → cold.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.steps).map(move |k| self.beta_at(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::QuboBuilder;

    #[test]
    fn geometric_endpoints() {
        let s = BetaSchedule::geometric(0.5, 50.0, 10);
        assert!((s.beta_at(0) - 0.5).abs() < 1e-12);
        assert!((s.beta_at(9) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_increasing() {
        let s = BetaSchedule::geometric(0.01, 100.0, 64);
        let mut prev = 0.0;
        for b in s.iter() {
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn single_step_is_cold() {
        let s = BetaSchedule::geometric(1.0, 9.0, 1);
        assert_eq!(s.beta_at(0), 9.0);
    }

    #[test]
    fn auto_scales_inversely_with_coefficients() {
        let mut b1 = QuboBuilder::new(2);
        b1.add_quadratic(0, 1, 1.0);
        let small = BetaSchedule::auto(&b1.build(), 4);

        let mut b2 = QuboBuilder::new(2);
        b2.add_quadratic(0, 1, 100.0);
        let large = BetaSchedule::auto(&b2.build(), 4);

        // Hotter (smaller β) start for larger coefficients.
        assert!(large.beta_hot < small.beta_hot);
        assert!((small.beta_hot / large.beta_hot - 100.0).abs() < 1e-9);
    }

    #[test]
    fn auto_zero_model_fallback() {
        let empty = QuboBuilder::new(3).build();
        let s = BetaSchedule::auto(&empty, 5);
        assert_eq!(s.beta_hot, 0.1);
        assert_eq!(s.beta_cold, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_beta() {
        let _ = BetaSchedule::geometric(0.0, 1.0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn rejects_zero_steps() {
        let _ = BetaSchedule::geometric(0.1, 1.0, 0);
    }
}
