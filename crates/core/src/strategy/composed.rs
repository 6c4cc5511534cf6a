//! The composed benchmark strategy (paper §5, "Strategy"):
//!
//! 1. trial 1 — **MFS** proposes the first candidate;
//! 2. trials 2–3 — **PBS** at `Pf = 80%` and `20%`;
//! 3. trials 4+ — **OFS** refines online.
//!
//! "The trials in the first two steps can be used for curve fitting in the
//! third step" — every observation (including the offline ones) feeds the
//! OFS history.

use crate::collect::SolverObservation;
use crate::strategy::{mfs, ofs::OnlineFitting, pbs, ProposalStrategy};
use crate::surrogate::Surrogate;

/// QROSS's composed proposal strategy for one instance.
pub struct ComposedStrategy<'s> {
    surrogate: &'s Surrogate,
    domain: (f64, f64),
    pbs_targets: Vec<f64>,
    ofs: OnlineFitting,
    /// fallback ladder position when an offline proposal fails
    planned: Vec<f64>,
}

impl<'s> ComposedStrategy<'s> {
    /// Creates the strategy.
    ///
    /// `batch` is the solver batch size `B` entering the MFS integral;
    /// `domain` bounds the relaxation parameter (the experiments use the
    /// normalised-instance equivalent of the paper's `[1, 100]`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid domain or zero batch.
    pub fn new(
        surrogate: &'s Surrogate,
        features: Vec<f64>,
        domain: (f64, f64),
        batch: usize,
        seed: u64,
    ) -> Self {
        assert!(domain.0 > 0.0 && domain.0 < domain.1, "invalid A domain");
        assert!(batch > 0, "batch must be positive");
        let mut planned = Vec::new();
        // Plan the offline proposals eagerly: MFS, then PBS at 80%/20%.
        if let Ok(m) = mfs::propose(surrogate, &features, domain, batch) {
            planned.push(m.x);
        }
        for &p in &[0.8, 0.2] {
            if let Ok(a) = pbs::propose(surrogate, &features, domain, p) {
                planned.push(a);
            }
        }
        // Degenerate surrogate (all proposals failed): geometric centre.
        if planned.is_empty() {
            planned.push((domain.0 * domain.1).sqrt());
        }
        ComposedStrategy {
            surrogate,
            domain,
            pbs_targets: vec![0.8, 0.2],
            ofs: OnlineFitting::new(domain, seed),
            planned,
        }
    }

    /// The planned offline proposals (MFS first, then PBS ladder).
    pub fn planned_offline(&self) -> &[f64] {
        &self.planned
    }

    /// The surrogate driving the offline phase.
    pub fn surrogate(&self) -> &Surrogate {
        self.surrogate
    }

    /// The PBS targets used for trials 2–3.
    pub fn pbs_targets(&self) -> &[f64] {
        &self.pbs_targets
    }
}

impl ProposalStrategy for ComposedStrategy<'_> {
    fn name(&self) -> &str {
        "qross"
    }

    fn propose(&mut self, trial: usize) -> f64 {
        if trial < self.planned.len() {
            self.planned[trial].clamp(self.domain.0, self.domain.1)
        } else {
            self.ofs
                .next_candidate()
                .clamp(self.domain.0, self.domain.1)
        }
    }

    fn observe(&mut self, a: f64, outcome: &SolverObservation) {
        // Offline trials feed the online fit (§5: "The trials in the first
        // two steps can be used for curve fitting in the third step").
        self.ofs.observe(a, outcome.pf.clamp(0.0, 1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetRow, SurrogateDataset};
    use crate::surrogate::SurrogateConfig;
    use mathkit::special::sigmoid;

    /// A surrogate trained on a world where Pf = σ(3(ln A − f)) and the
    /// energy dip sits on the slope: minimum near ln A = f.
    fn trained_surrogate() -> Surrogate {
        let mut ds = SurrogateDataset::new(1);
        for g in 0..10 {
            let f = -0.5 + g as f64 * 0.1;
            for k in 0..17 {
                let ln_a = -3.0 + 6.0 * k as f64 / 16.0;
                let pf = sigmoid(3.0 * (ln_a - f));
                // Energy: rises with A (penalty dominance) but feasible
                // minima only exist on the slope; Eavg dips near midpoint.
                let e_avg = 10.0 + 2.0 * (ln_a - f) + 0.5 * (ln_a - f).powi(2);
                ds.push(DatasetRow {
                    features: vec![f],
                    a: ln_a.exp(),
                    pf,
                    e_avg,
                    e_std: 1.0,
                });
            }
        }
        let cfg = SurrogateConfig {
            hidden: 24,
            epochs: 300,
            learning_rate: 5e-3,
            batch_size: 32,
            val_fraction: 0.0,
            seed: 9,
        };
        Surrogate::train(&ds, &cfg).unwrap().0
    }

    fn world_pf(a: f64, f: f64) -> f64 {
        sigmoid(3.0 * (a.ln() - f))
    }

    #[test]
    fn offline_plan_has_three_proposals() {
        let sur = trained_surrogate();
        let domain = ((-3.0f64).exp(), (3.0f64).exp());
        let strat = ComposedStrategy::new(&sur, vec![0.0], domain, 32, 1);
        assert_eq!(strat.planned_offline().len(), 3);
    }

    #[test]
    fn first_proposal_sits_on_slope() {
        // The paper's hypothesis: optimal parameters live where
        // 0 < Pf < 1. The MFS proposal must respect that.
        let sur = trained_surrogate();
        let domain = ((-3.0f64).exp(), (3.0f64).exp());
        let f = 0.0;
        let mut strat = ComposedStrategy::new(&sur, vec![f], domain, 32, 2);
        let a0 = strat.propose(0);
        let pf = world_pf(a0, f);
        assert!(
            pf > 0.01 && pf < 0.999,
            "MFS proposal A={a0} off the slope (true Pf {pf})"
        );
    }

    #[test]
    fn pbs_proposals_bracket_the_slope() {
        let sur = trained_surrogate();
        let domain = ((-3.0f64).exp(), (3.0f64).exp());
        let f = 0.0;
        let mut strat = ComposedStrategy::new(&sur, vec![f], domain, 32, 3);
        let a_hi = strat.propose(1); // PBS 80%
        let a_lo = strat.propose(2); // PBS 20%
        assert!(
            a_hi > a_lo,
            "80% target should need larger A: {a_hi} vs {a_lo}"
        );
        let pf_hi = world_pf(a_hi, f);
        let pf_lo = world_pf(a_lo, f);
        assert!((pf_hi - 0.8).abs() < 0.3, "PBS 80%: true Pf {pf_hi}");
        assert!((pf_lo - 0.2).abs() < 0.3, "PBS 20%: true Pf {pf_lo}");
    }

    #[test]
    fn later_trials_use_ofs_with_fed_history() {
        let sur = trained_surrogate();
        let domain = ((-3.0f64).exp(), (3.0f64).exp());
        let f = 0.0;
        let mut strat = ComposedStrategy::new(&sur, vec![f], domain, 32, 4);
        // Simulate the harness loop for the three offline trials.
        for t in 0..3 {
            let a = strat.propose(t);
            let outcome = SolverObservation {
                a,
                pf: world_pf(a, f),
                e_avg: 10.0,
                e_std: 1.0,
                best_fitness: Some(10.0),
                min_energy: 9.0,
            };
            strat.observe(a, &outcome);
        }
        // OFS proposals should stay within the domain and near the slope.
        for t in 3..10 {
            let a = strat.propose(t);
            assert!((domain.0..=domain.1).contains(&a));
            let outcome = SolverObservation {
                a,
                pf: world_pf(a, f),
                e_avg: 10.0,
                e_std: 1.0,
                best_fitness: Some(10.0),
                min_energy: 9.0,
            };
            strat.observe(a, &outcome);
        }
        // After 10 observations the sigmoid fit should localise the
        // midpoint (ln A = 0 → A = 1).
        let hist = strat.ofs.history();
        assert_eq!(hist.len(), 10);
    }

    #[test]
    fn proposals_respect_domain_clamp() {
        let sur = trained_surrogate();
        // Narrow domain far from where MFS would want to go.
        let domain = (0.9, 1.1);
        let mut strat = ComposedStrategy::new(&sur, vec![0.0], domain, 32, 5);
        for t in 0..6 {
            let a = strat.propose(t);
            assert!((0.9..=1.1).contains(&a), "trial {t}: A={a}");
            strat.observe(
                a,
                &SolverObservation {
                    a,
                    pf: 0.5,
                    e_avg: 1.0,
                    e_std: 0.1,
                    best_fitness: None,
                    min_energy: 0.0,
                },
            );
        }
    }
}
