//! Batch results returned by QUBO solvers.
//!
//! Heuristic QUBO solvers are stochastic and "usually return a batch of
//! solutions and corresponding objective energy" (paper §3.3). The solver
//! surrogate is trained on exactly three statistics of such batches — the
//! probability of feasibility `Pf` (eq. 1), the mean energy `Eavg` and the
//! standard deviation `Estd` — all of which [`SampleSet`] computes.

use serde::{Deserialize, Serialize};

use mathkit::stats;

/// One solver solution: an assignment and its energy on the *true* model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// binary assignment (entries are 0 or 1)
    pub assignment: Vec<u8>,
    /// energy of [`Sample::assignment`] on the unperturbed input model
    pub energy: f64,
}

/// A batch of solver solutions, kept sorted by ascending energy.
///
/// # Examples
///
/// ```
/// use solvers::{Sample, SampleSet};
/// let set = SampleSet::from_samples(vec![
///     Sample { assignment: vec![1, 0], energy: 3.0 },
///     Sample { assignment: vec![0, 1], energy: 1.0 },
/// ]);
/// assert_eq!(set.best().unwrap().energy, 1.0);
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<Sample>,
}

impl SampleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
        }
    }

    /// Builds a set from samples, sorting by ascending energy.
    pub fn from_samples(mut samples: Vec<Sample>) -> Self {
        samples.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        SampleSet { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Lowest-energy sample, if any.
    pub fn best(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// All samples in ascending-energy order.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Energies in ascending order.
    pub fn energies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.energy).collect()
    }

    /// Batch mean energy (`Eavg` in the paper); `0.0` for an empty batch.
    pub fn mean_energy(&self) -> f64 {
        stats::mean(&self.energies())
    }

    /// Batch energy standard deviation (`Estd`, population convention);
    /// `0.0` for an empty batch.
    pub fn std_energy(&self) -> f64 {
        stats::std_population(&self.energies())
    }

    /// Fraction of samples satisfying `is_feasible` — the paper's `Pf`
    /// estimator (eq. 1). Returns `0.0` for an empty batch.
    pub fn feasibility_fraction<F: Fn(&[u8]) -> bool>(&self, is_feasible: F) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let feasible = self
            .samples
            .iter()
            .filter(|s| is_feasible(&s.assignment))
            .count();
        feasible as f64 / self.samples.len() as f64
    }

    /// Lowest energy among samples satisfying `is_feasible` (the paper's
    /// *fitness* of a trial), or `None` when no sample is feasible.
    pub fn best_feasible<F: Fn(&[u8]) -> bool>(&self, is_feasible: F) -> Option<&Sample> {
        self.samples.iter().find(|s| is_feasible(&s.assignment))
    }

    /// Consumes the set and returns the sorted samples.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

impl IntoIterator for SampleSet {
    type Item = Sample;
    type IntoIter = std::vec::IntoIter<Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.into_iter()
    }
}

impl<'a> IntoIterator for &'a SampleSet {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

impl FromIterator<Sample> for SampleSet {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        SampleSet::from_samples(iter.into_iter().collect())
    }
}

impl Extend<Sample> for SampleSet {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        self.samples.extend(iter);
        self.samples.sort_by(|a, b| {
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set3() -> SampleSet {
        SampleSet::from_samples(vec![
            Sample {
                assignment: vec![1, 1],
                energy: 5.0,
            },
            Sample {
                assignment: vec![0, 1],
                energy: -1.0,
            },
            Sample {
                assignment: vec![1, 0],
                energy: 2.0,
            },
        ])
    }

    #[test]
    fn sorted_by_energy() {
        let s = set3();
        let e = s.energies();
        assert_eq!(e, vec![-1.0, 2.0, 5.0]);
        assert_eq!(s.best().unwrap().assignment, vec![0, 1]);
    }

    #[test]
    fn statistics() {
        let s = set3();
        assert!((s.mean_energy() - 2.0).abs() < 1e-12);
        let expect_std = ((9.0 + 0.0 + 9.0) / 3.0_f64).sqrt();
        assert!((s.std_energy() - expect_std).abs() < 1e-12);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = SampleSet::new();
        assert!(s.is_empty());
        assert!(s.best().is_none());
        assert_eq!(s.mean_energy(), 0.0);
        assert_eq!(s.feasibility_fraction(|_| true), 0.0);
        assert!(s.best_feasible(|_| true).is_none());
    }

    #[test]
    fn feasibility_fraction_counts() {
        let s = set3();
        // "feasible" = first bit is 0
        let pf = s.feasibility_fraction(|x| x[0] == 0);
        assert!((pf - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.feasibility_fraction(|_| true), 1.0);
        assert_eq!(s.feasibility_fraction(|_| false), 0.0);
    }

    #[test]
    fn best_feasible_respects_order() {
        let s = set3();
        // Feasible = energy >= 0 here (first bit 1): best is energy 2.0.
        let best = s.best_feasible(|x| x[0] == 1).unwrap();
        assert_eq!(best.energy, 2.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: SampleSet = (0..3)
            .map(|i| Sample {
                assignment: vec![i as u8 % 2],
                energy: -(i as f64),
            })
            .collect();
        assert_eq!(s.best().unwrap().energy, -2.0);
        s.extend([Sample {
            assignment: vec![1],
            energy: -5.0,
        }]);
        assert_eq!(s.best().unwrap().energy, -5.0);
    }

    #[test]
    fn serde_roundtrip() {
        let s = set3();
        let j = serde_json::to_string(&s).unwrap();
        let back: SampleSet = serde_json::from_str(&j).unwrap();
        assert_eq!(s, back);
    }
}
