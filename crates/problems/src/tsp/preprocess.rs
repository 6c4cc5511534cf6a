//! Distance-matrix pre-processing (paper §3.3 and appendix E).
//!
//! Two transformations are applied before building the QUBO:
//!
//! 1. **Scaling** ([`normalize_mean_distance`]): divides all distances by
//!    the mean off-diagonal distance, so the relaxation parameter `A` of
//!    every instance lives on the same order of magnitude — "shifting or
//!    scaling moves A of different problems to the same order of magnitude
//!    so that learning and prediction become easier".
//!
//! 2. **MVODM** ([`Mvodm`]): *Minimizing the Variance Of the Distance
//!    Matrix* (Wang, Rao & Hong 2018). Following Held–Karp, replacing
//!    `d'_ij = d_ij − π_i − π_j` changes every tour's length by the same
//!    constant `−2·Σ π_i`, so the optimal tour is unchanged, while choosing
//!    `π` to minimise the variance of the transformed matrix flattens the
//!    landscape for greedy-style search. The optimal `π` solves the
//!    two-way additive-effects least-squares problem
//!    `d_ij ≈ μ + π_i + π_j`, fitted here by coordinate descent.

use serde::{Deserialize, Serialize};

use mathkit::Matrix;

use super::TspInstance;

/// Scales an instance so its mean off-diagonal distance is 1.
///
/// Returns the scaled instance and the factor `f` applied (so original
/// distances are `scaled / f`). A degenerate all-zero instance is returned
/// unchanged with factor 1.
pub fn normalize_mean_distance(instance: &TspInstance) -> (TspInstance, f64) {
    let mean = instance.mean_distance();
    if mean <= 0.0 {
        return (instance.clone(), 1.0);
    }
    let factor = 1.0 / mean;
    (instance.scaled(factor), factor)
}

/// Fitted MVODM potentials.
///
/// # Examples
///
/// ```
/// use problems::tsp::preprocess::Mvodm;
/// use problems::TspInstance;
/// let inst = TspInstance::from_coords("t", &[(0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (3.0, 1.0)]);
/// let mv = Mvodm::fit(&inst);
/// let flat = mv.transform(&inst);
/// // Every tour shifts by the same constant: optimal tour preserved.
/// let (a, b) = ([0, 2, 1, 3], [0, 1, 2, 3]);
/// let gap = |m: &TspInstance| m.tour_length(&a) - m.tour_length(&b);
/// assert!((gap(&flat) - gap(&inst)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mvodm {
    potentials: Vec<f64>,
}

impl Mvodm {
    /// Fits the variance-minimising potentials by coordinate descent on
    /// the least-squares objective `Σ_{i≠j} (d_ij − μ − π_i − π_j)²`.
    pub fn fit(instance: &TspInstance) -> Self {
        let n = instance.num_cities();
        if n < 3 {
            return Mvodm {
                potentials: vec![0.0; n],
            };
        }
        let d = instance.matrix();
        let mut pi = vec![0.0_f64; n];
        let denom = (n - 1) as f64;
        for _sweep in 0..200 {
            // μ given π.
            let mut mu = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        mu += d[(i, j)] - pi[i] - pi[j];
                    }
                }
            }
            mu /= (n * (n - 1)) as f64;
            // π_i given μ and the other π (Gauss–Seidel update).
            let mut max_change = 0.0_f64;
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    if j != i {
                        acc += d[(i, j)] - mu - pi[j];
                    }
                }
                let new = acc / denom;
                max_change = max_change.max((new - pi[i]).abs());
                pi[i] = new;
            }
            if max_change < 1e-12 {
                break;
            }
        }
        Mvodm { potentials: pi }
    }

    /// Applies `d'_ij = d_ij − π_i − π_j` (diagonal left at zero).
    ///
    /// # Panics
    ///
    /// Panics if the instance size differs from the fitted size.
    pub fn transform(&self, instance: &TspInstance) -> TspInstance {
        let n = instance.num_cities();
        assert_eq!(
            n,
            self.potentials.len(),
            "MVODM fitted on a different instance size"
        );
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    out[(i, j)] = instance.distance(i, j) - self.potentials[i] - self.potentials[j];
                }
            }
        }
        TspInstance::from_matrix(&format!("{}_mvodm", instance.name()), out)
            .expect("MVODM transform preserves symmetry")
    }
}

/// Off-diagonal variance of a distance matrix — the quantity MVODM
/// minimises; exposed for tests and diagnostics.
pub fn off_diagonal_variance(instance: &TspInstance) -> f64 {
    let n = instance.num_cities();
    if n < 2 {
        return 0.0;
    }
    let mut values = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                values.push(instance.distance(i, j));
            }
        }
    }
    mathkit::stats::variance_population(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::rng::seeded_rng;
    use rand::Rng;

    fn random_instance(n: usize, seed: u64) -> TspInstance {
        let mut rng = seeded_rng(seed);
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
            .collect();
        TspInstance::from_coords("rand", &coords)
    }

    #[test]
    fn normalization_sets_mean_to_one() {
        let inst = random_instance(12, 3);
        let (norm, factor) = normalize_mean_distance(&inst);
        assert!((norm.mean_distance() - 1.0).abs() < 1e-9);
        assert!((factor * inst.mean_distance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_degenerate_instance() {
        let inst = TspInstance::from_coords("same", &[(1.0, 1.0), (1.0, 1.0)]);
        let (norm, factor) = normalize_mean_distance(&inst);
        assert_eq!(factor, 1.0);
        assert_eq!(norm, inst);
    }

    #[test]
    fn mvodm_reduces_variance() {
        for seed in 0..5 {
            let inst = random_instance(15, seed);
            let before = off_diagonal_variance(&inst);
            let flat = Mvodm::fit(&inst).transform(&inst);
            let after = off_diagonal_variance(&flat);
            assert!(
                after <= before + 1e-9,
                "seed {seed}: variance rose {before} -> {after}"
            );
            // On generic Euclidean instances the reduction is strict.
            assert!(after < before, "seed {seed}: no strict reduction");
        }
    }

    #[test]
    fn mvodm_shifts_every_tour_by_same_constant() {
        let inst = random_instance(8, 7);
        let mv = Mvodm::fit(&inst);
        let flat = mv.transform(&inst);
        let shift = 2.0 * mv.potentials.iter().sum::<f64>();
        let tours = [
            vec![0usize, 1, 2, 3, 4, 5, 6, 7],
            vec![3, 1, 4, 0, 7, 5, 2, 6],
            vec![7, 6, 5, 4, 3, 2, 1, 0],
        ];
        for t in &tours {
            let orig = inst.tour_length(t);
            let new = flat.tour_length(t);
            assert!((orig - new - shift).abs() < 1e-9, "tour {t:?}");
        }
    }

    #[test]
    fn mvodm_preserves_optimal_tour_exhaustively() {
        // 6 cities: enumerate all tours and confirm the argmin is fixed.
        let inst = random_instance(6, 11);
        let flat = Mvodm::fit(&inst).transform(&inst);
        let mut best_orig = (f64::INFINITY, Vec::new());
        let mut best_flat = (f64::INFINITY, Vec::new());
        let mut perm = vec![0usize, 1, 2, 3, 4, 5];
        // Heap's algorithm over the 5! permutations fixing city 0 first.
        fn visit(
            k: usize,
            perm: &mut Vec<usize>,
            inst: &TspInstance,
            flat: &TspInstance,
            best_orig: &mut (f64, Vec<usize>),
            best_flat: &mut (f64, Vec<usize>),
        ) {
            if k == 1 {
                let lo = inst.tour_length(perm);
                if lo < best_orig.0 {
                    *best_orig = (lo, perm.clone());
                }
                let lf = flat.tour_length(perm);
                if lf < best_flat.0 {
                    *best_flat = (lf, perm.clone());
                }
                return;
            }
            for i in 1..k {
                visit(k - 1, perm, inst, flat, best_orig, best_flat);
                if k.is_multiple_of(2) {
                    perm.swap(i, k - 1);
                } else {
                    perm.swap(1, k - 1);
                }
            }
            visit(k - 1, perm, inst, flat, best_orig, best_flat);
        }
        visit(6, &mut perm, &inst, &flat, &mut best_orig, &mut best_flat);
        // Same optimal tour up to rotation/reflection: compare canonical
        // tour length instead of the permutation itself.
        assert!((inst.tour_length(&best_flat.1) - best_orig.0).abs() < 1e-9);
    }

    #[test]
    fn mvodm_tiny_instances_are_noops() {
        let two = TspInstance::from_coords("two", &[(0.0, 0.0), (1.0, 0.0)]);
        let mv = Mvodm::fit(&two);
        assert_eq!(mv.potentials, [0.0, 0.0]);
        assert_eq!(mv.transform(&two).matrix(), two.matrix());
    }

    #[test]
    #[should_panic(expected = "different instance size")]
    fn mvodm_size_mismatch_panics() {
        let a = random_instance(5, 1);
        let b = random_instance(6, 2);
        let _ = Mvodm::fit(&a).transform(&b);
    }
}
