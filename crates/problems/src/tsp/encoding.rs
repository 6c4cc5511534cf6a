//! The n²-variable permutation QUBO encoding of the TSP (paper §4.1).
//!
//! Following Lucas (2014), an `n`-city instance uses indicator variables
//! `x_{v,j}` — city `v` is visited at tour position `j` — flattened as
//! `index = v·n + j`. The relaxed objective is `HB(x) + A·HA(x)` with
//!
//! * `HB = Σ_{u≠v} d_uv Σ_j x_{u,j} · x_{v,(j+1) mod n}` — total tour
//!   length (eq. 5);
//! * `HA = Σ_v (1 − Σ_j x_{v,j})² + Σ_j (1 − Σ_v x_{v,j})²` — the
//!   permutation constraints (eq. 6), expressed here as the
//!   [`qubo::ConstrainedBinaryProgram`] penalty.
//!
//! Fitness of a feasible assignment is the tour length under the
//! **original** distance matrix even when the QUBO was built from a
//! preprocessed one (appendix E: pre-processing changes the search
//! landscape, post-processing restores original units).

use qubo::{ConstrainedBinaryProgram, LinearConstraint, QuboBuilder, QuboModel};
use serde::{Deserialize, Serialize};

use super::preprocess::{normalize_mean_distance, Mvodm};
use super::TspInstance;
use crate::RelaxableProblem;

/// TSP → QUBO encoder and decoder.
///
/// # Examples
///
/// ```
/// use problems::{TspEncoding, TspInstance, RelaxableProblem};
/// let inst = TspInstance::from_coords("tri", &[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
/// let enc = TspEncoding::new(inst);
/// assert_eq!(enc.num_vars(), 9);
/// let x = enc.encode_tour(&[0, 1, 2]);
/// assert!(enc.is_feasible(&x));
/// let fitness = enc.fitness(&x).unwrap();
/// assert!((fitness - (2.0 + 2.0_f64.sqrt())).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TspEncoding {
    /// instance whose distances build `HB`
    qubo_instance: TspInstance,
    /// instance whose distances score fitness (the untouched original)
    fitness_instance: TspInstance,
    /// cached penalty program over the `qubo_instance`
    program: ConstrainedBinaryProgram,
    /// multiplicative factor applied to the original distances when the
    /// encoding was built with normalisation (1.0 otherwise)
    scale: f64,
}

impl TspEncoding {
    /// Encodes `instance` as-is (no pre-processing).
    pub fn new(instance: TspInstance) -> Self {
        let program = build_program(&instance);
        TspEncoding {
            qubo_instance: instance.clone(),
            fitness_instance: instance,
            program,
            scale: 1.0,
        }
    }

    /// Encodes `instance` with the paper's pre-processing pipeline
    /// (§3.3 + appendix E): scale distances so the mean is 1 — putting the
    /// relaxation parameter of every instance on the same order of
    /// magnitude — then apply MVODM variance reduction. Fitness is still
    /// scored on the original instance.
    pub fn preprocessed(instance: TspInstance) -> Self {
        let (normalized, scale) = normalize_mean_distance(&instance);
        let flattened = Mvodm::fit(&normalized).transform(&normalized);
        let program = build_program(&flattened);
        TspEncoding {
            qubo_instance: flattened,
            fitness_instance: instance,
            program,
            scale,
        }
    }

    /// The instance used to build the QUBO objective.
    pub fn qubo_instance(&self) -> &TspInstance {
        &self.qubo_instance
    }

    /// The instance used for fitness scoring (original units).
    pub fn fitness_instance(&self) -> &TspInstance {
        &self.fitness_instance
    }

    /// Scale factor from original to QUBO distances.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.qubo_instance.num_cities()
    }

    /// Encodes a tour (`tour[j]` = city at position `j`) into a binary
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if `tour` is not a permutation of `0..n`.
    pub fn encode_tour(&self, tour: &[usize]) -> Vec<u8> {
        let n = self.num_cities();
        assert!(super::is_permutation(tour, n), "tour must be a permutation");
        let mut x = vec![0u8; n * n];
        for (j, &v) in tour.iter().enumerate() {
            x[v * n + j] = 1;
        }
        x
    }

    /// Decodes an assignment into a tour, or `None` if the assignment is
    /// not a valid permutation matrix.
    pub fn decode_tour(&self, x: &[u8]) -> Option<Vec<usize>> {
        let n = self.num_cities();
        if x.len() != n * n {
            return None;
        }
        let mut tour = vec![usize::MAX; n];
        let mut city_used = vec![false; n];
        for j in 0..n {
            let mut city = None;
            for v in 0..n {
                if x[v * n + j] != 0 {
                    if city.is_some() {
                        return None; // two cities at one position
                    }
                    city = Some(v);
                }
            }
            let v = city?;
            if city_used[v] {
                return None; // city appears twice
            }
            city_used[v] = true;
            tour[j] = v;
        }
        Some(tour)
    }

    /// The constraint penalty `HA(x)` of an assignment.
    pub fn constraint_penalty(&self, x: &[u8]) -> f64 {
        self.program.penalty_value(x)
    }
}

fn build_program(instance: &TspInstance) -> ConstrainedBinaryProgram {
    let n = instance.num_cities();
    let mut hb = QuboBuilder::new(n * n);
    // HB: for every ordered pair (u, v), u != v, and every position j:
    // d_uv · x_{u,j} · x_{v,(j+1) mod n}.
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let d = instance.distance(u, v);
            if d == 0.0 {
                continue;
            }
            for j in 0..n {
                let jn = (j + 1) % n;
                hb.add_quadratic(u * n + j, v * n + jn, d);
            }
        }
    }
    let mut program = ConstrainedBinaryProgram::new(hb.build());
    // Row constraints: every city occupies exactly one position.
    for v in 0..n {
        program.add_constraint(LinearConstraint::one_hot((0..n).map(|j| v * n + j)));
    }
    // Column constraints: every position hosts exactly one city.
    for j in 0..n {
        program.add_constraint(LinearConstraint::one_hot((0..n).map(|v| v * n + j)));
    }
    program
}

impl RelaxableProblem for TspEncoding {
    fn name(&self) -> &str {
        self.fitness_instance.name()
    }

    fn num_vars(&self) -> usize {
        let n = self.num_cities();
        n * n
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        self.program.to_qubo(relaxation)
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        self.decode_tour(x).is_some()
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        self.decode_tour(x)
            .map(|tour| self.fitness_instance.tour_length(&tour))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> TspEncoding {
        TspEncoding::new(TspInstance::from_coords(
            "tri",
            &[(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)],
        ))
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = tri();
        for tour in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let x = enc.encode_tour(&tour);
            assert_eq!(enc.decode_tour(&x).unwrap(), tour.to_vec());
        }
    }

    #[test]
    fn feasible_assignment_has_zero_penalty_and_hb_equals_length() {
        let enc = tri();
        let tour = [0usize, 2, 1];
        let x = enc.encode_tour(&tour);
        assert_eq!(enc.constraint_penalty(&x), 0.0);
        let q = enc.to_qubo(7.0);
        let length = enc.fitness_instance().tour_length(&tour);
        assert!((q.energy(&x) - length).abs() < 1e-9);
        assert_eq!(enc.fitness(&x).unwrap(), length);
    }

    #[test]
    fn infeasible_assignments_detected() {
        let enc = tri();
        let n = 3;
        // flat index of "city v at position j"
        let at = |v: usize, j: usize| v * n + j;
        // empty assignment
        assert!(!enc.is_feasible(&vec![0u8; n * n]));
        // duplicate city in two positions
        let mut x = vec![0u8; n * n];
        x[at(0, 0)] = 1;
        x[at(0, 1)] = 1;
        x[at(1, 2)] = 1;
        assert!(!enc.is_feasible(&x));
        assert!(enc.fitness(&x).is_none());
        // two cities in one position
        let mut y = vec![0u8; n * n];
        y[at(0, 0)] = 1;
        y[at(1, 0)] = 1;
        y[at(2, 1)] = 1;
        assert!(!enc.is_feasible(&y));
    }

    #[test]
    fn penalty_positive_for_infeasible() {
        let enc = tri();
        let x = vec![0u8; 9];
        // all constraints violated by 1 → penalty = 6
        assert_eq!(enc.constraint_penalty(&x), 6.0);
        let q0 = enc.to_qubo(1.0);
        let q1 = enc.to_qubo(2.0);
        assert!(q1.energy(&x) > q0.energy(&x));
    }

    #[test]
    fn qubo_energy_identity_feasible_vs_infeasible() {
        let enc = tri();
        let a = 5.0;
        let q = enc.to_qubo(a);
        // For any assignment: E = HB + A * HA.
        let mut x = vec![0u8; 9];
        x[3] = 1; // city 1 alone at position 0, infeasible
        let hb = enc.to_qubo(0.0).energy(&x);
        let ha = enc.constraint_penalty(&x);
        assert!((q.energy(&x) - (hb + a * ha)).abs() < 1e-9);
    }

    #[test]
    fn preprocessed_fitness_in_original_units() {
        let inst =
            TspInstance::from_coords("rect", &[(0.0, 0.0), (10.0, 0.0), (10.0, 3.0), (0.0, 3.0)]);
        let plain = TspEncoding::new(inst.clone());
        let pre = TspEncoding::preprocessed(inst);
        let tour = [0usize, 1, 2, 3];
        let x = pre.encode_tour(&tour);
        // Fitness identical in original units regardless of preprocessing.
        assert!((pre.fitness(&x).unwrap() - plain.fitness(&x).unwrap()).abs() < 1e-9);
        // But the QUBO objective differs (scaled + MVODM-flattened).
        let qx = pre.to_qubo(0.0).energy(&x);
        let px = plain.to_qubo(0.0).energy(&x);
        assert!((qx - px).abs() > 1e-9);
    }

    #[test]
    fn preprocessed_preserves_tour_ranking() {
        let inst = TspInstance::from_coords(
            "five",
            &[(0.0, 0.0), (4.0, 0.1), (5.0, 3.0), (1.0, 4.0), (-2.0, 2.0)],
        );
        let pre = TspEncoding::preprocessed(inst.clone());
        // MVODM + scaling is tour-ranking-preserving: compare HB energies of
        // all tours pairwise against original lengths.
        let tours = [
            vec![0usize, 1, 2, 3, 4],
            vec![0, 2, 1, 3, 4],
            vec![0, 3, 1, 2, 4],
            vec![0, 1, 3, 2, 4],
        ];
        let obj = pre.to_qubo(0.0);
        for a in &tours {
            for b in &tours {
                let la = inst.tour_length(a);
                let lb = inst.tour_length(b);
                let ea = obj.energy(&pre.encode_tour(a));
                let eb = obj.energy(&pre.encode_tour(b));
                if la < lb - 1e-9 {
                    assert!(ea < eb + 1e-9, "ranking broken: {la} {lb} vs {ea} {eb}");
                }
            }
        }
    }

    #[test]
    fn num_vars_quadratic() {
        let enc = tri();
        assert_eq!(enc.num_vars(), 9);
        assert_eq!(enc.to_qubo(1.0).num_vars(), 9);
    }

    #[test]
    fn decode_wrong_length_is_none() {
        let enc = tri();
        assert!(enc.decode_tour(&[0, 1]).is_none());
    }
}
