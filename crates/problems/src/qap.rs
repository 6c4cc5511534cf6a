//! Quadratic Assignment Problem.
//!
//! The paper verifies its core hypothesis ("optimal solutions appear on the
//! sigmoid slope, 0 < Pf < 1") on QAPLIB instances solved with SA (§3.1
//! fn. 2); this module provides the QAP substrate for that check. Given an
//! `n×n` flow matrix `F` and distance matrix `D`, assign facilities to
//! locations (a permutation `p`) minimising `Σ_{a,b} F_ab · D_{p(a) p(b)}`.
//!
//! The QUBO encoding mirrors the TSP's permutation structure: indicator
//! `x_{f,l}` (facility `f` at location `l`, flat index `f·n + l`) with
//! objective `Σ_{f≠g, l≠m} F_fg D_lm x_{f,l} x_{g,m}` and one-hot row and
//! column constraints relaxed with parameter `A`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mathkit::rng::derive_rng;
use mathkit::Matrix;
use qubo::{ConstrainedBinaryProgram, LinearConstraint, QuboBuilder, QuboModel};

use crate::RelaxableProblem;

/// A QAP instance and its QUBO encoding.
///
/// # Examples
///
/// ```
/// use problems::{QapInstance, RelaxableProblem};
/// let inst = QapInstance::random("q", 4, 42);
/// // facility f at location p[f] for p = [2, 0, 3, 1]: bit f·4 + p[f]
/// let mut x = vec![0u8; 16];
/// for (f, l) in [2, 0, 3, 1].into_iter().enumerate() {
///     x[f * 4 + l] = 1;
/// }
/// assert!(inst.is_feasible(&x));
/// assert!(inst.fitness(&x).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QapInstance {
    name: String,
    flow: Matrix,
    dist: Matrix,
    program: ConstrainedBinaryProgram,
}

impl QapInstance {
    /// Creates an instance from flow and distance matrices.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ProblemError::InvalidInstance`] when the matrices
    /// are not square, differ in size, or contain non-finite entries.
    pub fn new(name: &str, flow: Matrix, dist: Matrix) -> Result<Self, crate::ProblemError> {
        let (fr, fc) = flow.shape();
        let (dr, dc) = dist.shape();
        if fr != fc || dr != dc || fr != dr {
            return Err(crate::ProblemError::InvalidInstance {
                message: format!("flow {fr}x{fc} and distance {dr}x{dc} must be equal squares"),
            });
        }
        if flow.has_non_finite() || dist.has_non_finite() {
            return Err(crate::ProblemError::InvalidInstance {
                message: "non-finite matrix entry".to_string(),
            });
        }
        let program = build_program(&flow, &dist);
        Ok(QapInstance {
            name: name.to_string(),
            flow,
            dist,
            program,
        })
    }

    /// Random instance with integer-valued flows and distances in
    /// `[0, 10)` (QAPLIB-style magnitudes), symmetric with zero diagonal.
    pub fn random(name: &str, n: usize, seed: u64) -> Self {
        let mut rng = derive_rng(seed, 0x9A9);
        let mut flow = Matrix::zeros(n, n);
        let mut dist = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let f = rng.gen_range(0..10) as f64;
                let d = rng.gen_range(1..10) as f64;
                flow[(i, j)] = f;
                flow[(j, i)] = f;
                dist[(i, j)] = d;
                dist[(j, i)] = d;
            }
        }
        Self::new(name, flow, dist).expect("constructed matrices are valid")
    }

    /// Problem size (facilities = locations = `n`).
    pub fn size(&self) -> usize {
        self.flow.rows()
    }

    /// Flow matrix.
    pub fn flow(&self) -> &Matrix {
        &self.flow
    }

    /// Distance matrix.
    pub fn dist(&self) -> &Matrix {
        &self.dist
    }

    /// Objective of a permutation `assignment[f] = location of facility f`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is not a permutation of `0..n`.
    pub fn assignment_cost(&self, assignment: &[usize]) -> f64 {
        let n = self.size();
        assert!(
            crate::tsp::is_permutation(assignment, n),
            "assignment must be a permutation"
        );
        let mut acc = 0.0;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    acc += self.flow[(a, b)] * self.dist[(assignment[a], assignment[b])];
                }
            }
        }
        acc
    }

    /// Decodes an assignment, or `None` if it is not a permutation matrix.
    pub fn decode_assignment(&self, x: &[u8]) -> Option<Vec<usize>> {
        let n = self.size();
        if x.len() != n * n {
            return None;
        }
        let mut assignment = vec![usize::MAX; n];
        let mut used = vec![false; n];
        for f in 0..n {
            let mut loc = None;
            for l in 0..n {
                if x[f * n + l] != 0 {
                    if loc.is_some() {
                        return None;
                    }
                    loc = Some(l);
                }
            }
            let l = loc?;
            if used[l] {
                return None;
            }
            used[l] = true;
            assignment[f] = l;
        }
        Some(assignment)
    }
}

fn build_program(flow: &Matrix, dist: &Matrix) -> ConstrainedBinaryProgram {
    let n = flow.rows();
    let mut obj = QuboBuilder::new(n * n);
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let f = flow[(a, b)];
            if f == 0.0 {
                continue;
            }
            for l in 0..n {
                for m in 0..n {
                    if l == m {
                        continue;
                    }
                    let w = f * dist[(l, m)];
                    if w != 0.0 {
                        obj.add_quadratic(a * n + l, b * n + m, w / 2.0);
                        // halved because (a,b) and (b,a) each contribute;
                        // the symmetric pair restores the full weight
                        obj.add_quadratic(b * n + m, a * n + l, w / 2.0);
                    }
                }
            }
        }
    }
    let mut program = ConstrainedBinaryProgram::new(obj.build());
    for f in 0..n {
        program.add_constraint(LinearConstraint::one_hot((0..n).map(|l| f * n + l)));
    }
    for l in 0..n {
        program.add_constraint(LinearConstraint::one_hot((0..n).map(|f| f * n + l)));
    }
    program
}

impl RelaxableProblem for QapInstance {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_vars(&self) -> usize {
        let n = self.size();
        n * n
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        self.program.to_qubo(relaxation)
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        self.decode_assignment(x).is_some()
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        self.decode_assignment(x).map(|a| self.assignment_cost(&a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QapInstance {
        // 3 facilities; hand-checkable numbers.
        let flow = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[2.0, 0.0, 3.0], &[1.0, 3.0, 0.0]]);
        let dist = Matrix::from_rows(&[&[0.0, 5.0, 4.0], &[5.0, 0.0, 1.0], &[4.0, 1.0, 0.0]]);
        QapInstance::new("tiny", flow, dist).unwrap()
    }

    /// The indicator vector of a permutation: bit `f·n + p[f]` is set.
    fn encode(p: &[usize]) -> Vec<u8> {
        let n = p.len();
        let mut x = vec![0u8; n * n];
        for (f, &l) in p.iter().enumerate() {
            x[f * n + l] = 1;
        }
        x
    }

    #[test]
    fn assignment_cost_identity_permutation() {
        let q = tiny();
        // identity: cost = Σ f_ab d_ab = 2*(2*5 + 1*4 + 3*1) = 34
        assert_eq!(q.assignment_cost(&[0, 1, 2]), 34.0);
    }

    #[test]
    fn qubo_energy_equals_cost_on_feasible() {
        let q = tiny();
        let a = 50.0;
        let model = q.to_qubo(a);
        let perms = [[0usize, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0], [1, 2, 0]];
        for p in &perms {
            let x = encode(p);
            assert!(
                (model.energy(&x) - q.assignment_cost(p)).abs() < 1e-9,
                "perm {p:?}"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let q = tiny();
        for p in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let x = encode(&p);
            assert_eq!(q.decode_assignment(&x).unwrap(), p.to_vec());
            assert!(q.is_feasible(&x));
            assert!(q.fitness(&x).is_some());
        }
    }

    #[test]
    fn infeasible_detection() {
        let q = tiny();
        let mut x = vec![0u8; 9];
        assert!(!q.is_feasible(&x));
        x[0] = 1;
        x[1] = 1; // facility 0 in two locations
        x[5] = 1;
        assert!(!q.is_feasible(&x));
        assert!(q.fitness(&x).is_none());
    }

    #[test]
    fn qubo_global_minimum_is_best_permutation() {
        let q = tiny();
        let model = q.to_qubo(100.0);
        // Exhaustive over all 2^9 assignments.
        let mut best_e = f64::INFINITY;
        let mut best_bits = 0u16;
        for bits in 0..512u16 {
            let x: Vec<u8> = (0..9).map(|k| ((bits >> k) & 1) as u8).collect();
            let e = model.energy(&x);
            if e < best_e {
                best_e = e;
                best_bits = bits;
            }
        }
        let best_x: Vec<u8> = (0..9).map(|k| ((best_bits >> k) & 1) as u8).collect();
        let decoded = q.decode_assignment(&best_x).expect("minimum is feasible");
        // Brute-force the best permutation.
        let mut best_cost = f64::INFINITY;
        let mut best_perm = vec![0, 1, 2];
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in &perms {
            let c = q.assignment_cost(p);
            if c < best_cost {
                best_cost = c;
                best_perm = p.to_vec();
            }
        }
        assert_eq!(q.assignment_cost(&decoded), best_cost, "perm {best_perm:?}");
        assert!((best_e - best_cost).abs() < 1e-9);
    }

    #[test]
    fn random_is_deterministic_and_valid() {
        let a = QapInstance::random("r", 5, 3);
        let b = QapInstance::random("r", 5, 3);
        assert_eq!(a, b);
        assert_eq!(a.size(), 5);
        for i in 0..5 {
            assert_eq!(a.flow()[(i, i)], 0.0);
            assert_eq!(a.dist()[(i, i)], 0.0);
        }
    }

    #[test]
    fn validation() {
        let ok = Matrix::zeros(3, 3);
        assert!(QapInstance::new("m", Matrix::zeros(2, 3), ok.clone()).is_err());
        assert!(QapInstance::new("m", Matrix::zeros(2, 2), ok.clone()).is_err());
        let mut nan = Matrix::zeros(3, 3);
        nan[(0, 1)] = f64::NAN;
        assert!(QapInstance::new("m", nan, ok).is_err());
    }
}
