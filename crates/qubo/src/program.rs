//! Linear-equality-constrained binary programs and their penalty relaxation.
//!
//! The paper's canonical form (§1) is
//!
//! `min x'Qx  subject to  Cx = d,  x ∈ {0,1}^n`
//!
//! relaxed to the QUBO `min x'Qx + A·‖Cx − d‖²`. Expanding one constraint
//! `(Σ_k c_k x_k − d)²` over binaries gives
//!
//! `Σ_k (c_k² − 2·d·c_k) x_k + 2·Σ_{k<l} c_k c_l x_k x_l + d²`,
//!
//! which [`ConstrainedBinaryProgram::to_qubo`] adds to the objective with
//! weight `A`.

use serde::{Deserialize, Serialize};

use crate::model::{QuboBuilder, QuboModel};
use crate::QuboError;

/// One linear equality constraint `Σ_k coeffs[k].1 · x_{coeffs[k].0} = rhs`.
///
/// # Examples
///
/// ```
/// use qubo::LinearConstraint;
/// // x0 + x1 + x2 = 1 (one-hot)
/// let c = LinearConstraint::new(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0);
/// assert_eq!(c.violation(&[0, 1, 0]), 0.0);
/// assert_eq!(c.violation(&[1, 1, 0]), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearConstraint {
    coeffs: Vec<(usize, f64)>,
    rhs: f64,
}

impl LinearConstraint {
    /// Creates a constraint from sparse coefficients and a right-hand side.
    pub fn new(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        LinearConstraint { coeffs, rhs }
    }

    /// Convenience constructor for the ubiquitous one-hot constraint
    /// `Σ_{i ∈ vars} x_i = 1`.
    pub fn one_hot<I: IntoIterator<Item = usize>>(vars: I) -> Self {
        LinearConstraint {
            coeffs: vars.into_iter().map(|v| (v, 1.0)).collect(),
            rhs: 1.0,
        }
    }

    /// Sparse coefficient view.
    pub fn coeffs(&self) -> &[(usize, f64)] {
        &self.coeffs
    }

    /// Right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Signed residual `Σ c_k x_k − rhs` of an assignment.
    ///
    /// # Panics
    ///
    /// Panics if a variable index exceeds the assignment length.
    pub fn residual(&self, x: &[u8]) -> f64 {
        let mut acc = -self.rhs;
        for &(k, c) in &self.coeffs {
            acc += c * x[k] as f64;
        }
        acc
    }

    /// Absolute residual (0 iff satisfied).
    pub fn violation(&self, x: &[u8]) -> f64 {
        self.residual(x).abs()
    }

    /// Whether the assignment satisfies the constraint exactly (with a
    /// small tolerance for float accumulation).
    pub fn is_satisfied(&self, x: &[u8]) -> bool {
        self.violation(x) < 1e-9
    }
}

/// A binary program `min x'Qx` over `{0,1}^n` with linear equality
/// constraints, relaxable to QUBO with a penalty parameter `A`.
///
/// # Examples
///
/// ```
/// use qubo::{ConstrainedBinaryProgram, LinearConstraint, QuboBuilder};
/// // minimise -x0 - x1 subject to x0 + x1 = 1
/// let mut obj = QuboBuilder::new(2);
/// obj.add_linear(0, -1.0);
/// obj.add_linear(1, -1.0);
/// let mut prog = ConstrainedBinaryProgram::new(obj.build());
/// prog.add_constraint(LinearConstraint::one_hot([0, 1]));
/// let q = prog.to_qubo(10.0);
/// // feasible states have penalty 0
/// assert!((q.energy(&[1, 0]) - (-1.0)).abs() < 1e-12);
/// // infeasible states pay the penalty: x = [1,1] → obj -2, penalty 10
/// assert!((q.energy(&[1, 1]) - 8.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstrainedBinaryProgram {
    objective: QuboModel,
    constraints: Vec<LinearConstraint>,
}

impl ConstrainedBinaryProgram {
    /// Wraps an unconstrained objective.
    pub fn new(objective: QuboModel) -> Self {
        ConstrainedBinaryProgram {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Adds one equality constraint.
    pub fn add_constraint(&mut self, c: LinearConstraint) -> &mut Self {
        self.constraints.push(c);
        self
    }

    /// Number of binary variables.
    pub fn num_vars(&self) -> usize {
        self.objective.num_vars()
    }

    /// Objective value of an assignment (ignoring constraints).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn objective_value(&self, x: &[u8]) -> f64 {
        self.objective.energy(x)
    }

    /// Total squared constraint violation `‖Cx − d‖²`.
    pub fn penalty_value(&self, x: &[u8]) -> f64 {
        self.constraints
            .iter()
            .map(|c| {
                let r = c.residual(x);
                r * r
            })
            .sum()
    }

    /// Whether every constraint is satisfied.
    pub fn is_feasible(&self, x: &[u8]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(x))
    }

    /// Builds the penalty relaxation `x'Qx + relaxation·‖Cx − d‖²`.
    ///
    /// # Panics
    ///
    /// Panics if any constraint references a variable out of range (checked
    /// variant: [`ConstrainedBinaryProgram::try_to_qubo`]).
    pub fn to_qubo(&self, relaxation: f64) -> QuboModel {
        self.try_to_qubo(relaxation)
            .expect("constraint variable out of range")
    }

    /// Checked penalty relaxation.
    ///
    /// # Errors
    ///
    /// * [`QuboError::VariableOutOfRange`] if a constraint references an
    ///   unknown variable.
    /// * [`QuboError::NonFiniteCoefficient`] if `relaxation` is NaN or
    ///   infinite.
    pub fn try_to_qubo(&self, relaxation: f64) -> Result<QuboModel, QuboError> {
        if !relaxation.is_finite() {
            return Err(QuboError::NonFiniteCoefficient);
        }
        let n = self.num_vars();
        let mut b = QuboBuilder::new(n);
        b.add_offset(self.objective.offset());
        for i in 0..n {
            let l = self.objective.linear(i);
            if l != 0.0 {
                b.add_linear(i, l);
            }
        }
        for (i, j, w) in self.objective.couplings() {
            b.add_quadratic(i, j, w);
        }
        for c in &self.constraints {
            for &(k, _) in c.coeffs() {
                if k >= n {
                    return Err(QuboError::VariableOutOfRange {
                        index: k,
                        num_vars: n,
                    });
                }
            }
            // (Σ c_k x_k − d)² = Σ (c_k² − 2 d c_k) x_k + 2 Σ_{k<l} c_k c_l x_k x_l + d²
            let d = c.rhs();
            b.add_offset(relaxation * d * d);
            let coeffs = c.coeffs();
            for (a_idx, &(k, ck)) in coeffs.iter().enumerate() {
                b.add_linear(k, relaxation * (ck * ck - 2.0 * d * ck));
                for &(l, cl) in coeffs.iter().skip(a_idx + 1) {
                    b.add_quadratic(k, l, relaxation * 2.0 * ck * cl);
                }
            }
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QuboBuilder;

    fn one_hot_program() -> ConstrainedBinaryProgram {
        // minimise x0 + 2 x1 + 3 x2 subject to exactly one variable on.
        let mut obj = QuboBuilder::new(3);
        obj.add_linear(0, 1.0);
        obj.add_linear(1, 2.0);
        obj.add_linear(2, 3.0);
        let mut p = ConstrainedBinaryProgram::new(obj.build());
        p.add_constraint(LinearConstraint::one_hot([0, 1, 2]));
        p
    }

    #[test]
    fn penalty_identity_exhaustive() {
        // QUBO energy == objective + A * penalty for every assignment.
        let p = one_hot_program();
        for a in [0.5, 1.0, 7.25] {
            let q = p.to_qubo(a);
            for bits in 0..8u8 {
                let x = [bits & 1, (bits >> 1) & 1, (bits >> 2) & 1];
                let want = p.objective_value(&x) + a * p.penalty_value(&x);
                assert!((q.energy(&x) - want).abs() < 1e-12, "A={a}, x={x:?}");
            }
        }
    }

    #[test]
    fn feasible_states_have_zero_penalty() {
        let p = one_hot_program();
        for x in [[1, 0, 0], [0, 1, 0], [0, 0, 1]] {
            assert!(p.is_feasible(&x));
            assert_eq!(p.penalty_value(&x), 0.0);
        }
        assert!(!p.is_feasible(&[0, 0, 0]));
        assert!(!p.is_feasible(&[1, 1, 0]));
    }

    #[test]
    fn penalty_counts_square_of_residual() {
        let p = one_hot_program();
        // all three on: residual 2, squared 4
        assert_eq!(p.penalty_value(&[1, 1, 1]), 4.0);
        // none on: residual -1, squared 1
        assert_eq!(p.penalty_value(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn larger_relaxation_never_reduces_infeasible_energy() {
        let p = one_hot_program();
        let q1 = p.to_qubo(1.0);
        let q2 = p.to_qubo(5.0);
        for bits in 0..8u8 {
            let x = [bits & 1, (bits >> 1) & 1, (bits >> 2) & 1];
            if !p.is_feasible(&x) {
                assert!(q2.energy(&x) > q1.energy(&x), "x={x:?}");
            } else {
                assert!((q2.energy(&x) - q1.energy(&x)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_constraint_expansion() {
        // 2 x0 + 3 x1 = 3 → only x = [0,1] feasible.
        let obj = QuboBuilder::new(2).build();
        let mut p = ConstrainedBinaryProgram::new(obj);
        p.add_constraint(LinearConstraint::new(vec![(0, 2.0), (1, 3.0)], 3.0));
        let q = p.to_qubo(1.0);
        assert!((q.energy(&[0, 1]) - 0.0).abs() < 1e-12);
        assert!((q.energy(&[0, 0]) - 9.0).abs() < 1e-12); // residual -3
        assert!((q.energy(&[1, 0]) - 1.0).abs() < 1e-12); // residual -1
        assert!((q.energy(&[1, 1]) - 4.0).abs() < 1e-12); // residual 2
    }

    #[test]
    fn out_of_range_constraint_rejected() {
        let obj = QuboBuilder::new(2).build();
        let mut p = ConstrainedBinaryProgram::new(obj);
        p.add_constraint(LinearConstraint::one_hot([0, 5]));
        assert!(matches!(
            p.try_to_qubo(1.0),
            Err(QuboError::VariableOutOfRange { .. })
        ));
    }

    #[test]
    fn non_finite_relaxation_rejected() {
        let p = one_hot_program();
        assert!(matches!(
            p.try_to_qubo(f64::INFINITY),
            Err(QuboError::NonFiniteCoefficient)
        ));
        assert!(matches!(
            p.try_to_qubo(f64::NAN),
            Err(QuboError::NonFiniteCoefficient)
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let p = one_hot_program();
        let json = serde_json::to_string(&p).unwrap();
        let back: ConstrainedBinaryProgram = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
