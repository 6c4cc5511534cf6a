//! Property-based tests for QUBO invariants.

use proptest::prelude::*;
use qubo::{ConstrainedBinaryProgram, LinearConstraint, QuboBuilder, QuboState};

/// Strategy producing a random QUBO model description: `n`, linear terms
/// and a sparse set of couplings.
fn qubo_strategy() -> impl Strategy<Value = (usize, Vec<f64>, Vec<(usize, usize, f64)>)> {
    (2usize..12).prop_flat_map(|n| {
        let linear = proptest::collection::vec(-5.0..5.0f64, n);
        let couplings = proptest::collection::vec(
            (
                (0..n, 0..n).prop_filter("distinct", |(i, j)| i != j),
                -5.0..5.0f64,
            )
                .prop_map(|((i, j), w)| (i, j, w)),
            0..(n * 2),
        );
        (Just(n), linear, couplings)
    })
}

fn build_model(n: usize, linear: &[f64], couplings: &[(usize, usize, f64)]) -> qubo::QuboModel {
    let mut b = QuboBuilder::new(n);
    for (i, &l) in linear.iter().enumerate() {
        b.add_linear(i, l);
    }
    for &(i, j, w) in couplings {
        b.add_quadratic(i, j, w);
    }
    b.build()
}

proptest! {
    /// Flipping a sequence of bits via local-field deltas reproduces the
    /// full energy recomputation exactly (modulo float tolerance).
    #[test]
    fn delta_energy_equals_recompute(
        (n, linear, couplings) in qubo_strategy(),
        flips in proptest::collection::vec(0usize..12, 1..40),
        init_bits in proptest::collection::vec(0u8..2, 12),
    ) {
        let model = build_model(n, &linear, &couplings);
        let x: Vec<u8> = init_bits.into_iter().take(n).collect();
        prop_assume!(x.len() == n);
        let mut state = QuboState::new(&model, x);
        for f in flips {
            let i = f % n;
            let predicted = state.flip_delta(i);
            let before = state.energy();
            state.flip(i);
            prop_assert!((state.energy() - before - predicted).abs() < 1e-9);
            prop_assert!((state.energy() - state.recompute_energy()).abs() < 1e-8);
        }
    }

    /// After an arbitrary flip sequence, the *entire* maintained
    /// flip-delta vector agrees with brute-force `model.energy()`
    /// differences to 1e-9, and `assign_all` reuse is indistinguishable
    /// from a freshly constructed state.
    #[test]
    fn flip_delta_vector_and_assign_all_agree(
        (n, linear, couplings) in qubo_strategy(),
        flips in proptest::collection::vec(0usize..12, 1..40),
        init_bits in proptest::collection::vec(0u8..2, 12),
    ) {
        let model = build_model(n, &linear, &couplings);
        let x: Vec<u8> = init_bits.into_iter().take(n).collect();
        prop_assume!(x.len() == n);
        let mut state = qubo::QuboState::new(&model, x.clone());
        for f in flips {
            state.flip(f % n);
        }
        let full = model.energy(state.assignment());
        prop_assert!((state.energy() - full).abs() < 1e-9);
        for i in 0..n {
            let mut flipped = state.assignment().to_vec();
            flipped[i] ^= 1;
            let want = model.energy(&flipped) - full;
            prop_assert!(
                (state.flip_delta(i) - want).abs() < 1e-9,
                "delta {} drifted: {} vs {}", i, state.flip_delta(i), want
            );
        }
        // Bulk reset back onto the original assignment must equal a fresh
        // construction bit-for-bit (same energy and delta caches).
        state.assign_all(&x);
        let fresh = qubo::QuboState::new(&model, x);
        prop_assert!((state.energy() - fresh.energy()).abs() < 1e-12);
        for i in 0..n {
            prop_assert!((state.flip_delta(i) - fresh.flip_delta(i)).abs() < 1e-12);
        }
    }

    /// QUBO energy is invariant to the insertion order of couplings.
    #[test]
    fn insertion_order_irrelevant(
        (n, linear, couplings) in qubo_strategy(),
        assignment in proptest::collection::vec(0u8..2, 12),
    ) {
        let x: Vec<u8> = assignment.into_iter().take(n).collect();
        prop_assume!(x.len() == n);
        let forward = build_model(n, &linear, &couplings);
        let mut rev = couplings.clone();
        rev.reverse();
        let backward = build_model(n, &linear, &rev);
        prop_assert!((forward.energy(&x) - backward.energy(&x)).abs() < 1e-9);
    }

    /// Penalty relaxation identity: QUBO(A) == objective + A * ||Cx-d||^2,
    /// and raising A never lowers the energy of an infeasible assignment.
    #[test]
    fn penalty_identity_and_monotonicity(
        (n, linear, couplings) in qubo_strategy(),
        assignment in proptest::collection::vec(0u8..2, 12),
        a1 in 0.1..10.0f64,
        extra in 0.1..10.0f64,
    ) {
        let x: Vec<u8> = assignment.into_iter().take(n).collect();
        prop_assume!(x.len() == n);
        let objective = build_model(n, &linear, &couplings);
        let mut prog = ConstrainedBinaryProgram::new(objective);
        // one-hot over the first min(n,4) variables
        prog.add_constraint(LinearConstraint::one_hot(0..n.min(4)));
        let a2 = a1 + extra;
        let q1 = prog.to_qubo(a1);
        let q2 = prog.to_qubo(a2);
        let want1 = prog.objective_value(&x) + a1 * prog.penalty_value(&x);
        prop_assert!((q1.energy(&x) - want1).abs() < 1e-8);
        if prog.is_feasible(&x) {
            prop_assert!((q1.energy(&x) - q2.energy(&x)).abs() < 1e-8);
        } else {
            prop_assert!(q2.energy(&x) >= q1.energy(&x) - 1e-9);
        }
    }

    /// Ising conversion preserves energies for random assignments.
    #[test]
    fn ising_energy_agreement(
        (n, linear, couplings) in qubo_strategy(),
        assignment in proptest::collection::vec(0u8..2, 12),
    ) {
        let x: Vec<u8> = assignment.into_iter().take(n).collect();
        prop_assume!(x.len() == n);
        let q = build_model(n, &linear, &couplings);
        let ising = qubo::IsingModel::from_qubo(&q);
        let s = qubo::ising::binary_to_spins(&x);
        prop_assert!((ising.energy(&s) - q.energy(&x)).abs() < 1e-8);
        let back = ising.to_qubo();
        prop_assert!((back.energy(&x) - q.energy(&x)).abs() < 1e-8);
    }
}
