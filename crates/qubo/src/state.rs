//! Incremental single-flip evaluation of QUBO states.
//!
//! Annealing-style solvers attempt millions of single-bit flips;
//! recomputing the full energy per attempt would cost O(nnz) each.
//! [`QuboState`] is the **one** incremental engine every solver in the
//! workspace routes through. It maintains, alongside the assignment `x`:
//!
//! * the cached total energy `E(x)`, and
//! * the full **flip-delta vector** `Δ_i = E(x ⊕ e_i) − E(x)` — the energy
//!   change each single-bit flip would cause.
//!
//! The contract:
//!
//! * [`QuboState::flip_delta`] is an O(1) array read;
//! * [`QuboState::flip`] commits a flip in O(degree), updating the cached
//!   energy and the deltas of the flipped variable and its neighbours;
//! * [`QuboState::assign_all`] (and [`QuboState::randomize`]) bulk-reset
//!   the assignment and rebuild both caches in one O(n + nnz) CSR pass
//!   without reallocating — this is what lets replica workers reuse one
//!   state across a whole batch chunk;
//! * after any flip sequence, the cached energy and every delta agree with
//!   a from-scratch recomputation to ≤ 1e-9 (property-tested in
//!   `crates/qubo/tests/proptest_qubo.rs`).
//!
//! The delta vector relates to the classical *local field*
//! `h_i(x) = l_i + Σ_{j≠i} w_ij x_j` by `Δ_i = (1 − 2 x_i) · h_i`, which
//! is exposed as [`QuboState::field`] for solvers that reason in field
//! terms.

use rand::Rng;

use crate::model::QuboModel;

/// A binary assignment with cached energy and flip-delta vector.
///
/// # Examples
///
/// ```
/// use qubo::{QuboBuilder, QuboState};
/// let mut b = QuboBuilder::new(2);
/// b.add_linear(0, 1.0);
/// b.add_quadratic(0, 1, -3.0);
/// let m = b.build();
/// let mut s = QuboState::new(&m, vec![0, 1]);
/// assert_eq!(s.energy(), 0.0);
/// let delta = s.flip_delta(0); // turning on x0: +1 (linear) -3 (coupling)
/// assert_eq!(delta, -2.0);
/// s.flip(0);
/// assert_eq!(s.energy(), -2.0);
/// ```
#[derive(Debug, Clone)]
pub struct QuboState<'m> {
    model: &'m QuboModel,
    x: Vec<u8>,
    /// `delta[i]` = energy change of flipping bit `i` right now
    delta: Vec<f64>,
    energy: f64,
}

impl<'m> QuboState<'m> {
    /// Builds the caches for assignment `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != model.num_vars()` or any entry is not 0/1.
    pub fn new(model: &'m QuboModel, x: Vec<u8>) -> Self {
        assert_eq!(x.len(), model.num_vars(), "state length mismatch");
        let mut state = QuboState {
            model,
            x,
            delta: vec![0.0; model.num_vars()],
            energy: 0.0,
        };
        state.rebuild_caches();
        state
    }

    /// Builds a uniformly random assignment.
    pub fn random<R: Rng + ?Sized>(model: &'m QuboModel, rng: &mut R) -> Self {
        let x: Vec<u8> = (0..model.num_vars()).map(|_| rng.gen_range(0..2)).collect();
        Self::new(model, x)
    }

    /// Recomputes energy and the delta vector from `self.x` in one CSR
    /// pass. O(n + nnz), allocation-free.
    ///
    /// The bounds-checked `x[j]` access below doubles as the CSR
    /// **bounds validation** that [`QuboState::flip`]'s unchecked accesses
    /// rely on: every constructor and bulk reset funnels through this
    /// method, so an out-of-range column index (possible only in a
    /// hand-crafted or deserialised model — `QuboBuilder` cannot produce
    /// one) panics here before `flip` can ever run. Do not change this
    /// loop to skip entries without adding an explicit validation pass.
    fn rebuild_caches(&mut self) {
        let model = self.model;
        let x = &self.x;
        let mut energy = model.offset();
        for i in 0..x.len() {
            assert!(x[i] <= 1, "state entries must be 0 or 1");
            let cols = model.neighbor_cols(i);
            let weights = model.neighbor_weights(i);
            let mut h = model.linear(i);
            let mut upper = 0.0; // Σ_{j>i, x_j=1} w_ij — the i < j half
            for (&j, &w) in cols.iter().zip(weights) {
                let j = j as usize;
                if x[j] != 0 {
                    h += w;
                    if j > i {
                        upper += w;
                    }
                }
            }
            if x[i] != 0 {
                energy += model.linear(i) + upper;
                self.delta[i] = -h;
            } else {
                self.delta[i] = h;
            }
        }
        self.energy = energy;
    }

    /// Replaces the assignment wholesale and rebuilds both caches without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or non-binary entries.
    pub fn assign_all(&mut self, x: &[u8]) {
        assert_eq!(x.len(), self.x.len(), "state length mismatch");
        self.x.copy_from_slice(x);
        self.rebuild_caches();
    }

    /// Draws a fresh uniformly random assignment in place (the bulk-reset
    /// path replica workers use between chunk replicas).
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for bit in &mut self.x {
            *bit = rng.gen_range(0..2);
        }
        self.rebuild_caches();
    }

    /// The underlying model (borrow tied to the model's lifetime, not the
    /// state's, so callers can keep it across mutations).
    pub fn model(&self) -> &'m QuboModel {
        self.model
    }

    /// Current assignment.
    pub fn assignment(&self) -> &[u8] {
        &self.x
    }

    /// Current cached energy.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Current value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bit(&self, i: usize) -> u8 {
        self.x[i]
    }

    /// Local field of variable `i`:
    /// `h_i = l_i + Σ_{j≠i} w_ij x_j = (1 − 2 x_i) · Δ_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn field(&self, i: usize) -> f64 {
        (1.0 - 2.0 * self.x[i] as f64) * self.delta[i]
    }

    /// Energy change that flipping bit `i` *would* cause (O(1) read of the
    /// maintained delta vector).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn flip_delta(&self, i: usize) -> f64 {
        self.delta[i]
    }

    /// The full flip-delta vector.
    pub fn flip_deltas(&self) -> &[f64] {
        &self.delta
    }

    /// Commits a flip of bit `i`, updating the energy and the deltas of
    /// `i` and its neighbours in O(degree).
    ///
    /// Returns the applied energy delta.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn flip(&mut self, i: usize) -> f64 {
        let applied = self.delta[i];
        // Sign mask of (1 − 2 x_i) *before* the flip: turning a bit on
        // raises every neighbour's field by +w, turning it off by −w.
        let flip_sign = (self.x[i] as u64) << 63;
        self.x[i] ^= 1;
        self.energy += applied;
        self.delta[i] = -applied;
        let cols = self.model.neighbor_cols(i);
        let weights = self.model.neighbor_weights(i);
        for (&j, &w) in cols.iter().zip(weights) {
            let j = j as usize;
            // The checked twin of the unchecked accesses below.
            debug_assert!(j < self.x.len(), "CSR column {j} out of range");
            // Neighbour j's delta moves by (1 − 2 x_j)·(1 − 2 x_i_old)·w.
            // Both factors are ±1, so fold them into w's sign bit instead
            // of paying two int→float converts and multiplies per entry.
            //
            // SAFETY: every CSR column index was bounds-checked against
            // `num_vars` by `rebuild_caches` (all constructors and bulk
            // resets funnel through it — see its doc comment; this covers
            // deserialised models, not just `QuboBuilder` output), and
            // `x`/`delta` both have length `num_vars`. This is the single
            // hottest loop in every solver; the two eliminated bounds
            // checks are measurable on the SA sweep.
            unsafe {
                let xj = *self.x.get_unchecked(j);
                let mask = flip_sign ^ ((xj as u64) << 63);
                *self.delta.get_unchecked_mut(j) += f64::from_bits(w.to_bits() ^ mask);
            }
        }
        applied
    }

    /// Replaces the assignment wholesale (alias of [`QuboState::assign_all`]
    /// accepting an owned vector, kept for source compatibility).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn reset(&mut self, x: Vec<u8>) {
        self.assign_all(&x);
    }

    /// Recomputes the energy from scratch (O(nnz)) — used by tests and
    /// debug assertions to validate the incremental bookkeeping.
    pub fn recompute_energy(&self) -> f64 {
        self.model.energy(&self.x)
    }

    /// Rebuilds the cached energy **and** the whole delta vector from
    /// scratch (O(n + nnz)), discarding any rounding drift accumulated by
    /// long flip sequences. Very long walks (e.g. exhaustive enumeration
    /// of 2²⁴ states) call this periodically so accumulated error resets
    /// instead of growing with the walk length.
    pub fn resync(&mut self) -> f64 {
        self.rebuild_caches();
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QuboBuilder;
    use mathkit::rng::seeded_rng;
    use rand::Rng;

    fn random_model(n: usize, seed: u64) -> QuboModel {
        let mut rng = seeded_rng(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.gen_range(-2.0..2.0));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.4 {
                    b.add_quadratic(i, j, rng.gen_range(-1.5..1.5));
                }
            }
        }
        b.build()
    }

    #[test]
    fn fields_match_definition() {
        let m = random_model(8, 3);
        let mut rng = seeded_rng(11);
        let s = QuboState::random(&m, &mut rng);
        for i in 0..8 {
            let mut h = m.linear(i);
            for j in 0..8 {
                if j != i && s.bit(j) == 1 {
                    h += m.quadratic(i, j);
                }
            }
            assert!((s.field(i) - h).abs() < 1e-12, "field {i}");
        }
    }

    #[test]
    fn delta_matches_full_recompute() {
        let m = random_model(10, 5);
        let mut rng = seeded_rng(17);
        let mut s = QuboState::random(&m, &mut rng);
        for step in 0..200 {
            let i = rng.gen_range(0..10);
            let predicted = s.flip_delta(i);
            let before = s.recompute_energy();
            s.flip(i);
            let after = s.recompute_energy();
            assert!(
                (after - before - predicted).abs() < 1e-9,
                "step {step}, var {i}"
            );
            assert!((s.energy() - after).abs() < 1e-9, "cached energy drift");
        }
    }

    #[test]
    fn delta_vector_consistent_after_flips() {
        let m = random_model(9, 21);
        let mut rng = seeded_rng(31);
        let mut s = QuboState::random(&m, &mut rng);
        for _ in 0..100 {
            s.flip(rng.gen_range(0..9));
            // Every maintained delta must equal the brute-force delta.
            for i in 0..9 {
                let mut flipped = s.assignment().to_vec();
                flipped[i] ^= 1;
                let want = m.energy(&flipped) - s.recompute_energy();
                assert!((s.flip_delta(i) - want).abs() < 1e-9, "delta {i}");
            }
        }
    }

    #[test]
    fn flip_twice_restores() {
        let m = random_model(6, 9);
        let mut rng = seeded_rng(23);
        let mut s = QuboState::random(&m, &mut rng);
        let e0 = s.energy();
        let x0 = s.assignment().to_vec();
        s.flip(2);
        s.flip(2);
        assert_eq!(s.assignment(), &x0[..]);
        assert!((s.energy() - e0).abs() < 1e-12);
    }

    #[test]
    fn reset_rebuilds() {
        let m = random_model(5, 1);
        let mut s = QuboState::new(&m, vec![0; 5]);
        s.flip(0);
        s.reset(vec![1; 5]);
        assert_eq!(s.assignment(), &[1, 1, 1, 1, 1]);
        assert!((s.energy() - m.energy(&[1; 5])).abs() < 1e-12);
    }

    #[test]
    fn assign_all_matches_fresh_state() {
        let m = random_model(7, 13);
        let mut rng = seeded_rng(29);
        let mut reused = QuboState::new(&m, vec![0; 7]);
        for _ in 0..20 {
            let x: Vec<u8> = (0..7).map(|_| rng.gen_range(0..2)).collect();
            reused.assign_all(&x);
            let fresh = QuboState::new(&m, x);
            assert_eq!(reused.assignment(), fresh.assignment());
            assert!((reused.energy() - fresh.energy()).abs() < 1e-12);
            for i in 0..7 {
                assert!((reused.flip_delta(i) - fresh.flip_delta(i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn randomize_matches_random_constructor() {
        let m = random_model(8, 2);
        let mut rng_a = seeded_rng(55);
        let mut rng_b = seeded_rng(55);
        let mut reused = QuboState::new(&m, vec![0; 8]);
        reused.randomize(&mut rng_a);
        let fresh = QuboState::random(&m, &mut rng_b);
        assert_eq!(reused.assignment(), fresh.assignment());
        assert!((reused.energy() - fresh.energy()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn rejects_non_binary() {
        let m = random_model(2, 2);
        let _ = QuboState::new(&m, vec![0, 2]);
    }
}
