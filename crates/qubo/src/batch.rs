//! Lockstep multi-replica flip evaluation (structure-of-arrays).
//!
//! Annealer batches run many independent replicas over the *same* model.
//! [`ReplicaBatch`] stores `lanes` replicas' assignments and flip-delta
//! vectors interleaved — `x[i * lanes + r]` / `delta[i * lanes + r]` for
//! variable `i` of replica `r` — so that:
//!
//! * [`ReplicaBatch::rebuild_all`] rebuilds every lane's energy and delta
//!   caches in **one shared CSR traversal**: the row offsets, column
//!   indices and weights of each variable are read once and applied to
//!   all lanes, instead of once per replica;
//! * per-variable lane rows (`delta[i * lanes ..][.. lanes]`) are
//!   contiguous, which turns the digital annealer's all-candidate scan
//!   into a unit-stride sweep across replicas and gives the
//!   autovectorizer clean `lanes`-wide inner loops;
//! * the batched [`ReplicaBatch::flip`] uses the same branch-free
//!   sign-bit delta update as [`QuboState::flip`](crate::QuboState::flip).
//!
//! # Bit-exactness contract
//!
//! Every lane behaves *bit-identically* to an independent
//! [`QuboState`](crate::QuboState): `rebuild_all` performs, per lane, the
//! exact per-variable accumulation order of `QuboState::rebuild_caches`
//! (neighbours in CSR row order), and `flip(r, i)` the exact update order
//! of `QuboState::flip`. Interleaving lanes only reorders operations
//! *across* independent replicas, never within one, so a solver that
//! advances `N` lanes in lockstep produces the same trajectories as `N`
//! sequential single-replica runs with the same per-replica RNG streams
//! (property-tested in `crates/qubo/tests/proptest_batch.rs`). This is
//! what lets the SA/DA replica loops batch replicas without perturbing
//! any persisted dataset or golden fixture.

use rand::Rng;

use crate::model::QuboModel;

/// `lanes` independent replica states over one model, stored
/// structure-of-arrays and advanced in lockstep.
///
/// # Examples
///
/// ```
/// use qubo::{QuboBuilder, ReplicaBatch, QuboState};
/// let mut b = QuboBuilder::new(2);
/// b.add_linear(0, 1.0);
/// b.add_quadratic(0, 1, -3.0);
/// let m = b.build();
/// let mut batch = ReplicaBatch::new(&m, 2);
/// batch.flip(1, 0); // lane 1 turns on x0
/// assert_eq!(batch.energy(0), 0.0);
/// assert_eq!(batch.energy(1), 1.0);
/// assert_eq!(batch.flip_delta(1, 0), QuboState::new(&m, vec![1, 0]).flip_delta(0));
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaBatch<'m> {
    model: &'m QuboModel,
    lanes: usize,
    /// `x[i * lanes + r]` — bit `i` of replica `r`
    x: Vec<u8>,
    /// `delta[i * lanes + r]` — flip delta of bit `i` in replica `r`
    delta: Vec<f64>,
    /// `energy[r]` — cached energy of replica `r`
    energy: Vec<f64>,
    /// scratch for `rebuild_all` (local fields per lane)
    h: Vec<f64>,
    /// scratch for `rebuild_all` (upper-triangle sums per lane)
    upper: Vec<f64>,
}

impl<'m> ReplicaBatch<'m> {
    /// Creates `lanes` replicas, all starting from the all-zeros
    /// assignment, with caches built.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(model: &'m QuboModel, lanes: usize) -> Self {
        assert!(lanes > 0, "ReplicaBatch requires at least one lane");
        let n = model.num_vars();
        let mut batch = ReplicaBatch {
            model,
            lanes,
            x: vec![0; n * lanes],
            delta: vec![0.0; n * lanes],
            energy: vec![0.0; lanes],
            h: vec![0.0; lanes],
            upper: vec![0.0; lanes],
        };
        batch.rebuild_all();
        batch
    }

    /// The underlying model.
    pub fn model(&self) -> &'m QuboModel {
        self.model
    }

    /// Number of replica lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of variables per replica.
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    /// Cached energy of replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn energy(&self, r: usize) -> f64 {
        self.energy[r]
    }

    /// Flip delta of bit `i` in replica `r` (O(1) read).
    ///
    /// # Panics
    ///
    /// Panics if `r` or `i` is out of range.
    #[inline]
    pub fn flip_delta(&self, r: usize, i: usize) -> f64 {
        assert!(r < self.lanes, "lane {r} out of range");
        self.delta[i * self.lanes + r]
    }

    /// All lanes' flip deltas for variable `i` — a contiguous
    /// `lanes`-long row, the unit-stride shape the DA candidate scan
    /// iterates.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn flip_deltas_at(&self, i: usize) -> &[f64] {
        &self.delta[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Current value of bit `i` in replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `i` is out of range.
    pub fn bit(&self, r: usize, i: usize) -> u8 {
        assert!(r < self.lanes, "lane {r} out of range");
        self.x[i * self.lanes + r]
    }

    /// Gathers replica `r`'s assignment into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn copy_assignment(&self, r: usize, out: &mut Vec<u8>) {
        assert!(r < self.lanes, "lane {r} out of range");
        let n = self.num_vars();
        out.clear();
        out.reserve(n);
        for i in 0..n {
            out.push(self.x[i * self.lanes + r]);
        }
    }

    /// Overwrites replica `r`'s assignment with `bits`.
    ///
    /// Caches are **not** rebuilt (same contract as
    /// [`ReplicaBatch::randomize_lane`]): stage all lanes, then amortise
    /// one [`ReplicaBatch::rebuild_all`] over the batch.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `bits.len() != num_vars()`.
    pub fn set_assignment(&mut self, r: usize, bits: &[u8]) {
        assert!(r < self.lanes, "lane {r} out of range");
        assert_eq!(bits.len(), self.num_vars(), "state length mismatch");
        for (i, &bit) in bits.iter().enumerate() {
            self.x[i * self.lanes + r] = bit;
        }
    }

    /// Redraws replica `r`'s bits uniformly at random, consuming exactly
    /// the draws (in variable order) that
    /// [`QuboState::randomize`](crate::QuboState::randomize) would.
    ///
    /// Caches are **not** rebuilt: callers randomize each lane with its
    /// own RNG, then amortise one [`ReplicaBatch::rebuild_all`] over the
    /// whole batch. Energies and deltas are stale until then.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn randomize_lane<R: Rng + ?Sized>(&mut self, r: usize, rng: &mut R) {
        assert!(r < self.lanes, "lane {r} out of range");
        for i in 0..self.num_vars() {
            self.x[i * self.lanes + r] = rng.gen_range(0..2);
        }
    }

    /// Rebuilds every lane's energy and delta caches in one shared CSR
    /// traversal. O(n + nnz) model reads for *all* lanes together, versus
    /// O(lanes · (n + nnz)) for per-replica rebuilds.
    ///
    /// Per lane, the accumulation order is exactly
    /// `QuboState::rebuild_caches` (neighbours in CSR row order), so each
    /// lane's caches are bit-identical to an independent state's. The
    /// bounds-checked `x[j * lanes + r]` access doubles as the CSR
    /// **bounds validation** that [`ReplicaBatch::flip`]'s unchecked
    /// accesses rely on (`j * lanes + r < n * lanes` implies `j < n`):
    /// the constructor funnels through here before any flip can run. Do
    /// not change this loop to skip entries without adding an explicit
    /// validation pass.
    pub fn rebuild_all(&mut self) {
        let model = self.model;
        let lanes = self.lanes;
        let offset = model.offset();
        self.energy.fill(offset);
        for i in 0..self.num_vars() {
            let row = &self.x[i * lanes..(i + 1) * lanes];
            for (r, &xi) in row.iter().enumerate() {
                assert!(xi <= 1, "state entries must be 0 or 1 (lane {r})");
            }
            let cols = model.neighbor_cols(i);
            let weights = model.neighbor_weights(i);
            let linear = model.linear(i);
            self.h.fill(linear);
            self.upper.fill(0.0);
            for (&j, &w) in cols.iter().zip(weights) {
                let j = j as usize;
                let above = j > i;
                for r in 0..lanes {
                    if self.x[j * lanes + r] != 0 {
                        self.h[r] += w;
                        if above {
                            self.upper[r] += w;
                        }
                    }
                }
            }
            for r in 0..lanes {
                if self.x[i * lanes + r] != 0 {
                    self.energy[r] += linear + self.upper[r];
                    self.delta[i * lanes + r] = -self.h[r];
                } else {
                    self.delta[i * lanes + r] = self.h[r];
                }
            }
        }
    }

    /// Commits a flip of bit `i` in replica `r`: the batched counterpart
    /// of [`QuboState::flip`](crate::QuboState::flip), using the same
    /// branch-free sign-bit neighbour update and the same operation
    /// order, so the lane's trajectory stays bit-identical to an
    /// independent state's. O(degree). Returns the applied energy delta.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `i` is out of range.
    #[inline]
    pub fn flip(&mut self, r: usize, i: usize) -> f64 {
        assert!(r < self.lanes, "lane {r} out of range");
        let lanes = self.lanes;
        let applied = self.delta[i * lanes + r];
        // Sign mask of (1 − 2 x_i) *before* the flip, as in QuboState.
        let flip_sign = (self.x[i * lanes + r] as u64) << 63;
        self.x[i * lanes + r] ^= 1;
        self.energy[r] += applied;
        self.delta[i * lanes + r] = -applied;
        let cols = self.model.neighbor_cols(i);
        let weights = self.model.neighbor_weights(i);
        for (&j, &w) in cols.iter().zip(weights) {
            let j = j as usize;
            let idx = j * lanes + r;
            // The checked twin of the unchecked accesses below.
            debug_assert!(idx < self.x.len(), "CSR column {j} out of range");
            // SAFETY: every CSR column index was bounds-checked by
            // `rebuild_all` (the constructor funnels through it, covering
            // deserialised models), `r < lanes` was asserted above, and
            // `x`/`delta` both have length `num_vars * lanes`, so
            // `j * lanes + r` is in bounds. Same justification as
            // `QuboState::flip`; this is the solvers' hottest loop.
            unsafe {
                let xj = *self.x.get_unchecked(idx);
                let mask = flip_sign ^ ((xj as u64) << 63);
                *self.delta.get_unchecked_mut(idx) += f64::from_bits(w.to_bits() ^ mask);
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QuboBuilder;
    use crate::state::QuboState;
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

    /// Every lane of a lockstep-advanced batch matches an independent
    /// QuboState fed the same flips — exact bits, not tolerances.
    #[test]
    fn lanes_match_independent_states_bitwise() {
        let m = random_model(12, 7);
        let lanes = 5;
        let mut batch = ReplicaBatch::new(&m, lanes);
        let mut rngs: Vec<_> = (0..lanes).map(|r| seeded_rng(100 + r as u64)).collect();
        for (r, rng) in rngs.iter_mut().enumerate() {
            batch.randomize_lane(r, rng);
        }
        batch.rebuild_all();
        let mut singles: Vec<QuboState<'_>> = (0..lanes)
            .map(|r| {
                let mut rng = seeded_rng(100 + r as u64);
                let mut s = QuboState::new(&m, vec![0; 12]);
                s.randomize(&mut rng);
                s
            })
            .collect();
        // Interleave flips across lanes; each lane uses its own stream.
        for step in 0..200 {
            for (r, rng) in rngs.iter_mut().enumerate() {
                let i = rng.gen_range(0..12);
                let db = batch.flip(r, i);
                let ds = singles[r].flip(i);
                assert_eq!(db.to_bits(), ds.to_bits(), "step {step} lane {r}");
                assert_eq!(
                    batch.energy(r).to_bits(),
                    singles[r].energy().to_bits(),
                    "energy drift at step {step} lane {r}"
                );
            }
        }
        let mut buf = Vec::new();
        for (r, single) in singles.iter().enumerate() {
            batch.copy_assignment(r, &mut buf);
            assert_eq!(&buf[..], single.assignment(), "assignment lane {r}");
            for i in 0..12 {
                assert_eq!(
                    batch.flip_delta(r, i).to_bits(),
                    single.flip_delta(i).to_bits(),
                    "delta lane {r} var {i}"
                );
            }
        }
    }

    #[test]
    fn rebuild_matches_fresh_states() {
        let m = random_model(9, 3);
        let lanes = 4;
        let mut batch = ReplicaBatch::new(&m, lanes);
        let mut rng = seeded_rng(42);
        for r in 0..lanes {
            batch.randomize_lane(r, &mut rng);
        }
        batch.rebuild_all();
        let mut buf = Vec::new();
        for r in 0..lanes {
            batch.copy_assignment(r, &mut buf);
            let fresh = QuboState::new(&m, buf.clone());
            assert_eq!(batch.energy(r).to_bits(), fresh.energy().to_bits());
            for i in 0..9 {
                assert_eq!(
                    batch.flip_delta(r, i).to_bits(),
                    fresh.flip_delta(i).to_bits()
                );
            }
        }
    }

    #[test]
    fn deltas_at_row_is_lane_contiguous() {
        let m = random_model(6, 5);
        let batch = ReplicaBatch::new(&m, 3);
        for i in 0..6 {
            let row = batch.flip_deltas_at(i);
            assert_eq!(row.len(), 3);
            for (r, &d) in row.iter().enumerate() {
                assert_eq!(d.to_bits(), batch.flip_delta(r, i).to_bits());
            }
        }
    }

    #[test]
    fn empty_model_ok() {
        let m = QuboBuilder::new(0).build();
        let batch = ReplicaBatch::new(&m, 2);
        assert_eq!(batch.energy(0), 0.0);
        assert_eq!(batch.energy(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let m = QuboBuilder::new(2).build();
        let _ = ReplicaBatch::new(&m, 0);
    }
}
