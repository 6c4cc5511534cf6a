//! Simulated Annealing on CPU.
//!
//! The classical baseline solver from the paper's Fig. 1 (lower row):
//! single-flip Metropolis dynamics over a geometric β schedule. Each of the
//! `batch` replicas anneals independently from a uniform random state; one
//! *sweep* attempts `n` flips at fixed β.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use mathkit::rng::{derive_rng, derive_seed};
use qubo::{QuboModel, QuboState, ReplicaBatch};

use crate::parallel::parallel_map_with;
use crate::sample::{Sample, SampleSet};
use crate::schedule::BetaSchedule;
use crate::Solver;

/// Per-worker scratch for the lane-batched replica loop.
struct SaScratch<'m> {
    replicas: ReplicaBatch<'m>,
    rngs: Vec<StdRng>,
    best_e: Vec<f64>,
    best_x: Vec<Vec<u8>>,
}

/// Configuration for [`SimulatedAnnealer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// number of temperature steps (sweeps); each sweep attempts `n` flips
    pub sweeps: usize,
    /// optional explicit β range; `None` auto-scales from the model
    pub beta_range: Option<(f64, f64)>,
    /// report the best state seen during the anneal rather than the final
    /// state (hardware annealers effectively return the final state; the
    /// CPU implementation can afford to track the incumbent)
    pub track_best: bool,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            sweeps: 256,
            beta_range: None,
            track_best: true,
        }
    }
}

/// Metropolis single-flip simulated annealing.
///
/// # Examples
///
/// ```
/// use qubo::QuboBuilder;
/// use solvers::{sa::{SaConfig, SimulatedAnnealer}, Solver};
/// let mut b = QuboBuilder::new(4);
/// for i in 0..4 {
///     b.add_linear(i, -1.0); // ground state: all ones, energy -4
/// }
/// let model = b.build();
/// let solver = SimulatedAnnealer::new(SaConfig::default());
/// let best = solver.sample(&model, 4, 1).best().unwrap().energy;
/// assert_eq!(best, -4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimulatedAnnealer {
    config: SaConfig,
}

impl SimulatedAnnealer {
    /// Creates a solver with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        SimulatedAnnealer { config }
    }

    /// Anneals a single replica in a reused scratch state and returns
    /// `(assignment, energy)`.
    ///
    /// The hot loop works purely on the incremental [`QuboState`]: the
    /// acceptance test reads the maintained flip-delta (O(1)), a commit is
    /// O(degree), and the incumbent is tracked from the cached energy — no
    /// full `model.energy()` call anywhere in the sweep.
    ///
    /// This is the reference trajectory [`SimulatedAnnealer::run_chunk`]
    /// reproduces bit-for-bit, lane by lane; it remains the entry point
    /// for single-replica use and equivalence tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn run_replica(
        &self,
        state: &mut QuboState<'_>,
        best_x: &mut Vec<u8>,
        schedule: &BetaSchedule,
        seed: u64,
    ) -> Sample {
        let mut rng = derive_rng(seed, 0x5A);
        let n = state.model().num_vars();
        state.randomize(&mut rng);
        best_x.clear();
        best_x.extend_from_slice(state.assignment());
        let mut best_e = state.energy();
        for beta in schedule.iter() {
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let delta = state.flip_delta(i);
                let accept = if delta <= 0.0 {
                    true
                } else {
                    let exponent = delta * beta;
                    // exp(-40) < 1e-17: skip the RNG draw for hopeless moves.
                    exponent < 40.0 && rng.gen::<f64>() < (-exponent).exp()
                };
                if accept {
                    state.flip(i);
                    // Incumbent tracking off the cached energy; strict
                    // improvement only, so equal-energy churn never copies.
                    if self.config.track_best && state.energy() < best_e {
                        best_e = state.energy();
                        best_x.copy_from_slice(state.assignment());
                    }
                }
            }
        }
        if self.config.track_best && best_e < state.energy() {
            Sample {
                assignment: best_x.clone(),
                energy: best_e,
            }
        } else {
            Sample {
                assignment: state.assignment().to_vec(),
                energy: state.energy(),
            }
        }
    }

    /// Anneals replicas `first .. first + count` in lockstep lanes of one
    /// [`ReplicaBatch`], returning their samples in replica order.
    ///
    /// Each lane runs the *unchanged* [`SimulatedAnnealer::run_replica`]
    /// algorithm on its own RNG stream (`derive_rng(derive_seed(seed,
    /// replica), 0x5A)`): the per-lane sequence of RNG draws, delta reads,
    /// flips and incumbent updates is identical, so every sample is
    /// bit-identical to the sequential path at any lane width — lanes only
    /// interleave operations *across* independent replicas. What batching
    /// buys is one shared CSR traversal for the per-replica cache rebuild
    /// and lane-interleaved (structure-of-arrays) delta storage.
    fn run_chunk(
        &self,
        scratch: &mut SaScratch<'_>,
        first: usize,
        count: usize,
        schedule: &BetaSchedule,
        seed: u64,
    ) -> Vec<Sample> {
        let rb = &mut scratch.replicas;
        let n = rb.num_vars();
        scratch.rngs.clear();
        for r in 0..count {
            let rs = derive_seed(seed, (first + r) as u64);
            scratch.rngs.push(derive_rng(rs, 0x5A));
        }
        for (r, rng) in scratch.rngs.iter_mut().enumerate() {
            rb.randomize_lane(r, rng);
        }
        // One shared CSR traversal rebuilds all lanes' caches.
        rb.rebuild_all();
        debug_assert!(count <= scratch.best_x.len());
        scratch.best_e.clear();
        for r in 0..count {
            scratch.best_e.push(rb.energy(r));
            rb.copy_assignment(r, &mut scratch.best_x[r]);
        }
        for beta in schedule.iter() {
            for _ in 0..n {
                for (r, rng) in scratch.rngs.iter_mut().enumerate() {
                    let i = rng.gen_range(0..n);
                    let delta = rb.flip_delta(r, i);
                    let accept = if delta <= 0.0 {
                        true
                    } else {
                        let exponent = delta * beta;
                        // exp(-40) < 1e-17: skip the RNG draw, as in
                        // run_replica.
                        exponent < 40.0 && rng.gen::<f64>() < (-exponent).exp()
                    };
                    if accept {
                        rb.flip(r, i);
                        if self.config.track_best && rb.energy(r) < scratch.best_e[r] {
                            scratch.best_e[r] = rb.energy(r);
                            rb.copy_assignment(r, &mut scratch.best_x[r]);
                        }
                    }
                }
            }
        }
        (0..count)
            .map(|r| {
                if self.config.track_best && scratch.best_e[r] < rb.energy(r) {
                    Sample {
                        assignment: scratch.best_x[r].clone(),
                        energy: scratch.best_e[r],
                    }
                } else {
                    let mut assignment = Vec::new();
                    rb.copy_assignment(r, &mut assignment);
                    Sample {
                        assignment,
                        energy: rb.energy(r),
                    }
                }
            })
            .collect()
    }
}

impl Solver for SimulatedAnnealer {
    fn name(&self) -> &str {
        "sa"
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        let sw = obs::Stopwatch::start();
        if model.num_vars() == 0 {
            return SampleSet::from_samples(
                (0..batch)
                    .map(|_| Sample {
                        assignment: Vec::new(),
                        energy: model.offset(),
                    })
                    .collect(),
            );
        }
        let schedule = match self.config.beta_range {
            Some((hot, cold)) => BetaSchedule::geometric(hot, cold, self.config.sweeps.max(1)),
            None => BetaSchedule::auto(model, self.config.sweeps.max(1)),
        };
        // Replicas advance in lockstep lanes (bit-identical to sequential
        // replicas at any width — see `run_chunk`); chunks of `lanes`
        // replicas fan out across workers.
        let lanes = crate::replica_lanes();
        let chunks = batch.div_ceil(lanes.max(1));
        let nested = parallel_map_with(
            chunks,
            || SaScratch {
                replicas: ReplicaBatch::new(model, lanes),
                rngs: Vec::with_capacity(lanes),
                best_e: Vec::with_capacity(lanes),
                best_x: vec![Vec::new(); lanes],
            },
            |scratch, chunk| {
                let first = chunk * lanes;
                let count = lanes.min(batch - first);
                self.run_chunk(scratch, first, count, &schedule, seed)
            },
        );
        let set = SampleSet::from_samples(nested.into_iter().flatten().collect());
        // Each replica runs `steps` sweeps of `n` Metropolis attempts;
        // every attempt reads one maintained flip-delta (an O(1)
        // incremental energy evaluation).
        let steps = schedule.steps() as u64;
        crate::metrics::record_sample(
            "sa",
            sw.elapsed_ns(),
            steps * batch as u64,
            steps * model.num_vars() as u64 * batch as u64,
        );
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::QuboBuilder;

    /// A frustrated 6-variable model with known ground state, solved
    /// exactly by enumeration inside the test.
    fn hard6() -> QuboModel {
        let mut b = QuboBuilder::new(6);
        let lin = [1.0, -2.0, 0.5, -0.5, 1.5, -1.0];
        for (i, &l) in lin.iter().enumerate() {
            b.add_linear(i, l);
        }
        let quad = [
            (0, 1, 2.0),
            (0, 2, -1.0),
            (1, 2, 1.5),
            (1, 3, -2.0),
            (2, 4, 1.0),
            (3, 4, -1.5),
            (4, 5, 2.0),
            (0, 5, -1.0),
        ];
        for &(i, j, w) in &quad {
            b.add_quadratic(i, j, w);
        }
        b.build()
    }

    fn exact_minimum(model: &QuboModel) -> f64 {
        let n = model.num_vars();
        let mut best = f64::INFINITY;
        for bits in 0..(1u32 << n) {
            let x: Vec<u8> = (0..n).map(|k| ((bits >> k) & 1) as u8).collect();
            best = best.min(model.energy(&x));
        }
        best
    }

    #[test]
    fn finds_ground_state_of_hard6() {
        let m = hard6();
        let truth = exact_minimum(&m);
        let solver = SimulatedAnnealer::default();
        let set = solver.sample(&m, 16, 7);
        assert!((set.best().unwrap().energy - truth).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = hard6();
        let solver = SimulatedAnnealer::default();
        let a = solver.sample(&m, 8, 123);
        let b = solver.sample(&m, 8, 123);
        assert_eq!(a, b);
        // Under a single hot sweep the chains cannot converge, so distinct
        // seeds must (almost surely) leave distinct fingerprints.
        let hot = SimulatedAnnealer::new(SaConfig {
            sweeps: 1,
            track_best: false,
            ..Default::default()
        });
        assert_ne!(hot.sample(&m, 8, 123), hot.sample(&m, 8, 124));
    }

    #[test]
    fn batch_size_respected() {
        let m = hard6();
        let solver = SimulatedAnnealer::default();
        assert_eq!(solver.sample(&m, 3, 1).len(), 3);
        assert_eq!(solver.sample(&m, 0, 1).len(), 0);
    }

    #[test]
    fn energies_match_assignments() {
        let m = hard6();
        let solver = SimulatedAnnealer::default();
        for s in solver.sample(&m, 8, 5).iter() {
            assert!((m.energy(&s.assignment) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_sweeps_still_returns_states() {
        let m = hard6();
        let solver = SimulatedAnnealer::new(SaConfig {
            sweeps: 0,
            ..Default::default()
        });
        let set = solver.sample(&m, 4, 9);
        assert_eq!(set.len(), 4);
        for s in set.iter() {
            assert!((m.energy(&s.assignment) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_model_degenerates() {
        let m = QuboBuilder::new(0).build();
        let solver = SimulatedAnnealer::default();
        let set = solver.sample(&m, 3, 1);
        assert_eq!(set.len(), 3);
        assert_eq!(set.best().unwrap().energy, 0.0);
    }

    #[test]
    fn explicit_beta_range_used() {
        let m = hard6();
        let solver = SimulatedAnnealer::new(SaConfig {
            sweeps: 64,
            beta_range: Some((0.5, 20.0)),
            track_best: true,
        });
        let set = solver.sample(&m, 8, 3);
        assert_eq!(set.len(), 8);
    }

    /// Lane width is a pure performance knob: any width produces the
    /// sample set bit-identically, and each sample equals a sequential
    /// `run_replica` with the same per-replica seed.
    #[test]
    fn lane_width_invariant_and_matches_run_replica() {
        let m = hard6();
        for track_best in [true, false] {
            let solver = SimulatedAnnealer::new(SaConfig {
                sweeps: 32,
                track_best,
                ..Default::default()
            });
            let baseline = solver.sample(&m, 11, 99);
            for width in [1usize, 3, 8, 16] {
                crate::set_replica_lanes(width);
                let got = solver.sample(&m, 11, 99);
                crate::set_replica_lanes(0);
                assert_eq!(got, baseline, "width {width} diverged");
            }
            let schedule = BetaSchedule::auto(&m, 32);
            for (replica, sample) in baseline.iter().enumerate() {
                let mut state = QuboState::new(&m, vec![0; 6]);
                let mut best_x = Vec::new();
                let want = solver.run_replica(
                    &mut state,
                    &mut best_x,
                    &schedule,
                    mathkit::rng::derive_seed(99, replica as u64),
                );
                assert_eq!(sample.assignment, want.assignment, "replica {replica}");
                assert_eq!(
                    sample.energy.to_bits(),
                    want.energy.to_bits(),
                    "replica {replica}"
                );
            }
        }
    }

    #[test]
    fn final_state_mode_runs() {
        let m = hard6();
        let solver = SimulatedAnnealer::new(SaConfig {
            track_best: false,
            ..Default::default()
        });
        let set = solver.sample(&m, 8, 3);
        for s in set.iter() {
            assert!((m.energy(&s.assignment) - s.energy).abs() < 1e-9);
        }
    }
}
