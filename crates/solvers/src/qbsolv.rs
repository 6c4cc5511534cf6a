//! Qbsolv-style decomposition hybrid.
//!
//! Follows the published qbsolv algorithm (Booth, Reinhardt & Roy,
//! *Partitioning optimization problems for hybrid classical/quantum
//! execution*, D-Wave TR 2017): maintain a global assignment, repeatedly
//! carve out sub-QUBOs of at most `subproblem_size` variables — chosen by
//! flip-impact ranking — clamp the remaining variables, optimise each
//! sub-QUBO with a (tabu) subsolver, and write improvements back. The outer
//! loop perturbs the incumbent on stall, mimicking qbsolv's restart logic.
//!
//! The paper ran qbsolv with a *simulator backend* rather than quantum
//! hardware (§5 fn. 3); this implementation's tabu subsolver plays that
//! role.

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use mathkit::rng::derive_rng;
use qubo::{QuboBuilder, QuboModel, QuboState};

use crate::parallel::parallel_map_with;
use crate::sample::{Sample, SampleSet};
use crate::tabu::{TabuConfig, TabuSearch};
use crate::Solver;

/// Configuration for [`Qbsolv`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QbsolvConfig {
    /// maximum variables per sub-QUBO (hardware-embeddable size)
    pub subproblem_size: usize,
    /// outer decomposition passes per replica
    pub max_passes: usize,
    /// passes without improvement before the incumbent is perturbed
    pub stall_passes: usize,
    /// fraction of variables flipped on perturbation
    pub perturb_fraction: f64,
    /// subsolver settings for each sub-QUBO
    pub tabu: TabuConfig,
}

impl Default for QbsolvConfig {
    fn default() -> Self {
        QbsolvConfig {
            subproblem_size: 48,
            max_passes: 12,
            stall_passes: 3,
            perturb_fraction: 0.15,
            tabu: TabuConfig {
                max_iters: 500,
                stall_limit: 120,
                tenure: None,
            },
        }
    }
}

/// The qbsolv decomposition hybrid solver.
///
/// # Examples
///
/// ```
/// use qubo::QuboBuilder;
/// use solvers::{qbsolv::Qbsolv, Solver};
/// let mut b = QuboBuilder::new(4);
/// for i in 0..4 {
///     b.add_linear(i, -1.0);
/// }
/// let model = b.build();
/// let set = Qbsolv::default().sample(&model, 2, 3);
/// assert_eq!(set.best().unwrap().energy, -4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Qbsolv {
    config: QbsolvConfig,
}

impl Qbsolv {
    /// Creates a solver with the given configuration.
    pub fn new(config: QbsolvConfig) -> Self {
        Qbsolv { config }
    }

    /// Extracts the sub-QUBO over `vars` with every other variable clamped
    /// to its value in `state`. Clamped couplings fold into the sub-model's
    /// linear terms; the clamped-part energy goes into the offset so that
    /// sub-model energies equal full-model energies.
    ///
    /// The offset — the full-model energy with every free variable zeroed —
    /// is derived from the incremental state's cached energy and local
    /// fields in O(Σ deg(vars)) instead of a full `model.energy()` pass:
    /// subtracting the field of each switched-on free variable removes its
    /// linear term and clamped couplings once, but removes free–free
    /// couplings twice, so those are added back while the neighbour scan
    /// runs anyway.
    ///
    /// `index_of` is caller-owned scratch of length `num_vars` with every
    /// entry `usize::MAX`; it is restored to that state before returning,
    /// so one allocation serves every chunk of every pass.
    fn sub_qubo(
        model: &QuboModel,
        state: &QuboState<'_>,
        vars: &[usize],
        index_of: &mut [usize],
    ) -> QuboModel {
        debug_assert!(index_of.iter().all(|&s| s == usize::MAX));
        for (k, &v) in vars.iter().enumerate() {
            index_of[v] = k;
        }
        let mut b = QuboBuilder::new(vars.len());
        let mut offset = state.energy();
        for (k, &i) in vars.iter().enumerate() {
            let i_on = state.bit(i) != 0;
            if i_on {
                offset -= state.field(i);
            }
            // Linear term: l_i plus couplings to clamped-on neighbours.
            let mut lin = model.linear(i);
            for (j, w) in model.neighbors(i) {
                let j = j as usize;
                let slot = index_of[j];
                if slot == usize::MAX {
                    if state.bit(j) != 0 {
                        lin += w;
                    }
                } else if slot > k {
                    b.add_quadratic(k, slot, w);
                    if i_on && state.bit(j) != 0 {
                        offset += w; // double-subtracted free–free coupling
                    }
                }
            }
            b.add_linear(k, lin);
        }
        b.add_offset(offset);
        for &v in vars {
            index_of[v] = usize::MAX;
        }
        b.build()
    }

    fn run_replica(&self, state: &mut QuboState<'_>, index_of: &mut [usize], seed: u64) -> Sample {
        let model = state.model();
        let n = model.num_vars();
        let mut rng = derive_rng(seed, 0x9B);
        state.randomize(&mut rng);
        let mut best_x = state.assignment().to_vec();
        let mut best_e = state.energy();
        let tabu = TabuSearch::new(self.config.tabu);
        let k = self.config.subproblem_size.max(1).min(n.max(1));
        let mut stall = 0usize;

        for pass in 0..self.config.max_passes {
            // Rank variables by flip impact (|ΔE|), descending — qbsolv's
            // "most promising variables first" selection.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                state
                    .flip_delta(b)
                    .abs()
                    .partial_cmp(&state.flip_delta(a).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let improved_before = best_e;
            for chunk in order.chunks(k) {
                let vars: Vec<usize> = chunk.to_vec();
                let sub = Self::sub_qubo(model, state, &vars, index_of);
                let sub_start: Vec<u8> = vars.iter().map(|&v| state.bit(v)).collect();
                let result = tabu.improve(
                    &sub,
                    sub_start,
                    mathkit::rng::derive_seed(seed, 1000 + pass as u64),
                );
                // Write back only if the sub-solution improves the whole.
                let current_e = state.energy();
                if result.energy < current_e - 1e-12 {
                    for (slot, &v) in vars.iter().enumerate() {
                        if state.bit(v) != result.assignment[slot] {
                            state.flip(v);
                        }
                    }
                    debug_assert!((state.energy() - result.energy).abs() < 1e-6);
                }
                if state.energy() < best_e - 1e-12 {
                    best_e = state.energy();
                    best_x.copy_from_slice(state.assignment());
                }
            }
            if best_e >= improved_before - 1e-12 {
                stall += 1;
                if stall >= self.config.stall_passes {
                    // Perturb: restart the walk from a shaken incumbent.
                    let flips = ((n as f64) * self.config.perturb_fraction).ceil() as usize;
                    let mut shaken = best_x.clone();
                    let mut idx: Vec<usize> = (0..n).collect();
                    idx.shuffle(&mut rng);
                    for &i in idx.iter().take(flips.min(n)) {
                        shaken[i] ^= 1;
                    }
                    state.reset(shaken);
                    stall = 0;
                }
            } else {
                stall = 0;
            }
        }
        Sample {
            assignment: best_x,
            energy: best_e,
        }
    }
}

impl Solver for Qbsolv {
    fn name(&self) -> &str {
        "qbsolv"
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
        let samples = parallel_map_with(
            batch,
            || {
                (
                    QuboState::new(model, vec![0; model.num_vars()]),
                    vec![usize::MAX; model.num_vars()],
                )
            },
            |(state, index_of), replica| {
                self.run_replica(
                    state,
                    index_of,
                    mathkit::rng::derive_seed(seed, replica as u64),
                )
            },
        );
        let set = SampleSet::from_samples(samples);
        // Sub-QUBO refinement sweeps are attributed to `tabu` by the
        // embedded refiner; qbsolv records only the end-to-end duration.
        crate::metrics::record_sample("qbsolv", sw.elapsed_ns(), 0, 0);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::rng::seeded_rng;
    use qubo::QuboBuilder;
    use rand::Rng;

    fn random_model(n: usize, seed: u64) -> QuboModel {
        let mut rng = seeded_rng(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.gen_range(-1.0..1.0));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.3 {
                    b.add_quadratic(i, j, rng.gen_range(-1.0..1.0));
                }
            }
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
    fn matches_exact_on_small_models() {
        for seed in 0..3 {
            let m = random_model(12, seed);
            let truth = exact_minimum(&m);
            let set = Qbsolv::default().sample(&m, 4, seed);
            assert!(
                (set.best().unwrap().energy - truth).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                set.best().unwrap().energy,
                truth
            );
        }
    }

    #[test]
    fn decomposition_actually_splits() {
        // Force subproblems smaller than the model to exercise sub_qubo.
        let m = random_model(16, 9);
        let truth = exact_minimum(&m);
        let cfg = QbsolvConfig {
            subproblem_size: 5,
            max_passes: 20,
            ..Default::default()
        };
        let set = Qbsolv::new(cfg).sample(&m, 4, 1);
        assert!((set.best().unwrap().energy - truth).abs() < 1e-9);
    }

    #[test]
    fn sub_qubo_energy_identity() {
        // For any sub-assignment, sub-model energy == full-model energy
        // with the complement clamped.
        let m = random_model(10, 4);
        let mut rng = seeded_rng(3);
        let x: Vec<u8> = (0..10).map(|_| rng.gen_range(0..2)).collect();
        let state = QuboState::new(&m, x.clone());
        let vars = vec![1usize, 4, 7];
        let mut index_of = vec![usize::MAX; 10];
        let sub = Qbsolv::sub_qubo(&m, &state, &vars, &mut index_of);
        // Scratch restored for the next chunk.
        assert!(index_of.iter().all(|&s| s == usize::MAX));
        for bits in 0..8u8 {
            let sub_x: Vec<u8> = (0..3).map(|k| (bits >> k) & 1).collect();
            let mut full_x = x.clone();
            for (k, &v) in vars.iter().enumerate() {
                full_x[v] = sub_x[k];
            }
            assert!(
                (sub.energy(&sub_x) - m.energy(&full_x)).abs() < 1e-9,
                "bits={bits}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = random_model(14, 5);
        let q = Qbsolv::default();
        assert_eq!(q.sample(&m, 3, 42), q.sample(&m, 3, 42));
    }

    #[test]
    fn energies_consistent_with_assignments() {
        let m = random_model(14, 6);
        for s in Qbsolv::default().sample(&m, 4, 8).iter() {
            assert!((m.energy(&s.assignment) - s.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_model() {
        let m = QuboBuilder::new(0).build();
        let set = Qbsolv::default().sample(&m, 2, 1);
        assert_eq!(set.len(), 2);
    }
}
