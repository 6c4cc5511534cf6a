//! Single-flip tabu search.
//!
//! The qbsolv hybrid (Booth et al. 2017) uses tabu search as its classical
//! subsolver; this implementation follows the standard scheme: at each
//! iteration the best non-tabu flip is applied (even if uphill), the
//! flipped variable becomes tabu for `tenure` iterations, and the
//! *aspiration criterion* overrides tabu status for moves that would beat
//! the global incumbent. Search stops after `max_iters` iterations or
//! `stall_limit` iterations without improving the incumbent.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mathkit::rng::derive_rng;
use qubo::{QuboModel, QuboState};

use crate::parallel::parallel_map_with;
use crate::sample::{Sample, SampleSet};
use crate::Solver;

/// Configuration for [`TabuSearch`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TabuConfig {
    /// hard iteration cap per replica
    pub max_iters: usize,
    /// stop after this many non-improving iterations
    pub stall_limit: usize,
    /// tabu tenure; `None` uses the common `min(20, n/4) + 1` heuristic
    pub tenure: Option<usize>,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            max_iters: 2000,
            stall_limit: 300,
            tenure: None,
        }
    }
}

/// Best-improvement tabu search with aspiration.
///
/// # Examples
///
/// ```
/// use qubo::QuboBuilder;
/// use solvers::{tabu::TabuSearch, Solver};
/// let mut b = QuboBuilder::new(3);
/// b.add_linear(1, -1.0);
/// let model = b.build();
/// let set = TabuSearch::default().sample(&model, 2, 5);
/// assert_eq!(set.best().unwrap().energy, -1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TabuSearch {
    config: TabuConfig,
}

impl TabuSearch {
    /// Creates a solver with the given configuration.
    pub fn new(config: TabuConfig) -> Self {
        TabuSearch { config }
    }

    fn tenure_for(&self, n: usize) -> usize {
        self.config.tenure.unwrap_or_else(|| (n / 4).min(20) + 1)
    }

    /// Runs tabu search from the given start state (used directly by
    /// qbsolv for sub-QUBO refinement). Returns the best assignment found
    /// and its energy.
    pub fn improve(&self, model: &QuboModel, start: Vec<u8>, seed: u64) -> Sample {
        if model.num_vars() == 0 {
            return Sample {
                assignment: start,
                energy: model.offset(),
            };
        }
        let mut state = QuboState::new(model, start);
        let mut best_x = Vec::new();
        let mut tabu_until = Vec::new();
        self.search(&mut state, &mut best_x, &mut tabu_until, seed)
    }

    /// Core loop on an already-initialised state (scratch-reuse entry
    /// point). The iteration scans the maintained flip-delta vector (O(1)
    /// per candidate), commits one O(degree) flip, and tracks the incumbent
    /// from the cached energy — no full `model.energy()` inside the loop.
    fn search(
        &self,
        state: &mut QuboState<'_>,
        best_x: &mut Vec<u8>,
        tabu_until: &mut Vec<usize>,
        seed: u64,
    ) -> Sample {
        let n = state.model().num_vars();
        let mut rng = derive_rng(seed, 0x7AB);
        let tenure = self.tenure_for(n);
        best_x.clear();
        best_x.extend_from_slice(state.assignment());
        let mut best_e = state.energy();
        tabu_until.clear();
        tabu_until.resize(n, 0usize);
        let mut stall = 0usize;
        let mut iters_done = 0usize;
        for iter in 1..=self.config.max_iters {
            iters_done = iter;
            // Best admissible flip: non-tabu, or tabu-but-aspiring.
            let mut chosen: Option<(usize, f64)> = None;
            let mut ties = 0u32;
            let current_e = state.energy();
            for (i, &delta) in state.flip_deltas().iter().enumerate() {
                let aspires = current_e + delta < best_e - 1e-12;
                if tabu_until[i] > iter && !aspires {
                    continue;
                }
                match chosen {
                    None => {
                        chosen = Some((i, delta));
                        ties = 1;
                    }
                    Some((_, cur)) => {
                        if delta < cur - 1e-15 {
                            chosen = Some((i, delta));
                            ties = 1;
                        } else if (delta - cur).abs() <= 1e-15 {
                            // Reservoir-style random tie-breaking keeps
                            // replicas from marching in lockstep.
                            ties += 1;
                            if rng.gen_ratio(1, ties) {
                                chosen = Some((i, delta));
                            }
                        }
                    }
                }
            }
            let Some((i, _)) = chosen else {
                break; // everything tabu (tiny n): bail out
            };
            state.flip(i);
            tabu_until[i] = iter + tenure;
            if state.energy() < best_e - 1e-12 {
                best_e = state.energy();
                best_x.copy_from_slice(state.assignment());
                stall = 0;
            } else {
                stall += 1;
                if stall >= self.config.stall_limit {
                    break;
                }
            }
        }
        // Iteration count is adaptive (stall cutoff, all-tabu bail), so
        // the work is counted here where it's known: one iteration scans
        // all `n` maintained flip-deltas. Covers `improve()` too —
        // qbsolv's sub-QUBO refinements are real tabu sweeps.
        crate::metrics::record_sweeps("tabu", iters_done as u64, (iters_done * n) as u64);
        Sample {
            assignment: best_x.clone(),
            energy: best_e,
        }
    }
}

impl Solver for TabuSearch {
    fn name(&self) -> &str {
        "tabu"
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        let sw = obs::Stopwatch::start();
        let n = model.num_vars();
        if n == 0 {
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
            || (QuboState::new(model, vec![0; n]), Vec::new(), Vec::new()),
            |(state, best_x, tabu_until), replica| {
                let rs = mathkit::rng::derive_seed(seed, replica as u64);
                let mut rng = derive_rng(rs, 0x57A27);
                state.randomize(&mut rng);
                self.search(state, best_x, tabu_until, rs)
            },
        );
        let set = SampleSet::from_samples(samples);
        // Sweep/eval counters are bumped inside `search` (adaptive
        // iteration count); only the duration is recorded here.
        crate::metrics::record_sample("tabu", sw.elapsed_ns(), 0, 0);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::QuboBuilder;

    fn bumpy10() -> QuboModel {
        let mut b = QuboBuilder::new(10);
        for i in 0..10 {
            b.add_linear(i, ((i as f64) * 1.3).sin());
        }
        for i in 0..10 {
            for j in (i + 1)..10 {
                if (i + j) % 3 == 0 {
                    b.add_quadratic(i, j, ((i * j) as f64 * 0.7).cos());
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
    fn reaches_ground_state() {
        let m = bumpy10();
        let truth = exact_minimum(&m);
        let set = TabuSearch::default().sample(&m, 8, 3);
        assert!((set.best().unwrap().energy - truth).abs() < 1e-9);
    }

    #[test]
    fn improve_never_worsens() {
        let m = bumpy10();
        let start = vec![0u8; 10];
        let e0 = m.energy(&start);
        let out = TabuSearch::default().improve(&m, start, 1);
        assert!(out.energy <= e0 + 1e-12);
        assert!((m.energy(&out.assignment) - out.energy).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = bumpy10();
        let t = TabuSearch::default();
        assert_eq!(t.sample(&m, 4, 77), t.sample(&m, 4, 77));
    }

    #[test]
    fn escapes_local_minimum_uphill() {
        // Two-well model where the greedy descent from [0,0] stops at the
        // local optimum; tabu's forced uphill moves must cross the barrier.
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, 3.0);
        b.add_linear(1, 3.0);
        b.add_quadratic(0, 1, -7.0);
        let m = b.build();
        let out = TabuSearch::default().improve(&m, vec![0, 0], 5);
        assert_eq!(out.energy, -1.0); // global optimum [1,1]
    }

    #[test]
    fn zero_iterations_returns_start() {
        let m = bumpy10();
        let cfg = TabuConfig {
            max_iters: 0,
            ..Default::default()
        };
        let start = vec![1u8; 10];
        let out = TabuSearch::new(cfg).improve(&m, start.clone(), 1);
        assert_eq!(out.assignment, start);
    }

    #[test]
    fn empty_model_ok() {
        let m = QuboBuilder::new(0).build();
        let out = TabuSearch::default().improve(&m, Vec::new(), 1);
        assert_eq!(out.energy, 0.0);
    }

    #[test]
    fn stall_limit_terminates_early() {
        let m = bumpy10();
        let cfg = TabuConfig {
            max_iters: 1_000_000,
            stall_limit: 5,
            tenure: Some(3),
        };
        // Must finish quickly despite the huge iteration cap.
        let out = TabuSearch::new(cfg).improve(&m, vec![0; 10], 2);
        assert!(out.energy.is_finite());
    }
}
