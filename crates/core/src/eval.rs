//! Experiment harness: optimality-gap curves (paper Figs. 3–5, Table 1).
//!
//! The paper's metric: for each test instance, run a strategy for `T`
//! trials (each trial = one QUBO-solver call with the proposed `A`) and
//! plot the *normalised optimality gap* of the best fitness found so far,
//! `gap_t = (best_fitness_{≤t} − reference) / reference`, averaged across
//! instances with a 95% confidence band.
//!
//! Until a strategy finds its first feasible solution, its gap is the gap
//! of `fallback_fitness` (a deliberately weak classical tour — documented
//! in EXPERIMENTS.md; the paper does not specify its convention, and this
//! choice penalises infeasible-only prefixes without destroying the
//! curve's scale).
//!
//! # The parallel experiment engine
//!
//! An experiment figure costs `strategies × instances × trials` solver
//! calls. The trials of one `(strategy, instance)` cell are inherently
//! sequential — each proposal conditions on the previous observation — but
//! the cells themselves are independent, so [`run_strategy_grid`] fans the
//! whole grid across a worker pool while [`run_strategy`] stays the
//! sequential per-cell loop it always was.
//!
//! **Seed-derivation contract**: cell `(s, i)` always runs with seed
//! `derive_seed(seed, 9000 + i)` (shared by every strategy on instance
//! `i`, mirroring the benchmark harness), and each trial `t` inside a cell
//! with `derive_seed(cell_seed, 7000 + t)`. Nothing about the schedule
//! feeds the RNG streams.
//!
//! **Thread-count invariance**: because every cell is a pure function of
//! `(problem, solver, strategy factory, cell seed)` and results land in
//! their grid slot, the returned `StrategyRun`s are bit-identical for any
//! worker count — 1, 2, 8 or one-per-core ([`solvers::parallel`] holds the
//! same contract one level down for solver batches; nested fan-out inside
//! a busy worker automatically runs inline).

use serde::{Deserialize, Serialize};

use mathkit::stats::{mean_ci95, MeanCi};
use problems::RelaxableProblem;
use solvers::parallel::parallel_map_with_workers;
use solvers::Solver;

use crate::collect::{observe, SolverObservation};
use crate::strategy::ProposalStrategy;

/// The trial-by-trial record of one strategy on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyRun {
    /// strategy identifier
    pub strategy: String,
    /// instance identifier
    pub instance: String,
    /// per-trial solver outcomes, in order
    pub trials: Vec<SolverObservation>,
}

/// Drives `strategy` against `(problem, solver)` for `trials` trials.
///
/// Each trial performs exactly one solver call of `batch` samples — the
/// same cost accounting as the paper's x-axis ("number of trials a method
/// has taken").
pub fn run_strategy<P, S>(
    problem: &P,
    solver: &S,
    strategy: &mut dyn ProposalStrategy,
    trials: usize,
    batch: usize,
    seed: u64,
) -> StrategyRun
where
    P: RelaxableProblem + ?Sized,
    S: Solver + ?Sized,
{
    let mut outcomes = Vec::with_capacity(trials);
    for t in 0..trials {
        let a = strategy.propose(t);
        let outcome = observe(
            problem,
            solver,
            a,
            batch,
            mathkit::rng::derive_seed(seed, 7000 + t as u64),
        );
        strategy.observe(a, &outcome);
        outcomes.push(outcome);
    }
    StrategyRun {
        strategy: strategy.name().to_string(),
        instance: problem.name().to_string(),
        trials: outcomes,
    }
}

/// Runs a whole `(strategy × instance)` experiment grid concurrently.
///
/// `make_strategy(s, i, cell_seed)` builds a fresh strategy for cell
/// `(s, i)`; the cell then runs the ordinary sequential [`run_strategy`]
/// loop with `cell_seed = derive_seed(seed, 9000 + i)` (the same seed for
/// every strategy on one instance, so methods compete on identical solver
/// randomness). Results are returned as `out[s][i]`.
///
/// `workers` follows [`parallel_map_with_workers`]: `0` means one worker
/// per core, any other value is an exact worker count. The output is
/// **bit-identical for every worker count** — see the module docs for the
/// contract that guarantees it.
#[allow(clippy::too_many_arguments)] // experiment descriptor, not an API
pub fn run_strategy_grid<'s, P, S, F>(
    problems: &[P],
    solver: &S,
    strategies: usize,
    make_strategy: F,
    trials: usize,
    batch: usize,
    seed: u64,
    workers: usize,
) -> Vec<Vec<StrategyRun>>
where
    P: RelaxableProblem + Sync,
    S: Solver + ?Sized,
    F: Fn(usize, usize, u64) -> Box<dyn ProposalStrategy + 's> + Send + Sync,
{
    let n = problems.len();
    if n == 0 || strategies == 0 {
        return vec![Vec::new(); strategies];
    }
    let cells = parallel_map_with_workers(
        strategies * n,
        workers,
        || (),
        |(), cell| {
            let (s, i) = (cell / n, cell % n);
            let cell_seed = mathkit::rng::derive_seed(seed, 9000 + i as u64);
            let mut strategy = make_strategy(s, i, cell_seed);
            run_strategy(
                &problems[i],
                solver,
                strategy.as_mut(),
                trials,
                batch,
                cell_seed,
            )
        },
    );
    let mut grid: Vec<Vec<StrategyRun>> = vec![Vec::with_capacity(n); strategies];
    for (cell, run) in cells.into_iter().enumerate() {
        grid[cell / n].push(run);
    }
    grid
}

/// Converts a run into a best-so-far normalised-gap curve.
///
/// # Panics
///
/// Panics if `reference <= 0` or `fallback_fitness < reference`.
pub fn gap_curve(run: &StrategyRun, reference: f64, fallback_fitness: f64) -> Vec<f64> {
    assert!(reference > 0.0, "reference fitness must be positive");
    assert!(
        fallback_fitness >= reference,
        "fallback must not beat the reference"
    );
    let mut best = f64::INFINITY;
    run.trials
        .iter()
        .map(|o| {
            if let Some(f) = o.best_fitness {
                best = best.min(f);
            }
            let effective = if best.is_finite() {
                best
            } else {
                fallback_fitness
            };
            // The heuristic reference is near-optimal, not optimal: a
            // strategy can legitimately beat it, so clamp at zero like the
            // paper's plots (gap is measured towards near-optimal).
            ((effective - reference) / reference).max(0.0)
        })
        .collect()
}

/// Mean ± 95% CI per trial across instance gap curves (the aggregation in
/// Figs. 3–5).
///
/// No curves, or all-empty curves (a strategy whose every run recorded
/// zero trials), aggregate to an *empty* curve — never a NaN-filled one.
///
/// # Panics
///
/// Panics if curves have differing lengths.
pub fn aggregate_gap_curves(curves: &[Vec<f64>]) -> Vec<MeanCi> {
    if curves.is_empty() {
        return Vec::new();
    }
    let len = curves[0].len();
    assert!(
        curves.iter().all(|c| c.len() == len),
        "curves must share a length"
    );
    (0..len)
        .map(|t| {
            let column: Vec<f64> = curves.iter().map(|c| c[t]).collect();
            mean_ci95(&column)
        })
        .collect()
}

/// A labelled aggregate curve, ready for serialisation into experiment
/// outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodCurve {
    /// method name (`qross`, `tpe`, `bo`, `random`)
    pub method: String,
    /// per-trial mean gap
    pub mean: Vec<f64>,
    /// per-trial 95% CI half-width
    pub ci95: Vec<f64>,
}

impl MethodCurve {
    /// Builds a labelled curve from aggregated statistics.
    pub fn from_cis(method: &str, cis: &[MeanCi]) -> Self {
        MethodCurve {
            method: method.to_string(),
            mean: cis.iter().map(|c| c.mean).collect(),
            ci95: cis.iter().map(|c| c.half_width).collect(),
        }
    }

    /// Gap at a 1-based trial number (the paper's Table 1 reports #3 and
    /// #20), clamped to the available length. Returns NaN for an empty
    /// curve (an all-empty strategy run) instead of panicking.
    pub fn gap_at_trial(&self, trial_1based: usize) -> f64 {
        if self.mean.is_empty() {
            return f64::NAN;
        }
        let idx = trial_1based.saturating_sub(1).min(self.mean.len() - 1);
        self.mean[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::TunerStrategy;
    use problems::{RelaxableProblem, TspEncoding, TspInstance};
    use solvers::sa::{SaConfig, SimulatedAnnealer};
    use tuners::RandomSearch;

    fn tiny_problem() -> TspEncoding {
        TspEncoding::preprocessed(TspInstance::from_coords(
            "t5",
            &[(0.0, 0.0), (2.0, 0.5), (3.0, 2.5), (0.8, 3.0), (-1.0, 1.2)],
        ))
    }

    fn fast_solver() -> SimulatedAnnealer {
        SimulatedAnnealer::new(SaConfig {
            sweeps: 48,
            ..Default::default()
        })
    }

    #[test]
    fn run_strategy_produces_full_record() {
        let p = tiny_problem();
        let s = fast_solver();
        let mut strat = TunerStrategy::new(RandomSearch::new(0.05, 20.0, 3), 1e6);
        let run = run_strategy(&p, &s, &mut strat, 6, 8, 42);
        assert_eq!(run.trials.len(), 6);
        assert_eq!(run.strategy, "random");
        assert_eq!(run.instance, p.name());
    }

    #[test]
    fn gap_curve_monotone_nonincreasing() {
        let p = tiny_problem();
        let s = fast_solver();
        let mut strat = TunerStrategy::new(RandomSearch::new(0.05, 20.0, 1), 1e6);
        let run = run_strategy(&p, &s, &mut strat, 8, 8, 7);
        let (_, reference) = problems::tsp::heuristics::reference_tour(p.fitness_instance(), 5);
        let fallback = reference * 3.0;
        let curve = gap_curve(&run, reference, fallback);
        assert_eq!(curve.len(), 8);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "gap increased: {curve:?}");
        }
        assert!(curve.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn infeasible_prefix_uses_fallback() {
        let run = StrategyRun {
            strategy: "x".to_string(),
            instance: "i".to_string(),
            trials: vec![
                SolverObservation {
                    a: 0.1,
                    pf: 0.0,
                    e_avg: 0.0,
                    e_std: 0.0,
                    best_fitness: None,
                    min_energy: 0.0,
                },
                SolverObservation {
                    a: 1.0,
                    pf: 0.5,
                    e_avg: 0.0,
                    e_std: 0.0,
                    best_fitness: Some(12.0),
                    min_energy: 0.0,
                },
            ],
        };
        let curve = gap_curve(&run, 10.0, 30.0);
        assert!((curve[0] - 2.0).abs() < 1e-12); // (30-10)/10
        assert!((curve[1] - 0.2).abs() < 1e-12); // (12-10)/10
    }

    #[test]
    fn better_than_reference_clamps_to_zero() {
        let run = StrategyRun {
            strategy: "x".to_string(),
            instance: "i".to_string(),
            trials: vec![SolverObservation {
                a: 1.0,
                pf: 1.0,
                e_avg: 0.0,
                e_std: 0.0,
                best_fitness: Some(9.0),
                min_energy: 0.0,
            }],
        };
        let curve = gap_curve(&run, 10.0, 30.0);
        assert_eq!(curve[0], 0.0);
    }

    #[test]
    fn aggregation_and_table_lookup() {
        let curves = vec![
            vec![0.2, 0.1, 0.1],
            vec![0.4, 0.3, 0.1],
            vec![0.3, 0.2, 0.1],
        ];
        let cis = aggregate_gap_curves(&curves);
        assert_eq!(cis.len(), 3);
        assert!((cis[0].mean - 0.3).abs() < 1e-12);
        assert!((cis[2].mean - 0.1).abs() < 1e-12);
        assert!(cis[0].half_width > 0.0);
        let mc = MethodCurve::from_cis("test", &cis);
        assert_eq!(mc.gap_at_trial(1), cis[0].mean);
        assert_eq!(mc.gap_at_trial(3), cis[2].mean);
        assert_eq!(mc.gap_at_trial(99), cis[2].mean); // clamped
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn aggregation_rejects_ragged() {
        let _ = aggregate_gap_curves(&[vec![0.1], vec![0.1, 0.2]]);
    }

    #[test]
    fn empty_runs_do_not_panic_or_nan() {
        // Regression: an empty trials vec used to underflow
        // `trials.len() - 1` and panic.
        let empty = StrategyRun {
            strategy: "x".to_string(),
            instance: "i".to_string(),
            trials: Vec::new(),
        };
        assert!(gap_curve(&empty, 10.0, 30.0).is_empty());
        // All-empty strategy runs aggregate to an empty curve, not NaN.
        let cis = aggregate_gap_curves(&[Vec::new(), Vec::new()]);
        assert!(cis.is_empty());
        assert!(aggregate_gap_curves(&[]).is_empty());
        let mc = MethodCurve::from_cis("x", &cis);
        assert!(mc.mean.is_empty());
        assert!(mc.gap_at_trial(3).is_nan());
    }

    #[test]
    fn grid_matches_sequential_loop() {
        let p1 = tiny_problem();
        let p2 = TspEncoding::preprocessed(TspInstance::from_coords(
            "t5b",
            &[(0.0, 0.1), (1.8, 0.0), (2.9, 2.2), (1.1, 3.1), (-0.9, 1.4)],
        ));
        let problems = [p1, p2];
        let s = fast_solver();
        let make = |strat: usize, _inst: usize, cell_seed: u64| -> Box<dyn ProposalStrategy> {
            let salt = if strat == 0 { 3u64 } else { 7u64 };
            Box::new(TunerStrategy::new(
                RandomSearch::new(0.05, 20.0, cell_seed.wrapping_add(salt)),
                1e6,
            ))
        };
        let grid = run_strategy_grid(&problems, &s, 2, make, 4, 8, 42, 0);
        assert_eq!(grid.len(), 2);
        // Every cell equals its standalone sequential run.
        for (si, row) in grid.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (pi, run) in row.iter().enumerate() {
                let cell_seed = mathkit::rng::derive_seed(42, 9000 + pi as u64);
                let mut strat = make(si, pi, cell_seed);
                let want = run_strategy(&problems[pi], &s, strat.as_mut(), 4, 8, cell_seed);
                assert_eq!(run, &want, "cell ({si}, {pi}) diverged");
            }
        }
        // Empty grids are well-formed.
        let empty: Vec<Vec<StrategyRun>> =
            run_strategy_grid(&[] as &[TspEncoding], &s, 2, make, 4, 8, 1, 0);
        assert_eq!(empty, vec![Vec::new(), Vec::new()]);
    }
}
