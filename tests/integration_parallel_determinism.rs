//! Thread-count invariance of the parallel collection & evaluation engine:
//! the same inputs must produce **byte-identical** datasets, surrogates
//! and strategy runs at 1, 2 and 8 workers (workers beyond the machine's
//! core count still exercise the chunked path — chunk assignment depends
//! only on `(task count, workers)`).

use qross_repro::problems::tsp::generator::{generate_instance, GeneratorConfig};
use qross_repro::problems::TspEncoding;
use qross_repro::qross::collect::CollectConfig;
use qross_repro::qross::eval::{run_strategy_grid, StrategyRun};
use qross_repro::qross::pipeline::{collect_dataset, Pipeline, PipelineConfig};
use qross_repro::qross::strategy::{ProposalStrategy, TunerStrategy};
use qross_repro::solvers::sa::{SaConfig, SimulatedAnnealer};
use qross_repro::tuners::RandomSearch;
use qross_store::Artifact;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn encodings(count: usize) -> Vec<TspEncoding> {
    let cfg = GeneratorConfig {
        min_cities: 8,
        max_cities: 9,
        ..Default::default()
    };
    (0..count)
        .map(|k| TspEncoding::preprocessed(generate_instance(&cfg, 400 + k as u64, 0)))
        .collect()
}

fn solver() -> SimulatedAnnealer {
    SimulatedAnnealer::new(SaConfig {
        sweeps: 48,
        ..Default::default()
    })
}

fn featurize(enc: &TspEncoding) -> Vec<f64> {
    vec![enc.num_cities() as f64]
}

#[test]
fn collection_is_worker_count_invariant() {
    let problems = encodings(6);
    let s = solver();
    let cfg = CollectConfig {
        batch: 12,
        sweep_points: 6,
        ..Default::default()
    };
    let reference = collect_dataset(&problems, featurize, 1, &cfg, &s, 21, 1);
    assert!(!reference.is_empty());
    for workers in WORKER_COUNTS {
        let ds = collect_dataset(&problems, featurize, 1, &cfg, &s, 21, workers);
        assert_eq!(ds, reference, "dataset diverged at {workers} workers");
    }
    // Auto (one worker per core) matches too.
    assert_eq!(
        collect_dataset(&problems, featurize, 1, &cfg, &s, 21, 0),
        reference
    );
}

#[test]
fn eval_grid_is_worker_count_invariant() {
    let problems = encodings(3);
    let s = solver();
    let make = |strat: usize, _idx: usize, cell_seed: u64| -> Box<dyn ProposalStrategy> {
        Box::new(TunerStrategy::new(
            RandomSearch::new(0.05, 20.0, cell_seed.rotate_left(strat as u32)),
            1e6,
        ))
    };
    let run = |workers: usize| -> Vec<Vec<StrategyRun>> {
        run_strategy_grid(&problems, &s, 2, make, 5, 10, 33, workers)
    };
    let reference = run(1);
    assert_eq!(reference.len(), 2);
    assert!(reference.iter().all(|row| row.len() == 3));
    assert!(reference.iter().flatten().all(|r| r.trials.len() == 5));
    for workers in WORKER_COUNTS {
        assert_eq!(
            run(workers),
            reference,
            "grid diverged at {workers} workers"
        );
    }
    assert_eq!(run(0), reference);
}

/// The full pipeline (collection + training) is invariant in the worker
/// knob: surrogates trained at different worker counts serialise to the
/// same `.qross` bytes (every weight as its exact bit pattern).
#[test]
fn trained_surrogate_is_worker_count_invariant() {
    let mut cfg = PipelineConfig::micro();
    cfg.train_instances = 6;
    cfg.test_instances = 2;
    cfg.surrogate.epochs = 40;
    let s = solver();
    let bytes_at = |workers: usize| {
        let mut c = cfg;
        c.workers = workers;
        Pipeline::new(c)
            .try_run(&s)
            .expect("micro pipeline trains")
            .surrogate
            .to_state()
            .to_store_bytes()
    };
    let reference = bytes_at(1);
    for workers in [2, 8, 0] {
        assert_eq!(
            bytes_at(workers),
            reference,
            "surrogate diverged at {workers} workers"
        );
    }
}
