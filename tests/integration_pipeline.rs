//! End-to-end pipeline integration: train a surrogate on real solver data
//! at micro scale and check the paper's qualitative claims hold.

use qross_repro::problems::tsp::heuristics;
use qross_repro::qross::collect::observe;
use qross_repro::qross::eval::{gap_curve, run_strategy};
use qross_repro::qross::pipeline::{Pipeline, PipelineConfig, A_DOMAIN};
use qross_repro::qross::strategy::{mfs, pbs, ComposedStrategy, TunerStrategy};
use qross_repro::qross::surrogate::SurrogateState;
use qross_repro::qross::Surrogate;
use qross_repro::solvers::sa::{SaConfig, SimulatedAnnealer};
use qross_repro::tuners::RandomSearch;
use qross_store::Artifact;

fn solver() -> SimulatedAnnealer {
    SimulatedAnnealer::new(SaConfig {
        sweeps: 64,
        ..Default::default()
    })
}

/// One shared pipeline run for the whole test binary — training is the
/// expensive step and is identical (deterministic) for every test.
fn trained() -> &'static qross_repro::qross::pipeline::TrainedQross {
    use std::sync::OnceLock;
    static TRAINED: OnceLock<qross_repro::qross::pipeline::TrainedQross> = OnceLock::new();
    TRAINED.get_or_init(|| {
        Pipeline::new(PipelineConfig::micro())
            .try_run(&solver())
            .expect("micro pipeline trains")
    })
}

/// The paper's claim for MFS: the first, surrogate-only proposal is
/// already a *good* parameter. Measured operationally: the solution found
/// at the MFS-proposed `A` must (a) be feasible and (b) come close to the
/// best solution obtainable from a dense 8-point `A` grid costing 8× the
/// solver budget.
#[test]
fn mfs_proposal_is_competitive() {
    let trained = trained();
    let s = solver();
    let batch = 24;
    let mut competitive = 0;
    let total = trained.test_encodings.len();
    for (i, enc) in trained.test_encodings.iter().enumerate() {
        let features = trained.featurizer.extract(enc.qubo_instance());
        let m = mfs::propose(&trained.surrogate, &features, A_DOMAIN, batch).expect("MFS proposes");
        // Proposals must not be stuck at the search-domain edges (the
        // extrapolation failure mode guarded by the trained-support clamp).
        assert!(
            m.x > A_DOMAIN.0 * 1.01 && m.x < A_DOMAIN.1 * 0.99,
            "edge proposal {}",
            m.x
        );
        let at_mfs = observe(enc, &s, m.x, batch, 11 + i as u64);
        // Dense grid reference: the best fitness reachable with 8 calls.
        let mut grid_best = f64::INFINITY;
        for k in 0..8 {
            let a = 0.2 * (20.0f64 / 0.2).powf(k as f64 / 7.0) / 4.0; // 0.05 … 5
            let obs = observe(enc, &s, a, batch, 900 + (i * 10 + k) as u64);
            if let Some(f) = obs.best_fitness {
                grid_best = grid_best.min(f);
            }
        }
        if let Some(f) = at_mfs.best_fitness {
            if f <= grid_best * 1.1 + 1e-9 {
                competitive += 1;
            }
        }
    }
    assert!(
        competitive * 2 > total,
        "only {competitive}/{total} MFS proposals were competitive with an 8-call grid"
    );
}

/// PBS proposals must order correctly (higher target Pf → larger A) and
/// produce measured feasibility in the right neighbourhood.
#[test]
fn pbs_targets_order_and_hit() {
    let trained = trained();
    let s = solver();
    let enc = &trained.test_encodings[0];
    let features = trained.featurizer.extract(enc.qubo_instance());
    let a20 = pbs::propose(&trained.surrogate, &features, A_DOMAIN, 0.2).unwrap();
    let a80 = pbs::propose(&trained.surrogate, &features, A_DOMAIN, 0.8).unwrap();
    assert!(
        a80 > a20,
        "PBS ordering violated: A(0.8)={a80} <= A(0.2)={a20}"
    );
    let pf80 = observe(enc, &s, a80, 48, 13).pf;
    let pf20 = observe(enc, &s, a20, 48, 13).pf;
    assert!(
        pf80 > pf20,
        "measured Pf ordering violated: {pf80} <= {pf20}"
    );
}

/// Fig.-3 shape at micro scale: the composed QROSS strategy's first-trial
/// gap (averaged over test instances) beats random search's first trial.
#[test]
fn qross_first_trial_beats_random() {
    let trained = trained();
    let s = solver();
    let batch = 12;
    let trials = 5;
    let mut qross_first = Vec::new();
    let mut random_first = Vec::new();
    for (idx, enc) in trained.test_encodings.iter().enumerate() {
        let inst = enc.fitness_instance();
        let (_, reference) = heuristics::reference_tour(inst, 6);
        let nn = inst.tour_length(&heuristics::nearest_neighbor(inst, 0));
        let fallback = nn.max(reference) * 1.5;
        let features = trained.featurizer.extract(enc.qubo_instance());

        let mut qross =
            ComposedStrategy::new(&trained.surrogate, features, A_DOMAIN, batch, idx as u64);
        let run = run_strategy(enc, &s, &mut qross, trials, batch, 100 + idx as u64);
        qross_first.push(gap_curve(&run, reference, fallback)[0]);

        let mut random = TunerStrategy::new(
            RandomSearch::new(A_DOMAIN.0, A_DOMAIN.1, idx as u64),
            fallback,
        );
        let run = run_strategy(enc, &s, &mut random, trials, batch, 100 + idx as u64);
        random_first.push(gap_curve(&run, reference, fallback)[0]);
    }
    let qross_mean: f64 = qross_first.iter().sum::<f64>() / qross_first.len() as f64;
    let random_mean: f64 = random_first.iter().sum::<f64>() / random_first.len() as f64;
    assert!(
        qross_mean < random_mean,
        "QROSS first-trial mean gap {qross_mean:.4} !< random {random_mean:.4}"
    );
}

/// Gap curves never increase (best-so-far semantics) for any strategy.
#[test]
fn gap_curves_monotone_for_all_strategies() {
    let trained = trained();
    let s = solver();
    let enc = &trained.test_encodings[1];
    let inst = enc.fitness_instance();
    let (_, reference) = heuristics::reference_tour(inst, 6);
    let fallback = reference * 3.0;
    let features = trained.featurizer.extract(enc.qubo_instance());
    let mut strategy = ComposedStrategy::new(&trained.surrogate, features, A_DOMAIN, 12, 5);
    let run = run_strategy(enc, &s, &mut strategy, 8, 12, 55);
    let curve = gap_curve(&run, reference, fallback);
    for w in curve.windows(2) {
        assert!(w[1] <= w[0] + 1e-12, "curve rose: {curve:?}");
    }
}

/// Surrogate persistence integrates with the strategies: a reloaded
/// surrogate proposes the same parameters.
#[test]
fn persisted_surrogate_reproduces_proposals() {
    let trained = trained();
    let enc = &trained.test_encodings[0];
    let features = trained.featurizer.extract(enc.qubo_instance());
    let a_before = mfs::propose(&trained.surrogate, &features, A_DOMAIN, 12)
        .unwrap()
        .x;
    let bytes = trained.surrogate.to_state().to_store_bytes();
    let state = SurrogateState::from_store_bytes(&bytes).expect("reloads");
    let reloaded = Surrogate::from_state(state).unwrap();
    let a_after = mfs::propose(&reloaded, &features, A_DOMAIN, 12).unwrap().x;
    assert!((a_before - a_after).abs() < 1e-12);
}
