//! Micro-benchmarks of the solver substrates: one solver call on a small
//! TSP QUBO for each backend, the Digital Annealer call at `tune-tsp`'s
//! shape, plus the incremental-evaluation primitive.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bench::experiments::micro_encoding;
use problems::RelaxableProblem;
use qubo::QuboState;
use solvers::da::{DaConfig, DigitalAnnealer};
use solvers::qbsolv::{Qbsolv, QbsolvConfig};
use solvers::sa::{SaConfig, SimulatedAnnealer};
use solvers::tabu::{TabuConfig, TabuSearch};
use solvers::Solver;

fn bench_solvers(c: &mut Criterion) {
    let encoding = micro_encoding(8, 42);
    let qubo = encoding.to_qubo(2.0);
    let mut group = c.benchmark_group("solver_call_64vars_batch8");

    let sa = SimulatedAnnealer::new(SaConfig {
        sweeps: 64,
        ..Default::default()
    });
    group.bench_function("sa", |b| b.iter(|| sa.sample(&qubo, 8, 1)));

    let da = DigitalAnnealer::new(DaConfig {
        steps: 500,
        ..Default::default()
    });
    group.bench_function("da", |b| b.iter(|| da.sample(&qubo, 8, 1)));

    let tabu = TabuSearch::new(TabuConfig {
        max_iters: 200,
        stall_limit: 60,
        tenure: None,
    });
    group.bench_function("tabu", |b| b.iter(|| tabu.sample(&qubo, 8, 1)));

    let qbsolv = Qbsolv::new(QbsolvConfig {
        subproblem_size: 24,
        max_passes: 4,
        ..Default::default()
    });
    group.bench_function("qbsolv", |b| b.iter(|| qbsolv.sample(&qubo, 8, 1)));
    group.finish();
}

/// The Digital Annealer call `tune-tsp` makes at quick scale: a 10-city
/// TSP QUBO (100 variables), 1200 steps, 24 replicas.
fn bench_da_tune_shape(c: &mut Criterion) {
    let qubo = micro_encoding(10, 42).to_qubo(2.0);
    let da = DigitalAnnealer::new(DaConfig {
        steps: 1200,
        ..Default::default()
    });
    let mut group = c.benchmark_group("solver_call_tsp10");
    group.bench_function("da_tsp10_batch24", |b| b.iter(|| da.sample(&qubo, 24, 1)));
    group.finish();
}

fn bench_local_fields(c: &mut Criterion) {
    let encoding = micro_encoding(10, 7);
    let qubo = encoding.to_qubo(2.0);
    let n = qubo.num_vars();
    c.bench_function("local_field_flip_100vars", |b| {
        b.iter_batched(
            || QuboState::new(&qubo, vec![0; n]),
            |mut state| {
                for i in 0..n {
                    state.flip(i % n);
                }
                state.energy()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_solvers, bench_da_tune_shape, bench_local_fields
}
criterion_main!(benches);
