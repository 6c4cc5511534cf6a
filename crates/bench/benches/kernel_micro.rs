//! Micro-benchmarks of the compute kernels behind inference, training
//! and the annealers: blocked vs reference matmul at serving and
//! training shapes, the backward pass's `tmatmul` and `matmul_t`
//! against the reference on explicit transposes, and lockstep
//! multi-replica sweeps vs the same work done one replica at a time.
//!
//! Every comparison is gated by a bit-equality assertion in setup — the
//! blocked serve kernel and the batched replica sweep are only
//! interesting as *exact* replacements, so the bench refuses to measure
//! a pair that has drifted apart.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bench::experiments::micro_encoding;
use mathkit::rng::derive_rng;
use mathkit::Matrix;
use problems::RelaxableProblem;
use qubo::{QuboState, ReplicaBatch};
use rand::Rng;

/// Deterministic dense matrix with entries spread across magnitudes.
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = derive_rng(seed, 0x3A7);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-2.0..2.0);
    }
    m
}

/// Gate: a serve-tier product is only worth timing while it equals the
/// historical ikj reference bit for bit.
fn assert_bits_equal(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape());
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} drifted from reference");
    }
}

fn bench_matmul(c: &mut Criterion) {
    // Serving shapes: (batch x features) · (features x hidden) for the
    // surrogate's hidden layers, plus the 1-row interactive case; then
    // the quick-scale training forward (25 features, 48 hidden).
    for &(m, k, n) in &[
        (64usize, 25usize, 64usize),
        (64, 64, 64),
        (1, 65, 64),
        (64, 25, 48),
        (64, 48, 48),
    ] {
        let a = filled(m, k, 11);
        let b = filled(k, n, 13);
        assert_bits_equal(&a.matmul(&b), &a.matmul_reference(&b), "serve kernel");

        let mut group = c.benchmark_group(&format!("matmul_{m}x{k}x{n}"));
        group.bench_function("blocked_serve", |bch| bch.iter(|| a.matmul(&b)));
        group.bench_function("reference_ikj", |bch| bch.iter(|| a.matmul_reference(&b)));
        group.finish();
    }
}

/// The backward pass at quick-scale training shapes, each paired with
/// the reference on a transpose made before timing: `xᵀ · dY` for a
/// 48-wide layer over a 64-row batch, and `dY · Wᵀ` through a 48×48
/// weight.
fn bench_backward(c: &mut Criterion) {
    let x = filled(64, 48, 17);
    let dy = filled(64, 48, 19);
    let xt = x.transpose();
    assert_bits_equal(&x.tmatmul(&dy), &xt.matmul_reference(&dy), "tmatmul");
    let mut group = c.benchmark_group("tmatmul_48x64x48");
    group.bench_function("blocked_serve", |bch| bch.iter(|| x.tmatmul(&dy)));
    group.bench_function("reference_ikj", |bch| bch.iter(|| xt.matmul_reference(&dy)));
    group.finish();

    let w = filled(48, 48, 23);
    let wt = w.transpose();
    assert_bits_equal(&dy.matmul_t(&w), &dy.matmul_reference(&wt), "matmul_t");
    let mut group = c.benchmark_group("matmul_t_64x48x48");
    group.bench_function("blocked_serve", |bch| bch.iter(|| dy.matmul_t(&w)));
    group.bench_function("reference_ikj", |bch| bch.iter(|| dy.matmul_reference(&wt)));
    group.finish();
}

fn bench_replica_sweep(c: &mut Criterion) {
    let encoding = micro_encoding(8, 21);
    let qubo = encoding.to_qubo(2.0);
    let n = qubo.num_vars();
    const LANES: usize = 8;

    // Gate: a lockstep batch must apply bit-identical flip deltas to N
    // independent single-replica states fed the same flip sequence.
    {
        let mut batch = ReplicaBatch::new(&qubo, LANES);
        let mut singles: Vec<QuboState> = (0..LANES)
            .map(|_| QuboState::new(&qubo, vec![0; n]))
            .collect();
        for step in 0..4 * n {
            let i = (step * 7 + 3) % n;
            for (r, single) in singles.iter_mut().enumerate() {
                assert_eq!(
                    batch.flip_delta(r, i).to_bits(),
                    single.flip_delta(i).to_bits(),
                    "lockstep sweep drifted from sequential replicas"
                );
                batch.flip(r, i);
                single.flip(i);
            }
        }
        for (r, single) in singles.iter().enumerate() {
            assert_eq!(batch.energy(r).to_bits(), single.energy().to_bits());
        }
    }

    let mut group = c.benchmark_group(&format!("replica_sweep_{n}vars_{LANES}lanes"));
    // The annealers' hot read: scan every candidate flip's delta across
    // all replicas (DA does exactly this once per Monte-Carlo step). The
    // batch stores each variable's deltas as one contiguous lane row, so
    // the variable-major scan is sequential memory; independent states
    // make it a gather across `LANES` separate arrays.
    group.bench_function("candidate_scan_lockstep", |b| {
        let batch = ReplicaBatch::new(&qubo, LANES);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..n {
                for &d in batch.flip_deltas_at(i) {
                    acc += d;
                }
            }
            acc
        })
    });
    group.bench_function("candidate_scan_sequential", |b| {
        let states: Vec<QuboState> = (0..LANES)
            .map(|_| QuboState::new(&qubo, vec![0; n]))
            .collect();
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..n {
                for state in &states {
                    acc += state.flip_delta(i);
                }
            }
            acc
        })
    });
    // One full deterministic sweep (flip every variable once per lane).
    group.bench_function("lockstep_batch", |b| {
        b.iter_batched(
            || ReplicaBatch::new(&qubo, LANES),
            |mut batch| {
                for i in 0..n {
                    for r in 0..LANES {
                        batch.flip(r, i);
                    }
                }
                batch.energy(LANES - 1)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("sequential_states", |b| {
        b.iter_batched(
            || {
                (0..LANES)
                    .map(|_| QuboState::new(&qubo, vec![0; n]))
                    .collect::<Vec<_>>()
            },
            |mut states| {
                for state in &mut states {
                    for i in 0..n {
                        state.flip(i);
                    }
                }
                states[LANES - 1].energy()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_backward, bench_replica_sweep);
criterion_main!(benches);
