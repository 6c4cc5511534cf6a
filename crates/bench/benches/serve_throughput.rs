//! Criterion bench for the serving path: batched `predict_many` (one
//! matrix forward per head, the serving engine's micro-batch primitive)
//! vs the same queries issued as per-request `predict` calls, at batch
//! sizes 1 / 16 / 64 / 256 — demonstrating that stacking concurrent
//! requests beats answering them one by one, which is the whole point of
//! the `qross-serve` micro-batcher. A full engine round-trip (submit +
//! queue + worker + channel) is timed too, to price the orchestration
//! overhead.
//!
//! The setup asserts batched output is **bit-identical** to per-row
//! `predict` before any timing runs, so a batching regression fails the
//! bench smoke step rather than producing fast-but-wrong numbers.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use neural::network::MlpBuilder;
use qross::dataset::Scalers;
use qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross::surrogate::{Surrogate, SurrogateState};

/// Paper-architecture surrogate (24 features + ln A, 64-wide heads),
/// seed-built — no training needed to measure inference throughput.
fn sample_surrogate() -> Surrogate {
    let feat_dim = 24;
    let zscore = |m: f64, s: f64| mathkit::stats::ZScore { mean: m, std: s };
    let state = SurrogateState {
        pf_net: MlpBuilder::new(feat_dim + 1)
            .dense(64)
            .relu()
            .dense(64)
            .relu()
            .dense(1)
            .sigmoid()
            .build(7)
            .to_state(),
        e_net: MlpBuilder::new(feat_dim + 1)
            .dense(64)
            .relu()
            .dense(64)
            .relu()
            .dense(2)
            .build(8)
            .to_state(),
        scalers: Scalers {
            features: (0..feat_dim).map(|c| zscore(c as f64 * 0.1, 1.5)).collect(),
            log_a: zscore(0.0, 1.0),
            e_avg: zscore(10.0, 4.0),
            e_std: zscore(1.0, 0.3),
        },
    };
    Surrogate::from_state(state).expect("consistent state")
}

/// `count` distinct deterministic queries (different features *and* A —
/// the mixed-instance traffic a serving process sees).
fn sample_queries(count: usize) -> Vec<(Vec<f64>, f64)> {
    (0..count)
        .map(|k| {
            let features: Vec<f64> = (0..24)
                .map(|c| ((k * 31 + c * 17) % 97) as f64 / 97.0 - 0.5)
                .collect();
            let a = 0.05 + (k % 13) as f64 * 0.4;
            (features, a)
        })
        .collect()
}

fn bench_serve_throughput(c: &mut Criterion) {
    let surrogate = sample_surrogate();
    let queries = sample_queries(256);

    // Determinism gate: batched must equal per-row bit for bit.
    {
        let refs: Vec<(&[f64], f64)> = queries.iter().map(|(f, a)| (f.as_slice(), *a)).collect();
        let batched = surrogate.predict_many(&refs);
        for (k, &(f, a)) in refs.iter().enumerate() {
            let single = surrogate.predict(f, a);
            assert_eq!(
                batched[k].pf.to_bits(),
                single.pf.to_bits(),
                "batched Pf diverged at row {k}"
            );
            assert_eq!(batched[k].e_avg.to_bits(), single.e_avg.to_bits());
            assert_eq!(batched[k].e_std.to_bits(), single.e_std.to_bits());
        }
    }

    let mut group = c.benchmark_group("serve_throughput");
    for &batch in &[1usize, 16, 64, 256] {
        let slice = &queries[..batch];
        let refs: Vec<(&[f64], f64)> = slice.iter().map(|(f, a)| (f.as_slice(), *a)).collect();
        group.bench_function(&format!("sequential_{batch}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &(f, a) in &refs {
                    acc += surrogate.predict(f, a).pf;
                }
                acc
            })
        });
        group.bench_function(&format!("batched_{batch}"), |b| {
            b.iter(|| {
                surrogate
                    .predict_many(&refs)
                    .iter()
                    .map(|p| p.pf)
                    .sum::<f64>()
            })
        });
    }

    // Engine round-trip: queue + worker + channel on top of one forward.
    let engine = ServeEngine::new(
        ServeModel::Surrogate(Arc::new(sample_surrogate())),
        ServeConfig {
            workers: 1,
            cache_capacity: 0, // measure compute, not cache hits
            ..Default::default()
        },
    );
    let (f0, a0) = (&queries[0].0, queries[0].1);
    group.bench_function("engine_roundtrip_1", |b| {
        b.iter(|| engine.predict(f0, a0).expect("serve").pf)
    });
    group.bench_function("engine_pipelined_64", |b| {
        b.iter(|| {
            let pending: Vec<_> = queries[..64]
                .iter()
                .map(|(f, a)| {
                    engine
                        .submit_opts(None, f.clone(), vec![*a], None)
                        .expect("submit")
                })
                .collect();
            pending
                .into_iter()
                .map(|p| p.wait().expect("wait")[0].pf)
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
