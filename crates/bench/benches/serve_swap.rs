//! Criterion bench for the continual-learning hot-swap path:
//!
//! * **swap latency** — one full retrain/checkpoint/swap cycle
//!   (`refresh().wait()`) at small and moderate fine-tune budgets; this
//!   is the cost an operator pays per refresh, all of it off the predict
//!   path;
//! * **predict p50 during continuous swapping** — single-prediction
//!   latency through an engine whose trainer thread is swapping
//!   generations as fast as it can, vs the same engine idle. The delta
//!   is the *entire* interference of the online loop with the serving
//!   hot path (slot lock + generation-keyed cache); the swap itself is a
//!   pointer exchange.
//!
//! The setup asserts post-swap predictions equal a fresh load of the
//! swap's checkpoint bit-for-bit before any timing runs, so a hot-swap
//! regression fails the bench smoke step rather than producing
//! fast-but-wrong numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use neural::network::MlpBuilder;
use qross::dataset::Scalers;
use qross::online::{FeedbackRecord, OnlineConfig, SurrogateCheckpoint};
use qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross::surrogate::{Surrogate, SurrogateState};
use qross_store::Artifact;

const FEAT_DIM: usize = 24;

/// Paper-architecture surrogate (24 features + ln A, 64-wide heads).
fn sample_surrogate() -> Surrogate {
    let zscore = |m: f64, s: f64| mathkit::stats::ZScore { mean: m, std: s };
    let state = SurrogateState {
        pf_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(64)
            .relu()
            .dense(64)
            .relu()
            .dense(1)
            .sigmoid()
            .build(7)
            .to_state(),
        e_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(64)
            .relu()
            .dense(64)
            .relu()
            .dense(2)
            .build(8)
            .to_state(),
        scalers: Scalers {
            features: (0..FEAT_DIM).map(|c| zscore(c as f64 * 0.1, 1.5)).collect(),
            log_a: zscore(0.0, 1.0),
            e_avg: zscore(10.0, 4.0),
            e_std: zscore(1.0, 0.3),
        },
    };
    Surrogate::from_state(state).expect("consistent state")
}

fn feedback(k: usize) -> FeedbackRecord {
    FeedbackRecord {
        features: (0..FEAT_DIM)
            .map(|c| ((k * 31 + c * 17) % 97) as f64 / 97.0 - 0.5)
            .collect(),
        a: 0.05 + (k % 13) as f64 * 0.4,
        observed_pf: ((k * 7) % 11) as f64 / 10.0,
        observed_e_avg: 9.0 + (k % 5) as f64,
        observed_e_std: 0.5 + (k % 3) as f64 * 0.3,
        instance_tag: format!("b{k}"),
        seed: k as u64,
    }
}

fn online_engine(epochs: usize, checkpoint_dir: Option<std::path::PathBuf>) -> ServeEngine {
    ServeEngine::with_online(
        ServeModel::Surrogate(Arc::new(sample_surrogate())),
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
        OnlineConfig {
            refresh_after: 0, // bench drives refreshes explicitly
            buffer_capacity: 64,
            recent_capacity: 32,
            feedback_weight: 2,
            epochs,
            learning_rate: 1e-3,
            batch_size: 16,
            seed: 11,
            checkpoint_dir,
        },
        None,
    )
    .expect("online engine")
}

fn bench_serve_swap(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("qross_bench_swap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Correctness gate before any timing: a swap's served predictions
    // must equal a fresh load of its checkpoint, exactly.
    {
        let eng = online_engine(4, Some(dir.clone()));
        for k in 0..16 {
            eng.submit_feedback(feedback(k)).expect("feedback");
        }
        let generation = eng.refresh().expect("refresh").wait().expect("swap");
        assert_eq!(generation, 1);
        let ckpt = SurrogateCheckpoint::load(dir.join("ckpt-g000001.qross")).expect("checkpoint");
        let reloaded = Surrogate::from_state(ckpt.state).expect("state");
        for k in 0..32 {
            let fb = feedback(k);
            let served = eng.predict(&fb.features, fb.a).expect("serve");
            let direct = reloaded.predict(&fb.features, fb.a);
            assert_eq!(served.pf.to_bits(), direct.pf.to_bits());
            assert_eq!(served.e_avg.to_bits(), direct.e_avg.to_bits());
            assert_eq!(served.e_std.to_bits(), direct.e_std.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Swap latency: one retrain/checkpoint/swap cycle, end to end.
    for epochs in [2usize, 16] {
        let eng = online_engine(epochs, Some(dir.clone()));
        for k in 0..16 {
            eng.submit_feedback(feedback(k)).expect("feedback");
        }
        c.bench_function(&format!("serve_swap/refresh_epochs{epochs}"), |b| {
            b.iter(|| eng.refresh().expect("refresh").wait().expect("swap"));
        });
        drop(eng);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Predict latency while the model is NOT being swapped (baseline)…
    let eng = online_engine(2, None);
    for k in 0..16 {
        eng.submit_feedback(feedback(k)).expect("feedback");
    }
    let probe = feedback(3);
    c.bench_function("serve_swap/predict_idle", |b| {
        b.iter(|| eng.predict(&probe.features, probe.a).expect("serve"));
    });

    // …and while a background thread swaps continuously. The spread
    // between these two is the online loop's entire predict-path cost.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (eng_ref, stop_ref) = (&eng, &stop);
        scope.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                let _ = eng_ref.refresh().and_then(|p| p.wait());
            }
        });
        c.bench_function("serve_swap/predict_during_continuous_swaps", |b| {
            b.iter(|| eng.predict(&probe.features, probe.a).expect("serve"));
        });
        // In `--test` mode the measurement window can be shorter than one
        // retrain cycle (or even the swap thread's spawn latency), so keep
        // predict traffic flowing until a swap actually lands — the assert
        // below must gate on the engine, not on the scheduler.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while eng.stats().refreshes == 0 && std::time::Instant::now() < deadline {
            eng.predict(&probe.features, probe.a).expect("serve");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let swapped = eng.stats().refreshes;
    assert!(swapped > 0, "no swap landed during the contention bench");
    eprintln!("serve_swap: {swapped} swaps landed during the contention run");
}

criterion_group!(benches, bench_serve_swap);
criterion_main!(benches);
