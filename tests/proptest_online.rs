//! Property-based tests for the continual-learning hot-swap path.
//!
//! The swap contract under test: for **any** interleaving of predict /
//! feedback / refresh operations,
//!
//! * every predict response is bit-identical to evaluating that request
//!   against *some* checkpointed model generation — specifically the
//!   generation serving when the request was submitted (responses are
//!   never a blend of generations, and a cache hit can never surface an
//!   older generation's value);
//! * immediately after a swap, the engine's predictions match a fresh
//!   `Artifact::load` of the checkpoint the swap wrote, exactly — the
//!   served model *is* the persisted model, no cache bleed across
//!   generations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::Scalers;
use qross_repro::qross::online::{FeedbackRecord, OnlineConfig, SurrogateCheckpoint};
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross_repro::qross::surrogate::{Surrogate, SurrogatePrediction, SurrogateState};
use qross_repro::qross::QrossError;
use qross_store::Artifact;

const FEAT_DIM: usize = 2;

/// Deterministic seed-derived surrogate (2 features + ln A).
fn tiny_surrogate(seed: u64) -> Surrogate {
    let z = |m: f64, s: f64| ZScore { mean: m, std: s };
    let state = SurrogateState {
        pf_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(8)
            .relu()
            .dense(1)
            .sigmoid()
            .build(seed)
            .to_state(),
        e_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(8)
            .tanh()
            .dense(2)
            .build(seed ^ 0x5EED)
            .to_state(),
        scalers: Scalers {
            features: vec![z(0.0, 1.0), z(0.5, 2.0)],
            log_a: z(0.0, 1.0),
            e_avg: z(4.0, 2.0),
            e_std: z(1.0, 0.5),
        },
    };
    Surrogate::from_state(state).expect("consistent state")
}

/// One step of an interleaving.
#[derive(Debug, Clone)]
enum Op {
    Predict { fi: usize, ai: usize },
    Feedback { k: usize },
    Refresh,
}

/// Strategy for one op: predicts and feedback dominate, refreshes are
/// rarer (they cost a fine-tune each).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..7, 0usize..24, 0usize..10, 0usize..5).prop_map(|(sel, k, fi, ai)| match sel {
        0..=2 => Op::Predict { fi, ai },
        3..=5 => Op::Feedback { k },
        _ => Op::Refresh,
    })
}

fn probe(fi: usize, ai: usize) -> (Vec<f64>, f64) {
    (
        vec![fi as f64 / 3.0 - 1.0, (fi as f64) / 7.0],
        0.25 + ai as f64 * 0.85,
    )
}

fn feedback(k: usize) -> FeedbackRecord {
    FeedbackRecord {
        features: vec![(k % 7) as f64 / 4.0, 1.0 - (k % 5) as f64 / 3.0],
        a: 0.4 + (k % 9) as f64 * 0.5,
        observed_pf: ((k * 3) % 11) as f64 / 10.0,
        observed_e_avg: 2.0 + (k % 6) as f64,
        observed_e_std: 0.25 + (k % 4) as f64 * 0.5,
        instance_tag: format!("p{k}"),
        seed: k as u64,
    }
}

fn assert_bits(got: SurrogatePrediction, want: SurrogatePrediction) {
    assert_eq!(got.pf.to_bits(), want.pf.to_bits());
    assert_eq!(got.e_avg.to_bits(), want.e_avg.to_bits());
    assert_eq!(got.e_std.to_bits(), want.e_std.to_bits());
}

/// Unique checkpoint directory per proptest case.
fn case_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qross_proptest_online_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any interleaving of predict/feedback/refresh, every response
    /// is exactly some checkpointed generation's answer, and post-swap
    /// responses equal a fresh load() of the swap's checkpoint.
    #[test]
    fn every_response_comes_from_a_checkpointed_generation(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        model_seed in 0u64..1000,
    ) {
        let dir = case_dir();
        let engine = ServeEngine::with_online(
            ServeModel::Surrogate(Arc::new(tiny_surrogate(model_seed))),
            ServeConfig { workers: 2, ..Default::default() },
            OnlineConfig {
                refresh_after: 3, // automatic triggers interleave too
                buffer_capacity: 12,
                recent_capacity: 6,
                feedback_weight: 2,
                epochs: 2,
                learning_rate: 1e-3,
                batch_size: 8,
                seed: model_seed ^ 0xF00D,
                checkpoint_dir: Some(dir.clone()),
            },
            None,
        ).expect("online engine");

        // models[g] is generation g's surrogate, reloaded from its
        // checkpoint for every g >= 1.
        let mut models: Vec<Surrogate> = vec![tiny_surrogate(model_seed)];
        let handle_swap = |models: &mut Vec<Surrogate>,
                               outcome: Result<u64, QrossError>| {
            match outcome {
                Ok(generation) => {
                    assert_eq!(generation as usize, models.len());
                    let path = dir.join(format!("ckpt-g{generation:06}.qross"));
                    let ckpt = SurrogateCheckpoint::load(&path).expect("checkpoint readable");
                    let lineage = ckpt.lineage.expect("swap checkpoints carry lineage");
                    assert_eq!(lineage.generation, generation);
                    assert_eq!(lineage.parent_generation, generation - 1);
                    models.push(Surrogate::from_state(ckpt.state).expect("state rebuilds"));
                }
                // An unfittable retrain (nothing in the buffer yet) keeps
                // the old generation serving — a typed error, not a swap.
                Err(QrossError::BadDataset { .. }) => {}
                Err(e) => panic!("unexpected retrain failure: {e}"),
            }
        };

        for op in &ops {
            match op {
                Op::Predict { fi, ai } => {
                    let generation = engine.generation() as usize;
                    let (f, a) = probe(*fi, *ai);
                    let served = engine.predict(&f, a).expect("predict never dropped");
                    // Bit-identical to the generation serving at submit —
                    // which is by construction a checkpointed one.
                    assert_bits(served, models[generation].predict(&f, a));
                }
                Op::Feedback { k } => {
                    let ack = engine.submit_feedback(feedback(*k)).expect("feedback accepted");
                    if let Some(pending) = ack.refresh {
                        handle_swap(&mut models, pending.wait());
                    }
                }
                Op::Refresh => {
                    let pending = engine.refresh().expect("refresh queued");
                    handle_swap(&mut models, pending.wait());
                }
            }
            // After every op the engine's live answers equal the current
            // generation's checkpoint — no cache bleed across swaps, even
            // for keys cached under earlier generations.
            let (f, a) = probe(1, 1);
            let generation = engine.generation() as usize;
            assert_bits(
                engine.predict(&f, a).expect("probe"),
                models[generation].predict(&f, a),
            );
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
