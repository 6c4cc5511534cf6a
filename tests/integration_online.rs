//! Integration tests for the continual-learning serving loop: hot-swaps
//! under concurrent load (zero dropped requests, no stale-cache values)
//! and the end-to-end serve → feedback → retrain → swap → checkpoint
//! cycle's bit-reproducibility across worker counts, at both the engine
//! and the NDJSON protocol level.
//!
//! The model is a hand-built bundle (seed-derived surrogate weights, the
//! real 24-feature statistical featurizer, no training) plus a small
//! synthetic base corpus, so the suite runs in seconds while exercising
//! exactly the production code paths: feedback ingestion, replay-buffer
//! snapshots, corpus-merged fine-tuning, checkpoint-then-swap, and
//! generation-keyed caching.

use std::io::Cursor;
use std::sync::Arc;

use bench::protocol::{serve_connection, Response};
use qross_repro::mathkit::stats::ZScore;
use qross_repro::neural::network::MlpBuilder;
use qross_repro::qross::dataset::{DatasetRow, Scalers, SurrogateDataset};
use qross_repro::qross::online::{FeedbackRecord, OnlineConfig, SurrogateCheckpoint};
use qross_repro::qross::pipeline::{PipelineConfig, TrainedQross};
use qross_repro::qross::serve::{ServeConfig, ServeEngine, ServeModel};
use qross_repro::qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross_repro::qross::StatisticalFeaturizer;
use qross_store::Artifact;

/// Feature width of [`StatisticalFeaturizer`].
const FEAT_DIM: usize = 24;

fn zscore(mean: f64, std: f64) -> ZScore {
    ZScore { mean, std }
}

/// Seed-derived surrogate over the statistical featurizer's 24 features.
fn test_surrogate() -> Surrogate {
    let state = SurrogateState {
        pf_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(16)
            .relu()
            .dense(1)
            .sigmoid()
            .build(91)
            .to_state(),
        e_net: MlpBuilder::new(FEAT_DIM + 1)
            .dense(16)
            .relu()
            .dense(2)
            .build(92)
            .to_state(),
        scalers: Scalers {
            features: (0..FEAT_DIM)
                .map(|c| zscore(0.2 * c as f64, 1.0 + 0.05 * c as f64))
                .collect(),
            log_a: zscore(0.0, 1.0),
            e_avg: zscore(8.0, 3.0),
            e_std: zscore(1.0, 0.4),
        },
    };
    Surrogate::from_state(state).expect("consistent state")
}

/// A serve-ready bundle around [`test_surrogate`].
fn test_bundle() -> Arc<TrainedQross> {
    Arc::new(TrainedQross {
        surrogate: test_surrogate(),
        featurizer: Box::new(StatisticalFeaturizer::new()),
        train_encodings: Vec::new(),
        test_encodings: Vec::new(),
        dataset_len: 0,
        report: TrainReport::default(),
        config: PipelineConfig::micro(),
    })
}

/// Small deterministic "original corpus" merged under every fine-tune.
fn base_corpus() -> SurrogateDataset {
    let mut ds = SurrogateDataset::new(FEAT_DIM);
    for k in 0..12 {
        ds.push(DatasetRow {
            features: (0..FEAT_DIM)
                .map(|c| ((k * 11 + c * 5) % 23) as f64 / 6.0 - 1.8)
                .collect(),
            a: 0.3 + k as f64 * 0.4,
            pf: (k % 9) as f64 / 8.0,
            e_avg: 7.0 + (k % 4) as f64,
            e_std: 0.8 + (k % 3) as f64 * 0.3,
        });
    }
    ds
}

/// Deterministic query `k`: 24 features plus a positive `A`.
fn query(k: usize) -> (Vec<f64>, f64) {
    let features: Vec<f64> = (0..FEAT_DIM)
        .map(|c| ((k * 13 + c * 7) % 29) as f64 / 7.0 - 2.0)
        .collect();
    let a = 0.1 + (k % 11) as f64 * 0.45;
    (features, a)
}

/// Deterministic feedback record `k`.
fn feedback(k: usize) -> FeedbackRecord {
    let (features, a) = query(k + 100);
    FeedbackRecord {
        features,
        a,
        observed_pf: ((k * 7) % 11) as f64 / 10.0,
        observed_e_avg: 6.0 + (k % 5) as f64,
        observed_e_std: 0.5 + (k % 3) as f64 * 0.25,
        instance_tag: format!("obs{k}"),
        seed: k as u64,
    }
}

fn online_config(dir: std::path::PathBuf, refresh_after: usize) -> OnlineConfig {
    OnlineConfig {
        refresh_after,
        buffer_capacity: 32,
        recent_capacity: 16,
        feedback_weight: 3,
        epochs: 4,
        learning_rate: 1e-3,
        batch_size: 16,
        seed: 2021,
        checkpoint_dir: Some(dir),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qross_online_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Hammer test for the acceptance criterion: N threads predicting while
/// refreshes fire. Every response must succeed (no drops, no spurious
/// backpressure with the default queue), and every response must be
/// bit-identical to *some* checkpointed generation — never a stale-cache
/// blend.
#[test]
fn hot_swap_under_concurrent_load_drops_nothing() {
    let dir = temp_dir("hammer");
    let eng = ServeEngine::with_online(
        ServeModel::Bundle(test_bundle()),
        ServeConfig {
            workers: 4,
            max_batch_rows: 16,
            ..Default::default()
        },
        online_config(dir.clone(), 0), // manual refreshes from the main thread
        Some(base_corpus()),
    )
    .expect("online engine");

    const SWAPS: usize = 4;
    let eng_ref = &eng;
    let recorded: Vec<Vec<(usize, qross_repro::qross::SurrogatePrediction)>> =
        std::thread::scope(|scope| {
            let predictors: Vec<_> = (0..6usize)
                .map(|t| {
                    scope.spawn(move || {
                        let mut seen = Vec::with_capacity(150);
                        for i in 0..150usize {
                            let k = (t * 41 + i) % 70;
                            let (f, a) = query(k);
                            // The acceptance bar: predictions during
                            // continuous swapping either succeed or return
                            // typed backpressure — they never fail
                            // otherwise and are never dropped.
                            let served = eng_ref.predict(&f, a).expect("prediction dropped");
                            seen.push((k, served));
                        }
                        seen
                    })
                })
                .collect();
            // Fire swaps while the predictors hammer.
            for s in 0..SWAPS {
                for k in 0..3 {
                    eng_ref
                        .submit_feedback(feedback(s * 3 + k))
                        .expect("feedback");
                }
                let gen = eng_ref.refresh().expect("refresh").wait().expect("swap");
                assert_eq!(gen as usize, s + 1);
            }
            predictors.into_iter().map(|h| h.join().unwrap()).collect()
        });

    // Rebuild every generation this run served: gen 0 from the original
    // weights, gens 1..=SWAPS from their checkpoints.
    let mut generations = vec![test_surrogate()];
    for g in 1..=SWAPS {
        let ckpt =
            SurrogateCheckpoint::load(dir.join(format!("ckpt-g{g:06}.qross"))).expect("checkpoint");
        generations.push(Surrogate::from_state(ckpt.state).expect("state"));
    }
    for thread in &recorded {
        for &(k, served) in thread {
            let (f, a) = query(k);
            let matched = generations.iter().any(|sur| {
                let direct = sur.predict(&f, a);
                direct.pf.to_bits() == served.pf.to_bits()
                    && direct.e_avg.to_bits() == served.e_avg.to_bits()
                    && direct.e_std.to_bits() == served.e_std.to_bits()
            });
            assert!(
                matched,
                "response for query {k} matches no checkpointed generation (stale blend?)"
            );
        }
    }
    let stats = eng.stats();
    assert_eq!(stats.requests, 6 * 150);
    assert_eq!(stats.rejected, 0, "spurious backpressure: {stats:?}");
    assert_eq!(stats.refreshes, SWAPS);
    // Post-swap state equals a fresh load of the final checkpoint.
    let final_sur = &generations[SWAPS];
    for k in 0..20 {
        let (f, a) = query(k);
        let served = eng.predict(&f, a).expect("serve");
        let direct = final_sur.predict(&f, a);
        assert_eq!(served.pf.to_bits(), direct.pf.to_bits());
        assert_eq!(served.e_avg.to_bits(), direct.e_avg.to_bits());
        assert_eq!(served.e_std.to_bits(), direct.e_std.to_bits());
    }
    drop(eng);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The NDJSON request log for the reproducibility cycle: predicts
/// interleaved with feedback (auto-triggering retrains at
/// `refresh_after = 4`), a forced refresh, model-info inspections, and a
/// deterministic malformed line.
fn cycle_requests() -> String {
    let mut lines = Vec::new();
    let mut id = 0u64;
    let mut push = |line: String| lines.push(line);
    let feat_json = |k: usize| serde_json::to_string(&query(k).0).expect("json");
    push("{\"id\": 0, \"op\": \"model-info\"}".to_string());
    for round in 0..2usize {
        for k in 0..4usize {
            id += 1;
            let q = round * 20 + k;
            push(format!(
                "{{\"id\": {id}, \"op\": \"predict\", \"features\": {}, \"a\": {}}}",
                feat_json(q),
                query(q).1
            ));
            id += 1;
            let fb = feedback(round * 4 + k);
            push(format!(
                "{{\"id\": {id}, \"op\": \"feedback\", \"features\": {}, \"a\": {}, \
                 \"pf\": {}, \"e_avg\": {}, \"e_std\": {}, \"tag\": \"{}\", \"seed\": {}}}",
                serde_json::to_string(&fb.features).expect("json"),
                fb.a,
                fb.observed_pf,
                fb.observed_e_avg,
                fb.observed_e_std,
                fb.instance_tag,
                fb.seed
            ));
        }
        id += 1;
        push(format!(
            "{{\"id\": {id}, \"op\": \"predict\", \"features\": {}, \"a_values\": [0.5, 1.0, 2.0]}}",
            feat_json(round + 50)
        ));
    }
    id += 1;
    push(format!("{{\"id\": {id}, \"op\": \"refresh\"}}"));
    id += 1;
    push(format!(
        "{{\"id\": {id}, \"op\": \"predict\", \"features\": {}, \"a\": 1.25}}",
        feat_json(7)
    ));
    id += 1;
    // Deterministic rejection: feedback without observations.
    push(format!(
        "{{\"id\": {id}, \"op\": \"feedback\", \"features\": {}, \"a\": 1.0}}",
        feat_json(2)
    ));
    id += 1;
    push(format!("{{\"id\": {id}, \"op\": \"model-info\"}}"));
    lines.join("\n") + "\n"
}

fn run_cycle(config: ServeConfig, dir: std::path::PathBuf) -> (String, Vec<u8>, Vec<u8>) {
    let eng = ServeEngine::with_online(
        ServeModel::Bundle(test_bundle()),
        config,
        online_config(dir.clone(), 4),
        Some(base_corpus()),
    )
    .expect("online engine");
    let mut out: Vec<u8> = Vec::new();
    serve_connection(&eng, Cursor::new(cycle_requests()), &mut out).expect("session");
    drop(eng);
    // 8 feedback records at refresh_after=4 → gens 1, 2; forced refresh
    // → gen 3.
    let g2 = std::fs::read(dir.join("ckpt-g000002.qross")).expect("gen2 checkpoint");
    let g3 = std::fs::read(dir.join("ckpt-g000003.qross")).expect("gen3 checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    (String::from_utf8(out).expect("utf-8"), g2, g3)
}

/// Acceptance criterion: the full serve → feedback → retrain → swap →
/// checkpoint cycle is bit-reproducible from `(seed, feedback log)`
/// across worker counts 1 and 4 — responses byte-for-byte, checkpoint
/// files bit-for-bit.
#[test]
fn cycle_is_bit_reproducible_across_worker_counts() {
    let (w4, w4_g2, w4_g3) = run_cycle(
        ServeConfig {
            workers: 4,
            max_batch_rows: 32,
            ..Default::default()
        },
        temp_dir("cycle_w4"),
    );
    let (w1, w1_g2, w1_g3) = run_cycle(
        ServeConfig {
            workers: 1,
            max_batch_rows: 1,
            cache_capacity: 0,
            ..Default::default()
        },
        temp_dir("cycle_w1"),
    );
    assert_eq!(
        w4, w1,
        "responses differ between 4-worker batched+cached and sequential runs"
    );
    assert_eq!(w4_g2, w1_g2, "generation-2 checkpoints differ");
    assert_eq!(w4_g3, w1_g3, "generation-3 checkpoints differ");

    // Sanity on the shared transcript: swaps landed where the log says.
    let responses: Vec<Response> = w4
        .lines()
        .map(|l| serde_json::from_str(l).expect("parseable response"))
        .collect();
    let refreshed: Vec<u64> = responses
        .iter()
        .filter(|r| r.refreshed == Some(true))
        .map(|r| r.generation.expect("generation on swap responses"))
        .collect();
    assert_eq!(refreshed, vec![1, 2, 3]);
    let last_info = responses.last().expect("final model-info");
    let info = last_info.info.as_ref().expect("info payload");
    assert_eq!(info.generation, 3);
    assert!(info.online);
    assert_eq!(info.feedback_count, Some(8));
    // The malformed feedback line was rejected deterministically.
    assert_eq!(responses.iter().filter(|r| !r.ok).count(), 1);
}

/// A serving process can restart from its own checkpoint: predictions
/// after `--model <checkpoint>` equal the swapped engine's exactly.
#[test]
fn checkpoints_are_restartable_models() {
    let dir = temp_dir("restart");
    let eng = ServeEngine::with_online(
        ServeModel::Bundle(test_bundle()),
        ServeConfig::default(),
        online_config(dir.clone(), 0),
        Some(base_corpus()),
    )
    .expect("online engine");
    for k in 0..5 {
        eng.submit_feedback(feedback(k)).expect("feedback");
    }
    eng.refresh().expect("refresh").wait().expect("swap");
    let (f, a) = query(9);
    let served = eng.predict(&f, a).expect("serve");
    drop(eng);

    let ckpt = SurrogateCheckpoint::load(dir.join("ckpt-g000001.qross")).expect("checkpoint loads");
    let restarted = ServeEngine::new(
        ServeModel::Surrogate(Arc::new(
            Surrogate::from_state(ckpt.state).expect("state rebuilds"),
        )),
        ServeConfig::default(),
    );
    let again = restarted.predict(&f, a).expect("restarted serve");
    assert_eq!(served.pf.to_bits(), again.pf.to_bits());
    assert_eq!(served.e_avg.to_bits(), again.e_avg.to_bits());
    assert_eq!(served.e_std.to_bits(), again.e_std.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}
