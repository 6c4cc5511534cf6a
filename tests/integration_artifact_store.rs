//! End-to-end artifact-store integration: the train-once / serve-many
//! contract.
//!
//! * A surrogate trained in one process and reloaded from a `.qross`
//!   bundle produces **bit-identical** `predict_grid` outputs and
//!   identical strategy proposals — at `workers = 1` (fully sequential)
//!   and `workers = 0` (one worker per core).
//! * The staged pipeline (collect → train) matches the one-shot
//!   [`Pipeline::try_run`] bit for bit, including after the corpus takes
//!   a round-trip through disk.
//! * The committed golden fixture from container-format v1 keeps
//!   decoding (forward-compatibility gate).
//! * A JSON dump (`qross-train --format json`) is never loaded back.

use bench::serve::proposal_trace;
use problems::TspInstance;
use qross_repro::neural::layers::LayerSpec;
use qross_repro::neural::network::MlpState;
use qross_repro::qross::dataset::{DatasetRow, Scalers, SurrogateDataset};
use qross_repro::qross::pipeline::{
    CollectedCorpus, Pipeline, PipelineConfig, QrossBundle, TrainedQross,
};
use qross_repro::qross::surrogate::{SurrogateState, TrainReport};
use qross_repro::qross::QrossError;
use qross_repro::qross::{FeaturizerSpec, Surrogate};
use qross_repro::solvers::sa::{SaConfig, SimulatedAnnealer};
use qross_store::{Artifact, StoreError};

fn solver() -> SimulatedAnnealer {
    SimulatedAnnealer::new(SaConfig {
        sweeps: 48,
        ..Default::default()
    })
}

fn micro_config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..PipelineConfig::micro()
    }
}

/// The manifest grid used for bit-exactness checks.
fn a_grid() -> Vec<f64> {
    (0..12)
        .map(|k| (0.02f64.ln() + (20.0f64.ln() - 0.02f64.ln()) * k as f64 / 11.0).exp())
        .collect()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qross_artifact_store_it");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Train → save → load → compare, at the given worker count.
fn assert_serve_matches_train(workers: usize) {
    let trained = Pipeline::new(micro_config(workers))
        .try_run(&solver())
        .expect("micro pipeline trains");
    let path = temp_path(&format!("bundle_w{workers}.qross"));
    trained.save(&path).expect("save bundle");
    let reloaded = TrainedQross::load(&path).expect("load bundle");

    assert_eq!(reloaded.dataset_len, trained.dataset_len);
    assert_eq!(reloaded.config, trained.config);
    assert_eq!(reloaded.report, trained.report);
    assert_eq!(reloaded.test_encodings.len(), trained.test_encodings.len());

    let grid = a_grid();
    for (enc_t, enc_r) in trained.test_encodings.iter().zip(&reloaded.test_encodings) {
        // Featurisation must agree bit for bit...
        let feat_t = trained.features_for(enc_t);
        let feat_r = reloaded.features_for(enc_r);
        assert_eq!(feat_t, feat_r, "featurizer drifted through the bundle");
        // ...and so must every grid prediction.
        let preds_t = trained.surrogate.predict_grid(&feat_t, &grid);
        let preds_r = reloaded.surrogate.predict_grid(&feat_r, &grid);
        for (a, (pt, pr)) in grid.iter().zip(preds_t.iter().zip(&preds_r)) {
            assert_eq!(
                pt.pf.to_bits(),
                pr.pf.to_bits(),
                "Pf differs at A = {a} (workers = {workers})"
            );
            assert_eq!(pt.e_avg.to_bits(), pr.e_avg.to_bits());
            assert_eq!(pt.e_std.to_bits(), pr.e_std.to_bits());
        }
        // Strategy proposals — offline plan *and* the OFS refinement
        // driven by identical synthetic observations — must be identical.
        let mut strat_t = trained.strategy_for(enc_t, 24, 99);
        let mut strat_r = reloaded.strategy_for(enc_r, 24, 99);
        assert_eq!(
            strat_t.planned_offline(),
            strat_r.planned_offline(),
            "offline plan differs (workers = {workers})"
        );
        assert_eq!(
            proposal_trace(&mut strat_t, 8),
            proposal_trace(&mut strat_r, 8),
            "proposal sequence differs (workers = {workers})"
        );
    }
}

#[test]
fn reloaded_bundle_is_bit_identical_sequential() {
    assert_serve_matches_train(1);
}

#[test]
fn reloaded_bundle_is_bit_identical_parallel() {
    assert_serve_matches_train(0);
}

#[test]
fn staged_pipeline_matches_one_shot_run_through_disk() {
    let s = solver();
    let one_shot = Pipeline::new(micro_config(1))
        .try_run(&s)
        .expect("micro pipeline trains");

    // collect → (disk) → train must reproduce the one-shot run exactly.
    let corpus = Pipeline::new(micro_config(1))
        .collect_corpus(&s)
        .expect("collect stage");
    let path = temp_path("corpus.qross");
    corpus.save(&path).expect("save corpus");
    let reloaded_corpus = CollectedCorpus::load(&path).expect("load corpus");
    assert_eq!(reloaded_corpus, corpus);

    let staged = TrainedQross::train_on_corpus(&reloaded_corpus).expect("train stage");
    assert_eq!(staged.dataset_len, one_shot.dataset_len);
    assert_eq!(staged.report, one_shot.report);

    let grid = a_grid();
    for (enc_a, enc_b) in one_shot.test_encodings.iter().zip(&staged.test_encodings) {
        let pa = one_shot
            .surrogate
            .predict_grid(&one_shot.features_for(enc_a), &grid);
        let pb = staged
            .surrogate
            .predict_grid(&staged.features_for(enc_b), &grid);
        assert_eq!(pa, pb, "staged pipeline diverged from one-shot run");
    }
}

#[test]
fn bundle_bytes_are_worker_count_invariant() {
    // The dataset/surrogate are bit-identical across worker counts
    // (PR 2's contract), so — after normalising the `workers` throughput
    // knob, which is legitimately part of the stored config — the
    // serialized bundles must be byte-equal.
    let bundle_at = |workers: usize| {
        let mut bundle = Pipeline::new(micro_config(workers))
            .try_run(&solver())
            .expect("micro pipeline trains")
            .to_bundle()
            .expect("bundle");
        bundle.config.workers = 0;
        bundle.to_store_bytes()
    };
    assert_eq!(
        bundle_at(1),
        bundle_at(2),
        "bundle bytes differ between 1 and 2 workers"
    );
}

// ---------------------------------------------------------------------------
// Golden fixture (forward-compatibility gate)
// ---------------------------------------------------------------------------

/// The fixture's exact expected content, reconstructed from pure integer
/// arithmetic (no libm, no RNG) so it is identical on every platform.
fn golden_state() -> SurrogateState {
    // Tiny deterministic pseudo-random rationals: x_k = ((k*37+11) % 64 - 32) / 16.
    let val = |k: usize| (((k * 37 + 11) % 64) as f64 - 32.0) / 16.0;
    let dense = |input: usize, output: usize, salt: usize| LayerSpec::Dense {
        input,
        output,
        weights: (0..input * output).map(|k| val(k + salt)).collect(),
        bias: (0..output).map(|k| val(k + salt + 101)).collect(),
    };
    // Head shapes must satisfy the snapshot invariants the decoder
    // enforces: both consume the scalers' width (2 features + ln A = 3),
    // Pf emits 1 value, the energy head 2.
    let net = |salt: usize, out: usize| MlpState {
        input_dim: 3,
        layers: vec![dense(3, 4, salt), LayerSpec::Relu, dense(4, out, salt + 53)],
    };
    let z = |m: f64, s: f64| qross_repro::mathkit::stats::ZScore { mean: m, std: s };
    SurrogateState {
        pf_net: net(0, 1),
        e_net: net(211, 2),
        scalers: Scalers {
            features: vec![z(0.5, 2.0), z(-1.25, 0.5)],
            log_a: z(0.0, 1.0),
            e_avg: z(8.0, 4.0),
            e_std: z(1.0, 0.25),
        },
    }
}

const GOLDEN_PATH: &str = "tests/fixtures/golden_v1.qross";

/// Regenerate with `QROSS_WRITE_GOLDEN=1 cargo test golden -- --nocapture`
/// — only needed when the wire format version is bumped (and then the old
/// fixture should be *kept* and the new one added, so every historical
/// version stays covered).
#[test]
fn golden_fixture_still_decodes() {
    let expected = golden_state();
    if std::env::var("QROSS_WRITE_GOLDEN").is_ok() {
        expected.save(GOLDEN_PATH).expect("write golden fixture");
        println!("wrote {GOLDEN_PATH}");
    }
    let bytes = std::fs::read(GOLDEN_PATH).expect("golden fixture missing — see test doc");
    let decoded = SurrogateState::from_store_bytes(&bytes)
        .expect("golden v1 fixture no longer decodes: wire-format compatibility broken");
    assert_eq!(decoded.pf_net, expected.pf_net);
    assert_eq!(decoded.e_net, expected.e_net);
    assert_eq!(decoded.scalers, expected.scalers);
    // The decoded snapshot must restore to a working surrogate whose
    // output is finite and reproducible.
    let sur = Surrogate::from_state(decoded).expect("restore surrogate");
    let p = sur.predict(&[0.25, -0.5], 1.0);
    let q = sur.predict(&[0.25, -0.5], 1.0);
    assert_eq!(p, q);
    assert!(p.pf.is_finite() && p.e_avg.is_finite() && p.e_std.is_finite());
}

// ---------------------------------------------------------------------------
// Golden instance-section fixtures (payload v1 dense / v2 sparse)
// ---------------------------------------------------------------------------

const GOLDEN_CORPUS_V1_PATH: &str = "tests/fixtures/golden_corpus_v1.qross";
const GOLDEN_CORPUS_V2_PATH: &str = "tests/fixtures/golden_corpus_v2.qross";
const GOLDEN_BUNDLE_V1_PATH: &str = "tests/fixtures/golden_bundle_v1.qross";

/// Golden instances from pure integer arithmetic: quarter-unit
/// coordinates are exactly representable and `sqrt` is IEEE-correctly
/// rounded, so the derived distance matrices are identical on every
/// platform. One instance is pushed through `scaled` (coords dropped)
/// so the fixtures cover the upper-triangle storage path too.
fn golden_instances() -> Vec<TspInstance> {
    let coords_of = |salt: usize| -> Vec<(f64, f64)> {
        (0..6)
            .map(|i| {
                let x = ((i * 13 + salt * 7 + 5) % 40) as f64 * 0.25;
                let y = ((i * 29 + salt * 11 + 3) % 40) as f64 * 0.25;
                (x, y)
            })
            .collect()
    };
    let a = TspInstance::from_coords("golden-a", &coords_of(0));
    let b = TspInstance::from_coords("golden-b", &coords_of(1));
    let explicit = a.scaled(2.0);
    vec![a, b, explicit]
}

/// The golden corpus: coordinate + explicit instances, the RandomGcn
/// recipe (2·4 + 2 = 10 features) and a tiny matching dataset, all from
/// integer-derived rationals.
fn golden_corpus() -> CollectedCorpus {
    let val = |k: usize| (((k * 37 + 11) % 64) as f64 - 32.0) / 16.0;
    let mut dataset = SurrogateDataset::new(10);
    for r in 0..2 {
        dataset.push(DatasetRow {
            features: (0..10).map(|c| val(r * 10 + c)).collect(),
            a: 0.5 + r as f64,
            pf: 0.25 * (r + 1) as f64,
            e_avg: 4.0 - r as f64,
            e_std: 0.5,
        });
    }
    let instances = golden_instances();
    CollectedCorpus {
        config: PipelineConfig::micro(),
        featurizer: FeaturizerSpec::RandomGcn { hidden: 4, seed: 9 },
        train_instances: instances.clone(),
        test_instances: instances[..1].to_vec(),
        dataset,
    }
}

/// A golden serve bundle over the same instances: a pure-integer
/// surrogate snapshot sized to the RandomGcn recipe's 10 features.
fn golden_bundle() -> QrossBundle {
    let val = |k: usize| (((k * 37 + 11) % 64) as f64 - 32.0) / 16.0;
    let dense = |input: usize, output: usize, salt: usize| LayerSpec::Dense {
        input,
        output,
        weights: (0..input * output).map(|k| val(k + salt)).collect(),
        bias: (0..output).map(|k| val(k + salt + 101)).collect(),
    };
    let net = |salt: usize, out: usize| MlpState {
        input_dim: 11,
        layers: vec![
            dense(11, 4, salt),
            LayerSpec::Relu,
            dense(4, out, salt + 53),
        ],
    };
    let z = |m: f64, s: f64| qross_repro::mathkit::stats::ZScore { mean: m, std: s };
    let corpus = golden_corpus();
    QrossBundle {
        config: corpus.config,
        featurizer: corpus.featurizer,
        surrogate: SurrogateState {
            pf_net: net(0, 1),
            e_net: net(211, 2),
            scalers: Scalers {
                features: (0..10).map(|k| z(val(k), 2.0)).collect(),
                log_a: z(0.0, 1.0),
                e_avg: z(8.0, 4.0),
                e_std: z(1.0, 0.25),
            },
        },
        train_instances: corpus.train_instances,
        test_instances: corpus.test_instances,
        dataset_len: corpus.dataset.len(),
        report: TrainReport::default(),
    }
}

fn write_fixture(path: &str, bytes: &[u8]) {
    if std::env::var("QROSS_WRITE_GOLDEN").is_ok() {
        std::fs::write(path, bytes).expect("write golden fixture");
        println!("wrote {path}");
    }
}

/// The committed v1 (dense-matrix) and v2 (sparse coordinate) corpus
/// fixtures must both keep decoding, and must reconstruct bit-identical
/// distance matrices. The v2 fixture additionally restores coordinate
/// provenance; v1 cannot carry it. Regenerate (both at once) with
/// `QROSS_WRITE_GOLDEN=1 cargo test golden` — when the payload version
/// bumps again, keep these fixtures and add new ones.
#[test]
fn golden_corpus_fixtures_decode_with_bit_identical_instances() {
    let expected = golden_corpus();
    write_fixture(GOLDEN_CORPUS_V1_PATH, &expected.to_v1_bytes());
    write_fixture(GOLDEN_CORPUS_V2_PATH, &expected.to_store_bytes());

    let v1_bytes = std::fs::read(GOLDEN_CORPUS_V1_PATH).expect("v1 corpus fixture missing");
    let v1 = CollectedCorpus::from_store_bytes(&v1_bytes)
        .expect("golden v1 corpus no longer decodes: dense-instance compatibility broken");
    assert_eq!(v1.config, expected.config);
    assert_eq!(v1.featurizer, expected.featurizer);
    assert_eq!(v1.dataset, expected.dataset);
    for (got, want) in v1.train_instances.iter().chain(&v1.test_instances).zip(
        expected
            .train_instances
            .iter()
            .chain(&expected.test_instances),
    ) {
        assert_eq!(got.name(), want.name());
        let bits = |i: &TspInstance| -> Vec<u64> {
            i.matrix().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(got), bits(want), "v1 matrix bits drifted");
        assert!(got.coords().is_none(), "v1 cannot carry coordinates");
    }

    let v2_bytes = std::fs::read(GOLDEN_CORPUS_V2_PATH).expect("v2 corpus fixture missing");
    let v2 = CollectedCorpus::from_store_bytes(&v2_bytes)
        .expect("golden v2 corpus no longer decodes: sparse-instance compatibility broken");
    assert_eq!(v2, expected, "v2 reload is not bit-identical");
    assert!(v2.train_instances[0].coords().is_some());
    assert!(v2.train_instances[2].coords().is_none());
}

/// The v1-reader compatibility gate the refactor must preserve: a serve
/// bundle written with the legacy dense instance section reloads through
/// today's reader into a model whose featurisation and `predict_grid`
/// are bit-identical to the in-memory original.
#[test]
fn golden_bundle_v1_reloads_with_bit_identical_predict_grid() {
    let expected = golden_bundle();
    write_fixture(GOLDEN_BUNDLE_V1_PATH, &expected.to_v1_bytes());

    let bytes = std::fs::read(GOLDEN_BUNDLE_V1_PATH).expect("v1 bundle fixture missing");
    let decoded = QrossBundle::from_store_bytes(&bytes)
        .expect("golden v1 bundle no longer decodes: dense-instance compatibility broken");
    let reloaded = decoded.into_trained().expect("restore trained model");
    let reference = expected.into_trained().expect("restore reference model");

    let grid = a_grid();
    assert_eq!(
        reloaded.test_encodings.len(),
        reference.test_encodings.len()
    );
    for (enc_r, enc_e) in reloaded
        .test_encodings
        .iter()
        .zip(&reference.test_encodings)
    {
        let feat_r = reloaded.features_for(enc_r);
        let feat_e = reference.features_for(enc_e);
        assert_eq!(
            feat_r, feat_e,
            "featurisation drifted through the v1 reader"
        );
        for (pr, pe) in reloaded
            .surrogate
            .predict_grid(&feat_r, &grid)
            .iter()
            .zip(reference.surrogate.predict_grid(&feat_e, &grid))
        {
            assert_eq!(pr.pf.to_bits(), pe.pf.to_bits());
            assert_eq!(pr.e_avg.to_bits(), pe.e_avg.to_bits());
            assert_eq!(pr.e_std.to_bits(), pe.e_std.to_bits());
        }
    }
}

/// What `qross-train --format json` writes — a bundle's or a surrogate
/// snapshot's JSON dump — is for reading only: the loaders behind
/// `qross-predict` reject it as a bad magic instead of decoding it.
#[test]
fn json_dumps_are_rejected_as_bad_magic() {
    let bundle_dump = temp_path("dump_bundle.json");
    golden_bundle()
        .save_json(&bundle_dump)
        .expect("dump bundle");
    match TrainedQross::load(&bundle_dump) {
        Err(QrossError::Persistence { message }) => {
            assert_eq!(message, StoreError::BadMagic.to_string())
        }
        other => panic!("bundle dump was not rejected as a bad magic: {other:?}"),
    }

    let state_dump = temp_path("dump_state.json");
    golden_state()
        .save_json(&state_dump)
        .expect("dump snapshot");
    assert!(std::fs::metadata(&state_dump).expect("dump written").len() > 0);
    assert_eq!(
        SurrogateState::load(&state_dump).unwrap_err(),
        StoreError::BadMagic
    );
}
