//! `qross-serve --model` loads `.qross` artifacts only: the committed
//! golden bundle and surrogate snapshot start a server, and their JSON
//! dumps — what `qross-train --format json` writes — are refused with a
//! typed bad-magic error and exit status 1, never a panic. A `--corpus`
//! neither decoder reads is refused the same way, naming both diagnoses.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use qross::pipeline::QrossBundle;
use qross::surrogate::SurrogateState;
use qross_store::{Artifact, StoreError};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Runs `qross-serve --model path` with an empty request stream.
fn serve(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qross-serve"))
        .arg("--model")
        .arg(path)
        .stdin(Stdio::null())
        .output()
        .expect("qross-serve runs")
}

/// Runs `qross-serve --model path --online --corpus corpus` with an empty
/// request stream.
fn serve_online(path: &Path, corpus: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qross-serve"))
        .arg("--model")
        .arg(path)
        .arg("--online")
        .arg("--corpus")
        .arg(corpus)
        .stdin(Stdio::null())
        .output()
        .expect("qross-serve runs")
}

fn assert_rejected_as_dump(path: &Path) {
    let out = serve(path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    // Both attempts, as bundle and as checkpoint, name the bad magic.
    let bad_magic = StoreError::BadMagic.to_string();
    assert!(
        stderr.starts_with("error: loading model failed"),
        "{stderr}"
    );
    assert_eq!(stderr.matches(&bad_magic).count(), 2, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn qross_models_load_and_their_json_dumps_are_rejected() {
    let dir =
        std::env::temp_dir().join(format!("qross_serve_model_formats-{}", std::process::id()));

    let bundle_path = fixture("golden_bundle_v1.qross");
    let out = serve(&bundle_path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = dir.join("bundle.json");
    let bundle = QrossBundle::load(&bundle_path).expect("golden bundle decodes");
    bundle.save_json(&dump).expect("write bundle dump");
    assert_rejected_as_dump(&dump);

    let state_path = fixture("golden_v1.qross");
    let out = serve(&state_path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = dir.join("state.json");
    let state = SurrogateState::load(&state_path).expect("golden snapshot decodes");
    state.save_json(&dump).expect("write snapshot dump");
    assert_rejected_as_dump(&dump);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus file whose kind tag says `DSET` but which holds no `DATA`
/// section is refused with both decoders' diagnoses: the dataset
/// decoder's missing section as well as the corpus decoder's kind
/// mismatch.
#[test]
fn a_corrupt_dataset_corpus_reports_both_decoders() {
    let dir = std::env::temp_dir().join(format!("qross_serve_corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bundle_path = fixture("golden_bundle_v1.qross");
    let mut bytes = std::fs::read(&bundle_path).expect("golden bundle");
    // The container header holds the artifact kind tag at bytes 12..16.
    assert_eq!(&bytes[12..16], b"BNDL");
    bytes[12..16].copy_from_slice(b"DSET");
    let corpus = dir.join("patched.qross");
    std::fs::write(&corpus, &bytes).expect("write patched corpus");

    let out = serve_online(&bundle_path, &corpus);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("loading corpus failed"), "{stderr}");
    let missing = StoreError::MissingSection {
        tag: "DATA".to_string(),
    };
    assert!(stderr.contains(&missing.to_string()), "{stderr}");
    assert!(stderr.contains("`CORP`"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
