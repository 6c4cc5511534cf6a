//! `qross-serve --model` loads `.qross` artifacts only: the committed
//! golden bundle and surrogate snapshot start a server, and their JSON
//! dumps — what `qross-train --format json` writes — are refused with a
//! typed bad-magic error and exit status 1, never a panic.

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
