//! Write-only JSON dump — human-readable and diffable, never read back.
//!
//! The binary container is the only format an artifact loads from
//! (bit-exact, checksummed, versioned); JSON is a debugging dump of the
//! same structs. JSON cannot represent NaN or infinities, so a dump shows
//! them as `null`.
//!
//! This is also the single JSON write path for the experiment harness:
//! `bench`'s figure binaries and manifests route their `results/*.json`
//! artefacts through [`write_json_file`] instead of hand-rolling paths
//! and `fs::write` calls.

use std::path::Path;

use crate::StoreError;

/// Writes `value` as pretty-printed JSON to `path`, atomically as
/// [`Artifact::save`](crate::Artifact::save) does, creating parent
/// directories on demand.
///
/// # Errors
///
/// [`StoreError::Io`] / [`StoreError::Json`].
pub fn write_json_file<T: serde::Serialize>(
    path: impl AsRef<Path>,
    value: &T,
) -> Result<(), StoreError> {
    let json = serde_json::to_string_pretty(value).map_err(|e| StoreError::Json {
        message: e.to_string(),
    })?;
    crate::write_atomic(path.as_ref(), json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_dump_creates_dirs() {
        let dir = std::env::temp_dir().join("qross_store_json_io");
        let path = dir.join("nested/value.json");
        write_json_file(&path, &vec![1.5f64, -2.25]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("1.5") && text.contains("-2.25"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
