//! # qross-store — the versioned artifact store
//!
//! QROSS's premise is *train once, serve many*: surrogates are trained
//! offline on a corpus of solved instances and then amortised across
//! unseen instances. This crate is the persistence layer that makes the
//! split real — every pipeline artifact (datasets, surrogate snapshots,
//! trained bundles, evaluation curves) is written through one [`Artifact`]
//! trait and read back through one decoder:
//!
//! * the **`.qross` binary container** — a versioned, length-framed
//!   little-endian codec with a magic header, a per-artifact kind tag, a
//!   section table and a CRC-32 per section. `f64` values travel as raw
//!   bit patterns, so round-trips are *bit-exact* (NaN payloads, signed
//!   zeros and infinities included) and a reloaded surrogate reproduces
//!   its in-memory predictions to the last bit. It is the only format
//!   [`Artifact::load`] accepts;
//! * a **write-only JSON dump** ([`json`], [`Artifact::save_json`]) for
//!   debugging — human-readable and diffable, but never read back, so
//!   every artifact that reaches memory has passed the container's checks.
//!
//! The wire format is specified in `ARTIFACTS.md` at the repository root.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"QROSSART"
//! 8       4     container format version (u32 LE, currently 1)
//! 12      4     artifact kind tag (4 ASCII bytes, e.g. b"BNDL")
//! 16      4     artifact payload version (u32 LE, per kind)
//! 20      4     section count k (u32 LE)
//! 24      24*k  section table, one entry per section:
//!               tag [u8;4] + offset u64 + len u64 + crc32 u32
//!               (offsets relative to the payload blob)
//! 24+24k  ...   payload blob (sections concatenated in table order)
//! ```
//!
//! Decoding validates the magic, rejects containers from a *newer* format
//! version with a typed error (older readers must not misparse newer
//! files), bounds-checks the section table against the input, and verifies
//! each section's CRC before handing its bytes to the artifact decoder.
//! Nothing in the decode path panics on corrupted input.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod json;

use codec::{crc32, ByteReader, ByteWriter};
use neural::layers::LayerSpec;
use neural::network::MlpState;

/// Magic prefix of every `.qross` binary container.
pub const MAGIC: [u8; 8] = *b"QROSSART";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Bytes per section-table entry: tag(4) + offset(8) + len(8) + crc32(4).
const SECTION_ENTRY_LEN: usize = 24;

/// Fixed header length before the section table.
const HEADER_LEN: usize = 24;

/// Errors from encoding or decoding artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure (message carries the `std::io::Error` text).
    Io {
        /// explanation, including the path involved
        message: String,
    },
    /// The input does not start with the `.qross` magic bytes.
    BadMagic,
    /// The container was written by a newer format than this reader.
    UnsupportedVersion {
        /// version found in the header
        found: u32,
        /// newest version this build can read
        supported: u32,
    },
    /// The container holds a different artifact kind than requested.
    WrongKind {
        /// expected 4-byte kind tag, rendered as ASCII
        expected: String,
        /// kind tag found in the header
        found: String,
    },
    /// A required section is missing from the container.
    MissingSection {
        /// the absent section's 4-byte tag, rendered as ASCII
        tag: String,
    },
    /// A section's checksum does not match its bytes.
    ChecksumMismatch {
        /// the failing section's tag, rendered as ASCII
        tag: String,
    },
    /// The input ends before a declared value.
    Truncated {
        /// bytes the decoder needed
        needed: usize,
        /// bytes actually available
        available: usize,
    },
    /// Structurally invalid content (bad tags, impossible lengths,
    /// inconsistent shapes, trailing bytes).
    Corrupt {
        /// explanation
        message: String,
    },
    /// The JSON dump could not be serialised.
    Json {
        /// explanation
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { message } => write!(f, "io: {message}"),
            StoreError::BadMagic => write!(f, "not a .qross artifact (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "container format v{found} is newer than supported v{supported}"
            ),
            StoreError::WrongKind { expected, found } => {
                write!(f, "expected artifact kind `{expected}`, found `{found}`")
            }
            StoreError::MissingSection { tag } => write!(f, "missing section `{tag}`"),
            StoreError::ChecksumMismatch { tag } => {
                write!(f, "section `{tag}` failed its CRC-32 check")
            }
            StoreError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            StoreError::Corrupt { message } => write!(f, "corrupt artifact: {message}"),
            StoreError::Json { message } => write!(f, "json: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn tag_str(tag: [u8; 4]) -> String {
    tag.iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
        .collect()
}

fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io {
        message: format!("{context}: {e}"),
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: the next [`write_atomic`] on this thread fails after the
    /// temp file is written and synced, before it is renamed.
    static FAIL_BEFORE_RENAME: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Writes `bytes` to `path` so that `path` holds either its old content
/// or all of the new: the bytes go to a sibling temp file, which is
/// synced and renamed over `path`, and then the directory is synced.
/// Parent directories are created on demand; on error the temp file is
/// removed.
fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write;
    static TEMPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| io_err(&format!("create {}", dir.display()), e))?;
    let mut temp = path.as_os_str().to_os_string();
    temp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        TEMPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let temp = std::path::PathBuf::from(temp);
    let written = std::fs::File::create(&temp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| {
            #[cfg(test)]
            if FAIL_BEFORE_RENAME.with(|fail| fail.replace(false)) {
                return Err(std::io::Error::other("injected fault before rename"));
            }
            std::fs::rename(&temp, path)
        });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&temp);
        return Err(io_err(&format!("write {}", path.display()), e));
    }
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(&format!("sync {}", dir.display()), e))
}

/// Accumulates named sections for one container.
#[derive(Debug, Default)]
pub struct SectionWriter {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SectionWriter {
    /// Creates an empty section set.
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// Adds a section built by `f`.
    pub fn section(&mut self, tag: [u8; 4], f: impl FnOnce(&mut ByteWriter)) {
        let mut w = ByteWriter::new();
        f(&mut w);
        self.sections.push((tag, w.into_bytes()));
    }

    /// Serialises the accumulated sections as a full container with the
    /// given kind tag and payload version.
    ///
    /// [`Artifact::to_store_bytes`] calls this with `Artifact::VERSION`;
    /// it is public so artifact crates can also emit *older* payload
    /// versions of a kind (golden compatibility fixtures, size
    /// comparisons against a legacy layout) without duplicating the
    /// container framing.
    pub fn encode(self, kind: [u8; 4], payload_version: u32) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let blob_len: usize = self.sections.iter().map(|(_, b)| b.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + table_len + blob_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&kind);
        out.extend_from_slice(&payload_version.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = 0u64;
        for (tag, bytes) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(bytes).to_le_bytes());
            offset += bytes.len() as u64;
        }
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
        }
        out
    }
}

/// A parsed container: header fields plus CRC-verified section access.
#[derive(Debug)]
pub struct SectionReader<'a> {
    /// artifact kind tag from the header
    pub kind: [u8; 4],
    /// per-kind payload version from the header
    pub payload_version: u32,
    sections: Vec<([u8; 4], &'a [u8], u32)>,
}

impl<'a> SectionReader<'a> {
    /// Parses and validates a container's header and section table.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::UnsupportedVersion`] /
    /// [`StoreError::Truncated`] / [`StoreError::Corrupt`] for malformed
    /// containers. Section CRCs are checked lazily by [`Self::section`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let format = r.get_u32()?;
        if format > FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: format,
                supported: FORMAT_VERSION,
            });
        }
        let kind_bytes = r.take(4)?;
        let kind = [kind_bytes[0], kind_bytes[1], kind_bytes[2], kind_bytes[3]];
        let payload_version = r.get_u32()?;
        let count = r.get_u32()? as usize;
        let table_bytes = count.checked_mul(SECTION_ENTRY_LEN).ok_or({
            StoreError::Corrupt {
                message: "section count overflows".to_string(),
            }
        })?;
        if r.remaining() < table_bytes {
            return Err(StoreError::Truncated {
                needed: table_bytes,
                available: r.remaining(),
            });
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let tag_bytes = r.take(4)?;
            let tag = [tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]];
            let offset = r.get_u64()?;
            let len = r.get_u64()?;
            let crc = r.get_u32()?;
            entries.push((tag, offset, len, crc));
        }
        let blob = r.take(r.remaining())?;
        let mut sections = Vec::with_capacity(count);
        for (tag, offset, len, crc) in entries {
            let end = offset.checked_add(len).ok_or_else(|| StoreError::Corrupt {
                message: format!("section `{}` range overflows", tag_str(tag)),
            })?;
            if end > blob.len() as u64 {
                return Err(StoreError::Truncated {
                    needed: end as usize,
                    available: blob.len(),
                });
            }
            sections.push((tag, &blob[offset as usize..end as usize], crc));
        }
        Ok(SectionReader {
            kind,
            payload_version,
            sections,
        })
    }

    /// Returns a section's bytes after verifying its CRC-32.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when `tag` is absent,
    /// [`StoreError::ChecksumMismatch`] when the stored CRC disagrees
    /// with the bytes.
    pub fn section(&self, tag: [u8; 4]) -> Result<ByteReader<'a>, StoreError> {
        let (_, bytes, crc) = self
            .sections
            .iter()
            .find(|(t, _, _)| *t == tag)
            .ok_or_else(|| StoreError::MissingSection { tag: tag_str(tag) })?;
        if crc32(bytes) != *crc {
            return Err(StoreError::ChecksumMismatch { tag: tag_str(tag) });
        }
        Ok(ByteReader::new(bytes))
    }

    /// Tags present in this container, in table order.
    pub fn tags(&self) -> Vec<[u8; 4]> {
        self.sections.iter().map(|(t, _, _)| *t).collect()
    }
}

/// One persistable pipeline artifact.
///
/// Implementors describe how to lay their fields out into named container
/// sections; the trait supplies file and byte-level `save`/`load` on top,
/// plus a write-only JSON dump via the `Serialize` supertrait. The binary
/// container is the only format that loads, and it is bit-exact for every
/// `f64`.
pub trait Artifact: serde::Serialize + Sized {
    /// 4-byte ASCII artifact kind tag (e.g. `*b"DSET"`).
    const KIND: [u8; 4];
    /// Payload version written by this build; readers reject newer ones.
    const VERSION: u32 = 1;

    /// Lays the artifact out into container sections.
    fn write_sections(&self, out: &mut SectionWriter);

    /// Rebuilds the artifact from parsed sections.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] for missing/corrupt sections.
    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError>;

    /// Encodes to `.qross` container bytes.
    fn to_store_bytes(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        self.write_sections(&mut w);
        w.encode(Self::KIND, Self::VERSION)
    }

    /// Decodes from `.qross` container bytes.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]; notably [`StoreError::WrongKind`] when the
    /// container holds a different artifact and
    /// [`StoreError::UnsupportedVersion`] for payloads from a newer build.
    fn from_store_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let reader = SectionReader::parse(bytes)?;
        if reader.kind != Self::KIND {
            return Err(StoreError::WrongKind {
                expected: tag_str(Self::KIND),
                found: tag_str(reader.kind),
            });
        }
        if reader.payload_version > Self::VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: reader.payload_version,
                supported: Self::VERSION,
            });
        }
        Self::read_sections(&reader)
    }

    /// Writes the binary container to `path` atomically: a crash or an
    /// error mid-write leaves the previous file at `path` intact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), StoreError> {
        write_atomic(path.as_ref(), &self.to_store_bytes())
    }

    /// Reads a binary container from `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, else as
    /// [`Artifact::from_store_bytes`] — a JSON dump is
    /// [`StoreError::BadMagic`].
    fn load(path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        Self::from_store_bytes(&bytes)
    }

    /// Writes the write-only JSON debugging dump to `path`. Nothing reads
    /// it back: [`Artifact::load`] rejects it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Json`].
    fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), StoreError> {
        json::write_json_file(path, self)
    }
}

// ---------------------------------------------------------------------------
// Artifact impl for the neural network snapshot
// ---------------------------------------------------------------------------

/// Layer discriminants of the `NET ` section encoding.
const LAYER_DENSE: u8 = 0;
const LAYER_RELU: u8 = 1;
const LAYER_SIGMOID: u8 = 2;
const LAYER_TANH: u8 = 3;

/// Encodes one [`MlpState`] into `w` (shared by the `MLPS` artifact and
/// composite artifacts embedding networks, e.g. surrogate snapshots).
pub fn put_mlp_state(w: &mut ByteWriter, state: &MlpState) {
    w.put_usize(state.input_dim);
    w.put_usize(state.layers.len());
    for layer in &state.layers {
        match layer {
            LayerSpec::Dense {
                input,
                output,
                weights,
                bias,
            } => {
                w.put_u8(LAYER_DENSE);
                w.put_usize(*input);
                w.put_usize(*output);
                w.put_f64_slice(weights);
                w.put_f64_slice(bias);
            }
            LayerSpec::Relu => w.put_u8(LAYER_RELU),
            LayerSpec::Sigmoid => w.put_u8(LAYER_SIGMOID),
            LayerSpec::Tanh => w.put_u8(LAYER_TANH),
        }
    }
}

/// Decodes one [`MlpState`] written by [`put_mlp_state`].
///
/// # Errors
///
/// [`StoreError::Truncated`] / [`StoreError::Corrupt`] on malformed
/// input, including dense layers whose declared shape disagrees with
/// their weight count.
pub fn get_mlp_state(r: &mut ByteReader<'_>) -> Result<MlpState, StoreError> {
    let input_dim = r.get_usize()?;
    let num_layers = r.get_len(1)?;
    let mut layers = Vec::with_capacity(num_layers);
    for i in 0..num_layers {
        let tag = r.get_u8()?;
        let layer = match tag {
            LAYER_DENSE => {
                let input = r.get_usize()?;
                let output = r.get_usize()?;
                let weights = r.get_f64_vec()?;
                let bias = r.get_f64_vec()?;
                let expect = input.checked_mul(output).ok_or(StoreError::Corrupt {
                    message: format!("layer {i}: shape overflows"),
                })?;
                if weights.len() != expect || bias.len() != output {
                    return Err(StoreError::Corrupt {
                        message: format!(
                            "layer {i}: {}x{} dense with {} weights / {} biases",
                            input,
                            output,
                            weights.len(),
                            bias.len()
                        ),
                    });
                }
                LayerSpec::Dense {
                    input,
                    output,
                    weights,
                    bias,
                }
            }
            LAYER_RELU => LayerSpec::Relu,
            LAYER_SIGMOID => LayerSpec::Sigmoid,
            LAYER_TANH => LayerSpec::Tanh,
            other => {
                return Err(StoreError::Corrupt {
                    message: format!("layer {i}: unknown layer tag {other:#04x}"),
                })
            }
        };
        layers.push(layer);
    }
    Ok(MlpState { input_dim, layers })
}

impl Artifact for MlpState {
    const KIND: [u8; 4] = *b"MLPS";

    fn write_sections(&self, out: &mut SectionWriter) {
        out.section(*b"NET ", |w| put_mlp_state(w, self));
    }

    fn read_sections(reader: &SectionReader<'_>) -> Result<Self, StoreError> {
        let mut r = reader.section(*b"NET ")?;
        let state = get_mlp_state(&mut r)?;
        r.finish()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::network::MlpBuilder;

    fn sample_state() -> MlpState {
        MlpBuilder::new(3)
            .dense(5)
            .relu()
            .dense(2)
            .sigmoid()
            .build(42)
            .to_state()
    }

    fn other_state() -> MlpState {
        MlpBuilder::new(2).dense(1).build(7).to_state()
    }

    #[test]
    fn mlp_state_binary_roundtrip() {
        let state = sample_state();
        let bytes = state.to_store_bytes();
        let back = MlpState::from_store_bytes(&bytes).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn container_header_fields() {
        let bytes = sample_state().to_store_bytes();
        let reader = SectionReader::parse(&bytes).unwrap();
        assert_eq!(reader.kind, *b"MLPS");
        assert_eq!(reader.payload_version, 1);
        assert_eq!(reader.tags(), vec![*b"NET "]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_state().to_store_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            MlpState::from_store_bytes(&bytes).unwrap_err(),
            StoreError::BadMagic
        );
    }

    #[test]
    fn newer_container_version_rejected() {
        let mut bytes = sample_state().to_store_bytes();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            MlpState::from_store_bytes(&bytes),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn newer_payload_version_rejected() {
        let mut bytes = sample_state().to_store_bytes();
        bytes[16..20].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            MlpState::from_store_bytes(&bytes),
            Err(StoreError::UnsupportedVersion { found: 2, .. })
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        let mut bytes = sample_state().to_store_bytes();
        bytes[12..16].copy_from_slice(b"XXXX");
        assert!(matches!(
            MlpState::from_store_bytes(&bytes),
            Err(StoreError::WrongKind { .. })
        ));
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let bytes = sample_state().to_store_bytes();
        // Flip one byte in every payload position; the CRC must catch it.
        let payload_start = HEADER_LEN + SECTION_ENTRY_LEN;
        let mut caught = 0;
        for i in payload_start..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            match MlpState::from_store_bytes(&corrupted) {
                Err(StoreError::ChecksumMismatch { .. }) => caught += 1,
                other => panic!("byte {i}: corruption yielded {other:?}"),
            }
        }
        assert!(caught > 0);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_state().to_store_bytes();
        for cut in 0..bytes.len() {
            assert!(
                MlpState::from_store_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} went undetected"
            );
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn dir_entries(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn json_dump_is_written_but_never_loads() {
        let state = sample_state();
        let dir = temp_dir("qross_store_test_json");
        let path = dir.join("mlp.json");
        state.save_json(&path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        assert_eq!(MlpState::load(&path).unwrap_err(), StoreError::BadMagic);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_replaces_the_target_and_leaves_no_temp_file() {
        let dir = temp_dir("qross_store_test_save");
        let path = dir.join("mlp.qross");
        other_state().save(&path).unwrap();
        let state = sample_state();
        state.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), state.to_store_bytes());
        assert_eq!(dir_entries(&dir), ["mlp.qross"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_save_keeps_the_old_artifact() {
        let dir = temp_dir("qross_store_test_fault");
        let path = dir.join("mlp.qross");
        let old = sample_state();
        old.save(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        FAIL_BEFORE_RENAME.with(|fail| fail.set(true));
        let err = other_state().save(&path).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);
        assert_eq!(MlpState::load(&path).unwrap(), old);
        assert_eq!(dir_entries(&dir), ["mlp.qross"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
