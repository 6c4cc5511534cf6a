//! QBIN — the length-framed binary wire protocol (version 1).
//!
//! NDJSON puts a JSON parse and a text float round-trip on every hot
//! request; QBIN replaces both with fixed-offset little-endian reads.
//! It reuses the `.qross` codec discipline end to end: every read is
//! bounds-checked, length prefixes are validated against the remaining
//! bytes *before* any allocation, hostile input yields a typed
//! [`BinError`] (never a panic), and every `f64` travels as its exact
//! IEEE-754 bit pattern — a QBIN predict response carries the same bits
//! as the NDJSON response for the same request.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := magic version op length payload crc
//! magic   := "QBIN"                      (4 bytes; doubles as the
//!                                         protocol-sniffing token)
//! version := u8                          (1)
//! op      := u8                          (request/response tag below)
//! length  := u32 LE                      (payload bytes; capped at
//!                                         MAX_FRAME_BYTES)
//! payload := length bytes                (op-specific grammar)
//! crc     := u32 LE                      (CRC-32/IEEE of version, op,
//!                                         length and payload — every
//!                                         byte after the magic)
//! ```
//!
//! The CRC covers the header fields as well as the payload, so any
//! single-bit corruption anywhere in a frame is detected: a flipped
//! magic byte is a [`BinError::BadMagic`], everything else fails the
//! checksum. After a CRC mismatch the decoder resyncs at the next frame
//! boundary (the declared length is still the best guess); after a bad
//! magic or unknown version it declares the stream unrecoverable —
//! framing itself is lost.
//!
//! # Payload grammars
//!
//! The fixed-width fields (`u8`, `u32`, `u64`, `f64`, `opt_f64`) are read
//! and written by `qross_store::codec`'s [`ByteReader`] and [`ByteWriter`],
//! the `.qross` container's own primitives, and their errors keep their
//! QBIN texts. QBIN's grammar sits on top of them (all little-endian):
//! `opt_u64` is a presence byte (`0`/`1`) followed by a `u64` when
//! present; `str` is a `u32` byte count followed by UTF-8 bytes; `f64s`
//! is a `u32` element count followed by raw `f64` bit patterns, decoded
//! as a **borrowed** [`F64View`] over the frame payload — no per-request
//! `Vec<f64>`.
//!
//! Request ops:
//!
//! | op | name | payload |
//! |----|------|---------|
//! | `0x01` | predict  | `id: opt_u64, tenant: str, a_values: f64s, features: f64s` |
//! | `0x02` | info     | `id: opt_u64` |
//! | `0x03` | feedback | `id: opt_u64, a pf e_avg e_std: f64×4, seed: u64, tag: str, features: f64s` |
//! | `0x04` | refresh  | `id: opt_u64` |
//! | `0x05` | instance | `id: opt_u64, tenant: str, family: str, name: str, dims: u64s, scalars: f64s, vec_count: u32, vec_count × f64s, edge_count: u32, edge_count × (u v: u32×2, w: f64), a_values: f64s` |
//! | `0x06` | metrics  | `id: opt_u64` |
//!
//! `u64s` is a `u32` element count followed by raw `u64`s, the integer
//! sibling of `f64s`. The `instance` payload is the wire form of
//! `problems::InstanceData` — the same compact encoding the registry's
//! family codecs validate, so a hostile payload is rejected by the
//! family layer with a typed error, never a panic.
//!
//! Response ops:
//!
//! | op | name | payload |
//! |----|------|---------|
//! | `0x81` | predict | `id: opt_u64, count: u32, count × (a pf e_avg e_std: f64×4)` |
//! | `0x82` | info    | `id: opt_u64, bundle: u8, feature_dim: u32, generation: u64, online: u8, dataset_len train_instances feedback_count buffer_len refresh_after: opt_u64×5` |
//! | `0x83` | ack     | `id: opt_u64, generation feedback_count buffer_len: opt_u64×3, refreshed: opt_bool` (feedback / refresh) |
//! | `0x84` | metrics | `id: opt_u64, ok: u8, uptime_secs qps: f64×2, latency_p50_us latency_p99_us: opt_f64×2, batch_occupancy cache_hit_rate: f64×2, generation queue_depth rejected rejected_quota rejected_capacity: u64×5, tenant_count: u32, tenant_count × (tenant: str, weight quota_rows requests rows rejected rejected_quota rejected_capacity pending_rows: u64×8)` |
//! | `0x7F` | error   | `id: opt_u64, message: str` |
//!
//! `opt_f64` is a presence byte followed by the raw `f64` bit pattern
//! when present — the binary form of a nullable latency quantile.
//!
//! `tsp` TSPLIB uploads and the `trace` diagnostic dump stay NDJSON-only
//! (one is a text format, the other a debugging aid) — TSP instances
//! travel over QBIN through the `instance` op's compact coordinate/edge
//! encoding instead, and the wall-clock `metrics` snapshot gets its own
//! frame pair (`0x06`/`0x84`; like its NDJSON sibling it is excluded
//! from every byte-diff). A QBIN frame carrying an unknown op gets an
//! error frame back and the session keeps serving, exactly like an
//! unknown NDJSON op.

use problems::InstanceData;
use qross_store::codec::{crc32, ByteReader, ByteWriter};
use qross_store::StoreError;

/// The 4-byte frame magic — also the token the per-connection sniffer
/// matches to pick QBIN over NDJSON on a shared port.
pub const QBIN_MAGIC: [u8; 4] = *b"QBIN";

/// Protocol version this decoder speaks.
pub const QBIN_VERSION: u8 = 1;

/// Frame header bytes: magic (4) + version (1) + op (1) + length (4).
pub const HEADER_LEN: usize = 10;

/// Trailing CRC-32 bytes.
pub const CRC_LEN: usize = 4;

/// Largest accepted frame payload, mirroring the NDJSON line cap
/// ([`super::MAX_LINE_BYTES`]): a client streaming an absurd declared
/// length gets a typed reject and its payload bytes are *discarded*,
/// never buffered — the reject-never-OOM rule.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Request op tags.
pub const OP_PREDICT: u8 = 0x01;
pub const OP_INFO: u8 = 0x02;
pub const OP_FEEDBACK: u8 = 0x03;
pub const OP_REFRESH: u8 = 0x04;
pub const OP_INSTANCE: u8 = 0x05;
pub const OP_METRICS: u8 = 0x06;

/// Response op tags.
pub const OP_RESP_PREDICT: u8 = 0x81;
pub const OP_RESP_INFO: u8 = 0x82;
pub const OP_RESP_ACK: u8 = 0x83;
pub const OP_RESP_METRICS: u8 = 0x84;
pub const OP_RESP_ERROR: u8 = 0x7F;

/// Typed QBIN protocol error. Decoding hostile, truncated or corrupted
/// frames yields one of these — never a panic, never an allocation
/// proportional to an attacker-declared length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// frame does not start with [`QBIN_MAGIC`] — framing is lost
    BadMagic {
        /// the four bytes found instead
        found: [u8; 4],
    },
    /// version byte this decoder does not speak — later layouts may
    /// differ, so framing cannot be trusted either
    UnsupportedVersion {
        /// the version byte found
        found: u8,
    },
    /// declared payload length exceeds [`MAX_FRAME_BYTES`]; the payload
    /// is skipped without buffering and the session survives
    Oversized {
        /// the cap that was exceeded
        limit: usize,
        /// the declared payload length
        declared: u64,
    },
    /// checksum mismatch — the frame is dropped, the stream resyncs at
    /// the next frame boundary
    CrcMismatch {
        /// CRC-32 carried by the frame
        expected: u32,
        /// CRC-32 of the received bytes
        actual: u32,
    },
    /// the stream ended (or the payload ran out) before a complete value
    Truncated {
        /// bytes needed
        needed: usize,
        /// bytes available
        available: usize,
    },
    /// structurally invalid payload (bad presence tag, non-UTF-8 string,
    /// count that outruns the payload…)
    Malformed {
        /// explanation
        message: String,
    },
    /// op tag this endpoint does not serve
    UnknownOp {
        /// the tag found
        op: u8,
    },
}

impl BinError {
    /// Whether the session can keep decoding after this error. A bad
    /// magic or unknown version means frame boundaries themselves are
    /// untrustworthy; everything else resyncs at the next frame.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            BinError::BadMagic { .. } | BinError::UnsupportedVersion { .. }
        )
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadMagic { found } => {
                write!(f, "qbin: bad frame magic {found:02x?}")
            }
            BinError::UnsupportedVersion { found } => {
                write!(f, "qbin: unsupported protocol version {found}")
            }
            BinError::Oversized { limit, declared } => write!(
                f,
                "qbin: frame payload of {declared} bytes exceeds the {limit}-byte limit"
            ),
            BinError::CrcMismatch { expected, actual } => write!(
                f,
                "qbin: frame checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            BinError::Truncated { needed, available } => write!(
                f,
                "qbin: truncated frame ({needed} bytes needed, {available} available)"
            ),
            BinError::Malformed { message } => write!(f, "qbin: malformed payload: {message}"),
            BinError::UnknownOp { op } => write!(
                f,
                "qbin: unknown op {op:#04x} (expected predict {OP_PREDICT:#04x} | info \
                 {OP_INFO:#04x} | feedback {OP_FEEDBACK:#04x} | refresh {OP_REFRESH:#04x} | \
                 instance {OP_INSTANCE:#04x} | metrics {OP_METRICS:#04x})"
            ),
        }
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------------------
// Zero-copy payload primitives
// ---------------------------------------------------------------------------

/// A borrowed view over `8 × len` raw little-endian `f64` bytes inside a
/// frame payload — the zero-copy half of the decode path. Reading is a
/// fixed-offset `u64` load per element (alignment-safe); nothing is
/// allocated until the caller decides it needs ownership
/// ([`F64View::to_vec`], one pass, one allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F64View<'a> {
    bytes: &'a [u8],
}

impl<'a> F64View<'a> {
    /// Wraps raw LE f64 bytes; `bytes.len()` must be a multiple of 8
    /// (the decoder guarantees it).
    fn new(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len() % 8, 0);
        F64View { bytes }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th element, decoded in place from its bit pattern.
    pub fn get(&self, i: usize) -> Option<f64> {
        let start = i.checked_mul(8)?;
        let chunk = self.bytes.get(start..start + 8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        Some(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// Iterates the elements without allocating.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.bytes.chunks_exact(8).map(|chunk| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(chunk);
            f64::from_bits(u64::from_le_bytes(raw))
        })
    }

    /// Materialises the elements — the single copy a request pays, at
    /// the moment it enters the engine's owned queue.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// Every read error the shared codec raises maps onto its QBIN twin with
/// the same text: a short payload stays [`BinError::Truncated`], a bad
/// tag or trailing bytes become [`BinError::Malformed`].
impl From<StoreError> for BinError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Truncated { needed, available } => {
                BinError::Truncated { needed, available }
            }
            StoreError::Corrupt { message } => BinError::Malformed { message },
            // `ByteReader` raises only the two above.
            other => BinError::Malformed {
                message: other.to_string(),
            },
        }
    }
}

/// QBIN's payload grammar over the shared bounds-checked reads of
/// `qross_store`'s [`ByteReader`]: `u32` counts (a frame payload is
/// capped at [`MAX_FRAME_BYTES`], so 32 bits always suffice), strings and
/// `f64` runs **borrowed** from the payload, presence-tagged `u64`s and
/// bools, and `u64`s range-checked into narrower fields.
trait WireRead<'a> {
    fn get_opt_u64(&mut self) -> Result<Option<u64>, BinError>;
    fn get_opt_bool(&mut self) -> Result<Option<bool>, BinError>;
    fn get_narrow<T: TryFrom<u64>>(&mut self, field: &str) -> Result<T, BinError>;
    fn get_counted(&mut self, elem_size: usize) -> Result<&'a [u8], BinError>;
    fn get_str32(&mut self) -> Result<&'a str, BinError>;
    fn get_f64s(&mut self) -> Result<F64View<'a>, BinError>;
    fn get_u64s(&mut self) -> Result<Vec<u64>, BinError>;
    fn get_edges(&mut self) -> Result<Vec<(u32, u32, f64)>, BinError>;
}

impl<'a> WireRead<'a> for ByteReader<'a> {
    fn get_opt_u64(&mut self) -> Result<Option<u64>, BinError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            other => Err(BinError::Malformed {
                message: format!("invalid Option tag {other:#04x}"),
            }),
        }
    }

    fn get_opt_bool(&mut self) -> Result<Option<bool>, BinError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            other => Err(BinError::Malformed {
                message: format!("invalid bool tag {other:#04x}"),
            }),
        }
    }

    /// A `u64` on the wire that must fit the narrower `field` it decodes
    /// into.
    fn get_narrow<T: TryFrom<u64>>(&mut self, field: &str) -> Result<T, BinError> {
        let v = self.get_u64()?;
        T::try_from(v).map_err(|_| BinError::Malformed {
            message: format!("{field} {v} out of range"),
        })
    }

    /// A `u32`-count-prefixed element run, validated against the
    /// remaining payload *before* anything is read or allocated.
    fn get_counted(&mut self, elem_size: usize) -> Result<&'a [u8], BinError> {
        let n = self.get_u32()? as usize;
        let bytes = n
            .checked_mul(elem_size)
            .ok_or_else(|| BinError::Malformed {
                message: format!("element count {n} overflows"),
            })?;
        Ok(self.take(bytes)?)
    }

    fn get_str32(&mut self) -> Result<&'a str, BinError> {
        let bytes = self.get_counted(1)?;
        std::str::from_utf8(bytes).map_err(|e| BinError::Malformed {
            message: format!("invalid UTF-8 string: {e}"),
        })
    }

    fn get_f64s(&mut self) -> Result<F64View<'a>, BinError> {
        Ok(F64View::new(self.get_counted(8)?))
    }

    /// A `u32`-count-prefixed run of raw `u64`s, materialised (the
    /// `instance` payload's `dims` are a handful of entries, not a hot
    /// path). Validated against the remaining payload before allocating.
    fn get_u64s(&mut self) -> Result<Vec<u64>, BinError> {
        let mut run = ByteReader::new(self.get_counted(8)?);
        let mut out = Vec::with_capacity(run.remaining() / 8);
        while run.remaining() > 0 {
            out.push(run.get_u64()?);
        }
        Ok(out)
    }

    /// A `u32`-count-prefixed run of `(u32, u32, f64)` edges, validated
    /// against the remaining payload (16 bytes each) before allocating.
    fn get_edges(&mut self) -> Result<Vec<(u32, u32, f64)>, BinError> {
        let mut run = ByteReader::new(self.get_counted(16)?);
        let mut out = Vec::with_capacity(run.remaining() / 16);
        while run.remaining() > 0 {
            out.push((run.get_u32()?, run.get_u32()?, run.get_f64()?));
        }
        Ok(out)
    }
}

/// The write side of the grammar [`WireRead`] reads, over
/// [`ByteWriter`]'s fixed-width writes.
trait WireWrite {
    fn put_opt_u64(&mut self, v: Option<u64>);
    fn put_opt_bool(&mut self, v: Option<bool>);
    fn put_str32(&mut self, s: &str);
    fn put_f64s(&mut self, xs: &[f64]);
}

impl WireWrite for ByteWriter {
    fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
        }
    }

    fn put_opt_bool(&mut self, v: Option<bool>) {
        self.put_u8(match v {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    fn put_str32(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }

    fn put_f64s(&mut self, xs: &[f64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_f64(x);
        }
    }
}

// ---------------------------------------------------------------------------
// Frame encode
// ---------------------------------------------------------------------------

/// Appends one complete frame to `out`: header, the payload `build`
/// writes, patched length, trailing CRC. Encoding goes **directly into
/// the caller's buffer** (the per-connection write buffer on the serve
/// path): the [`ByteWriter`] `build` gets takes that buffer over and
/// hands it back, so there is no intermediate allocation or copy.
pub fn write_frame(out: &mut Vec<u8>, op: u8, build: impl FnOnce(&mut ByteWriter)) {
    let start = out.len();
    out.extend_from_slice(&QBIN_MAGIC);
    out.push(QBIN_VERSION);
    out.push(op);
    out.extend_from_slice(&[0u8; 4]); // length, patched below
    let payload_start = out.len();
    let mut payload = ByteWriter::from(std::mem::take(out));
    build(&mut payload);
    *out = payload.into_bytes();
    let len = (out.len() - payload_start) as u32;
    out[start + 6..start + 10].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Incremental frame decode
// ---------------------------------------------------------------------------

/// One complete, CRC-verified frame, its payload borrowed from the
/// codec's read buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// protocol version (always [`QBIN_VERSION`] once decoded)
    pub version: u8,
    /// op tag
    pub op: u8,
    /// raw payload bytes, zero-copy
    pub payload: &'a [u8],
}

/// Incremental QBIN frame decoder — the binary sibling of the NDJSON
/// line codec. Fed arbitrary byte chunks, yields complete CRC-verified
/// frames as borrowed views; any chunking (1-byte reads, jumbo frames)
/// decodes to the identical frame sequence.
///
/// Oversized declared payloads are *discarded in flight*, never
/// buffered; a fatal error (bad magic / unknown version) freezes the
/// codec — frame boundaries are no longer trustworthy, so the session
/// should answer once and close.
#[derive(Debug)]
pub struct FrameCodec {
    buf: Vec<u8>,
    /// consumed prefix of `buf`, compacted away on the next feed
    pos: usize,
    /// bytes of an oversized frame (payload + CRC) still to skip
    discard: u64,
    /// framing lost: no further frames will be yielded
    fatal: bool,
    limit: usize,
}

impl Default for FrameCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameCodec {
    pub fn new() -> Self {
        Self::with_limit(MAX_FRAME_BYTES)
    }

    /// A codec with a custom payload cap (tests; production uses
    /// [`MAX_FRAME_BYTES`]).
    pub fn with_limit(limit: usize) -> Self {
        FrameCodec {
            buf: Vec::new(),
            pos: 0,
            discard: 0,
            fatal: false,
            limit: limit.max(1),
        }
    }

    /// Whether a fatal framing error has been reported.
    pub fn is_fatal(&self) -> bool {
        self.fatal
    }

    /// Appends a chunk of wire bytes. Any split boundary is fine.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        if self.fatal {
            return; // the stream is dead; don't buffer what we'll never parse
        }
        if self.discard > 0 {
            // Skip an oversized frame's payload without buffering it.
            let skip = (self.discard).min(bytes.len() as u64) as usize;
            self.discard -= skip as u64;
            bytes = &bytes[skip..];
        }
        // Compact the consumed prefix before growing the buffer; no
        // borrows are outstanding (feed takes &mut self).
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (bounded by the frame cap plus one read
    /// chunk).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame (or frame-level error), or `None` when
    /// more bytes are needed. The returned payload borrows this codec's
    /// buffer and stays valid until the next `feed`.
    #[allow(clippy::type_complexity)]
    pub fn next_frame(&mut self) -> Option<Result<Frame<'_>, BinError>> {
        if self.fatal || self.discard > 0 {
            return None;
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return None;
        }
        if avail[..4] != QBIN_MAGIC {
            self.fatal = true;
            let mut found = [0u8; 4];
            found.copy_from_slice(&avail[..4]);
            return Some(Err(BinError::BadMagic { found }));
        }
        let version = avail[4];
        if version != QBIN_VERSION {
            self.fatal = true;
            return Some(Err(BinError::UnsupportedVersion { found: version }));
        }
        let op = avail[5];
        let len = u32::from_le_bytes([avail[6], avail[7], avail[8], avail[9]]) as usize;
        if len > self.limit {
            // Reject without buffering: drop what we have of the payload
            // and arrange for the rest (plus the CRC) to be skipped as
            // it arrives.
            let total_to_skip = len as u64 + CRC_LEN as u64;
            let already = (avail.len() - HEADER_LEN) as u64;
            let dropped = already.min(total_to_skip);
            self.discard = total_to_skip - dropped;
            self.pos += HEADER_LEN + dropped as usize;
            return Some(Err(BinError::Oversized {
                limit: self.limit,
                declared: len as u64,
            }));
        }
        let frame_len = HEADER_LEN + len + CRC_LEN;
        if avail.len() < frame_len {
            return None;
        }
        let crc_off = HEADER_LEN + len;
        let expected = u32::from_le_bytes([
            avail[crc_off],
            avail[crc_off + 1],
            avail[crc_off + 2],
            avail[crc_off + 3],
        ]);
        let actual = crc32(&avail[4..crc_off]);
        let start = self.pos;
        self.pos += frame_len;
        if expected != actual {
            // The declared length is still the best resync boundary.
            return Some(Err(BinError::CrcMismatch { expected, actual }));
        }
        Some(Ok(Frame {
            version,
            op,
            payload: &self.buf[start + HEADER_LEN..start + crc_off],
        }))
    }

    /// EOF: a partial frame (or an unfinished oversized skip) left in
    /// the buffer is a truncation error; clean streams yield `None`.
    pub fn finish(&mut self) -> Option<BinError> {
        if self.fatal {
            return None;
        }
        let leftover = self.buffered();
        self.buf.clear();
        self.pos = 0;
        if self.discard > 0 {
            self.discard = 0;
            return Some(BinError::Truncated {
                needed: CRC_LEN,
                available: 0,
            });
        }
        if leftover > 0 {
            return Some(BinError::Truncated {
                needed: HEADER_LEN,
                available: leftover,
            });
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded request frame — the borrowed, zero-copy view the serving
/// path dispatches on. Feature and grid slices point into the
/// connection's read buffer; the single copy into owned memory happens
/// at engine submit.
#[derive(Debug, Clone, PartialEq)]
pub enum BinRequest<'a> {
    /// evaluate the surrogate at `features` for each of `a_values`
    Predict {
        /// client correlation id, echoed
        id: Option<u64>,
        /// tenant the work is accounted to; empty = default
        tenant: &'a str,
        /// relaxation-parameter grid
        a_values: F64View<'a>,
        /// feature vector
        features: F64View<'a>,
    },
    /// model metadata
    Info {
        /// client correlation id, echoed
        id: Option<u64>,
    },
    /// report an observed solver outcome (online engines)
    Feedback {
        /// client correlation id, echoed
        id: Option<u64>,
        /// relaxation parameter the outcome was measured at
        a: f64,
        /// observed probability of feasibility
        pf: f64,
        /// observed batch mean energy
        e_avg: f64,
        /// observed batch energy standard deviation
        e_std: f64,
        /// solver-run seed, lineage only
        seed: u64,
        /// instance label, lineage only
        tag: &'a str,
        /// feature vector
        features: F64View<'a>,
    },
    /// force a retrain/hot-swap now
    Refresh {
        /// client correlation id, echoed
        id: Option<u64>,
    },
    /// point-in-time engine metrics snapshot (wall-clock-dependent;
    /// answered with an [`OP_RESP_METRICS`] frame, never byte-diffed)
    Metrics {
        /// client correlation id, echoed
        id: Option<u64>,
    },
    /// upload a compact instance of a registered problem family and
    /// evaluate the surrogate on its features over `a_values`
    Instance {
        /// client correlation id, echoed
        id: Option<u64>,
        /// tenant the work is accounted to; empty = default
        tenant: &'a str,
        /// problem-family registry name
        family: &'a str,
        /// decoded instance payload, validated by the family's codec at
        /// dispatch
        data: InstanceData,
        /// relaxation-parameter grid
        a_values: F64View<'a>,
    },
}

/// Decodes one request frame's payload.
///
/// # Errors
///
/// [`BinError::UnknownOp`] for tags this endpoint does not serve,
/// [`BinError::Truncated`] / [`BinError::Malformed`] for payloads that
/// do not match their op's grammar.
pub fn decode_request<'a>(frame: &Frame<'a>) -> Result<BinRequest<'a>, BinError> {
    let mut r = ByteReader::new(frame.payload);
    let request = match frame.op {
        OP_PREDICT => {
            let id = r.get_opt_u64()?;
            let tenant = r.get_str32()?;
            let a_values = r.get_f64s()?;
            let features = r.get_f64s()?;
            BinRequest::Predict {
                id,
                tenant,
                a_values,
                features,
            }
        }
        OP_INFO => BinRequest::Info {
            id: r.get_opt_u64()?,
        },
        OP_FEEDBACK => {
            let id = r.get_opt_u64()?;
            let a = r.get_f64()?;
            let pf = r.get_f64()?;
            let e_avg = r.get_f64()?;
            let e_std = r.get_f64()?;
            let seed = r.get_u64()?;
            let tag = r.get_str32()?;
            let features = r.get_f64s()?;
            BinRequest::Feedback {
                id,
                a,
                pf,
                e_avg,
                e_std,
                seed,
                tag,
                features,
            }
        }
        OP_REFRESH => BinRequest::Refresh {
            id: r.get_opt_u64()?,
        },
        OP_METRICS => BinRequest::Metrics {
            id: r.get_opt_u64()?,
        },
        OP_INSTANCE => {
            let id = r.get_opt_u64()?;
            let tenant = r.get_str32()?;
            let family = r.get_str32()?;
            let name = r.get_str32()?.to_string();
            let dims = r.get_u64s()?;
            let scalars = r.get_f64s()?.to_vec();
            let vec_count = r.get_u32()? as usize;
            // Each vec needs at least its 4-byte count, so a hostile
            // count fails on Truncated before `vecs` grows past the
            // payload size.
            let mut vecs = Vec::new();
            for _ in 0..vec_count {
                vecs.push(r.get_f64s()?.to_vec());
            }
            let edges = r.get_edges()?;
            let a_values = r.get_f64s()?;
            BinRequest::Instance {
                id,
                tenant,
                family,
                data: InstanceData {
                    name,
                    dims,
                    scalars,
                    vecs,
                    edges,
                },
                a_values,
            }
        }
        op => return Err(BinError::UnknownOp { op }),
    };
    r.finish()?;
    Ok(request)
}

/// Encodes a predict request frame (client side; the server never sends
/// requests). `a_values` and `features` travel as raw bit patterns.
pub fn encode_predict(
    out: &mut Vec<u8>,
    id: Option<u64>,
    tenant: &str,
    a_values: &[f64],
    features: &[f64],
) {
    write_frame(out, OP_PREDICT, |p| {
        p.put_opt_u64(id);
        p.put_str32(tenant);
        p.put_f64s(a_values);
        p.put_f64s(features);
    });
}

/// Encodes an info request frame.
pub fn encode_info(out: &mut Vec<u8>, id: Option<u64>) {
    write_frame(out, OP_INFO, |p| p.put_opt_u64(id));
}

/// Encodes a feedback request frame.
#[allow(clippy::too_many_arguments)]
pub fn encode_feedback(
    out: &mut Vec<u8>,
    id: Option<u64>,
    a: f64,
    pf: f64,
    e_avg: f64,
    e_std: f64,
    seed: u64,
    tag: &str,
    features: &[f64],
) {
    write_frame(out, OP_FEEDBACK, |p| {
        p.put_opt_u64(id);
        p.put_f64(a);
        p.put_f64(pf);
        p.put_f64(e_avg);
        p.put_f64(e_std);
        p.put_u64(seed);
        p.put_str32(tag);
        p.put_f64s(features);
    });
}

/// Encodes a refresh request frame.
pub fn encode_refresh(out: &mut Vec<u8>, id: Option<u64>) {
    write_frame(out, OP_REFRESH, |p| p.put_opt_u64(id));
}

/// Encodes a metrics request frame.
pub fn encode_metrics_request(out: &mut Vec<u8>, id: Option<u64>) {
    write_frame(out, OP_METRICS, |p| p.put_opt_u64(id));
}

/// Encodes an instance request frame: the compact wire form of
/// [`InstanceData`] plus the grid to evaluate. Every `f64` travels as
/// its exact bit pattern, so a QBIN upload and the NDJSON `instance` op
/// for the same payload reach the family codec with identical bits.
pub fn encode_instance(
    out: &mut Vec<u8>,
    id: Option<u64>,
    tenant: &str,
    family: &str,
    data: &InstanceData,
    a_values: &[f64],
) {
    write_frame(out, OP_INSTANCE, |p| {
        p.put_opt_u64(id);
        p.put_str32(tenant);
        p.put_str32(family);
        p.put_str32(&data.name);
        p.put_u32(data.dims.len() as u32);
        for &d in &data.dims {
            p.put_u64(d);
        }
        p.put_f64s(&data.scalars);
        p.put_u32(data.vecs.len() as u32);
        for vec in &data.vecs {
            p.put_f64s(vec);
        }
        p.put_u32(data.edges.len() as u32);
        for &(u, v, w) in &data.edges {
            p.put_u32(u);
            p.put_u32(v);
            p.put_f64(w);
        }
        p.put_f64s(a_values);
    });
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

use qross::serve::{EngineMetrics, TenantMetrics};

use super::{MetricsResponse, ModelInfo, PredictionOut, Response};

/// Encodes a [`Response`] as one QBIN frame appended to `out` — the
/// binary rendition of the NDJSON response line, carrying the identical
/// f64 bit patterns. Frame choice: errors (`ok: false`) become error
/// frames; otherwise predictions, info and feedback/refresh acks each
/// get their op. (The NDJSON-only response decorations — the instance
/// name echo and `tsp` strategy proposals — are dropped here by design;
/// the compact wire carries ids, predictions, info and errors.)
pub fn encode_response(out: &mut Vec<u8>, response: &Response) {
    if !response.ok {
        let message = response.error.as_deref().unwrap_or("request failed");
        write_frame(out, OP_RESP_ERROR, |p| {
            p.put_opt_u64(response.id);
            p.put_str32(message);
        });
        return;
    }
    if let Some(predictions) = &response.predictions {
        write_frame(out, OP_RESP_PREDICT, |p| {
            p.put_opt_u64(response.id);
            p.put_u32(predictions.len() as u32);
            for row in predictions {
                p.put_f64(row.a);
                p.put_u64(row.pf_bits);
                p.put_u64(row.e_avg_bits);
                p.put_u64(row.e_std_bits);
            }
        });
        return;
    }
    if let Some(info) = &response.info {
        write_frame(out, OP_RESP_INFO, |p| {
            p.put_opt_u64(response.id);
            p.put_bool(info.kind == "bundle");
            p.put_u32(info.feature_dim as u32);
            p.put_u64(info.generation);
            p.put_bool(info.online);
            p.put_opt_u64(info.dataset_len);
            p.put_opt_u64(info.train_instances);
            p.put_opt_u64(info.feedback_count);
            p.put_opt_u64(info.buffer_len);
            p.put_opt_u64(info.refresh_after);
        });
        return;
    }
    write_frame(out, OP_RESP_ACK, |p| {
        p.put_opt_u64(response.id);
        p.put_opt_u64(response.generation);
        p.put_opt_u64(response.feedback_count);
        p.put_opt_u64(response.buffer_len);
        p.put_opt_bool(response.refreshed);
    });
}

/// Encodes a [`MetricsResponse`] as one [`OP_RESP_METRICS`] frame — the
/// binary rendition of the NDJSON `metrics` line. Like that line it is
/// wall-clock-dependent and excluded from every byte-diff; the f64
/// fields travel as exact bit patterns regardless.
pub fn encode_metrics_response(out: &mut Vec<u8>, payload: &MetricsResponse) {
    let m = &payload.metrics;
    write_frame(out, OP_RESP_METRICS, |p| {
        p.put_opt_u64(payload.id);
        p.put_bool(payload.ok);
        p.put_f64(m.uptime_secs);
        p.put_f64(m.qps);
        p.put_opt_f64(m.latency_p50_us);
        p.put_opt_f64(m.latency_p99_us);
        p.put_f64(m.batch_occupancy);
        p.put_f64(m.cache_hit_rate);
        p.put_u64(m.generation);
        p.put_u64(m.queue_depth as u64);
        p.put_u64(m.rejected);
        p.put_u64(m.rejected_quota);
        p.put_u64(m.rejected_capacity);
        p.put_u32(m.tenants.len() as u32);
        for t in &m.tenants {
            p.put_str32(&t.tenant);
            p.put_u64(u64::from(t.weight));
            p.put_u64(t.quota_rows as u64);
            p.put_u64(t.requests);
            p.put_u64(t.rows);
            p.put_u64(t.rejected);
            p.put_u64(t.rejected_quota);
            p.put_u64(t.rejected_capacity);
            p.put_u64(t.pending_rows as u64);
        }
    });
}

/// Decodes one [`OP_RESP_METRICS`] frame into the NDJSON-equivalent
/// [`MetricsResponse`] (client side: tests, the CI scrape check).
///
/// # Errors
///
/// [`BinError::UnknownOp`] for any other op tag,
/// [`BinError::Truncated`] / [`BinError::Malformed`] for payloads that
/// do not match the metrics grammar.
pub fn decode_metrics_response(frame: &Frame<'_>) -> Result<MetricsResponse, BinError> {
    if frame.op != OP_RESP_METRICS {
        return Err(BinError::UnknownOp { op: frame.op });
    }
    let mut r = ByteReader::new(frame.payload);
    let id = r.get_opt_u64()?;
    let ok = r.get_u8()? != 0;
    let mut metrics = EngineMetrics {
        uptime_secs: r.get_f64()?,
        qps: r.get_f64()?,
        latency_p50_us: r.get_opt_f64()?,
        latency_p99_us: r.get_opt_f64()?,
        batch_occupancy: r.get_f64()?,
        cache_hit_rate: r.get_f64()?,
        generation: r.get_u64()?,
        queue_depth: r.get_narrow("queue_depth")?,
        rejected: r.get_u64()?,
        rejected_quota: r.get_u64()?,
        rejected_capacity: r.get_u64()?,
        tenants: Vec::new(),
    };
    let count = r.get_u32()? as usize;
    // Each tenant row needs at least its 4-byte name count plus eight
    // u64s; validate before allocating.
    if count.saturating_mul(4 + 8 * 8) > r.remaining() {
        return Err(BinError::Truncated {
            needed: count.saturating_mul(4 + 8 * 8),
            available: r.remaining(),
        });
    }
    metrics.tenants.reserve_exact(count);
    for _ in 0..count {
        metrics.tenants.push(TenantMetrics {
            tenant: r.get_str32()?.to_string(),
            weight: r.get_narrow("weight")?,
            quota_rows: r.get_narrow("quota_rows")?,
            requests: r.get_u64()?,
            rows: r.get_u64()?,
            rejected: r.get_u64()?,
            rejected_quota: r.get_u64()?,
            rejected_capacity: r.get_u64()?,
            pending_rows: r.get_narrow("pending_rows")?,
        });
    }
    r.finish()?;
    Ok(MetricsResponse { id, ok, metrics })
}

/// Decodes one response frame's payload into the NDJSON-equivalent
/// [`Response`] (client side: tests, benches, the dual-protocol CI
/// replay). Predictions rebuild both the decimal fields and the `_bits`
/// mirrors from the wire bit patterns, so comparing against a parsed
/// NDJSON response compares exact bits.
///
/// # Errors
///
/// [`BinError::UnknownOp`] / [`BinError::Truncated`] /
/// [`BinError::Malformed`] as for requests.
pub fn decode_response(frame: &Frame<'_>) -> Result<Response, BinError> {
    let mut r = ByteReader::new(frame.payload);
    let response = match frame.op {
        OP_RESP_ERROR => {
            let id = r.get_opt_u64()?;
            let message = r.get_str32()?.to_string();
            Response {
                id,
                ok: false,
                error: Some(message),
                ..Default::default()
            }
        }
        OP_RESP_PREDICT => {
            let id = r.get_opt_u64()?;
            let count = r.get_u32()? as usize;
            // 4 f64s per row; validate before allocating.
            if count.saturating_mul(32) > r.remaining() {
                return Err(BinError::Truncated {
                    needed: count.saturating_mul(32),
                    available: r.remaining(),
                });
            }
            let mut predictions = Vec::with_capacity(count);
            for _ in 0..count {
                let a = r.get_f64()?;
                let pf_bits = r.get_u64()?;
                let e_avg_bits = r.get_u64()?;
                let e_std_bits = r.get_u64()?;
                predictions.push(PredictionOut {
                    a,
                    pf: f64::from_bits(pf_bits),
                    e_avg: f64::from_bits(e_avg_bits),
                    e_std: f64::from_bits(e_std_bits),
                    pf_bits,
                    e_avg_bits,
                    e_std_bits,
                });
            }
            Response {
                id,
                ok: true,
                predictions: Some(predictions),
                ..Default::default()
            }
        }
        OP_RESP_INFO => {
            let id = r.get_opt_u64()?;
            let bundle = r.get_u8()?;
            let feature_dim = r.get_u32()? as usize;
            let generation = r.get_u64()?;
            let online = r.get_u8()?;
            let dataset_len = r.get_opt_u64()?;
            let train_instances = r.get_opt_u64()?;
            let feedback_count = r.get_opt_u64()?;
            let buffer_len = r.get_opt_u64()?;
            let refresh_after = r.get_opt_u64()?;
            Response {
                id,
                ok: true,
                info: Some(ModelInfo {
                    kind: if bundle != 0 { "bundle" } else { "surrogate" }.to_string(),
                    feature_dim,
                    dataset_len,
                    train_instances,
                    generation,
                    online: online != 0,
                    feedback_count,
                    buffer_len,
                    refresh_after,
                }),
                ..Default::default()
            }
        }
        OP_RESP_ACK => {
            let id = r.get_opt_u64()?;
            let generation = r.get_opt_u64()?;
            let feedback_count = r.get_opt_u64()?;
            let buffer_len = r.get_opt_u64()?;
            let refreshed = r.get_opt_bool()?;
            Response {
                id,
                ok: true,
                generation,
                feedback_count,
                buffer_len,
                refreshed,
                ..Default::default()
            }
        }
        op => return Err(BinError::UnknownOp { op }),
    };
    r.finish()?;
    Ok(response)
}

/// Decodes a buffer of complete response frames (client-side helper for
/// tests and the CI replay): every frame must decode cleanly.
///
/// # Errors
///
/// The first frame-level or payload-level error encountered.
pub fn decode_response_stream(bytes: &[u8]) -> Result<Vec<Response>, BinError> {
    let mut codec = FrameCodec::new();
    codec.feed(bytes);
    let mut responses = Vec::new();
    while let Some(item) = codec.next_frame() {
        let frame = item?;
        responses.push(decode_response(&frame)?);
    }
    if let Some(err) = codec.finish() {
        return Err(err);
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_frame(bytes: &[u8]) -> Result<(u8, Vec<u8>), BinError> {
        let mut codec = FrameCodec::new();
        codec.feed(bytes);
        let frame = codec.next_frame().expect("one frame")?;
        Ok((frame.op, frame.payload.to_vec()))
    }

    #[test]
    fn predict_request_roundtrip_is_bit_exact() {
        let features = [1.5, -0.0, f64::from_bits(0x7FF8_0000_DEAD_BEEF)];
        let a_values = [0.25, f64::INFINITY];
        let mut out = Vec::new();
        encode_predict(&mut out, Some(7), "team-a", &a_values, &features);
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        let frame = codec.next_frame().expect("frame").expect("valid");
        let BinRequest::Predict {
            id,
            tenant,
            a_values: av,
            features: fv,
        } = decode_request(&frame).expect("decodes")
        else {
            panic!("wrong op");
        };
        assert_eq!(id, Some(7));
        assert_eq!(tenant, "team-a");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&av.to_vec()), bits(&a_values));
        assert_eq!(bits(&fv.to_vec()), bits(&features));
        assert!(codec.next_frame().is_none());
        assert!(codec.finish().is_none());
    }

    #[test]
    fn instance_request_roundtrip_is_bit_exact() {
        let data = InstanceData {
            name: "kp9".to_string(),
            dims: vec![3],
            scalars: vec![7.0],
            vecs: vec![vec![6.0, 10.0, 12.0], vec![1.0, 2.0, 3.0]],
            edges: vec![(0, 1, 1.5), (1, 2, -0.0)],
        };
        let mut out = Vec::new();
        encode_instance(&mut out, Some(11), "team-b", "knapsack", &data, &[0.5, 2.0]);
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        let frame = codec.next_frame().expect("frame").expect("valid");
        let BinRequest::Instance {
            id,
            tenant,
            family,
            data: decoded,
            a_values,
        } = decode_request(&frame).expect("decodes")
        else {
            panic!("wrong op");
        };
        assert_eq!(id, Some(11));
        assert_eq!(tenant, "team-b");
        assert_eq!(family, "knapsack");
        assert_eq!(decoded, data);
        // -0.0 == 0.0 under PartialEq; check the edge weight bits too.
        assert_eq!(decoded.edges[1].2.to_bits(), (-0.0f64).to_bits());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a_values.to_vec()), bits(&[0.5, 2.0]));
    }

    #[test]
    fn instance_request_hostile_counts_reject_without_alloc() {
        // An outer vec_count far beyond the payload must fail Truncated,
        // not allocate.
        let mut out = Vec::new();
        write_frame(&mut out, OP_INSTANCE, |p| {
            p.put_opt_u64(None);
            p.put_str32("");
            p.put_str32("mvc");
            p.put_str32("g");
            p.put_u32(0); // dims
            p.put_f64s(&[]); // scalars
            p.put_u32(u32::MAX); // hostile vec count
        });
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        let frame = codec.next_frame().expect("frame").expect("CRC valid");
        assert!(matches!(
            decode_request(&frame),
            Err(BinError::Truncated { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut out = Vec::new();
        encode_predict(&mut out, Some(1), "", &[1.0], &[2.0, 3.0]);
        for byte in 0..out.len() {
            for bit in 0..8 {
                let mut corrupted = out.clone();
                corrupted[byte] ^= 1 << bit;
                let mut codec = FrameCodec::new();
                codec.feed(&corrupted);
                let mut saw_error = false;
                while let Some(item) = codec.next_frame() {
                    match item {
                        Ok(frame) => {
                            // A length flip can only shrink/grow the
                            // frame; the CRC over the header catches it,
                            // so a clean frame here is a test failure.
                            panic!("bit flip at {byte}:{bit} yielded a frame {frame:?}");
                        }
                        Err(_) => saw_error = true,
                    }
                }
                if codec.finish().is_some() {
                    saw_error = true;
                }
                assert!(saw_error, "bit flip at {byte}:{bit} went undetected");
            }
        }
    }

    #[test]
    fn oversized_frame_is_discarded_and_session_survives() {
        let mut codec = FrameCodec::with_limit(64);
        // Header declaring a 1000-byte payload, streamed in pieces.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&QBIN_MAGIC);
        bytes.push(QBIN_VERSION);
        bytes.push(OP_PREDICT);
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        codec.feed(&bytes);
        match codec.next_frame() {
            Some(Err(BinError::Oversized { limit: 64, .. })) => {}
            other => panic!("expected oversized reject, got {other:?}"),
        }
        // 1000 payload bytes + 4 CRC bytes arrive and are discarded…
        let junk = vec![0xABu8; 1004];
        codec.feed(&junk);
        assert_eq!(codec.buffered(), 0, "oversized payload must not buffer");
        // …and the next well-formed frame still decodes.
        let mut next = Vec::new();
        encode_info(&mut next, Some(9));
        codec.feed(&next);
        let frame = codec.next_frame().expect("frame").expect("valid");
        assert!(matches!(
            decode_request(&frame),
            Ok(BinRequest::Info { id: Some(9) })
        ));
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut codec = FrameCodec::new();
        codec.feed(b"NOPE\x01\x01\x00\x00\x00\x00");
        assert!(matches!(
            codec.next_frame(),
            Some(Err(BinError::BadMagic { .. }))
        ));
        assert!(codec.is_fatal());
        assert!(codec.next_frame().is_none());
        let mut more = Vec::new();
        encode_info(&mut more, None);
        codec.feed(&more);
        assert!(codec.next_frame().is_none(), "fatal codec yields nothing");
    }

    #[test]
    fn unknown_op_is_typed_not_fatal() {
        let mut out = Vec::new();
        write_frame(&mut out, 0x42, |p| p.put_opt_u64(None));
        let (op, payload) = single_frame(&out).expect("frame itself is well-formed");
        let frame = Frame {
            version: QBIN_VERSION,
            op,
            payload: &payload,
        };
        assert!(matches!(
            decode_request(&frame),
            Err(BinError::UnknownOp { op: 0x42 })
        ));
    }

    #[test]
    fn response_error_frame_roundtrips() {
        let response = Response::err(Some(3), "predict needs `features`");
        let mut out = Vec::new();
        encode_response(&mut out, &response);
        let decoded = decode_response_stream(&out).expect("decodes");
        assert_eq!(decoded.len(), 1);
        assert!(!decoded[0].ok);
        assert_eq!(decoded[0].id, Some(3));
        assert_eq!(
            decoded[0].error.as_deref(),
            Some("predict needs `features`")
        );
    }

    #[test]
    fn metrics_response_roundtrip_is_bit_exact() {
        let payload = MetricsResponse {
            id: Some(42),
            ok: true,
            metrics: EngineMetrics {
                uptime_secs: 12.25,
                qps: f64::from_bits(0x3FF8_0000_0000_0001),
                latency_p50_us: Some(810.5),
                latency_p99_us: None,
                batch_occupancy: 3.5,
                cache_hit_rate: 0.25,
                generation: 7,
                queue_depth: 9,
                rejected: 5,
                rejected_quota: 2,
                rejected_capacity: 3,
                tenants: vec![TenantMetrics {
                    tenant: "team-a".to_string(),
                    weight: 4,
                    quota_rows: 128,
                    requests: 1000,
                    rows: 5000,
                    rejected: 5,
                    rejected_quota: 2,
                    rejected_capacity: 3,
                    pending_rows: 17,
                }],
            },
        };
        let mut out = Vec::new();
        encode_metrics_response(&mut out, &payload);
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        let frame = codec.next_frame().expect("frame").expect("valid");
        assert_eq!(frame.op, OP_RESP_METRICS);
        let decoded = decode_metrics_response(&frame).expect("decodes");
        assert_eq!(decoded, payload);
        assert_eq!(
            decoded.metrics.qps.to_bits(),
            payload.metrics.qps.to_bits(),
            "f64 fields travel as exact bit patterns"
        );
    }

    #[test]
    fn metrics_request_roundtrips_and_hostile_tenant_count_rejects() {
        let mut out = Vec::new();
        encode_metrics_request(&mut out, Some(3));
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        let frame = codec.next_frame().expect("frame").expect("valid");
        assert!(matches!(
            decode_request(&frame),
            Ok(BinRequest::Metrics { id: Some(3) })
        ));
        // A hostile tenant count far beyond the payload must fail
        // Truncated before allocating.
        let mut bad = Vec::new();
        write_frame(&mut bad, OP_RESP_METRICS, |p| {
            p.put_opt_u64(None);
            p.put_u8(1);
            for _ in 0..4 {
                p.put_f64(0.0);
            }
            p.put_u8(0); // p50 absent
            p.put_u8(0); // p99 absent
            for _ in 0..5 {
                p.put_u64(0);
            }
            p.put_u32(u32::MAX); // hostile tenant count
        });
        let mut codec = FrameCodec::new();
        codec.feed(&bad);
        let frame = codec.next_frame().expect("frame").expect("CRC valid");
        assert!(matches!(
            decode_metrics_response(&frame),
            Err(BinError::Truncated { .. })
        ));
    }

    /// The client-side decoders' payload rejections keep their exact
    /// texts: a bad bool tag in an ack frame, and a `u64` that does not
    /// fit the narrower field it decodes into.
    #[test]
    fn client_payload_rejections_keep_their_texts() {
        let mut ack = Vec::new();
        write_frame(&mut ack, OP_RESP_ACK, |p| {
            for _ in 0..4 {
                p.put_opt_u64(None);
            }
            p.put_u8(3); // refreshed: not an opt_bool tag
        });
        assert_eq!(
            decode_response_stream(&ack).unwrap_err().to_string(),
            "qbin: malformed payload: invalid bool tag 0x03"
        );

        let mut metrics = Vec::new();
        write_frame(&mut metrics, OP_RESP_METRICS, |p| {
            p.put_opt_u64(Some(1));
            p.put_u8(1);
            p.put_f64(1.0);
            p.put_f64(2.0);
            p.put_opt_f64(None);
            p.put_opt_f64(Some(3.0));
            p.put_f64(4.0);
            p.put_f64(0.5);
            for _ in 0..5 {
                p.put_u64(0);
            }
            p.put_u32(1);
            p.put_str32("t");
            p.put_u64(1 << 32); // weight is a u32
            for _ in 0..7 {
                p.put_u64(0);
            }
        });
        let mut codec = FrameCodec::new();
        codec.feed(&metrics);
        let frame = codec.next_frame().expect("frame").expect("CRC valid");
        assert_eq!(
            decode_metrics_response(&frame).unwrap_err().to_string(),
            "qbin: malformed payload: weight 4294967296 out of range"
        );
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut out = Vec::new();
        write_frame(&mut out, OP_INFO, |p| {
            p.put_opt_u64(None);
            p.put_u8(0xEE); // trailing garbage inside a valid frame
        });
        let mut codec = FrameCodec::new();
        codec.feed(&out);
        let frame = codec.next_frame().expect("frame").expect("CRC is valid");
        assert!(matches!(
            decode_request(&frame),
            Err(BinError::Malformed { .. })
        ));
    }
}
