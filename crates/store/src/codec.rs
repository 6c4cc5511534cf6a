//! Length-framed little-endian binary primitives.
//!
//! Every multi-byte integer is little-endian; `f64` values travel as
//! their IEEE-754 bit pattern ([`f64::to_bits`]), so the codec is
//! *bit-exact* — NaN payloads, signed zeros and infinities all round-trip
//! unchanged. Variable-length values (strings, vectors) carry a `u64`
//! element-count prefix.
//!
//! The fixed-width reads and writes are also the primitives of the QBIN
//! wire protocol (`bench::protocol::bin`), which layers its own grammar
//! on top: `u32` counts, borrowed strings and `f64` runs, and
//! presence-tagged integers and bools. That grammar lives with the wire;
//! this module keeps one prefix width.
//!
//! Decoding never panics: every read is bounds-checked and returns
//! [`StoreError::Truncated`] when the input runs out, and length prefixes
//! are validated against the remaining bytes *before* any allocation, so
//! a corrupted 8-byte length cannot trigger an OOM allocation.

use crate::StoreError;

/// Reflected CRC-32/IEEE generator polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC32_TABLES[0][b]` is the CRC register
/// after shifting byte `b` through eight bitwise steps, and
/// `CRC32_TABLES[k][b]` the same byte followed by `k` zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of `bytes` —
/// the per-section checksum of the container format and the per-frame
/// checksum of QBIN, which runs it over every request and response
/// frame. Slicing-by-8: eight table lookups per eight input bytes, then
/// a byte-wise tail. Bit-identical to [`crc32_bitwise`], the oracle the
/// tests compare it against.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Reference CRC-32: the same checksum as [`crc32`], computed one bit at
/// a time with no table. It is the oracle the table version is tested
/// and benched against; nothing on a serving or storage path calls it.
pub fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
        }
    }
    !crc
}

/// Append-only buffer of codec primitives.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes in the buffer so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes raw bytes, with no prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Writes `Some(x)` as `1 + bits`, `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }
}

/// Appends to an existing buffer: encoding goes straight into the
/// caller's `Vec`, which [`ByteWriter::into_bytes`] hands back.
impl From<Vec<u8>> for ByteWriter {
    fn from(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }
}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (LE).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` encoded as `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input, or
    /// [`StoreError::Corrupt`] when the value exceeds `usize::MAX`.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt {
            message: format!("length {v} exceeds the platform's usize"),
        })
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting anything other than `0`/`1`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input, [`StoreError::Corrupt`]
    /// for a non-boolean byte.
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt {
                message: format!("invalid bool byte {other:#04x}"),
            }),
        }
    }

    /// Reads a length-prefixed count, validating that `count * elem_size`
    /// bytes are actually available before the caller allocates.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the declared payload cannot fit in
    /// the remaining bytes.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        let bytes = n.checked_mul(elem_size).ok_or(StoreError::Corrupt {
            message: format!("length {n} overflows"),
        })?;
        if bytes > self.remaining() {
            return Err(StoreError::Truncated {
                needed: bytes,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] / [`StoreError::Corrupt`] for truncated
    /// or non-UTF-8 payloads.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let n = self.get_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| StoreError::Corrupt {
            message: format!("invalid UTF-8 string: {e}"),
        })
    }

    /// Reads a length-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the declared length outruns the
    /// input.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, StoreError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads an optional `f64` written by [`ByteWriter::put_opt_f64`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] / [`StoreError::Corrupt`] for malformed
    /// input.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, StoreError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64()?)),
            other => Err(StoreError::Corrupt {
                message: format!("invalid Option tag {other:#04x}"),
            }),
        }
    }

    /// Asserts the reader is exhausted — decoders call this after the last
    /// field so trailing garbage is rejected rather than ignored.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when bytes remain.
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt {
                message: format!("{} trailing bytes after payload", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_f64_slice(&[1.5, f64::INFINITY, f64::NEG_INFINITY]);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(3.25));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(
            r.get_f64_vec().unwrap(),
            vec![1.5, f64::INFINITY, f64::NEG_INFINITY]
        );
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_opt_f64().unwrap(), Some(3.25));
        r.finish().unwrap();
    }

    #[test]
    fn nan_payload_bits_survive() {
        // A quiet NaN with a distinctive payload must come back bit-equal.
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = ByteWriter::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                r.get_f64_vec().is_err(),
                "truncation at {cut} went undetected"
            );
        }
    }

    #[test]
    fn huge_length_prefix_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_f64_vec(),
            Err(StoreError::Truncated { .. }) | Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.get_bool(), Err(StoreError::Corrupt { .. })));
        let mut r = ByteReader::new(&[2, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(r.get_opt_f64(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        for f in [crc32, crc32_bitwise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
    }

    #[test]
    fn crc32_table_matches_bitwise_oracle() {
        // SplitMix64 bytes: the crate has no RNG dependency.
        let mut state = 0x5EED_C3C3_2024_0001u64;
        let bytes: Vec<u8> = (0..76_600 + 8)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        // Every start offset within an 8-byte word, every length up to
        // 1 KiB: each split between the sliced body and the byte tail.
        for start in 0..8 {
            for len in 0..=1024 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
        // A bundle-sized section.
        let big = &bytes[..76_600];
        assert_eq!(crc32(big), crc32_bitwise(big));
    }
}
