//! Blocked matrix-multiply kernels: the workspace's one numeric tier.
//!
//! # Numeric tier
//!
//! Every product is bit-exact. [`matmul_serve`] — used by
//! [`Matrix::matmul`](crate::Matrix::matmul) and therefore by
//! `Dense::infer` / `Mlp::infer` / `Surrogate::predict*` and by
//! training's forward pass — and its transposed entries
//! [`tmatmul_serve`] / [`matmul_t_serve`] — behind
//! [`Matrix::tmatmul`](crate::Matrix::tmatmul) and
//! [`Matrix::matmul_t`](crate::Matrix::matmul_t), training's backward
//! pass — produce *exactly* the same `f64` bit patterns as the
//! reference implementation ([`matmul_reference`], on explicit
//! transposes for the transposed entries). Every output element is
//! accumulated into a single `f64` in ascending-`k` order, and the
//! reference's zero-skip (`a[i][k] == 0.0` contributes nothing, even
//! when `b[k][j]` is NaN or infinite) is preserved. Blocking, packing
//! and register tiling only change *which* elements are in flight
//! concurrently, never the per-element accumulation order, so the
//! result is bit-identical by construction (and property-tested).
//! Persisted artifacts, the train-once/serve-many replay contract and
//! bit-reproducible training rely on this.
//!
//! # Kernel shape
//!
//! Every product runs one generic register tile,
//! `tile::<R, C>`: `R` rows of the left operand against `C` columns of
//! the right one, with the `R x C` accumulators held in registers across
//! the whole `k` walk. The sizes are const generics, so each
//! instantiation is fully unrolled with no bounds checks in the `k`
//! loop. Two paths feed it:
//!
//! * **Direct** — [`matmul_serve`] with fewer than `PACK_MIN_ROWS` (8)
//!   rows or fewer than [`NR`] (8) columns, the lone-predict and
//!   output-head shapes. 2×8 and 1×8 tiles read `a` and `b` in place,
//!   and the ragged column tail runs as 2- and 1-column tiles. Packing
//!   would not pay here, and this path is compiled only for the
//!   baseline target.
//! * **Packed** — everything else, including every `tmatmul` /
//!   `matmul_t`. The left operand is packed into `R`-row blocks and the
//!   right one into `C`-column panels, both `k`-major, so a tile walks
//!   both at unit stride. A transposed operand is just another way to
//!   read the same strips during the pack. Ragged edges are zero
//!   padding: pad rows of the left operand are skipped by the
//!   zero-skip, and pad lanes of the right one are computed into their
//!   own accumulators and never stored.
//!
//! The packed tile loop is compiled once per ISA, and the widest copy
//! the host runs ([`Isa::detect`]) is chosen per call:
//!
//! | copy    | tile | accumulators       |
//! |---------|------|--------------------|
//! | AVX-512 | 4×16 | eight 512-bit regs |
//! | AVX2    | 4×8  | eight 256-bit regs |
//! | plain   | 2×8  | eight SSE2 regs    |
//!
//! Each copy runs the same body, so all of them produce the same bits;
//! the plain copy is their checked twin, and the unit tests compare every
//! copy the host runs against the reference. The packs run in baseline
//! code outside the `target_feature` copies.

/// Column lanes of the plain tile and of the direct path (a power of
/// two, sized so a 2-row tile of `f64` accumulators fits the SSE2
/// register file).
pub const NR: usize = 8;

/// Minimum left-operand row count before packing pays for itself in
/// [`matmul_serve`]; below this (or below [`NR`] columns) the kernel
/// reads `a` and `b` in place.
const PACK_MIN_ROWS: usize = 8;

/// Reference ikj matrix multiply: the bit-exactness oracle.
///
/// This is the historical `Matrix::matmul` loop, kept verbatim as the
/// specification of every kernel's numeric behaviour. `out` must be
/// zero-filled on entry.
pub fn matmul_reference(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * kk..(i + 1) * kk];
        let orow = &mut out[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[k * n..(k + 1) * n];
            for (j, &bkj) in brow.iter().enumerate() {
                orow[j] += aik * bkj;
            }
        }
    }
}

/// Blocked multiply `out = a · b`: bit-identical to
/// [`matmul_reference`].
///
/// `a` is `m x kk` and `b` is `kk x n`, both row-major. Every element of
/// `out` is overwritten, so `out` may hold anything on entry (a reused
/// buffer need not be re-zeroed). See the module docs for the
/// bit-exactness argument and the dispatch rule.
pub fn matmul_serve(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    if m < PACK_MIN_ROWS || n < NR {
        if kk == 0 {
            out.fill(0.0); // zero-length accumulation
            return;
        }
        direct(m, kk, n, a, b, out);
    } else {
        let a = Operand::new(a, Strips::Contiguous);
        let b = Operand::new(b, Strips::Interleaved);
        Isa::detect().product(m, kk, n, a, b, out);
    }
}

/// `out = aᵀ · b`, where `a` is `kk x m` and `b` is `kk x n`
/// (row-major): bit-identical to [`matmul_reference`] on the explicit
/// transpose of `a`, because it is the same tile body reading `a`'s
/// columns as the left operand's rows. Overwrites `out` (`m x n`).
pub fn tmatmul_serve(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), kk * m);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    let a = Operand::new(a, Strips::Interleaved);
    let b = Operand::new(b, Strips::Interleaved);
    Isa::detect().product(m, kk, n, a, b, out);
}

/// `out = a · bᵀ`, where `a` is `m x kk` and `b` is `n x kk`
/// (row-major): bit-identical to [`matmul_reference`] on the explicit
/// transpose of `b`, because it is the same tile body with `b`'s rows
/// packed as the right operand's columns. Overwrites `out` (`m x n`).
///
/// Like every product here it skips zero entries of `a`, so a zero
/// of `a` against a NaN or infinite entry of `b` contributes nothing. A
/// plain dot product would contribute NaN there; for finite `b` the two
/// agree bit for bit, since adding `±0.0` to an accumulator that starts
/// at `+0.0` never changes its bits.
pub fn matmul_t_serve(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), n * kk);
    debug_assert_eq!(out.len(), m * n);
    let a = Operand::new(a, Strips::Contiguous);
    let b = Operand::new(b, Strips::Contiguous);
    Isa::detect().product(m, kk, n, a, b, out);
}

/// One register tile: `R` rows of the left operand against `C` columns
/// of the right one, both fed `k`-ascending (`a` yields column `k` of the
/// tile's rows, `b` row `k` of its columns). Each of the `R x C`
/// accumulators starts at `+0.0` and adds `a[r][k] * b[k][l]` for every
/// `k` in order, skipping `k` where `a[r][k] == 0.0`: the reference's
/// per-element sequence exactly. The array sizes are constants, so the
/// accumulators stay in registers and the lane loop is one vector
/// operation per register's worth of lanes.
#[inline(always)]
fn tile<'b, const R: usize, const C: usize>(
    a: impl Iterator<Item = [f64; R]>,
    b: impl Iterator<Item = &'b [f64; C]>,
) -> [[f64; C]; R] {
    let mut acc = [[0.0f64; C]; R];
    for (ak, bk) in a.zip(b) {
        for (row, &x) in acc.iter_mut().zip(&ak) {
            if x != 0.0 {
                for (s, &y) in row.iter_mut().zip(bk) {
                    *s += x * y;
                }
            }
        }
    }
    acc
}

/// [`matmul_serve`] below [`PACK_MIN_ROWS`] rows or [`NR`] columns (the
/// lone-predict and output-head shapes): plain 2-row and 1-row tiles
/// read `a` and `b` in place, 8 columns wide, and the ragged column tail
/// runs as 2- and 1-column tiles.
fn direct(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut i = 0;
    while i + 2 <= m {
        direct_rows::<2>(i, kk, n, a, b, out);
        i += 2;
    }
    if i < m {
        direct_rows::<1>(i, kk, n, a, b, out);
    }
}

#[inline(always)]
fn direct_rows<const R: usize>(
    i: usize,
    kk: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        direct_tile::<R, NR>(i, j0, kk, n, a, b, out);
        j0 += NR;
    }
    // Two tail columns share one `k` walk: two independent sums hide
    // the add latency that one column's sum would wait on.
    while j0 + 2 <= n {
        direct_tile::<R, 2>(i, j0, kk, n, a, b, out);
        j0 += 2;
    }
    if j0 < n {
        direct_tile::<R, 1>(i, j0, kk, n, a, b, out);
    }
}

/// One [`tile`] of rows `i ..` and columns `j0 ..`, read in place.
#[inline(always)]
fn direct_tile<const R: usize, const C: usize>(
    i: usize,
    j0: usize,
    kk: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * kk..][..kk]);
    let a_k = (0..kk).map(|k| std::array::from_fn(|r| rows[r][k]));
    let b_k = b
        .chunks_exact(n)
        .map(|row| <&[f64; C]>::try_from(&row[j0..j0 + C]).unwrap());
    let acc = tile::<R, C>(a_k, b_k);
    for (r, lanes) in acc.iter().enumerate() {
        out[(i + r) * n + j0..][..C].copy_from_slice(lanes);
    }
}

/// How an operand stores its *strips* — the left operand's rows or the
/// right operand's columns, the dimension a tile takes `R` or `C` of.
#[derive(Debug, Clone, Copy)]
enum Strips {
    /// each strip's `kk` values are contiguous: `(s, k)` at `s * kk + k`
    /// (a row-major left operand, or the transpose of a right operand)
    Contiguous,
    /// each `k` holds every strip side by side: `(s, k)` at `k * len + s`
    /// (a row-major right operand, or the transpose of a left operand)
    Interleaved,
}

/// A borrowed operand and its strip layout.
#[derive(Debug, Clone, Copy)]
struct Operand<'a> {
    data: &'a [f64],
    strips: Strips,
}

impl<'a> Operand<'a> {
    fn new(data: &'a [f64], strips: Strips) -> Self {
        Operand { data, strips }
    }

    /// Packs `len` strips into blocks of `W`: block `q` is `kk`
    /// consecutive `[f64; W]` holding strips `q*W .. q*W+W` at each `k`,
    /// so a tile walks its operand at unit stride. The last block's
    /// missing strips stay zero: in the left operand the zero-skip passes
    /// over them, in the right one they fill lanes that are never
    /// stored, and each lane has its own accumulator either way.
    fn pack<const W: usize>(self, len: usize, kk: usize) -> Vec<[f64; W]> {
        let mut packed = vec![[0.0f64; W]; len.div_ceil(W) * kk];
        for (q, block) in packed.chunks_exact_mut(kk).enumerate() {
            let s0 = q * W;
            let w = (len - s0).min(W);
            match self.strips {
                Strips::Contiguous => {
                    for l in 0..w {
                        let strip = &self.data[(s0 + l) * kk..][..kk];
                        for (dst, &x) in block.iter_mut().zip(strip) {
                            dst[l] = x;
                        }
                    }
                }
                Strips::Interleaved => {
                    for (k, dst) in block.iter_mut().enumerate() {
                        let src = &self.data[k * len + s0..][..w];
                        match <&[f64; W]>::try_from(src) {
                            Ok(full) => *dst = *full,
                            Err(_) => dst[..w].copy_from_slice(src),
                        }
                    }
                }
            }
        }
        packed
    }
}

/// The tile loop every compiled copy runs over packed operands (see
/// [`Operand::pack`]): one [`tile`] per (row block, column panel) pair,
/// storing only the real rows and lanes of `out` (`m x n`).
#[inline(always)]
fn tiles<const R: usize, const C: usize>(
    m: usize,
    n: usize,
    kk: usize,
    blocks: &[[f64; R]],
    panels: &[[f64; C]],
    out: &mut [f64],
) {
    for (q, block) in blocks.chunks_exact(kk).enumerate() {
        let i0 = q * R;
        let h = (m - i0).min(R);
        for (p, panel) in panels.chunks_exact(kk).enumerate() {
            let acc = tile::<R, C>(block.iter().copied(), panel.iter());
            let j0 = p * C;
            let w = (n - j0).min(C);
            for (r, lanes) in acc[..h].iter().enumerate() {
                let dst = &mut out[(i0 + r) * n + j0..][..w];
                match <&mut [f64; C]>::try_from(&mut *dst) {
                    Ok(full) => *full = *lanes,
                    Err(_) => dst.copy_from_slice(&lanes[..w]),
                }
            }
        }
    }
}

/// The plain copy (baseline x86-64, or any other target): 2×8 tiles,
/// eight SSE2 accumulators. It is also the checked twin of the wider
/// copies, which run the same body.
fn tiles_plain(
    m: usize,
    n: usize,
    kk: usize,
    blocks: &[[f64; 2]],
    panels: &[[f64; NR]],
    out: &mut [f64],
) {
    tiles(m, n, kk, blocks, panels, out)
}

/// The AVX2 copy: 4×8 tiles, eight 256-bit accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiles_avx2(
    m: usize,
    n: usize,
    kk: usize,
    blocks: &[[f64; 4]],
    panels: &[[f64; 8]],
    out: &mut [f64],
) {
    tiles(m, n, kk, blocks, panels, out)
}

/// The AVX-512 copy: 4×16 tiles, eight 512-bit accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiles_avx512(
    m: usize,
    n: usize,
    kk: usize,
    blocks: &[[f64; 4]],
    panels: &[[f64; 16]],
    out: &mut [f64],
) {
    tiles(m, n, kk, blocks, panels, out)
}

/// An instruction-set level this host runs: the one detector behind every
/// runtime-dispatched kernel copy, here and in the Digital Annealer's lane
/// kernel (`solvers::da`).
///
/// Only [`Isa::detect`] and [`Isa::supported`] make one, after checking
/// the host's features with `is_x86_feature_detected!`, and the field is
/// private to this module. So holding an `Isa` whose [`Isa::level`] is
/// [`Level::Avx2`] (or [`Level::Avx512`]) proves that the host executes
/// AVX2 (or AVX-512F) and POPCNT instructions: every `unsafe` call of a
/// `target_feature` copy rests on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa(Level);

/// The instruction-set levels an [`Isa`] can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Baseline code (SSE2 on x86-64).
    Plain,
    /// AVX2 and POPCNT.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F and POPCNT.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The widest level this host runs. The wide levels also require
    /// POPCNT, which the Digital Annealer's copies enable; the matmul
    /// copies do not use it, and every copy is bit-identical to its
    /// oracle, so a host lacking it only runs the plain copies.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("popcnt") {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return Isa(Level::Avx512);
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Isa(Level::Avx2);
                }
            }
        }
        Isa(Level::Plain)
    }

    /// Every level this host runs, widest last (the copies a test checks).
    pub fn supported() -> Vec<Isa> {
        let mut copies = vec![Isa(Level::Plain)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("popcnt") {
                if std::arch::is_x86_feature_detected!("avx2") {
                    copies.push(Isa(Level::Avx2));
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    copies.push(Isa(Level::Avx512));
                }
            }
        }
        copies
    }

    /// The level, for a dispatch `match`.
    pub fn level(self) -> Level {
        self.0
    }

    /// `out = a · b` (`m x kk` times `kk x n`) on this copy: pack both
    /// operands at this copy's tile shape, then run its [`tiles`].
    ///
    /// The packs run here, in baseline code, not inside the
    /// `target_feature` copies: compiled for AVX-512, the allocation and
    /// pack calls around the tile loop made one product several times
    /// slower than the same pack and tile loop called back to back.
    fn product(
        self,
        m: usize,
        kk: usize,
        n: usize,
        a: Operand<'_>,
        b: Operand<'_>,
        out: &mut [f64],
    ) {
        if m == 0 || n == 0 {
            return;
        }
        if kk == 0 {
            out.fill(0.0); // zero-length accumulation
            return;
        }
        match self.0 {
            Level::Plain => tiles_plain(m, n, kk, &a.pack(m, kk), &b.pack(n, kk), out),
            // SAFETY: an `Isa(Level::Avx2)` exists only after
            // `is_x86_feature_detected!("avx2")` returned true (see
            // `Isa::detect` and `Isa::supported`, the one detector), so
            // the host executes AVX2 instructions.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => unsafe { tiles_avx2(m, n, kk, &a.pack(m, kk), &b.pack(n, kk), out) },
            // SAFETY: an `Isa(Level::Avx512)` exists only after
            // `is_x86_feature_detected!("avx512f")` returned true (see
            // `Isa::detect` and `Isa::supported`, the one detector), so
            // the host executes AVX-512F instructions.
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => unsafe { tiles_avx512(m, n, kk, &a.pack(m, kk), &b.pack(n, kk), out) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..m * n).map(f).collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    fn check_serve(m: usize, kk: usize, n: usize) {
        // Mix of signs, magnitudes, exact zeros and negative zeros so the
        // zero-skip path and rounding-sensitive sums are both exercised.
        let a = dense(m, kk, |i| match i % 7 {
            0 => 0.0,
            1 => -0.0,
            x => ((x * i) as f64).sin() * 1e3f64.powi((i % 5) as i32 - 2),
        });
        let b = dense(kk, n, |i| ((i * 31 + 7) as f64).cos() * 0.37);
        let mut want = vec![0.0; m * n];
        let mut got = vec![0.0; m * n];
        matmul_reference(m, kk, n, &a, &b, &mut want);
        matmul_serve(m, kk, n, &a, &b, &mut got);
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn serve_matches_reference_on_serve_shapes() {
        // predict single row, batched predict, hidden layer, output heads
        for &(m, kk, n) in &[
            (1usize, 25usize, 64usize),
            (64, 25, 64),
            (64, 64, 64),
            (64, 64, 1),
            (64, 64, 2),
            (256, 65, 64),
        ] {
            check_serve(m, kk, n);
        }
    }

    #[test]
    fn serve_matches_reference_on_ragged_shapes() {
        for &(m, kk, n) in &[
            (1usize, 1usize, 1usize),
            (1, 13, 7),
            (3, 9, 15),
            (7, 8, 9),
            (8, 3, 5), // packed path, ragged tail panel
            (9, 17, 12),
            (13, 1, 19),
            (5, 64, 1),
        ] {
            check_serve(m, kk, n);
        }
    }

    #[test]
    fn serve_zero_skip_shields_nonfinite() {
        // A zero in `a` must skip a NaN/inf in `b`, exactly like the
        // reference; both rows below the packing threshold and above it.
        for m in [2usize, 9] {
            let kk = 3;
            let n = 10;
            let mut a = dense(m, kk, |i| i as f64 + 1.0);
            a[1] = 0.0; // row 0, k=1
            let mut b = dense(kk, n, |i| i as f64);
            b[n + 4] = f64::NAN; // k=1 row
            b[n + 5] = f64::INFINITY;
            let mut want = vec![0.0; m * n];
            let mut got = vec![0.0; m * n];
            matmul_reference(m, kk, n, &a, &b, &mut want);
            matmul_serve(m, kk, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got);
        }
    }

    fn transpose(rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
        (0..rows * cols)
            .map(|t| x[(t % rows) * cols + t / rows])
            .collect()
    }

    /// Operands with ordinary values, every other entry zero, or signed
    /// zeros mixed in: the zero-skip and rounding-order paths.
    fn operand(len: usize, salt: usize, mix: usize) -> Vec<f64> {
        dense(1, len, |i| match (mix, i % 5) {
            (1, _) if i % 2 == 0 => 0.0,
            (2, 0) => -0.0,
            (2, 1) => 0.0,
            _ => ((i * 37 + salt) as f64).sin() * 10f64.powi((i % 4) as i32 - 1),
        })
    }

    /// One product on one copy in each of the three layouts — `a · b`,
    /// `aᵀ · b` and `a · bᵀ` — against the reference on explicit
    /// transposes. `out` starts as NaN so a skipped store shows.
    fn check_copy(isa: Isa, m: usize, kk: usize, n: usize, a: &[f64], b: &[f64]) {
        let mut want = vec![0.0; m * n];
        matmul_reference(m, kk, n, a, b, &mut want);
        let at = transpose(m, kk, a);
        let bt = transpose(kk, n, b);
        for (name, lhs, rhs) in [
            (
                "matmul",
                Operand::new(a, Strips::Contiguous),
                Operand::new(b, Strips::Interleaved),
            ),
            (
                "tmatmul",
                Operand::new(&at, Strips::Interleaved),
                Operand::new(b, Strips::Interleaved),
            ),
            (
                "matmul_t",
                Operand::new(a, Strips::Contiguous),
                Operand::new(&bt, Strips::Contiguous),
            ),
        ] {
            let mut got = vec![f64::NAN; m * n];
            isa.product(m, kk, n, lhs, rhs, &mut got);
            for (e, (x, y)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{isa:?} {name} {m}x{kk}x{n} element {e}: {x} vs {y}"
                );
            }
        }
    }

    /// Every compiled copy the host runs equals the reference bit for
    /// bit on all three layouts: ragged shapes on both sides of the tile
    /// sizes, rows below the packing threshold, one- and two-column
    /// heads, half-zero and signed-zero operands.
    #[test]
    fn every_compiled_copy_matches_reference() {
        let copies = Isa::supported();
        println!(
            "matmul kernel: host runs {copies:?}; matmul_serve dispatches {:?}",
            Isa::detect()
        );
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 25, 2),
            (3, 7, 1),
            (5, 9, 17),
            (7, 48, 16),
            (8, 3, 5),
            (9, 17, 31),
            (13, 1, 33),
            (17, 25, 48),
            (64, 48, 2),
            (64, 25, 48),
            (48, 64, 47),
        ];
        for isa in copies {
            for &(m, kk, n) in &shapes {
                for mix in 0..3 {
                    let a = operand(m * kk, 3, mix);
                    let b = operand(kk * n, 11, (mix + 2) % 3);
                    check_copy(isa, m, kk, n, &a, &b);
                }
            }
        }
    }

    /// A zero of the left operand shields a NaN or infinity of the right
    /// one on every copy and layout, exactly like the reference.
    #[test]
    fn every_compiled_copy_shields_nonfinite() {
        for isa in Isa::supported() {
            for (m, kk, n) in [(2usize, 3usize, 10usize), (9, 3, 21)] {
                let mut a = dense(m, kk, |i| i as f64 + 1.0);
                a[1] = 0.0; // row 0, k = 1
                a[kk + 1] = -0.0; // row 1, k = 1
                let mut b = dense(kk, n, |i| i as f64);
                b[n + 4] = f64::NAN; // k = 1
                b[n + 5] = f64::INFINITY;
                b[n + n - 1] = f64::NEG_INFINITY;
                let mut want = vec![0.0; m * n];
                matmul_reference(m, kk, n, &a, &b, &mut want);
                assert!(want[4].is_finite() && want[n + 5].is_finite());
                check_copy(isa, m, kk, n, &a, &b);
            }
        }
    }

    /// The public entries overwrite a reused `out` on both the direct
    /// and the packed path, including the zero-length accumulation.
    #[test]
    fn entries_overwrite_a_reused_out() {
        for (m, kk, n) in [
            (1usize, 25usize, 48usize),
            (64, 48, 2),
            (64, 25, 48),
            (9, 0, 17),
            (2, 0, 3),
        ] {
            let a = operand(m * kk, 5, 1);
            let b = operand(kk * n, 7, 0);
            let mut want = vec![0.0; m * n];
            matmul_reference(m, kk, n, &a, &b, &mut want);
            let mut got = vec![f64::NAN; m * n];
            matmul_serve(m, kk, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got);
            let at = transpose(m, kk, &a);
            got.fill(f64::NAN);
            tmatmul_serve(m, kk, n, &at, &b, &mut got);
            assert_bits_eq(&want, &got);
            let bt = transpose(kk, n, &b);
            got.fill(f64::NAN);
            matmul_t_serve(m, kk, n, &a, &bt, &mut got);
            assert_bits_eq(&want, &got);
        }
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut out = [0.0f64; 0];
        matmul_serve(0, 3, 0, &[], &[], &mut out);
        let mut out1 = [0.0f64; 4];
        matmul_serve(2, 0, 2, &[], &[], &mut out1);
        assert_eq!(out1, [0.0; 4]);
    }
}
