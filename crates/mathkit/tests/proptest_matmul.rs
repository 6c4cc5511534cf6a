//! Property tests pinning the blocked serve-tier matmul to the reference
//! kernel, bit for bit.
//!
//! The serve path (`Layer::infer` → `Matrix::matmul`) promises *exact*
//! f64 bit patterns across refactors, and training's `tmatmul` /
//! `matmul_t` run the same kernel; these tests are the contract.

use proptest::prelude::*;

use mathkit::Matrix;

/// Element strategy: mixes exact zeros (the skip path), negative zeros,
/// tiny/huge magnitudes and ordinary values, so both the branch structure
/// and rounding-order sensitivity of the kernels are exercised.
fn element() -> impl Strategy<Value = f64> {
    (0u8..10, -100.0..100.0f64).prop_map(|(sel, v)| match sel {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => v * 1e-14,
        4 => v * 1e7,
        _ => v,
    })
}

fn assert_bits_identical(got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape());
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "element {i} differs: {g} vs {w}");
    }
}

proptest! {
    /// Blocked matmul == naive matmul, exact f64 bits, on random shapes
    /// spanning both kernel paths (short operands use direct tiles, tall
    /// operands the packed panels) including sizes that are not multiples
    /// of the register tile.
    #[test]
    fn blocked_matches_reference_bitwise(
        (m, k, n) in (1usize..24, 1usize..24, 1usize..24),
        data_a in proptest::collection::vec(element(), 24 * 24),
        data_b in proptest::collection::vec(element(), 24 * 24),
    ) {
        let a = Matrix::from_vec(m, k, data_a[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, data_b[..k * n].to_vec());
        assert_bits_identical(&a.matmul(&b), &a.matmul_reference(&b));
    }

    /// Row/column vector edges: 1×N times N×1 and the outer-product
    /// pairing, which stress the single-row tail and the scalar column
    /// tail.
    #[test]
    fn vector_edges_match_bitwise(
        n in 1usize..64,
        row in proptest::collection::vec(element(), 64),
        col in proptest::collection::vec(element(), 64),
    ) {
        let r = Matrix::from_vec(1, n, row[..n].to_vec());
        let c = Matrix::from_vec(n, 1, col[..n].to_vec());
        // 1×n * n×1 → 1×1 and n×1 * 1×n → n×n (outer product)
        assert_bits_identical(&r.matmul(&c), &r.matmul_reference(&c));
        assert_bits_identical(&c.matmul(&r), &c.matmul_reference(&r));
    }

    /// Serve-path production shapes (feature dims 25/65, hidden 64, heads
    /// 1/2, batches on both sides of the packing threshold) stay
    /// bit-exact.
    #[test]
    fn production_shapes_match_bitwise(
        batch_sel in 0u8..3,
        feat_sel in 0u8..2,
        head_sel in 0u8..3,
        data_a in proptest::collection::vec(element(), 64 * 65),
        data_b in proptest::collection::vec(element(), 65 * 64),
    ) {
        let batch = [1usize, 8, 64][batch_sel as usize];
        let feat = [25usize, 65][feat_sel as usize];
        let head = [1usize, 2, 64][head_sel as usize];
        let a = Matrix::from_vec(batch, feat, data_a[..batch * feat].to_vec());
        let b = Matrix::from_vec(feat, head, data_b[..feat * head].to_vec());
        assert_bits_identical(&a.matmul(&b), &a.matmul_reference(&b));
    }

    /// The transposed products equal the reference on explicit
    /// transposes, bit for bit, on random shapes (the backward pass's
    /// `xᵀ · dY` and `dY · Wᵀ`).
    #[test]
    fn transposed_products_match_reference_bitwise(
        (m, k, n) in (1usize..24, 1usize..24, 1usize..24),
        data_a in proptest::collection::vec(element(), 24 * 24),
        data_b in proptest::collection::vec(element(), 24 * 24),
    ) {
        let a = Matrix::from_vec(k, m, data_a[..k * m].to_vec());
        let b = Matrix::from_vec(k, n, data_b[..k * n].to_vec());
        assert_bits_identical(&a.tmatmul(&b), &a.transpose().matmul_reference(&b));
        let c = Matrix::from_vec(m, k, data_a[..m * k].to_vec());
        let d = Matrix::from_vec(n, k, data_b[..n * k].to_vec());
        assert_bits_identical(&c.matmul_t(&d), &c.matmul_reference(&d.transpose()));
    }
}
