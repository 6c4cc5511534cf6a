//! Sparse symmetric QUBO models in CSR form.
//!
//! A QUBO is `E(x) = offset + Σ_i l_i x_i + Σ_{i<j} w_ij x_i x_j` over
//! `x ∈ {0,1}^n`. Models store the *symmetric* coupling view (each `w_ij`
//! appears in the rows of both `i` and `j`) as flat CSR arrays:
//!
//! * `row_offsets[i]..row_offsets[i + 1]` delimits row `i`,
//! * `col_indices[k]` is the neighbour index,
//! * `values[k]` the coupling weight,
//! * `mirror[k]` the position of the twin entry `(j, i)` of entry `(i, j)`,
//!   so symmetric updates touch both copies without searching.
//!
//! Compared with the previous per-variable `Vec<Vec<(u32, f64)>>` layout
//! this keeps every neighbour scan on two contiguous arrays (no
//! pointer-chasing, half the memory traffic since columns and weights pack
//! separately), which is what the annealers' O(degree) flip updates spend
//! all their time on — essential for TSP QUBOs where `n` reaches
//! `90² = 8100` variables but each variable couples with only `O(cities)`
//! others.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Incremental builder for [`QuboModel`].
///
/// Repeated contributions to the same linear or quadratic coefficient are
/// accumulated; `(i, j)` and `(j, i)` refer to the same coupling, and
/// `(i, i)` folds into the linear term (since `x² = x` for binaries).
///
/// # Examples
///
/// ```
/// use qubo::QuboBuilder;
/// let mut b = QuboBuilder::new(2);
/// b.add_quadratic(0, 1, 1.0);
/// b.add_quadratic(1, 0, 2.0); // accumulates onto the same coupling
/// let m = b.build();
/// assert_eq!(m.energy(&[1, 1]), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct QuboBuilder {
    num_vars: usize,
    offset: f64,
    linear: Vec<f64>,
    quadratic: HashMap<(u32, u32), f64>,
}

impl QuboBuilder {
    /// Creates a builder for `num_vars` binary variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds `u32::MAX` (indices are stored as
    /// `u32`).
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars <= u32::MAX as usize, "too many variables");
        QuboBuilder {
            num_vars,
            offset: 0.0,
            linear: vec![0.0; num_vars],
            quadratic: HashMap::new(),
        }
    }

    /// Number of variables of the model under construction.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds a constant to the energy offset.
    pub fn add_offset(&mut self, value: f64) -> &mut Self {
        self.offset += value;
        self
    }

    /// Adds `value` to the linear coefficient of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn add_linear(&mut self, i: usize, value: f64) -> &mut Self {
        assert!(i < self.num_vars, "variable {i} out of range");
        self.linear[i] += value;
        self
    }

    /// Adds `value` to the coupling between `i` and `j`.
    ///
    /// `i == j` folds into the linear term (binary idempotence).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_quadratic(&mut self, i: usize, j: usize, value: f64) -> &mut Self {
        assert!(i < self.num_vars, "variable {i} out of range");
        assert!(j < self.num_vars, "variable {j} out of range");
        if i == j {
            self.linear[i] += value;
        } else {
            let key = if i < j {
                (i as u32, j as u32)
            } else {
                (j as u32, i as u32)
            };
            *self.quadratic.entry(key).or_insert(0.0) += value;
        }
        self
    }

    /// Finalises the model, dropping exact-zero couplings.
    pub fn build(self) -> QuboModel {
        let n = self.num_vars;
        let mut entries: Vec<((u32, u32), f64)> = self
            .quadratic
            .into_iter()
            .filter(|&(_, w)| w != 0.0)
            .collect();
        // Deterministic ordering regardless of HashMap iteration order.
        entries.sort_by_key(|&(k, _)| k);
        // Each coupling occupies two CSR entries; the offsets/cursors/mirror
        // arrays index entries as u32, so guard against silent wrapping on
        // astronomically dense models instead of corrupting the layout.
        assert!(
            entries.len() <= (u32::MAX / 2) as usize,
            "too many couplings for u32 CSR indexing"
        );

        // CSR assembly: count degrees, prefix-sum into row offsets, then
        // place each coupling into both endpoint rows. Because entries are
        // sorted by (min, max), every row's column list comes out sorted.
        let mut row_offsets = vec![0u32; n + 1];
        for &((i, j), _) in &entries {
            row_offsets[i as usize + 1] += 1;
            row_offsets[j as usize + 1] += 1;
        }
        for i in 0..n {
            row_offsets[i + 1] += row_offsets[i];
        }
        let nnz = row_offsets[n] as usize;
        let mut col_indices = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut mirror = vec![0u32; nnz];
        let mut cursor: Vec<u32> = row_offsets[..n].to_vec();
        for &((i, j), w) in &entries {
            let a = cursor[i as usize] as usize;
            let b = cursor[j as usize] as usize;
            cursor[i as usize] += 1;
            cursor[j as usize] += 1;
            col_indices[a] = j;
            col_indices[b] = i;
            values[a] = w;
            values[b] = w;
            mirror[a] = b as u32;
            mirror[b] = a as u32;
        }
        QuboModel {
            offset: self.offset,
            linear: self.linear,
            row_offsets,
            col_indices,
            values,
            mirror,
        }
    }
}

/// An immutable sparse QUBO model.
///
/// See the [module documentation](self) for the CSR storage layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuboModel {
    offset: f64,
    linear: Vec<f64>,
    /// CSR row boundaries; row `i` is `row_offsets[i]..row_offsets[i+1]`
    row_offsets: Vec<u32>,
    /// neighbour index per CSR entry (symmetric: both `(i,j)` and `(j,i)`)
    col_indices: Vec<u32>,
    /// coupling weight per CSR entry
    values: Vec<f64>,
    /// position of each entry's symmetric twin
    mirror: Vec<u32>,
}

impl QuboModel {
    /// Number of binary variables.
    pub fn num_vars(&self) -> usize {
        self.linear.len()
    }

    /// Constant energy offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Linear coefficient of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn linear(&self, i: usize) -> f64 {
        self.linear[i]
    }

    /// CSR range of row `i`.
    #[inline]
    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.row_offsets[i] as usize..self.row_offsets[i + 1] as usize
    }

    /// Neighbour indices of variable `i` (sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn neighbor_cols(&self, i: usize) -> &[u32] {
        &self.col_indices[self.row(i)]
    }

    /// Coupling weights of variable `i`, aligned with
    /// [`QuboModel::neighbor_cols`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn neighbor_weights(&self, i: usize) -> &[f64] {
        &self.values[self.row(i)]
    }

    /// The `(j, w_ij)` adjacency of variable `i`, sorted by `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.row(i);
        self.col_indices[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&j, &w)| (j, w))
    }

    /// Coupling between `i` and `j` (`0.0` when absent).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn quadratic(&self, i: usize, j: usize) -> f64 {
        assert!(j < self.num_vars(), "variable {j} out of range");
        if i == j {
            return 0.0;
        }
        let cols = self.neighbor_cols(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => self.neighbor_weights(i)[pos],
            Err(_) => 0.0,
        }
    }

    /// Number of distinct non-zero couplings.
    pub fn num_couplings(&self) -> usize {
        self.col_indices.len() / 2
    }

    /// Largest absolute coefficient (linear or quadratic); `0.0` for an
    /// all-zero model.
    pub fn max_abs_coefficient(&self) -> f64 {
        let lin = self.linear.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        let quad = self.values.iter().fold(0.0_f64, |m, &w| m.max(w.abs()));
        lin.max(quad)
    }

    /// Full energy `E(x)` of a binary assignment (entries must be 0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn energy(&self, x: &[u8]) -> f64 {
        assert_eq!(x.len(), self.num_vars(), "state length mismatch");
        let mut e = self.offset;
        for i in 0..x.len() {
            if x[i] == 0 {
                continue;
            }
            e += self.linear[i];
            // Each coupling counted once via the i < j half.
            let cols = self.neighbor_cols(i);
            let weights = self.neighbor_weights(i);
            // Columns are sorted, so the j > i half is the row's tail.
            let start = cols.partition_point(|&j| (j as usize) <= i);
            for (&j, &w) in cols[start..].iter().zip(&weights[start..]) {
                if x[j as usize] != 0 {
                    e += w;
                }
            }
        }
        e
    }

    /// Iterates over all couplings as `(i, j, w)` with `i < j`.
    pub fn couplings(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_vars()).flat_map(move |i| {
            self.neighbors(i).filter_map(move |(j, w)| {
                let j = j as usize;
                if j > i {
                    Some((i, j, w))
                } else {
                    None
                }
            })
        })
    }
}

impl std::fmt::Display for QuboModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QuboModel({} vars, {} couplings, offset {:.3})",
            self.num_vars(),
            self.num_couplings(),
            self.offset
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> QuboModel {
        // E = 1 + x0 - 2 x1 + 3 x0 x1 - x1 x2
        let mut b = QuboBuilder::new(3);
        b.add_offset(1.0);
        b.add_linear(0, 1.0);
        b.add_linear(1, -2.0);
        b.add_quadratic(0, 1, 3.0);
        b.add_quadratic(2, 1, -1.0);
        b.build()
    }

    #[test]
    fn energy_enumeration() {
        let m = toy();
        let want = |x0: f64, x1: f64, x2: f64| 1.0 + x0 - 2.0 * x1 + 3.0 * x0 * x1 - x1 * x2;
        for bits in 0..8u8 {
            let x = [bits & 1, (bits >> 1) & 1, (bits >> 2) & 1];
            let e = m.energy(&x);
            let w = want(x[0] as f64, x[1] as f64, x[2] as f64);
            assert!((e - w).abs() < 1e-12, "x={x:?}");
        }
    }

    #[test]
    fn diagonal_folds_to_linear() {
        let mut b = QuboBuilder::new(1);
        b.add_quadratic(0, 0, 5.0);
        let m = b.build();
        assert_eq!(m.linear(0), 5.0);
        assert_eq!(m.energy(&[1]), 5.0);
    }

    #[test]
    fn symmetric_accumulation() {
        let mut b = QuboBuilder::new(2);
        b.add_quadratic(0, 1, 1.5);
        b.add_quadratic(1, 0, 0.5);
        let m = b.build();
        assert_eq!(m.quadratic(0, 1), 2.0);
        assert_eq!(m.quadratic(1, 0), 2.0);
        assert_eq!(m.num_couplings(), 1);
    }

    #[test]
    fn zero_couplings_dropped() {
        let mut b = QuboBuilder::new(2);
        b.add_quadratic(0, 1, 1.0);
        b.add_quadratic(0, 1, -1.0);
        let m = b.build();
        assert_eq!(m.num_couplings(), 0);
        assert_eq!(m.quadratic(0, 1), 0.0);
    }

    #[test]
    fn csr_rows_sorted_and_mirrored() {
        let mut b = QuboBuilder::new(5);
        for &(i, j, w) in &[
            (3usize, 1usize, 0.5),
            (0, 4, -1.0),
            (2, 0, 2.0),
            (4, 1, 1.5),
            (2, 3, -0.5),
        ] {
            b.add_quadratic(i, j, w);
        }
        let m = b.build();
        for i in 0..5 {
            let cols = m.neighbor_cols(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            for (j, w) in m.neighbors(i) {
                // Symmetric view: the twin entry carries the same weight.
                assert_eq!(m.quadratic(j as usize, i), w);
            }
        }
        assert_eq!(m.neighbor_cols(0).len(), 2);
        assert_eq!(m.num_couplings(), 5);
    }

    #[test]
    fn max_abs_coefficient() {
        let m = toy();
        assert_eq!(m.max_abs_coefficient(), 3.0);
        let empty = QuboBuilder::new(2).build();
        assert_eq!(empty.max_abs_coefficient(), 0.0);
    }

    #[test]
    fn couplings_iterator_half_view() {
        let m = toy();
        let cs: Vec<(usize, usize, f64)> = m.couplings().collect();
        assert_eq!(cs.len(), 2);
        assert!(cs.contains(&(0, 1, 3.0)));
        assert!(cs.contains(&(1, 2, -1.0)));
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", toy()).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let m = toy();
        let json = serde_json::to_string(&m).unwrap();
        let back: QuboModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
