//! Conversion between QUBO and Ising forms.
//!
//! Annealing hardware is usually specified in Ising variables
//! `s ∈ {−1, +1}` with Hamiltonian `H(s) = Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j
//! + offset`. The substitution `x_i = (1 + s_i)/2` maps a QUBO onto it:
//!
//! * `J_ij = w_ij / 4`
//! * `h_i = l_i / 2 + Σ_j w_ij / 4`
//! * `offset += Σ_i l_i / 2 + Σ_{i<j} w_ij / 4`
//!
//! The analog-control-error experiment (paper appendix B) perturbs
//! Hamiltonian coefficients the way hardware would — in Ising space — so the
//! round-trip here is exercised by the noise model.

use serde::{Deserialize, Serialize};

use crate::model::{QuboBuilder, QuboModel};

/// An Ising model `H(s) = Σ h_i s_i + Σ_{i<j} J_ij s_i s_j + offset` over
/// spins `s ∈ {−1,+1}^n`.
///
/// # Examples
///
/// ```
/// use qubo::{QuboBuilder, IsingModel};
/// let mut b = QuboBuilder::new(2);
/// b.add_quadratic(0, 1, 4.0);
/// let q = b.build();
/// let ising = IsingModel::from_qubo(&q);
/// // Energies agree under x = (1+s)/2.
/// assert!((ising.energy(&[1, 1]) - q.energy(&[1, 1])).abs() < 1e-12);
/// assert!((ising.energy(&[-1, 1]) - q.energy(&[0, 1])).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsingModel {
    offset: f64,
    fields: Vec<f64>,
    /// couplings as `(i, j, J_ij)` with `i < j`
    couplings: Vec<(u32, u32, f64)>,
}

impl IsingModel {
    /// Assembles a model from explicit parts (used by the hardware-noise
    /// wrappers that perturb fields and couplings independently).
    ///
    /// # Panics
    ///
    /// Panics if a coupling references a spin out of range or is not of
    /// the form `i < j`.
    pub fn from_parts(offset: f64, fields: Vec<f64>, couplings: Vec<(u32, u32, f64)>) -> Self {
        let n = fields.len();
        for &(i, j, _) in &couplings {
            assert!(
                (i as usize) < n && (j as usize) < n && i < j,
                "invalid coupling ({i}, {j}) for {n} spins"
            );
        }
        IsingModel {
            offset,
            fields,
            couplings,
        }
    }

    /// Converts a QUBO into Ising form.
    #[allow(clippy::needless_range_loop)] // i indexes fields and the model
    pub fn from_qubo(q: &QuboModel) -> Self {
        let n = q.num_vars();
        let mut offset = q.offset();
        let mut fields = vec![0.0; n];
        let mut couplings = Vec::with_capacity(q.num_couplings());
        for i in 0..n {
            let l = q.linear(i);
            fields[i] += l / 2.0;
            offset += l / 2.0;
        }
        for (i, j, w) in q.couplings() {
            couplings.push((i as u32, j as u32, w / 4.0));
            fields[i] += w / 4.0;
            fields[j] += w / 4.0;
            offset += w / 4.0;
        }
        IsingModel {
            offset,
            fields,
            couplings,
        }
    }

    /// Converts back to a QUBO (inverse of [`IsingModel::from_qubo`]).
    pub fn to_qubo(&self) -> QuboModel {
        // x = (1+s)/2  ⇔  s = 2x − 1:
        // h s → 2h x − h;  J s_i s_j → 4J x_i x_j − 2J x_i − 2J x_j + J.
        let n = self.fields.len();
        let mut b = QuboBuilder::new(n);
        let mut offset = self.offset;
        for (i, &h) in self.fields.iter().enumerate() {
            b.add_linear(i, 2.0 * h);
            offset -= h;
        }
        for &(i, j, jw) in &self.couplings {
            b.add_quadratic(i as usize, j as usize, 4.0 * jw);
            b.add_linear(i as usize, -2.0 * jw);
            b.add_linear(j as usize, -2.0 * jw);
            offset += jw;
        }
        b.add_offset(offset);
        b.build()
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.fields.len()
    }

    /// Constant offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Local field on spin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn field(&self, i: usize) -> f64 {
        self.fields[i]
    }

    /// Couplings as `(i, j, J_ij)` with `i < j`.
    pub fn couplings(&self) -> &[(u32, u32, f64)] {
        &self.couplings
    }

    /// Hamiltonian value of a spin configuration (`entries ∈ {−1, +1}`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or a spin outside `{−1, +1}`.
    pub fn energy(&self, s: &[i8]) -> f64 {
        assert_eq!(s.len(), self.num_spins(), "spin length mismatch");
        assert!(
            s.iter().all(|&v| v == 1 || v == -1),
            "spins must be -1 or +1"
        );
        let mut e = self.offset;
        for (i, &h) in self.fields.iter().enumerate() {
            e += h * s[i] as f64;
        }
        for &(i, j, jw) in &self.couplings {
            e += jw * s[i as usize] as f64 * s[j as usize] as f64;
        }
        e
    }

    /// Largest absolute coefficient (field or coupling).
    pub fn max_abs_coefficient(&self) -> f64 {
        let h = self.fields.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        let j = self
            .couplings
            .iter()
            .fold(0.0_f64, |m, &(_, _, w)| m.max(w.abs()));
        h.max(j)
    }
}

/// Maps a binary assignment to spins (`0 → −1`, `1 → +1`).
pub fn binary_to_spins(x: &[u8]) -> Vec<i8> {
    x.iter().map(|&b| if b == 0 { -1 } else { 1 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QuboBuilder;
    use mathkit::rng::seeded_rng;
    use rand::Rng;

    fn random_qubo(n: usize, seed: u64) -> QuboModel {
        let mut rng = seeded_rng(seed);
        let mut b = QuboBuilder::new(n);
        b.add_offset(rng.gen_range(-1.0..1.0));
        for i in 0..n {
            b.add_linear(i, rng.gen_range(-2.0..2.0));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.5 {
                    b.add_quadratic(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        b.build()
    }

    #[test]
    fn energies_agree_exhaustively() {
        let q = random_qubo(6, 4);
        let ising = IsingModel::from_qubo(&q);
        for bits in 0..64u16 {
            let x: Vec<u8> = (0..6).map(|k| ((bits >> k) & 1) as u8).collect();
            let s = binary_to_spins(&x);
            assert!(
                (ising.energy(&s) - q.energy(&x)).abs() < 1e-10,
                "bits={bits}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_energies() {
        let q = random_qubo(5, 77);
        let back = IsingModel::from_qubo(&q).to_qubo();
        for bits in 0..32u16 {
            let x: Vec<u8> = (0..5).map(|k| ((bits >> k) & 1) as u8).collect();
            assert!((back.energy(&x) - q.energy(&x)).abs() < 1e-10);
        }
    }

    #[test]
    fn binary_to_spins_maps_each_bit() {
        assert_eq!(binary_to_spins(&[0, 1, 1, 0, 1]), vec![-1, 1, 1, -1, 1]);
    }

    #[test]
    fn ferromagnetic_pair() {
        // Pure coupling x0 x1 with w=4 → J=1, h_i=1, offset=1.
        let mut b = QuboBuilder::new(2);
        b.add_quadratic(0, 1, 4.0);
        let ising = IsingModel::from_qubo(&b.build());
        assert_eq!(ising.couplings(), &[(0, 1, 1.0)]);
        assert_eq!(ising.field(0), 1.0);
        assert_eq!(ising.field(1), 1.0);
        assert_eq!(ising.offset(), 1.0);
    }

    #[test]
    fn max_abs_coefficient() {
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -6.0);
        b.add_quadratic(0, 1, 4.0);
        let ising = IsingModel::from_qubo(&b.build());
        // fields: h0 = -3 + 1 = -2, h1 = 1; J = 1 → max 2
        assert_eq!(ising.max_abs_coefficient(), 2.0);
    }

    #[test]
    #[should_panic(expected = "spins")]
    fn rejects_invalid_spin() {
        let q = random_qubo(2, 1);
        let ising = IsingModel::from_qubo(&q);
        let _ = ising.energy(&[0, 1]);
    }
}
