//! Descriptive statistics and confidence intervals.
//!
//! The experiment harness reports "normalised optimality gap averaged across
//! all test instances" with a 95% confidence band (paper Figs. 3–4); the
//! helpers here compute exactly those quantities.

use serde::{Deserialize, Serialize};

use crate::{MathError, Result};

/// Arithmetic mean; `0.0` for empty input.
///
/// # Examples
///
/// ```
/// use mathkit::stats::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (divisor `n`); `0.0` for fewer than one element.
pub fn variance_population(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divisor `n-1`); `0.0` for fewer than two elements.
pub fn variance_sample(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation (divisor `n`).
///
/// This is the `Estd` statistic the solver surrogate learns: the spread of
/// QUBO energies inside one solver batch.
pub fn std_population(xs: &[f64]) -> f64 {
    variance_population(xs).sqrt()
}

/// Sample standard deviation (divisor `n-1`).
pub fn std_sample(xs: &[f64]) -> f64 {
    variance_sample(xs).sqrt()
}

/// Linear-interpolated quantile (same convention as NumPy's default).
///
/// `q` is clamped to `[0, 1]`.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
///
/// # Examples
///
/// ```
/// use mathkit::stats::quantile;
/// let q = quantile(&[1.0, 2.0, 3.0, 4.0], 0.5)?;
/// assert_eq!(q, 2.5);
/// # Ok::<(), mathkit::MathError>(())
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted slice (ascending). See [`quantile`].
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        let w = pos - lo as f64;
        xs[lo] * (1.0 - w) + xs[hi] * w
    }
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Mean together with a normal-approximation confidence half-width.
///
/// `half_width = z * s / sqrt(n)` with `z = 1.959964` for the default 95%
/// level — the same construction as the shaded bands in the paper's
/// Figs. 3–5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanCi {
    /// sample mean
    pub mean: f64,
    /// half-width of the confidence interval around the mean
    pub half_width: f64,
    /// number of observations
    pub n: usize,
}

/// 95% confidence interval for the mean of `xs` (normal approximation).
///
/// For `n < 2` the half-width is zero.
pub fn mean_ci95(xs: &[f64]) -> MeanCi {
    const Z95: f64 = 1.959963984540054;
    let n = xs.len();
    let m = mean(xs);
    let hw = if n < 2 {
        0.0
    } else {
        Z95 * std_sample(xs) / (n as f64).sqrt()
    };
    MeanCi {
        mean: m,
        half_width: hw,
        n,
    }
}

/// Z-score standardisation parameters learned from data.
///
/// Used by the dataset pipeline (paper §3.3: "Normalisation helps the
/// convergence of the training curve").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZScore {
    /// mean subtracted during transformation
    pub mean: f64,
    /// standard deviation divided during transformation (floored at `1e-12`)
    pub std: f64,
}

impl ZScore {
    /// Fits standardisation parameters on `xs`. A constant series yields
    /// `std = 1` so the transform degenerates gracefully to centring.
    pub fn fit(xs: &[f64]) -> Self {
        let s = std_population(xs);
        ZScore {
            mean: mean(xs),
            std: if s < 1e-12 { 1.0 } else { s },
        }
    }

    /// Applies the transform to one value.
    pub fn transform(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }

    /// Inverts the transform.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance_population(&xs), 4.0);
        assert_eq!(std_population(&xs), 2.0);
        assert!((variance_sample(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance_population(&[]), 0.0);
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs).unwrap(), 2.5);
    }

    #[test]
    fn ci95_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let ci_small = mean_ci95(&small);
        let ci_large = mean_ci95(&large);
        assert!(ci_large.half_width < ci_small.half_width);
        assert!(ci_small.half_width > 0.0);
    }

    #[test]
    fn ci95_single_sample_zero_width() {
        let ci = mean_ci95(&[3.0]);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 3.0);
    }

    #[test]
    fn zscore_roundtrip() {
        let xs = [1.0, 5.0, 9.0, 13.0];
        let z = ZScore::fit(&xs);
        for &x in &xs {
            assert!((z.inverse(z.transform(x)) - x).abs() < 1e-12);
        }
        let t: Vec<f64> = xs.iter().map(|&x| z.transform(x)).collect();
        assert!(mean(&t).abs() < 1e-12);
        assert!((std_population(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zscore_constant_series() {
        let z = ZScore::fit(&[4.0, 4.0, 4.0]);
        assert_eq!(z.transform(4.0), 0.0);
        assert_eq!(z.std, 1.0);
    }
}
