//! One-dimensional truncated Parzen (Gaussian-mixture) estimators.
//!
//! These back the Tree-structured Parzen Estimator baseline tuner: TPE
//! models the "good" and "bad" observation sets with Parzen mixtures over
//! the bounded search domain and proposes the candidate maximising the
//! density ratio `l(x)/g(x)` (Bergstra et al., 2011).

use rand::Rng;

use crate::special::normal_cdf;
use crate::{MathError, Result};

/// A Parzen estimator over a bounded interval `[lo, hi]`.
///
/// Each observation contributes a Gaussian kernel truncated to the domain;
/// a uniform "prior" kernel over the full domain is mixed in, as in the
/// reference TPE implementation, so the density never vanishes.
///
/// # Examples
///
/// ```
/// use mathkit::kde::ParzenEstimator;
/// let est = ParzenEstimator::fit(&[2.0, 2.5, 3.0], 0.0, 10.0)?;
/// assert!(est.pdf(2.5) > est.pdf(9.0));
/// # Ok::<(), mathkit::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParzenEstimator {
    lo: f64,
    hi: f64,
    centers: Vec<f64>,
    bandwidths: Vec<f64>,
    /// weight of the uniform prior component (the remaining mass is split
    /// evenly across the observation kernels)
    prior_weight: f64,
}

impl ParzenEstimator {
    /// Fits an estimator to `observations` on the domain `[lo, hi]`.
    ///
    /// Bandwidths follow the heuristic of the reference implementation:
    /// for each (sorted) center, the distance to its farther neighbour,
    /// clamped to `[domain/min_frac, domain]` with `min_frac = 100`.
    ///
    /// # Errors
    ///
    /// * [`MathError::Domain`] if `lo >= hi`.
    /// * [`MathError::EmptyInput`] if `observations` is empty.
    pub fn fit(observations: &[f64], lo: f64, hi: f64) -> Result<Self> {
        if lo >= hi {
            return Err(MathError::Domain {
                message: format!("parzen domain requires lo < hi, got [{lo}, {hi}]"),
            });
        }
        if observations.is_empty() {
            return Err(MathError::EmptyInput);
        }
        let mut centers: Vec<f64> = observations.iter().map(|&x| x.clamp(lo, hi)).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
        let span = hi - lo;
        let min_bw = span / 100.0;
        let n = centers.len();
        let mut bandwidths = Vec::with_capacity(n);
        for i in 0..n {
            let left = if i == 0 {
                centers[i] - lo
            } else {
                centers[i] - centers[i - 1]
            };
            let right = if i + 1 == n {
                hi - centers[i]
            } else {
                centers[i + 1] - centers[i]
            };
            bandwidths.push(left.max(right).clamp(min_bw, span));
        }
        Ok(ParzenEstimator {
            lo,
            hi,
            centers,
            bandwidths,
            prior_weight: 1.0 / (n as f64 + 1.0),
        })
    }

    /// Probability density at `x` (zero outside the domain).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        let span = self.hi - self.lo;
        let n = self.centers.len() as f64;
        let kernel_weight = (1.0 - self.prior_weight) / n;
        let mut acc = self.prior_weight / span;
        for (&c, &bw) in self.centers.iter().zip(self.bandwidths.iter()) {
            // Truncated Gaussian: renormalise by the in-domain mass.
            let mass = normal_cdf(self.hi, c, bw) - normal_cdf(self.lo, c, bw);
            if mass <= 0.0 {
                continue;
            }
            let z = (x - c) / bw;
            let g = (-0.5 * z * z).exp() / (bw * (2.0 * std::f64::consts::PI).sqrt());
            acc += kernel_weight * g / mass;
        }
        acc
    }

    /// Natural log of [`ParzenEstimator::pdf`], floored to avoid `-inf`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        self.pdf(x).max(1e-300).ln()
    }

    /// Draws one sample: picks the uniform prior with probability
    /// `prior_weight`, otherwise a random kernel, then samples the
    /// truncated Gaussian by rejection (falling back to clamping after 64
    /// rejections, which is vanishingly rare for in-domain centers).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.prior_weight {
            return rng.gen_range(self.lo..self.hi);
        }
        let k = rng.gen_range(0..self.centers.len());
        let c = self.centers[k];
        let bw = self.bandwidths[k];
        for _ in 0..64 {
            // Box–Muller normal draw.
            let u1: f64 = rng.gen::<f64>().max(1e-300);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x = c + bw * z;
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
        c.clamp(self.lo, self.hi)
    }

    /// Number of observation kernels.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether the estimator holds no kernels (never true for a
    /// successfully-constructed estimator).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pdf_peaks_near_observations() {
        let est = ParzenEstimator::fit(&[3.0, 3.2, 2.8], 0.0, 10.0).unwrap();
        assert!(est.pdf(3.0) > est.pdf(8.0));
        assert!(est.pdf(3.0) > est.pdf(0.5));
    }

    #[test]
    fn pdf_zero_outside_domain() {
        let est = ParzenEstimator::fit(&[5.0], 0.0, 10.0).unwrap();
        assert_eq!(est.pdf(-1.0), 0.0);
        assert_eq!(est.pdf(11.0), 0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let est = ParzenEstimator::fit(&[2.0, 7.0, 7.5], 0.0, 10.0).unwrap();
        let mut acc = 0.0;
        let steps = 20_000;
        for i in 0..steps {
            let x = 10.0 * (i as f64 + 0.5) / steps as f64;
            acc += est.pdf(x) * (10.0 / steps as f64);
        }
        assert!((acc - 1.0).abs() < 1e-3, "mass = {acc}");
    }

    #[test]
    fn samples_stay_in_domain() {
        let est = ParzenEstimator::fit(&[1.0, 9.0], 0.0, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = est.sample(&mut rng);
            assert!((0.0..=10.0).contains(&x));
        }
    }

    #[test]
    fn samples_concentrate_near_kernels() {
        let est = ParzenEstimator::fit(&[2.0, 2.1, 1.9, 2.05], 0.0, 100.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut near = 0;
        let trials = 2000;
        for _ in 0..trials {
            let x = est.sample(&mut rng);
            if (x - 2.0).abs() < 10.0 {
                near += 1;
            }
        }
        // 4/5 of the mass is kernels near 2.0; allow generous slack.
        assert!(near as f64 > 0.6 * trials as f64, "near = {near}");
    }

    #[test]
    fn observations_outside_domain_are_clamped() {
        let est = ParzenEstimator::fit(&[-5.0, 15.0], 0.0, 10.0).unwrap();
        assert_eq!(est.len(), 2);
        assert!(est.pdf(0.1) > 0.0);
        assert!(est.pdf(9.9) > 0.0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            ParzenEstimator::fit(&[], 0.0, 1.0),
            Err(MathError::EmptyInput)
        ));
        assert!(matches!(
            ParzenEstimator::fit(&[0.5], 1.0, 0.0),
            Err(MathError::Domain { .. })
        ));
    }

    #[test]
    fn log_pdf_finite_everywhere_in_domain() {
        let est = ParzenEstimator::fit(&[5.0], 0.0, 10.0).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 10.0;
            assert!(est.log_pdf(x).is_finite());
        }
    }
}
