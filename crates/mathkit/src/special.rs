//! Special functions: complementary error function, Gaussian
//! density/distribution and a numerically-stable sigmoid.
//!
//! The Minimum Fitness Strategy (paper eq. 2 / appendix F) integrates powers
//! of the Gaussian survival function, so an accurate `erf` matters: we use
//! the rational-polynomial `erfc` approximation from Numerical Recipes
//! (relative error below `1.2e-7` everywhere), which is more than enough for
//! integrands raised to batch-size powers.

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Uses the Chebyshev-fitted rational approximation of Numerical Recipes
/// §6.2.2, which keeps relative accuracy in the deep tail where
/// `1 - erf(x)` would cancel catastrophically.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    // Chebyshev coefficients for erfc, Numerical Recipes (3rd ed.), §6.2.
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Probability density of `N(mean, std^2)` at `x`.
///
/// # Panics
///
/// Panics in debug builds if `std <= 0`.
pub fn normal_pdf(x: f64, mean: f64, std: f64) -> f64 {
    debug_assert!(std > 0.0, "normal_pdf requires std > 0");
    let z = (x - mean) / std;
    (-0.5 * z * z).exp() / (std * (2.0 * std::f64::consts::PI).sqrt())
}

/// Cumulative distribution function of `N(mean, std^2)` at `x`.
///
/// For `std == 0` this degenerates to a step function at `mean`.
///
/// # Examples
///
/// ```
/// use mathkit::special::normal_cdf;
/// assert!((normal_cdf(1.96, 0.0, 1.0) - 0.975).abs() < 1e-3);
/// ```
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return if x < mean { 0.0 } else { 1.0 };
    }
    0.5 * erfc(-(x - mean) / (std * std::f64::consts::SQRT_2))
}

/// Survival function `1 - CDF` of `N(mean, std^2)` at `x`, computed without
/// cancellation in the upper tail.
pub fn normal_sf(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return if x < mean { 1.0 } else { 0.0 };
    }
    0.5 * erfc((x - mean) / (std * std::f64::consts::SQRT_2))
}

/// Numerically-stable logistic sigmoid `1 / (1 + exp(-x))`.
///
/// # Examples
///
/// ```
/// use mathkit::special::sigmoid;
/// assert_eq!(sigmoid(0.0), 0.5);
/// assert!(sigmoid(40.0) > 0.999999);
/// assert!(sigmoid(-40.0) < 1e-6);
/// ```
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of the logistic sigmoid; input is clamped to `[eps, 1-eps]`.
///
/// # Examples
///
/// ```
/// use mathkit::special::{logit, sigmoid};
/// let x = 1.7;
/// assert!((logit(sigmoid(x), 1e-12) - x).abs() < 1e-9);
/// ```
pub fn logit(p: f64, eps: f64) -> f64 {
    let q = p.clamp(eps, 1.0 - eps);
    (q / (1.0 - q)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // erf reference values from Abramowitz & Stegun tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (1.5, 0.9661051465),
            (2.0, 0.9953222650),
            (3.0, 0.9999779095),
        ];
        for (x, want) in cases {
            assert!((erfc(x) - (1.0 - want)).abs() < 2e-7, "erfc({x})");
            assert!((erfc(-x) - (1.0 + want)).abs() < 2e-7, "erfc(-{x})");
        }
    }

    #[test]
    fn erfc_deep_tail_positive() {
        // erfc(5) ~ 1.537e-12; must stay positive and finite.
        let v = erfc(5.0);
        assert!(v > 0.0 && v < 1e-10);
        assert!((erfc(-5.0) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn cdf_sf_complementarity() {
        for &x in &[-3.0, -0.5, 0.0, 1.2, 4.0] {
            let c = normal_cdf(x, 0.5, 2.0);
            let s = normal_sf(x, 0.5, 2.0);
            assert!((c + s - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = 0.0;
        for i in 0..200 {
            let x = -5.0 + i as f64 * 0.05;
            let c = normal_cdf(x, 0.0, 1.0);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn degenerate_std_is_step() {
        assert_eq!(normal_cdf(0.9, 1.0, 0.0), 0.0);
        assert_eq!(normal_cdf(1.1, 1.0, 0.0), 1.0);
        assert_eq!(normal_sf(0.9, 1.0, 0.0), 1.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Riemann sum over +-8 sigma.
        let mut acc = 0.0;
        let h = 0.001;
        let mut x = -8.0;
        while x < 8.0 {
            acc += normal_pdf(x, 0.0, 1.0) * h;
            x += h;
        }
        assert!((acc - 1.0).abs() < 1e-4);
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[-7.0, -1.0, 0.0, 2.0, 9.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }
}
