//! Numerical quadrature: fixed-order and composite Gauss–Legendre.
//!
//! The Minimum Fitness Strategy evaluates
//! `E[min] ≈ ∫_0^∞ (1 − Φ(z; Eavg, Estd))^(Pf·B) dz` (paper eq. 2); the
//! integrand is a smooth sigmoid-like step, so composite Gauss–Legendre on a
//! finite window chosen from the Gaussian parameters converges quickly.

/// Nodes and weights for 32-point Gauss–Legendre quadrature on `[-1, 1]`
/// (positive half; the rule is symmetric).
const GL32_X: [f64; 16] = [
    0.048_307_665_687_738_32,
    0.144_471_961_582_796_5,
    0.239_287_362_252_137_06,
    0.331_868_602_282_127_67,
    0.421_351_276_130_635_33,
    0.506_899_908_932_229_4,
    0.587_715_757_240_762_3,
    0.663_044_266_930_215_2,
    0.732_182_118_740_289_7,
    0.794_483_795_967_942_4,
    0.849_367_613_732_57,
    0.896_321_155_766_052_1,
    0.934_906_075_937_739_7,
    0.964_762_255_587_506_4,
    0.985_611_511_545_268_4,
    0.997_263_861_849_481_6,
];
const GL32_W: [f64; 16] = [
    0.096_540_088_514_727_8,
    0.095_638_720_079_274_86,
    0.093_844_399_080_804_57,
    0.091_173_878_695_763_89,
    0.087_652_093_004_403_81,
    0.083_311_924_226_946_75,
    0.078_193_895_787_070_31,
    0.072_345_794_108_848_5,
    0.065_822_222_776_361_85,
    0.058684093478535547,
    0.050998059262376176,
    0.042_835_898_022_226_68,
    0.034_273_862_913_021_43,
    0.025_392_065_309_262_06,
    0.016_274_394_730_905_67,
    0.007018610009470097,
];

/// 32-point Gauss–Legendre quadrature of `f` over `[a, b]`.
///
/// Exact for polynomials of degree ≤ 63; for the smooth integrands used in
/// this workspace it is typically accurate to near machine precision.
///
/// # Examples
///
/// ```
/// use mathkit::integrate::gauss_legendre_32;
/// let v = gauss_legendre_32(|x| x.sin(), 0.0, std::f64::consts::PI);
/// assert!((v - 2.0).abs() < 1e-12);
/// ```
pub fn gauss_legendre_32<F: Fn(f64) -> f64>(f: F, a: f64, b: f64) -> f64 {
    let c = 0.5 * (b - a);
    let d = 0.5 * (b + a);
    let mut acc = 0.0;
    for i in 0..16 {
        let x = GL32_X[i] * c;
        acc += GL32_W[i] * (f(d + x) + f(d - x));
    }
    acc * c
}

/// Composite Gauss–Legendre: splits `[a, b]` into `panels` equal panels and
/// applies [`gauss_legendre_32`] to each. Use when the integrand has a sharp
/// but smooth transition (e.g. survival functions raised to large powers).
pub fn gauss_legendre_composite<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, panels: usize) -> f64 {
    assert!(panels > 0, "at least one panel required");
    let h = (b - a) / panels as f64;
    let mut acc = 0.0;
    for p in 0..panels {
        let lo = a + p as f64 * h;
        acc += gauss_legendre_32(&f, lo, lo + h);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gl32_sin_integral() {
        let v = gauss_legendre_32(|x| x.sin(), 0.0, std::f64::consts::PI);
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gl32_high_degree_polynomial() {
        // x^10 over [0,1] = 1/11; GL32 is exact to degree 63.
        let v = gauss_legendre_32(|x| x.powi(10), 0.0, 1.0);
        assert!((v - 1.0 / 11.0).abs() < 1e-14);
    }

    #[test]
    fn composite_matches_single_on_smooth() {
        let single = gauss_legendre_32(|x: f64| (-x * x).exp(), -2.0, 2.0);
        let multi = gauss_legendre_composite(|x: f64| (-x * x).exp(), -2.0, 2.0, 8);
        assert!((single - multi).abs() < 1e-10);
    }

    #[test]
    fn survival_power_integral() {
        // E[min of m std-normals] via integral of sf^m over a window, compared
        // with a Monte-Carlo estimate. For m=4, E[min] ~ -1.0294.
        use crate::special::normal_sf;
        let m = 4.0;
        // E[min] = ∫_{-∞}^{0} (sf^m − 1) dz + ∫_0^∞ sf^m dz
        let left =
            gauss_legendre_composite(|z| normal_sf(z, 0.0, 1.0).powf(m) - 1.0, -8.0, 0.0, 16);
        let right = gauss_legendre_composite(|z| normal_sf(z, 0.0, 1.0).powf(m), 0.0, 8.0, 16);
        let e_min = left + right;
        assert!((e_min - (-1.029375)).abs() < 1e-3, "got {e_min}");
    }

    #[test]
    #[should_panic(expected = "panel")]
    fn composite_zero_panels_panics() {
        let _ = gauss_legendre_composite(|x| x, 0.0, 1.0, 0);
    }
}
