//! Derivative-free optimisation: bisection, golden-section, grid search
//! and multi-start global 1-D minimisation.
//!
//! The paper uses scipy's `shgo` to minimise the surrogate-predicted
//! expected-minimum-fitness over the relaxation parameter `A` (§3.4.1).
//! `A` is one-dimensional, so a dense-grid scan followed by golden-section
//! refinement of the best basins ([`minimize_global_1d`]) is an equivalent
//! global strategy.

use crate::{MathError, Result};

/// Result of a scalar minimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// location of the minimum
    pub x: f64,
    /// objective value at [`Minimum::x`]
    pub value: f64,
}

/// Finds a root of `f` on `[lo, hi]` by bisection.
///
/// # Errors
///
/// * [`MathError::Domain`] if `lo >= hi` or `f(lo)` and `f(hi)` have the
///   same sign.
/// * [`MathError::NoConvergence`] if the interval does not shrink below
///   `tol` within `max_iter` iterations (practically unreachable for
///   sensible tolerances).
///
/// # Examples
///
/// ```
/// use mathkit::optimize::bisect;
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200)?;
/// assert!((root - 2.0_f64.sqrt()).abs() < 1e-10);
/// # Ok::<(), mathkit::MathError>(())
/// ```
pub fn bisect<F: Fn(f64) -> f64>(
    f: F,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64> {
    if lo >= hi {
        return Err(MathError::Domain {
            message: format!("bisect requires lo < hi, got [{lo}, {hi}]"),
        });
    }
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(MathError::Domain {
            message: "bisect requires a sign change over the interval".to_string(),
        });
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid == 0.0 || hi - lo < tol {
            return Ok(mid);
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Err(MathError::NoConvergence { routine: "bisect" })
}

/// Golden-section minimisation of a unimodal `f` on `[lo, hi]`.
///
/// Converges linearly; `tol` is the final bracket width.
///
/// # Errors
///
/// Returns [`MathError::Domain`] if `lo >= hi`.
pub fn golden_section<F: Fn(f64) -> f64>(
    f: F,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<Minimum> {
    if lo >= hi {
        return Err(MathError::Domain {
            message: format!("golden_section requires lo < hi, got [{lo}, {hi}]"),
        });
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..max_iter {
        if hi - lo < tol {
            break;
        }
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        }
    }
    let x = 0.5 * (lo + hi);
    Ok(Minimum { x, value: f(x) })
}

/// Evaluates `f` on `points` evenly-spaced grid nodes over `[lo, hi]` and
/// returns the best node.
///
/// # Errors
///
/// Returns [`MathError::Domain`] for an empty grid or inverted interval.
pub fn grid_search<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, points: usize) -> Result<Minimum> {
    if points == 0 || lo > hi {
        return Err(MathError::Domain {
            message: "grid_search requires points > 0 and lo <= hi".to_string(),
        });
    }
    let mut best = Minimum {
        x: lo,
        value: f64::INFINITY,
    };
    for i in 0..points {
        let x = if points == 1 {
            0.5 * (lo + hi)
        } else {
            lo + (hi - lo) * i as f64 / (points - 1) as f64
        };
        let v = f(x);
        if v < best.value {
            best = Minimum { x, value: v };
        }
    }
    Ok(best)
}

/// Global 1-D minimisation: dense grid scan, then golden-section refinement
/// around the `refine_top` best grid basins.
///
/// This is the repo's stand-in for scipy's `shgo` (see DESIGN.md): for a
/// one-dimensional, cheap-to-evaluate surrogate objective, a fine grid scan
/// enumerates every basin, and local refinement recovers the global optimum
/// to high precision.
///
/// # Errors
///
/// Returns [`MathError::Domain`] for an invalid interval or an empty grid.
///
/// # Examples
///
/// ```
/// use mathkit::optimize::minimize_global_1d;
/// // Bimodal objective whose global minimum is near x = 3.
/// let f = |x: f64| (x - 3.0).powi(2).min((x + 1.0).powi(2) + 0.5);
/// let m = minimize_global_1d(&f, -5.0, 5.0, 200, 3, 1e-9)?;
/// assert!((m.x - 3.0).abs() < 1e-6);
/// # Ok::<(), mathkit::MathError>(())
/// ```
pub fn minimize_global_1d<F: Fn(f64) -> f64>(
    f: &F,
    lo: f64,
    hi: f64,
    grid_points: usize,
    refine_top: usize,
    tol: f64,
) -> Result<Minimum> {
    if lo >= hi || grid_points < 2 {
        return Err(MathError::Domain {
            message: "minimize_global_1d requires lo < hi and grid_points >= 2".to_string(),
        });
    }
    let step = (hi - lo) / (grid_points - 1) as f64;
    let xs: Vec<f64> = (0..grid_points).map(|i| lo + i as f64 * step).collect();
    let values: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
    refine_grid_minimum(&f, &xs, &values, refine_top, tol)
}

/// The refinement stage of [`minimize_global_1d`] over a *precomputed*
/// grid: given ascending sample points `xs` and their objective values,
/// golden-sections the neighbourhoods of the `refine_top` best cells.
///
/// Separating grid evaluation from refinement lets callers batch the grid
/// through a vectorised objective (e.g. one neural-network forward pass
/// over all candidates) and pay the scalar closure only for the handful of
/// refinement evaluations.
///
/// # Errors
///
/// Returns [`MathError::Domain`] when `xs` and `values` differ in length
/// or fewer than two points are given.
pub fn refine_grid_minimum<F: Fn(f64) -> f64>(
    f: &F,
    xs: &[f64],
    values: &[f64],
    refine_top: usize,
    tol: f64,
) -> Result<Minimum> {
    if xs.len() != values.len() || xs.len() < 2 {
        return Err(MathError::Domain {
            message: "refine_grid_minimum requires >= 2 points with matching values".to_string(),
        });
    }
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut best = Minimum {
        x: xs[order[0]],
        value: values[order[0]],
    };
    for &i in order.iter().take(refine_top.max(1)) {
        let wlo = xs[i.saturating_sub(1)];
        let whi = xs[(i + 1).min(xs.len() - 1)];
        if whi <= wlo {
            continue;
        }
        if let Ok(m) = golden_section(f, wlo, whi, tol, 200) {
            if m.value < best.value {
                best = m;
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-13, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 100).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 100).unwrap(), 1.0);
    }

    #[test]
    fn bisect_requires_sign_change() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9, 100),
            Err(MathError::Domain { .. })
        ));
    }

    #[test]
    fn golden_quadratic() {
        let m = golden_section(|x| (x - 1.5) * (x - 1.5) + 2.0, -10.0, 10.0, 1e-10, 500).unwrap();
        assert!((m.x - 1.5).abs() < 1e-6);
        assert!((m.value - 2.0).abs() < 1e-10);
    }

    #[test]
    fn golden_invalid_interval() {
        assert!(golden_section(|x| x, 1.0, 0.0, 1e-9, 10).is_err());
    }

    #[test]
    fn grid_finds_coarse_minimum() {
        let m = grid_search(|x| (x - 0.3).abs(), 0.0, 1.0, 101).unwrap();
        assert!((m.x - 0.3).abs() < 0.011);
    }

    #[test]
    fn grid_single_point() {
        let m = grid_search(|x| x, 0.0, 2.0, 1).unwrap();
        assert_eq!(m.x, 1.0);
    }

    #[test]
    fn global_1d_escapes_local_minimum() {
        // Local minimum at x=-1 (value 0.5), global at x=3 (value 0).
        let f = |x: f64| ((x + 1.0).powi(2) + 0.5).min((x - 3.0).powi(2));
        let m = minimize_global_1d(&f, -5.0, 5.0, 100, 3, 1e-10).unwrap();
        assert!((m.x - 3.0).abs() < 1e-5);
        assert!(m.value < 1e-9);
    }

    #[test]
    fn global_1d_sine_landscape() {
        // min of sin(x) + 0.1 x over [0, 20] — multiple basins.
        let f = |x: f64| x.sin() + 0.1 * x;
        let m = minimize_global_1d(&f, 0.0, 20.0, 400, 5, 1e-10).unwrap();
        // global min near x = 3*pi/2 + small shift ~ 4.612
        assert!((m.x - 4.612).abs() < 0.05, "x = {}", m.x);
    }
}
