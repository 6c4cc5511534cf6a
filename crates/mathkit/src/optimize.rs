//! Derivative-free 1-D minimisation: golden-section search and the
//! multi-start refinement of a precomputed grid.
//!
//! The paper uses scipy's `shgo` to minimise the surrogate-predicted
//! expected-minimum-fitness over the relaxation parameter `A` (§3.4.1).
//! `A` is one-dimensional, so a dense-grid scan followed by golden-section
//! refinement of the best basins ([`refine_grid_minimum`]) is an equivalent
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

/// Global 1-D minimisation over a *precomputed* grid: given ascending
/// sample points `xs` and their objective values, golden-sections the
/// neighbourhoods of the `refine_top` best cells.
///
/// For a one-dimensional, cheap-to-evaluate objective a fine grid
/// enumerates every basin, and local refinement recovers the global
/// optimum to high precision. Taking the grid as input lets callers batch
/// it through a vectorised objective (e.g. one neural-network forward pass
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

    fn refine_on_grid(f: &impl Fn(f64) -> f64, lo: f64, hi: f64, n: usize, top: usize) -> Minimum {
        let xs: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect();
        let values: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        refine_grid_minimum(f, &xs, &values, top, 1e-10).unwrap()
    }

    #[test]
    fn golden_quadratic() {
        let m = golden_section(|x| (x - 1.5) * (x - 1.5) + 2.0, -10.0, 10.0, 1e-10, 500).unwrap();
        assert!((m.x - 1.5).abs() < 1e-6);
        assert!((m.value - 2.0).abs() < 1e-10);
    }

    #[test]
    fn refinement_rejects_mismatched_grid() {
        assert!(refine_grid_minimum(&|x| x, &[0.0, 1.0], &[0.0], 1, 1e-9).is_err());
    }

    #[test]
    fn golden_invalid_interval() {
        assert!(golden_section(|x| x, 1.0, 0.0, 1e-9, 10).is_err());
    }

    #[test]
    fn refinement_escapes_local_minimum() {
        // Local minimum at x=-1 (value 0.5), global at x=3 (value 0).
        let f = |x: f64| ((x + 1.0).powi(2) + 0.5).min((x - 3.0).powi(2));
        let m = refine_on_grid(&f, -5.0, 5.0, 100, 3);
        assert!((m.x - 3.0).abs() < 1e-5);
        assert!(m.value < 1e-9);
    }

    #[test]
    fn refinement_finds_sine_landscape_minimum() {
        // min of sin(x) + 0.1 x over [0, 20] — multiple basins.
        let f = |x: f64| x.sin() + 0.1 * x;
        let m = refine_on_grid(&f, 0.0, 20.0, 400, 5);
        // global min near x = 3*pi/2 + small shift ~ 4.612
        assert!((m.x - 4.612).abs() < 0.05, "x = {}", m.x);
    }
}
