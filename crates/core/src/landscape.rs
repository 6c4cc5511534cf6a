//! Predicted objective landscapes.
//!
//! One of QROSS's headline features (§1): "Given a new problem of the same
//! class, QROSS is able to predict the landscape of the objective function
//! and help users understand the expectations **without resorting to the
//! expensive QUBO solving step**." This module materialises that: a dense
//! `A`-sweep of surrogate predictions plus the derived expected-minimum-
//! fitness curve, with an ASCII rendering for terminal inspection.

use serde::{Deserialize, Serialize};

use crate::strategy::mfs::expected_min_fitness;
use crate::surrogate::Surrogate;

/// A predicted landscape over the relaxation parameter.
///
/// # Examples
///
/// ```no_run
/// use qross::landscape::PredictedLandscape;
/// # fn demo(surrogate: &qross::Surrogate, features: &[f64]) {
/// let ls = PredictedLandscape::compute(surrogate, features, (0.05, 20.0), 64, 128);
/// println!("{}", ls.render_ascii(60, 12));
/// if let Some((a, _)) = ls.predicted_optimum() {
///     println!("predicted optimal A = {a}");
/// }
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictedLandscape {
    /// swept relaxation parameters (log-spaced)
    pub a: Vec<f64>,
    /// predicted probability of feasibility per point
    pub pf: Vec<f64>,
    /// predicted batch mean energy per point
    pub e_avg: Vec<f64>,
    /// predicted batch energy standard deviation per point
    pub e_std: Vec<f64>,
    /// derived expected minimum fitness per point; `None` where fewer
    /// than one feasible solution is expected (JSON-safe stand-in for the
    /// paper's `+inf`)
    pub expected_min: Vec<Option<f64>>,
    /// batch size used for the expected-minimum derivation
    pub batch: usize,
}

impl PredictedLandscape {
    /// Sweeps the surrogate over `points` log-spaced values of `A` in
    /// `domain` and derives the expected-minimum curve for batch size
    /// `batch`.
    ///
    /// # Panics
    ///
    /// Panics for an invalid domain, fewer than 2 points or zero batch.
    pub fn compute(
        surrogate: &Surrogate,
        features: &[f64],
        domain: (f64, f64),
        points: usize,
        batch: usize,
    ) -> Self {
        assert!(
            domain.0 > 0.0 && domain.0 < domain.1,
            "invalid A domain [{}, {}]",
            domain.0,
            domain.1
        );
        assert!(points >= 2, "need at least two sweep points");
        assert!(batch > 0, "batch must be positive");
        let (lo, hi) = (domain.0.ln(), domain.1.ln());
        let a: Vec<f64> = (0..points)
            .map(|k| (lo + (hi - lo) * k as f64 / (points - 1) as f64).exp())
            .collect();
        let preds = surrogate.predict_grid(features, &a);
        let pf: Vec<f64> = preds.iter().map(|p| p.pf).collect();
        let e_avg: Vec<f64> = preds.iter().map(|p| p.e_avg).collect();
        let e_std: Vec<f64> = preds.iter().map(|p| p.e_std).collect();
        let expected_min: Vec<Option<f64>> = preds
            .iter()
            .map(|p| {
                let v = expected_min_fitness(p.pf, p.e_avg, p.e_std, batch);
                v.is_finite().then_some(v)
            })
            .collect();
        PredictedLandscape {
            a,
            pf,
            e_avg,
            e_std,
            expected_min,
            batch,
        }
    }

    /// The sweep point minimising the expected minimum fitness, or `None`
    /// when the whole landscape is predicted infeasible.
    pub fn predicted_optimum(&self) -> Option<(f64, f64)> {
        self.a
            .iter()
            .zip(self.expected_min.iter())
            .filter_map(|(&a, &v)| v.map(|v| (a, v)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The predicted slope interval `{A | lo_pf < Pf < hi_pf}`, or `None`
    /// when the sweep never enters it.
    pub fn slope_interval(&self, lo_pf: f64, hi_pf: f64) -> Option<(f64, f64)> {
        let on: Vec<f64> = self
            .a
            .iter()
            .zip(self.pf.iter())
            .filter(|(_, &p)| p > lo_pf && p < hi_pf)
            .map(|(&a, _)| a)
            .collect();
        match (on.first(), on.last()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        }
    }

    /// Renders a two-panel ASCII chart (Pf on top, expected minimum below)
    /// of the given character dimensions — the terminal counterpart of the
    /// paper's Fig. 1.
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        let width = width.clamp(16, 200);
        let height = height.clamp(4, 60);
        let mut out = String::new();
        out.push_str(&format!(
            "Pf(A), predicted              A ∈ [{:.3}, {:.3}] (log axis)\n",
            self.a.first().copied().unwrap_or(0.0),
            self.a.last().copied().unwrap_or(0.0)
        ));
        out.push_str(&render_series(&self.pf, width, height, 0.0, 1.0));
        let finite: Vec<f64> = self.expected_min.iter().copied().flatten().collect();
        if finite.is_empty() {
            out.push_str("expected minimum fitness: infeasible everywhere\n");
            return out;
        }
        let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "E[min fitness](A), predicted   range [{lo:.3}, {hi:.3}] ('·' = infeasible)\n"
        ));
        let emin_values: Vec<f64> = self
            .expected_min
            .iter()
            .map(|v| v.unwrap_or(f64::INFINITY))
            .collect();
        out.push_str(&render_series(
            &emin_values,
            width,
            height,
            lo,
            hi.max(lo + 1e-9),
        ));
        out
    }
}

/// Renders one series as an ASCII strip chart; non-finite values print as
/// a dotted bottom row.
#[allow(clippy::needless_range_loop)] // col drives both the grid and the resampling index
fn render_series(values: &[f64], width: usize, height: usize, lo: f64, hi: f64) -> String {
    let mut grid = vec![vec![' '; width]; height];
    let n = values.len();
    for col in 0..width {
        let idx = col * (n - 1) / (width - 1).max(1);
        let v = values[idx];
        if !v.is_finite() {
            grid[height - 1][col] = '·';
            continue;
        }
        let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        let row = ((1.0 - t) * (height - 1) as f64).round() as usize;
        grid[row][col] = '*';
    }
    let mut s = String::with_capacity((width + 4) * height);
    for row in grid {
        s.push_str("  |");
        s.extend(row);
        s.push('\n');
    }
    s.push_str("  +");
    s.push_str(&"-".repeat(width));
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetRow, SurrogateDataset};
    use crate::surrogate::SurrogateConfig;
    use mathkit::special::sigmoid;

    fn trained() -> Surrogate {
        let mut ds = SurrogateDataset::new(1);
        for g in 0..6 {
            let f = g as f64 * 0.1;
            for k in 0..15 {
                let ln_a = -3.0 + 6.0 * k as f64 / 14.0;
                ds.push(DatasetRow {
                    features: vec![f],
                    a: ln_a.exp(),
                    pf: sigmoid(3.0 * ln_a),
                    e_avg: 10.0 + 2.0 * ln_a,
                    e_std: 1.0,
                });
            }
        }
        let cfg = SurrogateConfig {
            hidden: 16,
            epochs: 150,
            val_fraction: 0.0,
            ..Default::default()
        };
        Surrogate::train(&ds, &cfg).unwrap().0
    }

    #[test]
    fn compute_shapes_and_monotone_pf_trend() {
        let sur = trained();
        let ls = PredictedLandscape::compute(&sur, &[0.3], (0.05, 20.0), 48, 32);
        assert_eq!(ls.a.len(), 48);
        assert_eq!(ls.pf.len(), 48);
        assert_eq!(ls.expected_min.len(), 48);
        assert!(ls.pf.first().unwrap() < ls.pf.last().unwrap());
        // log-spaced grid
        let r1 = ls.a[1] / ls.a[0];
        let r2 = ls.a[47] / ls.a[46];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn optimum_lies_on_the_slope() {
        let sur = trained();
        let ls = PredictedLandscape::compute(&sur, &[0.3], (0.05, 20.0), 64, 32);
        let (a_opt, v) = ls.predicted_optimum().expect("finite somewhere");
        assert!(v.is_finite());
        assert!(ls.expected_min.iter().any(|v| v.is_some()));
        let (lo, hi) = ls.slope_interval(0.01, 0.999).expect("slope exists");
        assert!(
            a_opt >= lo * 0.5 && a_opt <= hi * 2.0,
            "optimum {a_opt} far from slope [{lo}, {hi}]"
        );
    }

    #[test]
    fn ascii_rendering_is_wellformed() {
        let sur = trained();
        let ls = PredictedLandscape::compute(&sur, &[0.3], (0.05, 20.0), 32, 32);
        let chart = ls.render_ascii(40, 8);
        assert!(chart.contains('*'));
        let lines: Vec<&str> = chart.lines().collect();
        // Two panels with borders and headers.
        assert!(lines.len() > 16);
        assert!(lines.iter().any(|l| l.starts_with("Pf(A)")));
        assert!(lines.iter().any(|l| l.starts_with("E[min")));
    }

    #[test]
    fn infeasible_everywhere_renders_gracefully() {
        // Build a landscape by hand with all-infinite expected minima.
        let ls = PredictedLandscape {
            a: vec![0.1, 1.0, 10.0],
            pf: vec![0.0, 0.0, 0.0],
            e_avg: vec![1.0; 3],
            e_std: vec![0.1; 3],
            expected_min: vec![None; 3],
            batch: 16,
        };
        assert!(ls.predicted_optimum().is_none());
        let chart = ls.render_ascii(30, 6);
        assert!(chart.contains("infeasible everywhere"));
    }

    #[test]
    fn serde_roundtrip() {
        let sur = trained();
        let ls = PredictedLandscape::compute(&sur, &[0.1], (0.1, 10.0), 16, 8);
        let json = serde_json::to_string(&ls).unwrap();
        let back: PredictedLandscape = serde_json::from_str(&json).unwrap();
        // This serde_json build loses the last ULP on some floats, so
        // compare with a tight tolerance rather than bitwise.
        assert_eq!(ls.a.len(), back.a.len());
        assert_eq!(ls.batch, back.batch);
        for (x, y) in ls.a.iter().zip(back.a.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in ls.expected_min.iter().zip(back.expected_min.iter()) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                other => panic!("mismatched feasibility: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid A domain")]
    fn rejects_bad_domain() {
        let sur = trained();
        let _ = PredictedLandscape::compute(&sur, &[0.1], (5.0, 1.0), 16, 8);
    }
}
