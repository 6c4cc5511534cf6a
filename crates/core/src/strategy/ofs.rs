//! Online Fitting Strategy (paper §4.2, Algorithm 1).
//!
//! OFS improves the parameter search for one specific instance by fitting
//! the two-parameter sigmoid ansatz `S(A; θs, θo) = σ(θs·A − θo)` (eq. 7)
//! to the `(A, Pf)` pairs observed from actual solver calls, then sampling
//! the next candidate uniformly from the fitted slope region
//! `{A | 0 < S(A) < 1}` (Algorithm 1, line 5).
//!
//! The bound-finding of Algorithm 1 lines 1–2 (halve until `Pf = 0`,
//! double until `Pf = 1`) is exposed via [`OnlineFitting::bound_probe`] so
//! the composed strategy can interleave it with its offline proposals —
//! the paper notes the offline strategies already provide good initial
//! guesses, so bound probes are only needed when the offline trials left a
//! side of the sigmoid unexplored.

use rand::rngs::StdRng;
use rand::Rng;

use mathkit::fit::{fit_sigmoid, SigmoidParams};
use mathkit::rng::derive_rng;

/// Online sigmoid-fitting state for one instance.
///
/// # Examples
///
/// ```
/// use qross::strategy::ofs::OnlineFitting;
/// let mut ofs = OnlineFitting::new((0.01, 100.0), 7);
/// // Feed observations straddling the slope.
/// ofs.observe(0.1, 0.0);
/// ofs.observe(1.0, 0.4);
/// ofs.observe(10.0, 1.0);
/// let a = ofs.next_candidate();
/// assert!((0.01..=100.0).contains(&a));
/// ```
#[derive(Debug)]
pub struct OnlineFitting {
    domain: (f64, f64),
    history: Vec<(f64, f64)>,
    rng: StdRng,
    /// clamp for the fitted slope region (matches the `0 < S < 1`
    /// condition at the resolution a solver batch can distinguish)
    eps: f64,
}

impl OnlineFitting {
    /// Creates the strategy for one instance over the `A` domain.
    ///
    /// # Panics
    ///
    /// Panics on an invalid domain.
    pub fn new(domain: (f64, f64), seed: u64) -> Self {
        assert!(
            domain.0 > 0.0 && domain.0 < domain.1,
            "invalid A domain [{}, {}]",
            domain.0,
            domain.1
        );
        OnlineFitting {
            domain,
            history: Vec::new(),
            rng: derive_rng(seed, 0x0F5),
            eps: 0.02,
        }
    }

    /// Records a solver-measured `(A, Pf)` pair (Algorithm 1 line 6 — the
    /// offline trials of the composed strategy are fed here too).
    ///
    /// # Panics
    ///
    /// Panics if `pf` is outside `[0, 1]` or `a` is not positive.
    pub fn observe(&mut self, a: f64, pf: f64) {
        assert!(a > 0.0 && a.is_finite(), "invalid A {a}");
        assert!((0.0..=1.0).contains(&pf), "Pf must be in [0, 1], got {pf}");
        self.history.push((a, pf));
    }

    /// Observed history.
    pub fn history(&self) -> &[(f64, f64)] {
        &self.history
    }

    /// Whether a `Pf = 0` observation (left bound) exists.
    pub fn has_left_bound(&self) -> bool {
        self.history.iter().any(|&(_, pf)| pf == 0.0)
    }

    /// Whether a `Pf = 1` observation (right bound) exists.
    pub fn has_right_bound(&self) -> bool {
        self.history.iter().any(|&(_, pf)| pf == 1.0)
    }

    /// Algorithm 1 lines 1–2: the next probe value for a missing bound,
    /// or `None` when both bounds are present. Halves below the smallest
    /// probed `A` for the left bound, doubles above the largest for the
    /// right, clamped to the domain.
    pub fn bound_probe(&self) -> Option<f64> {
        if self.history.is_empty() {
            return Some((self.domain.0 * self.domain.1).sqrt());
        }
        if !self.has_left_bound() {
            let a_min = self
                .history
                .iter()
                .map(|&(a, _)| a)
                .fold(f64::INFINITY, f64::min);
            let probe = (a_min / 2.0).max(self.domain.0);
            if probe < a_min {
                return Some(probe);
            }
        }
        if !self.has_right_bound() {
            let a_max = self
                .history
                .iter()
                .map(|&(a, _)| a)
                .fold(f64::NEG_INFINITY, f64::max);
            let probe = (a_max * 2.0).min(self.domain.1);
            if probe > a_max {
                return Some(probe);
            }
        }
        None
    }

    /// Fits the sigmoid ansatz to the history (Algorithm 1 line 4).
    ///
    /// Returns `None` with fewer than two observations or a degenerate
    /// fit.
    pub fn fitted(&self) -> Option<SigmoidParams> {
        if self.history.len() < 2 {
            return None;
        }
        let a: Vec<f64> = self.history.iter().map(|&(a, _)| a).collect();
        let p: Vec<f64> = self.history.iter().map(|&(_, pf)| pf).collect();
        fit_sigmoid(&a, &p).ok().map(|f| f.params)
    }

    /// Algorithm 1 line 5: draws `A_next ~ U{A | 0 < S(A) < 1}` from the
    /// fitted sigmoid, clamped to the domain. Falls back to a bound probe
    /// or log-uniform exploration when no usable fit exists.
    pub fn next_candidate(&mut self) -> f64 {
        if let Some(params) = self.fitted() {
            if let Ok((lo, hi)) = params.slope_interval(self.eps) {
                let lo = lo.max(self.domain.0);
                let hi = hi.min(self.domain.1);
                if lo < hi {
                    return self.rng.gen_range(lo..hi);
                }
            }
        }
        if let Some(probe) = self.bound_probe() {
            return probe;
        }
        // Degenerate fallback: log-uniform over the domain. The domain is
        // strictly ordered, but its *log* can still collapse to a single
        // float (adjacent huge values), and `gen_range` panics on an empty
        // range — fall back to the geometric centre there.
        let (lo, hi) = (self.domain.0.ln(), self.domain.1.ln());
        if lo < hi {
            (self.rng.gen_range(lo..hi)).exp()
        } else {
            (0.5 * (lo + hi)).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::special::sigmoid;

    /// Ground-truth sigmoid world: Pf(A) = σ(2·A − 6), midpoint at A = 3.
    fn world(a: f64) -> f64 {
        sigmoid(2.0 * a - 6.0)
    }

    #[test]
    fn bound_probing_walks_outward() {
        let mut ofs = OnlineFitting::new((0.01, 1000.0), 1);
        // Start somewhere on the slope.
        ofs.observe(3.0, world(3.0));
        // Drive the probe loop to completion.
        let mut guard = 0;
        while let Some(probe) = ofs.bound_probe() {
            let pf = world(probe);
            // Snap saturated values to exact bounds like a real batch does.
            let pf = if pf < 0.004 {
                0.0
            } else if pf > 0.996 {
                1.0
            } else {
                pf
            };
            ofs.observe(probe, pf);
            guard += 1;
            assert!(guard < 50, "probe loop did not terminate");
        }
        assert!(ofs.has_left_bound());
        assert!(ofs.has_right_bound());
    }

    #[test]
    fn fit_recovers_world_parameters() {
        let mut ofs = OnlineFitting::new((0.01, 100.0), 2);
        for k in 0..15 {
            let a = 0.5 + k as f64 * 0.4;
            ofs.observe(a, world(a));
        }
        let params = ofs.fitted().expect("fit succeeds");
        assert!((params.scale - 2.0).abs() < 0.2, "{params:?}");
        assert!((params.offset - 6.0).abs() < 0.6, "{params:?}");
    }

    #[test]
    fn candidates_land_on_slope() {
        let mut ofs = OnlineFitting::new((0.01, 100.0), 3);
        for k in 0..15 {
            let a = 0.5 + k as f64 * 0.4;
            ofs.observe(a, world(a));
        }
        for _ in 0..50 {
            let a = ofs.next_candidate();
            let pf = world(a);
            assert!(
                pf > 0.005 && pf < 0.995,
                "candidate A={a} off the slope (Pf={pf})"
            );
        }
    }

    #[test]
    fn empty_history_suggests_geometric_centre() {
        let ofs = OnlineFitting::new((0.01, 100.0), 4);
        let probe = ofs.bound_probe().unwrap();
        assert!((probe - 1.0).abs() < 1e-9); // sqrt(0.01 * 100)
    }

    #[test]
    fn next_candidate_always_in_domain() {
        let mut ofs = OnlineFitting::new((0.5, 2.0), 6);
        // Pathological history: all zeros (no slope visible).
        ofs.observe(0.5, 0.0);
        ofs.observe(1.0, 0.0);
        ofs.observe(2.0, 0.0);
        for _ in 0..30 {
            let a = ofs.next_candidate();
            assert!((0.5..=2.0).contains(&a), "escaped domain: {a}");
        }
    }

    #[test]
    fn collapsed_log_domain_never_panics() {
        // Valid (strictly ordered) domain whose logs round to the same
        // f64: ln(1e308) and ln(next representable) collapse because the
        // relative gap (~2e-16) is far below the ULP of 709.2.
        let lo: f64 = 1.0e308;
        let hi = f64::from_bits(lo.to_bits() + 1);
        assert!(lo < hi);
        assert_eq!(lo.ln(), hi.ln());
        let mut ofs = OnlineFitting::new((lo, hi), 11);
        // Saturate both bounds so bound_probe returns None and the
        // degenerate log-uniform fallback is reached.
        ofs.observe(lo, 0.0);
        ofs.observe(hi, 1.0);
        for _ in 0..20 {
            let a = ofs.next_candidate();
            assert!(a.is_finite() && a > 0.0, "bad candidate {a}");
        }
    }

    #[test]
    #[should_panic(expected = "Pf must be")]
    fn rejects_invalid_pf() {
        let mut ofs = OnlineFitting::new((0.1, 1.0), 0);
        ofs.observe(0.5, 1.5);
    }
}
