//! Pf-based Strategy (paper §3.4.2).
//!
//! Finds `Ã = argmin_A |Pf(A) − p|` for a user-chosen target feasibility
//! probability `p` (eq. 3). "If obtaining a feasible solution in one trial
//! is of primary importance..., p = 90% would be a reasonable choice"; for
//! multi-trial budgets a ladder like 90/70/50/30/10% spreads the samples
//! across the sigmoid slope.
//!
//! Purely offline: only the surrogate is consulted.

use crate::surrogate::Surrogate;
use crate::QrossError;

/// Proposes `A` with surrogate feasibility closest to `target_pf` (eq. 3).
///
/// # Errors
///
/// * [`QrossError::NoCandidate`] when the surrogate's Pf never comes
///   within 0.45 of the target anywhere in the domain (flat landscape —
///   the instance is outside what the surrogate understands).
///
/// # Panics
///
/// Panics for an invalid domain or `target_pf` outside `(0, 1)`.
pub fn propose(
    surrogate: &Surrogate,
    features: &[f64],
    domain: (f64, f64),
    target_pf: f64,
) -> Result<f64, QrossError> {
    assert!(
        domain.0 > 0.0 && domain.0 < domain.1,
        "invalid A domain [{}, {}]",
        domain.0,
        domain.1
    );
    assert!(
        target_pf > 0.0 && target_pf < 1.0,
        "target probability must be in (0, 1), got {target_pf}"
    );
    // Same trained-support clamp as MFS (see strategy::mfs).
    let (lo, hi) = crate::strategy::mfs::clamp_to_trained(surrogate, domain);
    // Dense |Pf − p| grid in one batched forward; scalar predicts only
    // pay for the golden-section refinement.
    let m =
        crate::strategy::minimize_on_log_grid(surrogate, features, (lo.ln(), hi.ln()), 96, |p| {
            (p.pf - target_pf).abs()
        })
        .map_err(|e| QrossError::NoCandidate {
            message: format!("PBS optimisation failed: {e}"),
        })?;
    if m.value > 0.45 {
        return Err(QrossError::NoCandidate {
            message: format!(
                "surrogate Pf never approaches {target_pf} (best residual {:.3})",
                m.value
            ),
        });
    }
    Ok(m.x.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetRow, SurrogateDataset};
    use crate::surrogate::SurrogateConfig;
    use mathkit::special::sigmoid;

    /// Surrogate trained on a clean sigmoid world (midpoint ln A = 0).
    fn trained_surrogate() -> Surrogate {
        let mut ds = SurrogateDataset::new(1);
        for g in 0..8 {
            let feature = g as f64 * 0.1;
            for k in 0..17 {
                let ln_a = -3.0 + 6.0 * k as f64 / 16.0;
                ds.push(DatasetRow {
                    features: vec![feature],
                    a: ln_a.exp(),
                    pf: sigmoid(3.0 * ln_a),
                    e_avg: 5.0,
                    e_std: 1.0,
                });
            }
        }
        let cfg = SurrogateConfig {
            hidden: 24,
            epochs: 250,
            learning_rate: 5e-3,
            batch_size: 32,
            val_fraction: 0.0,
            seed: 5,
        };
        Surrogate::train(&ds, &cfg).unwrap().0
    }

    #[test]
    fn hits_target_probabilities() {
        let sur = trained_surrogate();
        let domain = ((-3.0f64).exp(), (3.0f64).exp());
        for &p in &[0.2, 0.5, 0.8] {
            let a = propose(&sur, &[0.4], domain, p).unwrap();
            let predicted = sur.predict(&[0.4], a).pf;
            assert!(
                (predicted - p).abs() < 0.1,
                "target {p}: got Pf {predicted} at A={a}"
            );
        }
    }

    #[test]
    fn ladder_is_monotone_in_a() {
        // Higher target Pf should require larger A (Pf rises with A).
        let sur = trained_surrogate();
        let domain = ((-3.0f64).exp(), (3.0f64).exp());
        let ladder: Vec<f64> = [0.2, 0.5, 0.8]
            .iter()
            .map(|&p| propose(&sur, &[0.4], domain, p).unwrap())
            .collect();
        assert!(ladder[0] < ladder[1] && ladder[1] < ladder[2], "{ladder:?}");
    }

    #[test]
    #[should_panic(expected = "target probability")]
    fn rejects_degenerate_target() {
        let sur = trained_surrogate();
        let _ = propose(&sur, &[0.4], (0.1, 10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid A domain")]
    fn rejects_bad_domain() {
        let sur = trained_surrogate();
        let _ = propose(&sur, &[0.4], (5.0, 1.0), 0.5);
    }
}
