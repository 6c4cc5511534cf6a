//! Adam (Kingma & Ba 2015), the optimiser the surrogate trains with.
//!
//! [`Adam`] holds one pair of moment estimates per parameter matrix,
//! keyed by the stable visitation order of
//! [`crate::network::Mlp::visit_params`].

use mathkit::Matrix;

use crate::network::Mlp;

/// First-moment decay.
const BETA1: f64 = 0.9;
/// Second-moment decay.
const BETA2: f64 = 0.999;
/// Numerical-stability epsilon.
const EPS: f64 = 1e-8;

/// Stateful Adam optimiser applying updates to an [`Mlp`].
#[derive(Debug)]
pub(crate) struct Adam {
    lr: f64,
    /// `(m, v)` per parameter matrix, in visitation order
    moments: Vec<(Matrix, Matrix)>,
    step_count: u64,
}

impl Adam {
    /// Creates an optimiser with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            moments: Vec::new(),
            step_count: 0,
        }
    }

    /// Applies one update using the gradients currently accumulated in the
    /// network, then leaves gradients untouched (callers decide when to
    /// zero them).
    pub fn step(&mut self, net: &mut Mlp) {
        self.step_count += 1;
        let t = self.step_count;
        let lr = self.lr;
        let moments = &mut self.moments;
        let mut slot = 0usize;
        net.visit_params(&mut |value, grad| {
            if moments.len() <= slot {
                moments.push((
                    Matrix::zeros(value.rows(), value.cols()),
                    Matrix::zeros(value.rows(), value.cols()),
                ));
            }
            let (m, v) = &mut moments[slot];
            let bc1 = 1.0 - BETA1.powi(t as i32);
            let bc2 = 1.0 - BETA2.powi(t as i32);
            for ((w, g), (mi, vi)) in value
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice().iter())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
            slot += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::network::MlpBuilder;

    /// Drives a dense(`x.cols()`→1) network towards `target` on one
    /// sample and returns the final residual.
    fn residual(x: &Matrix, target: f64, lr: f64, seed: u64, steps: usize) -> f64 {
        let mut net = MlpBuilder::new(x.cols()).dense(1).build(seed);
        let mut opt = Adam::new(lr);
        let y = Matrix::row(&[target]);
        for _ in 0..steps {
            net.zero_grad();
            let pred = net.forward(x);
            let g = Loss::Mse.grad(&pred, &y);
            net.backward(&g);
            opt.step(&mut net);
        }
        let pred = net.forward(x);
        (pred[(0, 0)] - target).abs()
    }

    #[test]
    fn adam_converges() {
        assert!(residual(&Matrix::row(&[1.0]), 5.0, 0.1, 3, 800) < 1e-4);
    }

    #[test]
    fn adam_handles_illconditioned_inputs() {
        // Two inputs with wildly different scales: Adam's per-parameter
        // step normalisation still converges at a generic learning rate.
        let adam = residual(&Matrix::from_rows(&[&[100.0, 0.01]]), 1.0, 0.05, 11, 400);
        assert!(adam < 0.05, "adam residual {adam}");
    }
}
