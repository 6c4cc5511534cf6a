//! First-order optimisers: SGD with momentum, and Adam.
//!
//! Optimisers hold per-parameter state keyed by the stable visitation
//! order of [`crate::layers::Layer::visit_params`].

use mathkit::Matrix;
use serde::{Deserialize, Serialize};

use crate::network::Mlp;

/// Optimiser configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerConfig {
    /// stochastic gradient descent
    Sgd {
        /// learning rate
        lr: f64,
        /// momentum coefficient (`0.0` disables momentum)
        momentum: f64,
    },
    /// Adam (Kingma & Ba 2015)
    Adam {
        /// learning rate
        lr: f64,
        /// first-moment decay
        beta1: f64,
        /// second-moment decay
        beta2: f64,
        /// numerical-stability epsilon
        eps: f64,
    },
}

impl OptimizerConfig {
    /// Adam with the standard defaults and the given learning rate.
    pub fn adam(lr: f64) -> Self {
        OptimizerConfig::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Plain SGD with the given learning rate.
    pub fn sgd(lr: f64) -> Self {
        OptimizerConfig::Sgd { lr, momentum: 0.0 }
    }
}

/// Stateful optimiser applying updates to an [`Mlp`].
#[derive(Debug)]
pub struct Optimizer {
    config: OptimizerConfig,
    /// per-parameter slots, in visitation order
    state: Vec<ParamState>,
    step_count: u64,
}

#[derive(Debug, Clone)]
enum ParamState {
    Sgd { velocity: Matrix },
    Adam { m: Matrix, v: Matrix },
}

impl Optimizer {
    /// Creates an optimiser for the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer {
            config,
            state: Vec::new(),
            step_count: 0,
        }
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Applies one update using the gradients currently accumulated in the
    /// network, then leaves gradients untouched (callers decide when to
    /// zero them).
    pub fn step(&mut self, net: &mut Mlp) {
        self.step_count += 1;
        let t = self.step_count;
        let config = self.config;
        let state = &mut self.state;
        let mut slot = 0usize;
        net.visit_params(&mut |value, grad| {
            if state.len() <= slot {
                state.push(match config {
                    OptimizerConfig::Sgd { .. } => ParamState::Sgd {
                        velocity: Matrix::zeros(value.rows(), value.cols()),
                    },
                    OptimizerConfig::Adam { .. } => ParamState::Adam {
                        m: Matrix::zeros(value.rows(), value.cols()),
                        v: Matrix::zeros(value.rows(), value.cols()),
                    },
                });
            }
            match (&config, &mut state[slot]) {
                (OptimizerConfig::Sgd { lr, momentum }, ParamState::Sgd { velocity }) => {
                    if *momentum > 0.0 {
                        // v ← μ·v − lr·g; θ ← θ + v
                        for (v, g) in velocity
                            .as_mut_slice()
                            .iter_mut()
                            .zip(grad.as_slice().iter())
                        {
                            *v = *momentum * *v - lr * g;
                        }
                        value.axpy(1.0, velocity);
                    } else {
                        value.axpy(-*lr, grad);
                    }
                }
                (
                    OptimizerConfig::Adam {
                        lr,
                        beta1,
                        beta2,
                        eps,
                    },
                    ParamState::Adam { m, v },
                ) => {
                    let bc1 = 1.0 - beta1.powi(t as i32);
                    let bc2 = 1.0 - beta2.powi(t as i32);
                    let value_s = value.as_mut_slice();
                    let m_s = m.as_mut_slice();
                    let v_s = v.as_mut_slice();
                    for ((w, g), (mi, vi)) in value_s
                        .iter_mut()
                        .zip(grad.as_slice().iter())
                        .zip(m_s.iter_mut().zip(v_s.iter_mut()))
                    {
                        *mi = beta1 * *mi + (1.0 - beta1) * g;
                        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                        let m_hat = *mi / bc1;
                        let v_hat = *vi / bc2;
                        *w -= lr * m_hat / (v_hat.sqrt() + eps);
                    }
                }
                _ => unreachable!("optimizer state kind matches config"),
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

    /// One-parameter quadratic: verify each optimiser drives a dense(1→1)
    /// "network" towards the target.
    fn converges(config: OptimizerConfig, steps: usize) -> f64 {
        let mut net = MlpBuilder::new(1).dense(1).build(3);
        let mut opt = Optimizer::new(config);
        let x = Matrix::row(&[1.0]);
        let y = Matrix::row(&[5.0]);
        for _ in 0..steps {
            net.zero_grad();
            let pred = net.forward(&x);
            let g = Loss::Mse.grad(&pred, &y);
            net.backward(&g);
            opt.step(&mut net);
        }
        let pred = net.forward(&x);
        (pred[(0, 0)] - 5.0).abs()
    }

    #[test]
    fn sgd_converges() {
        assert!(converges(OptimizerConfig::sgd(0.1), 500) < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(
            converges(
                OptimizerConfig::Sgd {
                    lr: 0.05,
                    momentum: 0.9
                },
                500
            ) < 1e-6
        );
    }

    #[test]
    fn adam_converges() {
        assert!(converges(OptimizerConfig::adam(0.1), 800) < 1e-4);
    }

    #[test]
    fn adam_handles_illconditioned_inputs() {
        // Two inputs with wildly different scales: Adam's per-parameter
        // step normalisation still converges at a generic learning rate
        // (where plain SGD would need per-problem tuning to avoid blow-up —
        // lr 1e-2 diverges here, checked below).
        let run = |config: OptimizerConfig| {
            let mut net = MlpBuilder::new(2).dense(1).build(11);
            let mut opt = Optimizer::new(config);
            let x = Matrix::from_rows(&[&[100.0, 0.01]]);
            let y = Matrix::row(&[1.0]);
            for _ in 0..400 {
                net.zero_grad();
                let pred = net.forward(&x);
                let g = Loss::Mse.grad(&pred, &y);
                net.backward(&g);
                opt.step(&mut net);
            }
            let pred = net.forward(&x);
            (pred[(0, 0)] - 1.0).abs()
        };
        let adam = run(OptimizerConfig::adam(0.05));
        assert!(adam < 0.05, "adam residual {adam}");
        let sgd = run(OptimizerConfig::sgd(1e-2));
        assert!(
            !sgd.is_finite() || sgd > 1.0,
            "sgd unexpectedly fine: {sgd}"
        );
    }

    #[test]
    fn step_counter_advances() {
        let mut net = MlpBuilder::new(1).dense(1).build(1);
        let mut opt = Optimizer::new(OptimizerConfig::adam(0.01));
        assert_eq!(opt.steps(), 0);
        net.zero_grad();
        let x = Matrix::row(&[1.0]);
        let pred = net.forward(&x);
        let g = Loss::Mse.grad(&pred, &Matrix::row(&[0.0]));
        net.backward(&g);
        opt.step(&mut net);
        opt.step(&mut net);
        assert_eq!(opt.steps(), 2);
    }
}
