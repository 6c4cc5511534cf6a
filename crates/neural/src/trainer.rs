//! Mini-batch training loop.
//!
//! Deterministic given the config seed: shuffling uses a seeded RNG, and
//! the loop aborts (returning the history so far) if the loss ever turns
//! non-finite — the NaN guard the dataset pipeline relies on.

use mathkit::rng::derive_rng;
use mathkit::Matrix;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::loss::Loss;
use crate::network::Mlp;
use crate::optimizer::{Optimizer, OptimizerConfig};

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// number of passes over the data
    pub epochs: usize,
    /// mini-batch size (clamped to the dataset size)
    pub batch_size: usize,
    /// optimiser
    pub optimizer: OptimizerConfig,
    /// shuffling / initialisation seed
    pub seed: u64,
    /// stop early when the training loss drops below this value
    pub target_loss: Option<f64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            batch_size: 32,
            optimizer: OptimizerConfig::adam(1e-2),
            seed: 0,
            target_loss: None,
        }
    }
}

/// Per-epoch loss history returned by [`train`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainHistory {
    /// mean training loss per epoch
    pub train_loss: Vec<f64>,
    /// validation loss per epoch (empty when no validation set given)
    pub val_loss: Vec<f64>,
    /// whether training stopped because the loss became non-finite
    pub diverged: bool,
}

impl TrainHistory {
    /// Training loss of the first epoch, or `None` when no epoch ran
    /// (`epochs == 0`) — safer than `train_loss.first().unwrap()`.
    pub fn initial_train_loss(&self) -> Option<f64> {
        self.train_loss.first().copied()
    }

    /// Training loss of the last epoch, or `None` when no epoch ran.
    pub fn final_train_loss(&self) -> Option<f64> {
        self.train_loss.last().copied()
    }
}

/// Trains `net` on `(x, y)`.
///
/// # Panics
///
/// Panics if `x` and `y` have different row counts or are empty.
pub fn train(
    net: &mut Mlp,
    x: &Matrix,
    y: &Matrix,
    loss: &Loss,
    config: &TrainConfig,
) -> TrainHistory {
    train_with_validation(net, x, y, None, loss, config)
}

/// Trains `net`, additionally tracking loss on a held-out set.
///
/// # Panics
///
/// Panics if shapes are inconsistent or the training set is empty.
pub fn train_with_validation(
    net: &mut Mlp,
    x: &Matrix,
    y: &Matrix,
    validation: Option<(&Matrix, &Matrix)>,
    loss: &Loss,
    config: &TrainConfig,
) -> TrainHistory {
    assert_eq!(x.rows(), y.rows(), "x and y row counts differ");
    assert!(x.rows() > 0, "training set is empty");
    let n = x.rows();
    let batch = config.batch_size.clamp(1, n);
    let mut opt = Optimizer::new(config.optimizer);
    let mut rng = derive_rng(config.seed, 0x7124);
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = TrainHistory::default();

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0.0;
        for chunk in order.chunks(batch) {
            let xb = x.select_rows(chunk);
            let yb = y.select_rows(chunk);
            net.zero_grad();
            let pred = net.forward(&xb);
            let l = loss.value(&pred, &yb);
            if !l.is_finite() {
                history.diverged = true;
                return history;
            }
            let g = loss.grad(&pred, &yb);
            net.backward(&g);
            opt.step(net);
            epoch_loss += l;
            batches += 1.0;
        }
        history.train_loss.push(epoch_loss / batches);
        if let Some((vx, vy)) = validation {
            let pred = net.forward(vx);
            history.val_loss.push(loss.value(&pred, vy));
        }
        if let Some(target) = config.target_loss {
            if *history.train_loss.last().expect("pushed above") < target {
                break;
            }
        }
    }
    history
}

/// Fine-tunes a copy of an already-trained network — the continual-
/// learning entry point.
///
/// Unlike building a fresh net and calling [`train`], this **resumes from
/// the trained weights**: `base` is snapshotted ([`Mlp::to_state`]) and the
/// copy continues gradient descent from exactly where the previous
/// training run stopped. `base` itself is untouched, so a serving process
/// can keep answering requests on it while the returned copy trains — the
/// property the online hot-swap path relies on.
///
/// Deterministic given the config seed, like [`train`]: the same base
/// state, data and config produce a bit-identical tuned network.
///
/// # Errors
///
/// Returns [`crate::NeuralError::InvalidModel`] if `base`'s snapshot does not
/// rebuild (cannot happen for a network constructed through the public
/// API, but a typed error beats a panic on one that was hand-assembled).
///
/// # Panics
///
/// Panics if shapes are inconsistent or the training set is empty (as
/// [`train_with_validation`]).
pub fn fine_tune(
    base: &Mlp,
    x: &Matrix,
    y: &Matrix,
    validation: Option<(&Matrix, &Matrix)>,
    loss: &Loss,
    config: &TrainConfig,
) -> Result<(Mlp, TrainHistory), crate::NeuralError> {
    let mut net = Mlp::from_state(&base.to_state())?;
    let history = train_with_validation(&mut net, x, y, validation, loss, config);
    Ok((net, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MlpBuilder;

    /// y = 2 x0 − x1 + 0.5, learnable exactly by a linear net.
    fn linear_data(n: usize) -> (Matrix, Matrix) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let a = (i as f64 * 0.37).sin();
            let b = (i as f64 * 0.73).cos();
            xs.extend_from_slice(&[a, b]);
            ys.push(2.0 * a - b + 0.5);
        }
        (Matrix::from_vec(n, 2, xs), Matrix::from_vec(n, 1, ys))
    }

    #[test]
    fn learns_linear_function() {
        let (x, y) = linear_data(64);
        let mut net = MlpBuilder::new(2).dense(1).build(5);
        let cfg = TrainConfig {
            epochs: 400,
            batch_size: 16,
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        assert!(!h.diverged);
        assert!(
            *h.train_loss.last().unwrap() < 1e-4,
            "{:?}",
            h.train_loss.last()
        );
    }

    #[test]
    fn loss_decreases() {
        let (x, y) = linear_data(64);
        let mut net = MlpBuilder::new(2).dense(8).tanh().dense(1).build(2);
        let cfg = TrainConfig {
            epochs: 50,
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        assert!(h.train_loss.first().unwrap() > h.train_loss.last().unwrap());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linear_data(32);
        let run = |seed| {
            let mut net = MlpBuilder::new(2).dense(4).relu().dense(1).build(seed);
            let cfg = TrainConfig {
                epochs: 20,
                seed,
                ..Default::default()
            };
            train(&mut net, &x, &y, &Loss::Mse, &cfg).train_loss
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn validation_tracked() {
        let (x, y) = linear_data(48);
        let (vx, vy) = linear_data(16);
        let mut net = MlpBuilder::new(2).dense(1).build(3);
        let cfg = TrainConfig {
            epochs: 30,
            ..Default::default()
        };
        let h = train_with_validation(&mut net, &x, &y, Some((&vx, &vy)), &Loss::Mse, &cfg);
        assert_eq!(h.val_loss.len(), 30);
        assert!(h.val_loss.last().unwrap() < h.val_loss.first().unwrap());
    }

    #[test]
    fn early_stopping_on_target() {
        let (x, y) = linear_data(32);
        let mut net = MlpBuilder::new(2).dense(1).build(5);
        let cfg = TrainConfig {
            epochs: 10_000,
            target_loss: Some(1e-3),
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        assert!(h.train_loss.len() < 10_000, "early stop engaged");
    }

    #[test]
    fn divergence_guard() {
        let (x, y) = linear_data(16);
        let mut net = MlpBuilder::new(2).dense(1).build(5);
        // Absurd learning rate forces divergence quickly.
        let cfg = TrainConfig {
            epochs: 200,
            optimizer: OptimizerConfig::sgd(1e6),
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        assert!(h.diverged);
    }

    #[test]
    fn batch_size_larger_than_data_ok() {
        let (x, y) = linear_data(8);
        let mut net = MlpBuilder::new(2).dense(1).build(5);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 1000,
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        assert_eq!(h.train_loss.len(), 5);
    }

    #[test]
    fn zero_epochs_yields_empty_history() {
        let (x, y) = linear_data(8);
        let mut net = MlpBuilder::new(2).dense(1).build(5);
        let cfg = TrainConfig {
            epochs: 0,
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        assert!(h.train_loss.is_empty());
        assert!(!h.diverged);
        assert_eq!(h.initial_train_loss(), None);
        assert_eq!(h.final_train_loss(), None);
    }

    #[test]
    fn fine_tune_resumes_from_trained_weights() {
        let (x, y) = linear_data(64);
        let mut net = MlpBuilder::new(2).dense(4).relu().dense(1).build(8);
        let cfg = TrainConfig {
            epochs: 60,
            ..Default::default()
        };
        let h = train(&mut net, &x, &y, &Loss::Mse, &cfg);
        let partial = *h.train_loss.last().unwrap();
        // Fine-tuning must pick up where training stopped: its first epoch
        // loss is near the base's last, far below a fresh net's first.
        let (tuned, th) = fine_tune(&net, &x, &y, None, &Loss::Mse, &cfg).unwrap();
        let resumed_first = *th.train_loss.first().unwrap();
        assert!(
            resumed_first < h.train_loss[0] / 2.0,
            "fine-tune restarted from scratch: {resumed_first} vs fresh {}",
            h.train_loss[0]
        );
        assert!(*th.train_loss.last().unwrap() <= partial * 1.5);
        // The base network is untouched (serving can continue on it).
        let before = net.to_state();
        assert_eq!(before, net.to_state());
        assert_ne!(tuned.to_state(), before, "weights did not move");
        // Determinism: same base + data + seed, same tuned network.
        let (tuned2, _) = fine_tune(&net, &x, &y, None, &Loss::Mse, &cfg).unwrap();
        assert_eq!(tuned.to_state(), tuned2.to_state());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_set_panics() {
        let mut net = MlpBuilder::new(2).dense(1).build(5);
        let cfg = TrainConfig::default();
        let _ = train(
            &mut net,
            &Matrix::zeros(0, 2),
            &Matrix::zeros(0, 1),
            &Loss::Mse,
            &cfg,
        );
    }
}
