//! # neural — from-scratch dense neural networks
//!
//! The QROSS surrogate is "a carefully designed neural network" (§1): a
//! feature vector concatenated with the relaxation parameter, pushed
//! through fully-connected layers, trained with BCE loss for the
//! probability-of-feasibility head and Huber loss for the energy-statistics
//! head (appendix G). There is no mature Rust deep-learning dependency in
//! the allowed set, so this crate implements the needed 5%:
//!
//! * [`layers`] — dense (affine) layers and activations with exact
//!   backpropagation;
//! * [`loss`] — MSE, Huber and binary cross-entropy losses;
//! * [`optimizer`] — SGD (with momentum) and Adam;
//! * [`network`] — [`Mlp`]: a sequential stack with a builder, forward /
//!   backward passes and weight (de)serialisation;
//! * [`trainer`] — mini-batch training loop with shuffling, validation
//!   tracking and NaN guards.
//!
//! Everything operates on [`mathkit::Matrix`] with rows = samples.
//!
//! # Examples
//!
//! Train a tiny network on XOR:
//!
//! ```
//! use mathkit::Matrix;
//! use neural::network::MlpBuilder;
//! use neural::trainer::{train, TrainConfig};
//! use neural::loss::Loss;
//!
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
//! let mut net = MlpBuilder::new(2).dense(8).tanh().dense(1).sigmoid().build(7);
//! let cfg = TrainConfig { epochs: 2000, batch_size: 4, ..Default::default() };
//! let history = train(&mut net, &x, &y, &Loss::Mse, &cfg);
//! assert!(*history.train_loss.last().unwrap() < 0.05);
//! ```

#![forbid(unsafe_code)]

pub mod layers;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod trainer;

pub use network::{Mlp, MlpBuilder};

/// Errors from network construction and persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeuralError {
    /// Weight deserialisation failed (corrupt or incompatible data).
    InvalidModel {
        /// explanation
        message: String,
    },
}

impl std::fmt::Display for NeuralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NeuralError::InvalidModel { message } => write!(f, "invalid model: {message}"),
        }
    }
}

impl std::error::Error for NeuralError {}
