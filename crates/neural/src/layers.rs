//! Layers with exact backpropagation.
//!
//! A `Layer` is a dense (affine) layer or an element-wise `Activation`.
//! `Layer::infer` is the one arithmetic body of each kind;
//! `Layer::forward` runs it and caches what `backward` needs (a dense
//! layer's input, an activation's output). Given the loss gradient w.r.t.
//! its output, `Layer::backward` produces the gradient w.r.t. its input
//! while accumulating parameter gradients. The optimiser traverses
//! parameters through `Layer::visit_params`: weights, then bias.
//!
//! Layers are internal to the crate: [`crate::Mlp`] is the network API,
//! and [`LayerSpec`] the persisted form of a layer.

use mathkit::Matrix;
use serde::{Deserialize, Serialize};

/// Serialisable layer description used for model persistence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// affine layer with the given weight and bias values
    Dense {
        /// input width
        input: usize,
        /// output width
        output: usize,
        /// row-major `input x output` weights
        weights: Vec<f64>,
        /// `output` biases
        bias: Vec<f64>,
    },
    /// rectified linear activation
    Relu,
    /// logistic sigmoid activation
    Sigmoid,
    /// hyperbolic tangent activation
    Tanh,
}

/// An element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activation {
    /// `max(x, 0)`
    Relu,
    /// logistic sigmoid
    Sigmoid,
    /// hyperbolic tangent
    Tanh,
}

/// A differentiable network layer.
///
/// `Send + Sync`, so trained networks can be shared immutably across
/// threads; the only interior state is the cache written by `forward`,
/// which [`Layer::infer`] bypasses.
#[derive(Debug, Clone)]
pub(crate) enum Layer {
    /// fully-connected affine layer
    Dense(Dense),
    /// element-wise activation
    Activation {
        /// the function applied
        kind: Activation,
        /// the last `forward` output, from which `backward` takes the
        /// derivative
        output: Option<Matrix>,
    },
}

/// Fully-connected affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub(crate) struct Dense {
    weights: Matrix, // input x output
    bias: Matrix,    // 1 x output
    grad_w: Matrix,
    grad_b: Matrix,
    input: Option<Matrix>,
}

impl Dense {
    /// Restores a dense layer from persisted values.
    pub fn from_values(input: usize, output: usize, weights: Vec<f64>, bias: Vec<f64>) -> Self {
        Dense {
            weights: Matrix::from_vec(input, output, weights),
            bias: Matrix::from_vec(1, output, bias),
            grad_w: Matrix::zeros(input, output),
            grad_b: Matrix::zeros(1, output),
            input: None,
        }
    }

    /// Accumulates the parameter gradients for `dL/d(output)` without
    /// computing `dL/d(input)`. [`crate::network::Mlp::backward`] calls it
    /// on the network's first dense layer, whose input gradient nothing
    /// reads.
    ///
    /// Must be called after `forward` on the same batch.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        let input = self.input.as_ref().expect("backward called before forward");
        // dW += xᵀ · dY; db += column sums of dY.
        self.grad_w.axpy(1.0, &input.tmatmul(grad_out));
        self.grad_b.axpy(1.0, &grad_out.sum_rows());
    }
}

impl Layer {
    /// Computes the layer output for a batch and caches what
    /// [`Layer::backward`] needs.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        match self {
            Layer::Dense(d) => d.input = Some(input.clone()),
            Layer::Activation { output, .. } => *output = Some(out.clone()),
        }
        out
    }

    /// Computes the layer output without caching — the inference path.
    /// It takes `&self`, so a trained network can serve predictions from
    /// many threads with no locking.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        match self {
            Layer::Dense(d) => {
                assert_eq!(
                    input.cols(),
                    d.weights.rows(),
                    "dense layer fed {} features, expected {}",
                    input.cols(),
                    d.weights.rows()
                );
                // The bias lands in place: one fewer full-batch
                // allocation per layer, which is what keeps large serving
                // batches cheaper than per-row calls.
                let mut out = input.matmul(&d.weights);
                out.add_row_broadcast(&d.bias);
                out
            }
            Layer::Activation { kind, .. } => match kind {
                Activation::Relu => input.map(|x| x.max(0.0)),
                Activation::Sigmoid => input.map(mathkit::special::sigmoid),
                Activation::Tanh => input.map(f64::tanh),
            },
        }
    }

    /// Backpropagates: consumes `dL/d(output)`, accumulates parameter
    /// gradients, returns `dL/d(input)`.
    ///
    /// Must be called after `forward` on the same batch.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self {
            Layer::Dense(d) => {
                d.backward_params(grad_out);
                // dX = dY · Wᵀ.
                grad_out.matmul_t(&d.weights)
            }
            Layer::Activation { kind, output } => {
                let y = output.as_ref().expect("backward called before forward");
                match kind {
                    // y = max(x, 0) > 0 exactly where x > 0 (NaN and ±0
                    // included), so the output gates like the input.
                    Activation::Relu => grad_out.zip_with(y, |g, y| if y > 0.0 { g } else { 0.0 }),
                    Activation::Sigmoid => grad_out.zip_with(y, |g, s| g * s * (1.0 - s)),
                    Activation::Tanh => grad_out.zip_with(y, |g, t| g * (1.0 - t * t)),
                }
            }
        }
    }

    /// Visits `(value, gradient)` pairs of every trainable parameter:
    /// weights, then bias; nothing for an activation.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        if let Layer::Dense(d) = self {
            f(&mut d.weights, &mut d.grad_w);
            f(&mut d.bias, &mut d.grad_b);
        }
    }

    /// Serialisable description (including weights).
    pub fn spec(&self) -> LayerSpec {
        match self {
            Layer::Dense(d) => LayerSpec::Dense {
                input: d.weights.rows(),
                output: d.weights.cols(),
                weights: d.weights.as_slice().to_vec(),
                bias: d.bias.as_slice().to_vec(),
            },
            Layer::Activation { kind, .. } => match kind {
                Activation::Relu => LayerSpec::Relu,
                Activation::Sigmoid => LayerSpec::Sigmoid,
                Activation::Tanh => LayerSpec::Tanh,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense layer with fixed, seed-dependent weights in (−1, 1).
    fn dense(input: usize, output: usize, seed: usize) -> Layer {
        let weights = (0..input * output)
            .map(|i| ((i * 7 + seed * 13) as f64 * 0.77).sin())
            .collect();
        let bias = (0..output).map(|i| ((i + seed) as f64).cos()).collect();
        Layer::Dense(Dense::from_values(input, output, weights, bias))
    }

    fn activation(kind: Activation) -> Layer {
        Layer::Activation { kind, output: None }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Layer::Dense(Dense::from_values(2, 1, vec![2.0, -1.0], vec![0.5]));
        let x = Matrix::from_rows(&[&[1.0, 3.0], &[0.0, 2.0]]);
        let y = d.forward(&x);
        // [1*2 + 3*(-1) + 0.5, 0*2 + 2*(-1) + 0.5]
        assert_eq!(y, Matrix::from_rows(&[&[-0.5], &[-1.5]]));
    }

    #[test]
    fn dense_backward_gradient_shapes() {
        let mut d = dense(3, 2, 1);
        let x = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 0.0, 1.0]]);
        let _ = d.forward(&x);
        let g = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let gi = d.backward(&g);
        assert_eq!(gi.shape(), (2, 3));
    }

    #[test]
    fn relu_gates_gradient() {
        let mut r = activation(Activation::Relu);
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = r.forward(&x);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 2.0]]));
        let g = r.backward(&Matrix::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(g, Matrix::from_rows(&[&[0.0, 5.0]]));
    }

    #[test]
    fn sigmoid_saturates_and_backprops() {
        let mut s = activation(Activation::Sigmoid);
        let x = Matrix::from_rows(&[&[0.0, 100.0, -100.0]]);
        let y = s.forward(&x);
        assert!((y[(0, 0)] - 0.5).abs() < 1e-12);
        assert!(y[(0, 1)] > 0.999_999);
        assert!(y[(0, 2)] < 1e-6);
        let g = s.backward(&Matrix::from_rows(&[&[1.0, 1.0, 1.0]]));
        assert!((g[(0, 0)] - 0.25).abs() < 1e-12);
        assert!(g[(0, 1)].abs() < 1e-6); // saturated: tiny gradient
    }

    #[test]
    fn tanh_backward_matches_derivative() {
        let mut t = activation(Activation::Tanh);
        let x = Matrix::from_rows(&[&[0.3]]);
        let _ = t.forward(&x);
        let g = t.backward(&Matrix::from_rows(&[&[1.0]]));
        let want = 1.0 - (0.3_f64).tanh().powi(2);
        assert!((g[(0, 0)] - want).abs() < 1e-12);
    }

    /// Finite-difference check of the dense layer's parameter and input
    /// gradients — the canonical backprop correctness test.
    #[test]
    fn dense_finite_difference_check() {
        let mut d = dense(3, 2, 3);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[1.1, 0.3, -0.5]]);
        // Scalar objective: sum of outputs.
        let eps = 1e-6;

        // Analytic gradients.
        let _ = d.forward(&x);
        let ones = Matrix::filled(2, 2, 1.0);
        let gi = d.backward(&ones);

        // Numeric weight gradients.
        let mut analytic_gw = None;
        let mut analytic_gb = None;
        d.visit_params(&mut |_v, g| {
            if analytic_gw.is_none() {
                analytic_gw = Some(g.clone());
            } else {
                analytic_gb = Some(g.clone());
            }
        });
        let analytic_gw = analytic_gw.unwrap();
        let analytic_gb = analytic_gb.unwrap();

        for idx in 0..6 {
            let probe = |delta: f64, d: &mut Layer| -> f64 {
                let mut first = true;
                d.visit_params(&mut |v, _| {
                    if first {
                        v.as_mut_slice()[idx] += delta;
                        first = false;
                    }
                });
                let out = d.forward(&x).sum();
                let mut first = true;
                d.visit_params(&mut |v, _| {
                    if first {
                        v.as_mut_slice()[idx] -= delta;
                        first = false;
                    }
                });
                out
            };
            let plus = probe(eps, &mut d);
            let minus = probe(-eps, &mut d);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic_gw.as_slice()[idx]).abs() < 1e-5,
                "weight {idx}: numeric {numeric} vs analytic {}",
                analytic_gw.as_slice()[idx]
            );
        }
        // Bias gradient: each bias sees both samples → gradient 2.
        for idx in 0..2 {
            assert!((analytic_gb.as_slice()[idx] - 2.0).abs() < 1e-9);
        }
        // Input gradient: dX = dY Wᵀ with dY = 1 → row sums of W.
        for r in 0..2 {
            for c in 0..3 {
                let mut want = 0.0;
                d.visit_params(&mut |v, _| {
                    if v.shape() == (3, 2) {
                        want = v[(c, 0)] + v[(c, 1)];
                    }
                });
                assert!((gi[(r, c)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn infer_matches_forward_per_layer() {
        let x = Matrix::from_rows(&[&[0.4, -1.2, 0.0], &[2.5, 0.1, -0.7]]);
        let mut layers = [
            dense(3, 3, 17),
            activation(Activation::Relu),
            activation(Activation::Sigmoid),
            activation(Activation::Tanh),
        ];
        for layer in &mut layers {
            let inferred = layer.infer(&x);
            let forwarded = layer.forward(&x);
            assert_eq!(inferred, forwarded);
        }
    }

    #[test]
    fn spec_roundtrip() {
        let mut orig = dense(4, 3, 9);
        let state = crate::network::MlpState {
            input_dim: 4,
            layers: vec![orig.spec()],
        };
        let mut rebuilt = crate::Mlp::from_state(&state).unwrap();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]);
        assert_eq!(orig.forward(&x), rebuilt.forward(&x));
    }

    #[test]
    #[should_panic(expected = "features")]
    fn dense_rejects_wrong_width() {
        let mut d = dense(3, 2, 1);
        let _ = d.forward(&Matrix::zeros(1, 4));
    }
}
