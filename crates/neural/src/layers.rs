//! Layers with exact backpropagation.
//!
//! A [`Layer`] transforms a batch (rows = samples) in `forward` and, given
//! the loss gradient w.r.t. its output, produces the gradient w.r.t. its
//! input in `backward` while accumulating parameter gradients. Optimisers
//! traverse parameters through [`Layer::visit_params`] in a stable order.

use mathkit::Matrix;
use rand::Rng;
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

/// A differentiable network layer.
///
/// `Send + Sync` so trained networks can be shared immutably across
/// threads; the only interior state is the activation cache written by
/// `forward`, which [`Layer::infer`] bypasses.
pub trait Layer: Send + Sync {
    /// Computes the layer output for a batch.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Computes the layer output without caching activations — the
    /// inference path. Numerically identical to [`Layer::forward`] (same
    /// operations in the same order), but takes `&self` so a trained
    /// network can serve predictions from many threads with no locking.
    fn infer(&self, input: &Matrix) -> Matrix;

    /// Backpropagates: consumes `dL/d(output)`, accumulates parameter
    /// gradients, returns `dL/d(input)`.
    ///
    /// Must be called after `forward` on the same batch.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// [`Layer::backward`] without `dL/d(input)`: accumulates parameter
    /// gradients only. [`crate::network::Mlp::backward`] calls it on the
    /// network's first dense layer, whose input gradient nothing reads. A
    /// no-op for layers with no parameters.
    fn backward_params(&mut self, _grad_out: &Matrix) {}

    /// Visits `(value, gradient)` pairs of every trainable parameter in a
    /// stable order; a no-op for activation layers.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Resets accumulated parameter gradients to zero.
    fn zero_grad(&mut self);

    /// Serialisable description (including weights).
    fn spec(&self) -> LayerSpec;
}

/// Fully-connected affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix, // input x output
    bias: Matrix,    // 1 x output
    grad_w: Matrix,
    grad_b: Matrix,
    cache_input: Option<Matrix>,
}

impl Dense {
    /// He-initialised dense layer (good default for ReLU stacks; harmless
    /// for the shallow tanh/sigmoid nets used here).
    pub fn new<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Self {
        assert!(input > 0 && output > 0, "layer widths must be positive");
        let std = (2.0 / input as f64).sqrt();
        let mut weights = Matrix::zeros(input, output);
        for v in weights.as_mut_slice() {
            // Box–Muller standard normal.
            let u1: f64 = rng.gen::<f64>().max(1e-300);
            let u2: f64 = rng.gen();
            *v = std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
        Dense {
            weights,
            bias: Matrix::zeros(1, output),
            grad_w: Matrix::zeros(input, output),
            grad_b: Matrix::zeros(1, output),
            cache_input: None,
        }
    }

    /// Restores a dense layer from persisted values.
    pub fn from_values(input: usize, output: usize, weights: Vec<f64>, bias: Vec<f64>) -> Self {
        Dense {
            weights: Matrix::from_vec(input, output, weights),
            bias: Matrix::from_vec(1, output, bias),
            grad_w: Matrix::zeros(input, output),
            grad_b: Matrix::zeros(1, output),
            cache_input: None,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.weights.rows(),
            "dense layer fed {} features, expected {}",
            input.cols(),
            self.weights.rows()
        );
        self.cache_input = Some(input.clone());
        input.matmul(&self.weights).add_row_broadcast(&self.bias)
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.weights.rows(),
            "dense layer fed {} features, expected {}",
            input.cols(),
            self.weights.rows()
        );
        // Same operations in the same order as `forward` (matmul, then
        // bias adds), but the bias lands in place: one fewer full-batch
        // allocation per layer, which is what keeps large serving batches
        // cheaper than per-row calls.
        let mut out = input.matmul(&self.weights);
        out.add_row_broadcast_inplace(&self.bias);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_params(grad_out);
        // dX = dY · Wᵀ.
        grad_out.matmul_t(&self.weights)
    }

    fn backward_params(&mut self, grad_out: &Matrix) {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward called before forward");
        // dW += xᵀ · dY; db += column sums of dY.
        self.grad_w.axpy(1.0, &input.tmatmul(grad_out));
        self.grad_b.axpy(1.0, &grad_out.sum_rows());
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weights, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn zero_grad(&mut self) {
        self.grad_w.map_inplace(|_| 0.0);
        self.grad_b.map_inplace(|_| 0.0);
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            input: self.weights.rows(),
            output: self.weights.cols(),
            weights: self.weights.as_slice().to_vec(),
            bias: self.bias.as_slice().to_vec(),
        }
    }
}

/// ReLU activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache_input: Option<Matrix>,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Relu { cache_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        self.cache_input = Some(input.clone());
        input.map(|x| x.max(0.0))
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward called before forward");
        grad_out.zip_with(input, |g, x| if x > 0.0 { g } else { 0.0 })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn zero_grad(&mut self) {}

    fn spec(&self) -> LayerSpec {
        LayerSpec::Relu
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cache_output: Option<Matrix>,
}

impl Sigmoid {
    /// Creates the activation.
    pub fn new() -> Self {
        Sigmoid { cache_output: None }
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = input.map(mathkit::special::sigmoid);
        self.cache_output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        input.map(mathkit::special::sigmoid)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let out = self
            .cache_output
            .as_ref()
            .expect("backward called before forward");
        grad_out.zip_with(out, |g, s| g * s * (1.0 - s))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn zero_grad(&mut self) {}

    fn spec(&self) -> LayerSpec {
        LayerSpec::Sigmoid
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cache_output: Option<Matrix>,
}

impl Tanh {
    /// Creates the activation.
    pub fn new() -> Self {
        Tanh { cache_output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = input.map(f64::tanh);
        self.cache_output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        input.map(f64::tanh)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let out = self
            .cache_output
            .as_ref()
            .expect("backward called before forward");
        grad_out.zip_with(out, |g, t| g * (1.0 - t * t))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn zero_grad(&mut self) {}

    fn spec(&self) -> LayerSpec {
        LayerSpec::Tanh
    }
}

/// Rebuilds a layer from its spec.
pub fn layer_from_spec(spec: &LayerSpec) -> Box<dyn Layer> {
    match spec {
        LayerSpec::Dense {
            input,
            output,
            weights,
            bias,
        } => Box::new(Dense::from_values(
            *input,
            *output,
            weights.clone(),
            bias.clone(),
        )),
        LayerSpec::Relu => Box::new(Relu::new()),
        LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
        LayerSpec::Tanh => Box::new(Tanh::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::rng::seeded_rng;

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::from_values(2, 1, vec![2.0, -1.0], vec![0.5]);
        let x = Matrix::from_rows(&[&[1.0, 3.0], &[0.0, 2.0]]);
        let y = d.forward(&x);
        // [1*2 + 3*(-1) + 0.5, 0*2 + 2*(-1) + 0.5]
        assert_eq!(y, Matrix::from_rows(&[&[-0.5], &[-1.5]]));
    }

    #[test]
    fn dense_backward_gradient_shapes() {
        let mut rng = seeded_rng(1);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 0.0, 1.0]]);
        let _ = d.forward(&x);
        let g = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let gi = d.backward(&g);
        assert_eq!(gi.shape(), (2, 3));
    }

    #[test]
    fn relu_gates_gradient() {
        let mut r = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = r.forward(&x);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 2.0]]));
        let g = r.backward(&Matrix::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(g, Matrix::from_rows(&[&[0.0, 5.0]]));
    }

    #[test]
    fn sigmoid_saturates_and_backprops() {
        let mut s = Sigmoid::new();
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
        let mut t = Tanh::new();
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
        let mut rng = seeded_rng(3);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[1.1, 0.3, -0.5]]);
        // Scalar objective: sum of outputs.
        let eps = 1e-6;

        // Analytic gradients.
        d.zero_grad();
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
            let probe = |delta: f64, d: &mut Dense| -> f64 {
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
        let mut rng = seeded_rng(17);
        let x = Matrix::from_rows(&[&[0.4, -1.2, 0.0], &[2.5, 0.1, -0.7]]);
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(3, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Sigmoid::new()),
            Box::new(Tanh::new()),
        ];
        for layer in &mut layers {
            let inferred = layer.infer(&x);
            let forwarded = layer.forward(&x);
            assert_eq!(inferred, forwarded);
        }
    }

    #[test]
    fn spec_roundtrip() {
        let mut rng = seeded_rng(9);
        let d = Dense::new(4, 3, &mut rng);
        let spec = d.spec();
        let mut rebuilt = layer_from_spec(&spec);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]);
        let mut orig = d;
        assert_eq!(orig.forward(&x), rebuilt.forward(&x));
    }

    #[test]
    #[should_panic(expected = "features")]
    fn dense_rejects_wrong_width() {
        let mut rng = seeded_rng(1);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Matrix::zeros(1, 4));
    }
}
