//! Sequential multi-layer perceptron with builder and persistence.

use mathkit::rng::seeded_rng;
use mathkit::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layers::{Activation, Dense, Layer, LayerSpec};
use crate::NeuralError;

/// A sequential stack of layers.
///
/// # Examples
///
/// ```
/// use mathkit::Matrix;
/// use neural::network::MlpBuilder;
/// let mut net = MlpBuilder::new(3).dense(8).relu().dense(1).build(42);
/// let out = net.forward(&Matrix::zeros(5, 3));
/// assert_eq!(out.shape(), (5, 1));
/// ```
pub struct Mlp {
    layers: Vec<Layer>,
    input_dim: usize,
    output_dim: usize,
    /// index of the first dense layer (`layers.len()` if there is none):
    /// where [`Mlp::backward`] stops
    first_dense: usize,
}

impl std::fmt::Debug for Mlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mlp({} -> {}, {} layers)",
            self.input_dim,
            self.output_dim,
            self.layers.len()
        )
    }
}

impl Mlp {
    /// Forward pass over a batch (rows = samples). Caches intermediate
    /// activations for a subsequent [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the builder's or the
    /// snapshot's `input_dim`.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim,
            "input width {} does not match network input {}",
            input.cols(),
            self.input_dim
        );
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Inference pass over a batch: numerically identical to
    /// [`Mlp::forward`] but immutable — no activation caches are written,
    /// so a trained network can be shared across threads (`&Mlp` is
    /// `Sync`) and queried concurrently with no locking. Cannot be
    /// followed by [`Mlp::backward`].
    ///
    /// **Multi-row bit-identity**: row `r` of the output is *bit-identical*
    /// to inferring row `r` alone. Dense layers accumulate each output
    /// element independently in ascending-`k` order regardless of blocking
    /// ([`mathkit::Matrix::matmul`], the bit-exact `mathkit::kernel`)
    /// and activations are element-wise, so stacking rows cannot change
    /// any bit of any row — the guarantee the serving engine's
    /// micro-batching relies on to keep batched responses exactly equal to
    /// per-request ones.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the builder's or the
    /// snapshot's `input_dim`.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim,
            "input width {} does not match network input {}",
            input.cols(),
            self.input_dim
        );
        // First layer reads the caller's matrix directly — no defensive
        // clone of the (possibly large) input batch.
        let mut layers = self.layers.iter();
        let mut x = match layers.next() {
            Some(first) => first.infer(input),
            None => input.clone(),
        };
        for layer in layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Backward pass: propagates the loss gradient and accumulates
    /// parameter gradients. Must follow a `forward` on the same batch.
    ///
    /// It stops at the first dense layer, which accumulates its parameter
    /// gradients (`Dense::backward_params`) but computes no input
    /// gradient: nothing reads `dL/d(input)`, and the layers below it
    /// have no parameters.
    pub fn backward(&mut self, grad_output: &Matrix) {
        let Some((Layer::Dense(first), above)) = self.layers[self.first_dense..].split_first_mut()
        else {
            return;
        };
        let mut g: Option<Matrix> = None;
        for layer in above.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output));
    }

    /// Visits every `(value, gradient)` parameter pair in stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |_, grad| grad.map_inplace(|_| 0.0));
    }

    /// Serialisable snapshot of the architecture and weights.
    pub fn to_state(&self) -> MlpState {
        MlpState {
            input_dim: self.input_dim,
            layers: self.layers.iter().map(|l| l.spec()).collect(),
        }
    }

    /// Restores a network from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidModel`] when consecutive layer shapes
    /// are inconsistent.
    pub fn from_state(state: &MlpState) -> Result<Self, NeuralError> {
        let mut width = state.input_dim;
        let mut layers = Vec::with_capacity(state.layers.len());
        let first_dense = state
            .layers
            .iter()
            .position(|spec| matches!(spec, LayerSpec::Dense { .. }))
            .unwrap_or(state.layers.len());
        let activation = |kind| Layer::Activation { kind, output: None };
        for (i, spec) in state.layers.iter().enumerate() {
            layers.push(match spec {
                LayerSpec::Dense {
                    input,
                    output,
                    weights,
                    bias,
                } => {
                    if *input != width {
                        return Err(NeuralError::InvalidModel {
                            message: format!(
                                "layer {i}: expects input {input}, but previous width is {width}"
                            ),
                        });
                    }
                    if weights.len() != input * output || bias.len() != *output {
                        return Err(NeuralError::InvalidModel {
                            message: format!("layer {i}: weight/bias length mismatch"),
                        });
                    }
                    width = *output;
                    Layer::Dense(Dense::from_values(
                        *input,
                        *output,
                        weights.clone(),
                        bias.clone(),
                    ))
                }
                LayerSpec::Relu => activation(Activation::Relu),
                LayerSpec::Sigmoid => activation(Activation::Sigmoid),
                LayerSpec::Tanh => activation(Activation::Tanh),
            });
        }
        Ok(Mlp {
            layers,
            input_dim: state.input_dim,
            output_dim: width,
            first_dense,
        })
    }
}

/// Serialisable network snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpState {
    /// input feature width
    pub input_dim: usize,
    /// ordered layer descriptions
    pub layers: Vec<LayerSpec>,
}

/// Builder for [`Mlp`].
///
/// Dense layers are He-initialised from the seed passed to
/// [`MlpBuilder::build`]; the same seed reproduces the same network.
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    /// output width of the last dense layer so far
    width: usize,
    /// the planned layers; dense weights are drawn in `build`
    layers: Vec<LayerSpec>,
}

impl MlpBuilder {
    /// Starts a builder for networks consuming `input_dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` is zero.
    pub fn new(input_dim: usize) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        MlpBuilder {
            input_dim,
            width: input_dim,
            layers: Vec::new(),
        }
    }

    /// Appends a dense layer with `width` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn dense(mut self, width: usize) -> Self {
        assert!(width > 0, "layer width must be positive");
        self.layers.push(LayerSpec::Dense {
            input: self.width,
            output: width,
            weights: Vec::new(),
            bias: Vec::new(),
        });
        self.width = width;
        self
    }

    /// Appends a ReLU activation.
    pub fn relu(mut self) -> Self {
        self.layers.push(LayerSpec::Relu);
        self
    }

    /// Appends a sigmoid activation.
    pub fn sigmoid(mut self) -> Self {
        self.layers.push(LayerSpec::Sigmoid);
        self
    }

    /// Appends a tanh activation.
    pub fn tanh(mut self) -> Self {
        self.layers.push(LayerSpec::Tanh);
        self
    }

    /// Materialises the network with seed-derived initial weights.
    ///
    /// # Panics
    ///
    /// Panics if the plan contains no dense layer.
    pub fn build(mut self, seed: u64) -> Mlp {
        assert!(
            self.layers
                .iter()
                .any(|l| matches!(l, LayerSpec::Dense { .. })),
            "network needs at least one dense layer"
        );
        let mut rng = seeded_rng(seed);
        for spec in &mut self.layers {
            if let LayerSpec::Dense {
                input,
                output,
                weights,
                bias,
            } = spec
            {
                // He initialisation (good default for ReLU stacks;
                // harmless for the shallow tanh/sigmoid nets used here),
                // one Box–Muller standard normal per weight.
                let std = (2.0 / *input as f64).sqrt();
                *weights = (0..*input * *output)
                    .map(|_| {
                        let u1: f64 = rng.gen::<f64>().max(1e-300);
                        let u2: f64 = rng.gen();
                        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                    })
                    .collect();
                *bias = vec![0.0; *output];
            }
        }
        Mlp::from_state(&MlpState {
            input_dim: self.input_dim,
            layers: self.layers,
        })
        .expect("the builder chains each dense layer's width into the next")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;

    #[test]
    fn builder_shapes() {
        let net = MlpBuilder::new(4).dense(16).relu().dense(3).build(1);
        assert_eq!(net.input_dim, 4);
        assert_eq!(net.output_dim, 3);
        assert_eq!(net.layers.len(), 3);
    }

    #[test]
    fn same_seed_same_network() {
        let mut a = MlpBuilder::new(2).dense(4).tanh().dense(1).build(9);
        let mut b = MlpBuilder::new(2).dense(4).tanh().dense(1).build(9);
        let x = Matrix::from_rows(&[&[0.3, -0.7]]);
        assert_eq!(a.forward(&x), b.forward(&x));
        let mut c = MlpBuilder::new(2).dense(4).tanh().dense(1).build(10);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    /// `Mlp::backward` stops at the first dense layer without its input
    /// gradient; every accumulated parameter gradient keeps the bits of
    /// the full chain of `Layer::backward` calls, also with a
    /// parameter-free layer below the first dense one.
    #[test]
    fn skipped_input_gradient_leaves_parameter_gradients_bit_identical() {
        let build = || {
            MlpBuilder::new(5)
                .tanh()
                .dense(12)
                .relu()
                .dense(9)
                .relu()
                .dense(2)
                .build(17)
        };
        let x = Matrix::from_vec(11, 5, (0..55).map(|i| ((i * 7) as f64).sin()).collect());
        let y = Matrix::from_vec(11, 2, (0..22).map(|i| ((i * 3) as f64).cos()).collect());
        let (mut net, mut full) = (build(), build());
        let mut grads = Vec::new();
        for step in 0..2 {
            let g = Loss::Mse.grad(&net.forward(&x), &y);
            net.backward(&g);
            let mut chain = Loss::Mse.grad(&full.forward(&x), &y);
            for layer in full.layers.iter_mut().rev() {
                chain = layer.backward(&chain);
            }
            let mut ours = Vec::new();
            net.visit_params(&mut |_, g| ours.extend_from_slice(g.as_slice()));
            grads.clear();
            full.visit_params(&mut |_, g| grads.extend_from_slice(g.as_slice()));
            assert_eq!(ours.len(), grads.len());
            for (i, (a, b)) in ours.iter().zip(&grads).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step} gradient {i}: {a} vs {b}"
                );
            }
        }
    }

    /// End-to-end finite-difference gradient check through a two-layer
    /// network with nonlinearities — validates the full backprop chain.
    #[test]
    fn full_network_gradient_check() {
        let mut net = MlpBuilder::new(3)
            .dense(5)
            .tanh()
            .dense(2)
            .sigmoid()
            .build(4);
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.7], &[-0.1, 0.9, 0.3]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[0.3, 0.8]]);
        let loss = Loss::Bce;

        net.zero_grad();
        let pred = net.forward(&x);
        let g = loss.grad(&pred, &y);
        net.backward(&g);

        // Collect analytic gradients.
        let mut analytic: Vec<f64> = Vec::new();
        net.visit_params(&mut |_v, g| analytic.extend_from_slice(g.as_slice()));

        // Numeric gradients, parameter by parameter.
        let eps = 1e-6;
        let mut flat_idx = 0usize;
        let mut max_err = 0.0_f64;
        // Count parameters first.
        let total: usize = {
            let mut c = 0;
            net.visit_params(&mut |v, _| c += v.rows() * v.cols());
            c
        };
        #[allow(clippy::explicit_counter_loop)] // flat_idx advances only on gradient entries
        for target in 0..total {
            let perturb = |delta: f64, net: &mut Mlp| {
                let mut seen = 0usize;
                net.visit_params(&mut |v, _| {
                    let len = v.rows() * v.cols();
                    if target >= seen && target < seen + len {
                        v.as_mut_slice()[target - seen] += delta;
                    }
                    seen += len;
                });
            };
            perturb(eps, &mut net);
            let plus = loss.value(&net.forward(&x), &y);
            perturb(-2.0 * eps, &mut net);
            let minus = loss.value(&net.forward(&x), &y);
            perturb(eps, &mut net);
            let numeric = (plus - minus) / (2.0 * eps);
            max_err = max_err.max((numeric - analytic[flat_idx]).abs());
            flat_idx += 1;
        }
        assert!(max_err < 1e-5, "max gradient error {max_err}");
    }

    #[test]
    fn infer_matches_forward_and_is_shareable() {
        let mut net = MlpBuilder::new(3)
            .dense(8)
            .relu()
            .dense(4)
            .tanh()
            .dense(2)
            .sigmoid()
            .build(13);
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.7], &[-0.1, 0.9, 0.3]]);
        let want = net.forward(&x);
        assert_eq!(net.infer(&x), want);
        // Concurrent immutable inference from several threads.
        let (net, x, want) = (&net, &x, &want);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || assert_eq!(&net.infer(x), want));
            }
        });
    }

    #[test]
    fn multi_row_infer_is_bit_identical_per_row() {
        // The serving engine stacks concurrent requests into one matrix;
        // each row of a batched infer must equal the 1-row infer of that
        // row with *exact* f64 equality, for any batch size or ordering.
        let net = MlpBuilder::new(5)
            .dense(16)
            .relu()
            .dense(8)
            .tanh()
            .dense(3)
            .sigmoid()
            .build(77);
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|r| {
                (0..5)
                    .map(|c| ((r * 7 + c * 3) % 11) as f64 / 3.0 - 1.5)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let batched = net.infer(&Matrix::from_rows(&refs));
        for (r, row) in rows.iter().enumerate() {
            let single = net.infer(&Matrix::row(row));
            for c in 0..3 {
                assert_eq!(
                    batched[(r, c)].to_bits(),
                    single[(0, c)].to_bits(),
                    "row {r} col {c} changed bits when batched"
                );
            }
        }
        // Row order must not matter either: reversed stacking, same bits.
        let mut rev = refs.clone();
        rev.reverse();
        let reversed = net.infer(&Matrix::from_rows(&rev));
        for r in 0..rows.len() {
            for c in 0..3 {
                assert_eq!(
                    reversed[(rows.len() - 1 - r, c)].to_bits(),
                    batched[(r, c)].to_bits()
                );
            }
        }
    }

    #[test]
    fn from_state_validates_shapes() {
        let net = MlpBuilder::new(2).dense(3).build(1);
        let mut state = net.to_state();
        state.input_dim = 5; // now inconsistent with the dense layer
        assert!(matches!(
            Mlp::from_state(&state),
            Err(NeuralError::InvalidModel { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "dense layer")]
    fn builder_requires_dense() {
        let _ = MlpBuilder::new(2).relu().build(0);
    }
}
