//! [`Sequential`]: a validated stack of layers plus a loss head, exposing
//! the flat-parameter [`Model`] interface.

use std::ops::Range;

use hieradmo_data::{Dataset, FeatureShape, Target};
use hieradmo_tensor::{ops, Matrix, Tensor4, Vector};

use crate::layer::{Cache, Layer, Signal, SignalShape};
use crate::model::{evaluate_range_serial, score_sample, EvalSums, Model};

/// Row-tile size for batched evaluation: bounds the stacked activation
/// matrices while matching the execution engine's eval chunk size, so a
/// pool chunk runs as a single GEMM per dense layer.
const EVAL_GEMM_TILE: usize = 256;

/// The loss applied on top of the final layer's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossHead {
    /// Softmax + cross-entropy against a class label (logistic regression,
    /// CNN, VGG, ResNet heads).
    SoftmaxCrossEntropy,
    /// Mean-squared error against the one-hot encoding of a class label —
    /// the paper's "linear regression on MNIST" setting.
    MseOneHot,
    /// Mean-squared error against a regression target vector.
    Mse,
}

/// A feed-forward stack of [`Layer`]s with a [`LossHead`].
///
/// Construction validates the full shape pipeline once, so any conv/dense
/// size mismatch fails fast rather than mid-training.
///
/// # Example
///
/// ```
/// use hieradmo_models::{Sequential, LossHead, Model};
/// use hieradmo_models::layer::{Dense, Relu, Layer};
/// use hieradmo_data::FeatureShape;
/// use hieradmo_tensor::{init, Vector};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layers: Vec<Box<dyn Layer>> = vec![
///     Box::new(Dense::new(init::xavier_matrix(&mut rng, 8, 4), Vector::zeros(8))),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(init::xavier_matrix(&mut rng, 3, 8), Vector::zeros(3))),
/// ];
/// let model = Sequential::new(layers, FeatureShape::Flat(4), LossHead::SoftmaxCrossEntropy);
/// assert_eq!(model.dim(), 8*4 + 8 + 3*8 + 3);
/// assert_eq!(model.output_dim(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    input_shape: FeatureShape,
    head: LossHead,
    output_dim: usize,
    param_offsets: Vec<usize>,
    dim: usize,
    /// Flat widths through the stack when the batched flat path covers it
    /// (see [`Layer::supports_flat_batch`]): `[0]` is the input width and
    /// `[li + 1]` the output width of layer `li`.
    flat_dims: Option<Vec<usize>>,
}

impl Sequential {
    /// Builds and validates a sequential model.
    ///
    /// # Panics
    ///
    /// Panics if the layer stack is empty, if consecutive layer shapes are
    /// incompatible, or if the final output is not flat.
    pub fn new(layers: Vec<Box<dyn Layer>>, input_shape: FeatureShape, head: LossHead) -> Self {
        assert!(
            !layers.is_empty(),
            "sequential model needs at least one layer"
        );
        let mut shape = match input_shape {
            FeatureShape::Flat(d) => SignalShape::Flat(d),
            FeatureShape::Image {
                channels,
                height,
                width,
            } => SignalShape::Image {
                channels,
                height,
                width,
            },
        };
        let mut flat_dims = Some(vec![shape.len()]);
        for layer in &layers {
            if !layer.supports_flat_batch(shape) {
                flat_dims = None;
            }
            shape = layer.output_shape(shape);
            if let Some(dims) = &mut flat_dims {
                dims.push(shape.len());
            }
        }
        let output_dim = match shape {
            SignalShape::Flat(d) => d,
            other => panic!("final layer must produce a flat output, got {other:?}"),
        };
        let mut param_offsets = Vec::with_capacity(layers.len());
        let mut dim = 0;
        for layer in &layers {
            param_offsets.push(dim);
            dim += layer.param_len();
        }
        Sequential {
            layers,
            input_shape,
            head,
            output_dim,
            param_offsets,
            dim,
            flat_dims,
        }
    }

    /// Dimension of the model output (e.g. number of classes).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The configured loss head.
    pub fn head(&self) -> LossHead {
        self.head
    }

    /// Number of layers in the stack.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn to_signal(&self, features: &Vector) -> Signal {
        match self.input_shape {
            FeatureShape::Flat(d) => {
                assert_eq!(features.len(), d, "feature length mismatch");
                Signal::Flat(features.clone())
            }
            FeatureShape::Image {
                channels,
                height,
                width,
            } => Signal::Image(Tensor4::from_flat_sample(features, channels, height, width)),
        }
    }

    fn forward_with_caches(&self, features: &Vector) -> (Vector, Vec<Cache>) {
        let mut sig = self.to_signal(features);
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer.forward(&sig);
            sig = next;
            caches.push(cache);
        }
        (sig.expect_flat().clone(), caches)
    }

    /// Head loss and gradient w.r.t. the model output.
    fn head_loss_grad(&self, output: &Vector, target: &Target) -> (f32, Vector) {
        match (self.head, target) {
            (LossHead::SoftmaxCrossEntropy, Target::Class(c)) => (
                ops::cross_entropy_loss(output, *c),
                ops::cross_entropy_grad(output, *c),
            ),
            (LossHead::MseOneHot, Target::Class(c)) => {
                assert!(*c < output.len(), "one-hot class out of range");
                let mut one_hot = Vector::zeros(output.len());
                one_hot[*c] = 1.0;
                (
                    ops::mse_loss(output, &one_hot),
                    ops::mse_grad(output, &one_hot),
                )
            }
            (LossHead::Mse, Target::Regression(y)) => {
                (ops::mse_loss(output, y), ops::mse_grad(output, y))
            }
            (head, target) => {
                panic!("loss head {head:?} is incompatible with target {target:?}")
            }
        }
    }

    /// Stacks `n` samples (in iteration order) into one row-major feature
    /// matrix, one sample per row.
    fn stack_features<I>(&self, data: &Dataset, n: usize, indices: I) -> Matrix
    where
        I: Iterator<Item = usize>,
    {
        let d = self.input_shape.len();
        let mut x = Matrix::zeros(n, d);
        let xs = x.as_mut_slice();
        for (s, i) in indices.enumerate() {
            let f = data.sample(i).features.as_slice();
            assert_eq!(f.len(), d, "feature length mismatch");
            xs[s * d..(s + 1) * d].copy_from_slice(f);
        }
        x
    }

    /// Batched forward through the whole stack, one row per sample:
    /// `acts[0]` is the stacked input, and every layer but an identity one
    /// ([`Layer::flat_batch_is_identity`], which passes its input on
    /// uncopied) appends its output, so the last matrix is the model
    /// output. Also returns, per layer, the index in `acts` of its input.
    /// Each row is bitwise identical to the per-sample flat forward (the
    /// [`Layer::forward_flat_batch`] contract).
    fn forward_flat_batch(&self, x: Matrix, dims: &[usize]) -> (Vec<Matrix>, Vec<usize>) {
        let n = x.rows();
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        let mut inputs = Vec::with_capacity(self.layers.len());
        acts.push(x);
        for (li, layer) in self.layers.iter().enumerate() {
            inputs.push(acts.len() - 1);
            if layer.flat_batch_is_identity() {
                continue;
            }
            let mut out = Matrix::zeros(n, dims[li + 1]);
            layer.forward_flat_batch(acts.last().expect("stack is non-empty"), &mut out);
            acts.push(out);
        }
        (acts, inputs)
    }
}

impl Model for Sequential {
    fn dim(&self) -> usize {
        self.dim
    }

    fn params(&self) -> Vector {
        let mut out = Vec::with_capacity(self.dim);
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        Vector::from(out)
    }

    fn set_params(&mut self, params: &Vector) {
        assert_eq!(params.len(), self.dim, "set_params length mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.read_params(&params.as_slice()[off..]);
        }
        debug_assert_eq!(off, self.dim);
    }

    fn loss_and_grad(&self, data: &Dataset, indices: &[usize]) -> (f32, Vector) {
        let mut grad = Vector::zeros(self.dim);
        let loss = self.loss_and_grad_into(data, indices, &mut grad);
        (loss, grad)
    }

    fn loss_and_grad_into(&self, data: &Dataset, indices: &[usize], grad: &mut Vector) -> f32 {
        assert!(!indices.is_empty(), "loss_and_grad needs a non-empty batch");
        if grad.len() != self.dim {
            *grad = Vector::zeros(self.dim);
        } else {
            grad.fill(0.0);
        }
        let gslice = grad.as_mut_slice();
        let mut loss_sum = 0.0f32;
        if let Some(dims) = &self.flat_dims {
            // Batched path: one GEMM per dense layer forward and two
            // backward, with the head scored per sample in ascending order
            // as the serial path does. Every layer segment of `grad`
            // receives its samples' contributions in ascending order (the
            // [`Layer::backward_flat_batch`] contract), so the gradient is
            // unchanged bit for bit.
            let n = indices.len();
            let x = self.stack_features(data, n, indices.iter().copied());
            let (acts, inputs) = self.forward_flat_batch(x, dims);
            let out_mat = acts.last().expect("stack is non-empty");
            let od = self.output_dim;
            let mut g = Matrix::zeros(n, od);
            for (s, &i) in indices.iter().enumerate() {
                let output = Vector::from(out_mat.as_slice()[s * od..(s + 1) * od].to_vec());
                let (loss, g_out) = self.head_loss_grad(&output, &data.sample(i).target);
                loss_sum += loss;
                g.as_mut_slice()[s * od..(s + 1) * od].copy_from_slice(g_out.as_slice());
            }
            // Layers below the lowest parametrised one contribute nothing,
            // and that layer's input gradient has no consumer. An identity
            // layer passes the gradient down as it is.
            if let Some(lowest) = self.layers.iter().position(|l| l.param_len() > 0) {
                for li in (lowest..self.layers.len()).rev() {
                    let layer = &self.layers[li];
                    if layer.flat_batch_is_identity() {
                        continue;
                    }
                    let start = self.param_offsets[li];
                    let seg = &mut gslice[start..start + layer.param_len()];
                    let input = &acts[inputs[li]];
                    if li == lowest {
                        layer.backward_flat_batch(input, &g, seg, None);
                    } else {
                        let mut g_in = Matrix::zeros(n, dims[li]);
                        layer.backward_flat_batch(input, &g, seg, Some(&mut g_in));
                        g = g_in;
                    }
                }
            }
        } else {
            for &i in indices {
                let sample = data.sample(i);
                let (output, caches) = self.forward_with_caches(&sample.features);
                let (loss, g_out) = self.head_loss_grad(&output, &sample.target);
                loss_sum += loss;
                let mut g = Signal::Flat(g_out);
                for (li, layer) in self.layers.iter().enumerate().rev() {
                    let start = self.param_offsets[li];
                    let end = start + layer.param_len();
                    g = layer.backward(&caches[li], &g, &mut gslice[start..end]);
                }
            }
        }
        let inv = 1.0 / indices.len() as f32;
        grad.scale_in_place(inv);
        loss_sum * inv
    }

    fn output(&self, features: &Vector) -> Vector {
        let mut sig = self.to_signal(features);
        for layer in &self.layers {
            let (next, _) = layer.forward(&sig);
            sig = next;
        }
        sig.expect_flat().clone()
    }

    fn evaluate_range(&self, data: &Dataset, range: Range<usize>) -> EvalSums {
        let Some(dims) = &self.flat_dims else {
            return evaluate_range_serial(self, data, range);
        };
        // Batched eval: forward whole row-tiles through one GEMM per dense
        // layer, then score rows in ascending sample order — the exact
        // accumulation sequence of the serial path, so chunked parallel
        // eval stays bitwise reproducible.
        let mut sums = EvalSums::default();
        let od = self.output_dim;
        let mut start = range.start;
        while start < range.end {
            let end = (start + EVAL_GEMM_TILE).min(range.end);
            let x = self.stack_features(data, end - start, start..end);
            let (acts, _) = self.forward_flat_batch(x, dims);
            let out_mat = acts.last().expect("stack is non-empty");
            for (s, i) in (start..end).enumerate() {
                let out = Vector::from(out_mat.as_slice()[s * od..(s + 1) * od].to_vec());
                score_sample(&mut sums, &out, &data.sample(i).target);
            }
            start = end;
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use hieradmo_data::Sample;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(
                hieradmo_tensor::init::xavier_matrix(&mut rng, 6, 3),
                Vector::zeros(6),
            )),
            Box::new(Relu::new()),
            Box::new(Dense::new(
                hieradmo_tensor::init::xavier_matrix(&mut rng, 2, 6),
                Vector::zeros(2),
            )),
        ];
        Sequential::new(layers, FeatureShape::Flat(3), LossHead::SoftmaxCrossEntropy)
    }

    fn xor_ish_data() -> Dataset {
        Dataset::new(
            vec![
                Sample {
                    features: Vector::from(vec![1.0, 0.0, 0.5]),
                    target: Target::Class(0),
                },
                Sample {
                    features: Vector::from(vec![0.0, 1.0, -0.5]),
                    target: Target::Class(1),
                },
                Sample {
                    features: Vector::from(vec![0.9, 0.1, 0.4]),
                    target: Target::Class(0),
                },
                Sample {
                    features: Vector::from(vec![0.1, 0.9, -0.4]),
                    target: Target::Class(1),
                },
            ],
            FeatureShape::Flat(3),
            2,
        )
    }

    #[test]
    fn params_roundtrip() {
        let mut m = mlp(1);
        let p = m.params();
        assert_eq!(p.len(), m.dim());
        let shifted = &p + &Vector::filled(p.len(), 0.5);
        m.set_params(&shifted);
        assert_eq!(m.params(), shifted);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = mlp(2);
        let data = xor_ish_data();
        let idx = [0usize, 1, 2, 3];
        let (_, g) = m.loss_and_grad(&data, &idx);
        let p = m.params();
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates.
        for &k in &[0usize, 5, 11, g.len() - 1] {
            let mut mp = m.clone();
            let mut pp = p.clone();
            pp[k] += eps;
            mp.set_params(&pp);
            let lp = mp.loss(&data, &idx);
            let mut pm = p.clone();
            pm[k] -= eps;
            mp.set_params(&pm);
            let lm = mp.loss(&data, &idx);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (g[k] - fd).abs() < 2e-2,
                "coordinate {k}: analytic {} vs fd {fd}",
                g[k]
            );
        }
    }

    #[test]
    fn loss_and_grad_into_reuses_buffer_bitwise() {
        let m = mlp(7);
        let data = xor_ish_data();
        let (loss, grad) = m.loss_and_grad(&data, &[0, 1, 2]);
        // Seed the buffer with garbage of the right length: the override
        // must zero it, not accumulate on top.
        let mut buf = Vector::filled(m.dim(), 123.0);
        let loss_into = m.loss_and_grad_into(&data, &[0, 1, 2], &mut buf);
        assert_eq!(loss, loss_into);
        assert_eq!(grad.as_slice(), buf.as_slice());
        // Wrong-length buffers are resized rather than trusted.
        let mut short = Vector::zeros(1);
        let loss_short = m.loss_and_grad_into(&data, &[0, 1, 2], &mut short);
        assert_eq!(loss, loss_short);
        assert_eq!(grad.as_slice(), short.as_slice());
    }

    #[test]
    fn sgd_learns_separable_problem() {
        let mut m = mlp(3);
        let data = xor_ish_data();
        let idx: Vec<usize> = (0..data.len()).collect();
        let initial = m.loss(&data, &idx);
        for _ in 0..200 {
            let (_, g) = m.loss_and_grad(&data, &idx);
            let mut p = m.params();
            p.axpy(-0.5, &g);
            m.set_params(&p);
        }
        let final_loss = m.loss(&data, &idx);
        assert!(
            final_loss < initial * 0.2,
            "loss should drop: {initial} -> {final_loss}"
        );
        assert_eq!(m.evaluate(&data).accuracy, 1.0);
    }

    #[test]
    fn mse_one_hot_head_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Dense::new(
            hieradmo_tensor::init::xavier_matrix(&mut rng, 2, 3),
            Vector::zeros(2),
        ))];
        let m = Sequential::new(layers, FeatureShape::Flat(3), LossHead::MseOneHot);
        let data = xor_ish_data();
        let (loss, g) = m.loss_and_grad(&data, &[0]);
        assert!(loss >= 0.0);
        assert_eq!(g.len(), m.dim());
    }

    #[test]
    #[should_panic(expected = "incompatible with target")]
    fn head_target_mismatch_panics() {
        let m = mlp(5);
        let data = Dataset::new(
            vec![Sample {
                features: Vector::from(vec![0.0, 0.0, 0.0]),
                target: Target::Regression(Vector::from(vec![1.0])),
            }],
            FeatureShape::Flat(3),
            0,
        );
        let _ = m.loss_and_grad(&data, &[0]);
    }

    #[test]
    #[should_panic(expected = "needs a non-empty batch")]
    fn empty_batch_panics() {
        let m = mlp(6);
        let _ = m.loss_and_grad(&xor_ish_data(), &[]);
    }

    /// The batched flat path (stacked GEMM forward + rebuilt caches) must
    /// reproduce the historical per-sample loop bit for bit — losses,
    /// gradients, and evaluation sums.
    #[test]
    fn batched_flat_path_is_bitwise_equal_to_the_per_sample_loop() {
        let m = mlp(9);
        assert!(m.flat_dims.is_some());
        let data = xor_ish_data();
        let idx = [0usize, 1, 2, 3, 1];

        // Reference: replay the per-sample loop exactly as the serial
        // branch runs it.
        let mut ref_grad = Vector::zeros(m.dim());
        let gs = ref_grad.as_mut_slice();
        let mut loss_sum = 0.0f32;
        for &i in &idx {
            let sample = data.sample(i);
            let (output, caches) = m.forward_with_caches(&sample.features);
            let (loss, g_out) = m.head_loss_grad(&output, &sample.target);
            loss_sum += loss;
            let mut g = Signal::Flat(g_out);
            for (li, layer) in m.layers.iter().enumerate().rev() {
                let start = m.param_offsets[li];
                let end = start + layer.param_len();
                g = layer.backward(&caches[li], &g, &mut gs[start..end]);
            }
        }
        let inv = 1.0 / idx.len() as f32;
        ref_grad.scale_in_place(inv);
        let ref_loss = loss_sum * inv;

        let (loss, grad) = m.loss_and_grad(&data, &idx);
        assert_eq!(loss.to_bits(), ref_loss.to_bits());
        assert_eq!(grad.len(), ref_grad.len());
        for (a, b) in grad.iter().zip(ref_grad.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let batched = m.evaluate_range(&data, 0..data.len());
        let serial = evaluate_range_serial(&m, &data, 0..data.len());
        assert_eq!(batched.loss_sum.to_bits(), serial.loss_sum.to_bits());
        assert_eq!(batched.correct, serial.correct);
        assert_eq!(batched.count, serial.count);
    }
}
