//! [`Sequential`]: a validated stack of layers plus a loss head, exposing
//! the flat-parameter [`Model`] interface.

use std::cell::Cell;
use std::fmt;
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

/// The buffers of the batched flat path, kept across calls so that a
/// steady stream of same-shaped batches allocates nothing. Every buffer
/// is resized in place ([`Matrix::reshape`]) and fully overwritten before
/// it is read.
#[derive(Default)]
struct Workspace {
    /// `acts[0]` is the stacked input, one sample per row; every layer
    /// but an identity one appends its output rows, so `acts[out]` (see
    /// [`Sequential::forward_flat_batch`]) is the model output.
    acts: Vec<Matrix>,
    /// Per layer, the index in `acts` of its input.
    inputs: Vec<usize>,
    /// The upstream gradient rows of the layer being differentiated; the
    /// loss head writes its rows first.
    g: Matrix,
    /// The input-gradient rows a layer writes, swapped into `g` for the
    /// layer below.
    g_in: Matrix,
    /// A layer's backward scratch (`Gᵀ` for [`crate::layer::Dense`]).
    scratch: Matrix,
}

/// A model replica's [`Workspace`], taken out for the length of a call
/// and put back after it: a nested call on the same replica finds it
/// empty and allocates a fresh one instead of panicking. A clone starts
/// empty, so each replica (and each pool lane, which owns one) grows its
/// own.
#[derive(Default)]
struct WorkspaceCell(Cell<Workspace>);

impl Clone for WorkspaceCell {
    fn clone(&self) -> Self {
        WorkspaceCell::default()
    }
}

impl fmt::Debug for WorkspaceCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Workspace")
    }
}

/// A feed-forward stack of [`Layer`]s with a [`LossHead`].
///
/// Construction validates the full shape pipeline once, so any conv/dense
/// size mismatch fails fast rather than mid-training. When every layer
/// has a batched flat form, the model keeps a private workspace for it,
/// so [`Model::loss_and_grad_into`] and [`Model::evaluate_range`] on
/// same-shaped batches allocate nothing after the first call.
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
    workspace: WorkspaceCell,
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
            workspace: WorkspaceCell::default(),
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

    /// Head loss of one model output row, with its gradient w.r.t. the
    /// output written into `grad` (same length). The same bits as the
    /// `ops` loss and gradient pairs: [`ops::cross_entropy_into`] for the
    /// softmax head, `pred - target` and `0.5 ‖pred - target‖²` for the
    /// MSE heads.
    fn head_loss_grad_into(&self, output: &[f32], target: &Target, grad: &mut [f32]) -> f32 {
        match (self.head, target) {
            (LossHead::SoftmaxCrossEntropy, Target::Class(c)) => {
                return ops::cross_entropy_into(output, *c, grad);
            }
            (LossHead::MseOneHot, Target::Class(c)) => {
                assert!(*c < output.len(), "one-hot class out of range");
                for (j, (g, &p)) in grad.iter_mut().zip(output).enumerate() {
                    *g = p - if j == *c { 1.0 } else { 0.0 };
                }
            }
            (LossHead::Mse, Target::Regression(y)) => {
                assert_eq!(output.len(), y.len(), "mse length mismatch");
                for ((g, &p), &t) in grad.iter_mut().zip(output).zip(y.iter()) {
                    *g = p - t;
                }
            }
            (head, target) => {
                panic!("loss head {head:?} is incompatible with target {target:?}")
            }
        }
        // The MSE heads' rows now hold `pred - target`.
        0.5 * grad.iter().map(|&d| d * d).sum::<f32>()
    }

    /// Runs `f` on this replica's workspace, taken out of its cell for the
    /// call and put back after.
    fn with_workspace<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut ws = self.workspace.0.take();
        let out = f(&mut ws);
        self.workspace.0.set(ws);
        out
    }

    /// Stacks `n` samples (in iteration order) into `ws.acts[0]`, one
    /// sample per row.
    fn stack_features<I>(&self, ws: &mut Workspace, data: &Dataset, n: usize, indices: I)
    where
        I: Iterator<Item = usize>,
    {
        let d = self.input_shape.len();
        if ws.acts.is_empty() {
            ws.acts.push(Matrix::default());
        }
        let x = &mut ws.acts[0];
        x.reshape(n, d);
        let xs = x.as_mut_slice();
        for (s, i) in indices.enumerate() {
            let f = data.sample(i).features.as_slice();
            assert_eq!(f.len(), d, "feature length mismatch");
            xs[s * d..(s + 1) * d].copy_from_slice(f);
        }
    }

    /// Batched forward through the whole stack from the stacked input in
    /// `ws.acts[0]`, one row per sample: every layer but an identity one
    /// ([`Layer::flat_batch_is_identity`], which passes its input on
    /// uncopied) writes its output into the next matrix of `ws.acts`, and
    /// `ws.inputs` records, per layer, the index of its input. Returns the
    /// index of the model output. Each row is bitwise identical to the
    /// per-sample flat forward (the [`Layer::forward_flat_batch`]
    /// contract).
    fn forward_flat_batch(&self, ws: &mut Workspace, dims: &[usize]) -> usize {
        let n = ws.acts[0].rows();
        ws.inputs.clear();
        let mut last = 0;
        for (li, layer) in self.layers.iter().enumerate() {
            ws.inputs.push(last);
            if layer.flat_batch_is_identity() {
                continue;
            }
            if ws.acts.len() == last + 1 {
                ws.acts.push(Matrix::default());
            }
            let (below, above) = ws.acts.split_at_mut(last + 1);
            above[0].reshape(n, dims[li + 1]);
            layer.forward_flat_batch(&below[last], &mut above[0]);
            last += 1;
        }
        last
    }

    /// The batched flat path of [`Model::loss_and_grad_into`]: one GEMM per
    /// dense layer forward and two backward, with the head scored per
    /// sample in ascending order as the per-sample path does. Every
    /// parametrised layer overwrites its segment of `grad` with the
    /// already-scaled batch mean (the [`Layer::backward_flat_batch`]
    /// contract), so the gradient is the per-sample path's bit for bit
    /// without a zero fill or a scaling pass over `grad`.
    fn batched_loss_and_grad(
        &self,
        ws: &mut Workspace,
        dims: &[usize],
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
    ) -> f32 {
        let n = indices.len();
        self.stack_features(ws, data, n, indices.iter().copied());
        let out = self.forward_flat_batch(ws, dims);
        let od = self.output_dim;
        ws.g.reshape(n, od);
        let mut loss_sum = 0.0f32;
        let (outputs, g) = (ws.acts[out].as_slice(), ws.g.as_mut_slice());
        for (s, &i) in indices.iter().enumerate() {
            let rows = s * od..(s + 1) * od;
            loss_sum += self.head_loss_grad_into(
                &outputs[rows.clone()],
                &data.sample(i).target,
                &mut g[rows],
            );
        }
        let inv = 1.0 / n as f32;
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
                let seg = &mut grad[start..start + layer.param_len()];
                let input = &ws.acts[ws.inputs[li]];
                if li == lowest {
                    layer.backward_flat_batch(input, &ws.g, inv, seg, None, &mut ws.scratch);
                } else {
                    ws.g_in.reshape(n, dims[li]);
                    layer.backward_flat_batch(
                        input,
                        &ws.g,
                        inv,
                        seg,
                        Some(&mut ws.g_in),
                        &mut ws.scratch,
                    );
                    std::mem::swap(&mut ws.g, &mut ws.g_in);
                }
            }
        }
        loss_sum * inv
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
        }
        if let Some(dims) = &self.flat_dims {
            return self.with_workspace(|ws| {
                self.batched_loss_and_grad(ws, dims, data, indices, grad.as_mut_slice())
            });
        }
        // Per-sample path: every layer accumulates into its zeroed segment,
        // then the sum is scaled to the batch mean.
        grad.fill(0.0);
        let gslice = grad.as_mut_slice();
        let mut loss_sum = 0.0f32;
        for &i in indices {
            let sample = data.sample(i);
            let (output, caches) = self.forward_with_caches(&sample.features);
            let mut g_out = Vector::zeros(output.len());
            loss_sum +=
                self.head_loss_grad_into(output.as_slice(), &sample.target, g_out.as_mut_slice());
            let mut g = Signal::Flat(g_out);
            for (li, layer) in self.layers.iter().enumerate().rev() {
                let start = self.param_offsets[li];
                let end = start + layer.param_len();
                g = layer.backward(&caches[li], &g, &mut gslice[start..end]);
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
        let od = self.output_dim;
        self.with_workspace(|ws| {
            let mut sums = EvalSums::default();
            let mut start = range.start;
            while start < range.end {
                let end = (start + EVAL_GEMM_TILE).min(range.end);
                self.stack_features(ws, data, end - start, start..end);
                let out = self.forward_flat_batch(ws, dims);
                let outputs = ws.acts[out].as_slice();
                for (s, i) in (start..end).enumerate() {
                    score_sample(
                        &mut sums,
                        &outputs[s * od..(s + 1) * od],
                        &data.sample(i).target,
                    );
                }
                start = end;
            }
            sums
        })
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
            let Target::Class(c) = sample.target else {
                unreachable!("classification fixture")
            };
            let (loss, g_out) = (
                ops::cross_entropy_loss(output.as_slice(), c),
                ops::cross_entropy_grad(&output, c),
            );
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
