//! The batched flat path of `Sequential` (stacked forward, batched
//! backward) against the per-sample `Layer::forward` / `Layer::backward`
//! composition it replaced: losses, gradients and evaluation sums must be
//! bitwise equal, for logistic/linear regression and MLPs, on image inputs
//! (through a leading `Flatten`) and on flat inputs.
//!
//! The inputs hold exact `0.0` and `-0.0` features, a hidden unit whose
//! weights and bias are zero (so its ReLU input is exactly `0.0` and its
//! gradient entries are skipped), and a stack that applies ReLU to raw
//! features, so the ReLU sees `-0.0` too.
//!
//! The binary runs on whichever kernel dispatch level the process selects;
//! CI runs it under `HIERADMO_KERNEL_DISPATCH=scalar` as well.

use hieradmo_data::{Dataset, FeatureShape, Sample, Target};
use hieradmo_models::layer::{Dense, Flatten, Layer, Relu, Signal};
use hieradmo_models::model::evaluate_range_serial;
use hieradmo_models::{LossHead, Model, Sequential};
use hieradmo_tensor::{init, ops, Matrix, Tensor4, Vector};
use rand::{Rng, SeedableRng};

const CLASSES: usize = 3;
const HIDDEN: usize = 7;

/// 11 samples of `shape` whose features are drawn from `[-1, 1)`, with
/// one feature in five replaced by `0.0` and one by `-0.0`.
fn dataset(shape: FeatureShape, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = (0..11)
        .map(|i| Sample {
            features: (0..shape.len())
                .map(|_| match rng.gen_range(0u32..5) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect(),
            target: Target::Class(i % CLASSES),
        })
        .collect();
    Dataset::new(samples, shape, CLASSES)
}

fn dense(rng: &mut rand::rngs::StdRng, fan_out: usize, fan_in: usize) -> Box<dyn Layer> {
    let bias: Vec<f32> = (0..fan_out).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
    Box::new(Dense::new(
        init::xavier_matrix(rng, fan_out, fan_in),
        Vector::from(bias),
    ))
}

/// A hidden dense layer whose first unit has zero weights and bias: its
/// pre-activation is exactly `0.0` for every sample.
fn dense_with_dead_unit(rng: &mut rand::rngs::StdRng, fan_in: usize) -> Box<dyn Layer> {
    let mut w = init::he_matrix(rng, HIDDEN, fan_in).as_slice().to_vec();
    w[..fan_in].fill(0.0);
    let mut b: Vec<f32> = (0..HIDDEN).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
    b[0] = 0.0;
    Box::new(Dense::new(
        Matrix::from_rows(HIDDEN, fan_in, w),
        Vector::from(b),
    ))
}

/// A labelled layer stack with the input shape and head it runs with.
type Stack = (&'static str, Vec<Box<dyn Layer>>, FeatureShape, LossHead);

/// The stacks under test.
fn stacks(seed: u64) -> Vec<Stack> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let image = FeatureShape::Image {
        channels: 1,
        height: 3,
        width: 5,
    };
    let (d_img, d_flat) = (image.len(), 13);
    let flat = FeatureShape::Flat(d_flat);
    vec![
        (
            "logistic regression, image",
            vec![Box::new(Flatten::new()), dense(&mut rng, CLASSES, d_img)],
            image,
            LossHead::SoftmaxCrossEntropy,
        ),
        (
            "linear regression (one-hot MSE), flat",
            vec![dense(&mut rng, CLASSES, d_flat)],
            flat,
            LossHead::MseOneHot,
        ),
        (
            "mlp, image",
            vec![
                Box::new(Flatten::new()),
                dense_with_dead_unit(&mut rng, d_img),
                Box::new(Relu::new()),
                dense(&mut rng, CLASSES, HIDDEN),
            ],
            image,
            LossHead::SoftmaxCrossEntropy,
        ),
        (
            "mlp, flat",
            vec![
                dense_with_dead_unit(&mut rng, d_flat),
                Box::new(Relu::new()),
                dense(&mut rng, CLASSES, HIDDEN),
            ],
            flat,
            LossHead::SoftmaxCrossEntropy,
        ),
        (
            "relu on raw features, then mlp, flat",
            vec![
                Box::new(Relu::new()),
                dense_with_dead_unit(&mut rng, d_flat),
                Box::new(Relu::new()),
                dense(&mut rng, CLASSES, HIDDEN),
            ],
            flat,
            LossHead::SoftmaxCrossEntropy,
        ),
    ]
}

/// The per-sample reference: for each sample in order, `Layer::forward`
/// through the stack, the head's loss and gradient, and `Layer::backward`
/// in reverse into each layer's gradient segment; then the batch mean.
fn per_sample_loss_and_grad(
    layers: &[Box<dyn Layer>],
    shape: FeatureShape,
    head: LossHead,
    data: &Dataset,
    indices: &[usize],
) -> (f32, Vec<f32>) {
    let lens: Vec<usize> = layers.iter().map(|l| l.param_len()).collect();
    let mut grad = vec![0.0f32; lens.iter().sum()];
    let mut loss_sum = 0.0f32;
    for &i in indices {
        let sample = data.sample(i);
        let mut sig = match shape {
            FeatureShape::Flat(_) => Signal::Flat(sample.features.clone()),
            FeatureShape::Image {
                channels,
                height,
                width,
            } => Signal::Image(Tensor4::from_flat_sample(
                &sample.features,
                channels,
                height,
                width,
            )),
        };
        let mut caches = Vec::new();
        for l in layers {
            let (next, cache) = l.forward(&sig);
            sig = next;
            caches.push(cache);
        }
        let out = sig.expect_flat();
        let Target::Class(c) = sample.target else {
            unreachable!("classification fixtures only")
        };
        let (loss, g_out) = match head {
            LossHead::SoftmaxCrossEntropy => (
                ops::cross_entropy_loss(out.as_slice(), c),
                ops::cross_entropy_grad(out, c),
            ),
            LossHead::MseOneHot => {
                let mut one_hot = Vector::zeros(out.len());
                one_hot[c] = 1.0;
                (
                    ops::mse_loss(out.as_slice(), one_hot.as_slice()),
                    ops::mse_grad(out, &one_hot),
                )
            }
            LossHead::Mse => unreachable!("classification fixtures only"),
        };
        loss_sum += loss;
        let mut g = Signal::Flat(g_out);
        let mut end = grad.len();
        for (li, l) in layers.iter().enumerate().rev() {
            let start = end - lens[li];
            g = l.backward(&caches[li], &g, &mut grad[start..end]);
            end = start;
        }
    }
    let inv = 1.0 / indices.len() as f32;
    for v in &mut grad {
        *v *= inv;
    }
    (loss_sum * inv, grad)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn batched_loss_and_grad_is_bitwise_equal_to_per_sample_composition() {
    for seed in [1u64, 2, 3] {
        for (label, layers, shape, head) in stacks(seed) {
            let data = dataset(shape, seed + 10);
            let reference: Vec<Box<dyn Layer>> = layers.clone();
            let model = Sequential::new(layers, shape, head);
            for indices in [
                vec![0usize],
                vec![3, 1, 4, 1, 5, 9, 2, 6],
                (0..11).collect(),
            ] {
                let (want_loss, want_grad) =
                    per_sample_loss_and_grad(&reference, shape, head, &data, &indices);
                let mut grad = Vector::filled(model.dim(), 5.0);
                let loss = model.loss_and_grad_into(&data, &indices, &mut grad);
                assert_eq!(
                    loss.to_bits(),
                    want_loss.to_bits(),
                    "{label}, seed {seed}, batch {indices:?}: loss"
                );
                assert_eq!(
                    bits(grad.as_slice()),
                    bits(&want_grad),
                    "{label}, seed {seed}, batch {indices:?}: gradient"
                );
            }
        }
    }
}

#[test]
fn batched_evaluation_is_bitwise_equal_to_per_sample_scoring() {
    for seed in [1u64, 2] {
        for (label, layers, shape, head) in stacks(seed) {
            let data = dataset(shape, seed + 20);
            let model = Sequential::new(layers, shape, head);
            for range in [0..data.len(), 3..7] {
                let batched = model.evaluate_range(&data, range.clone());
                let serial = evaluate_range_serial(&model, &data, range.clone());
                assert_eq!(
                    batched.loss_sum.to_bits(),
                    serial.loss_sum.to_bits(),
                    "{label}, seed {seed}, {range:?}: loss sum"
                );
                assert_eq!(batched.correct, serial.correct, "{label}: correct");
                assert_eq!(batched.count, serial.count, "{label}: count");
            }
        }
    }
}
