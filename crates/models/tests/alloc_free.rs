//! `Sequential`'s batched flat path allocates nothing in steady state:
//! after one warm-up call, `loss_and_grad_into` and `evaluate_range` on a
//! same-shaped batch make zero heap allocations, for logistic regression
//! and MLPs, on flat inputs and on images through `Flatten`, under all
//! three loss heads. And the workspace a replica keeps between calls
//! never leaks into a result: one replica reused across batch sizes gives
//! the bits of a fresh clone at every call.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the other tests of this binary, running on their own threads, do not
//! disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hieradmo_data::synthetic::SyntheticDataset;
use hieradmo_data::{Dataset, FeatureShape, Sample, Target};
use hieradmo_models::{zoo, Model, Sequential};
use hieradmo_tensor::Vector;
use rand::{Rng, SeedableRng};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// 300 flat samples of width 40 with 3-wide regression targets.
fn regression_data(seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = (0..300)
        .map(|_| Sample {
            features: (0..40).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            target: Target::Regression((0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect()),
        })
        .collect();
    Dataset::new(samples, FeatureShape::Flat(40), 0)
}

/// The models under test with their training data (300 samples each, so
/// an evaluation over all of them spans two 256-row tiles): every loss
/// head, logistic regression and MLPs, flat and image inputs.
fn cases() -> Vec<(&'static str, Sequential, Dataset)> {
    let mnist = SyntheticDataset::mnist_like(30, 1, 5).train;
    let har = SyntheticDataset::har_like(50, 1, 6).train;
    let reg = regression_data(7);
    vec![
        (
            "logistic regression, image (softmax)",
            zoo::logistic_regression(&mnist, 1),
            mnist.clone(),
        ),
        (
            "logistic regression, flat (softmax)",
            zoo::logistic_regression(&har, 2),
            har.clone(),
        ),
        (
            "mlp, image (softmax)",
            zoo::mlp(&mnist, 16, 3),
            mnist.clone(),
        ),
        ("mlp, flat (softmax)", zoo::mlp(&har, 8, 4), har),
        (
            "linear regression, image (one-hot MSE)",
            zoo::linear_regression(&mnist, 5),
            mnist,
        ),
        (
            "linear regression, flat (MSE)",
            zoo::linear_regression(&reg, 6),
            reg,
        ),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(n >= 1, "the counting allocator missed a Vec");
}

#[test]
fn batched_gradient_and_evaluation_allocate_nothing_after_warm_up() {
    for (label, model, data) in cases() {
        let batch: Vec<usize> = (0..16).map(|s| (s * 37 + 5) % data.len()).collect();
        let other: Vec<usize> = (0..16).map(|s| (s * 11 + 2) % data.len()).collect();
        let mut grad = Vector::zeros(model.dim());
        let full = 0..data.len();

        model.loss_and_grad_into(&data, &batch, &mut grad);
        model.evaluate_range(&data, full.clone());

        let grad_allocs = allocations_in(|| {
            model.loss_and_grad_into(&data, &other, &mut grad);
        });
        assert_eq!(grad_allocs, 0, "{label}: loss_and_grad_into allocated");
        let eval_allocs = allocations_in(|| {
            model.evaluate_range(&data, full.clone());
        });
        assert_eq!(eval_allocs, 0, "{label}: evaluate_range allocated");
        // The gradient call after an evaluation reuses the same buffers.
        let again = allocations_in(|| {
            model.loss_and_grad_into(&data, &batch, &mut grad);
        });
        assert_eq!(again, 0, "{label}: loss_and_grad_into after eval allocated");
    }
}

#[test]
fn a_reused_replica_is_bitwise_a_fresh_clone_across_batch_sizes() {
    for (label, model, data) in cases() {
        let replica = model.clone();
        let batches: [Vec<usize>; 3] = [
            (0..16).map(|s| (s * 37 + 5) % data.len()).collect(),
            (0..5).map(|s| (s * 13 + 1) % data.len()).collect(),
            (0..16).map(|s| (s * 29 + 3) % data.len()).collect(),
        ];
        let ranges = [0..data.len(), 7..12, 100..300];
        for (indices, range) in batches.iter().zip(ranges) {
            let fresh = model.clone();
            let mut want = Vector::zeros(model.dim());
            let want_loss = fresh.loss_and_grad_into(&data, indices, &mut want);
            let mut got = Vector::filled(model.dim(), 9.0);
            let got_loss = replica.loss_and_grad_into(&data, indices, &mut got);
            let n = indices.len();
            assert_eq!(
                got_loss.to_bits(),
                want_loss.to_bits(),
                "{label}, batch {n}: loss"
            );
            assert_eq!(
                bits(got.as_slice()),
                bits(want.as_slice()),
                "{label}, batch {n}: grad"
            );

            let want_eval = model.clone().evaluate_range(&data, range.clone());
            let got_eval = replica.evaluate_range(&data, range.clone());
            assert_eq!(
                got_eval.loss_sum.to_bits(),
                want_eval.loss_sum.to_bits(),
                "{label}, {range:?}: eval loss"
            );
            assert_eq!(got_eval.correct, want_eval.correct, "{label}: correct");
            assert_eq!(got_eval.count, want_eval.count, "{label}: count");
        }
    }
}
