//! **Kernel benchmark harness**: old-vs-new compute kernels across the
//! shapes the training hot path actually runs, plus one end-to-end
//! `core::run` timing. Writes `BENCH_kernels.json` — the start of the
//! repo's recorded perf trajectory.
//!
//! ```text
//! cargo run -p hieradmo-bench --release --bin kernel_bench -- \
//!     [--smoke] [--out BENCH_kernels.json] [--reps 7]
//! ```
//!
//! The "old" kernels are the pre-kernel-layer scalar implementations —
//! single-accumulator serial FMA chains — reimplemented here verbatim so
//! the comparison survives the originals being deleted from the library.
//! The "new" kernels are whatever `hieradmo_tensor::kernels` currently
//! ships, so this binary keeps measuring honest speedups as the kernel
//! layer evolves.
//!
//! `--smoke` runs every kernel pair once at tiny shapes, asserts all
//! outputs are finite and within tolerance of the scalar baseline, and
//! emits the same JSON schema — CI runs this so the bench cannot rot. When
//! a committed baseline report exists (`--baseline`, default
//! `BENCH_kernels.json`), smoke mode additionally re-times the tracked
//! full-size shapes and fails if any kernel's speedup regressed more than
//! 10% against the committed number.
//!
//! Every speedup is the median of per-pair ratios over interleaved
//! old/new calls (`time_pair`), so host load that comes and goes during a
//! run weighs on both sides of a ratio alike.
//!
//! Full runs append a dated one-line summary to
//! `results/bench_history.jsonl`, so the perf trajectory is recorded
//! across PRs, with the runtime-dispatched CPU-feature level
//! (`kernels::dispatch_level()`) alongside every entry. The report records
//! the machine's `nproc` and that dispatch level.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hieradmo_bench::cli::Cli;
use hieradmo_core::algorithms::HierAdMo;
use hieradmo_core::{run, RunConfig, RunSpec};
use hieradmo_data::partition::x_class_partition;
use hieradmo_data::synthetic::SyntheticDataset;
use hieradmo_data::{Dataset, Target};
use hieradmo_models::layer::{Dense, Layer, Relu, Signal};
use hieradmo_models::{zoo, Model, Sequential};
use hieradmo_tensor::{conv, kernels, ops, Matrix, Tensor4, Vector};
use hieradmo_topology::Hierarchy;
use serde::Serialize;

// ---------------------------------------------------------------------------
// Old (pre-kernel-layer) scalar baselines
// ---------------------------------------------------------------------------

/// Old `Vector::dot`: one serial accumulator.
fn old_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Old `Vector::axpy`: scalar element loop.
fn old_axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (a, b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

/// Old blocked `matmul_transposed_into`: 32×32 cache blocking with a
/// single `f32` accumulator per output element.
fn old_matmul_bt(a: &[f32], bt: &[f32], out: &mut [f32], n: usize, m: usize, k: usize) {
    const BLOCK: usize = 32;
    for r0 in (0..n).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(n);
        for c0 in (0..m).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(m);
            for r in r0..r1 {
                let arow = &a[r * k..(r + 1) * k];
                for c in c0..c1 {
                    let brow = &bt[c * k..(c + 1) * k];
                    let mut acc = 0.0f32;
                    for (x, y) in arow.iter().zip(brow) {
                        acc += x * y;
                    }
                    out[r * m + c] = acc;
                }
            }
        }
    }
}

/// The three-pass scaled product `matmul_scaled` replaced: zero-fill
/// `out` (`p × k`), one zero-skipping [`kernels::axpy`] per coefficient of
/// `c` (`p × q`) into its row, then [`kernels::scal`] by `scale`.
fn three_pass_scaled(
    out: &mut [f32],
    c: &[f32],
    b: &[f32],
    p: usize,
    q: usize,
    k: usize,
    scale: f32,
) {
    out.fill(0.0);
    for i in 0..p {
        for j in 0..q {
            let cij = c[i * q + j];
            if cij == 0.0 {
                continue;
            }
            kernels::axpy(&mut out[i * k..(i + 1) * k], cij, &b[j * k..(j + 1) * k]);
        }
    }
    kernels::scal(out, scale);
}

/// The per-sample composition that `Sequential`'s batched path replaced:
/// for each sample in turn, a `matvec` forward per dense layer, then the
/// softmax head and a backward pass of one `axpy` per nonzero gradient row
/// plus a `matvec_transposed` per dense layer, the first one included.
/// Built from the same dense/ReLU stack as a zoo model, with its
/// parameters, so both must produce the same bits.
struct PerSampleModel {
    layers: Vec<Box<dyn Layer>>,
    dim: usize,
}

impl PerSampleModel {
    /// Dense layers of the given widths (`[in, hidden.., out]`) with a
    /// ReLU between each pair, loaded with `params`.
    fn new(widths: &[usize], params: &Vector) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for (i, w) in widths.windows(2).enumerate() {
            if i > 0 {
                layers.push(Box::new(Relu::new()));
            }
            layers.push(Box::new(Dense::new(
                Matrix::zeros(w[1], w[0]),
                Vector::zeros(w[1]),
            )));
        }
        let mut off = 0;
        for l in &mut layers {
            off += l.read_params(&params.as_slice()[off..]);
        }
        assert_eq!(off, params.len(), "per-sample model width mismatch");
        PerSampleModel { layers, dim: off }
    }

    fn loss_and_grad(&self, data: &Dataset, indices: &[usize], grad: &mut [f32]) -> f32 {
        grad.fill(0.0);
        let mut loss_sum = 0.0f32;
        for &i in indices {
            let sample = data.sample(i);
            let mut sig = Signal::Flat(sample.features.clone());
            let mut caches = Vec::with_capacity(self.layers.len());
            for l in &self.layers {
                let (next, cache) = l.forward(&sig);
                sig = next;
                caches.push(cache);
            }
            let Target::Class(c) = sample.target else {
                panic!("classification data expected");
            };
            let out = sig.expect_flat();
            loss_sum += ops::cross_entropy_loss(out.as_slice(), c);
            let mut g = Signal::Flat(ops::cross_entropy_grad(out, c));
            let mut end = self.dim;
            for (l, cache) in self.layers.iter().zip(&caches).rev() {
                let start = end - l.param_len();
                g = l.backward(cache, &g, &mut grad[start..end]);
                end = start;
            }
        }
        let inv = 1.0 / indices.len() as f32;
        kernels::scal(grad, inv);
        loss_sum * inv
    }
}

/// Old `conv2d_forward`: the loop-nest with a scalar inner row update.
fn old_conv2d_forward(input: &Tensor4, weight: &Tensor4, bias: &[f32], pad: usize) -> Tensor4 {
    let (n, c_in, h, w) = input.shape();
    let (c_out, _, kh, kw) = weight.shape();
    let oh = h + 2 * pad - kh + 1;
    let ow = w + 2 * pad - kw + 1;
    let mut out = Tensor4::zeros(n, c_out, oh, ow);
    for b in 0..n {
        for (oc, &bias_v) in bias.iter().enumerate() {
            out.plane_mut(b, oc).iter_mut().for_each(|v| *v = bias_v);
            for ic in 0..c_in {
                let in_plane = input.plane(b, ic).to_vec();
                let w_plane = weight.plane(oc, ic).to_vec();
                let out_plane = out.plane_mut(b, oc);
                for ky in 0..kh {
                    for oy in 0..oh {
                        let iy = oy + ky;
                        if iy < pad || iy - pad >= h {
                            continue;
                        }
                        let in_row = &in_plane[(iy - pad) * w..(iy - pad) * w + w];
                        let out_row = &mut out_plane[oy * ow..oy * ow + ow];
                        for kx in 0..kw {
                            let wv = w_plane[ky * kw + kx];
                            let ox_start = pad.saturating_sub(kx);
                            let ox_end = (w + pad).saturating_sub(kx).min(ow);
                            if ox_start >= ox_end {
                                continue;
                            }
                            let ix_start = ox_start + kx - pad;
                            let len = ox_end - ox_start;
                            for (o, &i) in out_row[ox_start..ox_end]
                                .iter_mut()
                                .zip(&in_row[ix_start..ix_start + len])
                            {
                                *o += wv * i;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Old `Vector::weighted_average`: scalar f64 accumulation.
fn old_weighted_average(items: &[(f64, &Vector)]) -> Vector {
    let mut acc = vec![0.0f64; items[0].1.len()];
    let mut total = 0.0f64;
    for (w, v) in items {
        for (a, &b) in acc.iter_mut().zip(v.as_slice()) {
            *a += w * f64::from(b);
        }
        total += w;
    }
    acc.into_iter().map(|a| (a / total) as f32).collect()
}

/// Old aggregation + momentum composition (Algorithm 2 lines 12–13 before
/// fusion): finalize the mean from the f64 accumulator, then
/// clone / subtract / axpy for the look-ahead update — three extra passes
/// and two temporaries per aggregation.
fn old_finalize_momentum(
    acc: &[f64],
    total: f64,
    gamma: f32,
    y_old: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let mean: Vec<f32> = acc.iter().map(|&a| (a / total) as f32).collect();
    let mut delta = mean.clone();
    kernels::axpy(&mut delta, -1.0, y_old);
    let mut looked = mean.clone();
    kernels::axpy(&mut looked, gamma, &delta);
    (mean, looked)
}

/// The worker NAG step before fusion, under HierAdMo's Eq. 6 selection
/// (`Σ∇F`, `Σy`): seven `Vector` passes — `+=` twice, `copy_from`,
/// `axpy`, a buffer swap, `sub_from`, `copy_from`, `axpy`. `s` holds
/// `[x, y, v, grad_accum, y_accum]`.
fn old_nag_step(s: &mut [Vector; 5], g: &Vector, eta: f32, gamma: f32) {
    let [x, y, v, grad_accum, y_accum] = s;
    *grad_accum += g;
    *y_accum += &*y;
    v.copy_from(x);
    v.axpy(-eta, g);
    std::mem::swap(y, v);
    v.sub_from(y);
    x.copy_from(y);
    x.axpy(gamma, v);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// The least wall time one side of a [`time_pair`] pair runs for.
/// Longer than the warm-up of the wide SIMD units after a stretch of
/// scalar code (tens of microseconds), so a kernel timed right after its
/// scalar baseline still reaches its steady speed within the block.
const BLOCK: Duration = Duration::from_millis(5);

/// The fastest of back-to-back calls of `f` over at least [`BLOCK`] and
/// at least three calls, in nanoseconds.
fn block_ns<F: FnMut()>(f: &mut F) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut calls = 0;
    while calls < 3 || start.elapsed() < BLOCK {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
        calls += 1;
    }
    best
}

/// Times `old` against `new` in `reps` interleaved pairs: each pair
/// times a block of calls of `old` and then one of `new`, each block
/// reduced to its fastest call ([`block_ns`]). Returns each side's
/// fastest call overall, in nanoseconds, and the median of the per-pair
/// ratios `old / new` as the speedup. Load on a shared host comes and
/// goes on a longer scale than one pair, so both halves of a pair run
/// under about the same load, and the median discards the pairs a burst
/// hit on one side only; two minima taken in separate runs each see
/// whatever load their own run saw.
fn time_pair<A: FnMut(), B: FnMut()>(reps: usize, mut old: A, mut new: B) -> (f64, f64, f64) {
    let (mut old_min, mut new_min) = (f64::INFINITY, f64::INFINITY);
    let mut ratios: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (o, n) = (block_ns(&mut old), block_ns(&mut new));
            old_min = old_min.min(o);
            new_min = new_min.min(n);
            o / n.max(1.0)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    (old_min, new_min, median)
}

#[derive(Serialize)]
struct KernelRow {
    name: String,
    shape: String,
    baseline_ns: f64,
    kernel_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EndToEnd {
    scenario: String,
    total_iters: usize,
    wall_s: f64,
    final_accuracy: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    mode: &'static str,
    target: String,
    /// Logical CPUs available to the process.
    nproc: usize,
    /// CPU-feature level the kernel layer dispatched to at startup
    /// (`"avx2"` or `"scalar"`) — numbers are only comparable between
    /// reports with the same dispatch level.
    dispatch: &'static str,
    kernels: Vec<KernelRow>,
    /// Report-only bandwidth rows ([`bench_nag_bandwidth`]), outside the
    /// smoke gate.
    bandwidth: Vec<BandwidthRow>,
    end_to_end: Option<EndToEnd>,
    peak_rss_bytes: Option<u64>,
}

fn seq(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * scale).sin()).collect()
}

fn assert_close(name: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.is_finite(), "{name}: non-finite output at {i}: {g}");
        assert!(
            (g - w).abs() <= 1e-3 * (1.0 + w.abs()),
            "{name}: kernel diverged from baseline at {i}: {g} vs {w}"
        );
    }
}

fn bench_matmul(rows: &mut Vec<KernelRow>, reps: usize, n: usize, m: usize, k: usize) {
    let a = seq(n * k, 0.013);
    let bt = seq(m * k, 0.029);
    let mut out_old = vec![0.0f32; n * m];
    let mut out_new = vec![0.0f32; n * m];
    old_matmul_bt(&a, &bt, &mut out_old, n, m, k);
    kernels::matmul_bt(&a, &bt, &mut out_new, n, m, k);
    assert_close("matmul", &out_new, &out_old);
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || old_matmul_bt(black_box(&a), black_box(&bt), &mut out_old, n, m, k),
        || kernels::matmul_bt(black_box(&a), black_box(&bt), &mut out_new, n, m, k),
    );
    rows.push(KernelRow {
        name: "matmul_bt".into(),
        shape: format!("{n}x{k}·{k}x{m}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// The batched dense weight gradient `grad_W = Gᵀ·X / n` over an
/// `n`-sample batch into an `m × k` weight, against the three-pass
/// composition it replaced ([`three_pass_scaled`]); the two must agree
/// bitwise. One upstream-gradient entry in seven is zero, as behind a
/// ReLU mask.
fn bench_matmul_scaled(rows: &mut Vec<KernelRow>, reps: usize, n: usize, m: usize, k: usize) {
    let x = seq(n * k, 0.013);
    let gt: Vec<f32> = seq(m * n, 0.029)
        .into_iter()
        .enumerate()
        .map(|(i, v)| if i % 7 == 0 { 0.0 } else { v })
        .collect();
    let scale = 1.0 / n as f32;
    let mut w_old = vec![0.0f32; m * k];
    let mut w_new = vec![0.0f32; m * k];
    three_pass_scaled(&mut w_old, &gt, &x, m, n, k, scale);
    kernels::matmul_scaled(&mut w_new, &gt, &x, m, n, k, scale);
    assert!(
        w_old
            .iter()
            .zip(&w_new)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "matmul_scaled: not bitwise equal to the three-pass composition"
    );
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            three_pass_scaled(
                black_box(&mut w_old),
                black_box(&gt),
                black_box(&x),
                m,
                n,
                k,
                scale,
            )
        },
        || {
            kernels::matmul_scaled(
                black_box(&mut w_new),
                black_box(&gt),
                black_box(&x),
                m,
                n,
                k,
                scale,
            )
        },
    );
    rows.push(KernelRow {
        name: "matmul_scaled".into(),
        shape: format!("{m}x{n}·{n}x{k}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// One mini-batch `loss_and_grad_into` of a zoo model on the benchmark's
/// data and batch size, against the per-sample composition it replaced
/// ([`PerSampleModel`]); the two must agree bitwise.
fn bench_loss_and_grad(
    rows: &mut Vec<KernelRow>,
    reps: usize,
    label: &str,
    model: &Sequential,
    widths: &[usize],
    data: &Dataset,
    batch: usize,
) {
    let indices: Vec<usize> = (0..batch).map(|i| i * 7 % data.len()).collect();
    let params = model.params();
    let per_sample = PerSampleModel::new(widths, &params);
    let mut g_old = vec![0.0f32; per_sample.dim];
    let mut g_new = Vector::zeros(model.dim());
    let loss_old = per_sample.loss_and_grad(data, &indices, &mut g_old);
    let loss_new = model.loss_and_grad_into(data, &indices, &mut g_new);
    assert_eq!(
        loss_old.to_bits(),
        loss_new.to_bits(),
        "{label}: batched loss differs from the per-sample composition"
    );
    assert!(
        g_old
            .iter()
            .zip(g_new.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{label}: batched gradient differs from the per-sample composition"
    );
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            black_box(per_sample.loss_and_grad(black_box(data), &indices, &mut g_old));
        },
        || {
            black_box(model.loss_and_grad_into(black_box(data), &indices, &mut g_new));
        },
    );
    rows.push(KernelRow {
        name: "loss_and_grad_into".into(),
        shape: format!("{label} batch {batch}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// One [`bench_loss_and_grad`] row per benchmark model: `mlp-tick`'s
/// MLP(64) and `sampled-1m`'s logistic regression on MNIST-like images
/// (through their `Flatten` prelude), and `chaos-churn`'s MLP(32) on
/// HAR-like flat features.
fn bench_models(rows: &mut Vec<KernelRow>, reps: usize) {
    let mnist = SyntheticDataset::mnist_like(16, 1, 1).train;
    let har = SyntheticDataset::har_like(16, 1, 1).train;
    let cases = [
        (
            "mlp64 mnist",
            zoo::mlp(&mnist, 64, 101),
            vec![784, 64, 10],
            &mnist,
            16,
        ),
        (
            "logistic mnist",
            zoo::logistic_regression(&mnist, 101),
            vec![784, 10],
            &mnist,
            16,
        ),
        (
            "mlp32 har",
            zoo::mlp(&har, 32, 101),
            vec![561, 32, 6],
            &har,
            8,
        ),
    ];
    for (label, model, widths, data, batch) in &cases {
        bench_loss_and_grad(rows, reps, label, model, widths, data, *batch);
    }
}

fn bench_dot(rows: &mut Vec<KernelRow>, reps: usize, len: usize) {
    let a = seq(len, 0.017);
    let b = seq(len, 0.031);
    let want = old_dot(&a, &b);
    let got = kernels::dot(&a, &b);
    assert_close("dot", &[got], &[want]);
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            black_box(old_dot(black_box(&a), black_box(&b)));
        },
        || {
            black_box(kernels::dot(black_box(&a), black_box(&b)));
        },
    );
    rows.push(KernelRow {
        name: "dot".into(),
        shape: format!("{len}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

fn bench_axpy(rows: &mut Vec<KernelRow>, reps: usize, len: usize) {
    let x = seq(len, 0.019);
    let mut y_old = seq(len, 0.023);
    let mut y_new = y_old.clone();
    old_axpy(&mut y_old, 0.5, &x);
    kernels::axpy(&mut y_new, 0.5, &x);
    assert_close("axpy", &y_new, &y_old);
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || old_axpy(black_box(&mut y_old), 0.5, black_box(&x)),
        || kernels::axpy(black_box(&mut y_new), 0.5, black_box(&x)),
    );
    rows.push(KernelRow {
        name: "axpy".into(),
        shape: format!("{len}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

fn bench_weighted_average(rows: &mut Vec<KernelRow>, reps: usize, workers: usize, dim: usize) {
    let vs: Vec<Vector> = (0..workers)
        .map(|i| Vector::from(seq(dim, 0.011 + i as f32 * 0.002)))
        .collect();
    let items: Vec<(f64, &Vector)> = vs
        .iter()
        .enumerate()
        .map(|(i, v)| (1.0 + i as f64, v))
        .collect();
    let want = old_weighted_average(&items);
    let got = Vector::weighted_average(items.iter().copied());
    assert_close("weighted_average", got.as_slice(), want.as_slice());
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            black_box(old_weighted_average(black_box(&items)));
        },
        || {
            black_box(Vector::weighted_average(black_box(&items).iter().copied()));
        },
    );
    rows.push(KernelRow {
        name: "weighted_average".into(),
        shape: format!("{workers}x{dim}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// K-way batched accumulation vs the previous production path (K
/// sequential `weighted_accumulate` passes over the accumulator).
fn bench_weighted_sum_batch(rows: &mut Vec<KernelRow>, reps: usize, workers: usize, dim: usize) {
    let vs: Vec<Vec<f32>> = (0..workers)
        .map(|i| seq(dim, 0.011 + i as f32 * 0.002))
        .collect();
    let weights: Vec<f64> = (0..workers).map(|i| 1.0 + i as f64).collect();
    let views: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
    let mut acc_old = vec![0.0f64; dim];
    let mut acc_new = vec![0.0f64; dim];
    for (w, v) in weights.iter().zip(&views) {
        kernels::weighted_accumulate(&mut acc_old, *w, v);
    }
    kernels::weighted_sum_batch(&mut acc_new, &weights, &views);
    let old32: Vec<f32> = acc_old.iter().map(|&a| a as f32).collect();
    let new32: Vec<f32> = acc_new.iter().map(|&a| a as f32).collect();
    assert_close("weighted_sum_batch", &new32, &old32);
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            acc_old.fill(0.0);
            for (w, v) in weights.iter().zip(&views) {
                kernels::weighted_accumulate(black_box(&mut acc_old), *w, black_box(v));
            }
        },
        || {
            acc_new.fill(0.0);
            kernels::weighted_sum_batch(
                black_box(&mut acc_new),
                black_box(&weights),
                black_box(&views),
            );
        },
    );
    rows.push(KernelRow {
        name: "weighted_sum_batch".into(),
        shape: format!("{workers}x{dim}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// Fused mean-finalize + momentum look-ahead vs the unfused
/// clone/sub/axpy composition it replaced.
fn bench_fused_momentum(rows: &mut Vec<KernelRow>, reps: usize, dim: usize) {
    let acc: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.003).cos() * 5.0).collect();
    let total = 3.5f64;
    let gamma = 0.625f32;
    let y_old = seq(dim, 0.021);
    let (want_mean, want_looked) = old_finalize_momentum(&acc, total, gamma, &y_old);
    let mut mean = vec![0.0f32; dim];
    let mut looked = vec![0.0f32; dim];
    kernels::fused_aggregate_momentum(&acc, total, gamma, &y_old, &mut mean, &mut looked);
    assert_close("fused_aggregate_momentum mean", &mean, &want_mean);
    assert_close("fused_aggregate_momentum looked", &looked, &want_looked);
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            black_box(old_finalize_momentum(
                black_box(&acc),
                total,
                gamma,
                black_box(&y_old),
            ));
        },
        || {
            kernels::fused_aggregate_momentum(
                black_box(&acc),
                total,
                gamma,
                black_box(&y_old),
                &mut mean,
                &mut looked,
            );
        },
    );
    rows.push(KernelRow {
        name: "fused_aggregate_momentum".into(),
        shape: format!("{dim}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// Worker states one `nag_step` row steps through per timed pass: the
/// benchmark workloads' 32 workers, whose states together outgrow L2, so
/// each step streams its vectors in as it does in a run.
const NAG_WORKERS: usize = 32;

/// The fused worker NAG step vs the seven-pass composition it replaced,
/// both under HierAdMo's Eq. 6 selection (`Σ∇F`, `Σy`), checked bitwise
/// equal on one step first; times are per worker step.
fn bench_nag_step(rows: &mut Vec<KernelRow>, reps: usize, dim: usize) {
    let g = Vector::from(seq(dim, 0.013));
    let init = |scale: f32| Vector::from(seq(dim, scale));
    let state = [0.017, 0.019, 0.023, 0.029, 0.031].map(init);
    let (eta, gamma) = (0.01f32, 0.5f32);
    let mut old = vec![state.clone(); NAG_WORKERS];
    let mut new = old.clone();
    old_nag_step(&mut old[0], &g, eta, gamma);
    nag_step_adaptive(&mut new[0], &g, eta, gamma);
    for (o, n) in old[0].iter().zip(&new[0]) {
        assert_close("nag_step", n.as_slice(), o.as_slice());
        assert!(
            o.iter()
                .zip(n.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "nag_step: fused step is not bitwise equal to the seven-pass composition"
        );
    }
    let per_step = NAG_WORKERS as f64;
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            for s in &mut old {
                old_nag_step(black_box(s), &g, eta, gamma);
            }
        },
        || {
            for s in &mut new {
                nag_step_adaptive(black_box(s), &g, eta, gamma);
            }
        },
    );
    let (baseline_ns, kernel_ns) = (baseline_ns / per_step, kernel_ns / per_step);
    rows.push(KernelRow {
        name: "nag_step".into(),
        shape: format!("{dim}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

/// Report-only memory-bandwidth row: how many bytes per second a kernel
/// moves, next to a plain `copy` over the same footprint. No speedup and
/// no smoke floor; it says whether a kernel already runs at the host's
/// streaming bandwidth.
#[derive(Serialize)]
struct BandwidthRow {
    name: String,
    width: usize,
    /// Bytes read plus bytes written per worker step.
    bytes_per_step: usize,
    ns_per_step: f64,
    gib_per_s: f64,
}

/// One [`kernels::nag_step`] on `s = [x, y, v, grad_accum, y_accum]`
/// under HierAdMo's Eq. 6 selection, the one every benchmark workload
/// runs.
fn nag_step_adaptive(s: &mut [Vector; 5], g: &Vector, eta: f32, gamma: f32) {
    let [x, y, v, grad_accum, y_accum] = s;
    kernels::nag_step(
        x.as_mut_slice(),
        y.as_mut_slice(),
        v.as_mut_slice(),
        kernels::NagSums::GradY(grad_accum.as_mut_slice(), y_accum.as_mut_slice()),
        g.as_slice(),
        eta,
        gamma,
    );
}

/// `nag_step_adaptive` bytes/s against a `copy` over the same buffers:
/// the [`NAG_WORKERS`] five-vector worker states at width `dim`. The
/// step reads five vectors (`x`, `y`, `g`, `Σ∇F`, `Σy`) and writes five
/// (`x`, `y`, `v`, `Σ∇F`, `Σy`). The `copy` row copies two of each
/// worker's vectors onto two others. Each figure is the fastest of
/// `reps` blocks ([`block_ns`]).
fn bench_nag_bandwidth(rows: &mut Vec<BandwidthRow>, reps: usize, dim: usize) {
    const F32: usize = std::mem::size_of::<f32>();
    let g = Vector::from(seq(dim, 0.013));
    let state = [0.017, 0.019, 0.023, 0.029, 0.031].map(|s| Vector::from(seq(dim, s)));
    let mut workers = vec![state; NAG_WORKERS];
    let mut timed = |name: &str, streams: usize, f: &mut dyn FnMut(&mut [Vector; 5])| {
        let mut step = || {
            for s in workers.iter_mut() {
                f(black_box(s));
            }
        };
        let ns = (0..reps.max(1))
            .map(|_| block_ns(&mut step))
            .fold(f64::INFINITY, f64::min)
            / NAG_WORKERS as f64;
        let bytes = streams * dim * F32;
        rows.push(BandwidthRow {
            name: name.into(),
            width: dim,
            bytes_per_step: bytes,
            ns_per_step: ns,
            gib_per_s: bytes as f64 / ns * 1e9 / (1u64 << 30) as f64,
        });
    };
    timed("nag_step_adaptive", 10, &mut |s| {
        nag_step_adaptive(s, &g, 0.01, 0.5)
    });
    timed("copy", 4, &mut |s| {
        let [x, y, v, grad_accum, _] = s;
        y.copy_from(x);
        grad_accum.copy_from(v);
    });
}

fn bench_conv(
    rows: &mut Vec<KernelRow>,
    reps: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    k: usize,
    pad: usize,
) {
    let input = Tensor4::from_data(1, c_in, hw, hw, seq(c_in * hw * hw, 0.01));
    let weight = Tensor4::from_data(c_out, c_in, k, k, seq(c_out * c_in * k * k, 0.07));
    let bias = seq(c_out, 0.5);
    let want = old_conv2d_forward(&input, &weight, &bias, pad);
    let mut scratch = conv::Im2colScratch::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    conv::conv2d_forward_into(&input, &weight, &bias, pad, &mut scratch, &mut out);
    assert_close("conv2d", out.as_slice(), want.as_slice());
    let (baseline_ns, kernel_ns, speedup) = time_pair(
        reps,
        || {
            black_box(old_conv2d_forward(
                black_box(&input),
                black_box(&weight),
                &bias,
                pad,
            ));
        },
        || {
            conv::conv2d_forward_into(
                black_box(&input),
                black_box(&weight),
                &bias,
                pad,
                &mut scratch,
                &mut out,
            );
        },
    );
    rows.push(KernelRow {
        name: "conv2d_forward".into(),
        shape: format!("{c_in}->{c_out} {hw}x{hw} k{k} p{pad}"),
        baseline_ns,
        kernel_ns,
        speedup,
    });
}

fn end_to_end(total_iters: usize) -> EndToEnd {
    let tt = SyntheticDataset::mnist_like(60, 10, 17);
    let shards = x_class_partition(&tt.train, 4, 2, 17);
    let model = zoo::logistic_regression(&tt.train, 7);
    let cfg = RunConfig {
        eta: 0.05,
        tau: 5,
        pi: 2,
        total_iters,
        batch_size: 16,
        eval_every: total_iters,
        threads: Some(1),
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let t = Instant::now();
    let res = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&Hierarchy::balanced(2, 2), &shards),
        &tt.test,
        &cfg,
    )
    .expect("end-to-end run should succeed");
    let wall_s = t.elapsed().as_secs_f64();
    let final_accuracy = res.curve.final_accuracy().unwrap_or(0.0);
    EndToEnd {
        scenario: "hieradmo-adaptive logistic mnist-like N=4 L=2 τ=5 π=2".into(),
        total_iters,
        wall_s,
        final_accuracy,
    }
}

/// The tracked full-size shapes: every production hot-path kernel at the
/// widths the training loop actually runs. Full mode times these for the
/// committed report; smoke mode re-times them (fewer reps) to enforce the
/// speedup floor against that report.
fn full_kernel_shapes(rows: &mut Vec<KernelRow>, reps: usize) {
    // MLP layer shapes (Algorithm 1's dense path; 256×784·784×128 is
    // the acceptance shape), a conv-as-im2col shape, and small blocks.
    bench_matmul(rows, reps, 256, 128, 784);
    bench_matmul(rows, reps, 32, 196, 288);
    bench_matmul(rows, reps, 128, 64, 128);
    // The benchmark workloads' dense layers: one mini-batch forward of
    // logistic regression and MLP(64) on MNIST-like images (batch 16),
    // and MLP(32) on HAR-like features (batch 8)…
    bench_matmul(rows, reps, 16, 10, 784);
    bench_matmul(rows, reps, 16, 64, 784);
    bench_matmul(rows, reps, 8, 32, 561);
    // …their batched weight gradients…
    bench_matmul_scaled(rows, reps, 16, 10, 784);
    bench_matmul_scaled(rows, reps, 16, 64, 784);
    bench_matmul_scaled(rows, reps, 8, 32, 561);
    // …and whole mini-batch gradients of each model.
    bench_models(rows, reps);
    // Aggregation-width vectors: logistic-MNIST (7850) and MLP (~100k).
    bench_dot(rows, reps, 7850);
    bench_dot(rows, reps, 101_770);
    bench_axpy(rows, reps, 7850);
    bench_axpy(rows, reps, 101_770);
    // A production fan-in (16 workers × logistic-MNIST width), not the
    // old 4-input toy.
    bench_weighted_average(rows, reps, 16, 7850);
    // Batched K-way aggregation at edge fan-in (16×7850), cloud-scale MLP
    // fan-in (64×101770), and virtual-population fan-in (2048×7850).
    bench_weighted_sum_batch(rows, reps, 16, 7850);
    bench_weighted_sum_batch(rows, reps, 64, 101_770);
    bench_weighted_sum_batch(rows, reps, 2048, 7850);
    // Fused aggregation + momentum at both aggregation widths.
    bench_fused_momentum(rows, reps, 7850);
    bench_fused_momentum(rows, reps, 101_770);
    // The worker NAG step at the benchmark workloads' model widths:
    // logistic-MNIST (7850), MLP(32) on HAR-like (18 182) and MLP(64) on
    // MNIST-like (50 890).
    bench_nag_step(rows, reps, 7850);
    bench_nag_step(rows, reps, 18_182);
    bench_nag_step(rows, reps, 50_890);
    // CNN zoo layers: MNIST first conv and a mid-network conv.
    bench_conv(rows, reps, 1, 8, 28, 5, 2);
    bench_conv(rows, reps, 8, 16, 14, 3, 1);
}

/// Parses the committed full-mode report into `(name, shape) → speedup`.
/// Returns `None` (gate skipped) when the file is missing or malformed —
/// a fresh checkout without a committed baseline must not fail smoke.
fn baseline_speedups(path: &str) -> Option<Vec<(String, String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let value: serde_json::Value = serde_json::from_str(&text).ok()?;
    let obj = value.as_object()?;
    if obj.get("mode").and_then(|m| m.as_str()) != Some("full") {
        return None;
    }
    let kernels = match obj.get("kernels")? {
        serde_json::Value::Array(rows) => rows,
        _ => return None,
    };
    let mut out = Vec::with_capacity(kernels.len());
    for row in kernels {
        let row = row.as_object()?;
        out.push((
            row.get("name")?.as_str()?.to_string(),
            row.get("shape")?.as_str()?.to_string(),
            row.get("speedup")?.as_number()?.as_f64(),
        ));
    }
    Some(out)
}

/// Shapes whose best observed speedup is >10% below the committed one.
fn speedup_violations<'a>(
    best: &[KernelRow],
    baseline: &'a [(String, String, f64)],
) -> Vec<(&'a str, &'a str, f64, f64)> {
    let mut out = Vec::new();
    for (name, shape, committed) in baseline {
        // Retired shapes just drop out of the gate; the committed report
        // is regenerated on the next full run.
        if let Some(row) = best.iter().find(|r| &r.name == name && &r.shape == shape) {
            if row.speedup < 0.9 * committed {
                out.push((name.as_str(), shape.as_str(), row.speedup, *committed));
            }
        }
    }
    out
}

/// Fails the smoke run if any tracked kernel's speedup fell more than 10%
/// below the committed baseline's (matched by name and shape).
///
/// Timing on a shared box is noisy in both the numerator and the
/// denominator of a speedup. Each speedup is therefore the median ratio
/// of `pairs` interleaved old/new pairs ([`time_pair`]), and the gate
/// keeps the best per-shape speedup across up to three measurement passes
/// and only fails a kernel that stays below the floor in all of them — a
/// real regression is persistent, a scheduling hiccup is not.
fn enforce_speedup_floor(pairs: usize, baseline: &[(String, String, f64)]) {
    let mut best: Vec<KernelRow> = Vec::new();
    for attempt in 0..3 {
        let mut tracked = Vec::new();
        full_kernel_shapes(&mut tracked, pairs);
        for row in tracked {
            match best
                .iter_mut()
                .find(|b| b.name == row.name && b.shape == row.shape)
            {
                Some(b) if b.speedup < row.speedup => *b = row,
                Some(_) => {}
                None => best.push(row),
            }
        }
        let violations = speedup_violations(&best, baseline);
        if violations.is_empty() {
            println!(
                "speedup floor held for {} tracked kernel shapes (pass {})",
                best.len(),
                attempt + 1
            );
            return;
        }
        for (name, shape, got, committed) in &violations {
            println!(
                "pass {}: kernel {name} {shape} below floor: {got:.2}x vs committed {committed:.2}x",
                attempt + 1
            );
        }
    }
    let violations = speedup_violations(&best, baseline);
    assert!(
        violations.is_empty(),
        "kernels regressed more than 10% below the committed baseline in all \
         passes: {violations:?} — investigate or regenerate the baseline with a \
         full `kernel_bench` run"
    );
}

/// Civil date (UTC) from the system clock, for the bench history log.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // Howard Hinnant's days-to-civil algorithm.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Appends a dated one-line summary of this full run to
/// `results/bench_history.jsonl`.
fn append_history(rows: &[KernelRow], dispatch: &str) {
    use serde_json::{Map, Number, Value};
    let kernels: Vec<Value> = rows
        .iter()
        .map(|r| {
            let mut k = Map::new();
            k.insert("name".into(), Value::String(r.name.clone()));
            k.insert("shape".into(), Value::String(r.shape.clone()));
            k.insert("speedup".into(), Value::Number(Number::from_f64(r.speedup)));
            Value::Object(k)
        })
        .collect();
    let mut entry = Map::new();
    entry.insert("date".into(), Value::String(today_utc()));
    entry.insert("bench".into(), Value::String("kernel_bench".into()));
    entry.insert("dispatch".into(), Value::String(dispatch.into()));
    entry.insert("kernels".into(), Value::Array(kernels));
    let line = serde_json::to_string(&Value::Object(entry)).expect("history entry must serialize");
    if std::fs::create_dir_all("results").is_err() {
        eprintln!("warning: could not create results/; skipping bench history");
        return;
    }
    use std::io::Write as _;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/bench_history.jsonl")
    {
        Ok(mut f) => {
            writeln!(f, "{line}").expect("append bench history");
            println!("appended results/bench_history.jsonl");
        }
        Err(e) => eprintln!("warning: could not append bench history: {e}"),
    }
}

fn main() {
    let cli = Cli::parse();
    let smoke = cli.get("smoke").is_some();
    let out_path = cli.get("out").unwrap_or("BENCH_kernels.json").to_string();
    let baseline_path = cli
        .get("baseline")
        .unwrap_or("BENCH_kernels.json")
        .to_string();
    let reps: usize = cli.get_or("reps", if smoke { 1 } else { 7 });
    let dispatch = kernels::dispatch_level().name();

    let mut rows = Vec::new();
    if smoke {
        // Tiny shapes: correctness + schema only, so CI stays fast.
        bench_matmul(&mut rows, reps, 9, 7, 33);
        bench_matmul_scaled(&mut rows, reps, 5, 7, 37);
        bench_dot(&mut rows, reps, 100);
        bench_axpy(&mut rows, reps, 100);
        bench_weighted_average(&mut rows, reps, 3, 64);
        bench_weighted_sum_batch(&mut rows, reps, 4, 64);
        bench_fused_momentum(&mut rows, reps, 64);
        bench_nag_step(&mut rows, reps, 100);
        bench_conv(&mut rows, reps, 2, 3, 8, 3, 1);
    } else {
        // Three measurement passes, keeping each shape's LOWEST-speedup
        // row. A single pass's speedup is the ratio of two noisy minima
        // and swings with machine load; since the committed report doubles
        // as the smoke gate's baseline, it must record a conservative
        // claim — one the gate (which keeps the best of its own passes)
        // can hold every future build to without flaking.
        let mut passes: Vec<Vec<KernelRow>> = Vec::new();
        for _ in 0..3 {
            let mut pass = Vec::new();
            full_kernel_shapes(&mut pass, reps);
            passes.push(pass);
        }
        let shapes: Vec<(String, String)> = passes[0]
            .iter()
            .map(|r| (r.name.clone(), r.shape.clone()))
            .collect();
        for (name, shape) in shapes {
            let mut candidates: Vec<KernelRow> = passes
                .iter_mut()
                .flat_map(|p| {
                    p.iter()
                        .position(|r| r.name == name && r.shape == shape)
                        .map(|i| p.swap_remove(i))
                })
                .collect();
            candidates.sort_by(|a, b| a.speedup.total_cmp(&b.speedup));
            candidates.truncate(1);
            rows.push(candidates.remove(0));
        }
    }

    for r in &rows {
        assert!(
            r.baseline_ns.is_finite() && r.kernel_ns.is_finite() && r.speedup.is_finite(),
            "non-finite timing for {}",
            r.name
        );
    }

    if smoke {
        match baseline_speedups(&baseline_path) {
            Some(baseline) => {
                // Re-time the tracked shapes at full size and hold their
                // median paired speedups to the committed ones.
                enforce_speedup_floor(reps.max(15), &baseline);
            }
            None => println!("no committed full baseline at {baseline_path}; gate skipped"),
        }
    }

    // The worker NAG step at the benchmark workloads' model widths (see
    // `full_kernel_shapes`), or one tiny width in smoke mode.
    let mut bandwidth = Vec::new();
    let widths: &[usize] = if smoke {
        &[100]
    } else {
        &[7850, 18_182, 50_890]
    };
    for &dim in widths {
        bench_nag_bandwidth(&mut bandwidth, reps, dim);
    }

    let e2e = Some(end_to_end(if smoke { 20 } else { 200 }));

    let report = BenchReport {
        bench: "kernel_bench",
        mode: if smoke { "smoke" } else { "full" },
        target: std::env::consts::ARCH.to_string(),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        dispatch,
        kernels: rows,
        bandwidth,
        end_to_end: e2e,
        peak_rss_bytes: hieradmo_bench::peak_rss_bytes(),
    };

    println!(
        "== kernel_bench ({}, dispatch: {}, nproc: {}) ==",
        report.mode, report.dispatch, report.nproc
    );
    for r in &report.kernels {
        println!(
            "{:>18} {:>24}  old {:>12.0} ns  new {:>12.0} ns  speedup {:>5.2}x",
            r.name, r.shape, r.baseline_ns, r.kernel_ns, r.speedup
        );
    }
    for r in &report.bandwidth {
        println!(
            "{:>18} {:>24}  {:>12.0} ns/step  {:>6.2} GiB/s",
            r.name, r.width, r.ns_per_step, r.gib_per_s
        );
    }
    if let Some(e) = &report.end_to_end {
        println!(
            "{:>18} {:>24}  wall {:.3} s  acc {:.3}",
            "end_to_end", e.scenario, e.wall_s, e.final_accuracy
        );
    }
    if let Some(rss) = report.peak_rss_bytes {
        println!(
            "{:>18} {:>24}  {:.1} MiB",
            "peak_rss",
            "",
            rss as f64 / (1024.0 * 1024.0)
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report must serialize");
    std::fs::write(&out_path, json + "\n").expect("write BENCH json");
    println!("wrote {out_path}");

    if !smoke {
        append_history(&report.kernels, report.dispatch);
    }
}
