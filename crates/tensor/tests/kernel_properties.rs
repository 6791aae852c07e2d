//! Property-based contracts of the multi-lane kernel layer.
//!
//! Two invariants per kernel, on arbitrary lengths (deliberately spanning
//! the `chunks_exact(LANES)` boundary so remainder-lane handling is
//! exercised):
//!
//! 1. **Accuracy** — the lane-split summation agrees with a naive
//!    single-accumulator reference within `1e-4` relative tolerance.
//! 2. **Determinism** — calling the kernel twice on the same input yields
//!    bitwise-identical results. The lane order is fixed, so this holds
//!    by construction; the proptest guards against accidental
//!    order-dependent rewrites.

use proptest::prelude::*;

use hieradmo_tensor::kernels;

/// Backing-store length; tests slice `[..len]` out of it so every
/// remainder residue mod `LANES` is exercised.
const MAX_LEN: usize = 40;

fn vec_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, MAX_LEN)
}

fn close(got: f32, want: f32) -> bool {
    (got - want).abs() <= 1e-4 * (1.0 + want.abs())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `dot` matches a serial left-to-right accumulation and is
    /// bitwise reproducible.
    #[test]
    fn dot_matches_naive_and_is_deterministic(
        a in vec_strategy(),
        b in vec_strategy(),
        len in 0usize..MAX_LEN,
    ) {
        let (a, b) = (&a[..len], &b[..len]);
        let naive: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let fast = kernels::dot(a, b);
        prop_assert!(close(fast, naive), "dot: {fast} vs naive {naive}");
        prop_assert_eq!(fast.to_bits(), kernels::dot(a, b).to_bits());
    }

    /// `norm_sq` is `dot(v, v)`, bit for bit, and close to the naive sum.
    #[test]
    fn norm_sq_matches_naive_and_is_deterministic(
        v in vec_strategy(),
        len in 0usize..MAX_LEN,
    ) {
        let v = &v[..len];
        let naive: f32 = v.iter().map(|x| x * x).sum();
        let fast = kernels::norm_sq(v);
        prop_assert!(close(fast, naive), "norm_sq: {fast} vs naive {naive}");
        prop_assert_eq!(fast.to_bits(), kernels::norm_sq(v).to_bits());
        prop_assert_eq!(fast.to_bits(), kernels::dot(v, v).to_bits());
    }

    /// `axpy` matches the scalar update elementwise and is bitwise
    /// reproducible from the same starting buffer.
    #[test]
    fn axpy_matches_naive_and_is_deterministic(
        x in vec_strategy(),
        y0 in vec_strategy(),
        len in 0usize..MAX_LEN,
        alpha in -4.0f32..4.0,
    ) {
        let (x, y0) = (&x[..len], &y0[..len]);
        let mut naive = y0.to_vec();
        for (a, &b) in naive.iter_mut().zip(x) {
            *a += alpha * b;
        }
        let mut fast = y0.to_vec();
        kernels::axpy(&mut fast, alpha, x);
        for i in 0..len {
            prop_assert!(close(fast[i], naive[i]), "axpy[{i}]: {} vs {}", fast[i], naive[i]);
        }
        let mut again = y0.to_vec();
        kernels::axpy(&mut again, alpha, x);
        prop_assert_eq!(bits(&fast), bits(&again));
    }

    /// `scal` matches the scalar scale elementwise and is bitwise
    /// reproducible.
    #[test]
    fn scal_matches_naive_and_is_deterministic(
        v0 in vec_strategy(),
        len in 0usize..MAX_LEN,
        alpha in -4.0f32..4.0,
    ) {
        let v0 = &v0[..len];
        let naive: Vec<f32> = v0.iter().map(|x| alpha * x).collect();
        let mut fast = v0.to_vec();
        kernels::scal(&mut fast, alpha);
        for i in 0..len {
            prop_assert!(close(fast[i], naive[i]), "scal[{i}]: {} vs {}", fast[i], naive[i]);
        }
        let mut again = v0.to_vec();
        kernels::scal(&mut again, alpha);
        prop_assert_eq!(bits(&fast), bits(&again));
    }

    /// `fused_scale_add` matches `alpha·a + beta·b` elementwise and is
    /// bitwise reproducible.
    #[test]
    fn fused_scale_add_matches_naive_and_is_deterministic(
        a in vec_strategy(),
        b in vec_strategy(),
        len in 0usize..MAX_LEN,
        alpha in -4.0f32..4.0,
        beta in -4.0f32..4.0,
    ) {
        let (a, b) = (&a[..len], &b[..len]);
        let naive: Vec<f32> = a
            .iter()
            .zip(b)
            .map(|(x, y)| alpha * x + beta * y)
            .collect();
        let mut fast = vec![0.0f32; len];
        kernels::fused_scale_add(&mut fast, alpha, a, beta, b);
        for i in 0..len {
            prop_assert!(close(fast[i], naive[i]), "fsa[{i}]: {} vs {}", fast[i], naive[i]);
        }
        let mut again = vec![0.0f32; len];
        kernels::fused_scale_add(&mut again, alpha, a, beta, b);
        prop_assert_eq!(bits(&fast), bits(&again));
    }

    /// `weighted_accumulate` matches the scalar f64 update elementwise
    /// (it is purely elementwise, so agreement is to f64 precision) and
    /// is bitwise reproducible.
    #[test]
    fn weighted_accumulate_matches_naive_and_is_deterministic(
        v in vec_strategy(),
        len in 0usize..MAX_LEN,
        w in -4.0f64..4.0,
    ) {
        let v = &v[..len];
        let mut naive = vec![0.5f64; len];
        for (a, &x) in naive.iter_mut().zip(v) {
            *a += w * f64::from(x);
        }
        let mut fast = vec![0.5f64; len];
        kernels::weighted_accumulate(&mut fast, w, v);
        for i in 0..len {
            prop_assert!(
                (fast[i] - naive[i]).abs() <= 1e-12 * (1.0 + naive[i].abs()),
                "wacc[{i}]: {} vs {}", fast[i], naive[i]
            );
        }
        let mut again = vec![0.5f64; len];
        kernels::weighted_accumulate(&mut again, w, v);
        let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
        let again_bits: Vec<u64> = again.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(fast_bits, again_bits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul_bt` matches the naive triple loop within tolerance, every
    /// element is bitwise the `dot` of its row pair (tiling never changes
    /// values), and repeat calls reproduce identical bits.
    #[test]
    fn matmul_bt_matches_naive_and_is_deterministic(
        n in 1usize..20,
        m in 1usize..20,
        k in 0usize..40,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let bt: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

        let mut fast = vec![0.0f32; n * m];
        kernels::matmul_bt(&a, &bt, &mut fast, n, m, k);

        for r in 0..n {
            for c in 0..m {
                let mut naive = 0.0f32;
                for i in 0..k {
                    naive += a[r * k + i] * bt[c * k + i];
                }
                let got = fast[r * m + c];
                prop_assert!(close(got, naive), "matmul[{r},{c}]: {got} vs {naive}");
                // Tiling invariant: identical bits to the dot kernel.
                let row_dot = kernels::dot(&a[r * k..(r + 1) * k], &bt[c * k..(c + 1) * k]);
                prop_assert_eq!(got.to_bits(), row_dot.to_bits());
            }
        }

        let mut again = vec![0.0f32; n * m];
        kernels::matmul_bt(&a, &bt, &mut again, n, m, k);
        prop_assert_eq!(bits(&fast), bits(&again));
    }
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `weighted_sum_batch` over `K` workers is (a) close to a naive
    /// per-coordinate `f64` sum, (b) **bitwise** identical to `K`
    /// sequential [`kernels::weighted_accumulate`] calls in worker order,
    /// to the scalar oracle, and to any prefix/suffix split of the batch,
    /// and (c) bitwise reproducible run to run. `K` ranges past the
    /// AVX2 worker-block boundary so both the single-block small-fan-in
    /// path and the multi-block path are exercised.
    #[test]
    fn weighted_sum_batch_matches_sequential_bitwise(
        len in 0usize..MAX_LEN,
        k in 1usize..=20,
        split in 0usize..=20,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inputs_store: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect())
            .collect();
        let inputs: Vec<&[f32]> = inputs_store.iter().map(Vec::as_slice).collect();
        let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(-4.0f64..4.0)).collect();

        let mut naive = vec![0.25f64; len];
        for (&w, v) in weights.iter().zip(&inputs) {
            for (a, &x) in naive.iter_mut().zip(*v) {
                *a += w * f64::from(x);
            }
        }

        let mut batch = vec![0.25f64; len];
        kernels::weighted_sum_batch(&mut batch, &weights, &inputs);
        for i in 0..len {
            prop_assert!(
                (batch[i] - naive[i]).abs() <= 1e-4 * (1.0 + naive[i].abs()),
                "batch[{i}]: {} vs naive {}", batch[i], naive[i]
            );
        }

        // Bitwise vs the sequential per-worker path it replaces.
        let mut seq = vec![0.25f64; len];
        for (&w, v) in weights.iter().zip(&inputs) {
            kernels::weighted_accumulate(&mut seq, w, v);
        }
        prop_assert_eq!(bits64(&batch), bits64(&seq));

        // Bitwise vs the portable oracle (pins the dispatched path).
        let mut oracle = vec![0.25f64; len];
        kernels::weighted_sum_batch_scalar(&mut oracle, &weights, &inputs);
        prop_assert_eq!(bits64(&batch), bits64(&oracle));

        // Splitting the batch into consecutive sub-batches is neutral.
        let cut = split.min(k);
        let mut halves = vec![0.25f64; len];
        kernels::weighted_sum_batch(&mut halves, &weights[..cut], &inputs[..cut]);
        kernels::weighted_sum_batch(&mut halves, &weights[cut..], &inputs[cut..]);
        prop_assert_eq!(bits64(&batch), bits64(&halves));

        // Run-to-run determinism.
        let mut again = vec![0.25f64; len];
        kernels::weighted_sum_batch(&mut again, &weights, &inputs);
        prop_assert_eq!(bits64(&batch), bits64(&again));
    }

    /// `fused_aggregate_momentum` is (a) close to the `f64` reference
    /// `m = acc/total`, `looked = m + γ·(m − y_old)`, (b) **bitwise**
    /// identical to the unfused composition it replaces (per-element
    /// finalize, clone, subtract, [`kernels::axpy`]) and to the scalar
    /// oracle, and (c) bitwise reproducible run to run.
    #[test]
    fn fused_aggregate_momentum_matches_unfused_bitwise(
        acc_src in proptest::collection::vec(-8.0f64..8.0, MAX_LEN),
        y_old in vec_strategy(),
        len in 0usize..MAX_LEN,
        total in 0.5f64..8.0,
        gamma in 0.0f32..1.0,
    ) {
        let (acc, y_old) = (&acc_src[..len], &y_old[..len]);

        let mut mean = vec![0.0f32; len];
        let mut looked = vec![0.0f32; len];
        kernels::fused_aggregate_momentum(acc, total, gamma, y_old, &mut mean, &mut looked);

        for i in 0..len {
            let m_ref = acc[i] / total;
            let l_ref = m_ref + f64::from(gamma) * (m_ref - f64::from(y_old[i]));
            prop_assert!(
                close(mean[i], m_ref as f32),
                "mean[{i}]: {} vs {}", mean[i], m_ref
            );
            prop_assert!(
                close(looked[i], l_ref as f32),
                "looked[{i}]: {} vs {}", looked[i], l_ref
            );
        }

        // Bitwise vs the historical unfused composition: finalize the
        // mean per element, then clone → subtract → axpy.
        let unfused_mean: Vec<f32> = acc.iter().map(|&a| (a / total) as f32).collect();
        let delta: Vec<f32> = unfused_mean
            .iter()
            .zip(y_old)
            .map(|(m, y)| m - y)
            .collect();
        let mut unfused_looked = unfused_mean.clone();
        kernels::axpy(&mut unfused_looked, gamma, &delta);
        prop_assert_eq!(bits(&mean), bits(&unfused_mean));
        prop_assert_eq!(bits(&looked), bits(&unfused_looked));

        // Bitwise vs the portable oracle (pins the dispatched path).
        let mut mean_o = vec![0.0f32; len];
        let mut looked_o = vec![0.0f32; len];
        kernels::fused_aggregate_momentum_scalar(
            acc, total, gamma, y_old, &mut mean_o, &mut looked_o,
        );
        prop_assert_eq!(bits(&mean), bits(&mean_o));
        prop_assert_eq!(bits(&looked), bits(&looked_o));

        // And vs the standalone Eq. 7 kernel from the same mean.
        let mut looked_m = vec![0.0f32; len];
        kernels::momentum_step(&mut looked_m, gamma, &mean, y_old);
        prop_assert_eq!(bits(&looked), bits(&looked_m));

        // Run-to-run determinism.
        let mut mean2 = vec![0.0f32; len];
        let mut looked2 = vec![0.0f32; len];
        kernels::fused_aggregate_momentum(acc, total, gamma, y_old, &mut mean2, &mut looked2);
        prop_assert_eq!(bits(&mean), bits(&mean2));
        prop_assert_eq!(bits(&looked), bits(&looked2));
    }
}

/// `len` draws from `[-2, 2)` with one entry in eight replaced by `0.0`
/// and one by `-0.0`; with `nonfinite`, one in sixteen each by `inf`,
/// `-inf` and NaN.
fn entries(rng: &mut rand::rngs::StdRng, len: usize, nonfinite: bool) -> Vec<f32> {
    use rand::Rng;
    (0..len)
        .map(|_| match rng.gen_range(0u32..16) {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 if nonfinite => f32::INFINITY,
            5 if nonfinite => f32::NEG_INFINITY,
            6 if nonfinite => f32::NAN,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// Bit patterns with every NaN mapped to one value: NaN payloads are not
/// part of the dispatch contract (the compiler may commute the operands
/// of an add, and x86 propagates the first NaN operand's payload), every
/// other bit is.
fn bits_nan_eq(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dispatched dense kernels are bitwise equal to their scalar
    /// oracles, zeros of both signs and non-finite entries included. The
    /// shapes cover every `k % 8`, `n % 4` and `m % 3` remainder of the
    /// AVX2 micro-tiles and strips.
    #[test]
    fn matmul_bt_dispatch_matches_scalar_oracle_bitwise(
        n in 0usize..10,
        m in 0usize..8,
        k in 0usize..42,
        nonfinite in any::<bool>(),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = entries(&mut rng, n * k, nonfinite);
        let bt = entries(&mut rng, m * k, nonfinite);
        let mut got = vec![7.0f32; n * m];
        kernels::matmul_bt(&a, &bt, &mut got, n, m, k);
        let mut want = vec![-7.0f32; n * m];
        kernels::matmul_bt_scalar(&a, &bt, &mut want, n, m, k);
        prop_assert_eq!(bits_nan_eq(&got), bits_nan_eq(&want));
    }

    /// `matmul_acc` accumulates onto `out` exactly as its oracle does, and
    /// skips the same zero coefficients: an `inf` or NaN row of `b` behind
    /// a `0.0`/`-0.0` coefficient leaves `out` untouched.
    #[test]
    fn matmul_acc_dispatch_matches_scalar_oracle_bitwise(
        p in 0usize..10,
        q in 0usize..6,
        k in 0usize..80,
        nonfinite in any::<bool>(),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = entries(&mut rng, p * q, nonfinite);
        let b = entries(&mut rng, q * k, nonfinite);
        let out0 = entries(&mut rng, p * k, false);
        let mut got = out0.clone();
        kernels::matmul_acc(&mut got, &c, &b, p, q, k);
        let mut want = out0.clone();
        kernels::matmul_acc_scalar(&mut want, &c, &b, p, q, k);
        prop_assert_eq!(bits_nan_eq(&got), bits_nan_eq(&want));
        // A row whose coefficients are all zero is never touched.
        for i in 0..p {
            if c[i * q..(i + 1) * q].iter().all(|&v| v == 0.0) {
                prop_assert_eq!(bits(&got[i * k..(i + 1) * k]), bits(&out0[i * k..(i + 1) * k]));
            }
        }
    }

    /// `axpy` is bitwise equal to its oracle at every length and start
    /// offset (the AVX2 path aligns its stores, so the offset moves where
    /// its vector part begins).
    #[test]
    fn axpy_dispatch_matches_scalar_oracle_bitwise(
        len in 0usize..120,
        offset in 0usize..8,
        alpha_kind in 0usize..4,
        nonfinite in any::<bool>(),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let alpha = match alpha_kind {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-4.0f32..4.0),
        };
        let x = entries(&mut rng, len, nonfinite);
        let y0 = entries(&mut rng, offset + len, nonfinite);
        let mut got = y0.clone();
        kernels::axpy(&mut got[offset..], alpha, &x);
        let mut want = y0.clone();
        kernels::axpy_scalar(&mut want[offset..], alpha, &x);
        prop_assert_eq!(bits_nan_eq(&got), bits_nan_eq(&want));
    }
}
