//! Property-based tests on the tensor substrate: algebraic identities the
//! layers' gradients silently rely on.

use proptest::prelude::*;

use hieradmo_tensor::{conv, ops, Matrix, Tensor4, Vector};

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dot product is symmetric and norm² = ⟨v, v⟩.
    #[test]
    fn dot_symmetry_and_norm(a in vec_strategy(16), b in vec_strategy(16)) {
        let va = Vector::from(a);
        let vb = Vector::from(b);
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-3);
        prop_assert!((va.norm_sq() - va.dot(&va)).abs() < 1e-3);
    }

    /// axpy agrees with the operator form.
    #[test]
    fn axpy_matches_operators(a in vec_strategy(8), b in vec_strategy(8), alpha in -5.0f32..5.0) {
        let va = Vector::from(a);
        let vb = Vector::from(b);
        let mut lhs = va.clone();
        lhs.axpy(alpha, &vb);
        let rhs = &va + &vb.scaled(alpha);
        for i in 0..8 {
            prop_assert!((lhs[i] - rhs[i]).abs() < 1e-3);
        }
    }

    /// Matrix-vector product is linear: M(αx + y) = αMx + My.
    #[test]
    fn matvec_linearity(
        m in vec_strategy(12),
        x in vec_strategy(4),
        y in vec_strategy(4),
        alpha in -3.0f32..3.0,
    ) {
        let m = Matrix::from_rows(3, 4, m);
        let x = Vector::from(x);
        let y = Vector::from(y);
        let combined = &x.scaled(alpha) + &y;
        let lhs = m.matvec(&combined);
        let mut rhs = m.matvec(&x).scaled(alpha);
        rhs += &m.matvec(&y);
        for i in 0..3 {
            prop_assert!((lhs[i] - rhs[i]).abs() < 1e-2,
                "linearity broken at {i}: {} vs {}", lhs[i], rhs[i]);
        }
    }

    /// ⟨Mx, y⟩ = ⟨x, Mᵀy⟩: the adjoint identity backprop depends on.
    #[test]
    fn matvec_adjoint_identity(
        m in vec_strategy(12),
        x in vec_strategy(4),
        y in vec_strategy(3),
    ) {
        let m = Matrix::from_rows(3, 4, m);
        let x = Vector::from(x);
        let y = Vector::from(y);
        let lhs = m.matvec(&x).dot(&y);
        let rhs = x.dot(&m.matvec_transposed(&y));
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "adjoint identity broken: {lhs} vs {rhs}");
    }

    /// Convolution is linear in the input.
    #[test]
    fn conv_linearity_in_input(
        a in vec_strategy(16),
        b in vec_strategy(16),
        w in vec_strategy(9),
        alpha in -2.0f32..2.0,
    ) {
        let ta = Tensor4::from_data(1, 1, 4, 4, a);
        let tb = Tensor4::from_data(1, 1, 4, 4, b);
        let weight = Tensor4::from_data(1, 1, 3, 3, w);
        let bias = [0.0f32];
        let mut combined = ta.clone();
        for (c, (&x, &y)) in combined
            .as_mut_slice()
            .iter_mut()
            .zip(ta.as_slice().iter().zip(tb.as_slice()))
        {
            *c = alpha * x + y;
        }
        let lhs = conv::conv2d_forward(&combined, &weight, &bias, 1);
        let oa = conv::conv2d_forward(&ta, &weight, &bias, 1);
        let ob = conv::conv2d_forward(&tb, &weight, &bias, 1);
        for i in 0..lhs.len() {
            let rhs = alpha * oa.as_slice()[i] + ob.as_slice()[i];
            prop_assert!((lhs.as_slice()[i] - rhs).abs() < 1e-2,
                "conv linearity broken at {i}");
        }
    }

    /// The conv adjoint identity ⟨conv(x), g⟩ = ⟨x, conv_backward(g)⟩
    /// (with zero bias), which is exactly what gradient checking needs.
    #[test]
    fn conv_adjoint_identity(
        x in vec_strategy(16),
        w in vec_strategy(9),
        g in vec_strategy(16),
    ) {
        let input = Tensor4::from_data(1, 1, 4, 4, x);
        let weight = Tensor4::from_data(1, 1, 3, 3, w);
        let grad_out = Tensor4::from_data(1, 1, 4, 4, g);
        let out = conv::conv2d_forward(&input, &weight, &[0.0], 1);
        let (grad_in, _, _) = conv::conv2d_backward(&input, &weight, 1, &grad_out);
        let lhs: f32 = out
            .as_slice()
            .iter()
            .zip(grad_out.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = input
            .as_slice()
            .iter()
            .zip(grad_in.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        prop_assert!((lhs - rhs).abs() < 1e-1 * (1.0 + lhs.abs()),
            "conv adjoint broken: {lhs} vs {rhs}");
    }

    /// Softmax output is a probability distribution and is invariant to
    /// constant shifts of the logits.
    #[test]
    fn softmax_distribution_and_shift_invariance(
        logits in vec_strategy(6),
        shift in -50.0f32..50.0,
    ) {
        let v = Vector::from(logits.clone());
        let s = ops::softmax(&v);
        prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let shifted: Vector = logits.iter().map(|&x| x + shift).collect();
        let s2 = ops::softmax(&shifted);
        for i in 0..6 {
            prop_assert!((s[i] - s2[i]).abs() < 1e-4, "shift invariance broken at {i}");
        }
    }

    /// Max pooling never invents values: every output element exists in
    /// the input, and the backward pass conserves gradient mass.
    #[test]
    fn maxpool_selects_existing_values_and_conserves_gradient(
        x in vec_strategy(16),
        g in vec_strategy(4),
    ) {
        let input = Tensor4::from_data(1, 1, 4, 4, x.clone());
        let res = conv::max_pool2x2_forward(&input);
        for &o in res.output.as_slice() {
            prop_assert!(x.contains(&o));
        }
        let grad_out = Tensor4::from_data(1, 1, 2, 2, g.clone());
        let gi = conv::max_pool2x2_backward(input.shape(), &res.argmax, &grad_out);
        let in_sum: f32 = gi.as_slice().iter().sum();
        let out_sum: f32 = g.iter().sum();
        prop_assert!((in_sum - out_sum).abs() < 1e-3, "gradient mass not conserved");
    }

    /// Cross-entropy gradient always sums to zero (softmax simplex
    /// tangency) and has a negative true-class component.
    #[test]
    fn cross_entropy_grad_structure(
        logits in vec_strategy(5),
        label in 0usize..5,
    ) {
        let v = Vector::from(logits);
        let g = ops::cross_entropy_grad(&v, label);
        prop_assert!(g.iter().sum::<f32>().abs() < 1e-4);
        prop_assert!(g[label] <= 0.0);
    }

    /// The fused head `cross_entropy_into` and the non-allocating
    /// `cross_entropy_loss` give the bits of the two-pass composition:
    /// `-log_softmax(logits)[label]` and `cross_entropy_grad`.
    #[test]
    fn fused_cross_entropy_is_bitwise_the_two_pass_composition(
        logits in vec_strategy(7),
        label in 0usize..7,
        wide in any::<bool>(),
    ) {
        // `wide` spreads the logits to ±400, where the shifted
        // exponentials underflow to zero.
        let scale = if wide { 40.0 } else { 1.0 };
        let v: Vector = logits.iter().map(|&x| x * scale).collect();
        let want_loss = -ops::log_softmax(&v)[label];
        let want_grad = ops::cross_entropy_grad(&v, label);
        prop_assert_eq!(ops::cross_entropy_loss(v.as_slice(), label).to_bits(), want_loss.to_bits());
        let mut grad = vec![7.0f32; v.len()];
        let loss = ops::cross_entropy_into(v.as_slice(), label, &mut grad);
        prop_assert_eq!(loss.to_bits(), want_loss.to_bits());
        for (g, w) in grad.iter().zip(want_grad.iter()) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The im2col fast path (the default `conv2d_forward`) computes the
    /// same convolution as the loop-nest reference within f32 rounding,
    /// for arbitrary shapes/padding.
    #[test]
    fn im2col_matches_reference_conv(
        c_in in 1usize..3,
        c_out in 1usize..3,
        h in 3usize..7,
        w in 3usize..7,
        k in 1usize..4,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let input = Tensor4::from_data(
            1, c_in, h, w,
            (0..c_in * h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let weight = Tensor4::from_data(
            c_out, c_in, k, k,
            (0..c_out * c_in * k * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let bias: Vec<f32> = (0..c_out).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let reference = conv::conv2d_forward_direct(&input, &weight, &bias, pad);
        let fast = conv::conv2d_forward_im2col(&input, &weight, &bias, pad);
        prop_assert_eq!(reference.shape(), fast.shape());
        for (a, b) in reference.as_slice().iter().zip(fast.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4, "im2col mismatch: {a} vs {b}");
        }
        // The default path is the im2col path, bit for bit.
        let default = conv::conv2d_forward(&input, &weight, &bias, pad);
        prop_assert_eq!(default.as_slice(), fast.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tiled multi-accumulator `matmul` kernel matches the naive
    /// triple loop within f32 rounding on arbitrary shapes. The kernel
    /// splits each element's summation into eight strided lanes plus a
    /// tail, so the contract is a relative tolerance against the naive
    /// oracle plus bitwise reproducibility of the kernel itself — not bit
    /// equality with the textbook order.
    #[test]
    fn tiled_matmul_matches_naive_reference(
        rows in 1usize..48,
        inner in 1usize..48,
        cols in 1usize..48,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_rows(
            rows, inner,
            (0..rows * inner).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
        );
        let b = Matrix::from_rows(
            inner, cols,
            (0..inner * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
        );
        // Naive reference: out[r][c] = Σ_k a[r][k]·b[k][c], increasing k,
        // one accumulator per element.
        let mut reference = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = 0.0f32;
                for k in 0..inner {
                    acc += a.at(r, k) * b.at(k, c);
                }
                *reference.at_mut(r, c) = acc;
            }
        }
        let fast = a.matmul(&b);
        for (f, s) in fast.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!(
                (f - s).abs() <= 1e-4 * (1.0 + s.abs()),
                "matmul vs naive: {f} vs {s}"
            );
        }

        // The buffer-reusing form is the same kernel, byte for byte, and
        // repeating the call reproduces the exact same bits.
        let mut bt = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut bt, &mut out);
        prop_assert_eq!(out.as_slice(), fast.as_slice());
        a.matmul_into(&b, &mut bt, &mut out);
        prop_assert_eq!(out.as_slice(), fast.as_slice());
    }
}
