//! Empirical validation of the paper's theory (Theorems 1–5) on measured
//! runs — the virtual-update construction, the bound functions, and the
//! τ/π trends of Theorem 4.

use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::theory::{
    estimate_beta, estimate_divergence, estimate_rho, weighted_delta, BoundConstants,
};
use hieradmo::core::virtual_update::{merge_shards, virtual_trajectory};
use hieradmo::core::{run, RunConfig, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::{generate, SyntheticSpec};
use hieradmo::data::Dataset;
use hieradmo::models::{zoo, Model, Sequential};
use hieradmo::tensor::Vector;
use hieradmo::topology::Hierarchy;

fn flat_problem(noise: f32, seed: u64) -> (Dataset, Dataset, Vec<Dataset>, Sequential) {
    let spec = SyntheticSpec {
        num_classes: 4,
        shape: hieradmo::data::FeatureShape::Flat(12),
        noise,
        prototype_scale: 1.0,
        max_shift: 0,
        class_group: 1,
    };
    let tt = generate(&spec, 30, 10, seed);
    let shards = x_class_partition(&tt.train, 4, 2, seed + 1);
    let model = zoo::logistic_regression(&tt.train, seed + 2);
    (tt.train, tt.test, shards, model)
}

/// Theorem 1, measured: simulate one edge's workers for τ full-batch
/// local NAG steps from a common start, and compare the aggregated
/// trajectory against the edge *virtual* trajectory; the gap must respect
/// `h(t, δℓ)` computed from estimated constants.
#[test]
fn theorem1_gap_is_bounded_by_h() {
    let (_, _, shards, model) = flat_problem(0.6, 11);
    let eta = 0.05f32;
    let gamma = 0.5f32;
    let tau = 8usize;

    // Edge 0 = shards 0 and 1 with equal weights.
    let edge_shards = [&shards[0], &shards[1]];
    let merged = merge_shards(&edge_shards);

    // Real per-worker trajectories (full-batch gradients so the comparison
    // is deterministic, matching the analysis).
    let x0 = model.params();
    let mut xs: Vec<Vector> = vec![x0.clone(); 2];
    let mut ys: Vec<Vector> = vec![x0.clone(); 2];
    let mut models: Vec<Sequential> = vec![model.clone(), model.clone()];
    let weights = [
        shards[0].len() as f64 / merged.len() as f64,
        shards[1].len() as f64 / merged.len() as f64,
    ];

    // Virtual trajectory on the merged edge loss.
    let mut vmodel = model.clone();
    let virt = virtual_trajectory(&mut vmodel, &merged, &x0, &x0, eta, gamma, tau);

    // Assumptions 2–3 bound β and δ as *suprema over all x*; any sampling
    // estimator only lower-bounds them. Measure both along the trajectory
    // region the theorem actually compares (the virtual iterates), then
    // apply a modest safety factor for the tube the real worker iterates
    // wander through.
    let mut probe = model.clone();
    let grad_of = |m: &mut Sequential, d: &Dataset, x: &Vector| {
        let idx: Vec<usize> = (0..d.len()).collect();
        m.set_params(x);
        m.loss_and_grad(d, &idx).1
    };
    let mut beta = estimate_beta(&mut probe, &merged, 4, 3);
    for pair in virt.windows(2) {
        let ga = grad_of(&mut probe, &merged, &pair[0]);
        let gb = grad_of(&mut probe, &merged, &pair[1]);
        let dx = f64::from(pair[0].distance(&pair[1]));
        if dx > 1e-9 {
            beta = beta.max(f64::from(ga.distance(&gb)) / dx);
        }
    }
    let sampled = estimate_divergence(&mut probe, &shards[..2], 4, 3);
    let mut deltas = sampled;
    for point in &virt {
        let g0 = grad_of(&mut probe, &shards[0], point);
        let g1 = grad_of(&mut probe, &shards[1], point);
        let g_edge = Vector::weighted_average([(weights[0], &g0), (weights[1], &g1)]);
        deltas[0] = deltas[0].max(f64::from(g0.distance(&g_edge)));
        deltas[1] = deltas[1].max(f64::from(g1.distance(&g_edge)));
    }
    let safety = 1.5;
    let beta = beta * safety;
    let delta_edge = weighted_delta(&deltas, &[shards[0].len(), shards[1].len()]) * safety;
    let consts = BoundConstants::new(f64::from(eta), beta, f64::from(gamma));

    for (t, virt_t) in virt.iter().enumerate().skip(1) {
        for w in 0..2 {
            let idx: Vec<usize> = (0..shards[w].len()).collect();
            models[w].set_params(&xs[w]);
            let g = models[w].loss_and_grad(&shards[w], &idx).1;
            let mut y_new = xs[w].clone();
            y_new.axpy(-eta, &g);
            let mut x_new = y_new.clone();
            x_new.axpy(gamma, &(&y_new - &ys[w]));
            xs[w] = x_new;
            ys[w] = y_new;
        }
        let aggregated = Vector::weighted_average([(weights[0], &xs[0]), (weights[1], &xs[1])]);
        let gap = f64::from(aggregated.distance(virt_t));
        let bound = consts.h(t, delta_edge);
        assert!(
            gap <= bound + 1e-6,
            "Theorem 1 violated at t={t}: gap {gap} > h({t}, {delta_edge:.4}) = {bound}"
        );
    }
}

/// Theorem 2, measured: at an edge aggregation the edge-momentum step
/// moves the model by at most `s(τ) = γℓ·τ·η·ρ·(γμ+γ+1)`.
#[test]
fn theorem2_edge_momentum_displacement_is_bounded_by_s() {
    let (_, test, shards, model) = flat_problem(0.6, 13);
    let eta = 0.05f32;
    let gamma = 0.5f32;
    let tau = 8usize;
    let cfg = RunConfig {
        eta,
        gamma,
        tau,
        pi: 1,
        total_iters: tau, // exactly one edge interval
        batch_size: 64,   // big batches ≈ full gradients
        eval_every: tau,
        threads: Some(1),
        ..RunConfig::default()
    };

    // Fixed γℓ so s(τ)'s γℓ is known.
    let gamma_edge = 0.5f32;
    let algo = HierAdMo::reduced(eta, gamma, gamma_edge);
    let h = Hierarchy::balanced(2, 2);
    let res = run(&algo, &model, &RunSpec::hierarchy(&h, &shards), &test, &cfg).expect("run");
    // ‖x_{ℓ+} − x_{ℓ−}‖ = γℓ‖x̄_kτ − x̄_{(k−1)τ}‖ is what the algorithm
    // actually produced; we can't observe it post-hoc from RunResult, so
    // bound the *global* displacement instead: the final model is within
    // s(τ)·(1 + 1/γℓ) + τη(γμ+γ+1)ρ of the start, which the same constants
    // control. Measure ρ and μ̂ from the data and assert the weaker form.
    let mut probe = model.clone();
    let merged = merge_shards(&[&shards[0], &shards[1], &shards[2], &shards[3]]);
    let rho = estimate_rho(&mut probe, &merged, 4, 3);
    let consts = BoundConstants::new(f64::from(eta), 1.0, f64::from(gamma));
    // μ (Eq. 30) is bounded by the observed momentum/gradient ratio; for a
    // single interval from a cold start μ ≤ 1 + γ (velocity built from at
    // most τ η-sized gradient steps). Use a conservative μ = 2.
    let s_tau = consts.s(tau, f64::from(gamma_edge), rho, 2.0);
    let travel = f64::from(res.final_params.distance(&model.params()));
    // Total travel ≤ worker travel (τ steps of η(1+γ)ρ each) + edge step.
    let worker_travel = tau as f64 * f64::from(eta) * (1.0 + f64::from(gamma)) * rho * 2.0;
    assert!(
        travel <= worker_travel + s_tau,
        "one-interval travel {travel} exceeds worker budget {worker_travel} + s(τ) {s_tau}"
    );
    assert!(s_tau > 0.0);
}

/// Theorem 4's trend: larger τ (with T fixed) worsens the final loss, and
/// the bound function j(τ, π) grows accordingly.
#[test]
fn theorem4_larger_tau_hurts_both_measured_and_bound() {
    let (_, test, shards, model) = flat_problem(0.8, 17);
    let run_with_tau = |tau: usize| {
        let cfg = RunConfig {
            eta: 0.05,
            tau,
            pi: 2,
            total_iters: 240,
            batch_size: 16,
            eval_every: 240,
            threads: Some(1),
            ..RunConfig::default()
        };
        let algo = HierAdMo::reduced(0.05, 0.5, 0.5);
        run(
            &algo,
            &model,
            &RunSpec::hierarchy(&Hierarchy::balanced(2, 2), &shards),
            &test,
            &cfg,
        )
        .expect("run")
        .curve
        .final_train_loss()
        .unwrap()
    };
    let small_tau = run_with_tau(4);
    let large_tau = run_with_tau(40);
    assert!(
        small_tau <= large_tau * 1.05,
        "τ=4 loss {small_tau} should not exceed τ=40 loss {large_tau}"
    );

    // And the analytic bound moves the same way.
    let consts = BoundConstants::new(0.05, 1.0, 0.5);
    let edges = [(0.5, 1.0), (0.5, 1.0)];
    let j_small = consts.j_round(4, 2, &edges, 1.0, 0.5, 1.0, 1.0);
    let j_large = consts.j_round(40, 2, &edges, 1.0, 0.5, 1.0, 1.0);
    assert!(j_small < j_large);
}

/// Theorem 5's mechanism, measured over a real run: the *mean* adapted γℓ
/// stays below any aggressive fixed setting, giving the tighter s(τ).
#[test]
fn theorem5_adapted_gamma_mean_is_moderate() {
    let (_, test, shards, model) = flat_problem(0.8, 19);
    let cfg = RunConfig {
        eta: 0.05,
        tau: 10,
        pi: 2,
        total_iters: 200,
        batch_size: 16,
        eval_every: 200,
        threads: Some(1),
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let res = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&Hierarchy::balanced(2, 2), &shards),
        &test,
        &cfg,
    )
    .expect("run");
    let mean: f32 =
        res.gamma_trace.iter().map(|&(_, g)| g).sum::<f32>() / res.gamma_trace.len() as f32;
    assert!(
        (0.0..=0.99).contains(&mean),
        "mean adapted γℓ {mean} outside the clamp range"
    );
    // The adapted mean must be strictly below the divergence-risking cap.
    assert!(mean < 0.99);
}

/// The divergence estimator orders homogeneity correctly: i.i.d. shards
/// have smaller δ than x-class shards.
#[test]
fn divergence_estimator_orders_heterogeneity() {
    let (train, _, _, model) = flat_problem(0.6, 23);
    let iid = hieradmo::data::partition::iid_partition(&train, 4, 1);
    let skew = x_class_partition(&train, 4, 1, 1);
    let mut probe = model.clone();
    let d_iid = estimate_divergence(&mut probe, &iid, 4, 5);
    let d_skew = estimate_divergence(&mut probe, &skew, 4, 5);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&d_iid) < mean(&d_skew),
        "iid divergence {} should be below 1-class divergence {}",
        mean(&d_iid),
        mean(&d_skew)
    );
}
