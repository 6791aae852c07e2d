//! Deep-model federation: train the LeNet-style CNN (the paper's main
//! non-convex workload) with HierAdMo on image data, exercising the full
//! conv/pool/backprop substrate end to end — and estimate the theory
//! constants (β, ρ, δ) the convergence bound needs.
//!
//! ```text
//! cargo run --release --example cnn_edge_training
//! ```

use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::theory::{estimate_beta, estimate_divergence, estimate_rho, BoundConstants};
use hieradmo::core::{run, RunConfig, RunError, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::{zoo, Model};
use hieradmo::topology::Hierarchy;

fn main() -> Result<(), RunError> {
    let tt = SyntheticDataset::mnist_like(15, 5, 13);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 5, 13);
    let model = zoo::cnn(&tt.train, 13);
    println!("CNN parameters: {}", model.dim());

    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 100,
        eval_every: 20,
        batch_size: 8,
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let result = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&hierarchy, &shards),
        &tt.test,
        &cfg,
    )?;
    println!("{:>6}  {:>10}  {:>8}", "iter", "test loss", "acc %");
    for p in result.curve.points() {
        println!(
            "{:>6}  {:>10.4}  {:>8.2}",
            p.iteration,
            p.test_loss,
            p.test_accuracy * 100.0
        );
    }

    // Estimate the problem constants of Assumptions 1–3 on edge 0's data
    // and evaluate the Theorem-1 bound h(τ, δℓ) for this run.
    let mut probe = model.clone();
    let edge0: Vec<_> = shards[..2].to_vec();
    let beta = estimate_beta(&mut probe, &shards[0], 3, 1);
    let rho = estimate_rho(&mut probe, &shards[0], 3, 1);
    let deltas = estimate_divergence(&mut probe, &edge0, 3, 1);
    println!("\nestimated β ≈ {beta:.3}, ρ ≈ {rho:.3}, δ_i,0 ≈ {deltas:.3?}");
    let consts = BoundConstants::new(f64::from(cfg.eta), beta.max(1e-6), f64::from(cfg.gamma));
    let delta0 = deltas.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "Theorem 1 bound h(τ={}, δℓ={delta0:.3}) = {:.4}",
        cfg.tau,
        consts.h(cfg.tau, delta0)
    );
    Ok(())
}
