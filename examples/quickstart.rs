//! Quickstart: train HierAdMo on a non-i.i.d. MNIST-like federation and
//! print its convergence curve next to plain hierarchical FedAvg.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hieradmo::core::algorithms::{HierAdMo, HierFavg};
use hieradmo::core::{run, RunConfig, RunError, RunSpec, Strategy};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::topology::Hierarchy;

fn main() -> Result<(), RunError> {
    // A 2-edge × 2-worker federation (the paper's Table II topology) over
    // MNIST-like data where every worker sees only 5 of the 10 classes.
    let tt = SyntheticDataset::mnist_like(40, 10, 7);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 5, 7);
    let model = zoo::logistic_regression(&tt.train, 7);

    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 200,
        eval_every: 20,
        batch_size: 16,
        ..RunConfig::default()
    };

    for algo in [
        &HierAdMo::adaptive(cfg.eta, cfg.gamma) as &dyn Strategy,
        &HierFavg::new(cfg.eta),
    ] {
        let result = run(
            algo,
            &model,
            &RunSpec::hierarchy(&hierarchy, &shards),
            &tt.test,
            &cfg,
        )?;
        println!("=== {} ===", result.algorithm);
        println!("{:>6}  {:>10}  {:>8}", "iter", "test loss", "acc %");
        for p in result.curve.points() {
            println!(
                "{:>6}  {:>10.4}  {:>8.2}",
                p.iteration,
                p.test_loss,
                p.test_accuracy * 100.0
            );
        }
        println!();
    }
    Ok(())
}
