//! Cross-silo scale (the paper's Fig. 2(d) scenario): 100 workers under
//! 10 edge nodes, with parallel worker execution in the driver.
//!
//! ```text
//! cargo run --release --example large_scale
//! ```

use std::time::Instant;

use hieradmo::core::algorithms::{FedAvg, HierAdMo};
use hieradmo::core::strategy::Tier;
use hieradmo::core::{run, RunConfig, RunError, RunSpec, Strategy};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::topology::Hierarchy;

fn main() -> Result<(), RunError> {
    const WORKERS: usize = 100;
    const EDGES: usize = 10;

    let tt = SyntheticDataset::mnist_like(60, 20, 17);
    let shards = x_class_partition(&tt.train, WORKERS, 3, 17);
    let model = zoo::logistic_regression(&tt.train, 17);
    println!(
        "federation: {WORKERS} workers on {EDGES} edges, {} training samples, \
         3-class non-iid",
        tt.train.len()
    );

    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 200,
        eval_every: 40,
        batch_size: 16,
        ..RunConfig::default()
    };

    for algo in [
        &HierAdMo::adaptive(cfg.eta, cfg.gamma) as &dyn Strategy,
        &FedAvg::new(cfg.eta),
    ] {
        let (hierarchy, run_cfg) = match algo.tier() {
            Tier::Three => (Hierarchy::balanced(EDGES, WORKERS / EDGES), cfg.clone()),
            Tier::Two => (Hierarchy::two_tier(WORKERS), cfg.two_tier_equivalent()),
        };
        let started = Instant::now();
        let result = run(
            algo,
            &model,
            &RunSpec::hierarchy(&hierarchy, &shards),
            &tt.test,
            &run_cfg,
        )?;
        println!(
            "{:<10} final accuracy {:>6.2}%  ({} eval points, {:.1}s simulation)",
            result.algorithm,
            result.curve.final_accuracy().unwrap_or(0.0) * 100.0,
            result.curve.len(),
            started.elapsed().as_secs_f64(),
        );
    }
    println!("\nThe Table II ranking persists at N = 100 (paper Fig. 2(d)).");
    Ok(())
}
