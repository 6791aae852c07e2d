//! Non-i.i.d. showdown (the paper's Fig. 2(e)–(g) scenario in miniature):
//! sweep the heterogeneity level x ∈ {3, 6, 9} classes-per-worker and
//! watch how each algorithm family copes.
//!
//! ```text
//! cargo run --release --example noniid_showdown
//! ```

use hieradmo::core::algorithms::{FedAvg, FedNag, HierAdMo, HierFavg};
use hieradmo::core::strategy::Tier;
use hieradmo::core::{run, RunConfig, RunError, RunSpec, Strategy};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::topology::Hierarchy;

fn main() -> Result<(), RunError> {
    let tt = SyntheticDataset::mnist_like(40, 10, 3);
    let model = zoo::logistic_regression(&tt.train, 3);
    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 200,
        eval_every: 200,
        batch_size: 16,
        ..RunConfig::default()
    };

    let algorithms: Vec<Box<dyn Strategy>> = vec![
        Box::new(HierAdMo::adaptive(cfg.eta, cfg.gamma)),
        Box::new(HierAdMo::reduced(cfg.eta, cfg.gamma, cfg.gamma_edge)),
        Box::new(HierFavg::new(cfg.eta)),
        Box::new(FedNag::new(cfg.eta, cfg.gamma)),
        Box::new(FedAvg::new(cfg.eta)),
    ];

    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "algorithm", "3-class %", "6-class %", "9-class %"
    );
    for algo in &algorithms {
        print!("{:<12}", algo.name());
        for x in [3usize, 6, 9] {
            let shards = x_class_partition(&tt.train, 4, x, 11);
            let (hierarchy, cfg) = match algo.tier() {
                Tier::Three => (Hierarchy::balanced(2, 2), cfg.clone()),
                Tier::Two => (Hierarchy::two_tier(4), cfg.two_tier_equivalent()),
            };
            let result = run(
                algo.as_ref(),
                &model,
                &RunSpec::hierarchy(&hierarchy, &shards),
                &tt.test,
                &cfg,
            )?;
            print!(
                " {:>12.2}",
                result.curve.final_accuracy().unwrap_or(0.0) * 100.0
            );
        }
        println!();
    }
    println!("\nExpected shape: accuracy drops as x shrinks (harsher non-iid),");
    println!("three-tier momentum methods stay on top throughout.");
    Ok(())
}
