//! Watch the adaptive edge momentum factor work (the paper's core idea):
//! run HierAdMo and print the measured worker/edge momentum agreement
//! (cos θ, Eq. 6) and the adapted γℓ at every edge aggregation, next to
//! HierAdMo-R runs with fixed γℓ values.
//!
//! ```text
//! cargo run --release --example adaptive_momentum
//! ```

use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::{run, RunConfig, RunError, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::topology::Hierarchy;

fn main() -> Result<(), RunError> {
    let tt = SyntheticDataset::mnist_like(40, 10, 5);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 3, 5); // harsh non-iid
    let model = zoo::logistic_regression(&tt.train, 5);
    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 200,
        eval_every: 200,
        batch_size: 16,
        ..RunConfig::default()
    };

    // Adaptive run: print the γℓ trace.
    let adaptive = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let result = run(
        &adaptive,
        &model,
        &RunSpec::hierarchy(&hierarchy, &shards),
        &tt.test,
        &cfg,
    )?;
    println!("adaptive γℓ per edge aggregation (mean over edges):");
    for ((k, gamma), (_, cos)) in result.gamma_trace.iter().zip(&result.cos_trace) {
        let bar = "#".repeat((gamma * 40.0) as usize);
        println!("  k={k:>3}  cosθ={cos:>6.3}  γℓ={gamma:>5.3}  {bar}");
    }
    let adaptive_acc = result.curve.final_accuracy().unwrap_or(0.0);
    println!("adaptive final accuracy: {:.2}%\n", adaptive_acc * 100.0);

    // Exhaustive fixed γℓ (the Fig. 2(i)–(k) comparison).
    println!("{:<12} {:>10}", "fixed γℓ", "acc %");
    let mut best = (0.0f32, 0.0f64);
    for ge in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
        let reduced = HierAdMo::reduced(cfg.eta, cfg.gamma, ge);
        let r = run(
            &reduced,
            &model,
            &RunSpec::hierarchy(&hierarchy, &shards),
            &tt.test,
            &cfg,
        )?;
        let acc = r.curve.final_accuracy().unwrap_or(0.0);
        if acc > best.1 {
            best = (ge, acc);
        }
        println!("{ge:<12} {:>10.2}", acc * 100.0);
    }
    println!(
        "\nbest fixed γℓ = {} ({:.2}%); adaptive reached {:.2}% without tuning.",
        best.0,
        best.1 * 100.0,
        adaptive_acc * 100.0
    );
    Ok(())
}
