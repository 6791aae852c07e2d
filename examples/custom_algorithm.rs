//! Extending the library: implement a brand-new federated algorithm
//! against the [`Strategy`] trait and run it on the existing engine, data
//! and baselines — nothing else to touch.
//!
//! The demo algorithm is *HierProx*: hierarchical FedAvg with a FedProx-
//! style proximal pull toward the last edge model, a common heterogeneity
//! regularizer that the paper does not evaluate.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use hieradmo::core::algorithms::HierFavg;
use hieradmo::core::state::{EdgeView, FlState, WorkerState};
use hieradmo::core::strategy::{Strategy, Tier};
use hieradmo::core::{run, RunConfig, RunError, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::tensor::Vector;
use hieradmo::topology::Hierarchy;

/// Hierarchical FedAvg + proximal term: each local step follows
/// `x ← x − η(∇F(x) + μ·(x − x_anchor))`, anchoring workers to the last
/// edge model to curb client drift under non-i.i.d. data.
#[derive(Debug, Clone)]
struct HierProx {
    eta: f32,
    mu: f32,
}

impl Strategy for HierProx {
    fn name(&self) -> &'static str {
        "HierProx"
    }

    fn tier(&self) -> Tier {
        Tier::Three
    }

    fn local_step(
        &self,
        _t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        // The gradient lands in the scratch buffer the engine's lane lends
        // the worker for this call; put it back so the lane gets it again,
        // and the step stays allocation-free apart from the drift term.
        let mut g = std::mem::take(&mut worker.scratch);
        grad(&worker.x, &mut g);
        // The anchor (last distributed edge model) lives in `y`, which
        // this algorithm repurposes since it runs no worker momentum. It
        // reads no interval sum, so it overrides no `init`: its workers
        // hold `x`, `y` and `v` only. An algorithm that reads `Σ∇F`, `Σy`
        // or `Σv` declares them in `init` with `FlState::declare_sums`.
        let mut drift = worker.x.clone();
        drift -= &worker.y;
        g.axpy(self.mu, &drift);
        worker.x.axpy(-self.eta, &g);
        worker.scratch = g;
    }

    fn edge_aggregate(&self, _k: usize, view: &mut EdgeView<'_>) {
        let avg = view.average(|w| &w.x);
        view.state.x_plus = avg.clone();
        view.for_workers(|w| {
            w.x = avg.clone();
            w.y = avg.clone(); // refresh the proximal anchor
        });
    }

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        let avg = state.cloud_average(|e| &e.x_plus);
        state.cloud.x_plus = avg.clone();
        for e in &mut state.edges {
            e.x_plus = avg.clone();
        }
        state.for_all_workers(|w| {
            w.x = avg.clone();
            w.y = avg.clone();
        });
    }
}

fn main() -> Result<(), RunError> {
    let tt = SyntheticDataset::mnist_like(40, 10, 23);
    let hierarchy = Hierarchy::balanced(2, 2);
    // Harsh 2-class non-iid: exactly the regime proximal terms target.
    let shards = x_class_partition(&tt.train, 4, 2, 23);
    let model = zoo::logistic_regression(&tt.train, 23);
    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 200,
        eval_every: 200,
        batch_size: 16,
        ..RunConfig::default()
    };

    println!("{:<12} {:>8} {:>12}", "algorithm", "acc %", "train loss");
    for (name, strategy) in [
        ("HierFAVG", &HierFavg::new(cfg.eta) as &dyn Strategy),
        (
            "HierProx",
            &HierProx {
                eta: cfg.eta,
                mu: 0.1,
            },
        ),
    ] {
        let res = run(
            strategy,
            &model,
            &RunSpec::hierarchy(&hierarchy, &shards),
            &tt.test,
            &cfg,
        )?;
        println!(
            "{:<12} {:>8.2} {:>12.4}",
            name,
            res.curve.final_accuracy().unwrap_or(0.0) * 100.0,
            res.curve.final_train_loss().unwrap_or(f64::NAN),
        );
    }
    println!("\nA new algorithm is ~60 lines: implement Strategy's three hooks and\nevery dataset, model, topology and experiment harness works with it.");
    Ok(())
}
