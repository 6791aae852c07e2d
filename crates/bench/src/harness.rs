//! Assembly code: partition → topology → run, for both architectures.

use hieradmo_core::strategy::Tier;
use hieradmo_core::{run, RunConfig, RunResult, RunSpec, Strategy};
use hieradmo_data::partition::x_class_partition;
use hieradmo_data::Dataset;
use hieradmo_metrics::ConvergenceCurve;
use hieradmo_topology::Hierarchy;

use crate::scenarios::{Scale, Workload};

/// One algorithm's result on one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Final test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Full convergence curve.
    pub curve: ConvergenceCurve,
    /// Mean adapted `γℓ` per edge aggregation (HierAdMo diagnostics).
    pub gamma_trace: Vec<(usize, f32)>,
}

impl From<RunResult> for Outcome {
    fn from(r: RunResult) -> Self {
        Outcome {
            accuracy: r.curve.final_accuracy().unwrap_or(0.0),
            algorithm: r.algorithm,
            curve: r.curve,
            gamma_trace: r.gamma_trace,
        }
    }
}

/// Paper defaults for Table II: 4 workers, 2 edges × 2 workers.
pub const TABLE2_EDGES: usize = 2;
/// Workers per edge in the Table II topology.
pub const TABLE2_WORKERS_PER_EDGE: usize = 2;

/// Runs `strategy` on `workload` at `scale`, handling the two-tier /
/// three-tier topology split per the paper's fairness rule (two-tier
/// `τ = τ₃·π₃`, same data shards).
///
/// `seed` controls data generation, partitioning, model init and batching.
///
/// # Panics
///
/// Panics if the run fails (bad config combinations are programmer errors
/// in experiment code).
pub fn run_on_scenario(
    strategy: &dyn Strategy,
    workload: Workload,
    scale: Scale,
    seed: u64,
) -> Outcome {
    let tt = workload.dataset(scale, seed);
    let model = workload.model(&tt.train, seed.wrapping_add(100));
    let (tau, pi) = workload.tau_pi();
    let cfg = RunConfig {
        tau,
        pi,
        total_iters: workload.total_iters(scale),
        batch_size: scale.batch_size(),
        eval_every: (workload.total_iters(scale) / 8).max(1),
        seed,
        ..RunConfig::default()
    };
    let n_workers = TABLE2_EDGES * TABLE2_WORKERS_PER_EDGE;
    let x = workload.noniid_classes(tt.train.num_classes());
    let shards = x_class_partition(&tt.train, n_workers, x, seed.wrapping_add(7));
    run_partitioned(strategy, &model, &shards, &tt.test, &cfg, TABLE2_EDGES)
}

/// Runs a strategy on pre-partitioned shards, assembling the right
/// topology for its tier.
///
/// For three-tier strategies the shards are grouped into `edges` equal
/// groups; two-tier strategies get a flat topology over the same shards
/// with the `π`-folded schedule.
///
/// # Panics
///
/// Panics if the shard count is not divisible by `edges`, or the run
/// fails.
pub fn run_partitioned(
    strategy: &dyn Strategy,
    model: &hieradmo_models::Sequential,
    shards: &[Dataset],
    test: &Dataset,
    cfg: &RunConfig,
    edges: usize,
) -> Outcome {
    let n = shards.len();
    let (hierarchy, cfg) = match strategy.tier() {
        Tier::Three => {
            assert_eq!(n % edges, 0, "{n} shards cannot split into {edges} edges");
            (Hierarchy::balanced(edges, n / edges), cfg.clone())
        }
        Tier::Two => (Hierarchy::two_tier(n), cfg.two_tier_equivalent()),
    };
    run(
        strategy,
        model,
        &RunSpec::hierarchy(&hierarchy, shards),
        test,
        &cfg,
    )
    .unwrap_or_else(|e| panic!("{} run failed: {e}", strategy.name()))
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieradmo_core::algorithms::{FedAvg, HierAdMo};

    #[test]
    fn three_and_two_tier_strategies_share_the_harness() {
        // Tiny scale: prove the assembly works end to end for both tiers.
        let hier = HierAdMo::adaptive(0.05, 0.5);
        let out3 = run_on_scenario(&hier, Workload::LogisticMnist, Scale::Quick, 5);
        assert!(out3.accuracy > 0.3, "3-tier acc = {}", out3.accuracy);

        let fedavg = FedAvg::new(0.05);
        let out2 = run_on_scenario(&fedavg, Workload::LogisticMnist, Scale::Quick, 5);
        assert!(out2.accuracy > 0.2, "2-tier acc = {}", out2.accuracy);
    }
}
