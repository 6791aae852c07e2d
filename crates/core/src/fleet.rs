//! Multi-seed experiment orchestration: repeat a run across seeds and
//! summarize — the machinery behind every "mean ± std" cell of Table II.
//!
//! Seeds drive *everything* downstream (data order, batching, any
//! stochastic algorithm choice), so two [`repeat`] calls with the same
//! arguments produce identical summaries.

use hieradmo_data::Dataset;
use hieradmo_metrics::{ConvergenceCurve, MeanStd};
use hieradmo_models::Model;
use hieradmo_topology::Hierarchy;

use crate::config::RunConfig;
use crate::driver::{run, RunError, RunResult, RunSpec};
use crate::strategy::Strategy;

/// Aggregated outcome of repeated seeded runs of one algorithm.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Final test accuracy across seeds.
    pub accuracy: MeanStd,
    /// Final training loss across seeds.
    pub train_loss: MeanStd,
    /// Every seed's full curve, in seed order.
    pub curves: Vec<ConvergenceCurve>,
}

impl FleetResult {
    /// Iterations to reach `target` accuracy per seed (`None` where a seed
    /// never reached it).
    pub fn iterations_to_accuracy(&self, target: f64) -> Vec<Option<usize>> {
        self.curves
            .iter()
            .map(|c| c.iterations_to_accuracy(target))
            .collect()
    }
}

/// Runs `strategy` once per seed in `seeds`, varying only
/// [`RunConfig::seed`], and summarizes.
///
/// # Errors
///
/// Propagates the first [`RunError`]; an empty `seeds` slice is reported
/// as a bad config.
pub fn repeat<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    base: &RunConfig,
    seeds: &[u64],
) -> Result<FleetResult, RunError>
where
    M: Model + Clone,
    S: Strategy + ?Sized,
{
    if seeds.is_empty() {
        return Err(RunError::BadConfig("need at least one seed".into()));
    }
    let mut results: Vec<RunResult> = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let cfg = RunConfig {
            seed,
            ..base.clone()
        };
        results.push(run(
            strategy,
            model,
            &RunSpec::hierarchy(hierarchy, worker_data),
            test_data,
            &cfg,
        )?);
    }
    let accs: Vec<f64> = results
        .iter()
        .map(|r| r.curve.final_accuracy().unwrap_or(0.0))
        .collect();
    let losses: Vec<f64> = results
        .iter()
        .map(|r| r.curve.final_train_loss().unwrap_or(f64::NAN))
        .collect();
    Ok(FleetResult {
        algorithm: strategy.name().to_string(),
        accuracy: MeanStd::of(&accs),
        train_loss: MeanStd::of(&losses),
        curves: results.into_iter().map(|r| r.curve).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{quick_cfg, small_problem};
    use crate::algorithms::HierAdMo;

    #[test]
    fn repeat_summarizes_across_seeds() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let cfg = RunConfig {
            total_iters: 100,
            ..quick_cfg()
        };
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let fleet = repeat(&algo, &model, &h, &shards, &test, &cfg, &[0, 1, 2]).unwrap();
        assert_eq!(fleet.curves.len(), 3);
        assert_eq!(fleet.algorithm, "HierAdMo");
        assert!((0.0..=1.0).contains(&fleet.accuracy.mean));
        assert!(fleet.accuracy.std >= 0.0);
        let t = fleet.iterations_to_accuracy(0.5);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn repeat_is_deterministic() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let cfg = RunConfig {
            total_iters: 60,
            eval_every: 30,
            ..quick_cfg()
        };
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let a = repeat(&algo, &model, &h, &shards, &test, &cfg, &[7, 8]).unwrap();
        let b = repeat(&algo, &model, &h, &shards, &test, &cfg, &[7, 8]).unwrap();
        assert_eq!(a.curves, b.curves);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn empty_seed_list_errors() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let err = repeat(&algo, &model, &h, &shards, &test, &quick_cfg(), &[]).unwrap_err();
        assert!(matches!(err, RunError::BadConfig(_)));
    }
}
