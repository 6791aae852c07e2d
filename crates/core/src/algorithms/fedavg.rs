//! FedAvg (McMahan et al., AISTATS 2017 \[4\]): the classic two-tier
//! baseline — local SGD with periodic global averaging.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::sgd_local_step;

/// Two-tier FedAvg.
///
/// Runs on [`hieradmo_topology::Hierarchy::two_tier`] with `π = 1`; the
/// aggregation fires every `τ` iterations (`τ = τ₃·π₃` of the compared
/// three-tier run, per the paper's fairness rule).
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::FedAvg;
/// use hieradmo_core::strategy::Tier;
/// use hieradmo_core::Strategy;
///
/// let algo = FedAvg::new(0.01);
/// assert_eq!(algo.tier(), Tier::Two);
/// ```
#[derive(Debug, Clone)]
pub struct FedAvg {
    eta: f32,
}

impl FedAvg {
    /// Creates FedAvg with learning rate `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0`.
    pub fn new(eta: f32) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        FedAvg { eta }
    }
}

impl Strategy for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn tier(&self) -> Tier {
        Tier::Two
    }

    fn local_step(
        &self,
        _t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        sgd_local_step(self.eta, worker, grad);
    }

    fn edge_aggregate(&self, _k: usize, _view: &mut EdgeView<'_>) {
        // Two-tier: the single "edge" is the cloud; work happens in
        // cloud_aggregate, which fires at the same tick (π = 1).
    }

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        let avg = state.average_worker_models();
        state.cloud.x_plus.clone_from(&avg);
        state.for_all_workers(|w| w.x.clone_from(&avg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{quick_cfg, quick_run};
    use crate::RunConfig;
    use hieradmo_topology::Hierarchy;

    #[test]
    fn learns_the_small_problem() {
        let cfg = RunConfig {
            pi: 1,
            tau: 10,
            ..quick_cfg()
        };
        let res = quick_run(&FedAvg::new(0.05), Hierarchy::two_tier(4), cfg);
        assert!(res.curve.final_accuracy().unwrap() > 0.55);
    }

    #[test]
    fn rejects_three_tier_topology() {
        use crate::algorithms::testutil::small_problem;
        use crate::driver::{run, RunSpec};
        let (_, test, shards, model) = small_problem(4);
        let cfg = RunConfig {
            pi: 1,
            tau: 10,
            ..quick_cfg()
        };
        let err = run(
            &FedAvg::new(0.05),
            &model,
            &RunSpec::hierarchy(&Hierarchy::balanced(2, 2), &shards),
            &test,
            &cfg,
        )
        .unwrap_err();
        assert!(err.to_string().contains("two-tier"));
    }
}
