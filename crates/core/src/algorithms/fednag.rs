//! FedNAG (Yang et al., TPDS 2022 \[21\]): federated learning with Nesterov
//! accelerated gradient — *worker momentum only*, two-tier.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::nag_local_step;

/// Two-tier FL with NAG at the workers and plain weighted averaging of
/// both model `x` and momentum `y` at the aggregator.
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::FedNag;
/// use hieradmo_core::Strategy;
///
/// let algo = FedNag::new(0.01, 0.5);
/// assert_eq!(algo.name(), "FedNAG");
/// ```
#[derive(Debug, Clone)]
pub struct FedNag {
    eta: f32,
    gamma: f32,
}

impl FedNag {
    /// Creates FedNAG with learning rate `eta` and worker momentum `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or `gamma ∉ [0, 1)`.
    pub fn new(eta: f32, gamma: f32) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        assert!(
            (0.0..1.0).contains(&gamma),
            "gamma must be in [0,1), got {gamma}"
        );
        FedNag { eta, gamma }
    }
}

impl Strategy for FedNag {
    fn name(&self) -> &'static str {
        "FedNAG"
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
        nag_local_step(self.eta, self.gamma, worker, grad);
    }

    fn edge_aggregate(&self, _k: usize, _view: &mut EdgeView<'_>) {}

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        // FedNAG aggregates both the model and the momentum state — both
        // are worker uploads, so both route through the robust rule.
        let x_avg = state.aggregate(
            state
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| (state.weights.worker_in_total(i), &w.x)),
        );
        let y_avg = state.aggregate(
            state
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| (state.weights.worker_in_total(i), &w.y)),
        );
        state.cloud.x_plus.clone_from(&x_avg);
        state.cloud.y_plus.clone_from(&y_avg);
        state.for_all_workers(|w| {
            w.x.clone_from(&x_avg);
            w.y.clone_from(&y_avg);
            w.reset_accumulators();
        });
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
        let res = quick_run(&FedNag::new(0.05, 0.5), Hierarchy::two_tier(4), cfg);
        assert!(res.curve.final_accuracy().unwrap() > 0.6);
    }

    #[test]
    fn beats_fedavg_on_average_loss() {
        use super::super::FedAvg;
        // Momentum should not be worse on this smooth problem.
        let cfg = RunConfig {
            pi: 1,
            tau: 10,
            ..quick_cfg()
        };
        let nag = quick_run(&FedNag::new(0.05, 0.5), Hierarchy::two_tier(4), cfg.clone());
        let avg = quick_run(&FedAvg::new(0.05), Hierarchy::two_tier(4), cfg);
        let nag_loss = nag.curve.final_train_loss().unwrap();
        let avg_loss = avg.curve.final_train_loss().unwrap();
        assert!(
            nag_loss <= avg_loss * 1.2,
            "FedNAG ({nag_loss}) should be comparable or better than FedAvg ({avg_loss})"
        );
    }
}
