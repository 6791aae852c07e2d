//! HierFAVG (Liu et al., ICC 2020 \[17\]): client–edge–cloud hierarchical
//! FedAvg — the momentum-free three-tier baseline.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::sgd_local_step;

/// Hierarchical FedAvg: plain local SGD, weighted model averaging at the
/// edge every `τ` iterations and at the cloud every `τπ`.
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::HierFavg;
/// use hieradmo_core::Strategy;
///
/// let algo = HierFavg::new(0.01);
/// assert_eq!(algo.name(), "HierFAVG");
/// ```
#[derive(Debug, Clone)]
pub struct HierFavg {
    eta: f32,
}

impl HierFavg {
    /// Creates HierFAVG with learning rate `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0`.
    pub fn new(eta: f32) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        HierFavg { eta }
    }
}

impl Strategy for HierFavg {
    fn name(&self) -> &'static str {
        "HierFAVG"
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
        sgd_local_step(self.eta, worker, grad);
    }

    fn edge_aggregate(&self, _k: usize, view: &mut EdgeView<'_>) {
        let avg = view.average(|w| &w.x);
        view.state.x_plus.clone_from(&avg);
        view.for_workers(|w| w.x.clone_from(&avg));
    }

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        let avg = state.cloud_average(|e| &e.x_plus);
        state.cloud.x_plus.clone_from(&avg);
        for e in &mut state.edges {
            e.x_plus.clone_from(&avg);
        }
        state.for_all_workers(|w| w.x.clone_from(&avg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{quick_cfg, quick_run};
    use hieradmo_topology::Hierarchy;

    #[test]
    fn learns_the_small_problem() {
        let res = quick_run(&HierFavg::new(0.05), Hierarchy::balanced(2, 2), quick_cfg());
        assert!(res.curve.final_accuracy().unwrap() > 0.6);
    }

    #[test]
    fn no_momentum_state_is_touched() {
        // HierFAVG never writes y/v; they must keep their initial values.
        use crate::algorithms::testutil::small_problem;
        use crate::driver::{run, RunSpec};
        let (_, test, shards, model) = small_problem(4);
        let cfg = quick_cfg();
        let h = Hierarchy::balanced(2, 2);
        let res = run(
            &HierFavg::new(0.05),
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg,
        )
        .unwrap();
        // Indirect check: it still converges (y/v untouched is structural,
        // asserted by the strategy not reading them).
        assert!(res.curve.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    #[should_panic(expected = "eta must be positive")]
    fn rejects_zero_eta() {
        let _ = HierFavg::new(0.0);
    }
}
