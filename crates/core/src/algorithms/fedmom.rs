//! FedMom (Huo et al., 2020 \[19\]): *aggregator momentum only* — plain
//! local SGD plus server-side momentum over the pseudo-gradient.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::sgd_local_step;

/// Two-tier FL with server momentum.
///
/// At every aggregation the server forms the pseudo-gradient
/// `Δ = x_prev − x̄` (how far the round moved the average model), updates
/// its momentum `v ← β·v + Δ` and steps `x ← x_prev − v`.
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::FedMom;
/// use hieradmo_core::Strategy;
///
/// let algo = FedMom::new(0.01, 0.5);
/// assert_eq!(algo.name(), "FedMom");
/// ```
#[derive(Debug, Clone)]
pub struct FedMom {
    eta: f32,
    beta: f32,
}

impl FedMom {
    /// Creates FedMom with worker learning rate `eta` and server momentum
    /// factor `beta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or `beta ∉ [0, 1)`.
    pub fn new(eta: f32, beta: f32) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        assert!(
            (0.0..1.0).contains(&beta),
            "beta must be in [0,1), got {beta}"
        );
        FedMom { eta, beta }
    }
}

impl Strategy for FedMom {
    fn name(&self) -> &'static str {
        "FedMom"
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

    fn edge_aggregate(&self, _k: usize, _view: &mut EdgeView<'_>) {}

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        let x_avg = state.average_worker_models();
        // Pseudo-gradient of the round.
        let delta = &state.cloud.x_prev - &x_avg;
        state.cloud.v.scale_in_place(self.beta);
        state.cloud.v += &delta;
        let mut x_new = state.cloud.x_prev.clone();
        x_new -= &state.cloud.v;
        state.cloud.x_prev.clone_from(&x_new);
        state.cloud.x_plus.clone_from(&x_new);
        state.for_all_workers(|w| w.x.clone_from(&x_new));
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
        let res = quick_run(&FedMom::new(0.05, 0.5), Hierarchy::two_tier(4), cfg);
        assert!(res.curve.final_accuracy().unwrap() > 0.55);
    }

    #[test]
    fn zero_beta_reduces_to_fedavg() {
        use super::super::FedAvg;
        // With β = 0: v = Δ, x_new = x_prev − (x_prev − x̄) = x̄ exactly.
        let cfg = RunConfig {
            pi: 1,
            tau: 5,
            total_iters: 50,
            ..quick_cfg()
        };
        let fm = quick_run(&FedMom::new(0.05, 0.0), Hierarchy::two_tier(4), cfg.clone());
        let fa = quick_run(&FedAvg::new(0.05), Hierarchy::two_tier(4), cfg);
        let a = fm.curve.final_accuracy().unwrap();
        let b = fa.curve.final_accuracy().unwrap();
        assert!(
            (a - b).abs() < 1e-9,
            "β=0 FedMom ({a}) must equal FedAvg ({b})"
        );
    }
}
