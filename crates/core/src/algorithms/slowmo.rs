//! SlowMo (Wang et al., ICLR 2020 \[20\]): slow server momentum over local
//! SGD, with an explicit slow learning rate.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::sgd_local_step;

/// Two-tier FL with *slow momentum*:
///
/// `v ← β·v + Δ`, `x ← x_prev − α·v`, where `Δ = x_prev − x̄` is the round's
/// pseudo-gradient and `α` the slow learning rate (SlowMo's `α = 1`
/// recovers FedMom's update).
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::SlowMo;
/// use hieradmo_core::Strategy;
///
/// let algo = SlowMo::new(0.01, 0.5, 1.0);
/// assert_eq!(algo.name(), "SlowMo");
/// ```
#[derive(Debug, Clone)]
pub struct SlowMo {
    eta: f32,
    beta: f32,
    alpha: f32,
}

impl SlowMo {
    /// Creates SlowMo with worker learning rate `eta`, slow momentum
    /// factor `beta` and slow learning rate `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0`, `beta ∉ [0, 1)`, or `alpha <= 0`.
    pub fn new(eta: f32, beta: f32, alpha: f32) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        assert!(
            (0.0..1.0).contains(&beta),
            "beta must be in [0,1), got {beta}"
        );
        assert!(alpha > 0.0, "alpha must be positive, got {alpha}");
        SlowMo { eta, beta, alpha }
    }
}

impl Strategy for SlowMo {
    fn name(&self) -> &'static str {
        "SlowMo"
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
        let delta = &state.cloud.x_prev - &x_avg;
        state.cloud.v.scale_in_place(self.beta);
        state.cloud.v += &delta;
        let mut x_new = state.cloud.x_prev.clone();
        x_new.axpy(-self.alpha, &state.cloud.v);
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
        let res = quick_run(&SlowMo::new(0.05, 0.5, 1.0), Hierarchy::two_tier(4), cfg);
        assert!(res.curve.final_accuracy().unwrap() > 0.55);
    }

    #[test]
    fn alpha_one_matches_fedmom_exactly() {
        use super::super::FedMom;
        let cfg = RunConfig {
            pi: 1,
            tau: 5,
            total_iters: 100,
            ..quick_cfg()
        };
        let sm = quick_run(
            &SlowMo::new(0.05, 0.5, 1.0),
            Hierarchy::two_tier(4),
            cfg.clone(),
        );
        let fm = quick_run(&FedMom::new(0.05, 0.5), Hierarchy::two_tier(4), cfg);
        // Same update rule and same seeds ⇒ identical curves.
        assert_eq!(sm.curve, fm.curve);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_zero_alpha() {
        let _ = SlowMo::new(0.05, 0.5, 0.0);
    }
}
