//! FastSlowMo (Yang et al., IEEE TAI 2022 \[23\]): *combined* worker and
//! aggregator momenta in two-tier FL — the closest two-tier relative of
//! HierAdMo.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::nag_local_step;

/// Two-tier FL with fast (worker NAG) and slow (server) momenta.
///
/// Workers run NAG locally; at every aggregation the server averages both
/// model and worker momentum (the "fast" state), then applies a slow
/// momentum step over the averaged model: `u ← β·u + (x_prev − x̄)`,
/// `x ← x_prev − u`.
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::FastSlowMo;
/// use hieradmo_core::Strategy;
///
/// let algo = FastSlowMo::new(0.01, 0.5, 0.5);
/// assert_eq!(algo.name(), "FastSlowMo");
/// ```
#[derive(Debug, Clone)]
pub struct FastSlowMo {
    eta: f32,
    gamma: f32,
    beta: f32,
}

impl FastSlowMo {
    /// Creates FastSlowMo with learning rate `eta`, worker momentum
    /// `gamma`, and server momentum `beta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or either momentum factor is outside `[0, 1)`.
    pub fn new(eta: f32, gamma: f32, beta: f32) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        assert!(
            (0.0..1.0).contains(&gamma),
            "gamma must be in [0,1), got {gamma}"
        );
        assert!(
            (0.0..1.0).contains(&beta),
            "beta must be in [0,1), got {beta}"
        );
        FastSlowMo { eta, gamma, beta }
    }
}

impl Strategy for FastSlowMo {
    fn name(&self) -> &'static str {
        "FastSlowMo"
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
        // Fast state: aggregate model and worker momentum — both worker
        // uploads, so both route through the robust rule.
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
        // Slow momentum over the averaged model.
        let delta = &state.cloud.x_prev - &x_avg;
        state.cloud.v.scale_in_place(self.beta);
        state.cloud.v += &delta;
        let mut x_new = state.cloud.x_prev.clone();
        x_new -= &state.cloud.v;
        state.cloud.x_prev.clone_from(&x_new);
        state.cloud.x_plus.clone_from(&x_new);
        state.cloud.y_plus.clone_from(&y_avg);
        state.for_all_workers(|w| {
            w.x.clone_from(&x_new);
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
        let res = quick_run(
            &FastSlowMo::new(0.05, 0.5, 0.5),
            Hierarchy::two_tier(4),
            cfg,
        );
        assert!(res.curve.final_accuracy().unwrap() > 0.6);
    }

    #[test]
    fn zero_beta_matches_fednag() {
        use super::super::FedNag;
        // β = 0 removes the slow momentum: x_new = x̄ and y is averaged —
        // exactly FedNAG's aggregation.
        let cfg = RunConfig {
            pi: 1,
            tau: 5,
            total_iters: 100,
            ..quick_cfg()
        };
        let fsm = quick_run(
            &FastSlowMo::new(0.05, 0.5, 0.0),
            Hierarchy::two_tier(4),
            cfg.clone(),
        );
        let nag = quick_run(&FedNag::new(0.05, 0.5), Hierarchy::two_tier(4), cfg);
        // x_prev − (x_prev − x̄) equals x̄ only up to float rounding, so the
        // curves agree to tolerance rather than bit-exactly.
        for (a, b) in fsm.curve.points().iter().zip(nag.curve.points()) {
            assert_eq!(a.iteration, b.iteration);
            assert!((a.train_loss - b.train_loss).abs() < 1e-4);
            assert!((a.test_accuracy - b.test_accuracy).abs() < 0.02);
        }
    }
}
