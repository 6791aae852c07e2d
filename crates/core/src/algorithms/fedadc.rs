//! FedADC (Ozfatura et al., ISIT 2021 \[24\]): accelerated federated
//! learning with *drift control* — server momentum embedded into every
//! local step so local updates stay aligned with the global direction.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

/// Two-tier FL with drift-controlled local momentum.
///
/// Each worker runs heavy-ball steps `v ← β·v + g`, `x ← x − η·v`; at every
/// aggregation the server averages the velocities into a global momentum
/// and re-seeds every worker's `v` with it, so the next round's local
/// updates start from the *global* direction instead of a drifted local
/// one (the drift-control mechanism).
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::FedAdc;
/// use hieradmo_core::Strategy;
///
/// let algo = FedAdc::new(0.01, 0.5);
/// assert_eq!(algo.name(), "FedADC");
/// ```
#[derive(Debug, Clone)]
pub struct FedAdc {
    eta: f32,
    beta: f32,
}

impl FedAdc {
    /// Creates FedADC with learning rate `eta` and momentum factor `beta`.
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
        FedAdc { eta, beta }
    }
}

impl Strategy for FedAdc {
    fn name(&self) -> &'static str {
        "FedADC"
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
        let mut g = std::mem::take(&mut worker.scratch);
        grad(&worker.x, &mut g);
        worker.v.scale_in_place(self.beta);
        worker.v += &g;
        worker.x.axpy(-self.eta, &worker.v);
        worker.scratch = g;
    }

    fn edge_aggregate(&self, _k: usize, _view: &mut EdgeView<'_>) {}

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        let x_avg = state.aggregate(
            state
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| (state.weights.worker_in_total(i), &w.x)),
        );
        let v_avg = state.aggregate(
            state
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| (state.weights.worker_in_total(i), &w.v)),
        );
        state.cloud.x_plus.clone_from(&x_avg);
        state.cloud.v.clone_from(&v_avg);
        state.for_all_workers(|w| {
            w.x.clone_from(&x_avg);
            w.v.clone_from(&v_avg);
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
        let res = quick_run(&FedAdc::new(0.05, 0.5), Hierarchy::two_tier(4), cfg);
        assert!(res.curve.final_accuracy().unwrap() > 0.55);
    }

    #[test]
    fn velocities_are_reseeded_at_aggregation() {
        use hieradmo_topology::Weights;
        let h = Hierarchy::two_tier(2);
        let w = Weights::uniform(&h);
        let mut state = FlState::new(h, w, &Vector::zeros(2));
        state.workers[0].v = Vector::from(vec![1.0, 0.0]);
        state.workers[1].v = Vector::from(vec![0.0, 1.0]);
        let adc = FedAdc::new(0.1, 0.5);
        adc.cloud_aggregate(1, &mut state);
        for w in &state.workers {
            assert_eq!(w.v.as_slice(), &[0.5, 0.5]);
        }
    }
}
