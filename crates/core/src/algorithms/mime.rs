//! Mime (Karimireddy et al., 2020 \[22\]): mimicking centralized momentum in
//! federated learning by shipping a *server statistic* into local updates.
//!
//! **Substitution note (DESIGN.md §4).** We implement the Mime-lite form:
//! the server maintains a momentum statistic `m` from the clients'
//! aggregated round gradients and distributes it; every local step then
//! uses the *blended* direction `(1−β)·g + β·m` with `m` held fixed within
//! the round. This is the role Mime plays in the paper's comparison (a
//! two-tier method applying server statistics locally).

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, IntervalSums, WorkerState};
use crate::strategy::{Strategy, Tier};

/// Two-tier Mime-style FL.
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::Mime;
/// use hieradmo_core::Strategy;
///
/// let algo = Mime::new(0.01, 0.5);
/// assert_eq!(algo.name(), "Mime");
/// ```
#[derive(Debug, Clone)]
pub struct Mime {
    eta: f32,
    beta: f32,
}

impl Mime {
    /// Creates Mime with learning rate `eta` and momentum blend `beta`.
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
        Mime { eta, beta }
    }
}

impl Strategy for Mime {
    fn name(&self) -> &'static str {
        "Mime"
    }

    fn tier(&self) -> Tier {
        Tier::Two
    }

    fn init(&self, state: &mut FlState) {
        // The local step sums the round's gradients for the statistic.
        state.declare_sums(IntervalSums {
            grad: true,
            ..Default::default()
        });
    }

    fn local_step(
        &self,
        _t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        let mut g = std::mem::take(&mut worker.scratch);
        grad(&worker.x, &mut g);
        // Track the round's gradients for the server statistic update.
        worker.grad_accum += &g;
        worker.steps += 1;
        // Blended local direction: (1−β) g + β m, with m in worker.v
        // (distributed at the last aggregation), formed in place in the
        // scratch buffer — same per-element expressions as the allocating
        // form, so bitwise-neutral.
        g.scale_in_place(1.0 - self.beta);
        g.axpy(self.beta, &worker.v);
        worker.x.axpy(-self.eta, &g);
        worker.scratch = g;
    }

    fn edge_aggregate(&self, _k: usize, _view: &mut EdgeView<'_>) {}

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        // Mean round gradient across workers: each grad_accum holds the
        // *sum* of the round's mini-batch gradients, so normalize by the
        // counted steps — otherwise the statistic scales with τπ and the
        // blended local direction diverges.
        let g_avg = state
            .aggregate(
                state
                    .workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (state.weights.worker_in_total(i), &w.grad_accum)),
            )
            .scaled(1.0 / state.workers[0].steps.max(1) as f32);
        // m ← (1−β)·ḡ + β·m
        state.cloud.v.scale_in_place(self.beta);
        state.cloud.v.axpy(1.0 - self.beta, &g_avg);

        let x_avg = state.average_worker_models();
        state.cloud.x_plus.clone_from(&x_avg);
        let m = state.cloud.v.clone();
        state.for_all_workers(|w| {
            w.x.clone_from(&x_avg);
            w.v.clone_from(&m);
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
        let res = quick_run(&Mime::new(0.05, 0.5), Hierarchy::two_tier(4), cfg);
        assert!(res.curve.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn statistic_is_distributed_to_workers() {
        use hieradmo_topology::Weights;
        let h = Hierarchy::two_tier(2);
        let w = Weights::uniform(&h);
        let mut state = FlState::new(h, w, &Vector::zeros(2));
        state.workers[0].grad_accum = Vector::from(vec![2.0, 0.0]);
        state.workers[1].grad_accum = Vector::from(vec![0.0, 2.0]);
        state.workers[0].steps = 1;
        state.workers[1].steps = 1;
        let mime = Mime::new(0.1, 0.5);
        mime.cloud_aggregate(1, &mut state);
        // m = 0.5 * mean(grads) = 0.5 * [1, 1].
        for w in &state.workers {
            assert_eq!(w.v.as_slice(), &[0.5, 0.5]);
            assert_eq!(w.grad_accum.as_slice(), &[0.0, 0.0]);
        }
    }
}
