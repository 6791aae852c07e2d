//! CFL (Wang et al., INFOCOM 2021 \[18\]): resource-efficient federated
//! learning with hierarchical aggregation.
//!
//! **Substitution note (DESIGN.md §4).** The original CFL co-designs
//! aggregation with per-round resource budgets. The paper under
//! reproduction uses it purely as a *momentum-free three-tier baseline*
//! whose accuracy lands next to HierFAVG. We reproduce that role: a
//! hierarchical FedAvg in which only a resource-constrained subset of each
//! edge's workers uploads at every edge round (a deterministic rotating
//! subset of the configured participation fraction), with the edge model
//! still re-distributed to all workers.

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::sgd_local_step;

/// Resource-constrained hierarchical FedAvg.
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::Cfl;
/// use hieradmo_core::Strategy;
///
/// let algo = Cfl::new(0.01, 0.75); // 75% of each edge's workers per round
/// assert_eq!(algo.name(), "CFL");
/// ```
#[derive(Debug, Clone)]
pub struct Cfl {
    eta: f32,
    participation: f64,
}

impl Cfl {
    /// Creates CFL with learning rate `eta` and per-round participation
    /// fraction (e.g. `0.75` → three quarters of each edge's workers
    /// upload per round, rotating deterministically).
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or `participation ∉ (0, 1]`.
    pub fn new(eta: f32, participation: f64) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        assert!(
            participation > 0.0 && participation <= 1.0,
            "participation must be in (0,1], got {participation}"
        );
        Cfl { eta, participation }
    }

    /// The local worker indices (within an edge of `c` workers)
    /// participating in round `k`.
    fn participants(&self, k: usize, c: usize) -> Vec<usize> {
        let m = ((c as f64 * self.participation).ceil() as usize).clamp(1, c);
        // Rotate the window by the round index so every worker participates
        // equally often.
        (0..m).map(|j| (k + j) % c).collect()
    }
}

impl Strategy for Cfl {
    fn name(&self) -> &'static str {
        "CFL"
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

    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>) {
        let participants = self.participants(k, view.num_workers());
        let avg = view.aggregate(
            participants
                .iter()
                .map(|&j| (view.worker_weight(j), &view.workers[j].x)),
        );
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
        let res = quick_run(
            &Cfl::new(0.05, 0.75),
            Hierarchy::balanced(2, 2),
            quick_cfg(),
        );
        assert!(res.curve.final_accuracy().unwrap() > 0.55);
    }

    #[test]
    fn participation_rotates_over_rounds() {
        let cfl = Cfl::new(0.01, 0.5);
        let r1 = cfl.participants(1, 4);
        let r2 = cfl.participants(2, 4);
        assert_eq!(r1.len(), 2);
        assert_ne!(r1, r2, "window must rotate between rounds");
        // Over 4 rounds every worker participates.
        let mut seen = std::collections::HashSet::new();
        for k in 0..4 {
            seen.extend(cfl.participants(k, 4));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn full_participation_equals_hierfavg_selection() {
        let cfl = Cfl::new(0.01, 1.0);
        let mut p = cfl.participants(5, 3);
        p.sort_unstable();
        assert_eq!(p, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "participation must be in (0,1]")]
    fn rejects_zero_participation() {
        let _ = Cfl::new(0.01, 0.0);
    }
}
