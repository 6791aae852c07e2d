//! The paper's algorithm and all ten evaluation baselines.
//!
//! Categories follow Section V-B:
//!
//! 1. **Three-tier with momentum**: [`HierAdMo`] (adaptive `γℓ`, the
//!    contribution) and HierAdMo-R ([`HierAdMo::reduced`], fixed `γℓ`).
//! 2. **Three-tier without momentum**: [`HierFavg`], [`Cfl`].
//! 3. **Two-tier with momentum**: [`FastSlowMo`], [`FedAdc`], [`FedNag`],
//!    [`FedMom`], [`SlowMo`], [`Mime`].
//! 4. **Two-tier without momentum**: [`FedAvg`].
//!
//! All baselines are re-implemented from their original papers' update
//! rules at the level of detail the comparison requires (see each type's
//! docs and DESIGN.md §4 for the two role-approximations, CFL and Mime).

mod cfl;
mod fastslowmo;
mod fedadc;
mod fedavg;
mod fedmom;
mod fednag;
mod hieradmo;
mod hierfavg;
mod mime;
mod slowmo;

pub use cfl::Cfl;
pub use fastslowmo::FastSlowMo;
pub use fedadc::FedAdc;
pub use fedavg::FedAvg;
pub use fedmom::FedMom;
pub use fednag::FedNag;
pub use hieradmo::{GammaMode, HierAdMo};
pub use hierfavg::HierFavg;
pub use mime::Mime;
pub use slowmo::SlowMo;

use hieradmo_tensor::kernels::{self, NagSums};
use hieradmo_tensor::Vector;

use crate::state::WorkerState;
use crate::strategy::Strategy;

/// Plain SGD local step: `x ← x − η·∇F(x)` (no momentum, used by FedAvg,
/// HierFAVG, CFL). Allocation-free: the gradient lands in the scratch
/// buffer the lane lends the worker for the step.
pub(crate) fn sgd_local_step(
    eta: f32,
    worker: &mut WorkerState,
    grad: &mut dyn FnMut(&Vector, &mut Vector),
) {
    let mut g = std::mem::take(&mut worker.scratch);
    grad(&worker.x, &mut g);
    worker.x.axpy(-eta, &g);
    worker.scratch = g;
}

/// Worker NAG step (Algorithm 1 lines 5–6) with edge-interval accumulation
/// (line 9's sums):
///
/// ```text
/// y_t = x_{t−1} − η ∇F(x_{t−1})
/// x_t = y_t + γ (y_t − y_{t−1})
/// ```
///
/// Also maintains `v = y_t − y_{t−1}`, the velocity form of Appendix A
/// (Eqs. 24–25). The sums `Σ ∇F_{i,ℓ}(x^t)` and `Σ y^t` run over
/// t = (k−1)τ … kτ−1, so they take the gradient and `y_{t−1}` *before*
/// the update. The step updates the sums the worker holds, which are the
/// ones its strategy declared ([`crate::state::IntervalSums`]).
///
/// Allocation-free: the gradient lands in the scratch buffer the lane
/// lends the worker, and [`kernels::nag_step`] updates the state and the
/// held sums in place in one pass, bitwise identical to the textbook
/// clone-based formulation.
///
/// # Panics
///
/// Panics if the worker holds a combination of sums no NAG strategy
/// declares (`Σ∇F` alone, say).
pub(crate) fn nag_local_step(
    eta: f32,
    gamma: f32,
    worker: &mut WorkerState,
    grad: &mut dyn FnMut(&Vector, &mut Vector),
) {
    let mut g = std::mem::take(&mut worker.scratch);
    grad(&worker.x, &mut g);
    let held = worker.interval_sums();
    let w = &mut *worker;
    let [ga, ya, va] =
        [&mut w.grad_accum, &mut w.y_accum, &mut w.v_accum].map(Vector::as_mut_slice);
    let sums = match (held.grad, held.y, held.v) {
        (false, false, false) => NagSums::None,
        (true, true, false) => NagSums::GradY(ga, ya),
        (false, false, true) => NagSums::V(va),
        (true, false, true) => NagSums::GradV(ga, va),
        _ => panic!("no NAG step updates the interval sums {held:?}"),
    };
    let [x, y, v] = [&mut w.x, &mut w.y, &mut w.v].map(Vector::as_mut_slice);
    kernels::nag_step(x, y, v, sums, g.as_slice(), eta, gamma);
    worker.steps += 1;
    worker.scratch = g;
}

/// All eleven algorithms of Table II with the paper's hyper-parameters,
/// boxed for table-style iteration in experiments.
///
/// `eta`/`gamma`/`gamma_edge` follow the table's setting (`γ = γℓ = 0.5`,
/// `η = 0.01`). The returned order matches the rows of Table II.
pub fn table2_lineup(eta: f32, gamma: f32, gamma_edge: f32) -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(HierAdMo::adaptive(eta, gamma)),
        Box::new(HierAdMo::reduced(eta, gamma, gamma_edge)),
        Box::new(HierFavg::new(eta)),
        Box::new(Cfl::new(eta, 0.75)),
        Box::new(FastSlowMo::new(eta, gamma, gamma_edge)),
        Box::new(FedAdc::new(eta, gamma)),
        Box::new(FedMom::new(eta, gamma)),
        Box::new(SlowMo::new(eta, gamma, 1.0)),
        Box::new(FedNag::new(eta, gamma)),
        Box::new(Mime::new(eta, gamma)),
        Box::new(FedAvg::new(eta)),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for algorithm tests: a small separable problem and a
    //! driver invocation helper.

    use hieradmo_data::partition::x_class_partition;
    use hieradmo_data::Dataset;
    use hieradmo_models::{zoo, Sequential};
    use hieradmo_topology::Hierarchy;

    use crate::config::RunConfig;
    use crate::driver::{run, RunResult, RunSpec};
    use crate::strategy::Strategy;

    /// A small 4-class flat classification problem, 2-class non-iid over
    /// `n` workers.
    pub fn small_problem(n_workers: usize) -> (Dataset, Dataset, Vec<Dataset>, Sequential) {
        let spec = hieradmo_data::synthetic::SyntheticSpec {
            num_classes: 4,
            shape: hieradmo_data::FeatureShape::Flat(16),
            noise: 0.3,
            prototype_scale: 1.0,
            max_shift: 0,
            class_group: 1,
        };
        let tt = hieradmo_data::synthetic::generate(&spec, 30, 10, 42);
        let shards = x_class_partition(&tt.train, n_workers, 2, 7);
        let model = zoo::logistic_regression(&tt.train, 3);
        (tt.train, tt.test, shards, model)
    }

    /// Runs a strategy on [`small_problem`] with a short schedule.
    pub fn quick_run(strategy: &dyn Strategy, hierarchy: Hierarchy, cfg: RunConfig) -> RunResult {
        let (_, test, shards, model) = small_problem(hierarchy.num_workers());
        run(
            strategy,
            &model,
            &RunSpec::hierarchy(&hierarchy, &shards),
            &test,
            &cfg,
        )
        .expect("run should succeed")
    }

    /// Default quick config: η=0.05 for fast convergence on the small
    /// problem.
    pub fn quick_cfg() -> RunConfig {
        RunConfig {
            eta: 0.05,
            tau: 5,
            pi: 2,
            total_iters: 200,
            batch_size: 16,
            eval_every: 50,
            threads: Some(1),
            ..RunConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Tier;

    #[test]
    fn lineup_matches_table2_rows() {
        let lineup = table2_lineup(0.01, 0.5, 0.5);
        let names: Vec<&str> = lineup.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "HierAdMo",
                "HierAdMo-R",
                "HierFAVG",
                "CFL",
                "FastSlowMo",
                "FedADC",
                "FedMom",
                "SlowMo",
                "FedNAG",
                "Mime",
                "FedAvg"
            ]
        );
        // Category split: first four are three-tier, the rest two-tier.
        for s in &lineup[..4] {
            assert_eq!(s.tier(), Tier::Three, "{}", s.name());
        }
        for s in &lineup[4..] {
            assert_eq!(s.tier(), Tier::Two, "{}", s.name());
        }
    }
}
