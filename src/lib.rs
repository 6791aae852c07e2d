//! # HierAdMo
//!
//! A from-scratch Rust reproduction of *Hierarchical Federated Learning
//! with Adaptive Momentum in Multi-Tier Networks* (Yang, Fu, Bao, Yuan,
//! Zhou — IEEE ICDCS 2023).
//!
//! HierAdMo runs Nesterov momentum at **two** levels of a
//! worker → edge → cloud federation and adapts the edge momentum factor
//! `γℓ` online from the measured agreement (cosine) between worker
//! gradients and momenta, so the two momenta never fight each other.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `hieradmo-core` | HierAdMo + 10 baselines, driver, theory |
//! | [`models`] | `hieradmo-models` | linear/logistic/MLP/CNN/VGG/ResNet zoo |
//! | [`data`] | `hieradmo-data` | synthetic datasets, non-iid partitioners |
//! | [`topology`] | `hieradmo-topology` | hierarchies, schedules, weights |
//! | [`netsim`] | `hieradmo-netsim` | trace-driven delay simulation |
//! | [`simrt`] | `hieradmo-simrt` | event-driven co-simulation runtime |
//! | [`metrics`] | `hieradmo-metrics` | curves, summaries, tables |
//! | [`tensor`] | `hieradmo-tensor` | vectors/matrices/conv substrate |
//!
//! # Quickstart
//!
//! ```
//! use hieradmo::core::algorithms::HierAdMo;
//! use hieradmo::core::{run, RunConfig, RunSpec};
//! use hieradmo::data::partition::x_class_partition;
//! use hieradmo::data::synthetic::SyntheticDataset;
//! use hieradmo::models::zoo;
//! use hieradmo::topology::Hierarchy;
//!
//! // 2 edges × 2 workers on a 2-class non-iid MNIST-like problem.
//! let tt = SyntheticDataset::mnist_like(10, 5, 1);
//! let hierarchy = Hierarchy::balanced(2, 2);
//! let shards = x_class_partition(&tt.train, 4, 2, 1);
//! let model = zoo::logistic_regression(&tt.train, 1);
//!
//! let cfg = RunConfig { tau: 5, pi: 2, total_iters: 20, eval_every: 20, ..RunConfig::default() };
//! let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
//! let result = run(&algo, &model, &RunSpec::hierarchy(&hierarchy, &shards), &tt.test, &cfg)?;
//! println!("accuracy: {:?}", result.curve.final_accuracy());
//! # Ok::<(), hieradmo::core::RunError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries that regenerate every table
//! and figure of the paper.

pub use hieradmo_core as core;
pub use hieradmo_data as data;
pub use hieradmo_metrics as metrics;
pub use hieradmo_models as models;
pub use hieradmo_netsim as netsim;
pub use hieradmo_simrt as simrt;
pub use hieradmo_tensor as tensor;
pub use hieradmo_topology as topology;

/// Convenience re-exports for the common workflow: build data → partition
/// → pick a model and an algorithm → run.
///
/// ```
/// use hieradmo::prelude::*;
///
/// let tt = SyntheticDataset::mnist_like(10, 5, 1);
/// let shards = x_class_partition(&tt.train, 4, 5, 1);
/// let model = zoo::logistic_regression(&tt.train, 1);
/// let cfg = RunConfig { tau: 5, pi: 2, total_iters: 10, eval_every: 10, ..RunConfig::default() };
/// let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
/// let res = run(&algo, &model, &RunSpec::hierarchy(&Hierarchy::balanced(2, 2), &shards), &tt.test, &cfg)?;
/// assert!(res.curve.final_accuracy().is_some());
/// # Ok::<(), hieradmo::core::RunError>(())
/// ```
pub mod prelude {
    pub use hieradmo_core::algorithms::{
        Cfl, FastSlowMo, FedAdc, FedAvg, FedMom, FedNag, GammaMode, HierAdMo, HierFavg, Mime,
        SlowMo,
    };
    pub use hieradmo_core::{run, RunConfig, RunError, RunResult, RunSpec, Strategy};
    pub use hieradmo_data::partition::{dirichlet_partition, iid_partition, x_class_partition};
    pub use hieradmo_data::synthetic::SyntheticDataset;
    pub use hieradmo_data::{Batcher, Dataset, FeatureShape, Sample, Target};
    pub use hieradmo_metrics::{ConvergenceCurve, EvalPoint, MeanStd};
    pub use hieradmo_models::{zoo, Model, Sequential};
    pub use hieradmo_tensor::Vector;
    pub use hieradmo_topology::{Hierarchy, Schedule, Weights};
}
