//! HierAdMo — *Hierarchical Federated Learning with Adaptive Momentum in
//! Multi-Tier Networks* (ICDCS 2023) — and every baseline from the paper's
//! evaluation, on one simulation engine.
//!
//! # Architecture
//!
//! - [`config::RunConfig`] — hyper-parameters (`η`, `γ`, `γℓ`, `τ`, `π`,
//!   `T`, batch size, seeds).
//! - [`state::FlState`] — the complete state of a three-tier federation:
//!   per-worker model/momentum vectors and accumulators, per-edge momenta,
//!   cloud aggregates.
//! - [`strategy::Strategy`] — the hook interface an algorithm implements:
//!   `local_step` (every iteration), `edge_aggregate` (every `τ`),
//!   `cloud_aggregate` (every `τ·π`).
//! - [`driver`] — the one tick loop behind every entry point: walks
//!   Algorithm 1's aggregation schedule on a persistent scoped worker pool
//!   (see [`config::RunConfig::threads`]) for registered workers or
//!   sampled cohorts, fires aggregation hooks, and records a
//!   [`hieradmo_metrics::ConvergenceCurve`] plus per-phase timings.
//! - [`pool`] — the lane pool both training loops (this crate's tick loop
//!   and `hieradmo-simrt`'s event engine) run local-step segments and
//!   evaluations on, bitwise identically for any thread count.
//! - [`algorithms`] — **HierAdMo** (Algorithm 1) with adaptive or fixed
//!   `γℓ` (the fixed variant is the paper's HierAdMo-R), the three-tier
//!   baselines HierFAVG and CFL, and the two-tier baselines FedAvg, FedNAG,
//!   FedMom, SlowMo, Mime, FastSlowMo and FedADC.
//! - [`theory`] — the convergence-bound functions `h(x, δℓ)`, `s(τ)`,
//!   `j(τ, π, δℓ, δ)` of Theorems 1–4 plus empirical estimators for `β`,
//!   `ρ` and the gradient-divergence `δ`.
//! - [`virtual_update`] — the paper's two-level *virtual update* sequences
//!   (Eqs. 8–15), used to verify Theorem 1 empirically.
//!
//! # Example
//!
//! ```
//! use hieradmo_core::algorithms::HierAdMo;
//! use hieradmo_core::config::RunConfig;
//! use hieradmo_core::driver::run;
//! use hieradmo_data::partition::iid_partition;
//! use hieradmo_data::synthetic::SyntheticDataset;
//! use hieradmo_models::zoo;
//! use hieradmo_topology::Hierarchy;
//!
//! let tt = SyntheticDataset::mnist_like(8, 4, 1);
//! let hierarchy = Hierarchy::balanced(2, 2);
//! let shards = iid_partition(&tt.train, 4, 1);
//! let model = zoo::logistic_regression(&tt.train, 1);
//! let cfg = RunConfig { tau: 5, pi: 2, total_iters: 20, eval_every: 10, ..RunConfig::default() };
//! let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
//! let result = run(&algo, &model, &hierarchy, &shards, &tt.test, &cfg)?;
//! assert!(result.curve.final_accuracy().is_some());
//! # Ok::<(), hieradmo_core::driver::RunError>(())
//! ```

#![deny(missing_docs)]

pub mod adaptive;
pub mod algorithms;
pub mod byzantine;
pub mod checkpoint;
pub mod compression;
pub mod config;
pub mod driver;
pub mod elastic;
pub mod fleet;
pub mod pool;
pub mod population;
pub mod robust;
pub mod state;
pub mod strategy;
pub mod theory;
pub mod virtual_update;

pub use checkpoint::{Checkpoint, TrainingSnapshot};
pub use config::RunConfig;
pub use driver::{
    run, run_resumed, run_tiered, run_tiered_resumed, run_tiered_until, run_until, PhaseTimings,
    RunError, RunResult,
};
pub use elastic::{
    apply_churn_boundary, epoch_cuts, epoch_tree, initial_version, remap_adversaries, run_elastic,
    run_elastic_resumed, run_elastic_until,
};
pub use population::{
    run_virtual, run_virtual_tiered, run_virtual_tiered_resumed, run_virtual_tiered_until,
    ClientSampling, CohortSampler, ShardAssignment, StatePool, WorkerPopulation,
};
pub use robust::RobustAggregator;
pub use state::{CloudState, EdgeState, EdgeView, FlState, TierState, WorkerState};
pub use strategy::{
    default_middle_aggregate, default_middle_aggregate_stale, Strategy, Tier, TierScope,
    MIDDLE_AGE_CAP,
};
