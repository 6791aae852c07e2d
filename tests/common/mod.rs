//! Shared fixtures for the top-level integration suites (`chaos`,
//! `simrt_equivalence`, `fault_injection`, `checkpoint_restore`): one
//! small non-iid federation for co-simulation equivalence checks and one
//! for dropout/convergence checks, so every suite exercises the same
//! problems and the boilerplate lives in one place.

// Each test binary compiles this module independently and uses a subset.
#![allow(dead_code)]

use hieradmo::core::population::{ClientSampling, WorkerPopulation};
use hieradmo::core::{RunConfig, RunResult};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::{generate, SyntheticDataset, SyntheticSpec};
use hieradmo::data::{Dataset, FeatureShape};
use hieradmo::models::{zoo, Sequential};
use hieradmo::netsim::{
    Architecture, CrashProfile, DelaySpikes, FaultPlan, NetworkEnv, PermanentCrash,
};
use hieradmo::simrt::{SimConfig, SimResult, SyncPolicy};
use hieradmo::topology::{Hierarchy, TierSpec, TierTree};
use proptest::Strategy as GenStrategy;
use rand::rngs::StdRng;
use rand::Rng;

/// A small 2-edge × 2-worker federation for co-simulation checks.
pub struct SimFixture {
    pub hierarchy: Hierarchy,
    pub shards: Vec<Dataset>,
    pub train: Dataset,
    pub test: Dataset,
    pub cfg: RunConfig,
}

/// 2 edges × 2 workers, non-iid shards, and a schedule whose eval ticks
/// (3, 6, 9, 12, 15, 18, 20 with τ=5, π=2) cover all three evaluation
/// paths: mid-interval, edge-boundary (t=15, k=3 odd) and cloud-boundary
/// (t=20, p=2).
pub fn sim_fixture(dropout: f64) -> SimFixture {
    let tt = SyntheticDataset::mnist_like(60, 30, 11);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 20,
        eval_every: 3,
        batch_size: 8,
        seed: 42,
        dropout,
        threads: Some(1),
        ..RunConfig::default()
    };
    SimFixture {
        hierarchy,
        shards,
        train: tt.train,
        test: tt.test,
        cfg,
    }
}

/// [`sim_fixture`]'s 2 × 2 federation and schedule over HAR-like data:
/// flat 561-feature inputs, 6 classes, 2 classes per worker.
pub fn har_fixture() -> SimFixture {
    let tt = SyntheticDataset::har_like(40, 20, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    SimFixture {
        shards,
        train: tt.train,
        test: tt.test,
        ..sim_fixture(0.0)
    }
}

/// One pinned `zoo::mlp` trajectory: the whole parameter vector by its
/// bit hash, plus the γ trace and the curve's accuracies.
#[derive(Debug, PartialEq)]
pub struct MlpPin {
    pub label: &'static str,
    pub params_hash: u64,
    pub sum: f32,
    pub gamma: Vec<(usize, f32)>,
    pub accuracy: Vec<f64>,
}

impl MlpPin {
    /// The pin row a finished run would need to match.
    pub fn of(label: &'static str, params: &[f32], gamma: &[(usize, f32)], curve: &[f64]) -> Self {
        MlpPin {
            label,
            params_hash: bits_hash(params),
            sum: params.iter().sum(),
            gamma: gamma.to_vec(),
            accuracy: curve.to_vec(),
        }
    }
}

/// FNV-1a over the bit patterns of `values`: pins every element of a
/// vector by value, including the sign of zeros.
pub fn bits_hash(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The paper-testbed network over [`sim_fixture`]'s four workers, under
/// the given policy, with no fault plan attached.
pub fn sim_config(net_seed: u64, policy: SyncPolicy) -> SimConfig {
    SimConfig::new(
        NetworkEnv::paper_testbed(4),
        Architecture::ThreeTier,
        50_000,
        net_seed,
        policy,
    )
}

/// A wider 2-edge × 4-worker federation for Byzantine-robustness checks:
/// with four workers per edge a coordinate-wise trimmed mean
/// (`trim_ratio = 0.25`) can drop exactly one corrupted upload per edge,
/// which the 2 × 2 fixture is too small to express (one Byzantine worker
/// there is already half its edge). Heterogeneity is milder than in
/// [`sim_fixture`] (5 of 10 classes per worker): with 2-class shards an
/// honest outlier is often the *only* carrier of a class's signal, so
/// order-statistic defenses trim away accuracy even with no attack — this
/// fixture isolates the Byzantine effect instead.
pub fn wide_sim_fixture() -> SimFixture {
    let tt = SyntheticDataset::mnist_like(120, 40, 11);
    let hierarchy = Hierarchy::balanced(2, 4);
    let shards = x_class_partition(&tt.train, 8, 5, 11);
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 200,
        eval_every: 50,
        batch_size: 8,
        seed: 42,
        threads: Some(1),
        ..RunConfig::default()
    };
    SimFixture {
        hierarchy,
        shards,
        train: tt.train,
        test: tt.test,
        cfg,
    }
}

/// The paper-testbed network over [`wide_sim_fixture`]'s eight workers.
pub fn wide_sim_config(net_seed: u64, policy: SyncPolicy) -> SimConfig {
    SimConfig::new(
        NetworkEnv::paper_testbed(8),
        Architecture::ThreeTier,
        50_000,
        net_seed,
        policy,
    )
}

/// A tiny 4-class synthetic problem (flat 16-feature inputs, 2 classes per
/// worker) for dropout and convergence-degradation checks.
pub fn synthetic_setup() -> (Dataset, Vec<Dataset>, Sequential) {
    let spec = SyntheticSpec {
        num_classes: 4,
        shape: FeatureShape::Flat(16),
        noise: 0.5,
        prototype_scale: 1.0,
        max_shift: 0,
        class_group: 1,
    };
    let tt = generate(&spec, 30, 15, 41);
    let shards = x_class_partition(&tt.train, 4, 2, 41);
    let model = zoo::logistic_regression(&tt.train, 41);
    (tt.test, shards, model)
}

/// The run configuration paired with [`synthetic_setup`]: long enough to
/// converge, with per-tick worker dropout at the given rate.
pub fn dropout_cfg(dropout: f64) -> RunConfig {
    RunConfig {
        eta: 0.05,
        tau: 5,
        pi: 2,
        total_iters: 200,
        batch_size: 16,
        eval_every: 100,
        threads: Some(1),
        dropout,
        ..RunConfig::default()
    }
}

/// Proptest strategy over bounded, always-valid [`TierTree`]s, shared by
/// the `tier_equivalence`, `chaos` and `adversary` suites.
///
/// Every generated tree passes [`TierTree::new`]'s validator by
/// construction: depth is drawn from `depth`, each level's fanout from
/// `1..=max_fanout` and interval from `1..=max_interval`. Middle levels
/// (strictly between the root and the leaf-parent tier) become
/// pass-throughs (interval 1, identity aggregation) with probability
/// `pass_through_bias`, so collapse-equivalence properties see both
/// removable and load-bearing middles. Link classes follow the testbed
/// convention: WAN at the root boundary, LAN at the leaves, MAN between.
#[derive(Debug, Clone, Copy)]
pub struct TierTreeStrategy {
    /// Inclusive tree-depth bounds; depth 3 is the seed shape.
    pub depth: (usize, usize),
    /// Per-level fanout drawn from `1..=max_fanout`.
    pub max_fanout: usize,
    /// Per-level interval drawn from `1..=max_interval`.
    pub max_interval: usize,
    /// Probability that a middle level is a pass-through.
    pub pass_through_bias: f64,
}

/// Small trees cheap enough to train on inside a property: at most
/// 16 workers and τ·π ≤ 8.
pub fn small_tier_trees() -> TierTreeStrategy {
    TierTreeStrategy {
        depth: (3, 5),
        max_fanout: 2,
        max_interval: 2,
        pass_through_bias: 0.35,
    }
}

/// Wider structural-only trees (up to 4^4 = 256 workers): never train on
/// these, they exercise the topology arithmetic.
pub fn structural_tier_trees() -> TierTreeStrategy {
    TierTreeStrategy {
        depth: (3, 6),
        max_fanout: 4,
        max_interval: 5,
        pass_through_bias: 0.25,
    }
}

impl GenStrategy for TierTreeStrategy {
    type Value = TierTree;

    fn generate(&self, rng: &mut StdRng) -> TierTree {
        let depth = rng.gen_range(self.depth.0..=self.depth.1);
        let n_levels = depth - 1;
        let levels: Vec<TierSpec> = (0..n_levels)
            .map(|d| {
                let fanout = rng.gen_range(1..=self.max_fanout);
                let is_middle = d >= 1 && d + 1 < n_levels;
                let mut spec = if is_middle && rng.gen_bool(self.pass_through_bias) {
                    TierSpec::pass_through(fanout)
                } else {
                    TierSpec::new(fanout, rng.gen_range(1..=self.max_interval))
                };
                spec.link_class = match d {
                    0 => hieradmo::topology::LinkClass::Wan,
                    _ if d + 1 == n_levels => hieradmo::topology::LinkClass::Lan,
                    _ => hieradmo::topology::LinkClass::Man,
                };
                spec
            })
            .collect();
        TierTree::new(levels).expect("generated levels are positive")
    }
}

/// A training fixture sized to `tree`: non-iid shards over its workers
/// and a [`RunConfig`] whose `(τ, π)` match the tree, running two full
/// root rounds. Usable with `run_tiered` directly or with `simulate` via
/// [`tiered_sim_config`] and [`TierTree::edge_hierarchy`].
pub fn tiered_fixture(tree: &TierTree) -> SimFixture {
    let n = tree.num_workers();
    let tt = SyntheticDataset::mnist_like((15 * n).max(60), 30, 11);
    let shards = x_class_partition(&tt.train, n, 3, 11);
    let round = tree.tau() * tree.pi_total();
    let cfg = RunConfig {
        tau: tree.tau(),
        pi: tree.pi_total(),
        total_iters: 2 * round,
        eval_every: 3,
        batch_size: 8,
        seed: 42,
        threads: Some(1),
        ..RunConfig::default()
    };
    SimFixture {
        hierarchy: tree.edge_hierarchy(),
        shards,
        train: tt.train,
        test: tt.test,
        cfg,
    }
}

/// The paper-testbed network over `tree`'s workers with the tree
/// attached, under the given policy (N-tier runs require
/// [`SyncPolicy::FullSync`]).
pub fn tiered_sim_config(tree: &TierTree, net_seed: u64, policy: SyncPolicy) -> SimConfig {
    SimConfig::new(
        NetworkEnv::paper_testbed(tree.num_workers()),
        Architecture::ThreeTier,
        50_000,
        net_seed,
        policy,
    )
    .with_tiers(tree.clone())
}

/// The registered trees of the depth×policy×chaos sampling matrix:
/// depths 3, 4 and 5, each with six *registered* workers per edge (the
/// sampled cohort is smaller — see [`sampled_tier_fixture`]), τ = 2 and
/// every non-leaf interval 2, so middle boundaries, root boundaries and
/// plain edge rounds all occur and differ at every depth.
pub fn sampled_matrix_trees() -> Vec<TierTree> {
    vec![
        TierTree::three_tier(2, 6, 2, 2),
        TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::new(2, 2),
            TierSpec::new(6, 2),
        ])
        .unwrap(),
        TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::new(2, 2),
            TierSpec::new(2, 2),
            TierSpec::new(6, 2),
        ])
        .unwrap(),
    ]
}

/// A sampled-run fixture sized to one of [`sampled_matrix_trees`]: the
/// registered population spanned by the tree's leaf tier over 4
/// round-robin shards of a small 4-class problem, sampling 2 of the 6
/// registered workers per edge per round, running two full root rounds.
pub struct SampledTierFixture {
    pub population: WorkerPopulation,
    pub shards: Vec<Dataset>,
    pub train: Dataset,
    pub test: Dataset,
    pub cfg: RunConfig,
}

/// See [`SampledTierFixture`]. The problem is the 16-feature synthetic of
/// [`synthetic_setup`] so matrix cells stay cheap at depth 5.
pub fn sampled_tier_fixture(tree: &TierTree) -> SampledTierFixture {
    let spec = SyntheticSpec {
        num_classes: 4,
        shape: FeatureShape::Flat(16),
        noise: 0.5,
        prototype_scale: 1.0,
        max_shift: 0,
        class_group: 1,
    };
    let tt = generate(&spec, 48, 16, 41);
    let shards = x_class_partition(&tt.train, 4, 2, 41);
    let population = WorkerPopulation::from_tier_tree(tree, 4).unwrap();
    let round = tree.tau() * tree.pi_total();
    let cfg = RunConfig {
        eta: 0.05,
        tau: tree.tau(),
        pi: tree.pi_total(),
        total_iters: 2 * round,
        eval_every: round,
        batch_size: 4,
        seed: 42,
        threads: Some(1),
        sampling: ClientSampling::PerEdge { count: 2 },
        ..RunConfig::default()
    };
    SampledTierFixture {
        population,
        shards,
        train: tt.train,
        test: tt.test,
        cfg,
    }
}

/// The three policies of the sampling matrix. The deadline quorum still
/// needs at least 1 of a 2-slot cohort; the async age bound is low enough
/// to engage on multi-round runs.
pub fn matrix_policies() -> [SyncPolicy; 3] {
    [
        SyncPolicy::FullSync,
        SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 150.0,
        },
        SyncPolicy::AsyncAge { max_staleness: 2 },
    ]
}

/// The fault plan of the sampling matrix's chaos cells: per-round
/// transient crashes, one permanently crashing registered worker and
/// step-delay spikes. Link faults also compose with sampled cohorts
/// (their retry protocol only stretches virtual time) but are exercised
/// by their own gate in `sampling_equivalence`, so the matrix keeps the
/// plan that perturbs the model trajectory.
pub fn sampled_fault_plan() -> FaultPlan {
    FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.25,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![PermanentCrash {
            worker: 1,
            at_ms: 50.0,
        }],
        link: None,
        spikes: Some(DelaySpikes {
            prob: 0.25,
            factor: 3.0,
        }),
    }
}

/// Asserts that a co-simulation reproduced the core driver's trajectory
/// bitwise: curve, final parameters and both diagnostics traces.
pub fn assert_bitwise_equal(reference: &RunResult, sim: &SimResult, label: &str) {
    assert_eq!(reference.curve, sim.curve, "{label}: curve differs");
    assert_eq!(
        reference.final_params, sim.final_params,
        "{label}: final params differ"
    );
    assert_eq!(
        reference.gamma_trace, sim.gamma_trace,
        "{label}: gamma trace differs"
    );
    assert_eq!(
        reference.cos_trace, sim.cos_trace,
        "{label}: cos trace differs"
    );
}
