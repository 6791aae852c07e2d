//! Every aggregation reaches the one hook.
//!
//! Both engines fire every edge, middle and root aggregation through
//! [`Strategy::tier_aggregate_stale`]. [`OneHook`] wraps HierAdMo and
//! overrides only that aggregation hook: it counts the calls per scope
//! and checks that each staleness slice has one entry per child of the
//! firing node. Run through it, the tick loop (`run` over a hierarchy, a
//! tree and a sampled population) and the event engine (`simulate` under every
//! policy, `simulate_virtual`) fire the hook exactly once per aggregation
//! and reproduce the unwrapped run bit for bit. An engine that called any
//! other hook would bypass the counts — and, on a stale firing, the
//! wrapped algorithm's staleness weighting.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use common::{
    sampled_matrix_trees, sampled_tier_fixture, sim_config, sim_fixture, tiered_fixture,
    tiered_sim_config,
};
use hieradmo::core::algorithms::HierAdMo;

use hieradmo::core::{
    run, EdgeView, FlState, RunResult, RunSpec, Strategy, Tier, TierScope, WorkerState,
};
use hieradmo::models::zoo;
use hieradmo::netsim::{Architecture, NetworkEnv};
use hieradmo::simrt::{simulate, simulate_virtual, SimConfig, SimResult, SyncPolicy};
use hieradmo::tensor::Vector;
use hieradmo::topology::{Hierarchy, TierAggregation, TierSpec, TierTree};

/// HierAdMo behind a counter on [`Strategy::tier_aggregate_stale`].
struct OneHook {
    inner: HierAdMo,
    /// Calls per scope: edge, middle, root.
    calls: [AtomicUsize; 3],
    /// Calls whose staleness slice does not match the node's children.
    misshapen: AtomicUsize,
    /// Calls with some stale child.
    stale: AtomicUsize,
}

impl OneHook {
    fn new() -> Self {
        OneHook {
            inner: HierAdMo::adaptive(0.01, 0.5),
            calls: Default::default(),
            misshapen: AtomicUsize::new(0),
            stale: AtomicUsize::new(0),
        }
    }

    /// `[edge, middle, root]` call counts, after checking that every call
    /// had a well-shaped staleness slice.
    fn counts(&self) -> [usize; 3] {
        assert_eq!(
            self.misshapen.load(Ordering::SeqCst),
            0,
            "misshapen staleness"
        );
        self.calls.each_ref().map(|c| c.load(Ordering::SeqCst))
    }
}

impl Strategy for OneHook {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn tier(&self) -> Tier {
        self.inner.tier()
    }
    fn init(&self, state: &mut FlState) {
        self.inner.init(state);
    }
    fn local_step(
        &self,
        t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        self.inner.local_step(t, worker, grad);
    }
    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>) {
        self.inner.edge_aggregate(k, view);
    }
    fn cloud_aggregate(&self, p: usize, state: &mut FlState) {
        self.inner.cloud_aggregate(p, state);
    }
    fn tier_aggregate_stale(&self, scope: TierScope<'_, '_>, round: usize, staleness: &[usize]) {
        let (slot, children) = match &scope {
            TierScope::Edge(view) => (0, view.num_workers()),
            TierScope::Middle { depth, state, .. } => {
                let tree = state.tree.as_ref().expect("middle scopes need a tree");
                (1, tree.edges_per_node(*depth))
            }
            TierScope::Root(state) => (2, state.edges.len()),
        };
        self.calls[slot].fetch_add(1, Ordering::SeqCst);
        if staleness.len() != children {
            self.misshapen.fetch_add(1, Ordering::SeqCst);
        }
        if staleness.iter().any(|&a| a > 0) {
            self.stale.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.tier_aggregate_stale(scope, round, staleness);
    }
    fn global_params(&self, state: &FlState) -> Vector {
        self.inner.global_params(state)
    }
    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        self.inner.check_topology(hierarchy)
    }
}

/// `[edge, middle, root]` firings of a synchronous run of `rounds` edge
/// rounds over `tree`: every edge every round, every non-identity middle
/// node at its tier's boundary, the root every `π_total` rounds.
fn synchronous_firings(tree: &TierTree, rounds: usize) -> [usize; 3] {
    let middle = tree
        .middle_depths()
        .filter(|&d| tree.levels()[d].aggregation != TierAggregation::Identity)
        .map(|d| tree.nodes_at(d) * (rounds / tree.sync_rounds(d)))
        .sum();
    [tree.num_edges() * rounds, middle, rounds / tree.pi_total()]
}

fn assert_runs_equal(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.curve, b.curve, "{label}: curve differs");
    assert_eq!(a.final_params, b.final_params, "{label}: params differ");
    assert_eq!(a.gamma_trace, b.gamma_trace, "{label}: γ trace differs");
    assert_eq!(a.tier_gamma, b.tier_gamma, "{label}: tier γ differs");
}

fn assert_sims_equal(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.curve, b.curve, "{label}: curve differs");
    assert_eq!(a.final_params, b.final_params, "{label}: params differ");
    assert_eq!(a.gamma_trace, b.gamma_trace, "{label}: γ trace differs");
    assert_eq!(a.tier_gamma, b.tier_gamma, "{label}: tier γ differs");
    assert_eq!(a.events, b.events, "{label}: event count differs");
    assert_eq!(
        a.simulated_seconds, b.simulated_seconds,
        "{label}: clock differs"
    );
}

/// A depth-4 tree with an averaging middle tier: 2 middle nodes over 4
/// edges of 2 workers, the middle tier firing every 2 edge rounds and the
/// root every 4.
fn depth4_tree() -> TierTree {
    TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 3),
    ])
    .unwrap()
}

#[test]
fn the_tick_loop_fires_every_tier_through_the_one_hook() {
    // `run` over the three-tier fixture.
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let hooked = OneHook::new();
    let got = run(
        &hooked,
        &model,
        &RunSpec::hierarchy(&f.hierarchy, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();
    let want = run(
        &hooked.inner,
        &model,
        &RunSpec::hierarchy(&f.hierarchy, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();
    assert_runs_equal(&got, &want, "run");
    let tree = TierTree::three_tier(2, 2, f.cfg.tau, f.cfg.pi);
    let rounds = f.cfg.total_iters / f.cfg.tau;
    assert_eq!(hooked.counts(), synchronous_firings(&tree, rounds), "run");
    assert_eq!(hooked.stale.load(Ordering::SeqCst), 0, "run is synchronous");

    // A depth-4 tree source.
    let tree = depth4_tree();
    let f = tiered_fixture(&tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let hooked = OneHook::new();
    let got = run(
        &hooked,
        &model,
        &RunSpec::tree(&tree, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();
    let want = run(
        &hooked.inner,
        &model,
        &RunSpec::tree(&tree, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();
    assert_runs_equal(&got, &want, "run_tiered");
    let rounds = f.cfg.total_iters / f.cfg.tau;
    assert_eq!(hooked.counts(), synchronous_firings(&tree, rounds));
    assert!(hooked.counts()[1] > 0, "the middle tier fires");

    // A sampled depth-4 population source.
    let tree = &sampled_matrix_trees()[1];
    let f = sampled_tier_fixture(tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let hooked = OneHook::new();
    let go = |s: &dyn Strategy| {
        run(
            s,
            &model,
            &RunSpec::population(&f.population, &f.shards, Some(tree)),
            &f.test,
            &f.cfg,
        )
        .unwrap()
    };
    let (got, want) = (go(&hooked), go(&hooked.inner));
    assert_runs_equal(&got, &want, "run_virtual_tiered");
    let rounds = f.cfg.total_iters / f.cfg.tau;
    assert_eq!(hooked.counts(), synchronous_firings(tree, rounds));
    assert!(hooked.counts()[1] > 0, "the middle tier fires");
}

#[test]
fn the_event_engine_fires_every_tier_through_the_one_hook() {
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let tree = TierTree::three_tier(2, 2, f.cfg.tau, f.cfg.pi);
    let rounds = f.cfg.total_iters / f.cfg.tau;
    let policies = [
        SyncPolicy::FullSync,
        SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 50.0,
        },
        SyncPolicy::AsyncAge { max_staleness: 2 },
    ];
    for policy in policies {
        let label = policy.label();
        let sim = sim_config(7, policy);
        let hooked = OneHook::new();
        let go = |s: &dyn Strategy| {
            simulate(s, &model, &f.hierarchy, &f.shards, &f.test, &f.cfg, &sim).unwrap()
        };
        let (got, want) = (go(&hooked), go(&hooked.inner));
        assert_sims_equal(&got, &want, &label);
        let counts = hooked.counts();
        if policy == SyncPolicy::FullSync {
            assert_eq!(counts, synchronous_firings(&tree, rounds), "{label}");
        } else {
            // A relaxed registered run traces every edge firing in order
            // and evaluates at every cloud firing plus once at the end.
            let firings = [got.gamma_trace.len(), 0, got.curve.len() - 1];
            assert_eq!(counts, firings, "{label}");
            assert!(
                hooked.stale.load(Ordering::SeqCst) > 0,
                "{label}: no stale firing"
            );
        }
    }

    // `simulate_virtual` over a sampled depth-4 population.
    let tree = &sampled_matrix_trees()[1];
    let f = sampled_tier_fixture(tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let sim = SimConfig::new(
        NetworkEnv::paper_testbed(4),
        Architecture::ThreeTier,
        50_000,
        7,
        SyncPolicy::FullSync,
    )
    .with_tiers(tree.clone());
    let hooked = OneHook::new();
    let go = |s: &dyn Strategy| {
        simulate_virtual(s, &model, &f.population, &f.shards, &f.test, &f.cfg, &sim).unwrap()
    };
    let (got, want) = (go(&hooked), go(&hooked.inner));
    assert_sims_equal(&got, &want, "simulate_virtual");
    let rounds = f.cfg.total_iters / f.cfg.tau;
    assert_eq!(hooked.counts(), synchronous_firings(tree, rounds));
    assert!(hooked.counts()[1] > 0, "the middle tier fires");

    // `simulate` at depth 4 with registered workers.
    let tree = depth4_tree();
    let f = tiered_fixture(&tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let sim = tiered_sim_config(&tree, 7, SyncPolicy::FullSync);
    let hooked = OneHook::new();
    let go = |s: &dyn Strategy| {
        simulate(s, &model, &f.hierarchy, &f.shards, &f.test, &f.cfg, &sim).unwrap()
    };
    let (got, want) = (go(&hooked), go(&hooked.inner));
    assert_sims_equal(&got, &want, "simulate depth 4");
    let rounds = f.cfg.total_iters / f.cfg.tau;
    assert_eq!(hooked.counts(), synchronous_firings(&tree, rounds));
}
