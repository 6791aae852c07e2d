//! Depth-equivalence suite for the N-tier hierarchy generalization.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Depth-3 identity** — running any algorithm over
//!    `TierTree::three_tier` is *bitwise* the seed three-tier code path,
//!    in both engines (a hierarchy vs a tree source, `simulate` with and
//!    without an attached tree), for clean, dropout/fault and
//!    adversarial runs. The N-tier machinery must cost nothing when the
//!    tree is the classic shape — no extra RNG draws, no event-flow
//!    changes, not even a different simulated clock.
//! 2. **Cross-engine depth ≥ 4** — with a load-bearing (averaging)
//!    middle tier, the event-driven co-simulation reproduces the core
//!    driver bitwise under full sync, for every algorithm and thread
//!    count, γ-trace diagnostics included.
//! 3. **Collapse** — pass-through middles (interval 1, identity
//!    aggregation) are semantically free: training on the deep tree, on
//!    its [`TierTree::collapse`], and on the plain hierarchy all produce
//!    the same bits, deterministically and under random trees.
//! 4. **Conservation** — structural invariants hold for arbitrary valid
//!    trees: prefix/suffix node products, the interval divisibility
//!    chain, serde round-trips through the validator, subtree weights
//!    summing to one per parent, and middle aggregation being an affine
//!    average (constants are fixed points).

mod common;

use common::{
    assert_bitwise_equal, sim_config, sim_fixture, small_tier_trees, structural_tier_trees,
    tiered_fixture, tiered_sim_config,
};
use hieradmo::core::algorithms::{Cfl, HierAdMo, HierFavg};
use hieradmo::core::compression::{Compression, QuantizedHierFavg};
use hieradmo::core::{default_middle_aggregate, run, FlState, RunConfig, RunResult, RunSpec};
use hieradmo::core::{RobustAggregator, Strategy};
use hieradmo::models::zoo;
use hieradmo::netsim::{
    AdversaryPlan, AttackModel, CrashProfile, DelaySpikes, FaultPlan, LinkFaults, PermanentCrash,
};
use hieradmo::simrt::{simulate, SimResult, SyncPolicy};
use hieradmo::tensor::Vector;
use hieradmo::topology::{TierSpec, TierTree, Weights};
use proptest::prelude::*;

/// The five-algorithm lineup every equivalence gate runs: the paper's
/// adaptive and reduced variants, hierarchical FedAvg, client-sampling
/// CFL and the compressed-upload baseline.
fn lineup() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(HierAdMo::adaptive(0.01, 0.5)),
        Box::new(HierAdMo::reduced(0.01, 0.5, 0.5)),
        Box::new(HierFavg::new(0.01)),
        Box::new(Cfl::new(0.01, 0.5)),
        Box::new(QuantizedHierFavg::new(0.01, Compression::TopK { k: 8 })),
    ]
}

/// One sign-flipping Byzantine worker, defended by a trimmed mean.
fn adversarial(base: &RunConfig) -> RunConfig {
    RunConfig {
        adversary: AdversaryPlan::uniform([0], AttackModel::SignFlip { scale: 3.0 }),
        aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.4 },
        ..base.clone()
    }
}

/// A small but active fault plan: transient crashes, one permanent
/// crash, flaky links and delay spikes.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.1,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![PermanentCrash {
            worker: 1,
            at_ms: 300.0,
        }],
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    }
}

/// Bitwise equality of two core-driver results.
fn assert_runs_equal(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.curve, b.curve, "{label}: curve differs");
    assert_eq!(a.final_params, b.final_params, "{label}: params differ");
    assert_eq!(a.gamma_trace, b.gamma_trace, "{label}: γ trace differs");
    assert_eq!(a.cos_trace, b.cos_trace, "{label}: cos trace differs");
    assert_eq!(a.tier_gamma, b.tier_gamma, "{label}: tier γ differs");
}

/// Bitwise equality of two co-simulations — trajectory *and* clock.
/// `tier_gamma` rows are keyed by each run's *own* declared middle
/// tiers, so only their recorded (non-empty) traces must agree; a
/// pass-through tier contributes an empty row on the deep side and no
/// row after collapsing.
fn assert_sims_equal(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.curve, b.curve, "{label}: curve differs");
    assert_eq!(a.final_params, b.final_params, "{label}: params differ");
    assert_eq!(a.gamma_trace, b.gamma_trace, "{label}: γ trace differs");
    assert_eq!(a.cos_trace, b.cos_trace, "{label}: cos trace differs");
    let recorded = |r: &SimResult| -> Vec<Vec<(usize, f32)>> {
        r.tier_gamma
            .iter()
            .filter(|t| !t.is_empty())
            .cloned()
            .collect()
    };
    assert_eq!(recorded(a), recorded(b), "{label}: tier γ differs");
    assert_eq!(a.events, b.events, "{label}: event count differs");
    assert_eq!(
        a.simulated_seconds, b.simulated_seconds,
        "{label}: simulated clock differs"
    );
}

// ---------------------------------------------------------------------
// 1. Depth-3 identity.
// ---------------------------------------------------------------------

/// A seed-shaped tree source is a hierarchy source, bitwise, for all
/// five algorithms under clean, dropout and adversarial configurations.
#[test]
fn depth_3_tree_matches_the_seed_core_driver() {
    let f = sim_fixture(0.0);
    let tree = TierTree::three_tier(2, 2, f.cfg.tau, f.cfg.pi);
    let model = zoo::logistic_regression(&f.train, 1);
    let variants = [
        ("clean", f.cfg.clone()),
        (
            "dropout",
            RunConfig {
                dropout: 0.3,
                ..f.cfg.clone()
            },
        ),
        ("adversary", adversarial(&f.cfg)),
    ];
    for algo in lineup() {
        for (label, cfg) in &variants {
            let seed_path = run(
                algo.as_ref(),
                &model,
                &RunSpec::hierarchy(&f.hierarchy, &f.shards),
                &f.test,
                cfg,
            )
            .unwrap();
            let tiered = run(
                algo.as_ref(),
                &model,
                &RunSpec::tree(&tree, &f.shards),
                &f.test,
                cfg,
            )
            .unwrap();
            let tag = format!("{} / {label}", algo.name());
            assert_runs_equal(&seed_path, &tiered, &tag);
            assert!(
                tiered.tier_gamma.is_empty(),
                "{tag}: a depth-3 tree has no middle tiers"
            );
        }
    }
}

/// Attaching a depth-3 tree to the co-simulation changes nothing — not
/// the trajectory, not the event count, not the simulated clock — for
/// all five algorithms under clean, faulty and adversarial runs.
#[test]
fn depth_3_tree_matches_the_seed_event_engine() {
    let f = sim_fixture(0.0);
    let tree = TierTree::three_tier(2, 2, f.cfg.tau, f.cfg.pi);
    let model = zoo::logistic_regression(&f.train, 1);
    let variants = [
        ("clean", f.cfg.clone(), FaultPlan::default()),
        ("faults", f.cfg.clone(), fault_plan()),
        ("adversary", adversarial(&f.cfg), FaultPlan::default()),
    ];
    for algo in lineup() {
        for (label, cfg, faults) in &variants {
            let plain = simulate(
                algo.as_ref(),
                &model,
                &f.hierarchy,
                &f.shards,
                &f.test,
                cfg,
                &sim_config(7, SyncPolicy::FullSync).with_faults(faults.clone()),
            )
            .unwrap();
            let tiered = simulate(
                algo.as_ref(),
                &model,
                &f.hierarchy,
                &f.shards,
                &f.test,
                cfg,
                &tiered_sim_config(&tree, 7, SyncPolicy::FullSync).with_faults(faults.clone()),
            )
            .unwrap();
            assert_sims_equal(&plain, &tiered, &format!("{} / {label}", algo.name()));
        }
    }
}

// ---------------------------------------------------------------------
// 2. Cross-engine depth ≥ 4.
// ---------------------------------------------------------------------

/// The depth-4 fixture tree: 2 regions × 2 edges × 2 workers, regions
/// syncing every 2 edge rounds and the root every 2 region rounds.
fn depth_4_tree() -> TierTree {
    TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 5),
    ])
    .unwrap()
}

/// With an *averaging* middle tier the co-simulation must reproduce the
/// tiered core driver bitwise under full sync, for every algorithm and
/// thread count, and the per-tier γ traces must agree and fire at every
/// middle boundary.
#[test]
fn depth_4_average_middles_match_across_engines() {
    let tree = depth_4_tree();
    let f = tiered_fixture(&tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let edge_rounds = f.cfg.total_iters / f.cfg.tau;
    for algo in lineup() {
        let reference = run(
            algo.as_ref(),
            &model,
            &RunSpec::tree(&tree, &f.shards),
            &f.test,
            &f.cfg,
        )
        .unwrap();
        assert_eq!(reference.tier_gamma.len(), 1, "one middle tier");
        assert_eq!(
            reference.tier_gamma[0].len(),
            edge_rounds / tree.sync_rounds(1),
            "the region tier fires at every second edge round"
        );
        for threads in [1usize, 4] {
            let cfg = RunConfig {
                threads: Some(threads),
                ..f.cfg.clone()
            };
            let sim = simulate(
                algo.as_ref(),
                &model,
                &f.hierarchy,
                &f.shards,
                &f.test,
                &cfg,
                &tiered_sim_config(&tree, 7, SyncPolicy::FullSync),
            )
            .unwrap();
            let tag = format!("{} depth=4 threads={threads}", algo.name());
            assert_bitwise_equal(&reference, &sim, &tag);
            assert_eq!(reference.tier_gamma, sim.tier_gamma, "{tag}: tier γ");
        }
    }
}

/// Depth-4 adversarial runs replay bitwise across engines: the
/// per-worker attack RNG streams stay aligned when middle tiers fire
/// between the edge and root reductions.
#[test]
fn depth_4_adversarial_runs_match_across_engines() {
    let tree = depth_4_tree();
    let f = tiered_fixture(&tree);
    let cfg = adversarial(&f.cfg);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let reference = run(
        &algo,
        &model,
        &RunSpec::tree(&tree, &f.shards),
        &f.test,
        &cfg,
    )
    .unwrap();
    for threads in [1usize, 4] {
        let cfg = RunConfig {
            threads: Some(threads),
            ..cfg.clone()
        };
        let sim = simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &tiered_sim_config(&tree, 7, SyncPolicy::FullSync),
        )
        .unwrap();
        assert_bitwise_equal(&reference, &sim, &format!("adversarial threads={threads}"));
        assert_eq!(reference.tier_gamma, sim.tier_gamma);
    }
}

// ---------------------------------------------------------------------
// 3. Collapse.
// ---------------------------------------------------------------------

/// A depth-4 tree whose middle is a pass-through trains bitwise
/// identically to its depth-3 collapse *and* to the plain hierarchy, in
/// both engines, for all five algorithms.
#[test]
fn pass_through_middles_are_semantically_free() {
    let deep = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::pass_through(2),
        TierSpec::new(1, 5),
    ])
    .unwrap();
    let flat = deep.collapse();
    assert_eq!(flat.depth(), 3, "the pass-through middle must collapse");
    assert_eq!(flat.num_edges(), deep.num_edges());

    let f = tiered_fixture(&deep);
    let model = zoo::logistic_regression(&f.train, 1);
    for algo in lineup() {
        let on_deep = run(
            algo.as_ref(),
            &model,
            &RunSpec::tree(&deep, &f.shards),
            &f.test,
            &f.cfg,
        )
        .unwrap();
        let on_flat = run(
            algo.as_ref(),
            &model,
            &RunSpec::tree(&flat, &f.shards),
            &f.test,
            &f.cfg,
        )
        .unwrap();
        let plain = run(
            algo.as_ref(),
            &model,
            &RunSpec::hierarchy(&f.hierarchy, &f.shards),
            &f.test,
            &f.cfg,
        )
        .unwrap();
        let tag = algo.name().to_string();
        assert_eq!(
            on_deep.curve, on_flat.curve,
            "{tag}: deep vs collapsed curve"
        );
        assert_eq!(on_deep.final_params, on_flat.final_params, "{tag}: params");
        assert_runs_equal(&plain, &on_flat, &format!("{tag}: plain vs collapsed"));
        assert!(
            on_deep.tier_gamma.iter().all(Vec::is_empty),
            "{tag}: an identity tier must record no γ"
        );

        let sim_deep = simulate(
            algo.as_ref(),
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &f.cfg,
            &tiered_sim_config(&deep, 7, SyncPolicy::FullSync),
        )
        .unwrap();
        let sim_flat = simulate(
            algo.as_ref(),
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &f.cfg,
            &tiered_sim_config(&flat, 7, SyncPolicy::FullSync),
        )
        .unwrap();
        assert_sims_equal(&sim_deep, &sim_flat, &format!("{tag}: sim deep vs flat"));
        assert_bitwise_equal(&on_deep, &sim_deep, &format!("{tag}: core vs sim deep"));
    }
}

// ---------------------------------------------------------------------
// 4. Conservation properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Prefix/suffix node products, the interval divisibility chain and
    /// collapse conservation hold for arbitrary valid trees.
    #[test]
    fn tier_arithmetic_is_conserved(tree in structural_tier_trees()) {
        let len = tree.levels().len();
        for d in 0..len {
            prop_assert_eq!(
                tree.nodes_at(d) * tree.edges_per_node(d),
                tree.num_edges(),
                "depth {} node products", d
            );
        }
        prop_assert_eq!(tree.sync_rounds(0), tree.pi_total());
        prop_assert_eq!(tree.tau(), tree.levels()[len - 1].interval);
        for d in tree.middle_depths() {
            // Deeper tiers fire on finer boundaries that divide every
            // coarser one — middle firings always nest inside root rounds.
            prop_assert_eq!(tree.sync_rounds(d - 1) % tree.sync_rounds(d), 0);
            prop_assert_eq!(tree.pi_total() % tree.sync_rounds(d), 0);
        }

        let c = tree.collapse();
        prop_assert_eq!(c.num_workers(), tree.num_workers());
        prop_assert_eq!(c.num_edges(), tree.num_edges());
        prop_assert_eq!(c.tau(), tree.tau());
        prop_assert_eq!(c.pi_total(), tree.pi_total());
        prop_assert_eq!(c.edge_hierarchy(), tree.edge_hierarchy());
        let mids = c.middle_depths();
        prop_assert!(
            !c.levels()[mids.start..mids.end].iter().any(TierSpec::is_pass_through),
            "collapse left a pass-through middle in {:?}", c
        );
        prop_assert_eq!(c.collapse(), c.clone(), "collapse is idempotent");
    }

    /// The wire form survives a JSON round-trip and re-runs the
    /// validator on the way back in.
    #[test]
    fn tier_trees_round_trip_serde(tree in structural_tier_trees()) {
        let json = serde_json::to_string(&tree).unwrap();
        let back: TierTree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, tree);
    }

    /// For any tree and any positive per-worker sample counts, each
    /// parent's subtree weights are a finite partition of unity, and an
    /// averaging middle tier maps constant edges to the same constant.
    #[test]
    fn subtree_weights_partition_unity(
        tree in small_tier_trees(),
        raw in proptest::collection::vec(0usize..1000, 64),
    ) {
        let h = tree.edge_hierarchy();
        let samples: Vec<u64> = (0..tree.num_workers())
            .map(|i| 1 + raw[i % raw.len()] as u64)
            .collect();
        let w = Weights::from_samples(&h, &samples);
        let x0 = Vector::from(vec![1.5, -0.25, 3.0]);
        let mut s = FlState::new(h, w, &x0);
        s.attach_tree(tree.clone());

        for d in 1..tree.levels().len() {
            let fanout = tree.levels()[d - 1].fanout;
            for parent in 0..tree.nodes_at(d - 1) {
                let total: f64 = (parent * fanout..(parent + 1) * fanout)
                    .map(|n| {
                        let wt = s.subtree_weight(d, n);
                        prop_assert!(wt.is_finite() && wt > 0.0, "weight({}, {}) = {}", d, n, wt);
                        Ok(wt)
                    })
                    .sum::<Result<f64, TestCaseError>>()?;
                prop_assert!((total - 1.0).abs() < 1e-12, "parent {} sums to {}", parent, total);
            }
        }

        // Every tier starts at x0; an averaging middle node must
        // therefore reproduce x0 (a weighted average of equal vectors).
        for d in tree.middle_depths() {
            for node in 0..tree.nodes_at(d) {
                default_middle_aggregate(d, node, &mut s);
                let got = &s.middle[d - 1][node].x_plus;
                for i in 0..x0.len() {
                    prop_assert!(
                        (got[i] - x0[i]).abs() < 1e-5,
                        "middle({}, {})[{}] drifted: {} vs {}", d, node, i, got[i], x0[i]
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small trees whose pass-through middles are collapsed train
    /// identically to the original — the proptest form of the headline
    /// collapse guarantee, over trees of depth 3–5.
    #[test]
    fn random_trees_train_identically_to_their_collapse(tree in small_tier_trees()) {
        let f = tiered_fixture(&tree);
        let model = zoo::logistic_regression(&f.train, 1);
        let algo = HierAdMo::adaptive(0.01, 0.5);
        let on_tree = run(&algo, &model, &RunSpec::tree(&tree, &f.shards), &f.test, &f.cfg).unwrap();
        let on_collapse =
            run(&algo, &model, &RunSpec::tree(&tree.collapse(), &f.shards), &f.test, &f.cfg).unwrap();
        prop_assert_eq!(on_tree.curve, on_collapse.curve);
        prop_assert_eq!(on_tree.final_params, on_collapse.final_params);
        prop_assert_eq!(on_tree.gamma_trace, on_collapse.gamma_trace);
    }
}
