//! Virtual-population gates: full participation delegates to the classic
//! engines bitwise, sampled runs agree bitwise between the tick-driven
//! and event-driven engines, results are invariant to thread count, and
//! the 100k-registered/512-sampled scale smoke replays identically.
//!
//! The deep-tree extension adds the depth × policy × chaos matrix: every
//! `{3, 4, 5}`-deep sampled tree completes under every [`SyncPolicy`]
//! with and without faults and adversaries, replays bitwise at any
//! thread count, and — where exactness is promised (full sync, no
//! faults) — matches the tick-driven engine bit for bit. Sampling
//! streams themselves are pinned: Floyd's cohorts are uniform, per-tier-
//! path seeds never collide, and the current trajectory is hard-coded so
//! a silent reseeding cannot pass review.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use common::{
    matrix_policies, sampled_fault_plan, sampled_matrix_trees, sampled_tier_fixture, sim_config,
    sim_fixture, small_tier_trees,
};
use hieradmo::core::algorithms::{table2_lineup, FedAvg, HierAdMo};
use hieradmo::core::population::{
    adversary_stream, batcher_seed, delay_stream, fault_stream, worker_round_seed, ClientSampling,
    CohortSampler, WorkerPopulation,
};
use hieradmo::core::{
    run, EdgeView, FlState, IntervalSums, RobustAggregator, RunConfig, RunError, RunResult,
    RunSpec, Strategy, Tier, TierScope, WorkerState,
};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::data::Dataset;
use hieradmo::models::{zoo, Model};
use hieradmo::netsim::{
    AdversaryPlan, Architecture, AttackModel, CrashProfile, DelaySpikes, FaultPlan, LinkFaults,
    NetworkEnv, PermanentCrash,
};
use hieradmo::simrt::{simulate, simulate_virtual, SimConfig, SimError, SimResult, SyncPolicy};
use hieradmo::tensor::Vector;
use hieradmo::topology::{
    ChurnPlan, Hierarchy, ScheduledEvent, TierSpec, TierTree, TopologyEvent, Weights,
};
use proptest::prelude::*;

/// A 2-edge federation of 100 registered workers per edge over 4 shards,
/// with a config whose eval rounds (k = 2 at t = 10, k = 4 at t = 20)
/// cover a mid-cloud-window boundary and the final cloud boundary.
fn virtual_fixture() -> (WorkerPopulation, Vec<Dataset>, Dataset, RunConfig) {
    let tt = SyntheticDataset::mnist_like(60, 30, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let population = WorkerPopulation::uniform(2, 100, 4).unwrap();
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 20,
        eval_every: 10,
        batch_size: 8,
        seed: 42,
        threads: Some(1),
        sampling: ClientSampling::PerEdge { count: 3 },
        ..RunConfig::default()
    };
    (population, shards, tt.test, cfg)
}

fn virtual_sim_config(net_seed: u64) -> SimConfig {
    // 4 worker-device profiles acting as a pool over the population.
    SimConfig::new(
        NetworkEnv::paper_testbed(4),
        Architecture::ThreeTier,
        50_000,
        net_seed,
        SyncPolicy::FullSync,
    )
}

fn assert_same_trajectory(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.curve, b.curve, "{label}: curve differs");
    assert_eq!(a.final_params, b.final_params, "{label}: params differ");
    assert_eq!(a.gamma_trace, b.gamma_trace, "{label}: gamma differs");
    assert_eq!(a.cos_trace, b.cos_trace, "{label}: cos differs");
}

fn assert_core_sim_equal(a: &RunResult, sim: &SimResult, label: &str) {
    assert_eq!(a.curve, sim.curve, "{label}: curve differs");
    assert_eq!(a.final_params, sim.final_params, "{label}: params differ");
    assert_eq!(a.gamma_trace, sim.gamma_trace, "{label}: gamma differs");
    assert_eq!(a.cos_trace, sim.cos_trace, "{label}: cos differs");
}

/// Full participation (the default) must reproduce the classic
/// tick-driven trajectory bitwise — the delegation gate of ISSUE 7.
#[test]
fn full_participation_delegates_to_classic_run_bitwise() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(f.cfg.eta, f.cfg.gamma);
    let model = zoo::logistic_regression(&f.train, 7);
    let legacy = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&f.hierarchy, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();

    // The population whose edges mirror the fixture's hierarchy; with 4
    // round-robin shards over 4 workers, worker g holds shard g — the
    // same assignment the legacy run used.
    let population = WorkerPopulation::from_hierarchy(&f.hierarchy, 4).unwrap();
    for sampling in [
        ClientSampling::Full,
        ClientSampling::Fraction { fraction: 1.0 },
    ] {
        let cfg = RunConfig {
            sampling,
            ..f.cfg.clone()
        };
        let virt = run(
            &algo,
            &model,
            &RunSpec::population(&population, &f.shards, None),
            &f.test,
            &cfg,
        )
        .unwrap();
        assert_same_trajectory(&legacy, &virt, "full-participation delegation");
    }
}

/// The event-driven engine's full-participation path delegates to the
/// classic `simulate` — trajectory *and* time axis identical.
#[test]
fn full_participation_delegates_to_classic_simulate_bitwise() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(f.cfg.eta, f.cfg.gamma);
    let model = zoo::logistic_regression(&f.train, 7);
    let sim = sim_config(9, SyncPolicy::FullSync);
    let legacy = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &f.cfg,
        &sim,
    )
    .unwrap();

    let population = WorkerPopulation::from_hierarchy(&f.hierarchy, 4).unwrap();
    let virt =
        simulate_virtual(&algo, &model, &population, &f.shards, &f.test, &f.cfg, &sim).unwrap();
    assert_eq!(legacy.curve, virt.curve);
    assert_eq!(legacy.timed_curve, virt.timed_curve);
    assert_eq!(legacy.final_params, virt.final_params);
    assert_eq!(legacy.events, virt.events);
    assert_eq!(legacy.simulated_seconds, virt.simulated_seconds);
}

/// The sampled regime's cross-engine gate: the tick-driven and
/// event-driven engines agree bitwise on the model trajectory.
#[test]
fn sampled_runs_agree_across_engines_bitwise() {
    let (population, shards, test, cfg) = virtual_fixture();
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&shards[0], 7);
    let core = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &test,
        &cfg,
    )
    .unwrap();
    let sim = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &test,
        &cfg,
        &virtual_sim_config(9),
    )
    .unwrap();
    assert_core_sim_equal(&core, &sim, "sampled cross-engine");
    assert!(core.curve.final_accuracy().is_some());
    assert!(sim.simulated_seconds > 0.0);
    assert!(sim.events > 0);
    // The trajectory must not depend on the network seed.
    let sim2 = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &test,
        &cfg,
        &virtual_sim_config(1234),
    )
    .unwrap();
    assert_eq!(sim.curve, sim2.curve, "net seed leaked into training");
    assert_ne!(
        sim.simulated_seconds, sim2.simulated_seconds,
        "different net seeds should draw different delays"
    );
}

/// Sampled results are bitwise identical for every engine thread count.
#[test]
fn sampled_runs_are_thread_count_invariant() {
    let (population, shards, test, cfg) = virtual_fixture();
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&shards[0], 7);
    let one = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &test,
        &cfg,
    )
    .unwrap();
    let cfg4 = RunConfig {
        threads: Some(4),
        ..cfg.clone()
    };
    let four = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &test,
        &cfg4,
    )
    .unwrap();
    assert_same_trajectory(&one, &four, "threads 1 vs 4");

    let s1 = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &test,
        &cfg,
        &virtual_sim_config(9),
    )
    .unwrap();
    let s4 = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &test,
        &cfg4,
        &virtual_sim_config(9),
    )
    .unwrap();
    assert_eq!(s1.curve, s4.curve);
    assert_eq!(s1.final_params, s4.final_params);
    assert_eq!(s1.simulated_seconds, s4.simulated_seconds);
    assert_eq!(s1.events, s4.events);
}

/// Sampling composes with a robust aggregator and a Byzantine adversary
/// addressed by *global* (population) worker id — identically in both
/// engines, counters included.
#[test]
fn sampling_composes_with_robustness_and_adversaries() {
    let (population, shards, test, mut cfg) = virtual_fixture();
    cfg.aggregator = RobustAggregator::TrimmedMean { trim_ratio: 0.25 };
    // Mark a whole residue stripe of edge 0 Byzantine so sampled cohorts
    // regularly include an attacker.
    let byzantine: Vec<usize> = (0..100).step_by(3).collect();
    cfg.adversary = AdversaryPlan::uniform(byzantine, AttackModel::SignFlip { scale: 2.0 });
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&shards[0], 7);
    let core = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &test,
        &cfg,
    )
    .unwrap();
    let sim = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &test,
        &cfg,
        &virtual_sim_config(9),
    )
    .unwrap();
    assert_core_sim_equal(&core, &sim, "robust + adversary sampled");
    // Someone must actually have been sampled and poisoned, and both
    // engines must agree on every per-attacker tally.
    let total: u64 = core.adversaries.iter().map(|c| c.poisoned_uploads).sum();
    assert!(total > 0, "no Byzantine worker was ever sampled");
    assert_eq!(core.adversaries.len(), sim.adversaries.len());
    for (c, s) in core.adversaries.iter().zip(sim.adversaries.iter()) {
        assert_eq!(*c, s.counters);
    }
}

/// Link faults compose with sampling: the retry/duplicate protocol only
/// stretches virtual time (delivery eventually succeeds), so the FullSync
/// trajectory stays bitwise the tick-driven engine's, while the fault
/// tallies and the longer clock show the protocol actually ran — and the
/// whole chaos cell replays deterministically.
#[test]
fn link_faults_compose_with_sampling() {
    let (population, shards, test, cfg) = virtual_fixture();
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&shards[0], 7);
    let core = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &test,
        &cfg,
    )
    .unwrap();
    let clean = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &test,
        &cfg,
        &virtual_sim_config(9),
    )
    .unwrap();
    let flaky_sim = virtual_sim_config(9).with_faults(FaultPlan {
        link: Some(LinkFaults::flaky()),
        ..FaultPlan::none()
    });
    let flaky =
        simulate_virtual(&algo, &model, &population, &shards, &test, &cfg, &flaky_sim).unwrap();
    assert_core_sim_equal(&core, &flaky, "flaky links sampled");
    assert!(
        flaky.simulated_seconds > clean.simulated_seconds,
        "retry penalties must stretch the virtual clock"
    );
    let tally = |r: &SimResult| {
        r.faults
            .iter()
            .map(|f| {
                f.counters.messages_lost
                    + f.counters.transfer_failures
                    + f.counters.retries
                    + f.counters.duplicates_received
            })
            .sum::<u64>()
    };
    assert_eq!(tally(&clean), 0, "fault-free run tallied link faults");
    assert!(tally(&flaky) > 0, "no link fault ever fired");
    let again =
        simulate_virtual(&algo, &model, &population, &shards, &test, &cfg, &flaky_sim).unwrap();
    assert_eq!(flaky.simulated_seconds, again.simulated_seconds);
    assert_eq!(flaky.events, again.events, "duplicate events must replay");
    for (a, b) in flaky.faults.iter().zip(again.faults.iter()) {
        assert_eq!(a.actor, b.actor);
        assert_eq!(a.counters, b.counters, "{}: tallies must replay", a.actor);
    }
}

/// The CI scale smoke: 100k registered workers, 512 sampled per round,
/// replayed bitwise at 1 and 4 engine threads. Memory stays cohort-sized
/// — the 100k registered workers never materialize.
#[test]
fn scale_smoke_100k_registered_512_sampled_is_deterministic() {
    let tt = SyntheticDataset::mnist_like(60, 30, 5);
    let shards = x_class_partition(&tt.train, 4, 2, 5);
    let population = WorkerPopulation::uniform(8, 12_500, 4).unwrap();
    assert_eq!(population.total_workers(), 100_000);
    let cfg = RunConfig {
        tau: 2,
        pi: 1,
        total_iters: 4,
        eval_every: 4,
        batch_size: 8,
        seed: 7,
        threads: Some(1),
        sampling: ClientSampling::PerEdge { count: 64 },
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&tt.train, 3);
    let one = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &cfg,
    )
    .unwrap();
    let cfg4 = RunConfig {
        threads: Some(4),
        ..cfg.clone()
    };
    let four = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &cfg4,
    )
    .unwrap();
    assert_same_trajectory(&one, &four, "scale smoke threads 1 vs 4");

    let sim = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &tt.test,
        &cfg,
        &virtual_sim_config(3),
    )
    .unwrap();
    assert_core_sim_equal(&one, &sim, "scale smoke cross-engine");
    // O(active) scheduling: far fewer events than one per registered
    // worker, despite 100k registrations.
    assert!(
        sim.events < 10_000,
        "event count {} should be cohort-sized, not population-sized",
        sim.events
    );
}

/// Every formerly-gated combination that remains unsupported fails with
/// its typed error — no panics, no silent fallbacks. The lifted gates
/// (policies, faults, dropout, depth > 3 with sampling) are absent from
/// this table by construction; their positive coverage is
/// [`depth_policy_chaos_matrix`].
#[test]
fn sampled_paths_validate_their_restrictions() {
    let (population, shards, test, cfg) = virtual_fixture();
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&shards[0], 7);

    fn run_kind(e: &RunError) -> &'static str {
        match e {
            RunError::BadConfig(_) => "bad-config",
            RunError::Schedule(_) => "schedule",
            RunError::Topology(_) => "topology",
            RunError::Data(_) => "data",
        }
    }
    fn sim_kind(e: &SimError) -> (&'static str, String) {
        let kind = match e {
            SimError::Policy(_) => "policy",
            SimError::Fault(_) => "fault",
            SimError::Net(_) => "net",
            SimError::Adversary(_) => "adversary",
            SimError::Run(inner) => run_kind(inner),
        };
        (kind, e.to_string())
    }

    let core_err = |cfg: &RunConfig, pop: &WorkerPopulation| {
        let e = run(
            &algo,
            &model,
            &RunSpec::population(pop, &shards, None),
            &test,
            cfg,
        )
        .unwrap_err();
        (run_kind(&e), e.to_string())
    };
    let core_tiered_err = |cfg: &RunConfig, tree: &TierTree| {
        let e = run(
            &algo,
            &model,
            &RunSpec::population(&population, &shards, Some(tree)),
            &test,
            cfg,
        )
        .unwrap_err();
        (run_kind(&e), e.to_string())
    };
    let sim_err = |cfg: &RunConfig, sim: &SimConfig| {
        sim_kind(
            &simulate_virtual(&algo, &model, &population, &shards, &test, cfg, sim).unwrap_err(),
        )
    };

    let huge = WorkerPopulation::uniform(4, 300_000, 4).unwrap();
    let beyond = AdversaryPlan::uniform([1_000_000usize], AttackModel::SignFlip { scale: 2.0 });
    let cases: Vec<(&str, &str, &str, (&'static str, String))> = vec![
        (
            "oversized per-edge sample",
            "bad-config",
            "exceeds",
            core_err(
                &RunConfig {
                    sampling: ClientSampling::PerEdge { count: 101 },
                    ..cfg.clone()
                },
                &population,
            ),
        ),
        (
            "full materialization of a million-worker registry",
            "data",
            "sampling",
            core_err(
                &RunConfig {
                    sampling: ClientSampling::Full,
                    ..cfg.clone()
                },
                &huge,
            ),
        ),
        (
            "adversary id beyond the registry (tick engine)",
            "bad-config",
            "registers only",
            core_err(
                &RunConfig {
                    adversary: beyond.clone(),
                    ..cfg.clone()
                },
                &population,
            ),
        ),
        (
            "adversary id beyond the registry (event engine)",
            "adversary",
            "registers only",
            sim_err(
                &RunConfig {
                    adversary: beyond.clone(),
                    ..cfg.clone()
                },
                &virtual_sim_config(9),
            ),
        ),
        (
            "permanent crash beyond the registry",
            "fault",
            "registered population",
            sim_err(
                &cfg,
                &virtual_sim_config(9).with_faults(FaultPlan {
                    permanent: vec![PermanentCrash {
                        worker: 1_000_000,
                        at_ms: 1.0,
                    }],
                    ..FaultPlan::none()
                }),
            ),
        ),
        ("two-tier architecture with sampling", "net", "ThreeTier", {
            let mut sim = virtual_sim_config(9);
            sim.architecture = Architecture::TwoTier;
            sim_err(&cfg, &sim)
        }),
        ("empty device-profile pool", "net", "device-profile", {
            let mut sim = virtual_sim_config(9);
            sim.env.worker_devices.clear();
            sim_err(&cfg, &sim)
        }),
        (
            "tier tree spanning the wrong edge count",
            "bad-config",
            "tier tree spans",
            core_tiered_err(&cfg, &TierTree::three_tier(3, 100, 5, 2)),
        ),
        (
            "tier tree with the wrong registered leaf width",
            "bad-config",
            "workers per edge",
            sim_err(
                &cfg,
                &virtual_sim_config(9).with_tiers(TierTree::three_tier(2, 50, 5, 2)),
            ),
        ),
        (
            "tier tree whose (tau, pi) disagree with the config",
            "bad-config",
            "disagrees",
            sim_err(
                &cfg,
                &virtual_sim_config(9).with_tiers(TierTree::three_tier(2, 100, 5, 4)),
            ),
        ),
        (
            "churn plan on a sampled run",
            "bad-config",
            "ChurnPlan",
            sim_err(
                &RunConfig {
                    churn: ChurnPlan {
                        events: vec![ScheduledEvent {
                            round: 2,
                            event: TopologyEvent::EdgeFail { edge: 1 },
                        }],
                        reform_every: None,
                    },
                    ..cfg.clone()
                },
                &virtual_sim_config(9),
            ),
        ),
        ("bad deadline quorum", "policy", "(0, 1]", {
            let mut sim = virtual_sim_config(9);
            sim.policy = SyncPolicy::Deadline {
                quorum: 1.5,
                timeout_ms: 100.0,
            };
            sim_err(&cfg, &sim)
        }),
        (
            "snapshot stop off the edge-boundary grid",
            "bad-config",
            "stop_at",
            {
                let tree = TierTree::three_tier(2, 100, 5, 2);
                let e = run(
                    &algo,
                    &model,
                    &RunSpec {
                        stop_at: Some(7),
                        ..RunSpec::population(&population, &shards, Some(&tree))
                    },
                    &test,
                    &cfg,
                )
                .unwrap_err();
                (run_kind(&e), e.to_string())
            },
        ),
    ];

    for (label, want_kind, needle, (kind, msg)) in cases {
        assert_eq!(kind, want_kind, "{label}: wrong error kind ({msg})");
        assert!(
            msg.contains(needle),
            "{label}: message should mention {needle:?}: {msg}"
        );
    }
}

/// A two-tier algorithm never writes the edge model a sampled cohort
/// downloads (nor the edge models a sampled run evaluates), so a sampled
/// run of one could never train: both engines reject it with a typed
/// error. The same run under full participation trains, and both engines
/// agree on it.
#[test]
fn sampled_runs_reject_two_tier_algorithms() {
    let tt = SyntheticDataset::mnist_like(60, 30, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let population = WorkerPopulation::uniform(1, 8, 4).unwrap();
    let sampled = RunConfig {
        tau: 5,
        pi: 1,
        total_iters: 40,
        eval_every: 10,
        batch_size: 8,
        seed: 42,
        threads: Some(1),
        sampling: ClientSampling::PerEdge { count: 4 },
        ..RunConfig::default()
    };
    let algo = FedAvg::new(sampled.eta);
    let model = zoo::logistic_regression(&tt.train, 7);
    let sim = SimConfig::new(
        NetworkEnv::paper_testbed(8),
        Architecture::ThreeTier,
        50_000,
        9,
        SyncPolicy::FullSync,
    );
    let two_tier = |m: &str| m.contains("FedAvg is a two-tier algorithm");

    let e = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &sampled,
    )
    .unwrap_err();
    assert!(matches!(&e, RunError::BadConfig(m) if two_tier(m)), "{e}");
    let e = simulate_virtual(
        &algo,
        &model,
        &population,
        &shards,
        &tt.test,
        &sampled,
        &sim,
    )
    .unwrap_err();
    assert!(
        matches!(&e, SimError::Run(RunError::BadConfig(m)) if two_tier(m)),
        "{e}"
    );

    let full = RunConfig {
        sampling: ClientSampling::Full,
        ..sampled
    };
    let core = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &full,
    )
    .unwrap();
    assert_ne!(core.final_params, model.params(), "the full run trains");
    let losses: Vec<f64> = core.curve.points().iter().map(|p| p.test_loss).collect();
    assert!(
        losses.windows(2).any(|w| w[0] != w[1]),
        "loss moves: {losses:?}"
    );
    let event =
        simulate_virtual(&algo, &model, &population, &shards, &tt.test, &full, &sim).unwrap();
    assert_core_sim_equal(&core, &event, "full participation");
}

/// The pinning gate of the per-tier-path sampler: Floyd's cohorts and
/// the depth-3 sampled trajectory are hard-coded, so any reseeding of
/// the cohort streams (however plausible-looking) fails loudly here
/// instead of silently shifting every sampled result in the repo.
#[test]
fn sampled_trajectory_and_cohorts_are_pinned() {
    // Flat cohort pins: seed 42, Floyd's without replacement, ascending.
    let flat = CohortSampler::new(42);
    assert_eq!(flat.cohort(0, 1, 100, 3), vec![20, 71, 73]);
    assert_eq!(flat.cohort(1, 1, 100, 3), vec![30, 42, 87]);
    assert_eq!(flat.cohort(0, 4, 100, 3), vec![6, 36, 84]);
    assert_eq!(
        flat.cohort(3, 7, 1_000_000, 8),
        vec![24_755, 311_397, 351_175, 427_735, 521_171, 630_470, 876_410, 990_848]
    );

    // A depth-3 tree and its pass-through extension derive the *same*
    // per-edge streams as the flat sampler: the tier-path fold collapses
    // identity levels, so pre-tree sampled trajectories are unchanged.
    let d3 = CohortSampler::for_tree(42, &TierTree::three_tier(4, 100, 5, 2));
    let padded = CohortSampler::for_tree(
        42,
        &TierTree::new(vec![
            TierSpec::new(4, 2),
            TierSpec::pass_through(1),
            TierSpec::new(100, 5),
        ])
        .unwrap(),
    );
    for e in 0..4 {
        for r in [1, 4, 7] {
            assert_eq!(
                flat.cohort(e, r, 100, 3),
                d3.cohort(e, r, 100, 3),
                "e{e} r{r}"
            );
            assert_eq!(
                flat.cohort(e, r, 100, 3),
                padded.cohort(e, r, 100, 3),
                "e{e} r{r}"
            );
        }
    }

    // Trajectory pin: the depth-3 sampled run of the seed fixture. These
    // literals round-trip exactly (Rust float Debug), so equality below
    // is bitwise.
    let tt = SyntheticDataset::mnist_like(60, 30, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let population = WorkerPopulation::uniform(2, 100, 4).unwrap();
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 20,
        eval_every: 10,
        batch_size: 8,
        seed: 42,
        threads: Some(1),
        sampling: ClientSampling::PerEdge { count: 3 },
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&tt.train, 1);
    let flat_run = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &cfg,
    )
    .unwrap();
    assert_eq!(
        &flat_run.final_params.as_slice()[..4],
        &[0.04330813, 0.002263323, 0.0059279623, -0.028702375],
        "head of the pinned sampled params moved"
    );
    let sum: f32 = flat_run.final_params.as_slice().iter().sum();
    assert_eq!(sum, -1.1442246, "pinned sampled param sum moved");
    assert_eq!(
        flat_run.gamma_trace,
        vec![
            (1, 0.006566262),
            (2, 0.027501052),
            (3, 0.03984092),
            (4, 0.045479402)
        ],
        "pinned sampled gamma trace moved"
    );

    // And the tiered spellings of the same shape reproduce it bitwise.
    let d3_tree = TierTree::three_tier(2, 100, 5, 2);
    let tiered = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, Some(&d3_tree)),
        &tt.test,
        &cfg,
    )
    .unwrap();
    assert_same_trajectory(&flat_run, &tiered, "depth-3 tiered vs flat sampled");
    let padded_tree = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::pass_through(1),
        TierSpec::new(100, 5),
    ])
    .unwrap();
    let padded_run = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, Some(&padded_tree)),
        &tt.test,
        &cfg,
    )
    .unwrap();
    assert_same_trajectory(
        &flat_run,
        &padded_run,
        "pass-through tiered vs flat sampled",
    );
}

/// One full-participation trajectory pin: the head of the final params,
/// their sum, the γ trace and the curve's test accuracies.
struct TrajectoryPin {
    label: &'static str,
    head: [f32; 4],
    sum: f32,
    gamma: &'static [(usize, f32)],
    accuracy: &'static [f64],
}

/// Hard-coded trajectories of every full-participation spelling: dropout
/// with mid-round evaluation, a Byzantine worker, a depth-4 tree, a
/// dropout stop/resume, and the `ClientSampling::Full` virtual paths at
/// depth 3 and 4. The delegation gates above compare two spellings of one
/// run; these literals pin the trajectory itself.
#[test]
fn full_participation_trajectories_are_pinned() {
    use common::tiered_fixture;
    use hieradmo::core::{run, RunSpec};
    use hieradmo::netsim::ByzantineWorker;

    let algo = HierAdMo::adaptive(0.05, 0.5);

    let dropout = sim_fixture(0.1);
    let dropout_model = zoo::logistic_regression(&dropout.train, 7);
    let dropout_run = run(
        &algo,
        &dropout_model,
        &RunSpec::hierarchy(&dropout.hierarchy, &dropout.shards),
        &dropout.test,
        &dropout.cfg,
    )
    .unwrap();

    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 7);
    let byzantine_cfg = RunConfig {
        adversary: AdversaryPlan {
            byzantine: vec![ByzantineWorker {
                worker: 1,
                attack: AttackModel::GaussianNoise { norm: 4.0 },
            }],
        },
        ..f.cfg.clone()
    };
    let byzantine_run = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&f.hierarchy, &f.shards),
        &f.test,
        &byzantine_cfg,
    )
    .unwrap();

    let deep = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 5),
    ])
    .unwrap();
    let tf = tiered_fixture(&deep);
    let tiered_model = zoo::logistic_regression(&tf.train, 7);
    let tiered_run = run(
        &algo,
        &tiered_model,
        &RunSpec::tree(&deep, &tf.shards),
        &tf.test,
        &tf.cfg,
    )
    .unwrap();

    let resume_cfg = RunConfig {
        total_iters: 40,
        dropout: 0.3,
        ..f.cfg.clone()
    };
    let snap = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(15),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &resume_cfg,
    )
    .unwrap()
    .snapshot
    .unwrap();
    let resumed_run = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &resume_cfg,
    )
    .unwrap();

    let full_cfg = RunConfig {
        sampling: ClientSampling::Full,
        ..f.cfg.clone()
    };
    let population = WorkerPopulation::from_hierarchy(&f.hierarchy, 4).unwrap();
    let virtual_run = run(
        &algo,
        &model,
        &RunSpec::population(&population, &f.shards, None),
        &f.test,
        &full_cfg,
    )
    .unwrap();

    let matrix_tree = sampled_matrix_trees()[1].clone();
    let sf = sampled_tier_fixture(&matrix_tree);
    let sf_cfg = RunConfig {
        sampling: ClientSampling::Full,
        ..sf.cfg.clone()
    };
    let sf_model = zoo::logistic_regression(&sf.train, 7);
    let virtual_tiered_run = run(
        &algo,
        &sf_model,
        &RunSpec::population(&sf.population, &sf.shards, Some(&matrix_tree)),
        &sf.test,
        &sf_cfg,
    )
    .unwrap();

    let runs = [
        dropout_run,
        byzantine_run,
        tiered_run,
        resumed_run,
        virtual_run,
        virtual_tiered_run,
    ];
    let pins = [
        TrajectoryPin {
            label: "run, dropout 0.1 with mid-round evaluation",
            head: [0.028777823, -0.052074216, 0.05256486, 0.07699919],
            sum: 2.333168,
            gamma: &[
                (1, 0.095273435),
                (2, 0.06406119),
                (3, 0.09576114),
                (4, 0.0790912),
            ],
            accuracy: &[
                0.44666666666666666,
                0.61,
                0.67,
                0.7266666666666667,
                0.7233333333333334,
                0.7366666666666667,
                0.7466666666666667,
            ],
        },
        TrajectoryPin {
            label: "run, one Byzantine worker",
            head: [0.052380387, -0.00068881875, 0.026559204, 0.1286314],
            sum: 4.963927,
            gamma: &[
                (1, 0.121067144),
                (2, 0.056922566),
                (3, 0.095897675),
                (4, 0.049456052),
            ],
            accuracy: &[
                0.5,
                0.5566666666666666,
                0.6233333333333333,
                0.6833333333333333,
                0.7133333333333334,
                0.7433333333333333,
                0.7466666666666667,
            ],
        },
        TrajectoryPin {
            label: "run_tiered, depth 4",
            head: [0.0138648525, -0.053245462, 0.043983594, 0.059366744],
            sum: 2.3331718,
            gamma: &[
                (1, 0.10957291),
                (2, 0.08118728),
                (3, 0.091483586),
                (4, 0.08627397),
                (5, 0.09904812),
                (6, 0.07900146),
                (7, 0.09252185),
                (8, 0.0856162),
            ],
            accuracy: &[
                0.5666666666666667,
                0.7466666666666667,
                0.7966666666666666,
                0.87,
                0.9,
                0.91,
                0.94,
                0.95,
                0.9533333333333334,
                0.9533333333333334,
                0.9566666666666667,
                0.9566666666666667,
                0.96,
                0.96,
            ],
        },
        TrajectoryPin {
            label: "run_until(15) then run_resumed, dropout 0.3",
            head: [0.031559035, -0.05247187, 0.049073473, 0.06997949],
            sum: 2.3331804,
            gamma: &[
                (4, 0.08124455),
                (5, 0.06995585),
                (6, 0.055444866),
                (7, 0.07454007),
                (8, 0.09183618),
            ],
            accuracy: &[
                0.7466666666666667,
                0.7466666666666667,
                0.75,
                0.75,
                0.7566666666666667,
                0.7533333333333333,
                0.7633333333333333,
                0.76,
                0.7633333333333333,
            ],
        },
        TrajectoryPin {
            label: "run_virtual, ClientSampling::Full",
            head: [0.03515575, -0.050379474, 0.04993718, 0.074313],
            sum: 2.3331656,
            gamma: &[
                (1, 0.121067144),
                (2, 0.06335868),
                (3, 0.114977695),
                (4, 0.07499851),
            ],
            accuracy: &[
                0.5,
                0.6133333333333333,
                0.6833333333333333,
                0.7266666666666667,
                0.7233333333333334,
                0.74,
                0.7566666666666667,
            ],
        },
        TrajectoryPin {
            label: "run_virtual_tiered, ClientSampling::Full, depth 4",
            head: [0.17248082, -0.2678947, 0.3239743, 0.5667355],
            sum: 3.5267532,
            gamma: &[
                (1, 0.0),
                (2, 0.010320409),
                (3, 0.036462042),
                (4, 0.10985366),
                (5, 0.124926165),
                (6, 0.16474836),
                (7, 0.19876379),
                (8, 0.20314208),
            ],
            accuracy: &[0.890625, 1.0],
        },
    ];
    for (r, pin) in runs.iter().zip(&pins) {
        let label = pin.label;
        assert_eq!(
            &r.final_params.as_slice()[..4],
            &pin.head,
            "{label}: params head moved"
        );
        let sum: f32 = r.final_params.as_slice().iter().sum();
        assert_eq!(sum, pin.sum, "{label}: param sum moved");
        assert_eq!(r.gamma_trace, pin.gamma, "{label}: gamma trace moved");
        let accuracy: Vec<f64> = r.curve.points().iter().map(|p| p.test_accuracy).collect();
        assert_eq!(accuracy, pin.accuracy, "{label}: curve accuracies moved");
    }
}

/// Hard-coded tick-loop trajectories of `zoo::mlp` (dense → ReLU →
/// dense): on MNIST-like images, which enter through a `Flatten`
/// prelude, on HAR-like flat features, and as a sampled cohort. The
/// logistic-regression pins above have one dense layer, so only these pin
/// the ReLU mask, the hidden layer's input gradient and the skip of zero
/// gradient entries by value.
#[test]
fn mlp_trajectories_are_pinned() {
    use common::{har_fixture, MlpPin};

    let algo = HierAdMo::adaptive(0.05, 0.5);
    let mnist = sim_fixture(0.0);
    let mnist_model = zoo::mlp(&mnist.train, 16, 7);
    let har = har_fixture();
    let har_model = zoo::mlp(&har.train, 16, 7);
    let sampled_cfg = RunConfig {
        eval_every: 10,
        sampling: ClientSampling::PerEdge { count: 3 },
        ..mnist.cfg.clone()
    };
    let population = WorkerPopulation::uniform(2, 100, 4).unwrap();
    let runs = [
        (
            "run, mlp on MNIST-like (Flatten prelude)",
            run(
                &algo,
                &mnist_model,
                &RunSpec::hierarchy(&mnist.hierarchy, &mnist.shards),
                &mnist.test,
                &mnist.cfg,
            )
            .unwrap(),
        ),
        (
            "run, mlp on HAR-like (flat)",
            run(
                &algo,
                &har_model,
                &RunSpec::hierarchy(&har.hierarchy, &har.shards),
                &har.test,
                &har.cfg,
            )
            .unwrap(),
        ),
        (
            "run_virtual, sampled mlp on MNIST-like",
            run(
                &algo,
                &mnist_model,
                &RunSpec::population(&population, &mnist.shards, None),
                &mnist.test,
                &sampled_cfg,
            )
            .unwrap(),
        ),
    ];
    let got: Vec<MlpPin> = runs
        .iter()
        .map(|(label, r)| {
            let accuracy: Vec<f64> = r.curve.points().iter().map(|p| p.test_accuracy).collect();
            MlpPin::of(label, r.final_params.as_slice(), &r.gamma_trace, &accuracy)
        })
        .collect();
    let pins = [
        MlpPin {
            label: "run, mlp on MNIST-like (Flatten prelude)",
            params_hash: 12516920232642122389,
            sum: -2.3894782,
            gamma: vec![
                (1, 0.079188816),
                (2, 0.10061878),
                (3, 0.10794589),
                (4, 0.11948356),
            ],
            accuracy: vec![
                0.37,
                0.5166666666666667,
                0.58,
                0.7066666666666667,
                0.7166666666666667,
                0.74,
                0.7533333333333333,
            ],
        },
        MlpPin {
            label: "run, mlp on HAR-like (flat)",
            params_hash: 7745937512847692575,
            sum: 3.5491529,
            gamma: vec![
                (1, 0.08479975),
                (2, 0.08956332),
                (3, 0.08361996),
                (4, 0.09190088),
            ],
            accuracy: vec![
                0.4583333333333333,
                0.55,
                0.5833333333333334,
                0.6333333333333333,
                0.7,
                0.75,
                0.75,
            ],
        },
        MlpPin {
            label: "run_virtual, sampled mlp on MNIST-like",
            params_hash: 3011167332755446290,
            sum: -2.5773098,
            gamma: vec![
                (1, 0.08301303),
                (2, 0.10285088),
                (3, 0.10980872),
                (4, 0.10273643),
            ],
            accuracy: vec![0.5233333333333333, 0.7133333333333334],
        },
    ];
    assert_eq!(got.len(), pins.len());
    for (g, pin) in got.iter().zip(&pins) {
        assert_eq!(g, pin, "{}: mlp trajectory moved", pin.label);
    }
}

/// Floyd's without-replacement sampler is (empirically) uniform: over
/// 4000 rounds of 5-of-20 cohorts, each worker's selection count sits
/// within a chi-square bound of the expected 1000. Deterministic — the
/// seed is fixed — so this is a regression pin, not a flaky statistical
/// test.
#[test]
fn floyd_sampling_is_uniform_chi_square() {
    let sampler = CohortSampler::new(7);
    let (population, k, rounds) = (20u64, 5usize, 4000usize);
    let mut counts = vec![0u64; population as usize];
    for r in 1..=rounds {
        let ids = sampler.cohort(0, r, population, k);
        assert_eq!(ids.len(), k, "round {r}: wrong cohort size");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "round {r}: cohort not strictly ascending: {ids:?}"
        );
        for id in ids {
            assert!(id < population, "round {r}: id {id} out of range");
            counts[id as usize] += 1;
        }
    }
    let expected = (rounds * k) as f64 / population as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum();
    // 19 degrees of freedom: P(chi2 > 60) < 1e-5 under uniformity.
    assert!(
        chi2 < 60.0,
        "chi-square {chi2:.1} over bound; counts = {counts:?}"
    );
}

/// No stream family ever collides: the per-(worker, round) seed
/// re-derivations are pairwise distinct across families and indices, and
/// per-edge cohort streams are distinct across *tier paths* — two trees
/// with the same edge count but different shapes sample different
/// cohorts at every (edge, round).
#[test]
fn stream_derivations_never_collide_across_tier_paths() {
    let mut seeds = HashSet::new();
    for g in 0..64u64 {
        for r in 0..64u64 {
            for (family, value) in [
                ("worker_round", worker_round_seed(42, g, r)),
                ("batcher", batcher_seed(42, g, r)),
                ("adversary", adversary_stream(g, r)),
                ("delay", delay_stream(g, r)),
                ("fault", fault_stream(g, r)),
            ] {
                assert!(
                    seeds.insert(value),
                    "stream collision at family {family}, worker {g}, round {r}"
                );
            }
        }
    }
    assert_eq!(seeds.len(), 5 * 64 * 64);

    // Two 8-edge trees of different shapes: a depth-5 binary tree and a
    // depth-4 wide tree. Every (tree, edge, round) cohort is distinct —
    // the sampler keys on the full tier path, not the flat edge index.
    let deep = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(1000, 5),
    ])
    .unwrap();
    let wide = TierTree::new(vec![
        TierSpec::new(4, 2),
        TierSpec::new(2, 2),
        TierSpec::new(1000, 5),
    ])
    .unwrap();
    let mut cohorts: HashSet<Vec<u64>> = HashSet::new();
    for tree in [&deep, &wide] {
        let sampler = CohortSampler::for_tree(42, tree);
        for e in 0..tree.num_edges() {
            for r in 1..=16usize {
                assert!(
                    cohorts.insert(sampler.cohort(e, r, 1000, 4)),
                    "cohort stream collision at depth {}, edge {e}, round {r}",
                    tree.depth()
                );
            }
        }
    }
    assert_eq!(cohorts.len(), 2 * 8 * 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Weights::from_cohort` is a partition of unity at every depth of
    /// every small tree: worker shares sum to 1 within each edge, edge
    /// (population) shares sum to 1 globally, and the attached tree's
    /// subtree weights sum to 1 under every parent at every middle depth.
    #[test]
    fn cohort_weights_partition_unity_at_every_depth(
        tree in small_tier_trees(),
        cohort_pick in 0usize..4,
        raw in proptest::collection::vec(1u64..50, 4),
    ) {
        let leaf = tree.levels().last().unwrap().fanout;
        let c = 1 + cohort_pick % leaf;
        let population = WorkerPopulation::from_tier_tree(&tree, 4).unwrap();
        let edge_totals = population.edge_data_samples(&raw);

        let mut levels = tree.levels().to_vec();
        levels.last_mut().unwrap().fanout = c;
        let cohort_tree = TierTree::new(levels).unwrap();
        let h = cohort_tree.edge_hierarchy();
        let (num_workers, num_edges) = (h.num_workers(), h.num_edges());
        let w = Weights::from_cohort(&h, &vec![1u64; num_workers], edge_totals);

        for e in 0..num_edges {
            let per_edge: f64 = h.edge_workers(e).map(|i| w.worker_in_edge(i)).sum();
            prop_assert!((per_edge - 1.0).abs() < 1e-9, "edge {} workers sum to {}", e, per_edge);
        }
        let edges_total: f64 = (0..num_edges).map(|e| w.edge_in_total(e)).sum();
        prop_assert!((edges_total - 1.0).abs() < 1e-9, "edge shares sum to {}", edges_total);
        let total: f64 = (0..num_workers).map(|i| w.worker_in_total(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "worker shares sum to {}", total);

        let x0 = Vector::from(vec![1.0, -2.0, 0.5]);
        let mut s = FlState::new(h, w, &x0);
        s.attach_tree(cohort_tree.clone());
        for d in 1..cohort_tree.levels().len() {
            let fanout = cohort_tree.levels()[d - 1].fanout;
            for parent in 0..cohort_tree.nodes_at(d - 1) {
                let sum: f64 = (parent * fanout..(parent + 1) * fanout)
                    .map(|n| s.subtree_weight(d, n))
                    .sum();
                prop_assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "depth {} parent {} subtree weights sum to {}", d, parent, sum
                );
            }
        }
    }
}

/// The tentpole gate: depth {3, 4, 5} × {FullSync, Deadline, AsyncAge} ×
/// {clean, faults, adversary, dropout}. Every cell completes, replays
/// bitwise, and is invariant to the engine thread count; FullSync cells
/// without faults additionally match the tick-driven engine bit for bit —
/// per-tier γ traces included — because that is where exactness is
/// promised. The dropout cells are the only ones that run sampled cohorts
/// with per-(worker, round) dropout masks.
#[test]
fn depth_policy_chaos_matrix() {
    for tree in sampled_matrix_trees() {
        let f = sampled_tier_fixture(&tree);
        let algo = HierAdMo::adaptive(f.cfg.eta, f.cfg.gamma);
        let model = zoo::logistic_regression(&f.train, 1);
        let adversary_cfg = RunConfig {
            adversary: AdversaryPlan::uniform(
                (0..f.population.total_workers() as usize).step_by(3),
                AttackModel::SignFlip { scale: 2.0 },
            ),
            aggregator: RobustAggregator::TrimmedMean { trim_ratio: 0.25 },
            ..f.cfg.clone()
        };
        let variants = [
            ("clean", f.cfg.clone(), FaultPlan::none()),
            ("faults", f.cfg.clone(), sampled_fault_plan()),
            ("adversary", adversary_cfg, FaultPlan::none()),
            (
                "dropout",
                RunConfig {
                    dropout: 0.3,
                    ..f.cfg.clone()
                },
                FaultPlan::none(),
            ),
        ];
        for policy in matrix_policies() {
            for (chaos, cfg, faults) in &variants {
                let label = format!(
                    "depth={} policy={} chaos={chaos}",
                    tree.depth(),
                    policy.label()
                );
                let sim = SimConfig::new(
                    NetworkEnv::paper_testbed(4),
                    Architecture::ThreeTier,
                    50_000,
                    7,
                    policy,
                )
                .with_tiers(tree.clone())
                .with_faults(faults.clone());
                let run_sim = |threads: usize| {
                    let cfg = RunConfig {
                        threads: Some(threads),
                        ..cfg.clone()
                    };
                    simulate_virtual(&algo, &model, &f.population, &f.shards, &f.test, &cfg, &sim)
                        .unwrap_or_else(|e| panic!("{label}: {e}"))
                };
                let s1 = run_sim(1);
                assert!(
                    s1.curve.final_accuracy().is_some(),
                    "{label}: no evaluation"
                );
                assert!(
                    s1.events > 0 && s1.simulated_seconds > 0.0,
                    "{label}: empty run"
                );
                let s1b = run_sim(1);
                let s4 = run_sim(4);
                for (other, tag) in [(&s1b, "replay"), (&s4, "threads 1 vs 4")] {
                    assert_eq!(s1.curve, other.curve, "{label} [{tag}]: curve");
                    assert_eq!(
                        s1.final_params, other.final_params,
                        "{label} [{tag}]: params"
                    );
                    assert_eq!(s1.gamma_trace, other.gamma_trace, "{label} [{tag}]: gamma");
                    assert_eq!(
                        s1.tier_gamma, other.tier_gamma,
                        "{label} [{tag}]: tier gamma"
                    );
                    assert_eq!(
                        s1.simulated_seconds, other.simulated_seconds,
                        "{label} [{tag}]: clock"
                    );
                    assert_eq!(s1.events, other.events, "{label} [{tag}]: events");
                }
                if *chaos == "faults" {
                    let w = s1
                        .faults
                        .iter()
                        .find(|a| a.actor == "workers")
                        .expect("aggregate worker fault tally");
                    assert!(
                        w.counters.crashes + w.counters.delay_spikes > 0,
                        "{label}: the fault plan never engaged"
                    );
                }
                if matches!(policy, SyncPolicy::FullSync) && faults.is_empty() {
                    let core = run(
                        &algo,
                        &model,
                        &RunSpec::population(&f.population, &f.shards, Some(&tree)),
                        &f.test,
                        cfg,
                    )
                    .unwrap_or_else(|e| panic!("{label}: core engine: {e}"));
                    assert_core_sim_equal(&core, &s1, &label);
                    assert_eq!(
                        core.tier_gamma, s1.tier_gamma,
                        "{label}: tier gamma cross-engine"
                    );
                    if tree.depth() > 3 {
                        assert!(
                            s1.tier_gamma.iter().any(|t| !t.is_empty()),
                            "{label}: middle tiers never fired"
                        );
                    }
                }
            }
        }
    }
}

/// Full participation at every matrix depth delegates to the seed
/// engines bitwise: the tick-driven virtual path reproduces the tree
/// source, and the event-driven virtual path reproduces `simulate`
/// — trajectory, per-tier γ, event count and clock all identical.
#[test]
fn full_participation_sampled_runs_delegate_at_every_depth() {
    for tree in sampled_matrix_trees() {
        let f = sampled_tier_fixture(&tree);
        let cfg = RunConfig {
            sampling: ClientSampling::Full,
            ..f.cfg.clone()
        };
        let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
        let model = zoo::logistic_regression(&f.train, 1);
        let worker_shards = f.population.materialize_shards(&f.shards);
        let label = format!("depth={} full participation", tree.depth());

        let reference = run(
            &algo,
            &model,
            &RunSpec::tree(&tree, &worker_shards),
            &f.test,
            &cfg,
        )
        .unwrap();
        let virt = run(
            &algo,
            &model,
            &RunSpec::population(&f.population, &f.shards, Some(&tree)),
            &f.test,
            &cfg,
        )
        .unwrap();
        assert_same_trajectory(&reference, &virt, &label);
        assert_eq!(reference.tier_gamma, virt.tier_gamma, "{label}: tier gamma");

        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(tree.num_workers()),
            Architecture::ThreeTier,
            50_000,
            7,
            SyncPolicy::FullSync,
        )
        .with_tiers(tree.clone());
        let sim_ref = simulate(
            &algo,
            &model,
            &tree.edge_hierarchy(),
            &worker_shards,
            &f.test,
            &cfg,
            &sim,
        )
        .unwrap();
        let sim_virt =
            simulate_virtual(&algo, &model, &f.population, &f.shards, &f.test, &cfg, &sim).unwrap();
        assert_eq!(sim_ref.curve, sim_virt.curve, "{label}: sim curve");
        assert_eq!(
            sim_ref.timed_curve, sim_virt.timed_curve,
            "{label}: timed curve"
        );
        assert_eq!(
            sim_ref.final_params, sim_virt.final_params,
            "{label}: sim params"
        );
        assert_eq!(sim_ref.events, sim_virt.events, "{label}: events");
        assert_eq!(
            sim_ref.simulated_seconds, sim_virt.simulated_seconds,
            "{label}: clock"
        );
        assert_eq!(
            sim_ref.tier_gamma, sim_virt.tier_gamma,
            "{label}: sim tier gamma"
        );
    }
}

/// The relaxed-policy sampled cells pinned by value: the matrix above
/// compares their replays only with each other (replay, thread count), so
/// a change that moved every replay alike would pass it. One Deadline and
/// one AsyncAge cell of the depth-4 tree under the fault plan — the
/// faults leave stragglers that a relaxed firing computes over the steps
/// they took — each pinned by a bit hash of the whole parameter vector,
/// its sum, the γ trace and the accuracies.
#[test]
fn relaxed_sampled_trajectories_are_pinned() {
    use common::MlpPin;

    let tree = &sampled_matrix_trees()[1];
    let f = sampled_tier_fixture(tree);
    let algo = HierAdMo::adaptive(f.cfg.eta, f.cfg.gamma);
    let model = zoo::logistic_regression(&f.train, 1);
    let [_, deadline, async_age] = matrix_policies();
    let got: Vec<MlpPin> = [
        ("simulate_virtual, depth 4, Deadline, faults", deadline),
        ("simulate_virtual, depth 4, AsyncAge, faults", async_age),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(4),
            Architecture::ThreeTier,
            50_000,
            7,
            policy,
        )
        .with_tiers(tree.clone())
        .with_faults(sampled_fault_plan());
        let r = simulate_virtual(
            &algo,
            &model,
            &f.population,
            &f.shards,
            &f.test,
            &f.cfg,
            &sim,
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        let accuracy: Vec<f64> = r.curve.points().iter().map(|p| p.test_accuracy).collect();
        MlpPin::of(label, r.final_params.as_slice(), &r.gamma_trace, &accuracy)
    })
    .collect();
    let pins = [
        MlpPin {
            label: "simulate_virtual, depth 4, Deadline, faults",
            params_hash: 8950114380675208493,
            sum: 1.8621628,
            gamma: vec![
                (1, 0.0),
                (2, 0.04920862),
                (3, 0.06105069),
                (4, 0.007766193),
                (5, 0.076890685),
                (6, 0.16413796),
                (7, 0.111266196),
                (8, 0.15278421),
            ],
            accuracy: vec![0.625, 0.953125],
        },
        MlpPin {
            label: "simulate_virtual, depth 4, AsyncAge, faults",
            params_hash: 2159800205450931979,
            sum: 1.8621627,
            gamma: vec![
                (1, 0.0),
                (2, 0.018691808),
                (3, 0.03686835),
                (4, 0.0),
                (5, 0.050142124),
                (6, 0.10357977),
                (7, 0.08477861),
                (8, 0.09052233),
            ],
            accuracy: vec![0.609375, 0.75],
        },
    ];
    assert_eq!(got.len(), pins.len());
    for (g, pin) in got.iter().zip(&pins) {
        assert_eq!(g, pin, "{}: relaxed sampled trajectory moved", pin.label);
    }
}

/// Byzantine stragglers on the relaxed-policy sampled cells, pinned by
/// value: the depth-4 tree of [`relaxed_sampled_trajectories_are_pinned`]
/// under Deadline and AsyncAge with the fault plan and a sign-flip stripe
/// over every third registered worker. The firings there catch Byzantine
/// slots mid-round, which must aggregate unpoisoned: only an upload that
/// reached its edge is corrupted. Each cell pins the parameter bit hash,
/// its sum, the γ trace, the accuracies and the poisoned-upload count.
#[test]
fn relaxed_sampled_byzantine_trajectories_are_pinned() {
    use common::MlpPin;

    let tree = &sampled_matrix_trees()[1];
    let f = sampled_tier_fixture(tree);
    let stripe: Vec<usize> = (0..tree.num_workers()).step_by(3).collect();
    let cfg = RunConfig {
        adversary: AdversaryPlan::uniform(stripe, AttackModel::SignFlip { scale: 2.0 }),
        ..f.cfg.clone()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&f.train, 1);
    let [_, deadline, async_age] = matrix_policies();
    let got: Vec<(MlpPin, u64)> = [
        (
            "simulate_virtual, depth 4, Deadline, faults, stripe",
            deadline,
        ),
        (
            "simulate_virtual, depth 4, AsyncAge, faults, stripe",
            async_age,
        ),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(4),
            Architecture::ThreeTier,
            50_000,
            7,
            policy,
        )
        .with_tiers(tree.clone())
        .with_faults(sampled_fault_plan());
        let r = simulate_virtual(&algo, &model, &f.population, &f.shards, &f.test, &cfg, &sim)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let accuracy: Vec<f64> = r.curve.points().iter().map(|p| p.test_accuracy).collect();
        let poisoned = r.adversaries.iter().map(|a| a.counters.poisoned_uploads);
        (
            MlpPin::of(label, r.final_params.as_slice(), &r.gamma_trace, &accuracy),
            poisoned.sum(),
        )
    })
    .collect();
    let pins = [
        (
            MlpPin {
                label: "simulate_virtual, depth 4, Deadline, faults, stripe",
                params_hash: 12351989513912717593,
                sum: 0.85026205,
                gamma: vec![
                    (1, 0.0),
                    (2, 0.01711174),
                    (3, 0.23097736),
                    (4, 0.27861887),
                    (5, 0.028753787),
                    (6, 0.12772015),
                    (7, 0.03354321),
                    (8, 0.0037096124),
                ],
                accuracy: vec![0.484375, 0.171875],
            },
            13,
        ),
        (
            MlpPin {
                label: "simulate_virtual, depth 4, AsyncAge, faults, stripe",
                params_hash: 14858740326967329185,
                sum: -0.45951164,
                gamma: vec![
                    (1, 0.0),
                    (2, 0.010395189),
                    (3, 0.028049268),
                    (4, 0.07498198),
                    (5, 0.11406975),
                    (6, 0.3859832),
                    (7, 0.14633816),
                    (8, 0.16605224),
                ],
                accuracy: vec![0.640625, 0.96875],
            },
            9,
        ),
    ];
    assert_eq!(got.len(), pins.len());
    for (g, pin) in got.iter().zip(&pins) {
        assert_eq!(
            g, pin,
            "{}: Byzantine relaxed trajectory moved",
            pin.0.label
        );
    }
}

/// Wraps a strategy and NaN-fills every worker slot the hook could reach
/// after each of its edge, middle and root hooks (vectors to NaN, `steps`
/// to `usize::MAX`), bypassing the distribution helpers. Sampled slots
/// are round-scoped: the engines rebuild each slot from its edge's
/// download before it is read again, so a sampled run through this
/// wrapper must reproduce the unwrapped run bit for bit. A difference
/// means some code reads a slot after a hook.
struct PoisonSlots<S>(S);

fn poison(workers: &mut [WorkerState]) {
    for w in workers {
        for v in [
            &mut w.x,
            &mut w.y,
            &mut w.v,
            &mut w.grad_accum,
            &mut w.y_accum,
            &mut w.v_accum,
            &mut w.scratch,
        ] {
            v.fill(f32::NAN);
        }
        w.steps = usize::MAX;
    }
}

impl<S: Strategy> Strategy for PoisonSlots<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn tier(&self) -> Tier {
        self.0.tier()
    }
    fn init(&self, state: &mut FlState) {
        self.0.init(state);
    }
    fn local_step(
        &self,
        t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        self.0.local_step(t, worker, grad);
    }
    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>) {
        self.0.edge_aggregate(k, view);
        poison(view.workers);
    }
    fn cloud_aggregate(&self, p: usize, state: &mut FlState) {
        self.0.cloud_aggregate(p, state);
        poison(&mut state.workers);
    }
    fn edge_aggregate_stale(&self, k: usize, view: &mut EdgeView<'_>, staleness: &[usize]) {
        self.0.edge_aggregate_stale(k, view, staleness);
        poison(view.workers);
    }
    fn cloud_aggregate_stale(&self, p: usize, state: &mut FlState, staleness: &[usize]) {
        self.0.cloud_aggregate_stale(p, state, staleness);
        poison(&mut state.workers);
    }
    fn tier_aggregate(&self, scope: TierScope<'_, '_>, round: usize) {
        match scope {
            TierScope::Edge(view) => {
                self.0.tier_aggregate(TierScope::Edge(&mut *view), round);
                poison(view.workers);
            }
            TierScope::Middle { depth, node, state } => {
                let scope = TierScope::Middle {
                    depth,
                    node,
                    state: &mut *state,
                };
                self.0.tier_aggregate(scope, round);
                poison(&mut state.workers);
            }
            TierScope::Root(state) => {
                self.0.tier_aggregate(TierScope::Root(&mut *state), round);
                poison(&mut state.workers);
            }
        }
    }
    fn tier_aggregate_stale(&self, scope: TierScope<'_, '_>, round: usize, staleness: &[usize]) {
        match scope {
            TierScope::Edge(view) => {
                self.0
                    .tier_aggregate_stale(TierScope::Edge(&mut *view), round, staleness);
                poison(view.workers);
            }
            TierScope::Middle { depth, node, state } => {
                let scope = TierScope::Middle {
                    depth,
                    node,
                    state: &mut *state,
                };
                self.0.tier_aggregate_stale(scope, round, staleness);
                poison(&mut state.workers);
            }
            TierScope::Root(state) => {
                self.0
                    .tier_aggregate_stale(TierScope::Root(&mut *state), round, staleness);
                poison(&mut state.workers);
            }
        }
    }
    fn global_params(&self, state: &FlState) -> Vector {
        self.0.global_params(state)
    }
    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        self.0.check_topology(hierarchy)
    }
}

/// The round-scoped slot invariant, gated on the pinned scenarios: the
/// depth-3 run of `sampled_trajectory_and_cohorts_are_pinned` (flat,
/// depth-3 and pass-through tiered, and the event engine under full
/// sync), the depth-4 tree of `relaxed_sampled_trajectories_are_pinned`
/// under full sync in both engines (middle hooks), and its Deadline and
/// AsyncAge cells with faults (partial cloud firings, stragglers and
/// absent slots). Through [`PoisonSlots`] every one reproduces the
/// unwrapped run — the run the pins hold by value — bit for bit.
#[test]
fn sampled_runs_never_read_a_slot_after_its_hook() {
    let tt = SyntheticDataset::mnist_like(60, 30, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let population = WorkerPopulation::uniform(2, 100, 4).unwrap();
    let cfg = RunConfig {
        tau: 5,
        pi: 2,
        total_iters: 20,
        eval_every: 10,
        batch_size: 8,
        seed: 42,
        threads: Some(1),
        sampling: ClientSampling::PerEdge { count: 3 },
        ..RunConfig::default()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let poisoned = PoisonSlots(algo.clone());
    let model = zoo::logistic_regression(&tt.train, 1);
    let pinned = run(
        &algo,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &cfg,
    )
    .unwrap();
    let sum: f32 = pinned.final_params.as_slice().iter().sum();
    assert_eq!(sum, -1.1442246, "the unwrapped run is the pinned one");
    let flat = run(
        &poisoned,
        &model,
        &RunSpec::population(&population, &shards, None),
        &tt.test,
        &cfg,
    )
    .unwrap();
    assert_same_trajectory(&pinned, &flat, "poisoned flat run_virtual");
    let padded = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::pass_through(1),
        TierSpec::new(100, 5),
    ])
    .unwrap();
    for tree in [TierTree::three_tier(2, 100, 5, 2), padded] {
        let r = run(
            &poisoned,
            &model,
            &RunSpec::population(&population, &shards, Some(&tree)),
            &tt.test,
            &cfg,
        )
        .unwrap();
        assert_same_trajectory(&pinned, &r, "poisoned run_virtual_tiered");
    }
    let sim = simulate_virtual(
        &poisoned,
        &model,
        &population,
        &shards,
        &tt.test,
        &cfg,
        &virtual_sim_config(3),
    )
    .unwrap();
    assert_core_sim_equal(&pinned, &sim, "poisoned simulate_virtual");

    let tree = &sampled_matrix_trees()[1];
    let f = sampled_tier_fixture(tree);
    let algo = HierAdMo::adaptive(f.cfg.eta, f.cfg.gamma);
    let poisoned = PoisonSlots(algo.clone());
    let model = zoo::logistic_regression(&f.train, 1);
    let core = |s: &dyn Strategy| {
        run(
            s,
            &model,
            &RunSpec::population(&f.population, &f.shards, Some(tree)),
            &f.test,
            &f.cfg,
        )
        .unwrap()
    };
    assert_same_trajectory(&core(&algo), &core(&poisoned), "poisoned depth-4 core");
    for (policy, faults) in [
        (SyncPolicy::FullSync, FaultPlan::none()),
        (matrix_policies()[1], sampled_fault_plan()),
        (matrix_policies()[2], sampled_fault_plan()),
    ] {
        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(4),
            Architecture::ThreeTier,
            50_000,
            7,
            policy,
        )
        .with_tiers(tree.clone())
        .with_faults(faults);
        let run = |s: &dyn Strategy| {
            simulate_virtual(s, &model, &f.population, &f.shards, &f.test, &f.cfg, &sim).unwrap()
        };
        let (want, got) = (run(&algo), run(&poisoned));
        let label = format!("poisoned depth-4 simulate_virtual, {policy:?}");
        assert_eq!(want.curve, got.curve, "{label}: curve differs");
        assert_eq!(want.final_params, got.final_params, "{label}: params");
        assert_eq!(want.gamma_trace, got.gamma_trace, "{label}: gamma");
        assert_eq!(want.tier_gamma, got.tier_gamma, "{label}: tier gamma");
        assert_eq!(want.events, got.events, "{label}: events");
    }
}

/// Wraps a strategy and checks, at every hook the engines call, the width
/// of every worker slot the hook reaches. A resident slot holds `x`, `y`,
/// `v` and the interval sums the strategy declared in `init` at the
/// model's width, every undeclared sum zero-width, and an empty scratch.
/// Every edge hook sees only resident slots. So does every middle and
/// root hook of a registered run; on a sampled run they must find every
/// slot zero-dimensional instead: the event engine computes a sampled
/// edge's cohort when the edge fires and releases the buffers right after
/// its hook, so no slot is resident outside its edge's firing.
struct SlotLifetime<'a> {
    inner: &'a dyn Strategy,
    dim: usize,
    /// Whether the run samples its cohorts (round-scoped slots).
    sampled: bool,
    /// The sums the inner strategy declared, recorded by `init`.
    declared: Mutex<Option<IntervalSums>>,
    edge_hooks: AtomicUsize,
    upper_hooks: AtomicUsize,
}

impl<'a> SlotLifetime<'a> {
    fn new(inner: &'a dyn Strategy, dim: usize, sampled: bool) -> Self {
        SlotLifetime {
            inner,
            dim,
            sampled,
            declared: Mutex::new(None),
            edge_hooks: AtomicUsize::new(0),
            upper_hooks: AtomicUsize::new(0),
        }
    }

    /// The widths of a resident slot, as [`slot_widths`] lists them.
    fn resident(&self) -> [usize; 7] {
        let sums = self.declared.lock().unwrap().expect("init ran first");
        let d = self.dim;
        let width = |declared: bool| if declared { d } else { 0 };
        [d, d, d, width(sums.grad), width(sums.y), width(sums.v), 0]
    }
}

fn slot_widths(w: &WorkerState) -> [usize; 7] {
    [
        w.x.len(),
        w.y.len(),
        w.v.len(),
        w.grad_accum.len(),
        w.y_accum.len(),
        w.v_accum.len(),
        w.scratch.len(),
    ]
}

impl Strategy for SlotLifetime<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn tier(&self) -> Tier {
        self.inner.tier()
    }
    fn init(&self, state: &mut FlState) {
        self.inner.init(state);
        *self.declared.lock().unwrap() = Some(state.interval_sums());
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
        let resident = self.resident();
        let workers = match &scope {
            TierScope::Edge(view) => {
                for w in view.workers.iter() {
                    assert_eq!(slot_widths(w), resident, "edge hook, round {round}");
                }
                self.edge_hooks.fetch_add(1, Ordering::Relaxed);
                return self.inner.tier_aggregate_stale(scope, round, staleness);
            }
            TierScope::Middle { state, .. } | TierScope::Root(state) => &state.workers,
        };
        let want = if self.sampled { [0; 7] } else { resident };
        for w in workers {
            assert_eq!(slot_widths(w), want, "middle or root hook, round {round}");
        }
        self.upper_hooks.fetch_add(1, Ordering::Relaxed);
        self.inner.tier_aggregate_stale(scope, round, staleness);
    }
    fn global_params(&self, state: &FlState) -> Vector {
        self.inner.global_params(state)
    }
    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        self.inner.check_topology(hierarchy)
    }
}

/// Sampled slots live only while their edge fires: on the depth-4 tree of
/// `relaxed_sampled_trajectories_are_pinned`, under full sync, Deadline
/// and AsyncAge, with the fault plan (absent slots, stragglers, partial
/// cloud firings) and one Byzantine worker, every edge hook of
/// `simulate_virtual` sees resident slots, holding HierAdMo's declared
/// sums, and every middle and root hook sees only zero-dimensional ones
/// (see [`SlotLifetime`]). And every registered worker copy holds what
/// its strategy declares: for each of the 11 Table II strategies, on
/// `core::run` over a hierarchy and over a depth-4 tree, and on
/// `simulate` under the flaky fault plan (crashes, lossy links, delay
/// spikes), every hook sees only resident slots. Each run reproduces the
/// unwrapped run bit for bit. Two-tier strategies run on one edge, the
/// tree's middle tier a pass-through.
#[test]
fn sampled_slots_live_only_during_their_edge_firing() {
    use hieradmo::netsim::ByzantineWorker;

    let tree = &sampled_matrix_trees()[1];
    let f = sampled_tier_fixture(tree);
    let cfg = RunConfig {
        adversary: AdversaryPlan {
            byzantine: vec![ByzantineWorker {
                worker: 2,
                attack: AttackModel::SignFlip { scale: 2.0 },
            }],
        },
        ..f.cfg.clone()
    };
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let model = zoo::logistic_regression(&f.train, 1);
    for policy in matrix_policies() {
        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(4),
            Architecture::ThreeTier,
            50_000,
            7,
            policy,
        )
        .with_tiers(tree.clone())
        .with_faults(sampled_fault_plan());
        let checked = SlotLifetime::new(&algo, model.params().len(), true);
        let run = |s: &dyn Strategy| {
            simulate_virtual(s, &model, &f.population, &f.shards, &f.test, &cfg, &sim).unwrap()
        };
        let (want, got) = (run(&algo), run(&checked));
        let label = format!("slot lifetime, depth-4 simulate_virtual, {policy:?}");
        assert!(checked.edge_hooks.into_inner() > 0, "{label}: no edge hook");
        assert!(
            checked.upper_hooks.into_inner() > 0,
            "{label}: no upper hook"
        );
        let poisoned: u64 = want
            .adversaries
            .iter()
            .map(|a| a.counters.poisoned_uploads)
            .sum();
        assert!(poisoned > 0, "{label}: the Byzantine worker never uploaded");
        assert_eq!(want.curve, got.curve, "{label}: curve differs");
        assert_eq!(want.final_params, got.final_params, "{label}: params");
        assert_eq!(want.gamma_trace, got.gamma_trace, "{label}: gamma");
        assert_eq!(want.tier_gamma, got.tier_gamma, "{label}: tier gamma");
        assert_eq!(want.adversaries, got.adversaries, "{label}: adversaries");
        assert_eq!(want.events, got.events, "{label}: events");
    }

    let flaky = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.02,
            min_downtime_ms: 50.0,
            max_downtime_ms: 400.0,
        }),
        permanent: Vec::new(),
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.1,
            factor: 4.0,
        }),
    };
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let dim = model.params().len();
    let mut crashes = 0;
    for algo in table2_lineup(0.05, 0.5, 0.5) {
        let algo = algo.as_ref();
        let name = algo.name();
        let (hierarchy, pi, levels, architecture) = match algo.tier() {
            Tier::Three => (
                f.hierarchy.clone(),
                f.cfg.pi,
                vec![
                    TierSpec::new(2, 2),
                    TierSpec::new(2, 2),
                    TierSpec::new(2, 2),
                ],
                Architecture::ThreeTier,
            ),
            Tier::Two => (
                Hierarchy::two_tier(4),
                1,
                vec![
                    TierSpec::new(1, 2),
                    TierSpec::pass_through(1),
                    TierSpec::new(4, 2),
                ],
                Architecture::TwoTier,
            ),
        };
        let cfg = RunConfig {
            pi,
            ..f.cfg.clone()
        };
        assert_slots_resident(
            &format!("{name}, core::run on a hierarchy"),
            algo,
            dim,
            |s| {
                let spec = RunSpec::hierarchy(&hierarchy, &f.shards);
                let r = run(s, &model, &spec, &f.test, &cfg).unwrap();
                (r.curve, r.final_params, r.gamma_trace)
            },
        );

        let tree = TierTree::new(levels).unwrap();
        let tf = common::tiered_fixture(&tree);
        let tree_model = zoo::logistic_regression(&tf.train, 1);
        let tree_dim = tree_model.params().len();
        assert_slots_resident(
            &format!("{name}, core::run on a depth-4 tree"),
            algo,
            tree_dim,
            |s| {
                let spec = RunSpec::tree(&tree, &tf.shards);
                let r = run(s, &tree_model, &spec, &tf.test, &tf.cfg).unwrap();
                (r.curve, r.final_params, r.tier_gamma)
            },
        );

        let mut sim = sim_config(3, SyncPolicy::FullSync).with_faults(flaky.clone());
        sim.architecture = architecture;
        let (.., faults) = assert_slots_resident(
            &format!("{name}, simulate with flaky faults"),
            algo,
            dim,
            |s| {
                let r = simulate(s, &model, &hierarchy, &f.shards, &f.test, &cfg, &sim).unwrap();
                (r.curve, r.final_params, r.gamma_trace, r.events, r.faults)
            },
        );
        crashes += faults.iter().map(|a| a.counters.crashes).sum::<u64>();
    }
    assert!(
        crashes > 0,
        "no worker crashed: no slot was restored from a rejoin point"
    );
}

/// Runs `inner` plainly and through a registered-slot [`SlotLifetime`]:
/// the wrapped run must reach edge and upper hooks and reproduce the
/// plain run's `R`, which is returned.
fn assert_slots_resident<R: PartialEq + std::fmt::Debug>(
    label: &str,
    inner: &dyn Strategy,
    dim: usize,
    run: impl Fn(&dyn Strategy) -> R,
) -> R {
    let checked = SlotLifetime::new(inner, dim, false);
    let (want, got) = (run(inner), run(&checked));
    assert!(checked.edge_hooks.into_inner() > 0, "{label}: no edge hook");
    assert!(
        checked.upper_hooks.into_inner() > 0,
        "{label}: no upper hook"
    );
    assert_eq!(want, got, "{label}: the wrapped run differs");
    want
}
