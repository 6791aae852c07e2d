//! Acceptance gates for the elastic hierarchy runtime.
//!
//! Four guarantees are pinned here, mirroring the depth-equivalence
//! suite's structure for the topology-churn axis:
//!
//! 1. **Idle-plan identity** — `run` / `simulate` with a non-empty
//!    [`ChurnPlan`] that never fires (its events fall at or after the
//!    final cloud round) carry churn state that crosses no boundary and are
//!    *bitwise* the frozen-tree engines for every algorithm in the
//!    five-algorithm lineup: same curve, final parameters, diagnostics
//!    traces and simulated clock, with all-zero topology counters.
//!    Elasticity must cost nothing when nothing churns.
//! 2. **Churn determinism** — a non-trivial `(plan, seed)` pair replays
//!    bitwise across thread counts *and* across engines (core driver vs
//!    FullSync co-simulation), topology counters included.
//! 3. **Graceful degradation** — permanently failing a minority edge
//!    mid-run, with its workers live-re-parented onto the survivor,
//!    finishes within three points of the clean run's accuracy.
//! 4. **Composition** — churn composes with a fault plan and an
//!    adversary plan under every [`SyncPolicy`] without deadlock, and a
//!    checkpoint taken mid-plan resumes across the remaining topology
//!    epochs bitwise, through a JSON round-trip, at any thread count.
//!
//! The relaxed-policy chaos cells and one tick-engine churn run are also
//! pinned by value, so a change that moved both engines the same way
//! would still fail.

mod common;

use common::{
    assert_bitwise_equal, bits_hash, churn_fixture, matrix_policies, sim_config, sim_fixture,
    wide_sim_fixture, SimFixture,
};
use hieradmo::core::algorithms::{Cfl, HierAdMo, HierFavg};
use hieradmo::core::compression::{Compression, QuantizedHierFavg};
use hieradmo::core::{run, RunError, RunSpec, Strategy, TrainingSnapshot};
use hieradmo::netsim::{
    stream_seed, AdversaryPlan, AttackModel, CrashProfile, DelaySpikes, FaultPlan, LinkFaults,
    PermanentCrash,
};
use hieradmo::simrt::{simulate, SyncPolicy};
use hieradmo::topology::{churn_stream_seed, ChurnPlan, ScheduledEvent, TopologyEvent};

/// The five-algorithm lineup every equivalence gate runs.
fn lineup() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(HierAdMo::adaptive(0.01, 0.5)),
        Box::new(HierAdMo::reduced(0.01, 0.5, 0.5)),
        Box::new(HierFavg::new(0.01)),
        Box::new(Cfl::new(0.01, 0.5)),
        Box::new(QuantizedHierFavg::new(0.01, Compression::TopK { k: 8 })),
    ]
}

/// Join the spare worker, fail an edge (re-homing its members), then
/// re-form: one of every event family the counters distinguish.
fn churn_plan() -> ChurnPlan {
    ChurnPlan {
        events: vec![
            ScheduledEvent {
                round: 1,
                event: TopologyEvent::Join { worker: 4, edge: 0 },
            },
            ScheduledEvent {
                round: 2,
                event: TopologyEvent::EdgeFail { edge: 1 },
            },
            ScheduledEvent {
                round: 3,
                event: TopologyEvent::EdgeReform,
            },
        ],
        reform_every: None,
    }
}

#[test]
fn never_firing_plan_is_bitwise_identical_to_the_frozen_engines() {
    let fx = sim_fixture(0.0);
    // Non-empty, so `run` and `simulate` take their churn paths, but
    // nothing fires: the explicit event is scheduled at the run's final
    // cloud round (nothing left to act on) and the periodic reform first
    // falls after it. Neither engine ever crosses a boundary.
    let rounds = fx.cfg.total_iters / (fx.cfg.tau * fx.cfg.pi);
    let idle = ChurnPlan {
        events: vec![ScheduledEvent {
            round: rounds,
            event: TopologyEvent::EdgeReform,
        }],
        reform_every: Some(rounds + 1),
    };
    assert!(!idle.is_empty());
    assert!(idle.boundary_rounds(rounds).is_empty());
    let mut idle_cfg = fx.cfg.clone();
    idle_cfg.churn = idle;
    for strategy in lineup() {
        let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
        let frozen = run(
            strategy.as_ref(),
            &model,
            &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
            &fx.test,
            &fx.cfg,
        )
        .unwrap();
        let elastic = run(
            strategy.as_ref(),
            &model,
            &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
            &fx.test,
            &idle_cfg,
        )
        .unwrap();
        let label = strategy.name();
        assert_eq!(frozen.curve, elastic.curve, "{label}: curve differs");
        assert_eq!(
            frozen.final_params, elastic.final_params,
            "{label}: final params differ"
        );
        assert_eq!(frozen.gamma_trace, elastic.gamma_trace, "{label}: gamma");
        assert_eq!(frozen.cos_trace, elastic.cos_trace, "{label}: cos");
        assert!(
            elastic.topology.is_zero(),
            "{label}: a plan that never fires tallied topology counters"
        );

        let sim_cfg = sim_config(7, SyncPolicy::FullSync);
        let frozen_sim = simulate(
            strategy.as_ref(),
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &fx.cfg,
            &sim_cfg,
        )
        .unwrap();
        let elastic_sim = simulate(
            strategy.as_ref(),
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &idle_cfg,
            &sim_cfg,
        )
        .unwrap();
        assert_bitwise_equal(&frozen, &elastic_sim, &format!("{label} (sim)"));
        assert_eq!(
            frozen_sim.simulated_seconds, elastic_sim.simulated_seconds,
            "{label}: simulated clock differs"
        );
        assert_eq!(
            frozen_sim.timed_curve, elastic_sim.timed_curve,
            "{label}: timed curve differs"
        );
        assert!(elastic_sim.topology.is_zero(), "{label}: sim counters");
    }
}

#[test]
fn churn_replays_bitwise_across_thread_counts_and_engines() {
    let fx = churn_fixture();
    let plan = churn_plan();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);

    let mut cfg1 = fx.cfg.clone();
    cfg1.churn = plan.clone();
    let core1 = run(
        &strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        &cfg1,
    )
    .unwrap();

    let mut cfg4 = cfg1.clone();
    cfg4.threads = Some(4);
    let core4 = run(
        &strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        &cfg4,
    )
    .unwrap();
    assert_eq!(core1.final_params, core4.final_params, "thread count");
    assert_eq!(core1.curve, core4.curve, "thread count: curve");
    assert_eq!(core1.topology, core4.topology, "thread count: counters");

    assert_eq!(core1.topology.joins, 1);
    assert_eq!(core1.topology.leaves, 0);
    assert_eq!(core1.topology.orphaned_rounds, 2, "EdgeFail strands 2");
    assert_eq!(core1.topology.reformations, 1);
    assert!(
        core1.topology.migrations >= 2,
        "both stranded workers must re-home"
    );

    let sim_cfg = sim_config(7, SyncPolicy::FullSync);
    let sim = simulate(
        &strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        &cfg1,
        &sim_cfg,
    )
    .unwrap();
    assert_bitwise_equal(&core1, &sim, "churn cross-engine");
    assert_eq!(core1.topology, sim.topology, "cross-engine counters");
}

#[test]
fn edge_failure_with_live_reparenting_degrades_gracefully() {
    let fx = wide_sim_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let clean = run(
        &strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        &fx.cfg,
    )
    .unwrap();

    // Fail edge 1 at the half-way cloud round (tick 100 of 200); its four
    // workers re-home under edge 0 and keep training there.
    let mut cfg = fx.cfg.clone();
    cfg.churn = ChurnPlan {
        events: vec![ScheduledEvent {
            round: 10,
            event: TopologyEvent::EdgeFail { edge: 1 },
        }],
        reform_every: None,
    };
    let churned = run(
        &strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        &cfg,
    )
    .unwrap();
    assert_eq!(churned.topology.orphaned_rounds, 4);
    assert_eq!(churned.topology.migrations, 4);

    let clean_acc = clean.curve.final_accuracy().unwrap();
    let churn_acc = churned.curve.final_accuracy().unwrap();
    assert!(
        churn_acc >= clean_acc - 0.03,
        "edge failure cost more than 3 points: clean {clean_acc:.4}, churned {churn_acc:.4}"
    );
}

#[test]
fn churn_composes_with_faults_and_adversaries_under_every_policy() {
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);

    let mut cfg = fx.cfg.clone();
    cfg.churn = churn_plan();
    cfg.adversary = AdversaryPlan::uniform([0], AttackModel::SignFlip { scale: 3.0 });

    let faults = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.2,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![PermanentCrash {
            worker: 1,
            at_ms: 150.0,
        }],
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    };

    for policy in matrix_policies() {
        let sim_cfg = sim_config(11, policy).with_faults(faults.clone());
        let a = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap_or_else(|e| panic!("{policy:?} deadlocked or failed: {e:?}"));
        assert!(
            !a.curve.is_empty(),
            "{policy:?}: churn + faults produced no eval points"
        );
        assert!(
            a.final_params.iter().all(|p| p.is_finite()),
            "{policy:?}: non-finite parameters"
        );
        assert!(a.simulated_seconds > 0.0, "{policy:?}: clock never moved");
        assert_eq!(a.topology.joins, 1, "{policy:?}: join not applied");
        assert_eq!(a.topology.reformations, 1, "{policy:?}: reform not applied");

        // The same chaos cell replays bitwise: determinism survives the
        // full fault × adversary × churn composition.
        let b = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap();
        assert_eq!(a.final_params, b.final_params, "{policy:?}: replay");
        assert_eq!(a.timed_curve, b.timed_curve, "{policy:?}: replay clock");
    }
}

#[test]
fn checkpoint_resumes_across_a_topology_epoch_boundary() {
    let fx = churn_fixture();
    let plan = churn_plan();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let mut cfg = fx.cfg.clone();
    cfg.churn = plan;

    let full = run(
        &strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        &cfg,
    )
    .unwrap();

    // Stop mid-epoch at tick 25: the Join (tick 10) and EdgeFail (tick
    // 20) epochs are behind the snapshot, the EdgeReform (tick 30) still
    // ahead of it.
    let snap = run(
        &strategy,
        &model,
        &RunSpec {
            stop_at: Some(25),
            ..RunSpec::hierarchy(&fx.hierarchy, &fx.shards)
        },
        &fx.test,
        &cfg,
    )
    .unwrap()
    .snapshot
    .unwrap();
    let topo = snap.topology.as_ref().expect("elastic snapshot");
    assert_eq!(topo.live_edges(), vec![0], "edge 1 failed before the cut");
    assert_eq!(snap.workers.len(), 5, "joined worker checkpointed");
    // The re-homed ex-members of edge 1 carry damped but non-zero
    // momentum through the checkpoint.
    let moved: Vec<usize> = (0..5).filter(|&u| topo.parent_of(u) == Some(0)).collect();
    assert_eq!(moved.len(), 5, "all five workers sit under the survivor");

    let json = snap.to_json();
    let restored = TrainingSnapshot::from_json(&json).unwrap();
    assert_eq!(restored.tick, 25);
    assert_eq!(restored.topology, snap.topology, "topology survives JSON");

    for threads in [1usize, 4] {
        let mut resume_cfg = cfg.clone();
        resume_cfg.threads = Some(threads);
        let resumed = run(
            &strategy,
            &model,
            &RunSpec {
                resume: Some(&restored),
                ..RunSpec::hierarchy(&fx.hierarchy, &fx.shards)
            },
            &fx.test,
            &resume_cfg,
        )
        .unwrap();
        assert_eq!(
            resumed.final_params, full.final_params,
            "resume at {threads} threads diverged"
        );
        // Only the reform boundary remains ahead of the snapshot.
        assert_eq!(resumed.topology.reformations, 1, "threads {threads}");
        assert_eq!(resumed.topology.joins, 0, "threads {threads}");
        assert_eq!(resumed.topology.orphaned_rounds, 0, "threads {threads}");
    }
}

#[test]
fn churn_streams_reuse_the_netsim_stream_hash() {
    for master in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
        for stream in [0u64, 1, 7, 1_000_003] {
            assert_eq!(
                churn_stream_seed(master, stream),
                stream_seed(master, stream),
                "churn streams must be the netsim SplitMix64 hash bit-for-bit"
            );
        }
    }
}

#[test]
fn deadline_policy_survives_a_minority_edge_failure_without_deadlock() {
    // The CI churn-smoke step's no-deadlock gate: kill the minority edge
    // under each relaxed policy and require the run to drain to the end.
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierFavg::new(0.01);
    let mut cfg = fx.cfg.clone();
    cfg.churn = ChurnPlan {
        events: vec![ScheduledEvent {
            round: 1,
            event: TopologyEvent::EdgeFail { edge: 1 },
        }],
        reform_every: None,
    };
    for policy in matrix_policies() {
        let sim_cfg = sim_config(3, policy);
        let out = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap_or_else(|e| panic!("{policy:?} failed after edge death: {e:?}"));
        assert_eq!(out.topology.orphaned_rounds, 2, "{policy:?}");
        assert!(!out.curve.is_empty(), "{policy:?}: no eval points");
    }
}

/// One churn run pinned by value: the parameters by bit hash and sum, the
/// γ trace, the accuracies, the topology counters and, for the event
/// engine, the timed axis, the event count and every actor's utilization.
#[derive(Debug, PartialEq)]
struct ChurnPin {
    label: &'static str,
    params_hash: u64,
    sum: f32,
    gamma: Vec<(usize, f32)>,
    accuracy: Vec<f64>,
    /// `[joins, leaves, migrations, reformations, orphaned_rounds]`.
    topology: [u64; 5],
    /// Bits of each timed point's seconds (empty for the tick engine).
    seconds: Vec<u64>,
    simulated_seconds: u64,
    events: u64,
    /// `(actor, utilization bits, poisoned uploads)` per actor; the tick
    /// engine reports `(uid, 0, poisoned uploads)` per registered worker.
    actors: Vec<(String, u64, u64)>,
}

fn topology_row(t: &hieradmo::metrics::TopologyCounters) -> [u64; 5] {
    [
        t.joins,
        t.leaves,
        t.migrations,
        t.reformations,
        t.orphaned_rounds,
    ]
}

/// The composition test's chaos cell: churn plan, sign-flip adversary on
/// uid 0, and a fault plan with transient and permanent crashes, link
/// faults and delay spikes.
fn chaos_cell() -> (SimFixture, hieradmo::core::RunConfig, FaultPlan) {
    let fx = churn_fixture();
    let mut cfg = fx.cfg.clone();
    cfg.churn = churn_plan();
    cfg.adversary = AdversaryPlan::uniform([0], AttackModel::SignFlip { scale: 3.0 });
    let faults = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.2,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![PermanentCrash {
            worker: 1,
            at_ms: 150.0,
        }],
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    };
    (fx, cfg, faults)
}

#[test]
fn relaxed_churn_trajectories_are_pinned() {
    let (fx, cfg, faults) = chaos_cell();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let [_, deadline, async_age] = matrix_policies();
    let got: Vec<ChurnPin> = [
        ("simulate, churn, Deadline, faults, sign-flip", deadline),
        ("simulate, churn, AsyncAge, faults, sign-flip", async_age),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let sim_cfg = sim_config(11, policy).with_faults(faults.clone());
        let r = simulate(
            &strategy,
            &model,
            &fx.hierarchy,
            &fx.shards,
            &fx.test,
            &cfg,
            &sim_cfg,
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        let actors = r.utilization.iter().zip(&r.adversaries).map(|(u, a)| {
            assert_eq!(u.actor, a.actor, "{label}: actor order");
            (
                u.actor.clone(),
                u.utilization.to_bits(),
                a.counters.poisoned_uploads,
            )
        });
        ChurnPin {
            label,
            params_hash: bits_hash(r.final_params.as_slice()),
            sum: r.final_params.iter().sum(),
            gamma: r.gamma_trace.clone(),
            accuracy: r.curve.points().iter().map(|p| p.test_accuracy).collect(),
            topology: topology_row(&r.topology),
            seconds: r
                .timed_curve
                .points()
                .iter()
                .map(|p| p.seconds.to_bits())
                .collect(),
            simulated_seconds: r.simulated_seconds.to_bits(),
            events: r.events,
            actors: actors.collect(),
        }
    })
    .collect();
    let actors = |rows: [(&str, u64, u64); 8]| {
        rows.iter()
            .map(|&(a, u, p)| (a.to_string(), u, p))
            .collect::<Vec<_>>()
    };
    let pins = [
        ChurnPin {
            label: "simulate, churn, Deadline, faults, sign-flip",
            params_hash: 15614383120938724460,
            sum: 0.73428965,
            gamma: vec![
                (1, 0.015684357),
                (2, 0.05146321),
                (3, 0.022793999),
                (4, 0.0),
                (5, 0.06085687),
                (6, 0.075992815),
                (7, 0.0),
                (8, 0.0),
                (9, 0.02891232),
                (10, 0.0258375),
                (11, 0.052609004),
                (12, 0.1043358),
            ],
            accuracy: vec![
                0.11666666666666667,
                0.09333333333333334,
                0.3333333333333333,
                0.45666666666666667,
                0.14,
            ],
            topology: [1, 0, 2, 1, 2],
            seconds: vec![
                4609541740025438636,
                4620920897976658867,
                4625061480507629087,
                4627086723520702675,
                4628540719743112671,
            ],
            simulated_seconds: 4628540719743112671,
            events: 527,
            actors: actors([
                ("worker-0", 4606683648234277791, 8),
                ("worker-1", 4573562289648292496, 0),
                ("worker-2", 4595351627792718279, 0),
                ("worker-3", 4595298083474258691, 0),
                ("worker-4", 4599316550735761265, 0),
                ("edge-0", 4577716608103636556, 0),
                ("edge-1", 4575816744725383690, 0),
                ("cloud", 4554185085011846179, 0),
            ]),
        },
        ChurnPin {
            label: "simulate, churn, AsyncAge, faults, sign-flip",
            params_hash: 18391106325930593714,
            sum: 0.005720241,
            gamma: vec![
                (1, 0.007842178),
                (2, 0.045715522),
                (3, 0.013728554),
                (4, 0.056337588),
                (5, 0.0113969995),
                (6, 0.0),
                (7, 0.030368667),
                (8, 0.013458767),
                (9, 0.037009053),
                (10, 0.013132814),
                (11, 0.0),
                (12, 0.0068282597),
                (13, 0.0),
                (14, 0.0),
                (15, 0.005811293),
                (16, 0.0),
                (17, 0.007333654),
                (18, 0.088482395),
                (19, 0.0),
                (20, 0.04575855),
                (21, 0.043652523),
                (22, 0.006916065),
                (23, 0.08391255),
                (24, 0.0),
            ],
            accuracy: vec![
                0.08333333333333333,
                0.14666666666666667,
                0.16,
                0.13666666666666666,
                0.14666666666666667,
                0.19,
                0.14666666666666667,
                0.14666666666666667,
                0.39666666666666667,
                0.21333333333333335,
                0.29,
                0.07,
            ],
            topology: [1, 0, 2, 1, 2],
            seconds: vec![
                4607515120193121913,
                4610260261142242632,
                4619590452836779982,
                4620355310342997485,
                4621270097591636905,
                4621911575755629782,
                4624116458401030518,
                4624736511596253919,
                4626386071543098720,
                4626927078291042662,
                4628346485381264726,
                4628597293310498148,
            ],
            simulated_seconds: 4628597293310498147,
            events: 528,
            actors: actors([
                ("worker-0", 4606622748998691777, 8),
                ("worker-1", 4573512814965954036, 0),
                ("worker-2", 4595307368507741998, 0),
                ("worker-3", 4595254207433731338, 0),
                ("worker-4", 4599276147039108355, 0),
                ("edge-0", 4583531902446395191, 0),
                ("edge-1", 4580320869980175591, 0),
                ("cloud", 4560309407089350907, 0),
            ]),
        },
    ];
    assert_eq!(got.len(), pins.len());
    for (g, pin) in got.iter().zip(&pins) {
        assert_eq!(g, pin, "{}: relaxed churn trajectory moved", pin.label);
    }
}

#[test]
fn core_churn_trajectory_is_pinned() {
    let (fx, cfg, _) = chaos_cell();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let r = run(
        &strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        &cfg,
    )
    .unwrap();
    let got = ChurnPin {
        label: "run, churn, sign-flip",
        params_hash: bits_hash(r.final_params.as_slice()),
        sum: r.final_params.iter().sum(),
        gamma: r.gamma_trace.clone(),
        accuracy: r.curve.points().iter().map(|p| p.test_accuracy).collect(),
        topology: topology_row(&r.topology),
        seconds: Vec::new(),
        simulated_seconds: 0,
        events: 0,
        actors: r
            .adversaries
            .iter()
            .enumerate()
            .map(|(uid, a)| (uid.to_string(), 0, a.poisoned_uploads))
            .collect(),
    };
    let pin = ChurnPin {
        label: "run, churn, sign-flip",
        params_hash: 2114127491397126035,
        sum: -0.0048784018,
        gamma: vec![
            (1, 0.017854601),
            (2, 0.024208803),
            (3, 0.023152415),
            (4, 0.032607067),
            (5, 0.045624986),
            (6, 0.088705055),
            (7, 0.10375598),
            (8, 0.0540633),
        ],
        accuracy: vec![
            0.52,
            0.3,
            0.3566666666666667,
            0.5666666666666667,
            0.24666666666666667,
            0.2633333333333333,
        ],
        topology: [1, 0, 2, 1, 2],
        seconds: Vec::new(),
        simulated_seconds: 0,
        events: 0,
        actors: [("0", 8), ("1", 0), ("2", 0), ("3", 0), ("4", 0)]
            .iter()
            .map(|&(uid, p)| (uid.to_string(), 0, p))
            .collect(),
    };
    assert_eq!(got, pin, "core churn trajectory moved");
}

/// A checkpoint is untrusted input: a resumed snapshot whose topology was
/// edited into an impossible tree is a typed error, never a panic.
#[test]
fn malformed_snapshot_topology_is_a_typed_error() {
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let mut cfg = fx.cfg.clone();
    cfg.churn = churn_plan();
    let spec = RunSpec::hierarchy(&fx.hierarchy, &fx.shards);
    let json = run(
        &strategy,
        &model,
        &RunSpec {
            stop_at: Some(25),
            ..spec
        },
        &fx.test,
        &cfg,
    )
    .unwrap()
    .snapshot
    .unwrap()
    .to_json();
    for (edit, from, to) in [
        ("unregistered uid", "\"members\":[[", "\"members\":[[99,"),
        ("extra liveness flag", "\"live\":[", "\"live\":[true,"),
    ] {
        assert_eq!(json.matches(from).count(), 1, "{edit}: {from} not found");
        let snap = TrainingSnapshot::from_json(&json.replace(from, to)).unwrap();
        let err = run(
            &strategy,
            &model,
            &RunSpec {
                resume: Some(&snap),
                ..spec
            },
            &fx.test,
            &cfg,
        )
        .expect_err(edit);
        assert!(matches!(err, RunError::Data(_)), "{edit}: {err:?}");
    }
}
