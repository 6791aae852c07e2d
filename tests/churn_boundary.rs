//! Churn as a boundary step of the one training loop.
//!
//! `core::run` and `simrt::simulate` apply a [`ChurnPlan`] at cloud-round
//! boundaries by transforming their live state in place. This suite pins
//! what that step must keep, beyond the value pins and the composition
//! gates of `elastic_topology`:
//!
//! 1. **Every event family, both engines.** `Leave`, `Migrate` and the
//!    periodic re-formation replay bitwise between the tick engine and
//!    the FullSync event engine, as do all five lineup algorithms under
//!    the join/fail/reform plan, and that plan under dropout with
//!    Byzantine workers, whose streams every epoch re-derives.
//! 2. **Events invalid against the live tree** are a typed
//!    [`RunError::BadConfig`] from both engines under every policy, never
//!    a panic or a deadlock.
//! 3. **Untrusted snapshot topology.** Each invariant that
//!    `TopologyVersion::validate` checks, broken in a checkpoint's JSON,
//!    makes the resume a typed [`RunError::Data`].
//! 4. **Spans.** A snapshot taken on a boundary tick already holds that
//!    boundary, and a run resumed at every boundary in turn is the
//!    uninterrupted run.
//! 5. **The event engine's clock and streams.** Relaxed-policy churn
//!    replays across thread counts, the timed axis never runs backwards
//!    across an epoch's clock restart, and a joined worker trains on the
//!    dataset registered under its uid.

mod common;

use common::{assert_bitwise_equal, churn_fixture, matrix_policies, sim_config, SimFixture};
use hieradmo::core::algorithms::{Cfl, HierAdMo, HierFavg};
use hieradmo::core::compression::{Compression, QuantizedHierFavg};
use hieradmo::core::{run, RunConfig, RunError, RunResult, RunSpec, Strategy, TrainingSnapshot};
use hieradmo::netsim::{
    AdversaryPlan, AttackModel, CrashProfile, DelaySpikes, FaultPlan, LinkFaults,
};
use hieradmo::simrt::{simulate, SimError, SimResult, SyncPolicy};
use hieradmo::topology::{ChurnPlan, ScheduledEvent, TopologyEvent};

/// A plan of explicit events, each `(round, event)`, with no periodic
/// re-formation.
fn plan(events: &[(usize, TopologyEvent)]) -> ChurnPlan {
    ChurnPlan {
        events: events
            .iter()
            .map(|&(round, event)| ScheduledEvent { round, event })
            .collect(),
        reform_every: None,
    }
}

/// Join the spare worker, fail edge 1, then re-form.
fn join_fail_reform() -> ChurnPlan {
    plan(&[
        (1, TopologyEvent::Join { worker: 4, edge: 0 }),
        (2, TopologyEvent::EdgeFail { edge: 1 }),
        (3, TopologyEvent::EdgeReform),
    ])
}

fn with_churn(fx: &SimFixture, churn: ChurnPlan) -> RunConfig {
    let mut cfg = fx.cfg.clone();
    cfg.churn = churn;
    cfg
}

fn run_core(
    strategy: &dyn Strategy,
    fx: &SimFixture,
    cfg: &RunConfig,
) -> Result<RunResult, RunError> {
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    run(
        strategy,
        &model,
        &RunSpec::hierarchy(&fx.hierarchy, &fx.shards),
        &fx.test,
        cfg,
    )
}

fn run_sim(
    strategy: &dyn Strategy,
    fx: &SimFixture,
    cfg: &RunConfig,
    policy: SyncPolicy,
) -> Result<SimResult, SimError> {
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    simulate(
        strategy,
        &model,
        &fx.hierarchy,
        &fx.shards,
        &fx.test,
        cfg,
        &sim_config(7, policy),
    )
}

/// Runs `churn` on the churn fixture in both engines (FullSync for the
/// event engine), checks they agree bitwise, counters included, and
/// returns the tick engine's result.
fn cross_engine(strategy: &dyn Strategy, churn: ChurnPlan, label: &str) -> RunResult {
    let fx = churn_fixture();
    let cfg = with_churn(&fx, churn);
    let core = run_core(strategy, &fx, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    let sim = run_sim(strategy, &fx, &cfg, SyncPolicy::FullSync)
        .unwrap_or_else(|e| panic!("{label} (sim): {e}"));
    assert_bitwise_equal(&core, &sim, label);
    assert_eq!(core.topology, sim.topology, "{label}: counters");
    core
}

#[test]
fn leave_replays_bitwise_across_engines() {
    let r = cross_engine(
        &HierAdMo::adaptive(0.01, 0.5),
        plan(&[(1, TopologyEvent::Leave { worker: 1 })]),
        "leave",
    );
    assert_eq!(r.topology.leaves, 1);
    assert_eq!(r.topology.migrations, 0);
    assert_eq!(r.adversaries.len(), 5, "one row per registered uid");
}

#[test]
fn migrate_replays_bitwise_across_engines() {
    let r = cross_engine(
        &HierAdMo::adaptive(0.01, 0.5),
        plan(&[(2, TopologyEvent::Migrate { worker: 0, edge: 1 })]),
        "migrate",
    );
    assert_eq!(r.topology.migrations, 1);
    assert_eq!(r.topology.orphaned_rounds, 0);
}

#[test]
fn periodic_reform_replays_bitwise_across_engines() {
    let churn = ChurnPlan {
        events: Vec::new(),
        reform_every: Some(1),
    };
    let fx = churn_fixture();
    let rounds = fx.cfg.total_iters / (fx.cfg.tau * fx.cfg.pi);
    let boundaries = churn.boundary_rounds(rounds).len() as u64;
    assert_eq!(boundaries, 3, "cloud rounds 1-3 end at a boundary");
    let r = cross_engine(&HierAdMo::adaptive(0.01, 0.5), churn, "periodic reform");
    assert_eq!(r.topology.reformations, boundaries);
}

#[test]
fn every_lineup_algorithm_crosses_boundaries_identically_in_both_engines() {
    let lineup: Vec<Box<dyn Strategy>> = vec![
        Box::new(HierAdMo::adaptive(0.01, 0.5)),
        Box::new(HierAdMo::reduced(0.01, 0.5, 0.5)),
        Box::new(HierFavg::new(0.01)),
        Box::new(Cfl::new(0.01, 0.5)),
        Box::new(QuantizedHierFavg::new(0.01, Compression::TopK { k: 8 })),
    ];
    for strategy in lineup {
        let label = strategy.name();
        let r = cross_engine(strategy.as_ref(), join_fail_reform(), label);
        assert_eq!(r.topology.joins, 1, "{label}");
        assert_eq!(r.topology.reformations, 1, "{label}");
        assert_eq!(r.topology.orphaned_rounds, 2, "{label}");
    }
}

#[test]
fn dropout_and_adversary_streams_rederive_identically_at_every_boundary() {
    // Every epoch re-derives its dropout decisions and adversary streams
    // at the boundary tick. uid 2 is Byzantine from the start and is
    // re-parented when edge 1 fails; uid 4 is Byzantine from its join.
    let fx = churn_fixture();
    let mut cfg = with_churn(&fx, join_fail_reform());
    cfg.dropout = 0.3;
    cfg.adversary = AdversaryPlan::uniform([4usize, 2], AttackModel::GaussianNoise { norm: 1.0 });
    let strategies: [&dyn Strategy; 2] = [&HierAdMo::adaptive(0.01, 0.5), &HierFavg::new(0.01)];
    for strategy in strategies {
        let label = strategy.name();
        let core = run_core(strategy, &fx, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        let sim = run_sim(strategy, &fx, &cfg, SyncPolicy::FullSync)
            .unwrap_or_else(|e| panic!("{label} (sim): {e}"));
        assert_bitwise_equal(&core, &sim, label);
        assert_eq!(core.topology, sim.topology, "{label}: counters");
        let poisoned: u64 = core.adversaries.iter().map(|c| c.poisoned_uploads).sum();
        let sim_poisoned: u64 = sim
            .adversaries
            .iter()
            .map(|a| a.counters.poisoned_uploads)
            .sum();
        assert!(poisoned > 0, "{label}: no upload was poisoned");
        assert_eq!(poisoned, sim_poisoned, "{label}: poisoned uploads");
    }
}

/// Runs `churn` in the tick engine and in the event engine under every
/// policy; each must fail with a `BadConfig` naming `needle`.
fn assert_rejected(churn: ChurnPlan, needle: &str) {
    let fx = churn_fixture();
    let cfg = with_churn(&fx, churn);
    let strategy = HierFavg::new(0.01);
    match run_core(&strategy, &fx, &cfg) {
        Err(RunError::BadConfig(m)) => assert!(m.contains(needle), "core: {m}"),
        other => panic!("core: expected BadConfig with {needle:?}, got {other:?}"),
    }
    for policy in matrix_policies() {
        match run_sim(&strategy, &fx, &cfg, policy) {
            Err(SimError::Run(RunError::BadConfig(m))) => {
                assert!(m.contains(needle), "{policy:?}: {m}")
            }
            Err(e) => panic!("{policy:?}: expected BadConfig with {needle:?}, got {e:?}"),
            Ok(_) => panic!("{policy:?}: expected BadConfig with {needle:?}, the run finished"),
        }
    }
}

#[test]
fn join_of_a_present_worker_is_a_typed_error_in_both_engines() {
    assert_rejected(
        plan(&[(1, TopologyEvent::Join { worker: 0, edge: 1 })]),
        "already present",
    );
}

#[test]
fn join_of_an_unregistered_worker_is_a_typed_error_in_both_engines() {
    assert_rejected(
        plan(&[(2, TopologyEvent::Join { worker: 9, edge: 0 })]),
        "registered",
    );
}

#[test]
fn leave_of_an_absent_worker_is_a_typed_error_in_both_engines() {
    // uid 4 is registered but never joined.
    assert_rejected(
        plan(&[(1, TopologyEvent::Leave { worker: 4 })]),
        "worker 4 is not in the tree",
    );
}

#[test]
fn failing_the_last_live_edge_is_a_typed_error_in_both_engines() {
    assert_rejected(
        plan(&[
            (1, TopologyEvent::EdgeFail { edge: 1 }),
            (2, TopologyEvent::EdgeFail { edge: 0 }),
        ]),
        "last live edge",
    );
}

#[test]
fn a_leave_that_empties_an_edge_fails_it_in_place() {
    // Edge 1 holds uids 2 and 3; once both leave it is failed, so a later
    // migration onto it is rejected.
    let leaves = [
        (1, TopologyEvent::Leave { worker: 2 }),
        (2, TopologyEvent::Leave { worker: 3 }),
    ];
    let r = cross_engine(&HierAdMo::adaptive(0.01, 0.5), plan(&leaves), "leaves");
    assert_eq!(r.topology.leaves, 2);

    let fx = churn_fixture();
    let snap = run(
        &HierAdMo::adaptive(0.01, 0.5),
        &hieradmo::models::zoo::logistic_regression(&fx.train, 3),
        &RunSpec {
            stop_at: Some(25),
            ..RunSpec::hierarchy(&fx.hierarchy, &fx.shards)
        },
        &fx.test,
        &with_churn(&fx, plan(&leaves)),
    )
    .unwrap()
    .snapshot
    .unwrap();
    let topo = snap.topology.as_ref().expect("elastic snapshot");
    assert_eq!(topo.live_edges(), vec![0], "the emptied edge failed");
    assert_eq!(snap.edges.len(), 1, "the failed edge's state is dropped");

    let mut events = leaves.to_vec();
    events.push((3, TopologyEvent::Migrate { worker: 0, edge: 1 }));
    assert_rejected(plan(&events), "edge 1 already failed");
}

/// The JSON of a churn run stopped at tick 15, inside the Join epoch:
/// its topology is `{"epoch":1,"members":[[0,1,4],[2,3]],
/// "live":[true,true],"parent_since":[0,0,0,0,1]}`.
fn mid_epoch_snapshot_json(fx: &SimFixture, cfg: &RunConfig) -> String {
    run(
        &HierAdMo::adaptive(0.01, 0.5),
        &hieradmo::models::zoo::logistic_regression(&fx.train, 3),
        &RunSpec {
            stop_at: Some(15),
            ..RunSpec::hierarchy(&fx.hierarchy, &fx.shards)
        },
        &fx.test,
        cfg,
    )
    .unwrap()
    .snapshot
    .unwrap()
    .to_json()
}

/// Resumes the mid-epoch snapshot after replacing `from` (which must occur
/// once) with `to`; the resume must fail with a `Data` error naming
/// `needle`.
fn assert_edit_rejected(from: &str, to: &str, needle: &str) {
    let fx = churn_fixture();
    let cfg = with_churn(&fx, join_fail_reform());
    let json = mid_epoch_snapshot_json(&fx, &cfg);
    assert_eq!(json.matches(from).count(), 1, "{from} not found in {json}");
    let snap = TrainingSnapshot::from_json(&json.replace(from, to)).unwrap();
    let err = run(
        &HierAdMo::adaptive(0.01, 0.5),
        &hieradmo::models::zoo::logistic_regression(&fx.train, 3),
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::hierarchy(&fx.hierarchy, &fx.shards)
        },
        &fx.test,
        &cfg,
    )
    .expect_err(to);
    match err {
        RunError::Data(m) => assert!(m.contains(needle), "{to}: {m}"),
        e => panic!("{to}: expected a Data error, got {e:?}"),
    }
}

#[test]
fn snapshot_with_a_duplicated_uid_is_a_typed_error() {
    assert_edit_rejected("[2,3]]", "[2,3,4]]", "present twice");
}

#[test]
fn snapshot_with_unsorted_members_is_a_typed_error() {
    assert_edit_rejected("[[0,1,4]", "[[0,4,1]", "not sorted");
}

#[test]
fn snapshot_with_members_under_a_failed_edge_is_a_typed_error() {
    assert_edit_rejected("\"live\":[true,true]", "\"live\":[true,false]", "failed");
}

#[test]
fn snapshot_with_an_empty_live_edge_is_a_typed_error() {
    assert_edit_rejected("[2,3]]", "[]]", "live with 0 members");
}

#[test]
fn snapshot_with_no_live_edge_is_a_typed_error() {
    assert_edit_rejected(
        "\"live\":[true,true]",
        "\"live\":[false,false]",
        "no live edge",
    );
}

#[test]
fn snapshot_with_a_worker_placed_after_its_epoch_is_a_typed_error() {
    assert_edit_rejected(
        "\"parent_since\":[0,0,0,0,1]",
        "\"parent_since\":[0,0,0,0,3]",
        "placed after epoch",
    );
}

#[test]
fn snapshot_registering_more_uids_than_datasets_is_a_typed_error() {
    assert_edit_rejected(
        "\"parent_since\":[0,0,0,0,1]",
        "\"parent_since\":[0,0,0,0,1,0]",
        "registers 6 uids, 5 datasets supplied",
    );
}

#[test]
fn a_snapshot_taken_on_a_boundary_tick_holds_that_boundary() {
    let fx = churn_fixture();
    let cfg = with_churn(&fx, join_fail_reform());
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let spec = RunSpec::hierarchy(&fx.hierarchy, &fx.shards);
    let full = run_core(&strategy, &fx, &cfg).unwrap();

    // Tick 20 ends cloud round 2, the EdgeFail boundary: the stopped run
    // applies it, so the resumed run must not apply it again (a second
    // EdgeFail of the same edge is a BadConfig).
    let first = run(
        &strategy,
        &model,
        &RunSpec {
            stop_at: Some(20),
            ..spec
        },
        &fx.test,
        &cfg,
    )
    .unwrap();
    let snap = first.snapshot.as_ref().unwrap();
    assert_eq!(snap.tick, 20);
    let topo = snap.topology.as_ref().expect("elastic snapshot");
    assert_eq!(
        topo.live_edges(),
        vec![0],
        "EdgeFail applied before the cut"
    );
    assert_eq!(first.topology.orphaned_rounds, 2);

    let restored = TrainingSnapshot::from_json(&snap.to_json()).unwrap();
    let rest = run(
        &strategy,
        &model,
        &RunSpec {
            resume: Some(&restored),
            ..spec
        },
        &fx.test,
        &cfg,
    )
    .unwrap();
    assert_eq!(rest.final_params, full.final_params, "resume diverged");
    assert_eq!(rest.topology.orphaned_rounds, 0, "EdgeFail re-applied");
    assert_eq!(rest.topology.reformations, 1);
}

#[test]
fn resuming_at_every_boundary_in_turn_is_the_uninterrupted_run() {
    let fx = churn_fixture();
    let cfg = with_churn(&fx, join_fail_reform());
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let spec = RunSpec::hierarchy(&fx.hierarchy, &fx.shards);
    let full = run_core(&strategy, &fx, &cfg).unwrap();

    let mut snap: Option<TrainingSnapshot> = None;
    let mut tallies = [0u64; 5];
    for stop in [Some(10), Some(20), Some(30), None] {
        let r = run(
            &strategy,
            &model,
            &RunSpec {
                resume: snap.as_ref(),
                stop_at: stop,
                ..spec
            },
            &fx.test,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("span ending at {stop:?}: {e}"));
        let t = &r.topology;
        for (sum, n) in tallies.iter_mut().zip([
            t.joins,
            t.leaves,
            t.migrations,
            t.reformations,
            t.orphaned_rounds,
        ]) {
            *sum += n;
        }
        match stop {
            Some(_) => {
                let json = r.snapshot.expect("stopped span snapshots").to_json();
                snap = Some(TrainingSnapshot::from_json(&json).unwrap());
            }
            None => {
                assert_eq!(r.final_params, full.final_params, "chained resume");
            }
        }
    }
    let t = &full.topology;
    assert_eq!(
        tallies,
        [
            t.joins,
            t.leaves,
            t.migrations,
            t.reformations,
            t.orphaned_rounds
        ],
        "per-span counters add up to the whole run's"
    );
}

/// The composition cell of `elastic_topology`: transient crashes, link
/// faults and delay spikes on top of the join/fail/reform plan.
fn faults() -> FaultPlan {
    FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.2,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: Vec::new(),
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    }
}

#[test]
fn relaxed_policy_churn_replays_across_thread_counts() {
    let fx = churn_fixture();
    let model = hieradmo::models::zoo::logistic_regression(&fx.train, 3);
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    let [_, deadline, async_age] = matrix_policies();
    for policy in [deadline, async_age] {
        let sim_cfg = sim_config(11, policy).with_faults(faults());
        let runs: Vec<SimResult> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let mut cfg = with_churn(&fx, join_fail_reform());
                cfg.threads = Some(threads);
                simulate(
                    &strategy,
                    &model,
                    &fx.hierarchy,
                    &fx.shards,
                    &fx.test,
                    &cfg,
                    &sim_cfg,
                )
                .unwrap_or_else(|e| panic!("{policy:?}, {threads} threads: {e}"))
            })
            .collect();
        let (a, b) = (&runs[0], &runs[1]);
        assert_eq!(a.final_params, b.final_params, "{policy:?}: params");
        assert_eq!(a.curve, b.curve, "{policy:?}: curve");
        assert_eq!(a.timed_curve, b.timed_curve, "{policy:?}: timed curve");
        assert_eq!(a.events, b.events, "{policy:?}: events");
        assert_eq!(a.topology, b.topology, "{policy:?}: counters");
        assert_eq!(a.faults, b.faults, "{policy:?}: fault counters");
    }
}

#[test]
fn the_timed_axis_never_runs_backwards_across_an_epoch_boundary() {
    let fx = churn_fixture();
    let cfg = with_churn(&fx, join_fail_reform());
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    for policy in matrix_policies() {
        let r = run_sim(&strategy, &fx, &cfg, policy).unwrap();
        let seconds: Vec<f64> = r.timed_curve.points().iter().map(|p| p.seconds).collect();
        assert!(seconds.len() >= 4, "{policy:?}: eval points on every epoch");
        assert!(
            seconds.windows(2).all(|w| w[0] <= w[1]),
            "{policy:?}: timed axis runs backwards: {seconds:?}"
        );
        assert!(seconds[0] > 0.0, "{policy:?}: first point at time zero");
        // A point's seconds are `at_ms / 1000 + base_ms / 1000`, the final
        // clock is the last base over 1000: the two roundings may put the
        // last point a few ulps past the clock, never further.
        let last = *seconds.last().unwrap();
        assert!(
            last - r.simulated_seconds <= 4.0 * f64::EPSILON * last,
            "{policy:?}: clock {} ends before the last point {seconds:?}",
            r.simulated_seconds
        );
    }
}

#[test]
fn a_joined_worker_trains_on_the_dataset_registered_under_its_uid() {
    let strategy = HierAdMo::adaptive(0.01, 0.5);
    // Replaces uid 4's dataset and reports whether either engine's
    // trajectory moved.
    let moved = |churn: ChurnPlan| -> bool {
        let fx = churn_fixture();
        let cfg = with_churn(&fx, churn);
        let mut swapped = churn_fixture();
        swapped.shards[4] = swapped.shards[0].clone();
        let core = [&fx, &swapped].map(|f| run_core(&strategy, f, &cfg).unwrap());
        let sim =
            [&fx, &swapped].map(|f| run_sim(&strategy, f, &cfg, SyncPolicy::FullSync).unwrap());
        assert_bitwise_equal(&core[0], &sim[0], "registered data");
        assert_bitwise_equal(&core[1], &sim[1], "swapped data");
        core[0].final_params != core[1].final_params
    };
    assert!(
        moved(join_fail_reform()),
        "uid 4 joined, yet its dataset does not reach training"
    );
    assert!(
        !moved(plan(&[(2, TopologyEvent::EdgeFail { edge: 1 })])),
        "uid 4 never joined, yet its dataset changed the run"
    );
}
