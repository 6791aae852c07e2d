//! Chaos suite for the deterministic fault-injection layer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Equivalence** — an *empty* `FaultPlan` is not merely "few faults":
//!    it takes zero RNG draws and leaves the co-simulation bitwise
//!    identical to a fault-free run (and, under full sync, to the core
//!    driver), for every policy and thread count.
//! 2. **Determinism** — the same `(FaultPlan, net_seed)` replays the whole
//!    run bitwise, counters included; a different `net_seed` draws a
//!    different fault sequence.
//! 3. **Liveness** — permanently crashing a strict minority of workers
//!    deadlocks no policy: every run completes and exports its per-actor
//!    fault counters.

mod common;

use common::{
    assert_bitwise_equal, sim_config, sim_fixture, small_tier_trees, tiered_fixture,
    tiered_sim_config,
};
use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::{run, RunConfig, RunSpec, Strategy};
use hieradmo::metrics::export::{sim_run_from_json, sim_run_to_json, SimRunRecord};
use hieradmo::models::zoo;
use hieradmo::netsim::{CrashProfile, DelaySpikes, FaultPlan, LinkFaults, PermanentCrash};
use hieradmo::simrt::{simulate, SimError, SimResult, SyncPolicy};
use proptest::prelude::*;

/// All three synchronization policies, with parameters valid for the
/// 2-edge × 2-worker fixture.
fn all_policies() -> [SyncPolicy; 3] {
    [
        SyncPolicy::FullSync,
        SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 50.0,
        },
        SyncPolicy::AsyncAge { max_staleness: 2 },
    ]
}

fn simulate_with<S: Strategy + ?Sized>(
    algo: &S,
    f: &common::SimFixture,
    cfg: &RunConfig,
    net_seed: u64,
    policy: SyncPolicy,
    faults: FaultPlan,
) -> Result<SimResult, SimError> {
    simulate(
        algo,
        &zoo::logistic_regression(&f.train, 1),
        &f.hierarchy,
        &f.shards,
        &f.test,
        cfg,
        &sim_config(net_seed, policy).with_faults(faults),
    )
}

fn total_counters(sim: &SimResult) -> (u64, u64, u64, u64, u64, f64) {
    let mut t = (0, 0, 0, 0, 0, 0.0);
    for a in &sim.faults {
        t.0 += a.counters.crashes;
        t.1 += a.counters.messages_lost;
        t.2 += a.counters.retries;
        t.3 += a.counters.transfer_failures;
        t.4 += a.counters.duplicates_received;
        t.5 += a.counters.recovery_ms;
    }
    t
}

fn assert_zero_counters(sim: &SimResult, label: &str) {
    for a in &sim.faults {
        assert!(
            a.counters.is_zero(),
            "{label}: empty plan must tally nothing, {} counted {:?}",
            a.actor,
            a.counters
        );
    }
}

// ---------------------------------------------------------------------
// 1. Equivalence gates.
// ---------------------------------------------------------------------

/// Under full sync, a run with an explicitly attached empty plan matches
/// the core driver bitwise — for both HierAdMo variants and across thread
/// counts. This extends `simrt_equivalence.rs` to the fault-injection
/// code path.
#[test]
fn empty_plan_full_sync_is_bitwise_identical_to_core_driver() {
    let f = sim_fixture(0.0);
    let adaptive = HierAdMo::adaptive(0.01, 0.5);
    let reduced = HierAdMo::reduced(0.01, 0.5, 0.5);
    let algos: [&dyn Strategy; 2] = [&adaptive, &reduced];
    for algo in algos {
        let model = zoo::logistic_regression(&f.train, 1);
        let reference = run(
            algo,
            &model,
            &RunSpec::hierarchy(&f.hierarchy, &f.shards),
            &f.test,
            &f.cfg,
        )
        .unwrap();
        for threads in [1usize, 4] {
            let cfg = RunConfig {
                threads: Some(threads),
                ..f.cfg.clone()
            };
            let sim =
                simulate_with(algo, &f, &cfg, 7, SyncPolicy::FullSync, FaultPlan::none()).unwrap();
            let label = format!("{} threads={threads}", algo.name());
            assert_bitwise_equal(&reference, &sim, &label);
            assert_zero_counters(&sim, &label);
        }
    }
}

/// Every policy produces the same run whether the empty plan is attached
/// explicitly or the config never mentions faults at all — same model,
/// same virtual clock, same event count.
#[test]
fn empty_plan_matches_fault_free_run_under_every_policy() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    for policy in all_policies() {
        let model = zoo::logistic_regression(&f.train, 1);
        let plain = simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &f.cfg,
            &sim_config(7, policy),
        )
        .unwrap();
        let with_empty = simulate_with(&algo, &f, &f.cfg, 7, policy, FaultPlan::none()).unwrap();
        let label = policy.label();
        assert_eq!(plain.curve, with_empty.curve, "{label}: curve");
        assert_eq!(plain.timed_curve, with_empty.timed_curve, "{label}: timed");
        assert_eq!(
            plain.final_params, with_empty.final_params,
            "{label}: params"
        );
        assert_eq!(
            plain.simulated_seconds, with_empty.simulated_seconds,
            "{label}: clock"
        );
        assert_eq!(plain.events, with_empty.events, "{label}: event count");
        assert_zero_counters(&with_empty, &label);
    }
}

// ---------------------------------------------------------------------
// 2. Determinism.
// ---------------------------------------------------------------------

/// Builds a random-but-valid fault plan from primitive draws: moderate
/// crash rates, lossy links and delay spikes, all independently toggled.
/// (The vendored proptest shim has no `prop_compose!`, so the composition
/// lives in a plain function.)
#[allow(clippy::too_many_arguments)]
fn build_plan(
    crash_on: bool,
    per_step: f64,
    min_dt: f64,
    extra_dt: f64,
    link_on: bool,
    loss: f64,
    fail: f64,
    dup: f64,
    spikes_on: bool,
    spike_prob: f64,
    spike_factor: f64,
) -> FaultPlan {
    FaultPlan {
        crash: crash_on.then_some(CrashProfile {
            per_step,
            min_downtime_ms: min_dt,
            max_downtime_ms: min_dt + extra_dt,
        }),
        permanent: Vec::new(),
        link: link_on.then_some(LinkFaults {
            loss_prob: loss,
            fail_prob: fail,
            dup_prob: dup,
            ..LinkFaults::flaky()
        }),
        spikes: spikes_on.then_some(DelaySpikes {
            prob: spike_prob,
            factor: spike_factor,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same `(FaultPlan, net_seed)` replays the entire simulation
    /// bitwise: trajectory, virtual clock, event count and every per-actor
    /// fault counter.
    #[test]
    fn identical_plan_and_seed_replay_bitwise(
        crash_on in any::<bool>(),
        per_step in 0.01..0.25f64,
        min_dt in 10.0..100.0f64,
        extra_dt in 0.0..300.0f64,
        link_on in any::<bool>(),
        loss in 0.0..0.2f64,
        fail in 0.0..0.2f64,
        dup in 0.0..0.2f64,
        spikes_on in any::<bool>(),
        spike_prob in 0.0..0.5f64,
        spike_factor in 1.5..8.0f64,
        net_seed in 0u64..1000,
        policy_idx in 0usize..3,
    ) {
        let plan = build_plan(
            crash_on, per_step, min_dt, extra_dt, link_on, loss, fail, dup,
            spikes_on, spike_prob, spike_factor,
        );
        let f = sim_fixture(0.0);
        let algo = HierAdMo::adaptive(0.01, 0.5);
        let policy = all_policies()[policy_idx];
        let a = simulate_with(&algo, &f, &f.cfg, net_seed, policy, plan.clone()).unwrap();
        let b = simulate_with(&algo, &f, &f.cfg, net_seed, policy, plan).unwrap();
        prop_assert_eq!(a.curve, b.curve);
        prop_assert_eq!(a.timed_curve, b.timed_curve);
        prop_assert_eq!(a.final_params, b.final_params);
        prop_assert_eq!(a.simulated_seconds, b.simulated_seconds);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.faults, b.faults);
    }
}

/// Different net seeds draw different fault event sequences from the same
/// plan.
#[test]
fn different_net_seed_draws_a_different_fault_sequence() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let plan = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.5,
            min_downtime_ms: 20.0,
            max_downtime_ms: 400.0,
        }),
        link: Some(LinkFaults::flaky()),
        ..FaultPlan::none()
    };
    let a = simulate_with(&algo, &f, &f.cfg, 1, SyncPolicy::FullSync, plan.clone()).unwrap();
    let b = simulate_with(&algo, &f, &f.cfg, 2, SyncPolicy::FullSync, plan).unwrap();
    assert_ne!(
        a.faults, b.faults,
        "independent seeds must not replay the same faults"
    );
    let (crashes, _, _, _, _, recovery_ms) = total_counters(&a);
    assert!(crashes > 0, "a 50% per-step crash rate must crash someone");
    assert!(recovery_ms > 0.0, "crashes must accumulate downtime");
}

// ---------------------------------------------------------------------
// 3. Liveness under permanent crashes.
// ---------------------------------------------------------------------

/// Permanently killing one of four workers (a strict minority) deadlocks
/// no policy: every run completes, reaches the final tick where possible,
/// and exports counters for all seven actors.
#[test]
fn no_policy_deadlocks_when_a_minority_of_workers_die() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let plan = FaultPlan {
        permanent: vec![PermanentCrash {
            worker: 1,
            at_ms: 50.0,
        }],
        ..FaultPlan::none()
    };
    for policy in all_policies() {
        let sim = simulate_with(&algo, &f, &f.cfg, 7, policy, plan.clone())
            .unwrap_or_else(|e| panic!("{} deadlocked or failed: {e}", policy.label()));
        let label = policy.label();
        assert!(!sim.curve.is_empty(), "{label}: no evaluations recorded");
        assert!(
            sim.final_params.is_finite(),
            "{label}: corrupted model under permanent crash"
        );
        assert_eq!(
            sim.faults.len(),
            7,
            "{label}: 4 workers + 2 edges + cloud must all export counters"
        );
        let dead = &sim.faults[1];
        assert_eq!(dead.actor, "worker-1");
        assert!(
            dead.counters.crashes >= 1,
            "{label}: the killed worker must count its crash"
        );
        // Everyone else keeps working after the death.
        assert!(sim.simulated_seconds > 0.05, "{label}: run ended too early");
    }
}

/// Transient chaos (crashes + flaky links + stragglers) degrades
/// convergence gracefully: the run completes with finite parameters and
/// still learns, mirroring `fault_injection.rs`'s dropout assertions.
#[test]
fn convergence_degrades_gracefully_under_transient_chaos() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let plan = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.05,
            min_downtime_ms: 20.0,
            max_downtime_ms: 200.0,
        }),
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.1,
            factor: 4.0,
        }),
        ..FaultPlan::none()
    };
    let clean = simulate_with(
        &algo,
        &f,
        &f.cfg,
        7,
        SyncPolicy::FullSync,
        FaultPlan::none(),
    )
    .unwrap();
    let chaotic = simulate_with(&algo, &f, &f.cfg, 7, SyncPolicy::FullSync, plan).unwrap();
    assert!(chaotic.final_params.is_finite());
    let clean_acc = clean.curve.final_accuracy().unwrap();
    let chaos_acc = chaotic.curve.final_accuracy().unwrap();
    assert!(
        chaos_acc >= clean_acc - 0.25,
        "chaos should slow training, not break it: {chaos_acc} vs clean {clean_acc}"
    );
    // And the chaos was real: faults were tallied and time was lost.
    let (_, lost, retries, failures, _, _) = total_counters(&chaotic);
    assert!(
        lost + retries + failures > 0,
        "flaky links must tally some mishap"
    );
    assert!(
        chaotic.simulated_seconds > clean.simulated_seconds,
        "faults must cost virtual time: {} vs {}",
        chaotic.simulated_seconds,
        clean.simulated_seconds
    );
}

/// Link faults alone (no crashes) never touch the model under full sync —
/// every upload is eventually delivered, so only the time axis moves.
#[test]
fn link_faults_only_stretch_time_without_changing_the_trajectory() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let plan = FaultPlan {
        link: Some(LinkFaults {
            loss_prob: 0.15,
            fail_prob: 0.1,
            dup_prob: 0.1,
            ..LinkFaults::flaky()
        }),
        ..FaultPlan::none()
    };
    let clean = simulate_with(
        &algo,
        &f,
        &f.cfg,
        7,
        SyncPolicy::FullSync,
        FaultPlan::none(),
    )
    .unwrap();
    let lossy = simulate_with(&algo, &f, &f.cfg, 7, SyncPolicy::FullSync, plan).unwrap();
    assert_eq!(
        clean.curve, lossy.curve,
        "retried uploads must not alter the model"
    );
    assert_eq!(clean.final_params, lossy.final_params);
    assert!(
        lossy.simulated_seconds > clean.simulated_seconds,
        "retries and timeouts must cost virtual time"
    );
    let (crashes, lost, retries, _, _, _) = total_counters(&lossy);
    assert_eq!(crashes, 0);
    assert!(
        lost > 0 && retries > 0,
        "losses must be tallied and retried"
    );
}

// ---------------------------------------------------------------------
// Plumbing: validation and export.
// ---------------------------------------------------------------------

#[test]
fn invalid_plans_and_configs_are_rejected_before_the_run() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);

    // Certain-death crash probability fails FaultPlan validation.
    let bad_plan = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 1.0,
            min_downtime_ms: 1.0,
            max_downtime_ms: 2.0,
        }),
        ..FaultPlan::none()
    };
    let err = simulate_with(&algo, &f, &f.cfg, 7, SyncPolicy::FullSync, bad_plan).unwrap_err();
    assert!(matches!(err, SimError::Fault(_)), "got {err}");

    // A permanent crash naming a worker that does not exist.
    let out_of_range = FaultPlan {
        permanent: vec![PermanentCrash {
            worker: 99,
            at_ms: 1.0,
        }],
        ..FaultPlan::none()
    };
    let err = simulate_with(&algo, &f, &f.cfg, 7, SyncPolicy::FullSync, out_of_range).unwrap_err();
    assert!(matches!(err, SimError::Fault(_)), "got {err}");

    // Zero payloads fail SimConfig validation.
    let mut cfg = sim_config(7, SyncPolicy::FullSync);
    cfg.upload_bytes = 0;
    let err = simulate(
        &algo,
        &zoo::logistic_regression(&f.train, 1),
        &f.hierarchy,
        &f.shards,
        &f.test,
        &f.cfg,
        &cfg,
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Policy(_)), "got {err}");
}

#[test]
fn fault_counters_export_through_sim_run_record() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let plan = FaultPlan {
        link: Some(LinkFaults::flaky()),
        ..FaultPlan::none()
    };
    let sim = simulate_with(&algo, &f, &f.cfg, 7, SyncPolicy::FullSync, plan).unwrap();
    let record = SimRunRecord::new(
        sim.algorithm.clone(),
        sim.policy.clone(),
        sim.timed_curve.clone(),
        0.9,
        sim.utilization.clone(),
    )
    .with_faults(sim.faults.clone());
    let back = sim_run_from_json(&sim_run_to_json(&record)).unwrap();
    assert_eq!(back, record);
    assert_eq!(back.faults.len(), 7);
}

/// A tiny fixed plan for the CI `chaos-smoke` step: completes fast and
/// checks the full plumbing (injection → recovery → counters) end to end.
#[test]
fn chaos_smoke_small_fixed_plan() {
    let f = sim_fixture(0.0);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let plan = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.1,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![PermanentCrash {
            worker: 3,
            at_ms: 200.0,
        }],
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    };
    let sim = simulate_with(
        &algo,
        &f,
        &f.cfg,
        13,
        SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 50.0,
        },
        plan,
    )
    .unwrap();
    assert!(!sim.curve.is_empty());
    assert!(sim.final_params.is_finite());
    assert_eq!(sim.faults.len(), 7);
    let (crashes, ..) = total_counters(&sim);
    assert!(crashes >= 1, "the smoke plan must actually inject faults");
}

/// Depth-4 chaos smoke for the CI `chaos-smoke` step: on an N-tier tree
/// an *empty* plan keeps the co-simulation bitwise identical to the
/// tiered core driver for any thread count, and a fixed plan — with the
/// crash target addressed by tier path rather than flat index — replays
/// bitwise under the same `(plan, net_seed)` while actually injecting
/// faults.
#[test]
fn depth_4_chaos_smoke() {
    use hieradmo::topology::{TierPath, TierSpec, TierTree};

    let tree = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 5),
    ])
    .unwrap();
    let f = tiered_fixture(&tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.01, 0.5);

    // Empty plan: bitwise the tiered core driver, clock included.
    let reference = run(
        &algo,
        &model,
        &RunSpec::tree(&tree, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();
    for threads in [1usize, 4] {
        let cfg = RunConfig {
            threads: Some(threads),
            ..f.cfg.clone()
        };
        let sim = simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &tiered_sim_config(&tree, 13, SyncPolicy::FullSync),
        )
        .unwrap();
        assert_bitwise_equal(
            &reference,
            &sim,
            &format!("depth-4 empty threads={threads}"),
        );
        assert_zero_counters(&sim, "depth-4 empty plan");
    }

    // Fixed plan, crash target addressed as region 1 / edge 0 / worker 1.
    let crash = PermanentCrash::at_path(&tree, &TierPath(vec![1, 0, 1]), 200.0).unwrap();
    assert_eq!(crash.worker, 5, "path [1,0,1] is flat worker 5");
    let plan = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.1,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: vec![crash],
        link: Some(LinkFaults::flaky()),
        spikes: Some(DelaySpikes {
            prob: 0.2,
            factor: 3.0,
        }),
    };
    let run_plan = |threads: usize| {
        let cfg = RunConfig {
            threads: Some(threads),
            ..f.cfg.clone()
        };
        simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &tiered_sim_config(&tree, 13, SyncPolicy::FullSync).with_faults(plan.clone()),
        )
        .unwrap()
    };
    let a = run_plan(1);
    let b = run_plan(4);
    assert_eq!(a.curve, b.curve, "depth-4 fault replay across threads");
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.simulated_seconds, b.simulated_seconds);
    assert_eq!(total_counters(&a), total_counters(&b));
    let (crashes, ..) = total_counters(&a);
    assert!(crashes >= 1, "the depth-4 plan must actually inject faults");
    assert!(a.final_params.is_finite());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The empty-plan guarantee generalizes past the fixtures: on random
    /// small tier trees (depth 3–5, pass-through middles included), a
    /// faultless full-sync co-simulation is bitwise identical to the
    /// tiered core driver and takes zero fault draws.
    #[test]
    fn empty_plans_are_bitwise_on_random_trees(tree in small_tier_trees()) {


        let f = tiered_fixture(&tree);
        let model = zoo::logistic_regression(&f.train, 1);
        let algo = HierAdMo::adaptive(0.01, 0.5);
        let reference = run(&algo, &model, &RunSpec::tree(&tree, &f.shards), &f.test, &f.cfg).unwrap();
        let sim = simulate(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &f.cfg,
            &tiered_sim_config(&tree, 29, SyncPolicy::FullSync).with_faults(FaultPlan::none()),
        )
        .unwrap();
        assert_bitwise_equal(&reference, &sim, &format!("random tree {:?}", tree.levels()));
        assert_zero_counters(&sim, "random-tree empty plan");
    }
}
