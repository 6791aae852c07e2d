//! Full-sync co-simulation ≡ core driver, bitwise.
//!
//! Under `SyncPolicy::FullSync` the event-driven runtime must reproduce the
//! core driver's model trajectory *exactly* — same convergence curve, same
//! final parameters, same γℓ/cos θ diagnostics — for any thread count and
//! any network seed. The network only stretches the time axis.
//!
//! The cells with no core-driver counterpart (relaxed policies, faults,
//! Byzantine uploads, the two-tier architecture, elastic churn and sampled
//! cohorts) are pinned by value in `event_engine_trajectories_are_pinned`.

mod common;

use common::{assert_bitwise_equal, sim_config, sim_fixture};
use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::{run, RunConfig, Strategy};
use hieradmo::models::zoo;
use hieradmo::simrt::{simulate, SimConfig, SimResult, SyncPolicy};

fn full_sync_config(net_seed: u64) -> SimConfig {
    sim_config(net_seed, SyncPolicy::FullSync)
}

fn check_equivalence<S: Strategy>(algo: &S, dropout: f64) {
    let f = sim_fixture(dropout);
    let model = zoo::logistic_regression(&f.train, 1);
    let reference =
        run(algo, &model, &f.hierarchy, &f.shards, &f.test, &f.cfg).expect("reference run failed");

    for threads in [1usize, 4] {
        let cfg = RunConfig {
            threads: Some(threads),
            ..f.cfg.clone()
        };
        let sim = simulate(
            algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &cfg,
            &full_sync_config(7),
        )
        .expect("simulation failed");
        assert_bitwise_equal(
            &reference,
            &sim,
            &format!("{} threads={threads}", algo.name()),
        );
        assert!(sim.simulated_seconds > 0.0);
        assert_eq!(sim.policy, "full-sync");
    }
}

#[test]
fn full_sync_matches_driver_hieradmo() {
    check_equivalence(&HierAdMo::adaptive(0.01, 0.5), 0.0);
}

#[test]
fn full_sync_matches_driver_hieradmo_reduced() {
    check_equivalence(&HierAdMo::reduced(0.01, 0.5, 0.5), 0.0);
}

#[test]
fn full_sync_matches_driver_under_dropout() {
    check_equivalence(&HierAdMo::adaptive(0.01, 0.5), 0.3);
}

#[test]
fn network_seed_changes_time_axis_but_not_trajectory() {
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let a = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &f.cfg,
        &full_sync_config(1),
    )
    .expect("sim a failed");
    let b = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &f.cfg,
        &full_sync_config(2),
    )
    .expect("sim b failed");
    assert_eq!(a.curve, b.curve, "trajectory must not depend on net seed");
    assert_eq!(a.final_params, b.final_params);
    assert_ne!(
        a.simulated_seconds, b.simulated_seconds,
        "different network draws should produce different timings"
    );

    // The simulated time axis is non-decreasing and strictly ordered in
    // iteration — TimedCurve::push enforces this, so reaching here with
    // points present means the engine produced a monotone schedule.
    assert_eq!(a.timed_curve.len(), a.curve.len());

    // Same seed twice: identical timings too.
    let c = simulate(
        &algo,
        &model,
        &f.hierarchy,
        &f.shards,
        &f.test,
        &f.cfg,
        &full_sync_config(1),
    )
    .expect("sim c failed");
    assert_eq!(a.simulated_seconds, c.simulated_seconds);
    assert_eq!(a.events, c.events);
}

/// One event-engine trajectory pin: the head of the final params, their
/// sum, the γ trace, the curve's test accuracies, and the virtual-clock
/// outcome (events processed and simulated seconds).
struct TrajectoryPin {
    label: &'static str,
    head: [f32; 4],
    sum: f32,
    gamma: &'static [(usize, f32)],
    accuracy: &'static [f64],
    events: u64,
    simulated_seconds: f64,
}

/// The event-engine cells no other gate pins by value: relaxed policies
/// over a crash + link-fault + permanent-crash plan, a Byzantine worker,
/// the two-tier architecture, an elastic run with an edge failure and
/// periodic re-formation, sampled depth-4 cohorts under every policy
/// with the sampling matrix's fault plan, and the relaxed policies again
/// at τ = 5. Self-replay and thread
/// invariance cannot catch a change that moves every replay alike; these
/// literals can. They round-trip exactly (Rust float `Debug`), so the
/// equality below is bitwise.
fn event_engine_runs() -> Vec<(&'static str, SimResult)> {
    use common::{matrix_policies, sampled_fault_plan, sampled_matrix_trees, sampled_tier_fixture};
    use hieradmo::netsim::{
        AdversaryPlan, Architecture, AttackModel, ByzantineWorker, CrashProfile, FaultPlan,
        LinkFaults, NetworkEnv, PermanentCrash,
    };
    use hieradmo::simrt::{simulate_elastic, simulate_virtual};
    use hieradmo::topology::{ChurnPlan, ScheduledEvent, TierSpec, TierTree, TopologyEvent};

    let algo = HierAdMo::adaptive(0.05, 0.5);
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 7);
    let sim = |cfg: &RunConfig, sim: &SimConfig| {
        simulate(&algo, &model, &f.hierarchy, &f.shards, &f.test, cfg, sim)
            .expect("simulation failed")
    };
    let chaos = FaultPlan {
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
        spikes: None,
    };
    let deadline = SyncPolicy::Deadline {
        quorum: 0.5,
        timeout_ms: 150.0,
    };
    let mut runs = vec![
        (
            "simulate, Deadline, crash + link + permanent faults",
            sim(&f.cfg, &sim_config(11, deadline).with_faults(chaos.clone())),
        ),
        (
            "simulate, AsyncAge, crash + link + permanent faults",
            sim(
                &f.cfg,
                &sim_config(11, SyncPolicy::AsyncAge { max_staleness: 2 }).with_faults(chaos),
            ),
        ),
        (
            "simulate, one Byzantine worker",
            sim(
                &RunConfig {
                    adversary: AdversaryPlan {
                        byzantine: vec![ByzantineWorker {
                            worker: 1,
                            attack: AttackModel::GaussianNoise { norm: 4.0 },
                        }],
                    },
                    ..f.cfg.clone()
                },
                &sim_config(11, SyncPolicy::FullSync),
            ),
        ),
        ("simulate, Architecture::TwoTier", {
            let mut two = sim_config(11, SyncPolicy::FullSync);
            two.architecture = Architecture::TwoTier;
            sim(&f.cfg, &two)
        }),
    ];

    let churn_cfg = RunConfig {
        total_iters: 40,
        eval_every: 7,
        churn: ChurnPlan {
            events: vec![ScheduledEvent {
                round: 1,
                event: TopologyEvent::EdgeFail { edge: 1 },
            }],
            reform_every: Some(2),
        },
        ..f.cfg.clone()
    };
    runs.push((
        "simulate_elastic, Deadline, EdgeFail + reform_every",
        simulate_elastic(
            &algo,
            &model,
            &f.hierarchy,
            &f.shards,
            &f.test,
            &churn_cfg,
            &sim_config(11, deadline),
        )
        .expect("elastic simulation failed"),
    ));

    let tree = sampled_matrix_trees()[1].clone();
    let sf = sampled_tier_fixture(&tree);
    let sf_model = zoo::logistic_regression(&sf.train, 7);
    let labels = [
        "simulate_virtual, sampled depth 4, FullSync, faults",
        "simulate_virtual, sampled depth 4, Deadline, faults",
        "simulate_virtual, sampled depth 4, AsyncAge, faults",
    ];
    for (label, policy) in labels.into_iter().zip(matrix_policies()) {
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
            &sf_model,
            &sf.population,
            &sf.shards,
            &sf.test,
            &sf.cfg,
            &sim,
        )
        .expect("sampled simulation failed");
        runs.push((label, r));
    }

    // At τ = 5 a relaxed firing can catch a live straggler after any of
    // 0..=4 local steps; τ = 2 reaches only 0 and 1. Each row replays at
    // 1, 2 and 4 threads, which must agree bitwise.
    let tree = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(6, 5),
    ])
    .expect("depth-4 tree is valid");
    let sf = sampled_tier_fixture(&tree);
    let sf_model = zoo::logistic_regression(&sf.train, 7);
    let labels = [
        "simulate_virtual, sampled depth 4, tau 5, Deadline, faults",
        "simulate_virtual, sampled depth 4, tau 5, AsyncAge, faults",
    ];
    for (label, policy) in labels.into_iter().zip(&matrix_policies()[1..]) {
        let sim = SimConfig::new(
            NetworkEnv::paper_testbed(4),
            Architecture::ThreeTier,
            50_000,
            7,
            *policy,
        )
        .with_tiers(tree.clone())
        .with_faults(sampled_fault_plan());
        let replays: Vec<SimResult> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let cfg = RunConfig {
                    threads: Some(threads),
                    ..sf.cfg.clone()
                };
                simulate_virtual(
                    &algo,
                    &sf_model,
                    &sf.population,
                    &sf.shards,
                    &sf.test,
                    &cfg,
                    &sim,
                )
                .expect("sampled simulation failed")
            })
            .collect();
        for (r, threads) in replays[1..].iter().zip([2, 4]) {
            let first = &replays[0];
            let what = format!("{label}: threads {threads} vs 1");
            assert_eq!(r.final_params, first.final_params, "{what}: params");
            assert_eq!(r.gamma_trace, first.gamma_trace, "{what}: gamma trace");
            assert_eq!(r.curve, first.curve, "{what}: curve");
            assert_eq!(r.events, first.events, "{what}: events");
            assert_eq!(
                r.simulated_seconds, first.simulated_seconds,
                "{what}: simulated seconds"
            );
        }
        let first = replays.into_iter().next().expect("three replays");
        runs.push((label, first));
    }
    runs
}

#[test]
fn event_engine_trajectories_are_pinned() {
    let pins = [
        TrajectoryPin {
            label: "simulate, Deadline, crash + link + permanent faults",
            head: [0.031487107, -0.045687664, 0.052268676, 0.07147195],
            sum: 2.333168,
            gamma: &[
                (1, 0.16550979),
                (2, 0.049049307),
                (3, 0.085424304),
                (4, 0.11343325),
                (5, 0.12055947),
                (6, 0.09960946),
                (7, 0.11211429),
                (8, 0.0),
            ],
            accuracy: &[0.25, 0.2833333333333333, 0.5033333333333333],
            events: 264,
            simulated_seconds: 12.647657614892696,
        },
        TrajectoryPin {
            label: "simulate, AsyncAge, crash + link + permanent faults",
            head: [0.037010092, -0.045273043, 0.053206272, 0.071227536],
            sum: 2.3331568,
            gamma: &[
                (1, 0.082754895),
                (2, 0.051236767),
                (3, 0.032815024),
                (4, 0.054560915),
                (5, 0.05090335),
                (6, 0.050163176),
                (7, 0.060279734),
                (8, 0.10318538),
                (9, 0.051118255),
                (10, 0.058268093),
                (11, 0.09101528),
                (12, 0.055873334),
            ],
            accuracy: &[
                0.16,
                0.19,
                0.42333333333333334,
                0.43666666666666665,
                0.45666666666666667,
                0.45666666666666667,
            ],
            events: 264,
            simulated_seconds: 12.751889262872668,
        },
        TrajectoryPin {
            label: "simulate, one Byzantine worker",
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
            events: 120,
            simulated_seconds: 2.4764196374850096,
        },
        TrajectoryPin {
            label: "simulate, Architecture::TwoTier",
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
            events: 120,
            simulated_seconds: 2.7386909664960513,
        },
        TrajectoryPin {
            label: "simulate_elastic, Deadline, EdgeFail + reform_every",
            head: [0.026433568, -0.056045316, 0.044269532, 0.0681698],
            sum: 2.3331504,
            gamma: &[
                (1, 0.1303474),
                (2, 0.11178689),
                (3, 0.070146),
                (4, 0.056571353),
                (5, 0.09219265),
                (6, 0.09085764),
                (7, 0.10728691),
                (8, 0.095082566),
                (9, 0.10331785),
                (10, 0.10362849),
            ],
            accuracy: &[
                0.6,
                0.7433333333333333,
                0.7433333333333333,
                0.7766666666666666,
                0.7766666666666666,
            ],
            events: 240,
            simulated_seconds: 4.476387076488545,
        },
        TrajectoryPin {
            label: "simulate_virtual, sampled depth 4, FullSync, faults",
            head: [0.18022802, -0.2689978, 0.33707082, 0.5595146],
            sum: 3.5267534,
            gamma: &[
                (1, 0.046484247),
                (2, 0.02875652),
                (3, 0.06836408),
                (4, 0.01622204),
                (5, 0.048866373),
                (6, 0.100745454),
                (7, 0.103535175),
                (8, 0.073668554),
            ],
            accuracy: &[0.734375, 0.921875],
            events: 240,
            simulated_seconds: 4.597392075317984,
        },
        TrajectoryPin {
            label: "simulate_virtual, sampled depth 4, Deadline, faults",
            head: [0.19151779, -0.2732658, 0.3340276, 0.55629957],
            sum: 3.5267532,
            gamma: &[
                (1, 0.06149704),
                (2, 0.099873655),
                (3, 0.13787094),
                (4, 0.028138394),
                (5, 0.113898374),
                (6, 0.17557201),
                (7, 0.099441156),
                (8, 0.12061664),
            ],
            accuracy: &[0.734375, 0.890625],
            events: 256,
            simulated_seconds: 3.8874382926796085,
        },
        TrajectoryPin {
            label: "simulate_virtual, sampled depth 4, AsyncAge, faults",
            head: [0.2088953, -0.26966363, 0.34938124, 0.5550289],
            sum: 3.526753,
            gamma: &[
                (1, 0.043253146),
                (2, 0.0658684),
                (3, 0.10497126),
                (4, 0.025996614),
                (5, 0.07290082),
                (6, 0.089783505),
                (7, 0.073570356),
                (8, 0.06571427),
            ],
            accuracy: &[0.734375, 0.84375],
            events: 221,
            simulated_seconds: 3.400060374152398,
        },
        TrajectoryPin {
            label: "simulate_virtual, sampled depth 4, tau 5, Deadline, faults",
            head: [0.21158886, -0.25803128, 0.33430818, 0.5746365],
            sum: 3.5267534,
            gamma: &[
                (1, 0.075424135),
                (2, 0.17212597),
                (3, 0.19779147),
                (4, 0.061873715),
                (5, 0.2723843),
                (6, 0.23660542),
                (7, 0.23928468),
                (8, 0.27406085),
            ],
            accuracy: &[0.875, 1.0],
            events: 371,
            simulated_seconds: 7.58448449235174,
        },
        TrajectoryPin {
            label: "simulate_virtual, sampled depth 4, tau 5, AsyncAge, faults",
            head: [0.23988831, -0.2587436, 0.3534318, 0.55041397],
            sum: 3.5267532,
            gamma: &[
                (1, 0.053786002),
                (2, 0.117924675),
                (3, 0.17189406),
                (4, 0.09408125),
                (5, 0.15608689),
                (6, 0.208165),
                (7, 0.19329545),
                (8, 0.15315318),
            ],
            accuracy: &[0.765625, 0.90625],
            events: 333,
            simulated_seconds: 7.505638844903676,
        },
    ];
    let runs = event_engine_runs();
    assert_eq!(runs.len(), pins.len());
    for ((label, r), pin) in runs.iter().zip(&pins) {
        assert_eq!(*label, pin.label, "pin rows out of order");
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
        assert_eq!(r.events, pin.events, "{label}: event count moved");
        assert_eq!(
            r.simulated_seconds, pin.simulated_seconds,
            "{label}: simulated seconds moved"
        );
    }
}

/// Hard-coded event-engine trajectories of `zoo::mlp` (dense → ReLU →
/// dense): MNIST-like images through a `Flatten` prelude under a deadline
/// policy with crash and link faults, and HAR-like flat features through
/// an elastic run with an edge failure and periodic re-formation. They pin
/// the ReLU mask, the hidden layer's input gradient and the skip of zero
/// gradient entries by value, which the single-layer pins above cannot.
#[test]
fn event_engine_mlp_trajectories_are_pinned() {
    use common::{har_fixture, MlpPin};
    use hieradmo::netsim::{CrashProfile, FaultPlan, LinkFaults};
    use hieradmo::simrt::simulate_elastic;
    use hieradmo::topology::{ChurnPlan, ScheduledEvent, TopologyEvent};

    let algo = HierAdMo::adaptive(0.05, 0.5);
    let deadline = SyncPolicy::Deadline {
        quorum: 0.5,
        timeout_ms: 150.0,
    };
    let faults = FaultPlan {
        crash: Some(CrashProfile {
            per_step: 0.2,
            min_downtime_ms: 10.0,
            max_downtime_ms: 50.0,
        }),
        permanent: Vec::new(),
        link: Some(LinkFaults::flaky()),
        spikes: None,
    };
    let mnist = sim_fixture(0.0);
    let mnist_model = zoo::mlp(&mnist.train, 16, 7);
    let har = har_fixture();
    let har_model = zoo::mlp(&har.train, 16, 7);
    let churn_cfg = RunConfig {
        total_iters: 40,
        eval_every: 7,
        churn: ChurnPlan {
            events: vec![ScheduledEvent {
                round: 1,
                event: TopologyEvent::EdgeFail { edge: 1 },
            }],
            reform_every: Some(2),
        },
        ..har.cfg.clone()
    };
    let runs = [
        (
            "simulate, Deadline, faults, mlp on MNIST-like (Flatten prelude)",
            simulate(
                &algo,
                &mnist_model,
                &mnist.hierarchy,
                &mnist.shards,
                &mnist.test,
                &mnist.cfg,
                &sim_config(11, deadline).with_faults(faults),
            )
            .expect("simulation failed"),
        ),
        (
            "simulate_elastic, Deadline, EdgeFail + reform_every, mlp on HAR-like (flat)",
            simulate_elastic(
                &algo,
                &har_model,
                &har.hierarchy,
                &har.shards,
                &har.test,
                &churn_cfg,
                &sim_config(11, deadline),
            )
            .expect("elastic simulation failed"),
        ),
    ];
    let got: Vec<(MlpPin, u64, f64)> = runs
        .iter()
        .map(|(label, r)| {
            let accuracy: Vec<f64> = r.curve.points().iter().map(|p| p.test_accuracy).collect();
            let pin = MlpPin::of(label, r.final_params.as_slice(), &r.gamma_trace, &accuracy);
            (pin, r.events, r.simulated_seconds)
        })
        .collect();
    let pins = [
        (
            MlpPin {
                label: "simulate, Deadline, faults, mlp on MNIST-like (Flatten prelude)",
                params_hash: 10264289809049527093,
                sum: -3.3566906,
                gamma: vec![
                    (1, 0.10436098),
                    (2, 0.06634894),
                    (3, 0.08094619),
                    (4, 0.11332442),
                    (5, 0.07496936),
                    (6, 0.13737017),
                    (7, 0.0947918),
                    (8, 0.14099151),
                ],
                accuracy: vec![0.38666666666666666, 0.5433333333333333, 0.5833333333333334],
            },
            305,
            12.49824620726388,
        ),
        (
            MlpPin {
                label:
                    "simulate_elastic, Deadline, EdgeFail + reform_every, mlp on HAR-like (flat)",
                params_hash: 9361021393752928816,
                sum: 3.1091712,
                gamma: vec![
                    (1, 0.08171987),
                    (2, 0.08787964),
                    (3, 0.09179116),
                    (4, 0.087335475),
                    (5, 0.092651024),
                    (6, 0.0818601),
                    (7, 0.085040115),
                    (8, 0.08630889),
                    (9, 0.08510228),
                    (10, 0.070808336),
                ],
                accuracy: vec![0.575, 0.675, 0.75, 0.8666666666666667, 0.8583333333333333],
            },
            240,
            4.476387076488545,
        ),
    ];
    assert_eq!(got.len(), pins.len());
    for (g, pin) in got.iter().zip(&pins) {
        assert_eq!(g, pin, "{}: mlp trajectory moved", pin.0.label);
    }
}
