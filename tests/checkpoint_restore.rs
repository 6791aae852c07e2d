//! Mid-run checkpoint/restore: a run stopped at an edge boundary, saved,
//! reloaded and resumed must reproduce the uninterrupted trajectory
//! bitwise — curve, γℓ trace and final parameters.

mod common;

use common::sim_fixture;
use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::{run, RunConfig, RunError, RunResult, RunSpec, TrainingSnapshot};
use hieradmo::models::zoo;
use hieradmo::tensor::Vector;

/// The equivalence fixture stretched to 40 ticks so the stop point (t=15,
/// an edge boundary k=3 that is *not* a cloud boundary) leaves plenty of
/// run on both sides, with eval points in both segments.
fn cfg(dropout: f64) -> (common::SimFixture, RunConfig) {
    let f = sim_fixture(dropout);
    let cfg = RunConfig {
        total_iters: 40,
        ..f.cfg.clone()
    };
    (f, cfg)
}

fn check_restore_round_trip(dropout: f64, resumed_threads: Option<usize>) {
    let (f, cfg) = cfg(dropout);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    let full = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&f.hierarchy, &f.shards),
        &f.test,
        &cfg,
    )
    .unwrap();
    let first = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(15),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    )
    .unwrap();
    let snap = first.snapshot.clone().unwrap();
    assert_eq!(snap.tick, 15);
    assert_eq!(snap.algorithm, "HierAdMo");

    // The snapshot survives serialization bit-for-bit.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();

    let resumed_cfg = RunConfig {
        threads: resumed_threads,
        ..cfg.clone()
    };
    let resumed = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &resumed_cfg,
    )
    .unwrap();

    // The two segments partition the uninterrupted run exactly.
    assert!(first.curve.points().iter().all(|p| p.iteration <= 15));
    assert!(resumed.curve.points().iter().all(|p| p.iteration > 15));
    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "dropout={dropout}: concatenated curves must match the full run bitwise"
    );

    let concat_gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&resumed.gamma_trace)
        .copied()
        .collect();
    assert_eq!(concat_gamma, full.gamma_trace, "gamma trace differs");
    let concat_cos: Vec<_> = first
        .cos_trace
        .iter()
        .chain(&resumed.cos_trace)
        .copied()
        .collect();
    assert_eq!(concat_cos, full.cos_trace, "cos trace differs");

    assert_eq!(
        resumed.final_params, full.final_params,
        "dropout={dropout}: resumed run must land on the exact same model"
    );
}

#[test]
fn restore_at_edge_boundary_matches_uninterrupted_run() {
    check_restore_round_trip(0.0, Some(1));
}

#[test]
fn restore_replays_dropout_draws_exactly() {
    check_restore_round_trip(0.3, Some(1));
}

#[test]
fn restore_is_thread_count_invariant() {
    check_restore_round_trip(0.0, Some(4));
}

/// Resuming under an active `AdversaryPlan` replays the adversary RNG
/// streams instead of storing them: the stop/resume trajectory must match
/// the uninterrupted adversarial run bitwise. `GaussianNoise` is in the
/// plan on purpose — it is the only stateful attack, so the test fails if
/// the fast-forward path skips the wrong number of draws.
#[test]
fn restore_replays_adversary_streams_exactly() {
    use hieradmo::core::RobustAggregator;
    use hieradmo::netsim::{AdversaryPlan, AttackModel, ByzantineWorker};

    let (f, base) = cfg(0.0);
    let cfg = RunConfig {
        adversary: AdversaryPlan {
            byzantine: vec![
                ByzantineWorker {
                    worker: 0,
                    attack: AttackModel::GaussianNoise { norm: 4.0 },
                },
                ByzantineWorker {
                    worker: 3,
                    attack: AttackModel::MomentumPoison { scale: 5.0 },
                },
            ],
        },
        aggregator: RobustAggregator::Median,
        ..base
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    let full = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&f.hierarchy, &f.shards),
        &f.test,
        &cfg,
    )
    .unwrap();
    let first = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(15),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    )
    .unwrap();
    let snap = first.snapshot.clone().unwrap();
    // The adversary draws from replayable streams; nothing of it is stored.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();
    let resumed = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    )
    .unwrap();

    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "adversarial stop/resume must match the uninterrupted run bitwise"
    );
    assert_eq!(
        resumed.final_params, full.final_params,
        "adversarial resume must land on the exact same model"
    );
}

/// Depth-4 stop/resume: the snapshot is taken at an edge round that is a
/// *middle*-tier boundary but not a root boundary (k=2 with the region
/// tier syncing every 2 edge rounds and the root every 4), survives a
/// JSON round-trip carrying the middle-tier states, and resumes under a
/// different thread count bitwise identically to the uninterrupted
/// N-tier run — γ traces, per-tier γ traces and final model included.
#[test]
fn restore_at_a_middle_tier_boundary_is_bitwise_on_depth_4_trees() {
    use common::tiered_fixture;
    use hieradmo::core::{run, RunSpec};
    use hieradmo::topology::{TierSpec, TierTree};

    let tree = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(2, 5),
    ])
    .unwrap();
    let f = tiered_fixture(&tree);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    // Tick 10 = edge round 2: the region tier (period 2) just fired,
    // the root (period 4) did not — a non-leaf, non-root boundary.
    let stop = 2 * f.cfg.tau;
    assert_eq!(stop % (f.cfg.tau * tree.sync_rounds(1)), 0);
    assert_ne!(stop % (f.cfg.tau * tree.pi_total()), 0);

    let full = run(
        &algo,
        &model,
        &RunSpec::tree(&tree, &f.shards),
        &f.test,
        &f.cfg,
    )
    .unwrap();
    let first = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(stop),
            ..RunSpec::tree(&tree, &f.shards)
        },
        &f.test,
        &f.cfg,
    )
    .unwrap();
    let snap = first.snapshot.clone().unwrap();
    assert_eq!(snap.tick, stop);
    assert_eq!(
        snap.middle.len(),
        1,
        "the snapshot must carry the middle tier"
    );
    assert_eq!(snap.middle[0].len(), 2, "two region nodes");

    // The middle tier survives serialization bit-for-bit.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();

    let resumed_cfg = RunConfig {
        threads: Some(4),
        ..f.cfg.clone()
    };
    let resumed = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::tree(&tree, &f.shards)
        },
        &f.test,
        &resumed_cfg,
    )
    .unwrap();

    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "depth-4 stop/resume must match the uninterrupted run bitwise"
    );
    let concat_gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&resumed.gamma_trace)
        .copied()
        .collect();
    assert_eq!(concat_gamma, full.gamma_trace, "gamma trace differs");
    assert_eq!(full.tier_gamma.len(), 1);
    let concat_tier: Vec<_> = first.tier_gamma[0]
        .iter()
        .chain(&resumed.tier_gamma[0])
        .copied()
        .collect();
    assert_eq!(
        concat_tier, full.tier_gamma[0],
        "the region tier's γ trace must partition exactly"
    );
    assert_eq!(
        resumed.final_params, full.final_params,
        "depth-4 resume must land on the exact same model"
    );

    // A snapshot whose middle-tier shape disagrees with the tree is
    // rejected before any training step.
    let mut wrong = snap.clone();
    wrong.middle.clear();
    let err = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&wrong),
            ..RunSpec::tree(&tree, &f.shards)
        },
        &f.test,
        &f.cfg,
    );
    assert!(matches!(err, Err(RunError::Data(_))));
}

#[test]
fn file_round_trip_preserves_the_snapshot() {
    let (f, cfg) = cfg(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let snap = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(20),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    )
    .unwrap()
    .snapshot
    .unwrap();

    let dir = std::env::temp_dir().join("hieradmo-restore-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid_run.json");
    snap.save(&path).unwrap();
    let back = TrainingSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, snap);
}

#[test]
fn invalid_stop_points_and_snapshots_are_rejected() {
    let (f, cfg) = cfg(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let go_until = |stop: usize| -> Result<RunResult, RunError> {
        run(
            &algo,
            &model,
            &RunSpec {
                stop_at: Some(stop),
                ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
            },
            &f.test,
            &cfg,
        )
    };

    // Off-boundary, zero and past-the-end stop points.
    assert!(matches!(go_until(7), Err(RunError::BadConfig(_))));
    assert!(matches!(go_until(0), Err(RunError::BadConfig(_))));
    assert!(matches!(go_until(45), Err(RunError::BadConfig(_))));

    let snap = go_until(15).unwrap().snapshot.unwrap();

    // Wrong algorithm: HierAdMo-R is a different strategy.
    let other = HierAdMo::reduced(0.05, 0.5, 0.5);
    let err = run(
        &other,
        &model,
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    );
    assert!(matches!(err, Err(RunError::BadConfig(_))));

    // A snapshot at (or past) the end of the run cannot be resumed.
    let done = go_until(40).unwrap().snapshot.unwrap();
    let err = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&done),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    );
    assert!(matches!(err, Err(RunError::BadConfig(_))));

    // Shape mismatch: snapshot against a smaller hierarchy.
    let mut short = snap.clone();
    short.workers.truncate(2);
    let err = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&short),
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        },
        &f.test,
        &cfg,
    );
    assert!(matches!(err, Err(RunError::Data(_))));

    // Malformed state vectors, after a JSON round-trip: every one is a
    // typed data error from the snapshot check, never a panic mid-run.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();
    for (label, bad) in malformed_snapshots(&snap) {
        let err = run(
            &algo,
            &model,
            &RunSpec {
                resume: Some(&bad),
                ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
            },
            &f.test,
            &cfg,
        );
        assert!(
            matches!(err, Err(RunError::Data(_))),
            "run_resumed with {label}: {err:?}"
        );
    }

    // The same check guards the sampled resume path.
    use common::{sampled_matrix_trees, sampled_tier_fixture};

    let tree = sampled_matrix_trees()[1].clone();
    let sf = sampled_tier_fixture(&tree);
    let sampled_model = zoo::logistic_regression(&sf.train, 1);
    let sampled = run(
        &algo,
        &sampled_model,
        &RunSpec {
            stop_at: Some(2 * sf.cfg.tau),
            ..RunSpec::population(&sf.population, &sf.shards, Some(&tree))
        },
        &sf.test,
        &sf.cfg,
    )
    .unwrap()
    .snapshot
    .unwrap();
    let sampled = TrainingSnapshot::from_json(&sampled.to_json()).unwrap();
    let mut cases = malformed_snapshots(&sampled);
    let mut middle = sampled.clone();
    middle.middle[0][1].y_plus = Vector::zeros(3);
    cases.push(("a shortened middle-tier y_plus", middle));
    for (label, bad) in cases {
        let err = run(
            &algo,
            &sampled_model,
            &RunSpec {
                resume: Some(&bad),
                ..RunSpec::population(&sf.population, &sf.shards, Some(&tree))
            },
            &sf.test,
            &sf.cfg,
        );
        assert!(
            matches!(err, Err(RunError::Data(_))),
            "run_virtual_tiered_resumed with {label}: {err:?}"
        );
    }
}

/// Copies of `snap` with one state vector off the model dimension each.
fn malformed_snapshots(snap: &TrainingSnapshot) -> Vec<(&'static str, TrainingSnapshot)> {
    let short = || Vector::zeros(3);
    let mut cases = Vec::new();
    let mut bad = snap.clone();
    bad.workers[1].x = short();
    cases.push(("a 3-entry worker x", bad));
    let mut bad = snap.clone();
    let mut long = bad.workers[1].x.as_slice().to_vec();
    long.extend([0.0; 5]);
    bad.workers[1].x = Vector::from(long);
    cases.push(("a worker x with 5 extra entries", bad));
    let mut bad = snap.clone();
    bad.workers[1].v = short();
    cases.push(("a shortened worker v", bad));
    let mut bad = snap.clone();
    bad.edges[0].x_plus = short();
    cases.push(("a shortened edge x_plus", bad));
    let mut bad = snap.clone();
    bad.edges[1].y_minus = short();
    cases.push(("a shortened edge y_minus", bad));
    let mut bad = snap.clone();
    bad.cloud.v = short();
    cases.push(("a shortened cloud v", bad));
    cases
}

/// Sampled deep-tree stop/resume: a depth-4 *virtual-population* run
/// snapshots at a middle-tier boundary (not a root boundary), survives a
/// JSON round-trip, and resumes under a different thread count bitwise
/// identically to the uninterrupted sampled run. Cohorts re-materialize
/// from `(seed, worker, round)` streams, so the snapshot stores no RNG
/// state — this test is the gate on that claim.
#[test]
fn sampled_deep_tree_restore_at_middle_boundary_is_bitwise() {
    use common::{sampled_matrix_trees, sampled_tier_fixture};

    // The depth-4 matrix tree: tau = 2, region tier syncing every 2 edge
    // rounds, root every 4. eval_every = 4 puts eval points in both
    // segments.
    let tree = sampled_matrix_trees()[1].clone();
    let f = sampled_tier_fixture(&tree);
    let cfg = RunConfig {
        eval_every: 4,
        ..f.cfg.clone()
    };
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);

    // Tick 4 = edge round 2: a middle boundary, not a root boundary.
    let stop = 2 * cfg.tau;
    assert_eq!(stop % (cfg.tau * tree.sync_rounds(1)), 0);
    assert_ne!(stop % (cfg.tau * tree.pi_total()), 0);

    let full = run(
        &algo,
        &model,
        &RunSpec::population(&f.population, &f.shards, Some(&tree)),
        &f.test,
        &cfg,
    )
    .unwrap();
    let first = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(stop),
            ..RunSpec::population(&f.population, &f.shards, Some(&tree))
        },
        &f.test,
        &cfg,
    )
    .unwrap();
    let snap = first.snapshot.clone().unwrap();
    assert_eq!(snap.tick, stop);
    assert_eq!(
        snap.middle.len(),
        1,
        "the snapshot must carry the middle tier"
    );
    assert_eq!(snap.middle[0].len(), 2, "two region nodes");

    // The middle tier survives serialization bit-for-bit.
    let snap = TrainingSnapshot::from_json(&snap.to_json()).unwrap();

    let resumed_cfg = RunConfig {
        threads: Some(4),
        ..cfg.clone()
    };
    let resumed = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&snap),
            ..RunSpec::population(&f.population, &f.shards, Some(&tree))
        },
        &f.test,
        &resumed_cfg,
    )
    .unwrap();

    assert!(first.curve.points().iter().all(|p| p.iteration <= stop));
    assert!(resumed.curve.points().iter().all(|p| p.iteration > stop));
    let concat: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(resumed.curve.points())
        .copied()
        .collect();
    assert_eq!(
        concat,
        full.curve.points().to_vec(),
        "sampled depth-4 stop/resume must match the uninterrupted run bitwise"
    );
    let concat_gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&resumed.gamma_trace)
        .copied()
        .collect();
    assert_eq!(concat_gamma, full.gamma_trace, "gamma trace differs");
    assert_eq!(full.tier_gamma.len(), 1);
    let concat_tier: Vec<_> = first.tier_gamma[0]
        .iter()
        .chain(&resumed.tier_gamma[0])
        .copied()
        .collect();
    assert_eq!(
        concat_tier, full.tier_gamma[0],
        "the region tier's γ trace must partition exactly"
    );
    assert_eq!(
        resumed.final_params, full.final_params,
        "sampled depth-4 resume must land on the exact same model"
    );

    // A snapshot that lost its middle tier is rejected before training.
    let mut wrong = snap.clone();
    wrong.middle.clear();
    let err = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&wrong),
            ..RunSpec::population(&f.population, &f.shards, Some(&tree))
        },
        &f.test,
        &cfg,
    );
    assert!(matches!(err, Err(RunError::Data(_))));
}

/// A worker's scratch is the lane's gradient buffer, lent for one local
/// step, so a snapshot holds it empty. HierAdMo declares `Σ∇F` and `Σy`,
/// so its workers hold no `Σv` either. A snapshot written while workers
/// kept all three sums and a model-width gradient buffer holds `Σv` and
/// the scratch at the model's width instead. Resume accepts both formats,
/// drops the undeclared vectors, and lands bitwise on the uninterrupted
/// run. A scratch or undeclared sum of any other length, and a declared
/// sum off the model's width, are typed errors.
#[test]
fn resume_accepts_an_empty_or_model_width_scratch_and_clears_it() {
    let (f, cfg) = cfg(0.1);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let spec = RunSpec::hierarchy(&f.hierarchy, &f.shards);
    let full = run(&algo, &model, &spec, &f.test, &cfg).unwrap();
    fn stop<'a>(
        f: &'a common::SimFixture,
        at: usize,
        resume: Option<&'a TrainingSnapshot>,
    ) -> RunSpec<'a> {
        RunSpec {
            stop_at: Some(at),
            resume,
            ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
        }
    }
    let snap = run(&algo, &model, &stop(&f, 15, None), &f.test, &cfg)
        .unwrap()
        .snapshot
        .unwrap();
    let dim = snap.workers[0].x.len();
    for w in &snap.workers {
        assert!(w.scratch.is_empty() && w.v_accum.is_empty());
        assert_eq!((w.grad_accum.len(), w.y_accum.len()), (dim, dim));
    }

    let mut wide = snap.clone();
    for (i, w) in wide.workers.iter_mut().enumerate() {
        w.v_accum = Vector::filled(dim, 0.25 * i as f32);
        w.scratch = Vector::filled(dim, i as f32 - 1.5);
    }
    let wide = TrainingSnapshot::from_json(&wide.to_json()).unwrap();
    for (label, snap) in [
        ("declared layout", &snap),
        ("all vectors model-width", &wide),
    ] {
        let resumed = run(
            &algo,
            &model,
            &RunSpec {
                resume: Some(snap),
                ..RunSpec::hierarchy(&f.hierarchy, &f.shards)
            },
            &f.test,
            &cfg,
        )
        .unwrap();
        assert_eq!(resumed.final_params, full.final_params, "{label}: params");
        let tail = &full.curve.points()[full.curve.len() - resumed.curve.len()..];
        assert_eq!(resumed.curve.points(), tail, "{label}: curve");
        let again = run(&algo, &model, &stop(&f, 25, Some(snap)), &f.test, &cfg)
            .unwrap()
            .snapshot
            .unwrap();
        assert!(
            again
                .workers
                .iter()
                .all(|w| w.scratch.is_empty() && w.v_accum.is_empty()),
            "{label}: resume must drop the scratch and the undeclared Σv"
        );
    }

    type Edit = fn(&mut hieradmo::core::WorkerState, usize);
    let bad: [(&str, Edit); 6] = [
        ("a scratch of length 1", |w, _| w.scratch = Vector::zeros(1)),
        ("a scratch one short", |w, d| {
            w.scratch = Vector::zeros(d - 1)
        }),
        ("a scratch one long", |w, d| {
            w.scratch = Vector::zeros(d + 1)
        }),
        ("an undeclared Σv one short", |w, d| {
            w.v_accum = Vector::zeros(d - 1)
        }),
        ("a declared Σ∇F one long", |w, d| {
            w.grad_accum = Vector::zeros(d + 1)
        }),
        ("an empty declared Σy", |w, _| {
            w.y_accum = Vector::default()
        }),
    ];
    for (label, edit) in bad {
        let mut bad = snap.clone();
        edit(&mut bad.workers[2], dim);
        let err = run(&algo, &model, &stop(&f, 25, Some(&bad)), &f.test, &cfg);
        assert!(
            matches!(err, Err(RunError::Data(_))),
            "{label} must be a typed Data error"
        );
    }
}
