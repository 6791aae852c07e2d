//! The one core entry point over every combination a [`RunSpec`] can
//! express: six sources × {no churn, one `EdgeFail`} × {whole run,
//! `stop_at`, `resume` from that stop}, at 1 and 2 threads. Every cell
//! returns `Ok` or a typed [`RunError`] (never a panic), the outcome of
//! every cell is pinned, and every `Ok` stop + resume pair concatenates
//! bitwise to the whole run.
//!
//! Plus the registered-source sampling rule of both engines and the
//! join-candidate rule: trailing datasets register only under a churn
//! plan.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{sim_config, sim_fixture};
use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::population::{ClientSampling, WorkerPopulation};
use hieradmo::core::{run, RunConfig, RunError, RunResult, RunSpec, Source, TrainingSnapshot};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::data::Dataset;
use hieradmo::models::{zoo, Sequential};
use hieradmo::simrt::{simulate, SimError, SyncPolicy};
use hieradmo::topology::{ChurnPlan, Hierarchy, ScheduledEvent, TierSpec, TierTree, TopologyEvent};

/// Every input the sources borrow, built once.
struct Inputs {
    hierarchy: Hierarchy,
    depth3: TierTree,
    depth4: TierTree,
    sampled4: TierTree,
    flat_population: WorkerPopulation,
    deep_population: WorkerPopulation,
    full_population: WorkerPopulation,
    shards: Vec<Dataset>,
    shards8: Vec<Dataset>,
    test: Dataset,
    model: Sequential,
}

fn inputs() -> Inputs {
    let tt = SyntheticDataset::mnist_like(40, 20, 5);
    let sampled4 = TierTree::new(vec![
        TierSpec::new(2, 2),
        TierSpec::new(2, 2),
        TierSpec::new(6, 2),
    ])
    .unwrap();
    Inputs {
        hierarchy: Hierarchy::balanced(2, 2),
        depth3: TierTree::three_tier(2, 2, 2, 2),
        depth4: TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::new(2, 2),
            TierSpec::new(2, 2),
        ])
        .unwrap(),
        flat_population: WorkerPopulation::uniform(2, 6, 4).unwrap(),
        deep_population: WorkerPopulation::from_tier_tree(&sampled4, 4).unwrap(),
        full_population: WorkerPopulation::uniform(2, 2, 4).unwrap(),
        sampled4,
        shards: x_class_partition(&tt.train, 4, 2, 5),
        shards8: x_class_partition(&tt.train, 8, 2, 5),
        model: zoo::logistic_regression(&tt.train, 5),
        test: tt.test,
    }
}

/// The six sources, each with the sampling policy it runs under.
fn sources(i: &Inputs) -> Vec<(&'static str, Source<'_>, ClientSampling)> {
    let sampled = ClientSampling::PerEdge { count: 2 };
    vec![
        (
            "hierarchy",
            RunSpec::hierarchy(&i.hierarchy, &i.shards).source,
            ClientSampling::Full,
        ),
        (
            "depth-3 tree",
            RunSpec::tree(&i.depth3, &i.shards).source,
            ClientSampling::Full,
        ),
        (
            "depth-4 tree",
            RunSpec::tree(&i.depth4, &i.shards8).source,
            ClientSampling::Full,
        ),
        (
            "flat sampled population",
            RunSpec::population(&i.flat_population, &i.shards, None).source,
            sampled,
        ),
        (
            "depth-4 sampled population",
            RunSpec::population(&i.deep_population, &i.shards, Some(&i.sampled4)).source,
            sampled,
        ),
        (
            "full-participation population",
            RunSpec::population(&i.full_population, &i.shards, None).source,
            ClientSampling::Full,
        ),
    ]
}

/// `τ = 2` everywhere; `π` follows the source's tree, three root rounds.
fn config(source: &Source<'_>, sampling: ClientSampling, churn: bool, threads: usize) -> RunConfig {
    let pi = match *source {
        Source::Tree { tree, .. } => tree.pi_total(),
        Source::Population { tree, .. } => tree.map_or(2, TierTree::pi_total),
        Source::Hierarchy { .. } => 2,
    };
    let churn = if churn {
        ChurnPlan {
            events: vec![ScheduledEvent {
                round: 1,
                event: TopologyEvent::EdgeFail { edge: 1 },
            }],
            reform_every: None,
        }
    } else {
        ChurnPlan::none()
    };
    RunConfig {
        eta: 0.05,
        tau: 2,
        pi,
        total_iters: 3 * 2 * pi,
        eval_every: 2,
        batch_size: 4,
        seed: 9,
        threads: Some(threads),
        sampling,
        churn,
        ..RunConfig::default()
    }
}

/// A cell's outcome: the result, or the error variant's name.
type Cell = Result<RunResult, &'static str>;

fn kind(e: &RunError) -> &'static str {
    match e {
        RunError::BadConfig(_) => "BadConfig",
        RunError::Schedule(_) => "Schedule",
        RunError::Topology(_) => "Topology",
        RunError::Data(_) => "Data",
    }
}

/// Runs one cell, turning a panic into a test failure that names it.
fn cell(i: &Inputs, spec: &RunSpec<'_>, cfg: &RunConfig, label: &str) -> Cell {
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
    let out = catch_unwind(AssertUnwindSafe(|| {
        run(&algo, &i.model, spec, &i.test, cfg)
    }));
    out.unwrap_or_else(|_| panic!("{label}: the run panicked"))
        .map_err(|e| kind(&e))
}

fn assert_concatenates(whole: &RunResult, first: &RunResult, rest: &RunResult, label: &str) {
    let joined: Vec<_> = first
        .curve
        .points()
        .iter()
        .chain(rest.curve.points())
        .copied()
        .collect();
    assert_eq!(whole.curve.points(), &joined[..], "{label}: curve");
    let gamma: Vec<_> = first
        .gamma_trace
        .iter()
        .chain(&rest.gamma_trace)
        .copied()
        .collect();
    assert_eq!(whole.gamma_trace, gamma, "{label}: gamma trace");
    assert_eq!(whole.final_params, rest.final_params, "{label}: params");
    assert!(
        whole.snapshot.is_none() && rest.snapshot.is_none(),
        "{label}"
    );
}

#[test]
fn every_source_churn_and_span_runs_or_fails_typed() {
    let i = inputs();
    // The expected outcome of every (source, churn) pair: a non-empty
    // churn plan applies to a hierarchy only.
    let expect = |source: &str, churn: bool| -> Result<(), &'static str> {
        if churn && source != "hierarchy" {
            Err("BadConfig")
        } else {
            Ok(())
        }
    };
    let mut whole_at_one: Vec<Vec<f32>> = Vec::new();
    for threads in [1, 2] {
        let mut at = 0;
        for churn in [false, true] {
            for (name, source, sampling) in sources(&i) {
                let label = format!("{name}, churn {churn}, {threads} threads");
                let cfg = config(&source, sampling, churn, threads);
                let spec = RunSpec {
                    source,
                    resume: None,
                    stop_at: None,
                };
                let stop = cfg.total_iters / 2;
                let whole = cell(&i, &spec, &cfg, &label);
                let first = cell(
                    &i,
                    &RunSpec {
                        stop_at: Some(stop),
                        ..spec
                    },
                    &cfg,
                    &label,
                );
                // A failed stop leaves no snapshot: resume from the
                // churn-free stop of the same source instead, which a
                // churn run must reject too.
                let snap: TrainingSnapshot = match &first {
                    Ok(r) => r
                        .snapshot
                        .clone()
                        .expect("a stop_at run returns its snapshot"),
                    Err(_) => {
                        let free = config(&source, cfg.sampling, false, threads);
                        let r = cell(
                            &i,
                            &RunSpec {
                                stop_at: Some(stop),
                                ..spec
                            },
                            &free,
                            &label,
                        )
                        .expect("churn-free stops run");
                        r.snapshot.expect("a stop_at run returns its snapshot")
                    }
                };
                let rest = cell(
                    &i,
                    &RunSpec {
                        resume: Some(&snap),
                        ..spec
                    },
                    &cfg,
                    &label,
                );

                let want = expect(name, churn);
                for (span, got) in [("whole", &whole), ("stop", &first), ("resume", &rest)] {
                    assert_eq!(
                        got.as_ref().map(|_| ()).map_err(|e| *e),
                        want,
                        "{label}, {span}"
                    );
                }
                if let (Ok(whole), Ok(first), Ok(rest)) = (&whole, &first, &rest) {
                    assert_eq!(first.snapshot.as_ref().map(|s| s.tick), Some(stop));
                    assert_concatenates(whole, first, rest, &label);
                    let params = whole.final_params.as_slice().to_vec();
                    if threads == 1 {
                        whole_at_one.push(params);
                    } else {
                        assert_eq!(whole_at_one[at], params, "{label}: thread count");
                    }
                    at += 1;
                }
            }
        }
    }
    // Six churn-free sources and the churning hierarchy run.
    assert_eq!(whole_at_one.len(), 7);
}

#[test]
fn registered_runs_reject_client_sampling_in_the_tick_engine() {
    let i = inputs();
    let cfg = config(
        &RunSpec::hierarchy(&i.hierarchy, &i.shards).source,
        ClientSampling::PerEdge { count: 1 },
        false,
        1,
    );
    for spec in [
        RunSpec::hierarchy(&i.hierarchy, &i.shards),
        RunSpec::tree(&i.depth3, &i.shards),
    ] {
        let got = cell(&i, &spec, &cfg, "sampled registered run");
        assert_eq!(got.err(), Some("BadConfig"));
    }
}

#[test]
fn registered_runs_reject_client_sampling_in_the_event_engine() {
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let cfg = RunConfig {
        sampling: ClientSampling::PerEdge { count: 1 },
        ..f.cfg.clone()
    };
    let sim = sim_config(3, SyncPolicy::FullSync);
    let err = simulate(&algo, &model, &f.hierarchy, &f.shards, &f.test, &cfg, &sim).unwrap_err();
    assert!(
        matches!(err, SimError::Run(RunError::BadConfig(_))),
        "{err:?}"
    );
}

#[test]
fn trailing_datasets_register_join_candidates_only_under_a_churn_plan() {
    let f = sim_fixture(0.0);
    let model = zoo::logistic_regression(&f.train, 1);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let mut data = f.shards.clone();
    data.push(f.shards[0].clone());
    let spec = RunSpec::hierarchy(&f.hierarchy, &data);
    let err = run(&algo, &model, &spec, &f.test, &f.cfg).unwrap_err();
    assert!(matches!(err, RunError::Data(_)), "{err:?}");
    let sim = sim_config(3, SyncPolicy::FullSync);
    let err = simulate(&algo, &model, &f.hierarchy, &data, &f.test, &f.cfg, &sim).unwrap_err();
    assert!(matches!(err, SimError::Run(RunError::Data(_))), "{err:?}");

    // The same table under a plan whose Join reads the fifth dataset.
    let cfg = RunConfig {
        churn: ChurnPlan {
            events: vec![ScheduledEvent {
                round: 1,
                event: TopologyEvent::Join { worker: 4, edge: 0 },
            }],
            reform_every: None,
        },
        ..f.cfg.clone()
    };
    let res = run(&algo, &model, &spec, &f.test, &cfg).unwrap();
    assert_eq!(res.topology.joins, 1);
    let res = simulate(&algo, &model, &f.hierarchy, &data, &f.test, &cfg, &sim).unwrap();
    assert_eq!(res.topology.joins, 1);
}
