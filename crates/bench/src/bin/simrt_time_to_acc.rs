//! **Fig. 2(h)/(l), co-simulated**: time-to-target-accuracy under the
//! event-driven runtime, in one pass per (policy, architecture) cell.
//!
//! ```text
//! cargo run -p hieradmo-bench --release --bin simrt_time_to_acc -- \
//!     [--scale quick|paper] [--target 0.8] [--workload logistic-mnist] \
//!     [--seed 41] [--faults none|flaky|hostile] \
//!     [--adversary none|sign_flip|momentum_poison] \
//!     [--defense mean|trimmed|median|clip] [--tiers 3,4,5]
//! ```
//!
//! Unlike `fig2hl_time` — which trains a logical-time curve and *replays*
//! it against a fixed network trace — this binary runs training **inside**
//! the network simulation (`hieradmo-simrt`), so delays gate aggregation
//! and the synchronization policy changes the trajectory itself:
//!
//! - `full-sync`: the paper's barrier semantics on an honest time axis;
//! - `deadline(q=0.5,200ms)`: semi-synchronous quorum firing — stragglers
//!   carry over with recorded staleness;
//! - `async(age<=2)`: per-arrival firing with a bounded age.
//!
//! Each is swept over the three-tier (τ=10, π=2) and two-tier (τ=20, π=1)
//! architectures of Fig. 2, and every row is emitted as a
//! `SimRunRecord` JSON line with its derived `time_to_target_s`.
//!
//! `--faults` attaches a named [`FaultScenario`] plan (crashes, lossy
//! links, stragglers) to every cell, reporting time-to-accuracy *under
//! faults*; per-actor fault tallies ride along in each record.
//!
//! `--adversary` turns a named minority of workers Byzantine
//! ([`AdversaryScenario`]) and `--defense` selects the robust aggregation
//! rule that guards both the model and momentum reductions — one
//! (attack, defense) cell per invocation, so a shell loop over both flags
//! sweeps the full grid (recipe in `EXPERIMENTS.md`). The defaults
//! (`none` × `mean`) reproduce the clean run bit-for-bit; per-actor
//! poisoned-upload tallies ride along in each record.
//!
//! `--tiers` sweeps hierarchy depth: each listed depth beyond 3 adds a
//! binary N-tier cell (2 children per node, leaf period τ=10, every upper
//! tier syncing its children every 2 rounds) run under `full-sync` on the
//! three-tier network — middle tiers are co-hosted at the cloud actor.
//! Depth 3 keeps the classic (policy × architecture) grid. Deeper trees
//! have more workers (2^(depth-1)), so cells are comparable within a
//! depth, not across depths.
//!
//! `--churn` attaches a named topology-churn scenario and routes the cell
//! through the elastic runtime (`simulate` under a non-empty churn plan):
//!
//! - `flaky_edges`: the minority edge dies at the one-third mark (its
//!   workers re-home onto the survivor) and the live edges re-form every
//!   quarter of the run;
//! - `mass_migration`: half the workers swap edges at each quarter
//!   boundary, with a final re-formation pass.
//!
//! Churn needs at least two edges and a frozen depth-3 tree, so it skips
//! the two-tier architecture and any `--tiers` depth beyond 3. Topology
//! counters (joins, migrations, reformations, orphaned rounds) ride
//! along in each record.

use hieradmo_bench::cli::Cli;
use hieradmo_bench::{
    defense_from_name, AdversaryScenario, FaultScenario, Report, Scale, Workload,
};
use hieradmo_core::algorithms::HierAdMo;
use hieradmo_core::{RunConfig, Strategy};
use hieradmo_data::partition::x_class_partition;
use hieradmo_metrics::export::SimRunRecord;
use hieradmo_models::Model;
use hieradmo_netsim::payload::payload_bytes;
use hieradmo_netsim::{Architecture, NetworkEnv};
use hieradmo_simrt::{simulate, SimConfig, SyncPolicy};
use hieradmo_topology::{ChurnPlan, Hierarchy, ScheduledEvent, TierSpec, TierTree, TopologyEvent};

const EDGES: usize = 2;
const WORKERS: usize = 4;
/// Algorithm 1 line 9 ships y, x, Σ∇F, Σy per upload.
const UPLOAD_VECTORS: usize = 4;

/// Builds the named churn scenario over a run of `rounds` cloud rounds
/// on the 2-edge depth-3 grid. `none` returns the empty plan (frozen
/// tree, classic engine).
fn churn_scenario(name: &str, rounds: usize) -> ChurnPlan {
    let quarter = (rounds / 4).max(1);
    match name {
        "none" => ChurnPlan::none(),
        "flaky_edges" => ChurnPlan {
            events: vec![ScheduledEvent {
                round: (rounds / 3).max(1),
                event: TopologyEvent::EdgeFail { edge: 1 },
            }],
            reform_every: Some(quarter),
        },
        "mass_migration" => ChurnPlan {
            events: vec![
                ScheduledEvent {
                    round: quarter,
                    event: TopologyEvent::Migrate { worker: 0, edge: 1 },
                },
                ScheduledEvent {
                    round: quarter,
                    event: TopologyEvent::Migrate { worker: 2, edge: 0 },
                },
                ScheduledEvent {
                    round: 2 * quarter,
                    event: TopologyEvent::Migrate { worker: 0, edge: 0 },
                },
                ScheduledEvent {
                    round: 2 * quarter,
                    event: TopologyEvent::Migrate { worker: 2, edge: 1 },
                },
                ScheduledEvent {
                    round: 3 * quarter,
                    event: TopologyEvent::EdgeReform,
                },
            ],
            reform_every: None,
        },
        other => panic!("unknown --churn scenario {other:?} (none|flaky_edges|mass_migration)"),
    }
}

fn main() {
    let cli = Cli::parse();
    let scale = cli.scale();
    let target: f64 = cli.get_or("target", 0.8);
    let seed: u64 = cli.get_or("seed", 41);
    let workload = Workload::from_name(cli.get("workload").unwrap_or("logistic-mnist"));
    let scenario = FaultScenario::from_name(cli.get("faults").unwrap_or("none"));
    let adversary = AdversaryScenario::from_name(cli.get("adversary").unwrap_or("none"));
    let defense = defense_from_name(cli.get("defense").unwrap_or("mean"));
    let churn_name = cli.get("churn").unwrap_or("none").to_string();
    let churn_on = churn_name != "none";
    let depths: Vec<usize> = cli
        .get("tiers")
        .unwrap_or("3")
        .split(',')
        .map(|s| {
            let d: usize = s
                .trim()
                .parse()
                .expect("--tiers takes a comma-separated list of depths, e.g. 3,4,5");
            assert!(d >= 3, "--tiers depths must be at least 3, got {d}");
            d
        })
        .collect();

    let tt = workload.dataset(scale, seed);
    let model = workload.model(&tt.train, seed.wrapping_add(100));
    let x = workload.noniid_classes(tt.train.num_classes());
    let shards = x_class_partition(&tt.train, WORKERS, x, seed.wrapping_add(2));
    let env = NetworkEnv::paper_testbed(WORKERS);
    let payload = payload_bytes(model.dim(), UPLOAD_VECTORS);

    let policies = [
        SyncPolicy::FullSync,
        SyncPolicy::Deadline {
            quorum: 0.5,
            timeout_ms: 200.0,
        },
        SyncPolicy::AsyncAge { max_staleness: 2 },
    ];
    let architectures = [
        (Architecture::ThreeTier, 10usize, 2usize),
        (Architecture::TwoTier, 20, 1),
    ];

    let mut report = Report::new(
        "simrt_time_to_acc",
        vec![
            "policy".into(),
            "arch".into(),
            "tiers".into(),
            "faults".into(),
            "adversary".into(),
            "defense".into(),
            "churn".into(),
            format!("time to {target:.2} (s)"),
            "total (s)".into(),
            "final acc %".into(),
            "events".into(),
        ],
    );

    for &(arch, tau, pi) in architectures.iter().filter(|_| depths.contains(&3)) {
        if churn_on && arch == Architecture::TwoTier {
            eprintln!("[simrt] skipping TwoTier under churn (needs at least two edges)");
            continue;
        }
        let hierarchy = match arch {
            Architecture::ThreeTier => Hierarchy::balanced(EDGES, WORKERS / EDGES),
            Architecture::TwoTier => Hierarchy::two_tier(WORKERS),
        };
        let total = {
            let round = tau * pi;
            match scale {
                Scale::Quick => (workload.total_iters(scale) / 4).max(round),
                Scale::Paper => workload.total_iters(scale),
            }
            .div_ceil(round)
                * round
        };
        let cfg = RunConfig {
            tau,
            pi,
            total_iters: total,
            batch_size: scale.batch_size(),
            eval_every: (total / 20).max(1),
            seed,
            aggregator: defense,
            adversary: adversary.plan(WORKERS),
            churn: churn_scenario(&churn_name, total / (tau * pi)),
            ..RunConfig::default()
        };
        let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
        for &policy in &policies {
            eprintln!(
                "[simrt] {} under {} on {arch:?} (faults: {}, adversary: {}, defense: {}, \
                 churn: {churn_name})",
                algo.name(),
                policy.label(),
                scenario.name(),
                adversary.name(),
                defense.label()
            );
            let sim = SimConfig::new(env.clone(), arch, payload, seed.wrapping_add(7), policy)
                .with_faults(scenario.plan());
            let res = simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
                .expect("co-simulation failed");
            let final_acc = res
                .timed_curve
                .points()
                .last()
                .map_or(0.0, |p| p.test_accuracy);
            let record = SimRunRecord::new(
                res.algorithm.clone(),
                res.policy.clone(),
                res.timed_curve.clone(),
                target,
                res.utilization.clone(),
            )
            .with_faults(res.faults.clone())
            .with_adversaries(res.adversaries.clone())
            .with_run_stats(res.events, res.simulated_seconds)
            .with_topology(res.topology);
            report.row(
                vec![
                    res.policy.clone(),
                    format!("{arch:?}"),
                    "3".into(),
                    scenario.name().into(),
                    adversary.name().into(),
                    defense.label().to_string(),
                    churn_name.clone(),
                    record
                        .time_to_target_s
                        .map_or("never".into(), |s| format!("{s:.2}")),
                    format!("{:.2}", res.simulated_seconds),
                    format!("{:.2}", final_acc * 100.0),
                    res.events.to_string(),
                ],
                &record,
            );
        }
    }

    // Depth sweep: one full-sync three-tier-network cell per depth ≥ 4,
    // on a binary tree (2 children per node) with leaf period τ = 10 and
    // every upper tier syncing its children every 2 of their rounds.
    for &depth in depths.iter().filter(|&&d| d > 3) {
        if churn_on {
            eprintln!("[simrt] skipping depth {depth} under churn (elastic runs are depth-3)");
            continue;
        }
        let mut levels = vec![TierSpec::new(2, 2); depth - 1];
        *levels.last_mut().expect("depth >= 4 has levels") = TierSpec::new(2, 10);
        let tree = TierTree::new(levels).expect("sweep tree is valid");
        let hierarchy = tree.edge_hierarchy();
        let n = tree.num_workers();
        let shards = x_class_partition(&tt.train, n, x, seed.wrapping_add(2));
        let env = NetworkEnv::paper_testbed(n);
        let (tau, pi) = (tree.tau(), tree.pi_total());
        let total = {
            let round = tau * pi;
            match scale {
                Scale::Quick => (workload.total_iters(scale) / 4).max(round),
                Scale::Paper => workload.total_iters(scale),
            }
            .div_ceil(round)
                * round
        };
        let cfg = RunConfig {
            tau,
            pi,
            total_iters: total,
            batch_size: scale.batch_size(),
            eval_every: (total / 20).max(1),
            seed,
            aggregator: defense,
            adversary: adversary.plan(n),
            ..RunConfig::default()
        };
        let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
        let policy = SyncPolicy::FullSync;
        eprintln!(
            "[simrt] {} under {} at depth {depth} ({n} workers; faults: {}, adversary: {}, \
             defense: {})",
            algo.name(),
            policy.label(),
            scenario.name(),
            adversary.name(),
            defense.label()
        );
        let sim = SimConfig::new(
            env,
            Architecture::ThreeTier,
            payload,
            seed.wrapping_add(7),
            policy,
        )
        .with_faults(scenario.plan())
        .with_tiers(tree);
        let res = simulate(&algo, &model, &hierarchy, &shards, &tt.test, &cfg, &sim)
            .expect("co-simulation failed");
        let final_acc = res
            .timed_curve
            .points()
            .last()
            .map_or(0.0, |p| p.test_accuracy);
        let record = SimRunRecord::new(
            res.algorithm.clone(),
            res.policy.clone(),
            res.timed_curve.clone(),
            target,
            res.utilization.clone(),
        )
        .with_faults(res.faults.clone())
        .with_adversaries(res.adversaries.clone())
        .with_run_stats(res.events, res.simulated_seconds);
        report.row(
            vec![
                res.policy.clone(),
                "ThreeTier".into(),
                depth.to_string(),
                scenario.name().into(),
                adversary.name().into(),
                defense.label().to_string(),
                "none".into(),
                record
                    .time_to_target_s
                    .map_or("never".into(), |s| format!("{s:.2}")),
                format!("{:.2}", res.simulated_seconds),
                format!("{:.2}", final_acc * 100.0),
                res.events.to_string(),
            ],
            &record,
        );
    }

    println!("{}", report.render());
}
