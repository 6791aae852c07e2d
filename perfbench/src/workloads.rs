//! The three workloads: how each builds its inputs from the seed, and the
//! one adapter per workload that calls its engine.
//!
//! Each adapter is the only place that names an engine entry point, so
//! when the run/simulate entry points are merged only the adapters
//! change, and the exact metrics prove the workload did not.

use std::time::Instant;

use hieradmo_bench::FaultScenario;
use hieradmo_core::algorithms::HierAdMo;
use hieradmo_core::{
    run_tiered, ClientSampling, CohortSampler, PhaseTimings, RunConfig, Strategy, WorkerPopulation,
};
use hieradmo_data::partition::x_class_partition;
use hieradmo_data::synthetic::SyntheticDataset;
use hieradmo_data::Dataset;
use hieradmo_metrics::ConvergenceCurve;
use hieradmo_models::{zoo, Model, Sequential};
use hieradmo_netsim::payload::payload_bytes;
use hieradmo_netsim::{simulate_timeline, Architecture, NetworkEnv, TraceConfig};
use hieradmo_simrt::{simulate_elastic, simulate_virtual, SimConfig, SimResult, SyncPolicy};
use hieradmo_tensor::Vector;
use hieradmo_topology::{ChurnPlan, Schedule, ScheduledEvent, TierSpec, TierTree, TopologyEvent};

/// HierAdMo ships y, x, Σ∇F and Σy up and x, y down (Algorithm 1).
const UPLOAD_VECTORS: usize = 4;
const DOWNLOAD_VECTORS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `core::run_tiered`: the tick loop and its thread pool over an MLP.
    /// A CNN here followed the shared host's load too closely for its
    /// timings to stay within their bounds (see the README).
    MlpTick,
    /// `simrt::simulate_virtual`: a sampled 1M-worker population.
    Sampled1m,
    /// `simrt::simulate_elastic`: faults and churn under a deadline policy.
    ChaosChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::MlpTick, Workload::Sampled1m, Workload::ChaosChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpTick => "mlp-tick",
            Workload::Sampled1m => "sampled-1m",
            Workload::ChaosChurn => "chaos-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads; never more than the 2 cores the benchmark is sized
    /// for, and never left to `available_parallelism`.
    pub fn threads(self) -> usize {
        match self {
            Workload::MlpTick | Workload::Sampled1m => 2,
            Workload::ChaosChurn => 1,
        }
    }

    /// Test accuracy every seed must reach; missing it fails the run.
    /// Each lies well below the accuracy every seed tried reaches at the
    /// first evaluation point (and above chance: 0.1 on the MNIST-like
    /// sets, 1/6 on HAR-like), so `steps_to_target` and `sim_s_to_target`
    /// read the same evaluation point on every seed instead of jumping
    /// between neighbours. Later points overlap across seeds on every
    /// workload, leaving no target that lands on one of them.
    pub fn target(self) -> f64 {
        match self {
            Workload::MlpTick => 0.5,
            Workload::Sampled1m => 0.5,
            Workload::ChaosChurn => 0.2,
        }
    }
}

/// Wall time of each set-up component, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub synth: u64,
    pub partition: u64,
    pub init: u64,
    pub build: u64,
}

impl SetupTimes {
    pub fn total(&self) -> u64 {
        self.synth + self.partition + self.init + self.build
    }
}

/// What the engine call needs beyond the model, per engine.
enum Engine {
    Tick,
    Virtual {
        population: WorkerPopulation,
        sim: SimConfig,
    },
    Elastic {
        sim: SimConfig,
    },
}

/// Everything one run of a workload consumes, built from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub model: Sequential,
    pub cfg: RunConfig,
    tree: TierTree,
    shards: Vec<Dataset>,
    test: Dataset,
    engine: Engine,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("set-up time fits in u64")
}

/// Builds a workload's inputs from `seed`, timing each component.
pub fn setup(workload: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let tt = match workload {
        Workload::MlpTick => SyntheticDataset::mnist_like(160, 50, seed),
        Workload::Sampled1m => SyntheticDataset::mnist_like(512, 128, seed),
        Workload::ChaosChurn => SyntheticDataset::har_like(80, 30, seed),
    };
    times.synth = elapsed_ns(t);

    let t = Instant::now();
    let shards = match workload {
        Workload::MlpTick => x_class_partition(&tt.train, 32, 3, seed.wrapping_add(2)),
        Workload::Sampled1m => x_class_partition(&tt.train, 64, 4, seed.wrapping_add(2)),
        Workload::ChaosChurn => x_class_partition(&tt.train, 32, 2, seed.wrapping_add(2)),
    };
    times.partition = elapsed_ns(t);

    let t = Instant::now();
    let model = match workload {
        Workload::MlpTick => zoo::mlp(&tt.train, 64, seed.wrapping_add(100)),
        Workload::Sampled1m => zoo::logistic_regression(&tt.train, seed.wrapping_add(100)),
        Workload::ChaosChurn => zoo::mlp(&tt.train, 32, seed.wrapping_add(100)),
    };
    times.init = elapsed_ns(t);

    let t = Instant::now();
    let threads = Some(workload.threads());
    let net_seed = seed.wrapping_add(7);
    let payload = payload_bytes(model.dim(), UPLOAD_VECTORS);
    let (tree, cfg, engine) = match workload {
        Workload::MlpTick => {
            let tree = TierTree::three_tier(4, 8, 5, 2);
            let cfg = RunConfig {
                tau: 5,
                pi: 2,
                total_iters: 200,
                batch_size: 16,
                eval_every: 50,
                seed,
                threads,
                ..RunConfig::default()
            };
            (tree, cfg, Engine::Tick)
        }
        Workload::Sampled1m => {
            // 16 edges of 62 500 registered workers under a fanout-2
            // middle tier; 32 sampled per edge per round.
            let tree = TierTree::new(vec![
                TierSpec::new(8, 2),
                TierSpec::new(2, 2),
                TierSpec::new(62_500, 5),
            ])
            .expect("sampled-1m tree is valid");
            let population = WorkerPopulation::uniform(16, 62_500, shards.len())
                .expect("sampled-1m population is valid");
            let cfg = RunConfig {
                tau: 5,
                pi: tree.pi_total(),
                total_iters: 4 * 5 * tree.pi_total(),
                batch_size: 16,
                eval_every: 5 * tree.pi_total(),
                seed,
                threads,
                sampling: ClientSampling::PerEdge { count: 32 },
                ..RunConfig::default()
            };
            let sim = SimConfig::new(
                NetworkEnv::paper_testbed(8),
                Architecture::ThreeTier,
                payload,
                net_seed,
                SyncPolicy::FullSync,
            )
            .with_tiers(tree.clone());
            (tree, cfg, Engine::Virtual { population, sim })
        }
        Workload::ChaosChurn => {
            let tree = TierTree::three_tier(4, 8, 10, 2);
            let cfg = RunConfig {
                tau: 10,
                pi: 2,
                total_iters: 600,
                batch_size: 8,
                // The relaxed-synchrony engine evaluates at every cloud
                // aggregation (τ·π = 20) whatever this says.
                eval_every: 20,
                seed,
                threads,
                churn: ChurnPlan {
                    events: vec![ScheduledEvent {
                        round: 10,
                        event: TopologyEvent::EdgeFail { edge: 3 },
                    }],
                    reform_every: Some(7),
                },
                ..RunConfig::default()
            };
            let sim = SimConfig::new(
                NetworkEnv::paper_testbed(tree.num_workers()),
                Architecture::ThreeTier,
                payload,
                net_seed,
                SyncPolicy::Deadline {
                    quorum: 0.5,
                    timeout_ms: 200.0,
                },
            )
            .with_faults(FaultScenario::Flaky.plan());
            (tree, cfg, Engine::Elastic { sim })
        }
    };
    times.build = elapsed_ns(t);

    let inputs = Inputs {
        workload,
        model,
        cfg,
        tree,
        shards,
        test: tt.test,
        engine,
    };
    (inputs, times)
}

/// The raw result of one engine call.
pub enum Raw {
    Tick {
        curve: ConvergenceCurve,
        params: Vector,
        phases: PhaseTimings,
    },
    Sim(Box<SimResult>),
}

/// One engine call: its start and end on the trace clock, and its result.
pub type Call = Result<(u64, u64, Raw), String>;

/// What one engine call produced, reduced to what the benchmark checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub exact: Exact,
    pub phases: Option<PhaseTimings>,
}

/// The metrics that must repeat bit for bit for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    pub params_hash: u64,
    pub params_finite: bool,
    pub final_accuracy: f64,
    pub steps_to_target: Option<usize>,
    pub sim_s_to_target: Option<f64>,
    pub sim_s_total: f64,
    /// Every evaluation point as (iteration, test accuracy bits).
    pub curve: Vec<(usize, u64)>,
    pub events: u64,
    pub utilization: f64,
    /// crashes, retries, transfer failures, messages lost.
    pub faults: [u64; 4],
    /// migrations, reformations, orphaned rounds.
    pub topology: [u64; 3],
}

/// FNV-1a over the parameters' bit patterns.
fn curve_points(curve: &ConvergenceCurve) -> Vec<(usize, u64)> {
    curve
        .points()
        .iter()
        .map(|p| (p.iteration, p.test_accuracy.to_bits()))
        .collect()
}

fn params_hash(params: &Vector) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Inputs {
    /// Local-step samples one run processes: iterations × materialized
    /// worker slots × batch.
    pub fn samples(&self) -> u64 {
        (self.cfg.total_iters * self.slots() * self.cfg.batch_size) as u64
    }

    /// Worker slots that hold state during the run: the sampled cohort
    /// on `sampled-1m`, every worker elsewhere.
    pub fn slots(&self) -> usize {
        match &self.cfg.sampling {
            ClientSampling::PerEdge { count } => count * self.tree.num_edges(),
            _ => self.tree.num_workers(),
        }
    }

    /// The workload's one engine call.
    pub fn call<M, S>(&self, strategy: &S, model: &M) -> Call
    where
        M: Model + Clone + Send,
        S: Strategy,
    {
        let start = crate::trace::now_ns();
        let raw = match &self.engine {
            Engine::Tick => run_tiered(
                strategy,
                model,
                &self.tree,
                &self.shards,
                &self.test,
                &self.cfg,
            )
            .map(|r| Raw::Tick {
                curve: r.curve,
                params: r.final_params,
                phases: r.timings,
            })
            .map_err(|e| e.to_string()),
            Engine::Virtual { population, sim } => simulate_virtual(
                strategy,
                model,
                population,
                &self.shards,
                &self.test,
                &self.cfg,
                sim,
            )
            .map(|r| Raw::Sim(Box::new(r)))
            .map_err(|e| e.to_string()),
            Engine::Elastic { sim } => simulate_elastic(
                strategy,
                model,
                &self.tree.edge_hierarchy(),
                &self.shards,
                &self.test,
                &self.cfg,
                sim,
            )
            .map(|r| Raw::Sim(Box::new(r)))
            .map_err(|e| e.to_string()),
        };
        let end = crate::trace::now_ns();
        raw.map(|r| (start, end, r))
    }

    /// The algorithm every workload runs.
    pub fn strategy(&self) -> HierAdMo {
        HierAdMo::adaptive(self.cfg.eta, self.cfg.gamma)
    }

    pub fn outcome(&self, raw: &Raw) -> Outcome {
        let target = self.workload.target();
        match raw {
            Raw::Tick {
                curve,
                params,
                phases,
            } => {
                // The tick loop has no clock: the netsim timeline replays
                // its schedule on the paper's testbed for the time axis.
                let dim = params.len();
                let trace = TraceConfig {
                    schedule: Schedule::three_tier(self.cfg.tau, self.cfg.pi, self.cfg.total_iters)
                        .expect("mlp-tick schedule is valid"),
                    hierarchy: self.tree.edge_hierarchy(),
                    architecture: Architecture::ThreeTier,
                    upload_bytes: payload_bytes(dim, UPLOAD_VECTORS),
                    download_bytes: payload_bytes(dim, DOWNLOAD_VECTORS),
                    seed: self.cfg.seed.wrapping_add(7),
                };
                let timeline =
                    simulate_timeline(&NetworkEnv::paper_testbed(self.tree.num_workers()), &trace);
                Outcome {
                    exact: Exact {
                        params_hash: params_hash(params),
                        params_finite: params.iter().all(|x| x.is_finite()),
                        final_accuracy: curve.final_accuracy().unwrap_or(0.0),
                        steps_to_target: curve.iterations_to_accuracy(target),
                        sim_s_to_target: timeline.time_to_accuracy(curve, target),
                        sim_s_total: timeline.total_seconds(),
                        curve: curve_points(curve),
                        events: 0,
                        utilization: 0.0,
                        faults: [0; 4],
                        topology: [0; 3],
                    },
                    phases: Some(*phases),
                }
            }
            Raw::Sim(r) => {
                let mut faults = [0u64; 4];
                for a in &r.faults {
                    let c = &a.counters;
                    faults[0] += c.crashes;
                    faults[1] += c.retries;
                    faults[2] += c.transfer_failures;
                    faults[3] += c.messages_lost;
                }
                let util = if r.utilization.is_empty() {
                    0.0
                } else {
                    r.utilization.iter().map(|u| u.utilization).sum::<f64>()
                        / r.utilization.len() as f64
                };
                Outcome {
                    exact: Exact {
                        params_hash: params_hash(&r.final_params),
                        params_finite: r.final_params.iter().all(|x| x.is_finite()),
                        final_accuracy: r.curve.final_accuracy().unwrap_or(0.0),
                        steps_to_target: r.curve.iterations_to_accuracy(target),
                        sim_s_to_target: r.timed_curve.time_to_accuracy(target),
                        sim_s_total: r.simulated_seconds,
                        curve: curve_points(&r.curve),
                        events: r.events,
                        utilization: util,
                        faults,
                        topology: [
                            r.topology.migrations,
                            r.topology.reformations,
                            r.topology.orphaned_rounds,
                        ],
                    },
                    phases: None,
                }
            }
        }
    }

    /// Replays the sampled run's cohort draws — every (edge, round) the
    /// engine materializes — and returns (draws, nanoseconds). `None` on
    /// workloads without client sampling.
    pub fn replay_cohorts(&self) -> Option<(u64, u64)> {
        let Engine::Virtual { population, .. } = &self.engine else {
            return None;
        };
        let ClientSampling::PerEdge { count } = self.cfg.sampling else {
            return None;
        };
        let sampler = CohortSampler::for_tree(self.cfg.seed, &self.tree);
        let rounds = self.cfg.total_iters / self.cfg.tau;
        let t = Instant::now();
        let mut draws = 0u64;
        for round in 1..=rounds {
            for edge in 0..self.tree.num_edges() {
                let c = sampler.cohort(edge, round, population.workers_in_edge(edge), count);
                std::hint::black_box(c);
                draws += 1;
            }
        }
        Some((draws, elapsed_ns(t)))
    }
}
