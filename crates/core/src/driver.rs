//! The tick-driven engine: one training loop, `run_span`, behind every
//! `core` entry point. It walks Algorithm 1 — local steps, edge
//! aggregation every `τ`, middle tiers at their boundaries, the root every
//! `τ·π`, evaluation every `eval_every` — on a persistent worker pool, and
//! records a convergence curve. Who takes part is the private
//! `Participants` enum: the workers of a materialized hierarchy, or
//! cohorts sampled per round from a virtual population.
//!
//! Parallelism is governed by [`RunConfig::resolved_threads`]. The engine
//! chunks every phase — local steps, per-edge aggregation, evaluation — in
//! a fixed order that does not depend on the thread count, so results are
//! bitwise identical whether a run uses one thread or all cores.

use std::error::Error;
use std::fmt;
use std::mem;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{AdversaryCounters, ConvergenceCurve, EvalPoint, TopologyCounters};
use hieradmo_models::Model;
use hieradmo_netsim::adversary::{AdversarySampler, AttackModel};
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, ScheduleError, TierAggregation, TierTree, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::byzantine::{corrupt_upload, replay_upload};
use crate::checkpoint::TrainingSnapshot;
use crate::config::RunConfig;
/// Samples per evaluation chunk, fixed for every thread count.
pub use crate::pool::EVAL_CHUNK;
use crate::pool::{EdgeItem, ExecCtx, Pool, Segment};
use crate::population::{
    adversary_stream, batcher_seed, cohort_dropout_mask, materialize_edge_cohort,
    virtual_global_params, CohortSampler, WorkerPopulation,
};
use crate::state::{EdgeState, FlState, TierState, WorkerState};
use crate::strategy::{Strategy, TierScope};

/// Errors a run can fail with before any training happens.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The configuration failed [`RunConfig::validate`].
    BadConfig(String),
    /// The schedule could not be built from `(τ, π, T)`.
    Schedule(ScheduleError),
    /// The algorithm's tier does not match the topology.
    Topology(String),
    /// Worker data does not line up with the hierarchy.
    Data(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BadConfig(m) => write!(f, "invalid configuration: {m}"),
            RunError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            RunError::Topology(m) => write!(f, "topology mismatch: {m}"),
            RunError::Data(m) => write!(f, "data mismatch: {m}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for RunError {
    fn from(e: ScheduleError) -> Self {
        RunError::Schedule(e)
    }
}

/// Wall-clock spent in each phase of a run (simulation time, not emulated
/// network time — see `hieradmo-netsim` for the latter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Worker local steps, summed over all ticks.
    pub local_steps: Duration,
    /// Edge aggregations (every `τ` ticks).
    pub edge_agg: Duration,
    /// Cloud aggregations (every `τ·π` ticks).
    pub cloud_agg: Duration,
    /// Global-model evaluations (test set + training probe).
    pub eval: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.local_steps + self.edge_agg + self.cloud_agg + self.eval
    }
}

impl From<PhaseTimings> for hieradmo_metrics::PhaseBreakdown {
    /// The serializable (milliseconds) form of the timings, as persisted by
    /// `hieradmo_metrics::export::RunRecord`.
    fn from(t: PhaseTimings) -> Self {
        hieradmo_metrics::PhaseBreakdown {
            local_steps_ms: t.local_steps.as_secs_f64() * 1000.0,
            edge_agg_ms: t.edge_agg.as_secs_f64() * 1000.0,
            cloud_agg_ms: t.cloud_agg.as_secs_f64() * 1000.0,
            eval_ms: t.eval.as_secs_f64() * 1000.0,
        }
    }
}

/// The outcome of one training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name (Table II row label).
    pub algorithm: String,
    /// Accuracy/loss trajectory of the global model.
    pub curve: ConvergenceCurve,
    /// `(k, mean-over-edges γℓ)` at every edge aggregation — the raw data
    /// behind the Fig. 2(i)–(k) adaptive-γℓ diagnostics.
    pub gamma_trace: Vec<(usize, f32)>,
    /// `(k, mean-over-edges cos θ)` at every edge aggregation (Eq. 6's
    /// measured worker/edge momentum agreement).
    pub cos_trace: Vec<(usize, f32)>,
    /// Per-middle-tier γ diagnostics on N-tier runs: one trace per
    /// middle depth (in [`TierTree::middle_depths`] order), each holding
    /// `(round, mean-over-nodes γ)` at that tier's aggregations — the
    /// per-tier generalization of [`RunResult::gamma_trace`]. Empty on
    /// three-tier runs; an identity (pass-through) tier's trace stays
    /// empty, since that tier never aggregates.
    pub tier_gamma: Vec<Vec<(usize, f32)>>,
    /// Final global model parameters.
    pub final_params: Vector,
    /// Wall-clock duration of the simulation (not of the emulated network;
    /// see `hieradmo-netsim` for trace-driven time).
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown of `elapsed`.
    pub timings: PhaseTimings,
    /// Byzantine corruption tallies. Materialized runs ([`run`] and its
    /// variants, and full-participation virtual runs) index them by flat
    /// worker, one entry per worker; sampled virtual runs
    /// ([`crate::population::run_virtual`]) by entry of
    /// [`RunConfig::adversary`](crate::RunConfig); elastic runs
    /// ([`crate::elastic::run_elastic`]) by registered uid. Entries of
    /// honest workers stay all-zero.
    pub adversaries: Vec<AdversaryCounters>,
    /// Churn tallies from the elastic topology layer
    /// ([`crate::elastic::run_elastic`]). All-zero on frozen-tree runs.
    pub topology: TopologyCounters,
}

/// Runs `strategy` on the given topology/data with the paper's training
/// loop (Algorithm 1's skeleton):
///
/// 1. every tick, each worker takes one local step on its own mini-batch;
/// 2. at `t = kτ`, every edge aggregates (edges run in parallel on the
///    pool);
/// 3. at `t = pτπ`, the cloud aggregates;
/// 4. every `eval_every` ticks (and at `t = T`) the global model is
///    evaluated on the test set and a capped training probe.
///
/// The worker pool is created once and lives for the whole loop; see
/// [`RunConfig::threads`] for the parallelism knob and the determinism
/// guarantee.
///
/// # Errors
///
/// Returns [`RunError`] if the config, schedule, topology or data are
/// inconsistent.
pub fn run<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    run_span(
        strategy,
        model,
        Participants::Registered {
            hierarchy,
            worker_data,
        },
        test_data,
        cfg,
        None,
        None,
        None,
    )
    .map(|(result, _)| result)
}

/// Runs `strategy` over an arbitrary-depth [`TierTree`]: the N-tier
/// generalization of [`run`]. Worker state is laid out over the tree's
/// edge tier ([`TierTree::edge_hierarchy`]); middle tiers fire bottom-up
/// at their interval boundaries through
/// [`Strategy::tier_aggregate`], between the edge and root aggregations.
///
/// A depth-3 tree runs the *identical* code path as [`run`] on the
/// corresponding hierarchy — no middle tiers exist, and the edge/root
/// hooks default to the seed behavior — so results are bitwise equal
/// (pinned by `tests/tier_equivalence.rs`).
///
/// # Errors
///
/// Everything [`run`] rejects, plus a config whose `(τ, π)` disagree
/// with the tree (`cfg.tau` must equal [`TierTree::tau`], `cfg.pi` must
/// equal [`TierTree::pi_total`]) or worker data that does not span the
/// tree's leaves.
pub fn run_tiered<M, S>(
    strategy: &S,
    model: &M,
    tree: &TierTree,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let hierarchy = tree.edge_hierarchy();
    run_span(
        strategy,
        model,
        Participants::Registered {
            hierarchy: &hierarchy,
            worker_data,
        },
        test_data,
        cfg,
        Some(tree),
        None,
        None,
    )
    .map(|(result, _)| result)
}

/// The N-tier counterpart of [`run_until`]: stops at an edge boundary
/// and returns the snapshot (which carries every middle tier's state —
/// see [`TrainingSnapshot::middle`]) alongside the partial result.
///
/// # Errors
///
/// Everything [`run_tiered`] and [`run_until`] reject.
#[allow(clippy::too_many_arguments)]
pub fn run_tiered_until<M, S>(
    strategy: &S,
    model: &M,
    tree: &TierTree,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    stop_at: usize,
) -> Result<(RunResult, TrainingSnapshot), RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let hierarchy = tree.edge_hierarchy();
    let (result, snapshot) = run_span(
        strategy,
        model,
        Participants::Registered {
            hierarchy: &hierarchy,
            worker_data,
        },
        test_data,
        cfg,
        Some(tree),
        None,
        Some(stop_at),
    )?;
    Ok((
        result,
        snapshot.expect("run_span produces a snapshot whenever stop_at is given"),
    ))
}

/// The N-tier counterpart of [`run_resumed`]: continues from a snapshot
/// captured by [`run_tiered_until`] with the same tree, strategy, model,
/// data and config, bitwise identically to the uninterrupted
/// [`run_tiered`].
///
/// # Errors
///
/// Everything [`run_tiered`] and [`run_resumed`] reject, plus a
/// snapshot whose middle-tier shape does not match the tree.
pub fn run_tiered_resumed<M, S>(
    strategy: &S,
    model: &M,
    tree: &TierTree,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    snapshot: &TrainingSnapshot,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let hierarchy = tree.edge_hierarchy();
    run_span(
        strategy,
        model,
        Participants::Registered {
            hierarchy: &hierarchy,
            worker_data,
        },
        test_data,
        cfg,
        Some(tree),
        Some(snapshot),
        None,
    )
    .map(|(result, _)| result)
}

/// Like [`run`], but stops after tick `stop_at` (which must be a positive
/// multiple of `τ` no larger than `T`) and returns the federation state at
/// that edge boundary alongside the partial result. Feeding the snapshot
/// to [`run_resumed`] continues the run bitwise identically: concatenating
/// the two partial curves (and γℓ traces) reproduces an uninterrupted
/// [`run`] exactly.
///
/// # Errors
///
/// Everything [`run`] rejects, plus a `stop_at` that is zero, past `T`, or
/// not on an edge-aggregation boundary ([`RunError::BadConfig`]).
#[allow(clippy::too_many_arguments)]
pub fn run_until<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    stop_at: usize,
) -> Result<(RunResult, TrainingSnapshot), RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let (result, snapshot) = run_span(
        strategy,
        model,
        Participants::Registered {
            hierarchy,
            worker_data,
        },
        test_data,
        cfg,
        None,
        None,
        Some(stop_at),
    )?;
    Ok((
        result,
        snapshot.expect("run_span produces a snapshot whenever stop_at is given"),
    ))
}

/// Continues a run from a [`TrainingSnapshot`] captured by [`run_until`],
/// with the *same* strategy, model, data and config, through the remaining
/// ticks `snapshot.tick + 1 ..= T`. The resumed trajectory is bitwise
/// identical to the corresponding suffix of an uninterrupted [`run`]: the
/// driver replays the dropout and mini-batch RNG draws of the completed
/// prefix (without recomputing any steps), so every stream resumes at the
/// exact position it held at the snapshot. The returned curve and traces
/// cover only the resumed span.
///
/// # Errors
///
/// Everything [`run`] rejects, plus a snapshot whose algorithm, tick or
/// shapes do not match this run ([`RunError::BadConfig`] /
/// [`RunError::Data`]).
pub fn run_resumed<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    snapshot: &TrainingSnapshot,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    run_span(
        strategy,
        model,
        Participants::Registered {
            hierarchy,
            worker_data,
        },
        test_data,
        cfg,
        None,
        Some(snapshot),
        None,
    )
    .map(|(result, _)| result)
}

/// Who takes part in a span of the tick loop: the only thing that differs
/// between a materialized run and a sampled one.
pub(crate) enum Participants<'a> {
    /// Full participation: every hierarchy worker steps every tick and
    /// keeps its state and streams for the whole span — a batcher seeded
    /// `seed + i`, the run-wide dropout RNG drawn tick by tick in flat
    /// order, and a persistent adversary sampler per Byzantine worker,
    /// tallied per worker. A resumed span replays these streams over the
    /// trained prefix.
    Registered {
        hierarchy: &'a Hierarchy,
        worker_data: &'a [Dataset],
    },
    /// Per-round client sampling over a virtual population: each round,
    /// every edge draws a cohort into its slots
    /// ([`materialize_edge_cohort`]), and every batch, dropout and
    /// adversary stream re-derives from `(seed, worker, round)`, tallied
    /// per adversary plan entry. Nothing needs replaying on resume.
    Sampled {
        population: &'a WorkerPopulation,
        shards: &'a [Dataset],
        shard_sizes: Vec<u64>,
        sampler: CohortSampler,
        /// Global id of each slot's occupant this round, flat order.
        slot_ids: Vec<u64>,
    },
}

/// A Byzantine slot's attack, adversary stream and tally index.
type Adversary = (AttackModel, AdversarySampler, usize);

/// A slot's step stream: the dataset it trains on (an index into the
/// pool's training datasets) and its private batcher.
struct StepCtx {
    data: usize,
    batcher: Batcher,
}

/// The federation a span runs, laid out by [`Participants::layout`].
struct Layout<'a> {
    hierarchy: Hierarchy,
    weights: Weights,
    /// The tier tree to attach; a sampled run gets its cohort sub-tree.
    tree: Option<TierTree>,
    /// The datasets step contexts index into.
    data: &'a [Dataset],
    /// Per-slot step contexts; sampled slots get theirs each round.
    ctxs: Vec<Option<StepCtx>>,
    /// Per-slot adversaries; sampled slots get theirs each round.
    adversaries: Vec<Option<Adversary>>,
    /// Number of adversary tallies in the result.
    tallies: usize,
}

impl<'a> Participants<'a> {
    /// Checks the participants against `cfg` and lays out the federation
    /// the loop runs.
    fn layout(&self, cfg: &RunConfig, tiers: Option<&TierTree>) -> Result<Layout<'a>, RunError> {
        let registered = match *self {
            Participants::Registered { hierarchy, .. } => hierarchy.num_workers() as u64,
            Participants::Sampled { population, .. } => population.total_workers(),
        };
        if let Some(b) = cfg
            .adversary
            .byzantine
            .iter()
            .find(|b| b.worker as u64 >= registered)
        {
            return Err(RunError::BadConfig(format!(
                "adversary plan marks worker {} Byzantine, but the run registers only \
                 {registered} workers",
                b.worker
            )));
        }
        match *self {
            Participants::Registered {
                hierarchy,
                worker_data,
            } => {
                if worker_data.len() != hierarchy.num_workers() {
                    return Err(RunError::Data(format!(
                        "{} worker datasets for {} workers",
                        worker_data.len(),
                        hierarchy.num_workers()
                    )));
                }
                if let Some(i) = worker_data.iter().position(Dataset::is_empty) {
                    return Err(RunError::Data(format!("worker {i} has no data")));
                }
                let samples: Vec<u64> = worker_data.iter().map(|d| d.len() as u64).collect();
                let ctxs = worker_data.iter().enumerate().map(|(i, d)| {
                    Some(StepCtx {
                        data: i,
                        batcher: Batcher::new(
                            d.len(),
                            cfg.batch_size,
                            cfg.seed.wrapping_add(i as u64),
                        ),
                    })
                });
                // Each Byzantine worker owns a salted adversary stream
                // derived from the *training* seed, so the same poisoned
                // trajectory replays under any network seed and any
                // thread count.
                let adversaries = (0..hierarchy.num_workers()).map(|i| {
                    let attack = cfg.adversary.attack_for(i)?;
                    Some((attack, AdversarySampler::from_stream(cfg.seed, i as u64), i))
                });
                Ok(Layout {
                    weights: Weights::from_samples(hierarchy, &samples),
                    hierarchy: hierarchy.clone(),
                    tree: tiers.cloned(),
                    data: worker_data,
                    ctxs: ctxs.collect(),
                    adversaries: adversaries.collect(),
                    tallies: hierarchy.num_workers(),
                })
            }
            Participants::Sampled {
                population,
                shards,
                ref shard_sizes,
                ..
            } => {
                if cfg.edges.is_some() || cfg.workers_per_edge.is_some() {
                    return Err(RunError::BadConfig(
                        "legacy edges/workers_per_edge fields are not supported with a \
                         virtual population (the population defines the topology)"
                            .into(),
                    ));
                }
                let cohort = population
                    .cohort_sizes(&cfg.sampling)
                    .map_err(RunError::BadConfig)?;
                if tiers.is_some() && cohort.windows(2).any(|w| w[0] != w[1]) {
                    return Err(RunError::BadConfig(
                        "sampled tier trees need one uniform cohort size (the sampled \
                         sub-tree must stay balanced); use ClientSampling::PerEdge"
                            .into(),
                    ));
                }
                // The loop runs the *sampled* sub-tree: the registered
                // tree with its leaf fanout swapped for the cohort size.
                // All non-leaf levels — and with them every middle
                // boundary — are unchanged.
                let tree = tiers.map(|tree| {
                    let mut levels = tree.levels().to_vec();
                    levels.last_mut().expect("trees have levels").fanout = cohort[0];
                    TierTree::new(levels).expect("cohort sub-tree of a validated tree is valid")
                });
                let hierarchy = Hierarchy::new(cohort);
                let slots = hierarchy.num_workers();
                Ok(Layout {
                    weights: Weights::from_cohort(
                        &hierarchy,
                        &vec![1u64; slots],
                        population.edge_data_samples(shard_sizes),
                    ),
                    hierarchy,
                    tree,
                    data: shards,
                    ctxs: (0..slots).map(|_| None).collect(),
                    adversaries: (0..slots).map(|_| None).collect(),
                    tallies: cfg.adversary.byzantine.len(),
                })
            }
        }
    }

    /// Round start. Sampled edges draw and materialize their round-`k`
    /// cohorts, which rewrites the in-edge data weights (refreshed into
    /// `edge_weights` for the edge jobs) and hands every slot the batch and
    /// adversary streams of its new occupant. Registered workers carry
    /// straight on.
    fn begin_round(
        &mut self,
        k: usize,
        cfg: &RunConfig,
        state: &mut FlState,
        ctxs: &mut [Option<StepCtx>],
        adversaries: &mut [Option<Adversary>],
        edge_weights: &mut Arc<Weights>,
    ) {
        let Participants::Sampled {
            population,
            shard_sizes,
            sampler,
            slot_ids,
            ..
        } = self
        else {
            return;
        };
        slot_ids.clear();
        for e in 0..state.hierarchy.num_edges() {
            slot_ids.extend(materialize_edge_cohort(
                state,
                population,
                shard_sizes,
                sampler,
                e,
                k,
            ));
        }
        let slots = ctxs.iter_mut().zip(adversaries.iter_mut());
        for ((ctx, adversary), &g) in slots.zip(slot_ids.iter()) {
            let shard = population.shard_of(g);
            let seed = batcher_seed(cfg.seed, g, k as u64);
            *ctx = Some(StepCtx {
                data: shard,
                batcher: Batcher::new(shard_sizes[shard] as usize, cfg.batch_size, seed),
            });
            let plan = &cfg.adversary.byzantine;
            *adversary = plan.iter().position(|b| b.worker as u64 == g).map(|entry| {
                let stream = adversary_stream(g, k as u64);
                let sampler = AdversarySampler::from_stream(cfg.seed, stream);
                (plan[entry].attack, sampler, entry)
            });
        }
        *edge_weights = Arc::new(state.weights.clone());
    }

    /// The ticks in `(from, to]` of round `k` at which each slot steps, in
    /// flat order. Registered workers draw one dropout decision per tick
    /// from the run-wide `rng`, tick-major in flat order on the driver
    /// thread (no draw at all when `dropout` is zero); sampled slots read
    /// their `(seed, worker, round)` mask. A dropped step is skipped
    /// entirely: no mini-batch draw, no local step.
    fn step_ticks(
        &self,
        k: usize,
        from: usize,
        to: usize,
        cfg: &RunConfig,
        rng: &mut StdRng,
        slots: usize,
    ) -> Vec<Vec<usize>> {
        match self {
            Participants::Registered { .. } => {
                let mut ticks = vec![Vec::new(); slots];
                for t in from + 1..=to {
                    for worker in &mut ticks {
                        if cfg.dropout == 0.0 || rng.gen_range(0.0..1.0) >= cfg.dropout {
                            worker.push(t);
                        }
                    }
                }
                ticks
            }
            Participants::Sampled { slot_ids, .. } => {
                let round_start = (k - 1) * cfg.tau;
                let mask = |g| cohort_dropout_mask(cfg.seed, g, k as u64, cfg.tau, cfg.dropout);
                slot_ids
                    .iter()
                    .map(|&g| {
                        let dropped = mask(g);
                        (from + 1..=to)
                            .filter(|t| !dropped[t - round_start - 1])
                            .collect()
                    })
                    .collect()
            }
        }
    }

    /// Whether the loop evaluates after tick `t`: every `eval_every` ticks
    /// and at the end, except that sampled runs evaluate at round
    /// boundaries only (mid-round, their global model is undefined).
    fn evaluates_at(&self, t: usize, cfg: &RunConfig) -> bool {
        let on_grid = t.is_multiple_of(cfg.eval_every) || t == cfg.total_iters;
        on_grid && (matches!(self, Participants::Registered { .. }) || t.is_multiple_of(cfg.tau))
    }

    /// The global model the loop evaluates and returns: the strategy's
    /// own, or the population-weighted edge average of a sampled run.
    fn global_params<S: Strategy + ?Sized>(&self, strategy: &S, state: &FlState) -> Vector {
        match self {
            Participants::Registered { .. } => strategy.global_params(state),
            Participants::Sampled { .. } => virtual_global_params(state),
        }
    }
}

/// The one tick loop behind every `core` entry point — [`run`] and its
/// variants, [`crate::population::run_virtual`] and its variants, and the
/// elastic runner's epoch segments (`crate::elastic`). Optionally lays the
/// run over a [`TierTree`] (`tiers`), starts from a mid-run snapshot
/// (`resume`), and stops at an edge boundary (`stop_at`, which also makes
/// it return the state there).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_span<M, S>(
    strategy: &S,
    model: &M,
    mut participants: Participants<'_>,
    test_data: &Dataset,
    cfg: &RunConfig,
    tiers: Option<&TierTree>,
    resume: Option<&TrainingSnapshot>,
    stop_at: Option<usize>,
) -> Result<(RunResult, Option<TrainingSnapshot>), RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    cfg.validate().map_err(RunError::BadConfig)?;
    if !cfg.churn.is_empty() {
        return Err(RunError::BadConfig(
            "the frozen-tree engine cannot apply a non-empty ChurnPlan; \
             run it through crate::elastic::run_elastic"
                .into(),
        ));
    }
    if let Some(tree) = tiers {
        if cfg.tau != tree.tau() || cfg.pi != tree.pi_total() {
            return Err(RunError::BadConfig(format!(
                "config (tau = {}, pi = {}) disagrees with the tier tree \
                 (tau = {}, pi_total = {})",
                cfg.tau,
                cfg.pi,
                tree.tau(),
                tree.pi_total()
            )));
        }
    }
    if let Some(stop) = stop_at {
        if stop == 0 || stop > cfg.total_iters || !stop.is_multiple_of(cfg.tau) {
            return Err(RunError::BadConfig(format!(
                "stop_at must be a positive multiple of tau ({}) no larger than \
                 total_iters ({}), got {stop}",
                cfg.tau, cfg.total_iters
            )));
        }
        if let Some(snap) = resume.filter(|snap| stop <= snap.tick) {
            return Err(RunError::BadConfig(format!(
                "stop_at ({stop}) must be past the snapshot tick ({})",
                snap.tick
            )));
        }
    }
    let Layout {
        hierarchy,
        weights,
        tree,
        data,
        mut ctxs,
        mut adversaries,
        tallies,
    } = participants.layout(cfg, tiers)?;
    strategy
        .check_topology(&hierarchy)
        .map_err(RunError::Topology)?;

    let started = Instant::now();
    let mut state = FlState::new(hierarchy, weights, &model.params());
    state.aggregator = cfg.aggregator;
    if let Some(tree) = &tree {
        state.attach_tree(tree.clone());
    }
    strategy.init(&mut state);
    let start = match resume {
        None => 0,
        Some(snap) => {
            restore(&mut state, snap, strategy.name(), cfg)?;
            snap.tick
        }
    };

    let train_probe = build_train_probe(data, cfg.train_eval_cap);
    let slots = state.workers.len();
    let mut dropout_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5f5f_5f5f_5f5f_5f5f);
    // Edge jobs read the data weights by shared reference while the loop
    // holds `&mut state`; sampled rounds refresh this copy.
    let mut edge_weights = Arc::new(state.weights.clone());

    let mut curve = ConvergenceCurve::new();
    let mut gamma_trace = Vec::new();
    let mut cos_trace = Vec::new();
    let mut tier_gamma: Vec<Vec<(usize, f32)>> = vec![Vec::new(); state.middle.len()];
    let mut timings = PhaseTimings::default();
    let mut adversary_counters = vec![AdversaryCounters::default(); tallies];

    // Fast-forward over the already-trained prefix: replay exactly the
    // draws an uninterrupted run would make — every dropout decision, one
    // mini-batch per active step, one upload per Byzantine worker —
    // without computing any step, so every registered stream resumes at
    // the position it held at the snapshot. Sampled slots hold no streams
    // before their first round, so they replay nothing.
    let mut batch = Vec::new();
    for k in 1..=start / cfg.tau {
        let (from, to) = ((k - 1) * cfg.tau, k * cfg.tau);
        let ticks = participants.step_ticks(k, from, to, cfg, &mut dropout_rng, slots);
        for (ctx, ticks) in ctxs.iter_mut().flatten().zip(ticks) {
            for _ in ticks {
                ctx.batcher.next_batch_into(&mut batch);
            }
        }
        for (attack, sampler, _) in adversaries.iter_mut().flatten() {
            replay_upload(state.dim(), attack, sampler);
        }
    }

    // Local steps run in intervals ending wherever something reads worker
    // state: a round's end (edge aggregation) or a mid-round evaluation.
    let end = stop_at.unwrap_or(cfg.total_iters);
    let stops: Vec<usize> = (start + 1..=end)
        .filter(|&t| t.is_multiple_of(cfg.tau) || participants.evaluates_at(t, cfg))
        .collect();
    let ctx = ExecCtx {
        strategy,
        cfg,
        worker_data: data,
        test_data,
        train_probe: &train_probe,
    };

    std::thread::scope(|scope| {
        let mut pool = Pool::new(scope, ctx, model, slots);

        let mut from = start;
        for to in stops {
            let k = to.div_ceil(cfg.tau);
            let t0 = Instant::now();
            if from.is_multiple_of(cfg.tau) {
                participants.begin_round(
                    k,
                    cfg,
                    &mut state,
                    &mut ctxs,
                    &mut adversaries,
                    &mut edge_weights,
                );
            }
            let ticks = participants.step_ticks(k, from, to, cfg, &mut dropout_rng, slots);
            local_steps(&mut pool, &mut state, &mut ctxs, ticks);
            timings.local_steps += t0.elapsed();
            from = to;

            if to.is_multiple_of(cfg.tau) {
                let t0 = Instant::now();
                // Byzantine participants corrupt their upload at the moment
                // it becomes visible to the edge — right before the edge
                // aggregates — serially in flat order. The worker state
                // *is* the upload, so it is corrupted in place; the
                // redistribution at the end of `edge_aggregate` then
                // overwrites the poisoned fields, exactly as a mailbox
                // model would.
                for (worker, adversary) in state.workers.iter_mut().zip(&mut adversaries) {
                    if let Some((attack, sampler, tally)) = adversary {
                        corrupt_upload(worker, attack, sampler, &mut adversary_counters[*tally]);
                    }
                }
                edge_aggregations(&mut pool, &mut state, k, &edge_weights);
                let n_edges = state.edges.len() as f32;
                let mean_gamma = state.edges.iter().map(|e| e.gamma_edge).sum::<f32>() / n_edges;
                gamma_trace.push((k, mean_gamma));
                let mean_cos = state.edges.iter().map(|e| e.cos_theta).sum::<f32>() / n_edges;
                cos_trace.push((k, mean_cos));
                timings.edge_agg += t0.elapsed();

                let t0 = Instant::now();
                // Middle tiers fire bottom-up whenever the edge round count
                // divides their synchronization period, serially and without
                // RNG, so adding (or removing) pass-through tiers cannot
                // perturb any stream — the basis of the depth-collapse
                // equivalence guarantee. Identity tiers neither fire the
                // hook nor record γ, so a pass-through tree is bit-identical
                // to its collapse, traces included.
                if let Some(tree) = &tree {
                    for d in tree.middle_depths().rev() {
                        let period = tree.sync_rounds(d);
                        let identity = tree.levels()[d].aggregation == TierAggregation::Identity;
                        if identity || k % period != 0 {
                            continue;
                        }
                        for node in 0..tree.nodes_at(d) {
                            let scope = TierScope::Middle {
                                depth: d,
                                node,
                                state: &mut state,
                            };
                            strategy.tier_aggregate(scope, k / period);
                        }
                        let tier = &state.middle[d - 1];
                        let mean =
                            tier.iter().map(|s| s.gamma_edge).sum::<f32>() / tier.len() as f32;
                        tier_gamma[d - 1].push((k / period, mean));
                    }
                }
                if k.is_multiple_of(cfg.pi) {
                    if tree.is_some() {
                        strategy.tier_aggregate(TierScope::Root(&mut state), k / cfg.pi);
                    } else {
                        strategy.cloud_aggregate(k / cfg.pi, &mut state);
                    }
                }
                timings.cloud_agg += t0.elapsed();
            }

            if participants.evaluates_at(to, cfg) {
                let t0 = Instant::now();
                let global = participants.global_params(strategy, &state);
                let (test_eval, train_eval) = pool.evaluate(&global);
                curve.push(EvalPoint {
                    iteration: to,
                    train_loss: train_eval.loss,
                    test_loss: test_eval.loss,
                    test_accuracy: test_eval.accuracy,
                });
                timings.eval += t0.elapsed();
            }
        }
    });

    let final_params = participants.global_params(strategy, &state);
    let snapshot = stop_at.map(|stop| TrainingSnapshot {
        algorithm: strategy.name().to_string(),
        tick: stop,
        workers: state.workers.clone(),
        edges: state.edges.clone(),
        cloud: state.cloud.clone(),
        middle: state.middle.clone(),
        topology: None,
    });
    Ok((
        RunResult {
            algorithm: strategy.name().to_string(),
            curve,
            gamma_trace,
            cos_trace,
            tier_gamma,
            final_params,
            elapsed: started.elapsed(),
            timings,
            adversaries: adversary_counters,
            topology: TopologyCounters::default(),
        },
        snapshot,
    ))
}

/// Checks `snap` against the freshly initialized `state` — algorithm,
/// tick, tier shapes and the length of every state vector — and restores
/// every tier from it. All algorithm state lives in the tier vectors, so
/// restoring them overwrites everything `init` set up. A malformed
/// snapshot is a typed error, never a panic mid-run; non-finite values
/// pass, since a diverged run legitimately snapshots them.
fn restore(
    state: &mut FlState,
    snap: &TrainingSnapshot,
    algorithm: &str,
    cfg: &RunConfig,
) -> Result<(), RunError> {
    if snap.algorithm != algorithm {
        return Err(RunError::BadConfig(format!(
            "snapshot was captured by {}, cannot resume under {algorithm}",
            snap.algorithm
        )));
    }
    if snap.tick == 0 || snap.tick >= cfg.total_iters || !snap.tick.is_multiple_of(cfg.tau) {
        return Err(RunError::BadConfig(format!(
            "snapshot tick {} is not an edge boundary (multiple of tau = {}) \
             strictly before total_iters = {}",
            snap.tick, cfg.tau, cfg.total_iters
        )));
    }
    let shape = |workers: &[WorkerState], edges: &[TierState], middle: &[Vec<TierState>]| {
        let middle: Vec<usize> = middle.iter().map(Vec::len).collect();
        (workers.len(), edges.len(), middle)
    };
    let want = shape(&state.workers, &state.edges, &state.middle);
    let got = shape(&snap.workers, &snap.edges, &snap.middle);
    if got != want {
        return Err(RunError::Data(format!(
            "snapshot holds (workers, edges, middle nodes per tier) {got:?}, \
             the run needs {want:?}"
        )));
    }
    let dim = state.dim();
    let workers = snap.workers.iter().flat_map(|w| {
        [
            &w.x,
            &w.y,
            &w.v,
            &w.grad_accum,
            &w.y_accum,
            &w.v_accum,
            &w.scratch,
        ]
    });
    let tiers = snap
        .edges
        .iter()
        .chain([&snap.cloud])
        .chain(snap.middle.iter().flatten());
    let tiers = tiers.flat_map(|s| [&s.x_plus, &s.y_plus, &s.y_minus, &s.v, &s.x_prev]);
    if let Some(v) = workers.chain(tiers).find(|v| v.len() != dim) {
        return Err(RunError::Data(format!(
            "snapshot holds a state vector of length {} for model dimension {dim}",
            v.len()
        )));
    }
    state.workers = snap.workers.clone();
    state.edges = snap.edges.clone();
    state.cloud = snap.cloud.clone();
    state.middle = snap.middle.clone();
    Ok(())
}

/// Runs one interval of local steps on the pool: every worker with ticks
/// to step is checked out as a [`Segment`] with its step stream, and put
/// back by index.
fn local_steps<M, S>(
    pool: &mut Pool<'_, M, S>,
    state: &mut FlState,
    ctxs: &mut [Option<StepCtx>],
    ticks: Vec<Vec<usize>>,
) where
    M: Model,
    S: Strategy + ?Sized,
{
    let mut idxs = Vec::new();
    let mut segments = Vec::new();
    for (idx, ticks) in ticks.into_iter().enumerate() {
        if ticks.is_empty() {
            continue;
        }
        let StepCtx { data, batcher } = ctxs[idx].take().expect("step context double checkout");
        idxs.push(idx);
        segments.push(Segment {
            ticks,
            worker: mem::take(&mut state.workers[idx]),
            data,
            batcher,
        });
    }
    for (idx, seg) in idxs.into_iter().zip(pool.run_segments(segments)) {
        state.workers[idx] = seg.worker;
        ctxs[idx] = Some(StepCtx {
            data: seg.data,
            batcher: seg.batcher,
        });
    }
}

/// Runs aggregation `k` on every edge, in parallel across the pool: edge
/// states and workers are checked out as disjoint [`EdgeItem`]s (workers
/// are stored edge-major, so each edge owns a contiguous block), processed
/// in fixed edge order under the round's data `weights`, and reassembled
/// in edge order.
fn edge_aggregations<M, S>(
    pool: &mut Pool<'_, M, S>,
    state: &mut FlState,
    k: usize,
    weights: &Arc<Weights>,
) where
    M: Model,
    S: Strategy + ?Sized,
{
    let mut workers = mem::take(&mut state.workers);
    let mut items = Vec::with_capacity(state.edges.len());
    for edge in (0..state.edges.len()).rev() {
        let offset = state.hierarchy.edge_workers(edge).start;
        items.push(EdgeItem {
            edge,
            offset,
            workers: workers.split_off(offset),
            state: mem::replace(&mut state.edges[edge], EdgeState::placeholder()),
        });
    }
    items.reverse();

    // `workers` is empty after the split-offs; refill it edge-major.
    for item in pool.aggregate_edges(k, weights, items) {
        state.edges[item.edge] = item.state;
        workers.extend(item.workers);
    }
    state.workers = workers;
}

/// A fixed, affordable probe of training data for the train-loss metric:
/// round-robin over the worker shards up to `cap` samples total (always at
/// least one sample).
///
/// Public so alternative drivers (the event-driven co-simulation runtime in
/// `hieradmo-simrt`) can build the *same* probe and keep their evaluation
/// bitwise comparable to [`run`].
pub fn build_train_probe(worker_data: &[Dataset], cap: usize) -> Dataset {
    let total: usize = worker_data.iter().map(Dataset::len).sum();
    let take = cap.min(total).max(1);
    let mut samples = Vec::with_capacity(take);
    let mut cursors = vec![0usize; worker_data.len()];
    'outer: loop {
        let mut advanced = false;
        for (i, data) in worker_data.iter().enumerate() {
            if cursors[i] < data.len() {
                samples.push(data.sample(cursors[i]).clone());
                cursors[i] += 1;
                advanced = true;
                if samples.len() >= take {
                    break 'outer;
                }
            }
        }
        if !advanced {
            break;
        }
    }
    Dataset::new(
        samples,
        worker_data[0].shape(),
        worker_data[0].num_classes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::small_problem;
    use crate::algorithms::{FedAvg, HierAdMo};

    fn cfg() -> RunConfig {
        RunConfig {
            eta: 0.05,
            tau: 5,
            pi: 2,
            total_iters: 100,
            eval_every: 25,
            batch_size: 16,
            threads: Some(1),
            ..RunConfig::default()
        }
    }

    #[test]
    fn records_expected_eval_points() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let res = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        let iters: Vec<usize> = res.curve.points().iter().map(|p| p.iteration).collect();
        assert_eq!(iters, vec![25, 50, 75, 100]);
        assert_eq!(res.algorithm, "HierAdMo");
        assert_eq!(res.final_params.len(), model.dim());
        assert_eq!(res.gamma_trace.len(), 20, "K = 100/5 edge aggregations");
        assert_eq!(res.cos_trace.len(), 20);
        for &(_, cos) in &res.cos_trace {
            assert!((-1.0..=1.0).contains(&cos), "cos θ out of range: {cos}");
        }
    }

    #[test]
    fn parallel_and_serial_agree_exactly() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let serial = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        let par_cfg = RunConfig {
            threads: None,
            ..cfg()
        };
        let parallel = run(&algo, &model, &h, &shards, &test, &par_cfg).unwrap();
        assert_eq!(
            serial.curve, parallel.curve,
            "determinism across threading modes"
        );
        assert_eq!(serial.final_params, parallel.final_params);
    }

    #[test]
    fn explicit_thread_counts_agree_exactly() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let base = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        for threads in [2, 3, 8] {
            let t_cfg = RunConfig {
                threads: Some(threads),
                ..cfg()
            };
            let res = run(&algo, &model, &h, &shards, &test, &t_cfg).unwrap();
            assert_eq!(base.curve, res.curve, "threads = {threads}");
            assert_eq!(base.final_params, res.final_params, "threads = {threads}");
        }
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let a = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        let b = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        assert_eq!(a.curve, b.curve);
        let other_seed = RunConfig { seed: 99, ..cfg() };
        let c = run(&algo, &model, &h, &shards, &test, &other_seed).unwrap();
        // The tiny fixture can saturate to identical (zero-loss) curves on
        // any seed, so distinguish runs by the exact final parameters.
        assert_ne!(
            a.final_params, c.final_params,
            "different seed should change the trajectory"
        );
    }

    #[test]
    fn timings_cover_every_phase() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let res = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap();
        assert!(res.timings.local_steps > Duration::ZERO);
        assert!(res.timings.edge_agg > Duration::ZERO);
        assert!(res.timings.cloud_agg > Duration::ZERO);
        assert!(res.timings.eval > Duration::ZERO);
        assert!(res.timings.total() <= res.elapsed);
    }

    #[test]
    fn errors_are_reported() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = FedAvg::new(0.05);
        // Two-tier algorithm on three-tier topology.
        let err = run(&algo, &model, &h, &shards, &test, &cfg()).unwrap_err();
        assert!(matches!(err, RunError::Topology(_)));
        // Wrong shard count.
        let algo3 = HierAdMo::adaptive(0.05, 0.5);
        let err = run(&algo3, &model, &h, &shards[..3], &test, &cfg()).unwrap_err();
        assert!(matches!(err, RunError::Data(_)));
        // Bad config.
        let bad = RunConfig {
            total_iters: 101,
            ..cfg()
        };
        let err = run(&algo3, &model, &h, &shards, &test, &bad).unwrap_err();
        assert!(matches!(err, RunError::BadConfig(_)));
        // Errors display non-trivially.
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn train_probe_round_robins_across_workers() {
        let (_, _, shards, _) = small_problem(4);
        let probe = build_train_probe(&shards, 8);
        assert_eq!(probe.len(), 8);
        // With 4 workers and cap 8, the probe holds 2 samples per worker:
        // its class histogram must span more than one worker's classes.
        let classes_held = probe.class_histogram().iter().filter(|&&c| c > 0).count();
        assert!(classes_held >= 2);
    }
}
