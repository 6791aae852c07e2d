//! The tick-driven engine: one training loop, `run_span`, behind the one
//! entry point [`run`], which takes its participants and span as a
//! [`RunSpec`]. It walks Algorithm 1 — local steps, edge
//! aggregation every `τ`, middle tiers at their boundaries, the root every
//! `τ·π`, evaluation every `eval_every` — on a persistent worker pool, and
//! records a convergence curve. Who takes part is the [`Participants`]
//! source, the workers of a materialized hierarchy or cohorts sampled per
//! round from a virtual population; the event engine of `hieradmo-simrt`
//! holds the same source for its layout, streams, cohorts and churn
//! epochs.
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
use crate::elastic::Churn;
/// Samples per evaluation chunk, fixed for every thread count.
pub use crate::pool::EVAL_CHUNK;
use crate::pool::{Download, EdgeItem, ExecCtx, Pool, Segment};
use crate::population::{
    adversary_stream, batcher_seed, check_population_tree, cohort_dropout_mask, cohort_federation,
    draw_edge_cohort, virtual_global_params, CohortSampler, WorkerPopulation,
};
use crate::state::{FlState, TierState, WorkerState};
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
    /// Byzantine corruption tallies. Registered runs (hierarchies, trees
    /// and full-participation populations) index them by uid, one entry
    /// per registered worker — its flat position on a frozen tree;
    /// sampled populations by entry of
    /// [`RunConfig::adversary`](crate::RunConfig). Entries of honest workers
    /// stay all-zero.
    pub adversaries: Vec<AdversaryCounters>,
    /// Churn tallies from the elastic topology layer ([`crate::elastic`]).
    /// All-zero on frozen-tree runs.
    pub topology: TopologyCounters,
    /// The federation state at [`RunSpec::stop_at`], for a later run to
    /// resume from; `None` on runs without a `stop_at`.
    pub snapshot: Option<TrainingSnapshot>,
}

/// Who trains in a run: the topology input and its data.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// A three-tier [`Hierarchy`] with one dataset per worker in flat
    /// order. Under a non-empty [`RunConfig::churn`] plan the datasets
    /// register the whole uid space: the first `num_workers()` fill the
    /// initial tree, trailing ones belong to join candidates.
    Hierarchy {
        /// The initial tree.
        hierarchy: &'a Hierarchy,
        /// One dataset per registered worker.
        worker_data: &'a [Dataset],
    },
    /// An arbitrary-depth [`TierTree`] with one dataset per leaf worker.
    Tree {
        /// The tree; its `(τ, π)` must match the config's.
        tree: &'a TierTree,
        /// One dataset per leaf worker, in flat order.
        worker_data: &'a [Dataset],
    },
    /// A virtual population, optionally laid out on a tree whose leaf
    /// fanout is every edge's registered count; [`RunConfig::sampling`]
    /// picks full participation or per-round cohorts.
    Population {
        /// The registered workers.
        population: &'a WorkerPopulation,
        /// The distinct data shards the population maps onto.
        shards: &'a [Dataset],
        /// The tier tree, if deeper than three tiers.
        tree: Option<&'a TierTree>,
    },
}

/// Everything one [`run`] takes that [`RunConfig`] does not hold: who
/// trains, and the span. Build one with [`RunSpec::hierarchy`],
/// [`RunSpec::tree`] or [`RunSpec::population`]; a span is written
/// `RunSpec { stop_at: Some(t), ..RunSpec::hierarchy(&h, &data) }`.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Who trains.
    pub source: Source<'a>,
    /// Continue from this snapshot, captured by a `stop_at` run with the
    /// same source, strategy, model and config.
    pub resume: Option<&'a TrainingSnapshot>,
    /// Stop after this tick (a positive multiple of `τ` no larger than
    /// `T`, past the resumed tick) and return the state there in
    /// [`RunResult::snapshot`].
    pub stop_at: Option<usize>,
}

impl<'a> RunSpec<'a> {
    /// A whole run of `hierarchy`'s workers on `worker_data`.
    pub fn hierarchy(hierarchy: &'a Hierarchy, worker_data: &'a [Dataset]) -> Self {
        RunSpec::whole(Source::Hierarchy {
            hierarchy,
            worker_data,
        })
    }

    /// A whole run of `tree`'s leaf workers on `worker_data`.
    pub fn tree(tree: &'a TierTree, worker_data: &'a [Dataset]) -> Self {
        RunSpec::whole(Source::Tree { tree, worker_data })
    }

    /// A whole run of `population` on `shards`, over `tree` if given.
    pub fn population(
        population: &'a WorkerPopulation,
        shards: &'a [Dataset],
        tree: Option<&'a TierTree>,
    ) -> Self {
        RunSpec::whole(Source::Population {
            population,
            shards,
            tree,
        })
    }

    fn whole(source: Source<'a>) -> Self {
        RunSpec {
            source,
            resume: None,
            stop_at: None,
        }
    }
}

/// Runs `strategy` with the paper's training loop (Algorithm 1's
/// skeleton) over the participants `spec` names:
///
/// 1. every tick, each worker takes one local step on its own mini-batch;
/// 2. at `t = kτ`, every edge aggregates (edges run in parallel on the
///    pool);
/// 3. middle tiers of a deeper [`TierTree`] fire bottom-up at their
///    interval boundaries ([`aggregate_above_edges`]);
/// 4. at `t = pτπ`, the cloud aggregates;
/// 5. every `eval_every` ticks (and at `t = T`) the global model is
///    evaluated on the test set and a capped training probe.
///
/// The worker pool is created once and lives for the whole loop; see
/// [`RunConfig::threads`] for the parallelism knob and the determinism
/// guarantee. A depth-3 tree runs the identical code path as the
/// corresponding hierarchy, bitwise (`tests/tier_equivalence.rs`).
///
/// # Sources, churn and spans
///
/// - **Hierarchy, empty churn plan**: one dataset per worker. Any span.
/// - **Hierarchy, non-empty [`RunConfig::churn`]**: at every churn
///   boundary the loop moves its live state into the next topology
///   epoch's tree ([`crate::elastic`]) and re-derives the epoch's streams
///   as a resume there would; trailing datasets are join candidates. Any
///   span; a `stop_at` snapshot carries the topology version in force,
///   and a malformed one is [`RunError::Data`].
/// - **Tree**: like a hierarchy, plus `(τ, π)` must match the tree. Any
///   span. A non-empty churn plan is [`RunError::BadConfig`].
/// - **Population**: under full participation
///   ([`crate::ClientSampling::is_full`]) the population materializes and
///   runs as registered workers; otherwise every edge samples a cohort per
///   round (see [`crate::population`]). Any span, flat or over a tree. A
///   non-empty churn plan is [`RunError::BadConfig`].
///
/// A registered source (hierarchy or tree) with a sampling policy that is
/// not full is [`RunError::BadConfig`]: only a population can be sampled.
///
/// A `stop_at` run stops at that edge boundary and returns the state
/// there in [`RunResult::snapshot`]; a run with `resume` set to that
/// snapshot continues bitwise identically, so the two partial curves (and
/// traces) concatenate to the uninterrupted run's. A resumed registered
/// run replays the dropout and mini-batch draws of the trained prefix
/// without computing any step; sampled streams re-derive from
/// `(seed, worker, round)` and need no replay.
///
/// # Errors
///
/// [`RunError`] if the config, schedule, topology, data, span or snapshot
/// are inconsistent, or a churn event is invalid against the live
/// topology when it applies.
pub fn run<M, S>(
    strategy: &S,
    model: &M,
    spec: &RunSpec<'_>,
    test_data: &Dataset,
    cfg: &RunConfig,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let RunSpec {
        source,
        resume,
        stop_at,
    } = *spec;
    // What a tree or a full-participation population materializes.
    let (edge_hierarchy, materialized);
    let (participants, tiers) = match source {
        Source::Hierarchy {
            hierarchy,
            worker_data,
        } => {
            cfg.validate().map_err(RunError::BadConfig)?;
            let registered = Participants::registered(hierarchy, worker_data, cfg, resume)?;
            (registered, None)
        }
        Source::Tree { tree, worker_data } => {
            edge_hierarchy = tree.edge_hierarchy();
            let hierarchy = &edge_hierarchy;
            let registered = Participants::Registered {
                hierarchy,
                worker_data,
                churn: None,
            };
            (registered, Some(tree))
        }
        Source::Population {
            population,
            shards,
            tree,
        } => {
            population.validate_shards(shards).map_err(RunError::Data)?;
            check_population_tree(population, tree)?;
            if cfg.sampling.is_full() {
                let hierarchy = population.materialize_hierarchy().map_err(RunError::Data)?;
                materialized = (hierarchy, population.materialize_shards(shards));
                let registered = Participants::Registered {
                    hierarchy: &materialized.0,
                    worker_data: &materialized.1,
                    churn: None,
                };
                (registered, tree)
            } else {
                (Participants::sampled(population, shards, cfg, tree), tree)
            }
        }
    };
    // A hierarchy's config is validated above, before its churn starts.
    if !matches!(source, Source::Hierarchy { .. }) {
        cfg.validate().map_err(RunError::BadConfig)?;
    }
    run_span(
        strategy,
        model,
        participants,
        test_data,
        cfg,
        tiers,
        resume,
        stop_at,
    )
}

/// A one-line call of [`run`] with [`RunSpec::tree`], kept because the
/// repository benchmark calls it.
///
/// # Errors
///
/// Everything [`run`] rejects.
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
    run(
        strategy,
        model,
        &RunSpec::tree(tree, worker_data),
        test_data,
        cfg,
    )
}

/// Who takes part in a run, for both engines: the one thing that differs
/// between a materialized run and a sampled one. It lays out the
/// federation ([`Participants::layout`]), owns a churn run's topology
/// ([`Participants::cross`]), derives every slot's training streams at
/// any tick ([`Participants::streams`]) and a sampled edge's at each
/// round start ([`Participants::draw_cohort`]); the tick loop and
/// `hieradmo-simrt`'s event engine hold one each and keep only their own
/// scheduling beside it.
pub enum Participants<'a> {
    /// Full participation: every hierarchy worker steps every tick and
    /// keeps its state and streams for the whole topology epoch — a
    /// batcher seeded `seed + i`, the run-wide dropout RNG drawn tick by
    /// tick in flat order, and a persistent adversary sampler per
    /// Byzantine worker, tallied per uid. A resumed span, and every epoch
    /// after a churn boundary, replays these streams over the trained
    /// prefix.
    Registered {
        /// The (initial) tree.
        hierarchy: &'a Hierarchy,
        /// One dataset per registered uid.
        worker_data: &'a [Dataset],
        /// The topology under a non-empty churn plan; `None` on a frozen
        /// tree, whose uids are its flat positions.
        churn: Option<Churn>,
    },
    /// Per-round client sampling over a virtual population: each round,
    /// every edge draws a cohort for its slots
    /// ([`Participants::draw_cohort`]), each slot materializes from its
    /// edge's download pair on the lane that first steps it, and every
    /// batch, dropout and adversary stream re-derives from `(seed, worker,
    /// round)`, tallied per adversary plan entry. The slots are
    /// round-scoped ([`FlState::with_round_scoped_slots`]). Nothing needs
    /// replaying on resume.
    Sampled {
        /// The registered workers.
        population: &'a WorkerPopulation,
        /// The distinct data shards the population maps onto.
        shards: &'a [Dataset],
        /// Sample count of each shard.
        shard_sizes: Vec<u64>,
        /// The per-edge, per-round cohort draw.
        sampler: CohortSampler,
    },
}

/// A Byzantine slot's attack, adversary stream and tally index.
pub type Adversary = (AttackModel, AdversarySampler, usize);

/// A slot's step stream: the dataset it trains on (an index into the
/// layout's datasets) and its private batcher, plus the download a
/// sampled slot materializes from before its first step of the round.
pub struct StepCtx {
    /// Index of the slot's dataset in [`Layout::data`]: a registered
    /// slot's uid, a sampled slot's shard.
    pub data: usize,
    /// The slot's mini-batch stream.
    pub batcher: Batcher,
    /// The download a sampled slot materializes from; `None` once it has.
    pub download: Option<Arc<Download>>,
}

/// The federation a run lays out, from [`Participants::layout`].
pub struct Layout<'a> {
    /// The tree the federation state is built on (a sampled run's cohort
    /// slots).
    pub hierarchy: Hierarchy,
    /// Its data weights.
    pub weights: Weights,
    /// The tier tree to attach; a sampled run gets its cohort sub-tree.
    pub tree: Option<TierTree>,
    /// The datasets step contexts index into.
    pub data: &'a [Dataset],
    /// Number of adversary tallies in the tick loop's result.
    pub tallies: usize,
}

/// The per-slot streams of one topology epoch, positioned at a tick by
/// [`Participants::streams`]; sampled slots get theirs at each round start
/// from [`Participants::draw_cohort`].
pub struct Streams {
    /// Per-slot step contexts.
    pub ctxs: Vec<Option<StepCtx>>,
    /// Per-slot adversaries.
    pub adversaries: Vec<Option<Adversary>>,
    /// Per-slot dropout masks of sampled slots, one flag per step of the
    /// round, `true` where the step is dropped; empty for registered
    /// slots, which draw from `dropout` instead.
    pub masks: Vec<Vec<bool>>,
    /// The run-wide dropout RNG of registered workers, positioned after
    /// the decisions of every tick before the streams' tick.
    pub dropout: StdRng,
}

impl Streams {
    /// The ticks in `(from, to]` at which sampled slot `slot` steps in the
    /// round that starts after tick `round_start`: those its mask keeps.
    pub fn kept_ticks(
        &self,
        slot: usize,
        round_start: usize,
        from: usize,
        to: usize,
    ) -> Vec<usize> {
        let dropped = &self.masks[slot];
        (from + 1..=to)
            .filter(|t| !dropped[t - round_start - 1])
            .collect()
    }
}

impl<'a> Participants<'a> {
    /// `hierarchy`'s workers on `worker_data`, under `cfg`'s churn plan
    /// when it is non-empty ([`Churn::start`]; a resumed run takes its
    /// topology from `resume`).
    ///
    /// # Errors
    ///
    /// Everything [`Churn::start`] rejects.
    pub fn registered(
        hierarchy: &'a Hierarchy,
        worker_data: &'a [Dataset],
        cfg: &RunConfig,
        resume: Option<&TrainingSnapshot>,
    ) -> Result<Self, RunError> {
        Ok(Participants::Registered {
            hierarchy,
            worker_data,
            churn: Churn::start(hierarchy, worker_data, cfg, resume)?,
        })
    }

    /// Cohorts sampled from `population` on `shards`, over `tree` if
    /// given.
    pub fn sampled(
        population: &'a WorkerPopulation,
        shards: &'a [Dataset],
        cfg: &RunConfig,
        tree: Option<&TierTree>,
    ) -> Self {
        Participants::Sampled {
            population,
            shards,
            shard_sizes: shards.iter().map(|d| d.len() as u64).collect(),
            sampler: tree.map_or_else(
                || CohortSampler::new(cfg.seed),
                |tree| CohortSampler::for_tree(cfg.seed, tree),
            ),
        }
    }

    /// Checks the participants against `cfg` and `strategy` and lays out
    /// the federation a run of them trains, with `tiers` attached:
    /// registered workers refuse a sampling policy, then data that does
    /// not register the tree; sampled ones build their cohort federation
    /// ([`cohort_federation`]). Last, `strategy` checks the tree.
    ///
    /// # Errors
    ///
    /// [`RunError::BadConfig`], [`RunError::Data`] or
    /// [`RunError::Topology`] naming the first failed check.
    pub fn layout<S: Strategy + ?Sized>(
        &self,
        strategy: &S,
        cfg: &RunConfig,
        tiers: Option<&TierTree>,
    ) -> Result<Layout<'a>, RunError> {
        let layout = match *self {
            Participants::Registered {
                hierarchy,
                worker_data,
                ref churn,
            } => {
                check_registered_sampling(cfg)?;
                let (hierarchy, weights) = match churn {
                    Some(churn) => churn.tree(),
                    None => {
                        check_worker_data(hierarchy, worker_data)?;
                        let samples: Vec<u64> =
                            worker_data.iter().map(|d| d.len() as u64).collect();
                        let weights = Weights::from_samples(hierarchy, &samples);
                        (hierarchy.clone(), weights)
                    }
                };
                Layout {
                    weights,
                    hierarchy,
                    tree: tiers.cloned(),
                    data: worker_data,
                    tallies: worker_data.len(),
                }
            }
            Participants::Sampled {
                population,
                shards,
                ref shard_sizes,
                ..
            } => {
                let (hierarchy, weights, tree) =
                    cohort_federation(strategy, population, shard_sizes, cfg, tiers)?;
                Layout {
                    weights,
                    hierarchy,
                    tree,
                    data: shards,
                    tallies: cfg.adversary.byzantine.len(),
                }
            }
        };
        strategy
            .check_topology(&layout.hierarchy)
            .map_err(RunError::Topology)?;
        Ok(layout)
    }

    /// The tick loop's check that the adversary plan names registered
    /// workers only.
    fn check_adversaries(&self, cfg: &RunConfig) -> Result<(), RunError> {
        let registered = match self {
            Participants::Registered {
                churn: Some(churn), ..
            } => churn.version().registered() as u64,
            Participants::Registered { hierarchy, .. } => hierarchy.num_workers() as u64,
            Participants::Sampled { population, .. } => population.total_workers(),
        };
        match cfg
            .adversary
            .byzantine
            .iter()
            .find(|b| b.worker as u64 >= registered)
        {
            Some(b) => Err(RunError::BadConfig(format!(
                "adversary plan marks worker {} Byzantine, but the run registers only \
                 {registered} workers",
                b.worker
            ))),
            None => Ok(()),
        }
    }

    /// The uid at each flat position of a registered run's current tree.
    pub fn uids(&self, slots: usize) -> Vec<usize> {
        match self {
            Participants::Registered {
                churn: Some(churn), ..
            } => churn.uids(),
            _ => (0..slots).collect(),
        }
    }

    /// The streams of the federation `state` positioned at tick `t`: the
    /// draws an uninterrupted run would have made by then — every dropout
    /// decision, one mini-batch per active step, one upload per Byzantine
    /// worker — replayed without computing any step. Registered slot `i`
    /// trains on its uid's dataset with a batcher seeded `seed + i`, and a
    /// Byzantine uid owns a salted adversary stream keyed by `i` and
    /// derived from the *training* seed, so the same poisoned trajectory
    /// replays under any network seed, thread count and engine. Sampled
    /// slots hold no streams before their first round, so they replay
    /// nothing.
    pub fn streams(&self, cfg: &RunConfig, state: &FlState, t: usize) -> Streams {
        let slots = state.workers.len();
        let mut streams = Streams {
            ctxs: (0..slots).map(|_| None).collect(),
            adversaries: (0..slots).map(|_| None).collect(),
            masks: vec![Vec::new(); slots],
            dropout: StdRng::seed_from_u64(cfg.seed ^ 0x5f5f_5f5f_5f5f_5f5f),
        };
        let Participants::Registered { worker_data, .. } = self else {
            return streams;
        };
        for (i, uid) in self.uids(slots).into_iter().enumerate() {
            let seed = cfg.seed.wrapping_add(i as u64);
            streams.ctxs[i] = Some(StepCtx {
                data: uid,
                batcher: Batcher::new(worker_data[uid].len(), cfg.batch_size, seed),
                download: None,
            });
            streams.adversaries[i] = cfg.adversary.attack_for(uid).map(|attack| {
                let sampler = AdversarySampler::from_stream(cfg.seed, i as u64);
                (attack, sampler, uid)
            });
        }
        let mut batch = Vec::new();
        for k in 1..=t / cfg.tau {
            let (from, to) = ((k - 1) * cfg.tau, k * cfg.tau);
            let ticks = self.step_ticks(k, from, to, cfg, &mut streams);
            for (ctx, ticks) in streams.ctxs.iter_mut().flatten().zip(ticks) {
                for _ in ticks {
                    ctx.batcher.next_batch_into(&mut batch);
                }
            }
            for (attack, sampler, _) in streams.adversaries.iter_mut().flatten() {
                replay_upload(state.dim(), attack, sampler);
            }
        }
        streams
    }

    /// The capped training probe of the current tree's workers.
    pub fn train_probe(&self, cfg: &RunConfig, slots: usize) -> Dataset {
        match self {
            Participants::Registered { worker_data, .. } => {
                let members = self.uids(slots).into_iter().map(|u| &worker_data[u]);
                build_train_probe(members, cfg.train_eval_cap)
            }
            Participants::Sampled { shards, .. } => build_train_probe(*shards, cfg.train_eval_cap),
        }
    }

    /// The churn plan's boundary step after tick `t`, if one falls there:
    /// transforms `state` into the next topology epoch (see
    /// [`Churn::cross`]) and returns `true`.
    ///
    /// # Errors
    ///
    /// Everything [`Churn::cross`] rejects.
    pub fn cross<S: Strategy + ?Sized>(
        &mut self,
        t: usize,
        state: &mut FlState,
        strategy: &S,
    ) -> Result<bool, RunError> {
        match self {
            Participants::Registered {
                churn: Some(churn), ..
            } if churn.is_boundary(t) => churn.cross(t, state, strategy).map(|()| true),
            _ => Ok(false),
        }
    }

    /// The churn state, on a churn run.
    pub fn churn(&self) -> Option<&Churn> {
        match self {
            Participants::Registered { churn, .. } => churn.as_ref(),
            Participants::Sampled { .. } => None,
        }
    }

    /// Round `round`'s start at sampled edge `edge`: draws the edge's
    /// cohort ([`draw_edge_cohort`], which also rewrites the in-edge data
    /// weights), snapshots its download pair once, and writes each of the
    /// edge's slots into `streams`: the step context of its new occupant
    /// (its shard, a batcher seeded `batcher_seed(seed, g, round)`, the
    /// download its first step materializes from), its dropout mask and
    /// its adversary. Returns the occupants' global ids in slot order.
    /// Registered workers carry straight on: nothing is drawn.
    pub fn draw_cohort(
        &self,
        cfg: &RunConfig,
        state: &mut FlState,
        edge: usize,
        round: usize,
        streams: &mut Streams,
    ) -> Vec<u64> {
        let Participants::Sampled {
            population,
            shard_sizes,
            sampler,
            ..
        } = self
        else {
            return Vec::new();
        };
        let ids = draw_edge_cohort(state, population, shard_sizes, sampler, edge, round);
        let download = Download::of(state, edge);
        let k = round as u64;
        for (slot, &g) in state.hierarchy.edge_workers(edge).zip(&ids) {
            let shard = population.shard_of(g);
            let seed = batcher_seed(cfg.seed, g, k);
            streams.ctxs[slot] = Some(StepCtx {
                data: shard,
                batcher: Batcher::new(shard_sizes[shard] as usize, cfg.batch_size, seed),
                download: Some(Arc::clone(&download)),
            });
            streams.masks[slot] = cohort_dropout_mask(cfg.seed, g, k, cfg.tau, cfg.dropout);
            let plan = &cfg.adversary.byzantine;
            streams.adversaries[slot] =
                plan.iter().position(|b| b.worker as u64 == g).map(|entry| {
                    let sampler = AdversarySampler::from_stream(cfg.seed, adversary_stream(g, k));
                    (plan[entry].attack, sampler, entry)
                });
        }
        ids
    }

    /// The ticks in `(from, to]` of round `k` at which each slot steps, in
    /// flat order. Registered workers draw one dropout decision per tick
    /// from the run-wide RNG in `streams`, tick-major in flat order on the
    /// driver thread (no draw at all when `dropout` is zero); sampled slots
    /// read their round's mask ([`Streams::kept_ticks`]). A dropped step
    /// is skipped entirely: no mini-batch draw, no local step.
    fn step_ticks(
        &self,
        k: usize,
        from: usize,
        to: usize,
        cfg: &RunConfig,
        streams: &mut Streams,
    ) -> Vec<Vec<usize>> {
        let slots = streams.ctxs.len();
        match self {
            Participants::Registered { .. } => {
                let rng = &mut streams.dropout;
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
            Participants::Sampled { .. } => (0..slots)
                .map(|slot| streams.kept_ticks(slot, (k - 1) * cfg.tau, from, to))
                .collect(),
        }
    }

    /// Whether the loop evaluates after tick `t`: every `eval_every` ticks
    /// and at the end, except that sampled runs evaluate at round
    /// boundaries only (mid-round, their global model is undefined).
    fn evaluates_at(&self, t: usize, cfg: &RunConfig) -> bool {
        let on_grid = t.is_multiple_of(cfg.eval_every) || t == cfg.total_iters;
        on_grid && (matches!(self, Participants::Registered { .. }) || t.is_multiple_of(cfg.tau))
    }

    /// The global model a run evaluates and returns: the strategy's own,
    /// or the population-weighted edge average of a sampled run.
    pub fn global_params<S: Strategy + ?Sized>(&self, strategy: &S, state: &FlState) -> Vector {
        match self {
            Participants::Registered { .. } => strategy.global_params(state),
            Participants::Sampled { .. } => virtual_global_params(state),
        }
    }
}

/// The state both engines start a run from: `x0` in every tier, the
/// run's aggregator, `tree` attached, then `strategy.init`. Sampled
/// cohorts get round-scoped slots that start zero-dimensional
/// ([`FlState::with_round_scoped_slots`]); every other slot starts at `x0`.
pub fn initial_state<S: Strategy + ?Sized>(
    strategy: &S,
    x0: &Vector,
    hierarchy: Hierarchy,
    weights: Weights,
    tree: Option<&TierTree>,
    cfg: &RunConfig,
    round_scoped: bool,
) -> FlState {
    let mut state = if round_scoped {
        FlState::with_round_scoped_slots(hierarchy, weights, x0)
    } else {
        FlState::new(hierarchy, weights, x0)
    };
    state.aggregator = cfg.aggregator;
    if let Some(tree) = tree {
        state.attach_tree(tree.clone());
    }
    strategy.init(&mut state);
    state
}

/// Both engines' check that `tree`, if any, runs on `cfg`'s `(τ, π)`.
///
/// # Errors
///
/// [`RunError::BadConfig`] naming both schedules.
pub fn check_tree_schedule(cfg: &RunConfig, tree: Option<&TierTree>) -> Result<(), RunError> {
    match tree {
        Some(tree) if cfg.tau != tree.tau() || cfg.pi != tree.pi_total() => {
            Err(RunError::BadConfig(format!(
                "config (tau = {}, pi = {}) disagrees with the tier tree \
                 (tau = {}, pi_total = {})",
                cfg.tau,
                cfg.pi,
                tree.tau(),
                tree.pi_total()
            )))
        }
        _ => Ok(()),
    }
}

/// The registered source's check that it is not asked to sample: only a
/// population draws cohorts, so a sampling policy that is not full would
/// otherwise be silently ignored.
fn check_registered_sampling(cfg: &RunConfig) -> Result<(), RunError> {
    if cfg.sampling.is_full() {
        Ok(())
    } else {
        Err(RunError::BadConfig(format!(
            "client sampling ({:?}) needs a population source; registered \
             workers all train every round",
            cfg.sampling
        )))
    }
}

/// The registered source's check of one non-empty dataset per worker of
/// a frozen tree.
fn check_worker_data(hierarchy: &Hierarchy, worker_data: &[Dataset]) -> Result<(), RunError> {
    if worker_data.len() != hierarchy.num_workers() {
        return Err(RunError::Data(format!(
            "{} worker datasets for {} workers",
            worker_data.len(),
            hierarchy.num_workers()
        )));
    }
    match worker_data.iter().position(Dataset::is_empty) {
        Some(i) => Err(RunError::Data(format!("worker {i} has no data"))),
        None => Ok(()),
    }
}

/// The one tick loop behind [`run`]: every source, with a churn run's
/// boundaries as a step of the loop, on a config [`run`] has validated.
/// Optionally lays the run over
/// a [`TierTree`] (`tiers`), starts from a mid-run snapshot (`resume`),
/// and stops at an edge boundary (`stop_at`, which also makes it return
/// the state there in [`RunResult::snapshot`]).
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
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    if !cfg.churn.is_empty() && participants.churn().is_none() {
        return Err(RunError::BadConfig(
            "a ChurnPlan applies to a Hierarchy source only; tier trees and \
             populations run on a frozen tree"
                .into(),
        ));
    }
    check_tree_schedule(cfg, tiers)?;
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
    participants.check_adversaries(cfg)?;
    let Layout {
        hierarchy,
        weights,
        tree,
        data,
        tallies,
    } = participants.layout(strategy, cfg, tiers)?;

    let started = Instant::now();
    let x0 = model.params();
    let sampled = matches!(participants, Participants::Sampled { .. });
    let mut state = initial_state(
        strategy,
        &x0,
        hierarchy,
        weights,
        tree.as_ref(),
        cfg,
        sampled,
    );
    let start = match resume {
        None => 0,
        Some(snap) => {
            restore(&mut state, snap, strategy.name(), cfg)?;
            snap.tick
        }
    };

    let mut slots = state.workers.len();
    let mut streams = participants.streams(cfg, &state, start);
    // Edge jobs read the data weights by shared reference while the loop
    // holds `&mut state`; sampled rounds and churn boundaries refresh this
    // copy.
    let mut edge_weights = Arc::new(state.weights.clone());

    let mut curve = ConvergenceCurve::new();
    let mut gamma_trace = Vec::new();
    let mut cos_trace = Vec::new();
    let mut tier_gamma: Vec<Vec<(usize, f32)>> = vec![Vec::new(); state.middle.len()];
    // Every edge's staleness at the root: this loop is synchronous.
    let mut in_sync = vec![0; state.edges.len()];
    let mut timings = PhaseTimings::default();
    let mut adversary_counters = vec![AdversaryCounters::default(); tallies];

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
    };

    std::thread::scope(|scope| -> Result<(), RunError> {
        let probe = participants.train_probe(cfg, slots);
        let mut pool = Pool::new(scope, ctx, model, slots, probe);

        let mut from = start;
        for to in stops {
            let k = to.div_ceil(cfg.tau);
            let t0 = Instant::now();
            if sampled && from.is_multiple_of(cfg.tau) {
                for e in 0..state.hierarchy.num_edges() {
                    participants.draw_cohort(cfg, &mut state, e, k, &mut streams);
                }
                edge_weights = Arc::new(state.weights.clone());
            }
            let ticks = participants.step_ticks(k, from, to, cfg, &mut streams);
            local_steps(&mut pool, &mut state, &mut streams.ctxs, ticks);
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
                for (worker, adversary) in state.workers.iter_mut().zip(&mut streams.adversaries) {
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
                aggregate_above_edges(strategy, &mut state, k, cfg.pi, &in_sync, &mut tier_gamma);
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

            // A churn boundary opens the next topology epoch, whose
            // streams, probe and weights re-derive as a resume at `to`
            // would. The one at `end` applies after the loop.
            if to < end && participants.cross(to, &mut state, strategy)? {
                slots = state.workers.len();
                streams = participants.streams(cfg, &state, to);
                pool.set_train_probe(participants.train_probe(cfg, slots));
                edge_weights = Arc::new(state.weights.clone());
                in_sync = vec![0; state.edges.len()];
            }
        }
        Ok(())
    })?;

    let final_params = participants.global_params(strategy, &state);
    // A stop exactly at a churn boundary captures the post-transform tree,
    // so the resume never re-applies it.
    participants.cross(end, &mut state, strategy)?;
    let snapshot = stop_at.map(|stop| TrainingSnapshot {
        algorithm: strategy.name().to_string(),
        tick: stop,
        workers: state.workers.clone(),
        edges: state.edges.clone(),
        cloud: state.cloud.clone(),
        middle: state.middle.clone(),
        topology: participants.churn().map(|c| c.version().clone()),
    });
    Ok(RunResult {
        algorithm: strategy.name().to_string(),
        curve,
        gamma_trace,
        cos_trace,
        tier_gamma,
        final_params,
        elapsed: started.elapsed(),
        timings,
        adversaries: adversary_counters,
        topology: participants
            .churn()
            .map(Churn::counters)
            .unwrap_or_default(),
        snapshot,
    })
}

/// Checks `snap` against the freshly initialized `state` — algorithm,
/// tick, tier shapes and the length of every state vector — and restores
/// every tier from it. A worker's `x`, `y`, `v` and declared interval
/// sums ([`FlState::interval_sums`]) must have the model's width; its
/// undeclared sums and its scratch are dropped, and each may arrive
/// empty or at the model's width (a snapshot written before the
/// declaration held all three sums and a gradient buffer). All algorithm
/// state lives in the tier vectors, so restoring them overwrites
/// everything `init` set up. A malformed snapshot is a typed error, never
/// a panic mid-run; non-finite values pass, since a diverged run
/// legitimately snapshots them.
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
    let sums = state.interval_sums();
    let declared = [true, true, true, sums.grad, sums.y, sums.v, false];
    let workers = snap.workers.iter().flat_map(|w| {
        let [grad, y, v] = [&w.grad_accum, &w.y_accum, &w.v_accum];
        [&w.x, &w.y, &w.v, grad, y, v, &w.scratch]
            .into_iter()
            .zip(declared)
    });
    let tiers = snap
        .edges
        .iter()
        .chain([&snap.cloud])
        .chain(snap.middle.iter().flatten());
    let tiers =
        tiers.flat_map(|s| [&s.x_plus, &s.y_plus, &s.y_minus, &s.v, &s.x_prev].map(|v| (v, true)));
    // An undeclared vector is dropped, so it may also arrive empty.
    let misfit = |&(v, declared): &(&Vector, bool)| v.len() != dim && (declared || !v.is_empty());
    if let Some((v, _)) = workers.chain(tiers).find(misfit) {
        return Err(RunError::Data(format!(
            "snapshot holds a state vector of length {} for model dimension {dim}",
            v.len()
        )));
    }
    state.workers = snap.workers.clone();
    for w in &mut state.workers {
        w.lay_out(sums);
        w.scratch = Vector::default();
    }
    state.edges = snap.edges.clone();
    state.cloud = snap.cloud.clone();
    state.middle = snap.middle.clone();
    Ok(())
}

/// Runs one interval of local steps on the pool: every worker with ticks
/// to step, or a download to materialize, is checked out as a [`Segment`]
/// with its step stream, and put back by index.
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
        let pending = ctxs[idx].as_ref().is_some_and(|c| c.download.is_some());
        if ticks.is_empty() && !pending {
            continue;
        }
        let StepCtx {
            data,
            batcher,
            download,
        } = ctxs[idx].take().expect("step context double checkout");
        idxs.push(idx);
        segments.push(Segment {
            ticks,
            worker: mem::take(&mut state.workers[idx]),
            download,
            data,
            batcher,
        });
    }
    for (idx, seg) in idxs.into_iter().zip(pool.run_segments(segments)) {
        state.workers[idx] = seg.worker;
        ctxs[idx] = Some(StepCtx {
            data: seg.data,
            batcher: seg.batcher,
            download: None,
        });
    }
}

/// Fires, for both engines, the tiers above the edges that edge round `k`
/// closes through [`Strategy::tier_aggregate_stale`]: the middle tiers of
/// the tree attached to `state` bottom-up at their periods, each
/// appending `(round, mean γ)` to its `tier_gamma` row, then the root
/// every `pi` rounds. `staleness` holds one age per edge (all zero when
/// synchronous); a middle node gets its subtree's span. It draws no RNG,
/// and identity tiers neither fire nor record, so a pass-through tree is
/// bit-identical to its collapse.
pub fn aggregate_above_edges<S: Strategy + ?Sized>(
    strategy: &S,
    state: &mut FlState,
    k: usize,
    pi: usize,
    staleness: &[usize],
    tier_gamma: &mut [Vec<(usize, f32)>],
) {
    // `(depth, period, span, nodes)` of each middle tier that fires, read
    // before the hooks borrow the state the tree is attached to.
    let mut firing = Vec::new();
    if let Some(tree) = &state.tree {
        for d in tree.middle_depths().rev() {
            let period = tree.sync_rounds(d);
            let identity = tree.levels()[d].aggregation == TierAggregation::Identity;
            if !identity && k.is_multiple_of(period) {
                firing.push((d, period, tree.edges_per_node(d), tree.nodes_at(d)));
            }
        }
    }
    for (d, period, span, nodes) in firing {
        for node in 0..nodes {
            let scope = TierScope::Middle {
                depth: d,
                node,
                state: &mut *state,
            };
            let ages = &staleness[node * span..(node + 1) * span];
            strategy.tier_aggregate_stale(scope, k / period, ages);
        }
        let tier = &state.middle[d - 1];
        let mean = tier.iter().map(|s| s.gamma_edge).sum::<f32>() / tier.len() as f32;
        tier_gamma[d - 1].push((k / period, mean));
    }
    if k.is_multiple_of(pi) {
        strategy.tier_aggregate_stale(TierScope::Root(state), k / pi, staleness);
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
            state: mem::replace(&mut state.edges[edge], TierState::placeholder()),
        });
    }
    items.reverse();

    // `workers` is empty after the split-offs; refill it edge-major.
    let round_scoped = state.round_scoped();
    for item in pool.aggregate_edges(k, weights, round_scoped, items) {
        state.edges[item.edge] = item.state;
        workers.extend(item.workers);
    }
    state.workers = workers;
}

/// A fixed, affordable probe of training data for the train-loss metric:
/// round-robin over the worker shards up to `cap` samples total (always at
/// least one sample).
///
/// [`Participants::train_probe`] builds every run's probe with it; it is
/// public for callers that build a [`Pool`] of their own.
pub fn build_train_probe<'d>(
    worker_data: impl IntoIterator<Item = &'d Dataset>,
    cap: usize,
) -> Dataset {
    let worker_data: Vec<&Dataset> = worker_data.into_iter().collect();
    let total: usize = worker_data.iter().map(|d| d.len()).sum();
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
        let res = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap();
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
        let serial = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap();
        let par_cfg = RunConfig {
            threads: None,
            ..cfg()
        };
        let parallel = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &par_cfg,
        )
        .unwrap();
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
        let base = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let t_cfg = RunConfig {
                threads: Some(threads),
                ..cfg()
            };
            let res = run(
                &algo,
                &model,
                &RunSpec::hierarchy(&h, &shards),
                &test,
                &t_cfg,
            )
            .unwrap();
            assert_eq!(base.curve, res.curve, "threads = {threads}");
            assert_eq!(base.final_params, res.final_params, "threads = {threads}");
        }
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let a = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap();
        let b = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap();
        assert_eq!(a.curve, b.curve);
        let other_seed = RunConfig { seed: 99, ..cfg() };
        let c = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &other_seed,
        )
        .unwrap();
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
        let res = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap();
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
        let err = run(
            &algo,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Topology(_)));
        // Wrong shard count.
        let algo3 = HierAdMo::adaptive(0.05, 0.5);
        let err = run(
            &algo3,
            &model,
            &RunSpec::hierarchy(&h, &shards[..3]),
            &test,
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Data(_)));
        // Bad config.
        let bad = RunConfig {
            total_iters: 101,
            ..cfg()
        };
        let err = run(
            &algo3,
            &model,
            &RunSpec::hierarchy(&h, &shards),
            &test,
            &bad,
        )
        .unwrap_err();
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
