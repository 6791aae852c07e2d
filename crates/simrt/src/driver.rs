//! The co-simulation engine: the real training functions under a virtual
//! clock, behind every `simrt` entry point.
//!
//! # One engine, two participant sources
//!
//! [`simulate`], every topology epoch of [`crate::simulate_elastic`] and
//! [`crate::simulate_virtual`] run through one event engine. Who takes
//! part in a round is its private participant source:
//!
//! - **Registered** — persistent worker actors, each with a batcher
//!   seeded `seed + i`, the pre-drawn dropout table, crash/recover/die
//!   events and rejoin snapshots, stepping one `Step` event at a time. A
//!   straggler carries over into the next round.
//! - **Sampled** — per-round cohort slots filled at round start by
//!   [`materialize_edge_cohort`], with streams re-derived from
//!   `(seed, worker, round)`; absence is decided when a slot is filled, and
//!   every live slot's τ-step segment is computed right then, in parallel
//!   on the pool, so `Step` events only advance the clock. A straggler is
//!   waived at the end of its round (see [`crate::vpop`]).
//!
//! The engine consults the source only at round start and step
//! scheduling, the upload's mailbox write, the continuation after an edge
//! fires, a late cloud submission, the barriers' per-child waivers,
//! evaluation staging and the result's actor tallies. The event loop, the
//! three edge barriers, the cloud actor with its middle tiers, γ staging,
//! link transfers and result assembly exist once.
//!
//! # How the trajectory stays bitwise-faithful
//!
//! The engine keeps the canonical [`FlState`] as the *server-side mailbox*:
//! registered worker actors own private training state (a private batch
//! stream seeded exactly like the core driver's, and their
//! [`WorkerState`]); an upload copies the actor's state into its `FlState`
//! slot; aggregation hooks run against `FlState` through the same
//! `EdgeView` the core driver uses; and a download ships the post-hook slot
//! back to the actor. Under [`SyncPolicy::FullSync`] the mailbox therefore
//! undergoes *exactly* the mutation sequence of [`hieradmo_core::run`] —
//! same gradient path (batch draw, clipping, `local_step`), same
//! aggregation order, same fixed-chunk ordered evaluation reduction — so
//! the final model, convergence curve and γℓ diagnostics are bitwise
//! identical; only the time axis is new. Sampled slots compute their
//! segments on their mailbox slots, as the core driver's sampled rounds
//! do; a relaxed firing that catches a slot mid-segment rewinds it to the
//! steps it has taken (see `Engine::rewind_stragglers`).
//!
//! # Determinism
//!
//! Events are processed in `(time, actor, seq)` order from a single queue
//! ([`crate::EventQueue`]); every actor draws its delays from a private
//! decorrelated RNG stream ([`hieradmo_netsim::stream_seed`]), so an
//! actor's delay sequence depends only on its own draw count, never on
//! global interleaving. Local steps and evaluation run on
//! [`hieradmo_core::pool::Pool`], which returns segments in input order
//! and reduces evaluation partial sums in a fixed order — results are
//! identical for any `RunConfig::threads`.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::mem;

use hieradmo_core::byzantine::{corrupt_upload, replay_upload};
use hieradmo_core::driver::build_train_probe;
use hieradmo_core::pool::{ExecCtx, Pool, Segment};
use hieradmo_core::population::{
    adversary_stream, batcher_seed, cohort_dropout_mask, delay_stream, fault_stream,
    materialize_edge_cohort, virtual_global_params, weighted_edge_average, CohortSampler,
    StatePool, WorkerPopulation,
};
use hieradmo_core::{
    FlState, RunConfig, RunError, Strategy, TierScope, TrainingSnapshot, WorkerState,
};
use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{
    ActorAdversaries, ActorFaults, ActorUtilization, AdversaryCounters, ConvergenceCurve,
    EvalPoint, FaultCounters, TimedCurve, TimedPoint, TopologyCounters,
};
use hieradmo_models::{Evaluation, Model};
use hieradmo_netsim::{
    AdversarySampler, Architecture, AttackModel, DelaySampler, FaultSampler, LinkFaults,
};
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, Schedule, TierAggregation, TierTree, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{ActorId, EventQueue};
use crate::policy::{SimConfig, SyncPolicy};

/// Errors a co-simulation can fail with before any events are processed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The training inputs are inconsistent (same checks as the core
    /// driver).
    Run(RunError),
    /// The network environment does not match the topology.
    Net(String),
    /// The synchronization policy's parameters are invalid.
    Policy(String),
    /// The fault plan's parameters are invalid or reference unknown
    /// actors.
    Fault(String),
    /// The adversary plan references workers outside the topology (its
    /// parameter validity is checked by [`RunConfig::validate`]).
    Adversary(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Run(e) => write!(f, "{e}"),
            SimError::Net(m) => write!(f, "network mismatch: {m}"),
            SimError::Policy(m) => write!(f, "invalid sync policy: {m}"),
            SimError::Fault(m) => write!(f, "invalid fault plan: {m}"),
            SimError::Adversary(m) => write!(f, "invalid adversary plan: {m}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for SimError {
    fn from(e: RunError) -> Self {
        SimError::Run(e)
    }
}

/// The outcome of one co-simulated training run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Algorithm name (Table II row label).
    pub algorithm: String,
    /// Label of the [`SyncPolicy`] the run used.
    pub policy: String,
    /// Accuracy/loss trajectory, indexed by training progress. Under
    /// [`SyncPolicy::FullSync`] this is bitwise identical to
    /// [`hieradmo_core::RunResult::curve`]; under relaxed policies one
    /// point is recorded per cloud aggregation, indexed by committed local
    /// steps.
    pub curve: ConvergenceCurve,
    /// The same trajectory against *simulated seconds* — the honest
    /// time-to-accuracy axis of the paper's Fig. 2(h)/(l).
    pub timed_curve: TimedCurve,
    /// `(k, γℓ)` diagnostics. Under full sync: `(round, mean over edges)`,
    /// identical to the core driver's; under relaxed policies one entry per
    /// edge firing (in firing order).
    pub gamma_trace: Vec<(usize, f32)>,
    /// `(k, cos θ)` diagnostics, same convention as
    /// [`SimResult::gamma_trace`].
    pub cos_trace: Vec<(usize, f32)>,
    /// Per-middle-tier γ diagnostics on N-tier runs, one trace per middle
    /// depth in `TierTree::middle_depths` order — the event-driven
    /// counterpart of `hieradmo_core::RunResult::tier_gamma`. Empty on
    /// three-tier runs; an identity (pass-through) tier's trace stays
    /// empty, since that tier never aggregates.
    pub tier_gamma: Vec<Vec<(usize, f32)>>,
    /// Final global model parameters.
    pub final_params: Vector,
    /// Virtual duration of the whole run.
    pub simulated_seconds: f64,
    /// Per-actor busy time and utilization over the run.
    pub utilization: Vec<ActorUtilization>,
    /// Per-actor fault tallies, in the same actor order as
    /// [`SimResult::utilization`]. All-zero when the run's
    /// [`hieradmo_netsim::FaultPlan`] is empty.
    pub faults: Vec<ActorFaults>,
    /// Per-actor Byzantine-attack tallies, in the same actor order as
    /// [`SimResult::utilization`]. Only workers can be Byzantine, so edge
    /// and cloud entries are always zero; everything is zero when the
    /// run's [`hieradmo_netsim::AdversaryPlan`] is empty.
    pub adversaries: Vec<ActorAdversaries>,
    /// Number of discrete events processed.
    pub events: u64,
    /// Topology-churn tallies. All-zero on frozen-tree runs; populated by
    /// [`crate::simulate_elastic`] when a
    /// [`hieradmo_core::RunConfig::churn`] plan mutates the tree mid-run.
    pub topology: TopologyCounters,
}

/// One scheduled occurrence in the simulation. Sampled slot events carry
/// the round they belong to, so anything a relaxed policy leaves in flight
/// past its round's firing is dropped instead of leaking into the next
/// materialization; registered workers carry their state across rounds
/// and send `round: 0`.
enum Ev {
    /// A sampled edge begins its next round: fill the cohort slots and
    /// charge their downloads.
    StartRound { edge: usize },
    /// A sampled slot's model download landed; local steps begin.
    Arrive { slot: usize, round: usize },
    /// A worker finished a local step.
    Step { worker: usize, round: usize },
    /// A worker's end-of-interval upload reached its aggregator.
    Upload { worker: usize, round: usize },
    /// A Deadline-policy edge round's timeout expired.
    EdgeTimeout { edge: usize, round: usize },
    /// A distributed model reached a registered worker (payload
    /// snapshotted at fire time, so later mailbox writes cannot race with
    /// it).
    Deliver {
        worker: usize,
        state: Box<WorkerState>,
    },
    /// An edge's submission reached the cloud.
    CloudSubmit { edge: usize, round: usize },
    /// A Deadline-policy cloud round's timeout expired.
    CloudTimeout { round: usize },
    /// The cloud's reply reached an edge.
    CloudReply { edge: usize },
    /// A transiently-crashed worker's downtime expired; it rejoins from
    /// its last server-delivered state.
    Recover { worker: usize },
    /// A worker's scheduled permanent death.
    Die { worker: usize },
    /// A duplicated message's trailing copy arrived at `to`; the
    /// protocol-level round-number dedup (see `hieradmo_netsim::proto`)
    /// suppresses it, so it costs bookkeeping, never state.
    DupArrival { to: ActorId },
}

/// A registered worker actor: private training state plus its
/// virtual-clock bookkeeping. It steps on the pool's lane-0 replica.
struct WorkerSim {
    state: WorkerState,
    batcher: Batcher,
    /// Completed local steps.
    tick: usize,
    sampler: DelaySampler,
    busy_ms: f64,
    /// Final model received; the worker schedules nothing further.
    done: bool,
    /// Fault draws for this worker's crashes, spikes and link faults.
    fsampler: FaultSampler,
    /// Transiently crashed: down until its pending `Recover` fires.
    down: bool,
    /// Permanently crashed: never recovers, never uploads again.
    dead: bool,
    /// `(tick, state)` of the last server-delivered model — the rejoin
    /// point after a crash. Maintained only when faults are on.
    chain: Option<(usize, Box<WorkerState>)>,
    faults: FaultCounters,
    /// `Some` when this worker is Byzantine: every upload it lands is
    /// corrupted in the server-side mailbox before aggregation.
    attack: Option<AttackModel>,
    /// Noise draws for this worker's attacks (same stream the core driver
    /// uses, so trajectories are comparable run-for-run).
    asampler: AdversarySampler,
    advers: AdversaryCounters,
}

/// Round-scoped context of one sampled cohort slot, rebuilt from
/// `(seed, worker_id, round)` at every materialization.
struct SlotCtx {
    /// Global (population) id of the worker occupying the slot this round.
    gid: u64,
    /// The slot's edge (fixed: the cohort hierarchy is constant).
    edge: usize,
    /// The worker's shard index this round.
    shard: usize,
    /// `Step` events processed this round (the slot's segment itself is
    /// computed when the round starts).
    steps: usize,
    /// This round's private delay stream.
    delays: DelaySampler,
    /// This round's private fault stream (`None` when the plan is empty,
    /// so fault-free runs draw nothing).
    fsampler: Option<FaultSampler>,
    /// Per-step dropout mask for this round (all-false without dropout).
    dropped: Vec<bool>,
    /// The occupying worker's attack, if it is Byzantine.
    attack: Option<AttackModel>,
}

impl SlotCtx {
    /// The slot's round-`k` segment over its first `steps` steps: the
    /// non-dropped ticks among them, from `worker`, on a fresh stream of
    /// the round's batches.
    fn segment(
        &self,
        cfg: &RunConfig,
        shard_sizes: &[u64],
        k: usize,
        steps: usize,
        worker: WorkerState,
    ) -> Segment {
        let round_start = (k - 1) * cfg.tau;
        let ticks = (1..=steps).filter(|&st| !self.dropped[st - 1]);
        let seed = batcher_seed(cfg.seed, self.gid, k as u64);
        Segment {
            ticks: ticks.map(|st| round_start + st).collect(),
            worker,
            data: self.shard,
            batcher: Batcher::new(shard_sizes[self.shard] as usize, cfg.batch_size, seed),
        }
    }
}

/// An edge actor: round-collection state for the current aggregation.
struct EdgeSim {
    /// Round currently being collected (1-based); advances at every
    /// firing under every policy.
    round: usize,
    /// Which children have arrived for the current round.
    arrived: Vec<bool>,
    /// Last round each child's upload refreshed its slot (Deadline
    /// staleness bookkeeping).
    last_round: Vec<usize>,
    /// Firings since each child's slot was refreshed (AsyncAge).
    age: Vec<usize>,
    /// The current round's timeout has expired (Deadline).
    timed_out: bool,
    /// A cloud submission is outstanding; firing is paused.
    waiting_cloud: bool,
    sampler: DelaySampler,
    busy_ms: f64,
    /// Fault draws for this edge's cloud-hop transfers (both directions:
    /// link-fault tallies live at the non-root endpoint of each hop).
    fsampler: FaultSampler,
    faults: FaultCounters,
}

/// The cloud actor: the edge-level analogue of [`EdgeSim`].
struct CloudSim {
    round: usize,
    arrived: Vec<bool>,
    last_round: Vec<usize>,
    age: Vec<usize>,
    timed_out: bool,
    sampler: DelaySampler,
    busy_ms: f64,
    faults: FaultCounters,
}

/// Registered participants: persistent worker actors over a materialized
/// hierarchy.
struct Registered {
    workers: Vec<WorkerSim>,
    /// Flat-worker → edge index.
    edge_of: Vec<usize>,
    /// Pre-drawn dropout table, `(tick - 1) * N + worker`, in the core
    /// driver's exact draw order.
    active: Vec<bool>,
    /// Per edge: local workers to release when the cloud replies.
    pending_release: Vec<Vec<usize>>,
    /// Per edge: post-hook worker slots of its last firing — what a
    /// late-rejoining worker is handed.
    edge_dist: Vec<Vec<WorkerState>>,
    /// Per edge: post-hook worker slots from the last cloud firing,
    /// handed to an edge whose submission arrives late.
    cloud_dist: Vec<Option<Vec<WorkerState>>>,
}

/// Sampled participants: per-round cohort slots over a virtual
/// population. Actor tallies are `O(edges)`: the slots report as one
/// aggregate worker entry, adversaries as one entry per plan entry.
struct Sampled<'a> {
    population: &'a WorkerPopulation,
    shard_sizes: Vec<u64>,
    sampler: CohortSampler,
    slots: Vec<SlotCtx>,
    /// Per slot: crashed at materialization, absent for the round.
    absent: Vec<bool>,
    /// Per edge: finished its final round.
    retired: Vec<bool>,
    /// Aggregate busy time and fault tallies of all sampled workers.
    busy_ms: f64,
    faults: FaultCounters,
    /// One flag per permanent-crash plan entry: already counted.
    permanent_counted: Vec<bool>,
    /// One counter per adversary-plan entry, in plan order.
    adversaries: Vec<AdversaryCounters>,
}

/// Who takes part in a round: the only thing that differs between a
/// materialized co-simulation and a sampled one.
enum Participants<'a> {
    Registered(Registered),
    Sampled(Sampled<'a>),
}

impl<'a> Participants<'a> {
    fn registered(&mut self) -> &mut Registered {
        match self {
            Participants::Registered(r) => r,
            Participants::Sampled(_) => unreachable!("registered-worker event in a sampled run"),
        }
    }

    fn sampled(&mut self) -> &mut Sampled<'a> {
        match self {
            Participants::Sampled(s) => s,
            Participants::Registered(_) => unreachable!("cohort-slot event in a registered run"),
        }
    }
}

/// Pending evaluation at one tick: per-contributor model snapshots
/// (registered workers, or sampled edges), evaluated once all have
/// contributed.
struct EvalStage {
    xs: Vec<Option<Vector>>,
    last_ms: f64,
}

/// One completed evaluation, ordered by `iter` when the curves are built.
struct EvalRec {
    iter: usize,
    at_ms: f64,
    test: Evaluation,
    train: Evaluation,
}

/// `ceil(quorum · n)`, clamped to `[1, n]`.
fn quorum_count(quorum: f64, n: usize) -> usize {
    ((quorum * n as f64).ceil() as usize).clamp(1, n)
}

/// Runs the link-fault retry protocol for one transfer of `delay_ms`:
/// without a link-fault profile the delay stands; with one, the outcome is
/// drawn from `fs`, tallied into the sender's `counters`, and stretches
/// the delay by its penalty. Returns the delay plus the duplicate's extra
/// lag, if one was spawned.
fn link_transfer(
    lf: Option<&LinkFaults>,
    fs: Option<&mut FaultSampler>,
    counters: &mut FaultCounters,
    delay_ms: f64,
) -> (f64, Option<f64>) {
    let (Some(lf), Some(fs)) = (lf, fs) else {
        return (delay_ms, None);
    };
    let out = fs.transfer(lf);
    counters.add_transfer(
        out.messages_lost,
        out.transfer_failures,
        out.retries,
        out.duplicate_lag_ms.is_some(),
    );
    (delay_ms + out.penalty_ms, out.duplicate_lag_ms)
}

/// One topology-epoch slice of a virtual-clock run (see
/// [`crate::simulate_elastic`]): the engine executes ticks
/// `(start, limit]` against a frozen tree, restoring the mailbox from
/// `resume` and fast-forwarding every training RNG stream over the prefix
/// exactly as the core driver's resume path does. A plain
/// [`crate::simulate`] is the full span.
pub(crate) struct Span<'a> {
    /// Ticks already trained when the span begins (a multiple of `τ·π`).
    pub start: usize,
    /// The tick the span runs to (a multiple of `τ·π`; the whole run on
    /// frozen-tree simulations).
    pub limit: usize,
    /// Mid-run federation state to restore the mailbox from.
    pub resume: Option<&'a TrainingSnapshot>,
    /// Last curve iteration issued by the previous span (relaxed-policy
    /// index continuity).
    pub iter_base: usize,
    /// Global edge-firing counter carried over from the previous span
    /// (relaxed-policy trace index continuity).
    pub firing_base: usize,
    /// This span runs to the end of the whole run: record the final
    /// relaxed-policy evaluation in `finish`.
    pub final_segment: bool,
}

impl Span<'_> {
    /// The whole run as one span.
    fn full(cfg: &RunConfig) -> Self {
        Span {
            start: 0,
            limit: cfg.total_iters,
            resume: None,
            iter_base: 0,
            firing_base: 0,
            final_segment: true,
        }
    }
}

/// Stream salts keeping a sampled run's edge/cloud aggregator delay
/// streams disjoint from every per-(worker, round) stream whatever the
/// population size.
const SALT_EDGE_STREAM: u64 = 0x6564_6765_5f76_706f;
const SALT_CLOUD_STREAM: u64 = 0x636c_6f75_645f_7670;
/// Fault-stream salt keeping a sampled run's edge retry/duplicate draws
/// disjoint from their delay streams and from every per-(worker, round)
/// fault stream.
const SALT_EDGE_FAULT_STREAM: u64 = 0x6661_756c_745f_7670;

struct Engine<'a, M, S: ?Sized> {
    strategy: &'a S,
    cfg: &'a RunConfig,
    sim: &'a SimConfig,
    /// The lanes that run sampled segments and evaluation, and whose
    /// lane-0 replica steps registered workers.
    pool: Pool<'a, M, S>,
    src: Participants<'a>,
    fl: FlState,
    /// The tier tree the middle tiers fire over (a sampled run's cohort
    /// sub-tree); `None` on three-tier runs.
    tree: Option<TierTree>,
    edges: Vec<EdgeSim>,
    cloud: CloudSim,
    queue: EventQueue<Ev>,
    now: f64,
    events: u64,
    evals: Vec<EvalRec>,
    pending_evals: BTreeMap<usize, EvalStage>,
    /// Staged eval ticks already evaluated — a crash-redo must not
    /// re-create a completed stage (registered faults only).
    completed_evals: BTreeSet<usize>,
    /// Per-round `(γℓ, cos θ)` per edge, emitted as means once every edge
    /// has fired the round (see [`Engine::staged_rounds`]).
    gamma_stage: BTreeMap<usize, Vec<Option<(f32, f32)>>>,
    gamma_trace: Vec<(usize, f32)>,
    cos_trace: Vec<(usize, f32)>,
    /// Per-middle-depth `(round, mean γℓ)` traces (N-tier runs only).
    tier_gamma: Vec<Vec<(usize, f32)>>,
    /// Edge rounds between cloud submissions: the most frequent boundary
    /// at which any state-changing aggregation above the edges fires —
    /// `π` on three-tier runs (and whenever every middle tier is
    /// identity), else the deepest non-identity middle tier's
    /// `TierTree::sync_rounds`. Divides `π` by construction, so root
    /// boundaries are always submission boundaries.
    submit_period: usize,
    /// Global edge-firing counter (registered relaxed-policy trace index).
    firing_seq: usize,
    /// Last curve iteration issued (registered relaxed policies).
    last_iter: usize,
    /// The fault plan injects something; `false` guarantees zero fault
    /// draws and a run bitwise identical to one without fault injection.
    faults_on: bool,
    /// Tick this span runs to (`total_iters` on frozen-tree runs).
    limit: usize,
    /// Whether `finish` records the final relaxed-policy evaluation.
    final_segment: bool,
}

/// The mailbox a run starts from: `hierarchy` with `weights`, the tier
/// tree attached, the strategy's initial state, and `resume`'s tier
/// vectors when the span continues a run.
fn initial_state<S: Strategy + ?Sized>(
    strategy: &S,
    x0: &Vector,
    hierarchy: Hierarchy,
    weights: Weights,
    tree: Option<&TierTree>,
    cfg: &RunConfig,
    resume: Option<&TrainingSnapshot>,
) -> FlState {
    let mut fl = FlState::new(hierarchy, weights, x0);
    fl.aggregator = cfg.aggregator;
    if let Some(tree) = tree {
        fl.attach_tree(tree.clone());
    }
    strategy.init(&mut fl);
    if let Some(snap) = resume {
        // All algorithm state lives in the tier vectors (same rule the
        // core driver's resume path relies on).
        fl.workers = snap.workers.clone();
        fl.edges = snap.edges.clone();
        fl.cloud = snap.cloud.clone();
    }
    fl
}

impl Registered {
    /// One worker actor per mailbox slot, every training RNG stream
    /// fast-forwarded over the span's first `start` ticks exactly as the
    /// core driver's resume path does.
    fn new(
        worker_data: &[Dataset],
        fl: &FlState,
        cfg: &RunConfig,
        sim: &SimConfig,
        start: usize,
    ) -> Self {
        let hierarchy = &fl.hierarchy;
        let n = hierarchy.num_workers();
        let l_count = hierarchy.num_edges();
        let edge_of = (0..l_count)
            .flat_map(|e| hierarchy.edge_workers(e).map(move |_| e))
            .collect();
        // Dropout table, pre-drawn in the core driver's (tick-major,
        // worker-minor) order; when dropout is zero the driver draws
        // nothing, and neither does the table.
        let total = cfg.total_iters;
        let active: Vec<bool> = if cfg.dropout == 0.0 {
            vec![true; total * n]
        } else {
            let mut fault_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5f5f_5f5f_5f5f_5f5f);
            (0..total * n)
                .map(|_| fault_rng.gen_range(0.0..1.0) >= cfg.dropout)
                .collect()
        };
        let faults_on = !sim.faults.is_empty();
        let dim = fl.dim();
        let edge_rounds_done = start / cfg.tau;
        let mut batch = Vec::new();
        let workers = (0..n)
            .map(|i| {
                // One mini-batch draw per *active* prefix tick (the
                // dropout table above already replayed those draws) and
                // one adversary draw per edge boundary.
                let mut batcher = Batcher::new(
                    worker_data[i].len(),
                    cfg.batch_size,
                    cfg.seed.wrapping_add(i as u64),
                );
                for t in 1..=start {
                    if active[(t - 1) * n + i] {
                        batcher.next_batch_into(&mut batch);
                    }
                }
                let attack = cfg.adversary.attack_for(i);
                let mut asampler = AdversarySampler::from_stream(cfg.seed, i as u64);
                if let Some(a) = attack {
                    for _ in 0..edge_rounds_done {
                        replay_upload(dim, &a, &mut asampler);
                    }
                }
                WorkerSim {
                    state: fl.workers[i].clone(),
                    batcher,
                    tick: start,
                    sampler: DelaySampler::from_stream(sim.net_seed, i as u64),
                    busy_ms: 0.0,
                    done: false,
                    fsampler: FaultSampler::from_stream(sim.net_seed, i as u64),
                    down: false,
                    dead: false,
                    chain: faults_on.then(|| (start, Box::new(fl.workers[i].clone()))),
                    faults: FaultCounters::default(),
                    attack,
                    asampler,
                    advers: AdversaryCounters::default(),
                }
            })
            .collect();
        Registered {
            workers,
            edge_of,
            active,
            pending_release: vec![Vec::new(); l_count],
            edge_dist: (0..l_count)
                .map(|e| fl.workers[hierarchy.edge_workers(e)].to_vec())
                .collect(),
            cloud_dist: vec![None; l_count],
        }
    }
}

impl<'a, M, S> Engine<'a, M, S>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    /// Lays the edge and cloud actors out around the mailbox `fl` and its
    /// participant source, for the ticks `span` covers, on `pool`.
    fn new(
        pool: Pool<'a, M, S>,
        fl: FlState,
        src: Participants<'a>,
        sim: &'a SimConfig,
        span: Span<'_>,
    ) -> Self {
        let ExecCtx { strategy, cfg, .. } = pool.ctx();
        let n = fl.workers.len();
        let l_count = fl.hierarchy.num_edges();
        let tree = fl.tree.clone();
        // Edges submit cloud-wards at every boundary where some tier above
        // them mutates state; identity middles are free, so a pure
        // pass-through tree keeps the three-tier submission cadence (and
        // every delay stream) untouched.
        let submit_period = tree
            .as_ref()
            .and_then(|tree| {
                tree.middle_depths()
                    .filter(|&d| tree.levels()[d].aggregation != TierAggregation::Identity)
                    .map(|d| tree.sync_rounds(d))
                    .min()
            })
            .unwrap_or(cfg.pi);
        // Registered actors number their delay and fault streams flat
        // (workers, then edges, then the cloud); sampled runs key the
        // edges and the cloud off salted seeds, so no stream depends on
        // the population size.
        let net = sim.net_seed;
        let (edge_seed, edge_fault_seed, edge_base, cloud_seed, cloud_stream) = match src {
            Participants::Registered(_) => (net, net, n, net, n + l_count),
            Participants::Sampled(_) => (
                net ^ SALT_EDGE_STREAM,
                net ^ SALT_EDGE_FAULT_STREAM,
                0,
                net ^ SALT_CLOUD_STREAM,
                0,
            ),
        };
        let start = span.start;
        let edge_rounds_done = start / cfg.tau;
        let cloud_rounds_done = start / (cfg.tau * submit_period);
        let edges = (0..l_count)
            .map(|e| {
                let c = fl.hierarchy.workers_in_edge(e);
                let stream = (edge_base + e) as u64;
                EdgeSim {
                    round: edge_rounds_done + 1,
                    arrived: vec![false; c],
                    last_round: vec![edge_rounds_done; c],
                    age: vec![0; c],
                    timed_out: false,
                    waiting_cloud: false,
                    sampler: DelaySampler::from_stream(edge_seed, stream),
                    busy_ms: 0.0,
                    fsampler: FaultSampler::from_stream(edge_fault_seed, stream),
                    faults: FaultCounters::default(),
                }
            })
            .collect();
        let cloud = CloudSim {
            round: cloud_rounds_done + 1,
            arrived: vec![false; l_count],
            last_round: vec![cloud_rounds_done; l_count],
            age: vec![0; l_count],
            timed_out: false,
            sampler: DelaySampler::from_stream(cloud_seed, cloud_stream as u64),
            busy_ms: 0.0,
            faults: FaultCounters::default(),
        };
        let tier_gamma = vec![Vec::new(); fl.middle.len()];
        Engine {
            strategy,
            cfg,
            sim,
            pool,
            src,
            fl,
            tree,
            edges,
            cloud,
            queue: EventQueue::new(),
            now: 0.0,
            events: 0,
            evals: Vec::new(),
            pending_evals: BTreeMap::new(),
            completed_evals: BTreeSet::new(),
            gamma_stage: BTreeMap::new(),
            gamma_trace: Vec::new(),
            cos_trace: Vec::new(),
            tier_gamma,
            submit_period,
            firing_seq: span.firing_base,
            last_iter: span.iter_base,
            faults_on: !sim.faults.is_empty(),
            limit: span.limit,
            final_segment: span.final_segment,
        }
    }

    fn full_sync(&self) -> bool {
        matches!(self.sim.policy, SyncPolicy::FullSync)
    }

    fn is_eval_tick(&self, t: usize) -> bool {
        t.is_multiple_of(self.cfg.eval_every) || t == self.cfg.total_iters
    }

    fn is_sampled(&self) -> bool {
        matches!(self.src, Participants::Sampled(_))
    }

    /// γ traces (and evaluations) are staged per round and reduced over
    /// the edges: always for sampled cohorts, whose edges fire every round
    /// exactly once, and under full sync for registered workers. Relaxed
    /// registered runs trace every firing in order instead.
    fn staged_rounds(&self) -> bool {
        self.full_sync() || self.is_sampled()
    }

    /// Registered runs keep rejoin snapshots for late or recovering
    /// workers under relaxed policies, and under full sync when faults
    /// are on. Sampled slots rejoin at the next materialization for free.
    fn keeps_rejoin_snapshots(&self) -> bool {
        !self.is_sampled() && (!self.full_sync() || self.faults_on)
    }

    /// The flat offset of edge `e`'s first child.
    fn edge_offset(&self, e: usize) -> usize {
        self.fl.hierarchy.edge_workers(e).start
    }

    /// A registered worker died permanently (sampled slots never die;
    /// they are absent for a round at most).
    fn worker_dead(&self, i: usize) -> bool {
        match &self.src {
            Participants::Registered(r) => r.workers[i].dead,
            Participants::Sampled(_) => false,
        }
    }

    /// Draws a registered worker's up/down transfer delay (including
    /// retry/backoff penalties when link faults are on) and charges its
    /// busy time. Returns `(delay_ms, duplicate_lag_ms)`.
    fn worker_transfer(&mut self, i: usize, bytes: u64) -> (f64, Option<f64>) {
        let sim = self.sim;
        let hierarchy = &self.fl.hierarchy;
        let r = self.src.registered();
        let (link, flows) = match sim.architecture {
            Architecture::ThreeTier => (
                &sim.env.worker_edge_link,
                hierarchy.workers_in_edge(r.edge_of[i]),
            ),
            Architecture::TwoTier => (&sim.env.worker_cloud_link, hierarchy.num_workers()),
        };
        let w = &mut r.workers[i];
        let d = w.sampler.shared_transfer_ms(link, bytes, flows);
        let (d, dup) = link_transfer(
            sim.faults.link.as_ref(),
            Some(&mut w.fsampler),
            &mut w.faults,
            d,
        );
        w.busy_ms += d;
        (d, dup)
    }

    /// Crash draw at one of a registered worker's two draw points. On a
    /// crash the worker goes down, its in-progress work is lost, and a
    /// `Recover` fires after the drawn downtime. Returns `true` when it
    /// crashed.
    fn maybe_crash(&mut self, i: usize, now: f64, lost_upload: bool) -> bool {
        let Some(cp) = self.sim.faults.crash else {
            return false;
        };
        let w = &mut self.src.registered().workers[i];
        let Some(dt) = w.fsampler.crash_downtime_ms(&cp) else {
            return false;
        };
        w.faults.crashes += 1;
        w.faults.recovery_ms += dt;
        if lost_upload {
            w.faults.lost_uploads += 1;
        }
        w.down = true;
        self.queue
            .push(now + dt, ActorId::Worker(i), Ev::Recover { worker: i });
        true
    }

    fn schedule_step(&mut self, i: usize, now: f64) {
        if self.maybe_crash(i, now, false) {
            return;
        }
        let sim = self.sim;
        let w = &mut self.src.registered().workers[i];
        let mut d = w.sampler.compute_ms(&sim.env.worker_devices[i]);
        if let Some(sp) = sim.faults.spikes {
            if let Some(factor) = w.fsampler.spike_factor(&sp) {
                d *= factor;
                w.faults.delay_spikes += 1;
            }
        }
        w.busy_ms += d;
        let step = Ev::Step {
            worker: i,
            round: 0,
        };
        self.queue.push(now + d, ActorId::Worker(i), step);
    }

    /// Sends `state` down to registered worker `flat` (payload snapshotted
    /// now). Messages to permanently-dead workers are not sent at all.
    fn deliver(&mut self, flat: usize, state: Box<WorkerState>, now: f64) {
        if self.worker_dead(flat) {
            return;
        }
        let (d, dup) = self.worker_transfer(flat, self.sim.download_bytes);
        let to = ActorId::Worker(flat);
        self.queue.push(
            now + d,
            to,
            Ev::Deliver {
                worker: flat,
                state,
            },
        );
        if let Some(lag) = dup {
            self.queue.push(now + d + lag, to, Ev::DupArrival { to });
        }
    }

    fn on_step_done(&mut self, i: usize, now: f64) {
        let cfg = self.cfg;
        let r = self.src.registered();
        let n = r.workers.len();
        let w = &mut r.workers[i];
        if w.dead || w.down {
            return; // step was in flight when the worker crashed
        }
        w.tick += 1;
        let t = w.tick;
        if r.active[(t - 1) * n + i] {
            self.pool.step(t, &mut w.state, i, &mut w.batcher);
        }
        if t.is_multiple_of(cfg.tau) {
            // End of interval: upload (dropout skips the step, never the
            // aggregation — matching the core driver). A crash here loses
            // the upload outright.
            if self.maybe_crash(i, now, true) {
                return;
            }
            let (d, dup) = self.worker_transfer(i, self.sim.upload_bytes);
            let upload = Ev::Upload {
                worker: i,
                round: 0,
            };
            self.queue.push(now + d, ActorId::Worker(i), upload);
            if let Some(lag) = dup {
                let to = match self.sim.architecture {
                    Architecture::ThreeTier => ActorId::Edge(self.src.registered().edge_of[i]),
                    Architecture::TwoTier => ActorId::Cloud,
                };
                self.queue.push(now + d + lag, to, Ev::DupArrival { to });
            }
        } else {
            if self.full_sync() && self.is_eval_tick(t) {
                let x = self.src.registered().workers[i].state.x.clone();
                self.stage_eval(t, i, x, now);
            }
            self.schedule_step(i, now);
        }
    }

    fn on_upload(&mut self, i: usize, now: f64) {
        let r = self.src.registered();
        let w = &mut r.workers[i];
        if w.dead {
            // The sender died while its upload was in flight: lost.
            w.faults.lost_uploads += 1;
            return;
        }
        let e = r.edge_of[i];
        let k_up = w.tick / self.cfg.tau;
        // Mailbox write: the server-side slot now holds the upload.
        self.fl.workers[i] = w.state.clone();
        // A Byzantine worker poisons the upload in flight: the corruption
        // lands on the mailbox slot (what aggregation reads), never on the
        // actor's private state — under full sync this is exactly the core
        // driver's corrupt-before-aggregate, because the post-hook slot is
        // shipped back wholesale on the download. One draw per landed
        // upload keeps the per-worker stream aligned with the core driver's
        // per-boundary draws.
        if let Some(attack) = w.attack {
            corrupt_upload(
                &mut self.fl.workers[i],
                &attack,
                &mut w.asampler,
                &mut w.advers,
            );
        }
        let j = i - self.edge_offset(e);
        self.edge_arrival(e, j, k_up, now);
    }

    /// A late Deadline upload (its round fired without it) carries over in
    /// the mailbox; the registered worker is handed the round's
    /// distribution so it rejoins immediately.
    fn release_late_worker(&mut self, e: usize, j: usize, now: f64) {
        let waiting = self.edges[e].waiting_cloud;
        let flat = self.edge_offset(e) + j;
        let r = self.src.registered();
        if waiting {
            r.pending_release[e].push(j);
        } else {
            let payload = Box::new(r.edge_dist[e][j].clone());
            self.deliver(flat, payload, now);
        }
    }

    fn on_deliver(&mut self, flat: usize, state: WorkerState, now: f64) {
        let faults_on = self.faults_on;
        let limit = self.limit;
        let w = &mut self.src.registered().workers[flat];
        if w.dead {
            return; // delivery raced the worker's permanent death
        }
        w.state = state;
        if faults_on {
            w.chain = Some((w.tick, Box::new(w.state.clone())));
        }
        if w.down {
            return; // its pending Recover rejoins from the fresh snapshot
        }
        if w.tick < limit {
            self.schedule_step(flat, now);
        } else {
            w.done = true;
        }
    }

    /// A transiently-crashed worker comes back: it lost whatever it was
    /// doing and rejoins from the last server-delivered model at that
    /// snapshot's tick, replaying the interval with fresh batch draws.
    fn on_recover(&mut self, i: usize, now: f64) {
        let limit = self.limit;
        let w = &mut self.src.registered().workers[i];
        if w.dead || !w.down {
            return;
        }
        w.down = false;
        let (tick, state) = w
            .chain
            .clone()
            .expect("fault injection keeps a rejoin snapshot");
        w.tick = tick;
        w.state = *state;
        if w.tick >= limit {
            w.done = true;
            return;
        }
        self.schedule_step(i, now);
    }

    /// A worker dies permanently: it never uploads again, and every
    /// barrier that could wait for it is re-derived so the run cannot
    /// deadlock on a dead child.
    fn on_die(&mut self, i: usize, now: f64) {
        let r = self.src.registered();
        let e = r.edge_of[i];
        let w = &mut r.workers[i];
        if w.dead || w.done {
            return;
        }
        w.dead = true;
        w.down = false;
        w.faults.crashes += 1;
        match self.sim.policy {
            SyncPolicy::FullSync => {
                // Stages first (they evaluate at `now`), then barriers
                // (their evaluations land after aggregation compute).
                let ts: Vec<usize> = self.pending_evals.keys().copied().collect();
                for t in ts {
                    self.try_finish_eval(t, now);
                }
                let ks: Vec<usize> = self.gamma_stage.keys().copied().collect();
                for k in ks {
                    self.try_finish_gamma(k);
                }
                self.maybe_fire_edge_full(e, now);
                self.maybe_fire_cloud_full(now);
            }
            SyncPolicy::Deadline { .. } => {
                self.maybe_fire_edge_deadline(e, now);
                self.maybe_fire_cloud_deadline(now);
            }
            SyncPolicy::AsyncAge { .. } => {
                self.maybe_fire_edge_async(e, now);
                self.maybe_fire_cloud_async(now);
            }
        }
    }

    /// Round start of sampled edge `e`: draw its cohort into the slots,
    /// decide each occupant's absence up front, charge the downloads, and
    /// compute every live slot's local-step segment on the pool. From here
    /// on a live slot's mailbox holds its end-of-round state; its `Step`
    /// events only advance the virtual clock.
    fn start_round(&mut self, e: usize, now: f64) {
        let cfg = self.cfg;
        let sim = self.sim;
        let faults_on = self.faults_on;
        let k = self.edges[e].round;
        let range = self.fl.hierarchy.edge_workers(e);
        let s = self.src.sampled();
        let ids =
            materialize_edge_cohort(&mut self.fl, s.population, &s.shard_sizes, &s.sampler, e, k);
        let mut live = Vec::with_capacity(ids.len());
        let mut segments = Vec::with_capacity(ids.len());
        for (j, &g) in ids.iter().enumerate() {
            let slot = range.start + j;
            let mut fsampler = faults_on
                .then(|| FaultSampler::from_stream(sim.net_seed, fault_stream(g, k as u64)));
            // Fault waiver at materialization: the round's crash draw is
            // taken up front, so absence is a per-(worker, round) fact
            // independent of event interleaving. An absent slot loses its
            // whole round and rejoins at the next materialization.
            let mut absent = false;
            for (idx, perm) in sim.faults.permanent.iter().enumerate() {
                if perm.worker as u64 == g && perm.at_ms <= now {
                    if !s.permanent_counted[idx] {
                        s.permanent_counted[idx] = true;
                        s.faults.crashes += 1;
                    }
                    absent = true;
                }
            }
            if !absent {
                if let (Some(c), Some(fs)) = (sim.faults.crash.as_ref(), fsampler.as_mut()) {
                    if let Some(downtime) = fs.crash_downtime_ms(c) {
                        absent = true;
                        s.faults.crashes += 1;
                        s.faults.recovery_ms += downtime;
                    }
                }
            }
            s.absent[slot] = absent;
            // The slot carries the edge model of the previous round: its
            // upload refreshes it to `k`, a straggler's Deadline staleness
            // is 1.
            self.edges[e].last_round[j] = k - 1;
            let ctx = &mut s.slots[slot];
            ctx.gid = g;
            ctx.shard = s.population.shard_of(g);
            ctx.steps = 0;
            ctx.delays = DelaySampler::from_stream(sim.net_seed, delay_stream(g, k as u64));
            ctx.fsampler = fsampler;
            ctx.dropped = cohort_dropout_mask(cfg.seed, g, k as u64, cfg.tau, cfg.dropout);
            ctx.attack = cfg.adversary.attack_for(g as usize);
            if absent {
                s.faults.lost_uploads += 1;
                continue; // down for the round: no download, no steps
            }
            // The slot's whole segment depends only on the download and
            // its own batch stream, so it is checked out and computed now.
            let worker = mem::take(&mut self.fl.workers[slot]);
            live.push(slot);
            segments.push(ctx.segment(cfg, &s.shard_sizes, k, cfg.tau, worker));
            // Model download to the freshly sampled participant.
            let d = ctx
                .delays
                .transfer_ms(&sim.env.worker_edge_link, sim.download_bytes);
            let link = sim.faults.link.as_ref();
            let (d, dup) = link_transfer(link, ctx.fsampler.as_mut(), &mut s.faults, d);
            s.busy_ms += d;
            let to = ActorId::Worker(slot);
            self.queue.push(now + d, to, Ev::Arrive { slot, round: k });
            if let Some(lag) = dup {
                self.queue.push(now + d + lag, to, Ev::DupArrival { to });
            }
        }
        for (slot, seg) in live.iter().zip(self.pool.run_segments(segments)) {
            self.fl.workers[*slot] = seg.worker;
        }
        if live.is_empty() {
            // Every sampled participant is down: the round fires empty and
            // the edge relays its carried state at the boundaries, so no
            // barrier above can deadlock on it.
            self.fire_edge(e, now);
        }
    }

    /// A slot event from a round that already fired — a straggler to be
    /// discarded (its slot re-materializes at the next round start).
    fn slot_stale(&mut self, slot: usize, round: usize) -> bool {
        let e = self.src.sampled().slots[slot].edge;
        self.edges[e].round != round
    }

    fn schedule_slot_step(&mut self, slot: usize, now: f64) {
        let sim = self.sim;
        let s = self.src.sampled();
        let ctx = &mut s.slots[slot];
        let step = Ev::Step {
            worker: slot,
            round: self.edges[ctx.edge].round,
        };
        if ctx.dropped[ctx.steps] {
            // Dropped step: the device sits idle — no compute draw, and
            // (in `on_slot_step`) no mini-batch draw and no local step,
            // exactly matching the tick-driven cohort rounds.
            self.queue.push(now, ActorId::Worker(slot), step);
            return;
        }
        // Profile-pool semantics: registered worker `g` draws its compute
        // profile from the pool slot `g mod pool size`, so a small profile
        // set covers any population size.
        let device = (ctx.gid % sim.env.worker_devices.len() as u64) as usize;
        let mut d = ctx.delays.compute_ms(&sim.env.worker_devices[device]);
        if let Some(sp) = sim.faults.spikes.as_ref() {
            if let Some(f) = ctx.fsampler.as_mut().and_then(|fs| fs.spike_factor(sp)) {
                d *= f;
                s.faults.delay_spikes += 1;
            }
        }
        s.busy_ms += d;
        self.queue.push(now + d, ActorId::Worker(slot), step);
    }

    fn on_slot_step(&mut self, slot: usize, round: usize, now: f64) {
        if self.slot_stale(slot, round) {
            return;
        }
        let cfg = self.cfg;
        let sim = self.sim;
        let s = self.src.sampled();
        let ctx = &mut s.slots[slot];
        ctx.steps += 1;
        if ctx.steps < cfg.tau {
            self.schedule_slot_step(slot, now);
            return;
        }
        let d = ctx
            .delays
            .transfer_ms(&sim.env.worker_edge_link, sim.upload_bytes);
        let link = sim.faults.link.as_ref();
        let (d, dup) = link_transfer(link, ctx.fsampler.as_mut(), &mut s.faults, d);
        s.busy_ms += d;
        let upload = Ev::Upload {
            worker: slot,
            round,
        };
        self.queue.push(now + d, ActorId::Worker(slot), upload);
        if let Some(lag) = dup {
            let to = ActorId::Edge(ctx.edge);
            self.queue.push(now + d + lag, to, Ev::DupArrival { to });
        }
    }

    fn on_slot_upload(&mut self, slot: usize, round: usize, now: f64) {
        if self.slot_stale(slot, round) {
            // A straggler past its round's firing: the slot has been (or
            // is about to be) re-materialized — the upload is discarded
            // and the rejoin happens at the next round start for free.
            return;
        }
        let cfg = self.cfg;
        let s = self.src.sampled();
        let ctx = &s.slots[slot];
        let e = ctx.edge;
        // The slot's segment was computed into its mailbox slot at round
        // start, so the upload's mailbox write is a no-op; only poisoning
        // touches it.
        if let Some(attack) = ctx.attack {
            let g = ctx.gid;
            let entry = cfg
                .adversary
                .byzantine
                .iter()
                .position(|b| b.worker as u64 == g)
                .expect("attack implies a plan entry");
            // A fresh per-(worker, round) stream: the draw is independent
            // of event interleaving and of every other corruption.
            let mut sampler =
                AdversarySampler::from_stream(cfg.seed, adversary_stream(g, round as u64));
            corrupt_upload(
                &mut self.fl.workers[slot],
                &attack,
                &mut sampler,
                &mut s.adversaries[entry],
            );
        }
        let j = slot - self.edge_offset(e);
        self.edge_arrival(e, j, round, now);
    }

    /// The end of sampled edge `e`'s round `k`: stage the evaluation
    /// snapshot on evaluation rounds, then start the next round or retire
    /// the edge.
    fn finish_round(&mut self, e: usize, k: usize, now: f64) {
        let t = k * self.cfg.tau;
        if self.is_eval_tick(t) {
            let x = self.fl.edges[e].x_plus.clone();
            self.stage_eval(t, e, x, now);
        }
        if t < self.limit {
            self.queue
                .push(now, ActorId::Edge(e), Ev::StartRound { edge: e });
        } else {
            self.src.sampled().retired[e] = true;
        }
    }

    /// Evaluation staging: collects one model snapshot per contributor for
    /// tick `t` — each registered worker's, or each sampled edge's
    /// post-aggregation model — and evaluates their data-weighted average
    /// once all have contributed, reproducing the core driver's evaluation
    /// at that tick bit-for-bit.
    fn stage_eval(&mut self, t: usize, idx: usize, x: Vector, at_ms: f64) {
        if self.completed_evals.contains(&t) {
            // A crash-redo re-passed an already-evaluated tick.
            debug_assert!(self.faults_on);
            return;
        }
        let width = match &self.src {
            Participants::Registered(r) => r.workers.len(),
            Participants::Sampled(_) => self.edges.len(),
        };
        let stage = self.pending_evals.entry(t).or_insert_with(|| EvalStage {
            xs: vec![None; width],
            last_ms: 0.0,
        });
        if stage.xs[idx].is_some() {
            // A crash-redo re-contributed: keep the first pass's snapshot.
            debug_assert!(self.faults_on, "{idx} contributed twice to tick {t}");
            return;
        }
        stage.xs[idx] = Some(x);
        stage.last_ms = stage.last_ms.max(at_ms);
        self.try_finish_eval(t, at_ms);
    }

    /// Fires a staged evaluation once every contributor has either
    /// contributed or died permanently; dead workers' snapshots come from
    /// their server-side mailbox slots. With no faults this is exactly the
    /// "all contributed" barrier.
    fn try_finish_eval(&mut self, t: usize, now: f64) {
        let complete = match self.pending_evals.get(&t) {
            Some(stage) => stage
                .xs
                .iter()
                .enumerate()
                .all(|(i, x)| x.is_some() || self.worker_dead(i)),
            None => return,
        };
        if !complete {
            return;
        }
        let stage = self.pending_evals.remove(&t).expect("stage just checked");
        self.completed_evals.insert(t);
        let params = match self.src {
            Participants::Registered(_) => {
                Vector::weighted_average(stage.xs.iter().enumerate().map(|(i, x)| {
                    (
                        self.fl.weights.worker_in_total(i),
                        x.as_ref().unwrap_or(&self.fl.workers[i].x),
                    )
                }))
            }
            Participants::Sampled(_) => weighted_edge_average(
                &self.fl.weights,
                stage.xs.iter().map(|x| x.as_ref().expect("stage complete")),
            ),
        };
        let (test, train) = self.pool.evaluate(&params);
        self.evals.push(EvalRec {
            iter: t,
            at_ms: stage.last_ms.max(now),
            test,
            train,
        });
    }

    /// Trace staging: per-edge `(γℓ, cos θ)` of round `k`, reduced to the
    /// driver's edge-index-order `f32` means once every edge has fired the
    /// round.
    fn stage_gamma(&mut self, k: usize, e: usize, gamma: f32, cos: f32) {
        let l_count = self.edges.len();
        let slot = self
            .gamma_stage
            .entry(k)
            .or_insert_with(|| vec![None; l_count]);
        slot[e] = Some((gamma, cos));
        self.try_finish_gamma(k);
    }

    /// All of a registered edge's workers have died permanently: it will
    /// never fire a round again. Sampled edges never die.
    fn edge_all_dead(&self, e: usize) -> bool {
        self.faults_on
            && self
                .fl
                .hierarchy
                .edge_workers(e)
                .all(|i| self.worker_dead(i))
    }

    /// Emits a staged `(γℓ, cos θ)` round once every edge has fired it or
    /// will never fire again; the mean is over the edges that did fire.
    /// With no faults this is exactly the "all edges fired" barrier with
    /// the driver's edge-index-order means.
    fn try_finish_gamma(&mut self, k: usize) {
        let complete = match self.gamma_stage.get(&k) {
            Some(slot) => slot
                .iter()
                .enumerate()
                .all(|(e, p)| p.is_some() || self.edge_all_dead(e)),
            None => return,
        };
        if !complete {
            return;
        }
        let slot = self.gamma_stage.remove(&k).expect("stage just checked");
        let fired: Vec<(f32, f32)> = slot.into_iter().flatten().collect();
        let n = fired.len() as f32;
        self.gamma_trace
            .push((k, fired.iter().map(|p| p.0).sum::<f32>() / n));
        self.cos_trace
            .push((k, fired.iter().map(|p| p.1).sum::<f32>() / n));
    }

    /// Registered relaxed-policy evaluation: the server's current global
    /// view, indexed by committed local steps (made strictly increasing).
    fn record_relaxed_eval(&mut self, at_ms: f64) {
        let committed: usize = self.src.registered().workers.iter().map(|w| w.tick).sum();
        let iter = committed.max(self.last_iter + 1);
        self.last_iter = iter;
        let params = self.strategy.global_params(&self.fl);
        let (test, train) = self.pool.evaluate(&params);
        self.evals.push(EvalRec {
            iter,
            at_ms,
            test,
            train,
        });
    }

    /// Child `j`'s round-`k` upload landed in edge `e`'s mailbox slot.
    fn edge_arrival(&mut self, e: usize, j: usize, k: usize, now: f64) {
        let edge = &mut self.edges[e];
        match self.sim.policy {
            SyncPolicy::FullSync => {
                edge.arrived[j] = true;
                self.maybe_fire_edge_full(e, now);
            }
            SyncPolicy::Deadline { timeout_ms, .. } => {
                edge.last_round[j] = k;
                if k < edge.round {
                    // Late (registered workers only; a sampled straggler
                    // is dropped before it lands): the round fired
                    // without this worker.
                    self.release_late_worker(e, j, now);
                    return;
                }
                let first = !edge.arrived.iter().any(|&a| a);
                edge.arrived[j] = true;
                if first {
                    let round = edge.round;
                    self.queue.push(
                        now + timeout_ms,
                        ActorId::Edge(e),
                        Ev::EdgeTimeout { edge: e, round },
                    );
                }
                self.maybe_fire_edge_deadline(e, now);
            }
            SyncPolicy::AsyncAge { .. } => {
                edge.arrived[j] = true;
                edge.age[j] = 0;
                self.maybe_fire_edge_async(e, now);
            }
        }
    }

    fn on_edge_timeout(&mut self, e: usize, round: usize, now: f64) {
        if self.edges[e].round != round {
            return; // stale timer for an already-fired round
        }
        self.edges[e].timed_out = true;
        self.maybe_fire_edge_deadline(e, now);
    }

    /// Child `j` of edge `e` will not arrive this round and is waived at
    /// the full-sync and Deadline barriers: a registered worker that died
    /// permanently, or a sampled slot absent for the round.
    fn child_gone(&self, e: usize, j: usize) -> bool {
        let i = self.edge_offset(e) + j;
        match &self.src {
            Participants::Registered(r) => r.workers[i].dead,
            Participants::Sampled(s) => s.absent[i],
        }
    }

    /// Child `j` of edge `e` cannot catch up and is exempt from the
    /// AsyncAge staleness cap: a registered worker that is done or dead,
    /// or a sampled slot absent for the round.
    fn child_exhausted(&self, e: usize, j: usize) -> bool {
        let i = self.edge_offset(e) + j;
        match &self.src {
            Participants::Registered(r) => r.workers[i].done || r.workers[i].dead,
            Participants::Sampled(s) => s.absent[i],
        }
    }

    /// Full-sync edge barrier with a fault waiver: fires once every child
    /// has arrived or is gone (at least one arrival). With no faults this
    /// is exactly the all-arrived barrier.
    fn maybe_fire_edge_full(&mut self, e: usize, now: f64) {
        let edge = &self.edges[e];
        if edge.waiting_cloud || !edge.arrived.iter().any(|&a| a) {
            return;
        }
        let all = edge
            .arrived
            .iter()
            .enumerate()
            .all(|(j, &a)| a || self.child_gone(e, j));
        if all {
            self.fire_edge(e, now);
        }
    }

    fn maybe_fire_edge_deadline(&mut self, e: usize, now: f64) {
        let SyncPolicy::Deadline { quorum, .. } = self.sim.policy else {
            return;
        };
        let edge = &self.edges[e];
        if edge.waiting_cloud {
            return;
        }
        let have = edge.arrived.iter().filter(|&&a| a).count();
        if have == 0 {
            return;
        }
        // Quorum re-derivation: gone absentees leave the denominator, so
        // a strict minority dying can never deadlock the round.
        // `live_total >= have >= 1` keeps the clamp well-defined.
        let absent_gone = edge
            .arrived
            .iter()
            .enumerate()
            .filter(|&(j, &a)| !a && self.child_gone(e, j))
            .count();
        let live_total = edge.arrived.len() - absent_gone;
        if have == live_total || (edge.timed_out && have >= quorum_count(quorum, live_total)) {
            self.fire_edge(e, now);
        }
    }

    fn maybe_fire_edge_async(&mut self, e: usize, now: f64) {
        let SyncPolicy::AsyncAge { max_staleness } = self.sim.policy else {
            return;
        };
        let edge = &self.edges[e];
        if edge.waiting_cloud || !edge.arrived.iter().any(|&a| a) {
            return;
        }
        // A too-stale absent child blocks the firing — unless it cannot
        // catch up: the staleness cap is waived for exhausted children.
        let blocked =
            edge.arrived.iter().enumerate().any(|(j, &arr)| {
                !arr && edge.age[j] >= max_staleness && !self.child_exhausted(e, j)
            });
        if !blocked {
            self.fire_edge(e, now);
        }
    }

    /// Fires the edge's current round with whoever has arrived: runs the
    /// strategy's (staleness-aware) edge hook against the mailbox (an
    /// empty sampled round skips it and relays the carried state), submits
    /// to the cloud on boundary rounds, and hands the rest to the
    /// participant source.
    fn fire_edge(&mut self, e: usize, now: f64) {
        let strategy = self.strategy;
        let sim = self.sim;
        let edge = &self.edges[e];
        let k = edge.round;
        let participants: Vec<usize> = (0..edge.arrived.len())
            .filter(|&j| edge.arrived[j])
            .collect();
        let staleness: Vec<usize> = match sim.policy {
            SyncPolicy::FullSync => vec![0; edge.arrived.len()],
            SyncPolicy::Deadline { .. } => edge
                .last_round
                .iter()
                .map(|&r| k.saturating_sub(r))
                .collect(),
            SyncPolicy::AsyncAge { .. } => edge.age.clone(),
        };
        // Aggregation compute (three-tier only: a two-tier "edge" is the
        // cloud's frontend and charges nothing of its own).
        let d = match sim.architecture {
            Architecture::ThreeTier => {
                let dd = self.edges[e].sampler.compute_ms(&sim.env.edge_device);
                self.edges[e].busy_ms += dd;
                dd
            }
            Architecture::TwoTier => 0.0,
        };
        if !participants.is_empty() {
            self.rewind_stragglers(e);
            let mut view = self.fl.edge_view(e);
            strategy.edge_aggregate_stale(k, &mut view, &staleness);
        }
        let (gamma, cos) = (self.fl.edges[e].gamma_edge, self.fl.edges[e].cos_theta);
        if self.staged_rounds() {
            self.stage_gamma(k, e, gamma, cos);
        } else {
            self.firing_seq += 1;
            self.gamma_trace.push((self.firing_seq, gamma));
            self.cos_trace.push((self.firing_seq, cos));
        }
        // `submit_period` equals `π` except on N-tier runs, where a
        // non-identity middle tier pulls the submission boundary in.
        let cloud_round = k.is_multiple_of(self.submit_period);
        if cloud_round {
            self.edges[e].waiting_cloud = true;
            let (du, dup) = self.edge_cloud_transfer(e, sim.upload_bytes);
            let round = k / self.submit_period;
            let at = now + d + du;
            self.queue
                .push(at, ActorId::Edge(e), Ev::CloudSubmit { edge: e, round });
            if let Some(lag) = dup {
                let to = ActorId::Cloud;
                self.queue.push(at + lag, to, Ev::DupArrival { to });
            }
        }
        let edge = &mut self.edges[e];
        edge.round += 1;
        edge.arrived.fill(false);
        edge.timed_out = false;
        if let SyncPolicy::AsyncAge { .. } = sim.policy {
            for (j, a) in edge.age.iter_mut().enumerate() {
                if participants.contains(&j) {
                    *a = 0;
                } else {
                    *a += 1;
                }
            }
        }
        self.after_edge_fire(e, k, cloud_round, participants, now + d);
    }

    /// A relaxed firing reads each live sampled slot that has not arrived
    /// as it stands: after the `steps` of its `Step` events processed so
    /// far. Such a slot's mailbox holds its end-of-round state (computed at
    /// round start), so it is rewound first: re-materialized from the
    /// edge's download pair, then stepped through the non-dropped ticks
    /// among those first `steps` on a fresh stream of the round's batches.
    /// The pair still holds the round's download: a partial cloud firing
    /// restores every edge that did not submit — an edge mid-round among
    /// them — and its slots (see [`Engine::fire_cloud`]). A straggler never
    /// steps again in its round, so nothing else needs rewinding; full-sync
    /// firings have no straggler.
    fn rewind_stragglers(&mut self, e: usize) {
        let Participants::Sampled(s) = &self.src else {
            return;
        };
        let cfg = self.cfg;
        let k = self.edges[e].round;
        let range = self.fl.hierarchy.edge_workers(e);
        let mut rewound = Vec::new();
        let mut segments = Vec::new();
        for (j, slot) in range.enumerate() {
            let ctx = &s.slots[slot];
            if self.edges[e].arrived[j] || s.absent[slot] || ctx.steps == cfg.tau {
                continue;
            }
            let edge = &self.fl.edges[e];
            let worker = &mut self.fl.workers[slot];
            StatePool::materialize(worker, &edge.x_plus, &edge.y_minus);
            rewound.push(slot);
            segments.push(ctx.segment(cfg, &s.shard_sizes, k, ctx.steps, mem::take(worker)));
        }
        for (slot, seg) in rewound.iter().zip(self.pool.run_segments(segments)) {
            self.fl.workers[*slot] = seg.worker;
        }
    }

    /// The participant source's continuation after edge `e` fired round
    /// `k` at `now`. Registered workers keep a rejoin snapshot and, off
    /// the cloud boundary, get the post-hook slots delivered (after
    /// full-sync evaluation staging); on it they wait for the reply.
    /// Sampled rounds end here off the boundary.
    fn after_edge_fire(
        &mut self,
        e: usize,
        k: usize,
        cloud_round: bool,
        participants: Vec<usize>,
        now: f64,
    ) {
        if self.is_sampled() {
            if !cloud_round {
                self.finish_round(e, k, now);
            }
            return;
        }
        let range = self.fl.hierarchy.edge_workers(e);
        if self.keeps_rejoin_snapshots() {
            self.src.registered().edge_dist[e] = self.fl.workers[range.clone()].to_vec();
        }
        if cloud_round {
            self.src.registered().pending_release[e] = participants;
            return;
        }
        let t = k * self.cfg.tau;
        if self.full_sync() && self.is_eval_tick(t) {
            for flat in range.clone() {
                let x = self.fl.workers[flat].x.clone();
                self.stage_eval(t, flat, x, now);
            }
        }
        for j in participants {
            let flat = range.start + j;
            let payload = Box::new(self.fl.workers[flat].clone());
            self.deliver(flat, payload, now);
        }
    }

    /// Draws edge `e`'s cloud-hop transfer of `bytes` (either direction;
    /// free on two-tier runs) and charges its busy time.
    fn edge_cloud_transfer(&mut self, e: usize, bytes: u64) -> (f64, Option<f64>) {
        let sim = self.sim;
        if sim.architecture == Architecture::TwoTier {
            return (0.0, None);
        }
        let flows = self.edges.len();
        let edge = &mut self.edges[e];
        let d = edge
            .sampler
            .shared_transfer_ms(&sim.env.edge_cloud_link, bytes, flows);
        let link = sim.faults.link.as_ref();
        let (d, dup) = link_transfer(link, Some(&mut edge.fsampler), &mut edge.faults, d);
        edge.busy_ms += d;
        (d, dup)
    }

    fn on_cloud_submit(&mut self, e: usize, p: usize, now: f64) {
        let cloud = &mut self.cloud;
        cloud.last_round[e] = p;
        match self.sim.policy {
            SyncPolicy::FullSync | SyncPolicy::Deadline { .. } if p < cloud.round => {
                // Late: the cloud round fired without this edge (a
                // dead-waived full-sync round, or a Deadline quorum). Its
                // submission carries over in the mailbox.
                self.release_late_edge(e, now);
            }
            SyncPolicy::FullSync => {
                cloud.arrived[e] = true;
                self.maybe_fire_cloud_full(now);
            }
            SyncPolicy::Deadline { timeout_ms, .. } => {
                let first = !cloud.arrived.iter().any(|&a| a);
                cloud.arrived[e] = true;
                if first {
                    let round = cloud.round;
                    self.queue
                        .push(now + timeout_ms, ActorId::Cloud, Ev::CloudTimeout { round });
                }
                self.maybe_fire_cloud_deadline(now);
            }
            SyncPolicy::AsyncAge { .. } => {
                cloud.arrived[e] = true;
                cloud.age[e] = 0;
                self.maybe_fire_cloud_async(now);
            }
        }
    }

    fn on_cloud_timeout(&mut self, round: usize, now: f64) {
        if self.cloud.round != round {
            return;
        }
        self.cloud.timed_out = true;
        self.maybe_fire_cloud_deadline(now);
    }

    /// An edge that will never submit again because every one of its
    /// workers died permanently (and nothing of its is in flight).
    fn edge_perma_dead(&self, l: usize) -> bool {
        !self.edges[l].waiting_cloud && self.edge_all_dead(l)
    }

    /// An edge that can never submit again: a sampled edge that finished
    /// its final round, or a registered one whose workers all hold their
    /// final model (or died permanently) with nothing of its in flight.
    fn edge_exhausted(&self, l: usize) -> bool {
        match &self.src {
            Participants::Registered(r) => {
                !self.edges[l].waiting_cloud
                    && self
                        .fl
                        .hierarchy
                        .edge_workers(l)
                        .all(|i| r.workers[i].done || r.workers[i].dead)
            }
            Participants::Sampled(s) => s.retired[l],
        }
    }

    /// Full-sync cloud barrier with a fault waiver: fires once every edge
    /// has submitted or is permanently dead (at least one submission).
    fn maybe_fire_cloud_full(&mut self, now: f64) {
        let arrived = &self.cloud.arrived;
        if !arrived.iter().any(|&a| a) {
            return;
        }
        let all = (0..arrived.len()).all(|l| arrived[l] || self.edge_perma_dead(l));
        if all {
            self.fire_cloud(now);
        }
    }

    fn maybe_fire_cloud_deadline(&mut self, now: f64) {
        let SyncPolicy::Deadline { quorum, .. } = self.sim.policy else {
            return;
        };
        let arrived = &self.cloud.arrived;
        let have = arrived.iter().filter(|&&a| a).count();
        if have == 0 {
            return;
        }
        // Same quorum re-derivation as the edge barrier: permanently-dead
        // edges leave the denominator.
        let absent_dead = (0..arrived.len())
            .filter(|&l| !arrived[l] && self.edge_perma_dead(l))
            .count();
        let live_total = arrived.len() - absent_dead;
        if have == live_total || (self.cloud.timed_out && have >= quorum_count(quorum, live_total))
        {
            self.fire_cloud(now);
        }
    }

    fn maybe_fire_cloud_async(&mut self, now: f64) {
        let SyncPolicy::AsyncAge { max_staleness } = self.sim.policy else {
            return;
        };
        let cloud = &self.cloud;
        if !cloud.arrived.iter().any(|&a| a) {
            return;
        }
        let blocked = (0..cloud.arrived.len())
            .any(|l| !cloud.arrived[l] && cloud.age[l] >= max_staleness && !self.edge_exhausted(l));
        if !blocked {
            self.fire_cloud(now);
        }
    }

    /// Fires the cloud round with whichever edges have submitted. For
    /// partial rounds the absent edges' mailbox state is snapshotted around
    /// the hook, so the global update reads their carried-over submissions
    /// but does not overwrite state they never received.
    fn fire_cloud(&mut self, now: f64) {
        let strategy = self.strategy;
        let sim = self.sim;
        let l_count = self.cloud.arrived.len();
        let participants: Vec<usize> = (0..l_count).filter(|&l| self.cloud.arrived[l]).collect();
        let p = self.cloud.round;
        let staleness: Vec<usize> = match sim.policy {
            SyncPolicy::FullSync => vec![0; l_count],
            SyncPolicy::Deadline { .. } => self
                .cloud
                .last_round
                .iter()
                .map(|&r| p.saturating_sub(r))
                .collect(),
            SyncPolicy::AsyncAge { .. } => self.cloud.age.clone(),
        };
        let d = self.cloud.sampler.compute_ms(&sim.env.cloud_device);
        self.cloud.busy_ms += d;
        let saved: Vec<_> = (0..l_count)
            .filter(|l| !participants.contains(l))
            .map(|l| {
                let range = self.fl.hierarchy.edge_workers(l);
                (l, self.fl.edges[l].clone(), self.fl.workers[range].to_vec())
            })
            .collect();
        // The edge round this submission closes; `p` counts submission
        // boundaries, which fall every `submit_period` edge rounds.
        let k = p * self.submit_period;
        // Middle tiers (co-hosted here, at the cloud actor) fire bottom-up
        // at their own interval boundaries, exactly as the tick-driven
        // driver does between its edge and cloud phases. They draw no RNG
        // and identity tiers touch no state, so three-tier and
        // pass-through runs are unaffected draw for draw. Each node sees
        // the staleness of its own subtree's edges (its contiguous span of
        // the per-edge vector); all-zero — every FullSync round — is
        // bitwise the synchronous hook, otherwise stale subtree edges are
        // carried over at bounded age (`default_middle_aggregate_stale`).
        if let Some(tree) = &self.tree {
            for td in tree.middle_depths().rev() {
                // Identity tiers fire nothing and record nothing — a
                // pass-through tree must match its collapse bitwise,
                // γ traces included.
                if tree.levels()[td].aggregation == TierAggregation::Identity {
                    continue;
                }
                let period = tree.sync_rounds(td);
                if k.is_multiple_of(period) {
                    let round = k / period;
                    let span = tree.edges_per_node(td);
                    for node in 0..tree.nodes_at(td) {
                        strategy.tier_aggregate_stale(
                            TierScope::Middle {
                                depth: td,
                                node,
                                state: &mut self.fl,
                            },
                            round,
                            &staleness[node * span..(node + 1) * span],
                        );
                    }
                    let tier = &self.fl.middle[td - 1];
                    let mean = tier.iter().map(|s| s.gamma_edge).sum::<f32>() / tier.len() as f32;
                    self.tier_gamma[td - 1].push((round, mean));
                }
            }
        }
        // The root fires only on its own boundary — every submission on
        // three-tier runs, every `π / submit_period`-th on N-tier runs.
        if k.is_multiple_of(self.cfg.pi) {
            strategy.cloud_aggregate_stale(k / self.cfg.pi, &mut self.fl, &staleness);
        }
        if self.keeps_rejoin_snapshots() {
            for l in 0..l_count {
                let range = self.fl.hierarchy.edge_workers(l);
                self.src.registered().cloud_dist[l] = Some(self.fl.workers[range].to_vec());
            }
        }
        for (l, es, ws) in saved {
            self.fl.edges[l] = es;
            let range = self.fl.hierarchy.edge_workers(l);
            self.fl.workers[range].clone_from_slice(&ws);
        }
        if !self.is_sampled() {
            self.evaluate_cloud_round(k, now + d);
        }
        for &l in &participants {
            let (dd, dup) = self.edge_cloud_transfer(l, sim.download_bytes);
            let to = ActorId::Edge(l);
            self.queue
                .push(now + d + dd, to, Ev::CloudReply { edge: l });
            if let Some(lag) = dup {
                self.queue
                    .push(now + d + dd + lag, to, Ev::DupArrival { to });
            }
        }
        let cloud = &mut self.cloud;
        cloud.round += 1;
        cloud.arrived.fill(false);
        cloud.timed_out = false;
        if let SyncPolicy::AsyncAge { .. } = sim.policy {
            for (l, a) in cloud.age.iter_mut().enumerate() {
                if participants.contains(&l) {
                    *a = 0;
                } else {
                    *a += 1;
                }
            }
        }
    }

    /// Registered evaluation at a cloud firing closing edge round `k`:
    /// under full sync on the evaluation grid, under relaxed policies at
    /// every firing. (Sampled runs evaluate per round at the edges.)
    fn evaluate_cloud_round(&mut self, k: usize, at_ms: f64) {
        if !self.full_sync() {
            self.record_relaxed_eval(at_ms);
            return;
        }
        let t = k * self.cfg.tau;
        if self.is_eval_tick(t) {
            let params = self.strategy.global_params(&self.fl);
            let (test, train) = self.pool.evaluate(&params);
            self.evals.push(EvalRec {
                iter: t,
                at_ms,
                test,
                train,
            });
        }
    }

    /// Releases an edge whose submission arrived after its cloud round
    /// fired. A sampled edge keeps its own state and rolls straight on;
    /// a registered edge's waiting workers get the last distributed global
    /// model.
    fn release_late_edge(&mut self, e: usize, now: f64) {
        self.edges[e].waiting_cloud = false;
        if self.is_sampled() {
            self.finish_round(e, self.edges[e].round - 1, now);
            return;
        }
        let offset = self.edge_offset(e);
        let r = self.src.registered();
        let ws = r.cloud_dist[e]
            .clone()
            .expect("late cloud submission implies a prior cloud firing");
        let pending = std::mem::take(&mut r.pending_release[e]);
        r.edge_dist[e] = ws.clone();
        for j in pending {
            self.deliver(offset + j, Box::new(ws[j].clone()), now);
        }
    }

    fn on_cloud_reply(&mut self, e: usize, now: f64) {
        self.edges[e].waiting_cloud = false;
        if self.is_sampled() {
            self.finish_round(e, self.edges[e].round - 1, now);
            return;
        }
        let range = self.fl.hierarchy.edge_workers(e);
        if self.keeps_rejoin_snapshots() {
            // Late joiners from here on get the post-cloud distribution.
            self.src.registered().edge_dist[e] = self.fl.workers[range.clone()].to_vec();
        }
        let pending = std::mem::take(&mut self.src.registered().pending_release[e]);
        for j in pending {
            let flat = range.start + j;
            let payload = Box::new(self.fl.workers[flat].clone());
            self.deliver(flat, payload, now);
        }
        match self.sim.policy {
            SyncPolicy::AsyncAge { .. } => {
                // Arrivals queued while the submission was outstanding.
                self.maybe_fire_edge_async(e, now);
            }
            SyncPolicy::FullSync if self.faults_on => {
                // A death while the submission was outstanding may have
                // satisfied the waived barrier.
                self.maybe_fire_edge_full(e, now);
                self.maybe_fire_cloud_full(now);
            }
            _ => {}
        }
    }

    fn dispatch(&mut self, ev: Ev, now: f64) {
        let sampled = self.is_sampled();
        match ev {
            Ev::StartRound { edge } => self.start_round(edge, now),
            Ev::Arrive { slot, round } => {
                if !self.slot_stale(slot, round) {
                    self.schedule_slot_step(slot, now);
                }
            }
            Ev::Step { worker, round } if sampled => self.on_slot_step(worker, round, now),
            Ev::Step { worker, .. } => self.on_step_done(worker, now),
            Ev::Upload { worker, round } if sampled => self.on_slot_upload(worker, round, now),
            Ev::Upload { worker, .. } => self.on_upload(worker, now),
            Ev::EdgeTimeout { edge, round } => self.on_edge_timeout(edge, round, now),
            Ev::Deliver { worker, state } => self.on_deliver(worker, *state, now),
            Ev::CloudSubmit { edge, round } => self.on_cloud_submit(edge, round, now),
            Ev::CloudTimeout { round } => self.on_cloud_timeout(round, now),
            Ev::CloudReply { edge } => self.on_cloud_reply(edge, now),
            Ev::Recover { worker } => self.on_recover(worker, now),
            Ev::Die { worker } => self.on_die(worker, now),
            Ev::DupArrival { to } => {
                let counters = match (to, &mut self.src) {
                    (ActorId::Worker(i), Participants::Registered(r)) => &mut r.workers[i].faults,
                    (ActorId::Worker(_), Participants::Sampled(s)) => &mut s.faults,
                    (ActorId::Edge(e), _) => &mut self.edges[e].faults,
                    (ActorId::Cloud, _) => &mut self.cloud.faults,
                };
                counters.duplicates_received += 1;
            }
        }
    }

    /// End-of-run safety net: if the queue is dry but a barrier is still
    /// collecting (an async age gate can be left waiting for a child that
    /// exhausted mid-round), force the pending rounds to fire so every
    /// worker is released and the run terminates.
    fn drain_stalled(&mut self) -> bool {
        for e in 0..self.edges.len() {
            if !self.edges[e].waiting_cloud && self.edges[e].arrived.iter().any(|&a| a) {
                self.fire_edge(e, self.now);
                return true;
            }
        }
        if self.cloud.arrived.iter().any(|&a| a) {
            self.fire_cloud(self.now);
            return true;
        }
        false
    }

    fn run(&mut self) {
        let sampled = self.is_sampled();
        if sampled {
            for e in 0..self.edges.len() {
                let start = Ev::StartRound { edge: e };
                self.queue.push(0.0, ActorId::Edge(e), start);
            }
        } else {
            for p in &self.sim.faults.permanent {
                let die = Ev::Die { worker: p.worker };
                self.queue.push(p.at_ms, ActorId::Worker(p.worker), die);
            }
            for i in 0..self.fl.workers.len() {
                self.schedule_step(i, 0.0);
            }
        }
        loop {
            let Some((time, _actor, payload)) = self.queue.pop() else {
                if self.drain_stalled() {
                    continue;
                }
                break;
            };
            // A stale timeout (its round already fired) is a no-op. A
            // registered run skips it without advancing the clock —
            // otherwise a generous deadline inflates the run's end time
            // long after the last real event; a sampled run counts it.
            let stale = match &payload {
                Ev::EdgeTimeout { edge, round } => self.edges[*edge].round != *round,
                Ev::CloudTimeout { round } => self.cloud.round != *round,
                _ => false,
            };
            if stale && !sampled {
                continue;
            }
            self.now = time;
            self.events += 1;
            self.dispatch(payload, time);
        }
        if let Participants::Sampled(s) = &self.src {
            assert!(
                s.retired.iter().all(|&r| r),
                "event queue drained before every edge finished its rounds"
            );
        }
    }

    /// The mailbox federation state at the span's end tick — what an
    /// elastic run's churn transform (and the next span's resume) reads.
    fn final_snapshot(&self) -> TrainingSnapshot {
        TrainingSnapshot {
            algorithm: self.strategy.name().to_string(),
            tick: self.limit,
            workers: self.fl.workers.clone(),
            edges: self.fl.edges.clone(),
            cloud: self.fl.cloud.clone(),
            middle: Vec::new(),
            topology: None,
        }
    }

    /// Builds the result; also returns `(last_iter, firing_seq)` so an
    /// elastic run's next span can continue the relaxed-policy indices.
    fn finish(mut self) -> (SimResult, usize, usize) {
        let strategy = self.strategy;
        if !self.staged_rounds() && self.final_segment {
            // Final state after all deliveries (late arrivals may have
            // landed after the last cloud firing).
            self.record_relaxed_eval(self.now);
        }
        self.evals.sort_by_key(|r| r.iter);
        let mut curve = ConvergenceCurve::new();
        let mut timed = TimedCurve::new();
        for r in &self.evals {
            curve.push(EvalPoint {
                iteration: r.iter,
                train_loss: r.train.loss,
                test_loss: r.test.loss,
                test_accuracy: r.test.accuracy,
            });
            timed.push(TimedPoint {
                seconds: r.at_ms / 1000.0,
                iteration: r.iter,
                train_loss: r.train.loss,
                test_loss: r.test.loss,
                test_accuracy: r.test.accuracy,
            });
        }
        let end_ms = self.now;
        let mut utilization = Vec::new();
        let mut faults = Vec::new();
        let mut tally = |actor: String, busy_ms: f64, counters: FaultCounters| {
            utilization.push(ActorUtilization {
                actor: actor.clone(),
                busy_seconds: busy_ms / 1000.0,
                utilization: if end_ms > 0.0 {
                    (busy_ms / end_ms).min(1.0)
                } else {
                    0.0
                },
            });
            faults.push(ActorFaults { actor, counters });
        };
        // Registered runs tally every actor; sampled runs are O(edges):
        // the slots report as one aggregate "workers" entry and
        // adversaries as one entry per plan entry.
        let mut adversaries = Vec::new();
        let adversary = |actor: String, counters| ActorAdversaries { actor, counters };
        match &self.src {
            Participants::Registered(r) => {
                for (i, w) in r.workers.iter().enumerate() {
                    tally(format!("worker-{i}"), w.busy_ms, w.faults);
                    adversaries.push(adversary(format!("worker-{i}"), w.advers));
                }
            }
            Participants::Sampled(s) => {
                tally("workers".to_string(), s.busy_ms, s.faults);
                let plan = self.cfg.adversary.byzantine.iter().zip(&s.adversaries);
                adversaries
                    .extend(plan.map(|(b, c)| adversary(format!("worker-{}", b.worker), *c)));
            }
        }
        for (l, e) in self.edges.iter().enumerate() {
            tally(format!("edge-{l}"), e.busy_ms, e.faults);
        }
        tally("cloud".to_string(), self.cloud.busy_ms, self.cloud.faults);
        if !self.is_sampled() {
            let idle = (0..self.edges.len())
                .map(|l| format!("edge-{l}"))
                .chain(["cloud".to_string()]);
            adversaries.extend(idle.map(|actor| adversary(actor, AdversaryCounters::default())));
        }
        let final_params = match self.src {
            Participants::Registered(_) => strategy.global_params(&self.fl),
            Participants::Sampled(_) => virtual_global_params(&self.fl),
        };
        let result = SimResult {
            algorithm: strategy.name().to_string(),
            policy: self.sim.policy.label(),
            curve,
            timed_curve: timed,
            gamma_trace: self.gamma_trace,
            cos_trace: self.cos_trace,
            tier_gamma: self.tier_gamma,
            final_params,
            simulated_seconds: end_ms / 1000.0,
            utilization,
            faults,
            adversaries,
            events: self.events,
            topology: TopologyCounters::default(),
        };
        (result, self.last_iter, self.firing_seq)
    }
}

/// Runs `strategy` under the co-simulation: same training semantics as
/// [`hieradmo_core::run`] (bitwise-identical under
/// [`SyncPolicy::FullSync`]), but every compute and transfer charges
/// virtual time drawn from `sim.env`, and aggregation fires per
/// `sim.policy` rather than at a global barrier.
///
/// # Errors
///
/// Returns [`SimError`] if the config, schedule, topology, data, network
/// environment or policy are inconsistent — the same pre-flight checks as
/// the core driver plus the network/policy ones.
pub fn simulate<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<SimResult, SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let span = Span::full(cfg);
    simulate_span(
        strategy,
        model,
        hierarchy,
        worker_data,
        test_data,
        cfg,
        sim,
        span,
    )
    .map(|(result, ..)| result)
}

/// The checks every entry point shares: the config itself, a frozen tree
/// (churn runs through [`crate::simulate_elastic`], whose epochs arrive
/// here with an empty plan), and the tier tree's `(τ, π)` against the
/// config.
pub(crate) fn validate_run(cfg: &RunConfig, sim: &SimConfig) -> Result<(), SimError> {
    cfg.validate()
        .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    if !cfg.churn.is_empty() {
        return Err(SimError::Run(RunError::BadConfig(
            "the frozen-tree co-simulation cannot apply a non-empty ChurnPlan; \
             run registered workers through crate::simulate_elastic"
                .into(),
        )));
    }
    if let Some(tree) = &sim.tiers {
        if tree.tau() != cfg.tau || tree.pi_total() != cfg.pi {
            return Err(SimError::Run(RunError::BadConfig(format!(
                "config (tau = {}, pi = {}) disagrees with the tier tree \
                 (tau = {}, pi_total = {})",
                cfg.tau,
                cfg.pi,
                tree.tau(),
                tree.pi_total()
            ))));
        }
    }
    Ok(())
}

/// The registered-worker pre-flight checks: everything
/// [`validate_run`] checks, plus the hierarchy against its data, tree,
/// fault and adversary plans, policy and device profiles.
fn validate_registered<S>(
    strategy: &S,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<(), SimError>
where
    S: Strategy + ?Sized,
{
    validate_run(cfg, sim)?;
    strategy
        .check_topology(hierarchy)
        .map_err(|m| SimError::Run(RunError::Topology(m)))?;
    if worker_data.len() != hierarchy.num_workers() {
        return Err(SimError::Run(RunError::Data(format!(
            "{} worker datasets for {} workers",
            worker_data.len(),
            hierarchy.num_workers()
        ))));
    }
    if let Some(i) = worker_data.iter().position(Dataset::is_empty) {
        return Err(SimError::Run(RunError::Data(format!(
            "worker {i} has no data"
        ))));
    }
    Schedule::three_tier(cfg.tau, cfg.pi, cfg.total_iters)
        .map_err(|e| SimError::Run(RunError::Schedule(e)))?;
    sim.faults.validate().map_err(SimError::Fault)?;
    for p in &sim.faults.permanent {
        if p.worker >= hierarchy.num_workers() {
            return Err(SimError::Fault(format!(
                "permanent crash targets worker {} but the topology has {} workers",
                p.worker,
                hierarchy.num_workers()
            )));
        }
    }
    for b in &cfg.adversary.byzantine {
        if b.worker >= hierarchy.num_workers() {
            return Err(SimError::Adversary(format!(
                "attack targets worker {} but the topology has {} workers",
                b.worker,
                hierarchy.num_workers()
            )));
        }
    }
    sim.validate(None).map_err(SimError::Policy)?;
    if let Some(tree) = &sim.tiers {
        if tree.num_edges() != hierarchy.num_edges()
            || tree.num_workers() != hierarchy.num_workers()
        {
            return Err(SimError::Run(RunError::Topology(format!(
                "tier tree spans {} edges / {} workers but the hierarchy \
                 has {} / {}",
                tree.num_edges(),
                tree.num_workers(),
                hierarchy.num_edges(),
                hierarchy.num_workers()
            ))));
        }
    }
    for e in 0..hierarchy.num_edges() {
        sim.policy
            .validate_for_children(hierarchy.workers_in_edge(e))
            .map_err(SimError::Policy)?;
    }
    sim.policy
        .validate_for_children(hierarchy.num_edges())
        .map_err(SimError::Policy)?;
    if sim.env.worker_devices.len() != hierarchy.num_workers() {
        return Err(SimError::Net(format!(
            "{} device profiles for {} workers",
            sim.env.worker_devices.len(),
            hierarchy.num_workers()
        )));
    }
    Ok(())
}

/// Runs one span of registered workers: the whole of a [`simulate`], or
/// one topology-epoch segment of an elastic co-simulation — ticks
/// `(span.start, span.limit]` against `hierarchy` (the segment's frozen
/// tree), resuming the mailbox from `span.resume`. Returns the span's
/// result, the end-of-span snapshot (what the churn transform mutates),
/// and the relaxed-policy index carry-overs `(iter_base, firing_base)`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn simulate_span<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
    span: Span<'_>,
) -> Result<(SimResult, TrainingSnapshot, usize, usize), SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    validate_registered(strategy, hierarchy, worker_data, cfg, sim)?;
    let samples: Vec<u64> = worker_data.iter().map(|d| d.len() as u64).collect();
    let weights = Weights::from_samples(hierarchy, &samples);
    let fl = initial_state(
        strategy,
        &model.params(),
        hierarchy.clone(),
        weights,
        sim.tiers.as_ref(),
        cfg,
        span.resume,
    );
    let src = Participants::Registered(Registered::new(worker_data, &fl, cfg, sim, span.start));
    let train_probe = build_train_probe(worker_data, cfg.train_eval_cap);
    let ctx = ExecCtx {
        strategy,
        cfg,
        worker_data,
        test_data,
        train_probe: &train_probe,
    };
    std::thread::scope(|scope| {
        let pool = Pool::new(scope, ctx, model, fl.workers.len());
        let mut engine = Engine::new(pool, fl, src, sim, span);
        engine.run();
        let snapshot = engine.final_snapshot();
        let (result, iter_base, firing_base) = engine.finish();
        Ok((result, snapshot, iter_base, firing_base))
    })
}

/// Runs sampled cohorts of `population` — already validated by
/// [`crate::simulate_virtual`] — over the per-edge `cohort` sizes, on
/// `tree` (the registered tree with its leaf fanout swapped for the
/// uniform cohort size) when this is an N-tier run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_sampled<M, S>(
    strategy: &S,
    model: &M,
    population: &WorkerPopulation,
    shards: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
    hierarchy: Hierarchy,
    tree: Option<TierTree>,
) -> SimResult
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let shard_sizes: Vec<u64> = shards.iter().map(|d| d.len() as u64).collect();
    let edge_totals = population.edge_data_samples(&shard_sizes);
    let slots = hierarchy.num_workers();
    let l_count = hierarchy.num_edges();
    let weights = Weights::from_cohort(&hierarchy, &vec![1u64; slots], edge_totals);
    // Placeholder slot contexts; every field but the edge is rebuilt at
    // each round's materialization.
    let slot_ctxs = (0..l_count)
        .flat_map(|e| (0..hierarchy.workers_in_edge(e)).map(move |_| e))
        .map(|edge| SlotCtx {
            gid: 0,
            edge,
            shard: 0,
            steps: 0,
            delays: DelaySampler::from_stream(sim.net_seed, 0),
            fsampler: None,
            dropped: vec![false; cfg.tau],
            attack: None,
        })
        .collect();
    let sampler = match &sim.tiers {
        Some(tree) => CohortSampler::for_tree(cfg.seed, tree),
        None => CohortSampler::new(cfg.seed),
    };
    let src = Sampled {
        population,
        shard_sizes,
        sampler,
        slots: slot_ctxs,
        absent: vec![false; slots],
        retired: vec![false; l_count],
        busy_ms: 0.0,
        faults: FaultCounters::default(),
        permanent_counted: vec![false; sim.faults.permanent.len()],
        adversaries: vec![AdversaryCounters::default(); cfg.adversary.byzantine.len()],
    };
    let fl = initial_state(
        strategy,
        &model.params(),
        hierarchy,
        weights,
        tree.as_ref(),
        cfg,
        None,
    );
    let train_probe = build_train_probe(shards, cfg.train_eval_cap);
    let ctx = ExecCtx {
        strategy,
        cfg,
        worker_data: shards,
        test_data,
        train_probe: &train_probe,
    };
    std::thread::scope(|scope| {
        let pool = Pool::new(scope, ctx, model, slots);
        let mut engine = Engine::new(pool, fl, Participants::Sampled(src), sim, Span::full(cfg));
        engine.run();
        engine.finish().0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_count_ceils_and_clamps() {
        assert_eq!(quorum_count(0.5, 4), 2);
        assert_eq!(quorum_count(0.5, 3), 2);
        assert_eq!(quorum_count(0.01, 4), 1);
        assert_eq!(quorum_count(1.0, 4), 4);
        assert_eq!(quorum_count(0.0, 4), 1, "clamped to at least one");
    }
}
