//! The co-simulation engine: the real training functions under a virtual
//! clock, behind every `simrt` entry point.
//!
//! # One engine, two participant sources
//!
//! [`simulate`] and [`crate::simulate_virtual`] run through one event
//! engine over core's participant source, [`Participants`], the one the
//! tick loop holds too. The source lays out the federation, positions
//! every registered worker's batcher, dropout RNG and adversary stream at
//! a topology epoch's first tick ([`Participants::streams`]), draws a
//! sampled edge's cohort and writes its slots' streams at each round
//! start ([`Participants::draw_cohort`]), owns a churn run's topology and
//! crosses its boundaries ([`Participants::cross`]), and names the global
//! model. Beside it the engine keeps only its worker actors:
//!
//! - **Registered** — persistent worker actors, each stepping on the
//!   batcher the source positioned and the epoch's dropout table drawn
//!   from the source's dropout RNG, with crash/recover/die events and
//!   rejoin snapshots, one `Step` event at a time. A straggler carries
//!   over into the next round.
//! - **Sampled** — per-round cohort slots whose occupants and training
//!   streams (batcher, dropout mask, adversary) the source hands over at
//!   round start in a [`Streams`]; per slot the actor keeps only the
//!   occupant id, its step count and its `(worker, round)` delay and fault
//!   streams. Absence is decided when the cohort is drawn, and `Step`
//!   events only advance the clock. The slots' segments are computed when
//!   their edge fires, in parallel on the pool, each lane materializing
//!   its slot from the edge's download pair first. A straggler is waived
//!   at the end of its round (see [`crate::vpop`]).
//!
//! The engine consults its actors only at round start and step
//! scheduling, the upload's mailbox write, the slots' fill before an
//! edge's hook and their release after it, the continuation after an edge
//! fires, the slots a partial cloud firing restores, a late cloud
//! submission, the barriers' per-child waivers, evaluation staging and the
//! result's actor tallies. The event loop, the round barrier the edges and
//! the cloud share (`barrier::Barrier`), the cloud actor with its middle
//! tiers, γ staging, link transfers and result assembly exist once. Every
//! firing reaches the strategy through `Strategy::tier_aggregate_stale`.
//!
//! # How the trajectory stays bitwise-faithful
//!
//! The engine keeps the canonical [`FlState`] as the *server-side mailbox*:
//! registered worker actors own private training state (the batch stream
//! the shared participant source positions, and their [`WorkerState`]);
//! an upload moves the actor's state into its `FlState`
//! slot; aggregation hooks run against `FlState` through the same
//! `EdgeView` the core driver uses; and a download ships a snapshot of the
//! post-hook slot back to the actor. Under [`SyncPolicy::FullSync`] the mailbox therefore
//! undergoes *exactly* the mutation sequence of [`hieradmo_core::run`] —
//! same gradient path (batch draw, clipping, `local_step`), same
//! aggregation order, same fixed-chunk ordered evaluation reduction — so
//! the final model, convergence curve and γℓ diagnostics are bitwise
//! identical; only the time axis is new. Sampled slots are round-scoped
//! ([`FlState::with_round_scoped_slots`]) and zero-dimensional outside
//! their edge's firing: it computes each slot's segment over the steps
//! the slot has taken, its buffers are released right after the hook, so
//! no hook's distribution into them is ever read and only one edge's
//! cohort is resident at a time (see `Engine::fill_slots`).
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
use std::rc::Rc;

use hieradmo_core::byzantine::corrupt_upload;
use hieradmo_core::driver::{
    aggregate_above_edges, check_tree_schedule, initial_state, Adversary, Layout, Participants,
    StepCtx, Streams,
};
use hieradmo_core::elastic::Churn;
use hieradmo_core::pool::{ExecCtx, Pool, Segment};
use hieradmo_core::population::{delay_stream, fault_stream, weighted_edge_average};
use hieradmo_core::{FlState, RunConfig, RunError, Strategy, TierScope, WorkerState};
use hieradmo_data::{Batcher, Dataset};
use hieradmo_metrics::{
    ActorAdversaries, ActorFaults, ActorUtilization, AdversaryCounters, ConvergenceCurve,
    EvalPoint, FaultCounters, TimedCurve, TimedPoint, TopologyCounters,
};
use hieradmo_models::{Evaluation, Model};
use hieradmo_netsim::{Architecture, DelaySampler, FaultSampler, LinkFaults};
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierAggregation};
use rand::Rng;

use crate::barrier::{Arrival, Barrier};
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
    /// Topology-churn tallies. All-zero on frozen-tree runs; populated
    /// when a [`hieradmo_core::RunConfig::churn`] plan mutates the tree
    /// mid-run ([`hieradmo_core::elastic`]).
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
    /// it; the snapshot is shared with the rejoin points).
    Deliver {
        worker: usize,
        state: Rc<WorkerState>,
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
    /// The registered uid: the worker's dataset, device profile, permanent
    /// crashes and tally identity (the flat position on a frozen tree).
    uid: usize,
    /// The mini-batch stream the participant source positioned.
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
    /// point after a crash: the delivered snapshot itself, shared, not a
    /// copy. Maintained only when faults are on.
    chain: Option<(usize, Rc<WorkerState>)>,
    faults: FaultCounters,
    /// `Some` when this worker is Byzantine: every upload it lands is
    /// corrupted in the server-side mailbox before aggregation, from the
    /// adversary stream the participant source positioned.
    adversary: Option<Adversary>,
    advers: AdversaryCounters,
}

/// The network side of one sampled cohort slot, rebuilt from `(seed,
/// worker_id, round)` at every round start; its training streams live in
/// the actor's [`Streams`].
struct SlotCtx {
    /// Global (population) id of the worker occupying the slot this round.
    gid: u64,
    /// The slot's edge (fixed: the cohort hierarchy is constant).
    edge: usize,
    /// `Step` events processed this round: the length of the segment the
    /// edge's firing computes for the slot.
    steps: usize,
    /// This round's private delay stream.
    delays: DelaySampler,
    /// This round's private fault stream (`None` when the plan is empty,
    /// so fault-free runs draw nothing).
    fsampler: Option<FaultSampler>,
}

/// An edge actor: its workers' round barrier plus its clock and link
/// bookkeeping.
struct EdgeSim {
    barrier: Barrier,
    /// A cloud submission is outstanding; firing is paused.
    waiting_cloud: bool,
    sampler: DelaySampler,
    busy_ms: f64,
    /// Fault draws for this edge's cloud-hop transfers (both directions:
    /// link-fault tallies live at the non-root endpoint of each hop).
    fsampler: FaultSampler,
    faults: FaultCounters,
}

/// The cloud actor: the edges' parent, collecting their submissions
/// through the same [`Barrier`] an edge collects its workers' uploads
/// with.
struct CloudSim {
    barrier: Barrier,
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
    /// The tick the topology epoch starts at.
    start: usize,
    /// The epoch's dropout decisions, `(tick - start - 1) * N + worker`,
    /// in the tick loop's draw order; empty when dropout is zero.
    active: Vec<bool>,
    /// Per edge: local workers to release when the cloud replies.
    pending_release: Vec<Vec<usize>>,
    /// Per edge: post-hook worker slots of its last firing — what a
    /// late-rejoining worker is handed. Shared with the firing's payloads.
    edge_dist: Vec<Vec<Rc<WorkerState>>>,
    /// Per edge: post-hook worker slots from the last cloud firing, kept
    /// for the edges that missed it and handed to one when its late
    /// submission lands. An edge with a submission in flight took part in
    /// no firing since, so a late edge always finds its slots here.
    cloud_dist: Vec<Option<Vec<Rc<WorkerState>>>>,
}

/// Sampled participants: per-round cohort slots over the source's
/// virtual population. Actor tallies are `O(edges)`: the slots report as
/// one aggregate worker entry, adversaries as one entry per plan entry.
struct Sampled {
    slots: Vec<SlotCtx>,
    /// Every slot's step context, dropout mask and adversary, written by
    /// the source at its edge's round start
    /// ([`Participants::draw_cohort`]); an edge's firing takes the step
    /// contexts.
    streams: Streams,
    /// Slot buffers between firings: an edge's firing pops one per slot
    /// and returns them after its hook.
    spare: Vec<WorkerState>,
    /// Per slot: crashed when the cohort was drawn, absent for the round.
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

/// The worker actors of the participant source's current topology epoch:
/// the one thing the engine schedules differently for a materialized
/// co-simulation and a sampled one.
enum Actors {
    Registered(Registered),
    Sampled(Sampled),
}

impl Actors {
    fn registered(&mut self) -> &mut Registered {
        match self {
            Actors::Registered(r) => r,
            Actors::Sampled(_) => unreachable!("registered-worker event in a sampled run"),
        }
    }

    fn sampled(&mut self) -> &mut Sampled {
        match self {
            Actors::Sampled(s) => s,
            Actors::Registered(_) => unreachable!("cohort-slot event in a registered run"),
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
    /// Who takes part: the layout, streams and churn epochs.
    source: Participants<'a>,
    /// The source's worker actors in the current topology epoch.
    actors: Actors,
    fl: FlState,
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
    /// Tick the current topology epoch runs to (`total_iters` on
    /// frozen-tree runs).
    limit: usize,
    /// Evaluations of the closed topology epochs, on the run's clock.
    curve: ConvergenceCurve,
    timed_curve: TimedCurve,
    /// The tallies of a churn run's closed epochs.
    elastic: Option<Elastic>,
}

/// What a churn run's closed epochs leave behind. Every epoch's virtual
/// clock restarts at 0; `base_ms` is where it starts on the run's clock.
#[derive(Default)]
struct Elastic {
    /// Virtual time of the closed epochs.
    base_ms: f64,
    /// Per-actor tallies of the closed epochs, by stable identity.
    totals: BTreeMap<ActorKey, ActorTotals>,
}

/// Stable actor identity across topology epochs: workers by uid sort
/// before edges by stable id, edges before the cloud.
type ActorKey = (u8, usize);

/// One actor's tallies summed over topology epochs.
#[derive(Default)]
struct ActorTotals {
    busy_seconds: f64,
    faults: FaultCounters,
    adversaries: AdversaryCounters,
}

impl ActorTotals {
    fn add(&mut self, busy_ms: f64, faults: &FaultCounters, adversaries: &AdversaryCounters) {
        self.busy_seconds += busy_ms / 1000.0;
        self.faults.merge(faults);
        self.adversaries.merge(adversaries);
    }
}

fn actor_label(&(kind, id): &ActorKey) -> String {
    match kind {
        0 => format!("worker-{id}"),
        1 => format!("edge-{id}"),
        _ => "cloud".to_string(),
    }
}

/// One shared, immutable snapshot per worker slot: what a download
/// carries and what a rejoining worker restores from.
fn snapshot(workers: &[WorkerState]) -> Vec<Rc<WorkerState>> {
    workers.iter().map(|w| Rc::new(w.clone())).collect()
}

impl Registered {
    /// One worker actor per mailbox slot of `fl`, for the topology epoch
    /// from tick `start` to `limit`. Every actor trains on the step stream
    /// and adversary stream that `source` positions at `start`
    /// ([`Participants::streams`]), exactly as a core resume there would;
    /// the epoch's dropout table continues the dropout RNG the streams
    /// leave behind, for the epoch's ticks only, and stays empty at
    /// dropout zero, where the tick loop draws nothing either.
    fn new(
        source: &Participants<'_>,
        fl: &FlState,
        cfg: &RunConfig,
        sim: &SimConfig,
        start: usize,
        limit: usize,
    ) -> Self {
        let hierarchy = &fl.hierarchy;
        let n = hierarchy.num_workers();
        let l_count = hierarchy.num_edges();
        let edge_of = (0..l_count)
            .flat_map(|e| hierarchy.edge_workers(e).map(move |_| e))
            .collect();
        let Streams {
            ctxs,
            adversaries,
            mut dropout,
            ..
        } = source.streams(cfg, fl, start);
        let active = if cfg.dropout == 0.0 {
            Vec::new()
        } else {
            (0..(limit - start) * n)
                .map(|_| dropout.gen_range(0.0..1.0) >= cfg.dropout)
                .collect()
        };
        let faults_on = !sim.faults.is_empty();
        // The starting mailbox is every worker's first rejoin point.
        let snapshots = snapshot(&fl.workers);
        let workers = ctxs
            .into_iter()
            .zip(adversaries)
            .enumerate()
            .map(|(i, (ctx, adversary))| {
                let StepCtx { data, batcher, .. } = ctx.expect("registered slots hold a stream");
                WorkerSim {
                    state: fl.workers[i].clone(),
                    uid: data,
                    batcher,
                    tick: start,
                    sampler: DelaySampler::from_stream(sim.net_seed, i as u64),
                    busy_ms: 0.0,
                    done: false,
                    fsampler: FaultSampler::from_stream(sim.net_seed, i as u64),
                    down: false,
                    dead: false,
                    chain: faults_on.then(|| (start, Rc::clone(&snapshots[i]))),
                    faults: FaultCounters::default(),
                    adversary,
                    advers: AdversaryCounters::default(),
                }
            })
            .collect();
        Registered {
            workers,
            edge_of,
            start,
            active,
            pending_release: vec![Vec::new(); l_count],
            edge_dist: (0..l_count)
                .map(|e| snapshots[hierarchy.edge_workers(e)].to_vec())
                .collect(),
            cloud_dist: vec![None; l_count],
        }
    }

    /// Whether worker `i` steps at tick `t` rather than drop out.
    fn active(&self, t: usize, i: usize) -> bool {
        self.active.is_empty() || self.active[(t - self.start - 1) * self.workers.len() + i]
    }
}

impl Sampled {
    /// The cohort slots of `fl`'s edges, their contexts placeholders
    /// until each round start rebuilds every field but the edge, and
    /// `source`'s streams for them, empty until then.
    fn new(source: &Participants<'_>, fl: &FlState, cfg: &RunConfig, sim: &SimConfig) -> Self {
        let hierarchy = &fl.hierarchy;
        let l_count = hierarchy.num_edges();
        let slots = (0..l_count)
            .flat_map(|e| hierarchy.edge_workers(e).map(move |_| e))
            .map(|edge| SlotCtx {
                gid: 0,
                edge,
                steps: 0,
                delays: DelaySampler::from_stream(sim.net_seed, 0),
                fsampler: None,
            })
            .collect();
        Sampled {
            slots,
            streams: source.streams(cfg, fl, 0),
            spare: Vec::new(),
            absent: vec![false; hierarchy.num_workers()],
            retired: vec![false; l_count],
            busy_ms: 0.0,
            faults: FaultCounters::default(),
            permanent_counted: vec![false; sim.faults.permanent.len()],
            adversaries: vec![AdversaryCounters::default(); cfg.adversary.byzantine.len()],
        }
    }
}

/// The tick a topology epoch starting after tick `t` runs to: the churn
/// plan's next boundary, or the run's end.
fn epoch_end(source: &Participants<'_>, t: usize, cfg: &RunConfig) -> usize {
    source
        .churn()
        .and_then(|c| c.next_boundary(t))
        .unwrap_or(cfg.total_iters)
}

impl<'a, M, S> Engine<'a, M, S>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    /// Lays the worker, edge and cloud actors out around the mailbox `fl`
    /// and its participant `source`, on `pool`, for the source's first
    /// topology epoch.
    fn new(
        pool: Pool<'a, M, S>,
        fl: FlState,
        source: Participants<'a>,
        sim: &'a SimConfig,
    ) -> Self {
        let ExecCtx { strategy, cfg, .. } = pool.ctx();
        // Edges submit cloud-wards at every boundary where some tier above
        // them mutates state; identity middles are free, so a pure
        // pass-through tree keeps the three-tier submission cadence (and
        // every delay stream) untouched.
        let submit_period = fl
            .tree
            .as_ref()
            .and_then(|tree| {
                tree.middle_depths()
                    .filter(|&d| tree.levels()[d].aggregation != TierAggregation::Identity)
                    .map(|d| tree.sync_rounds(d))
                    .min()
            })
            .unwrap_or(cfg.pi);
        let tier_gamma = vec![Vec::new(); fl.middle.len()];
        let limit = epoch_end(&source, 0, cfg);
        let actors = match source {
            Participants::Registered { .. } => {
                Actors::Registered(Registered::new(&source, &fl, cfg, sim, 0, limit))
            }
            Participants::Sampled { .. } => Actors::Sampled(Sampled::new(&source, &fl, cfg, sim)),
        };
        let sampled = matches!(actors, Actors::Sampled(_));
        let (edges, cloud) = Engine::<M, S>::aggregators(&fl, sampled, cfg, sim, submit_period, 0);
        let elastic = source.churn().map(|_| Elastic::default());
        Engine {
            strategy,
            cfg,
            sim,
            pool,
            source,
            actors,
            fl,
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
            firing_seq: 0,
            last_iter: 0,
            faults_on: !sim.faults.is_empty(),
            limit,
            curve: ConvergenceCurve::new(),
            timed_curve: TimedCurve::new(),
            elastic,
        }
    }

    /// The edge and cloud actors of the tree in `fl`, their barriers
    /// positioned at tick `start`. Registered actors number their delay
    /// and fault streams flat (workers, then edges, then the cloud);
    /// sampled runs key the edges and the cloud off salted seeds, so no
    /// stream depends on the population size.
    fn aggregators(
        fl: &FlState,
        sampled: bool,
        cfg: &RunConfig,
        sim: &SimConfig,
        submit_period: usize,
        start: usize,
    ) -> (Vec<EdgeSim>, CloudSim) {
        let n = fl.workers.len();
        let l_count = fl.hierarchy.num_edges();
        let net = sim.net_seed;
        let (edge_seed, edge_fault_seed, edge_base, cloud_seed, cloud_stream) = if sampled {
            (
                net ^ SALT_EDGE_STREAM,
                net ^ SALT_EDGE_FAULT_STREAM,
                0,
                net ^ SALT_CLOUD_STREAM,
                0,
            )
        } else {
            (net, net, n, net, n + l_count)
        };
        let edge_rounds_done = start / cfg.tau;
        let cloud_rounds_done = start / (cfg.tau * submit_period);
        let edges = (0..l_count)
            .map(|e| {
                let c = fl.hierarchy.workers_in_edge(e);
                let stream = (edge_base + e) as u64;
                EdgeSim {
                    barrier: Barrier::new(sim.policy, c, edge_rounds_done),
                    waiting_cloud: false,
                    sampler: DelaySampler::from_stream(edge_seed, stream),
                    busy_ms: 0.0,
                    fsampler: FaultSampler::from_stream(edge_fault_seed, stream),
                    faults: FaultCounters::default(),
                }
            })
            .collect();
        let cloud = CloudSim {
            barrier: Barrier::new(sim.policy, l_count, cloud_rounds_done),
            sampler: DelaySampler::from_stream(cloud_seed, cloud_stream as u64),
            busy_ms: 0.0,
            faults: FaultCounters::default(),
        };
        (edges, cloud)
    }

    fn full_sync(&self) -> bool {
        matches!(self.sim.policy, SyncPolicy::FullSync)
    }

    fn is_eval_tick(&self, t: usize) -> bool {
        t.is_multiple_of(self.cfg.eval_every) || t == self.cfg.total_iters
    }

    fn is_sampled(&self) -> bool {
        matches!(self.actors, Actors::Sampled(_))
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
        match &self.actors {
            Actors::Registered(r) => r.workers[i].dead,
            Actors::Sampled(_) => false,
        }
    }

    /// Draws a registered worker's up/down transfer delay (including
    /// retry/backoff penalties when link faults are on) and charges its
    /// busy time. Returns `(delay_ms, duplicate_lag_ms)`.
    fn worker_transfer(&mut self, i: usize, bytes: u64) -> (f64, Option<f64>) {
        let sim = self.sim;
        let hierarchy = &self.fl.hierarchy;
        let r = self.actors.registered();
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
        let w = &mut self.actors.registered().workers[i];
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
        let r = self.actors.registered();
        // Device profiles form a pool: uid `u` computes on profile
        // `u mod pool size` (one profile per worker on a frozen tree).
        let w = &mut r.workers[i];
        let device = &sim.env.worker_devices[w.uid % sim.env.worker_devices.len()];
        let mut d = w.sampler.compute_ms(device);
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
    fn deliver(&mut self, flat: usize, state: Rc<WorkerState>, now: f64) {
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
        let r = self.actors.registered();
        let w = &r.workers[i];
        if w.dead || w.down {
            return; // step was in flight when the worker crashed
        }
        let t = w.tick + 1;
        let active = r.active(t, i);
        let w = &mut r.workers[i];
        w.tick = t;
        if active {
            self.pool.step(t, &mut w.state, w.uid, &mut w.batcher);
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
                    Architecture::ThreeTier => ActorId::Edge(self.actors.registered().edge_of[i]),
                    Architecture::TwoTier => ActorId::Cloud,
                };
                self.queue.push(now + d + lag, to, Ev::DupArrival { to });
            }
        } else {
            if self.full_sync() && self.is_eval_tick(t) {
                let x = self.actors.registered().workers[i].state.x.clone();
                self.stage_eval(t, i, x, now);
            }
            self.schedule_step(i, now);
        }
    }

    fn on_upload(&mut self, i: usize, now: f64) {
        let r = self.actors.registered();
        let w = &mut r.workers[i];
        if w.dead {
            // The sender died while its upload was in flight: lost.
            w.faults.lost_uploads += 1;
            return;
        }
        let e = r.edge_of[i];
        let k_up = w.tick / self.cfg.tau;
        // Mailbox write: the server-side slot now holds the upload. A swap,
        // not a copy: the worker idles until a Deliver or Recover
        // overwrites its private state, so the old slot it gets back is
        // never read.
        mem::swap(&mut self.fl.workers[i], &mut w.state);
        // A Byzantine worker poisons the upload in flight: the corruption
        // lands on the mailbox slot (what aggregation reads), never on the
        // actor's private state — under full sync this is exactly the core
        // driver's corrupt-before-aggregate, because the post-hook slot is
        // shipped back wholesale on the download. One draw per landed
        // upload keeps the per-worker stream aligned with the core driver's
        // per-boundary draws.
        if let Some((attack, sampler, _)) = &mut w.adversary {
            corrupt_upload(&mut self.fl.workers[i], attack, sampler, &mut w.advers);
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
        let r = self.actors.registered();
        if waiting {
            r.pending_release[e].push(j);
        } else {
            let payload = Rc::clone(&r.edge_dist[e][j]);
            self.deliver(flat, payload, now);
        }
    }

    fn on_deliver(&mut self, flat: usize, state: Rc<WorkerState>, now: f64) {
        let faults_on = self.faults_on;
        let limit = self.limit;
        let w = &mut self.actors.registered().workers[flat];
        if w.dead {
            return; // delivery raced the worker's permanent death
        }
        w.state.clone_from(&state);
        if faults_on {
            w.chain = Some((w.tick, state));
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
        let w = &mut self.actors.registered().workers[i];
        if w.dead || !w.down {
            return;
        }
        w.down = false;
        let (tick, state) = w
            .chain
            .as_ref()
            .expect("fault injection keeps a rejoin snapshot");
        w.tick = *tick;
        w.state.clone_from(state);
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
        let r = self.actors.registered();
        let e = r.edge_of[i];
        let w = &mut r.workers[i];
        if w.dead || w.done {
            return;
        }
        w.dead = true;
        w.down = false;
        w.faults.crashes += 1;
        if self.full_sync() {
            // Stages first (they evaluate at `now`), then barriers (their
            // evaluations land after aggregation compute).
            let ts: Vec<usize> = self.pending_evals.keys().copied().collect();
            for t in ts {
                self.try_finish_eval(t, now);
            }
            let ks: Vec<usize> = self.gamma_stage.keys().copied().collect();
            for k in ks {
                self.try_finish_gamma(k);
            }
        }
        self.maybe_fire_edge(e, now);
        self.maybe_fire_cloud(now);
    }

    /// Round start of sampled edge `e`: the source draws its cohort and
    /// writes the slots' streams ([`Participants::draw_cohort`]); here each
    /// occupant's absence is decided up front and the downloads charged.
    /// The slots' `Step` events only advance the virtual clock; their
    /// segments are computed when the edge fires.
    fn start_round(&mut self, e: usize, now: f64) {
        let sim = self.sim;
        let faults_on = self.faults_on;
        let k = self.edges[e].barrier.round();
        let range = self.fl.hierarchy.edge_workers(e);
        let s = self.actors.sampled();
        let ids = self
            .source
            .draw_cohort(self.cfg, &mut self.fl, e, k, &mut s.streams);
        let mut live = false;
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
            self.edges[e].barrier.refill(j);
            let ctx = &mut s.slots[slot];
            ctx.gid = g;
            ctx.steps = 0;
            ctx.delays = DelaySampler::from_stream(sim.net_seed, delay_stream(g, k as u64));
            ctx.fsampler = fsampler;
            if absent {
                s.faults.lost_uploads += 1;
                continue; // down for the round: no download, no steps
            }
            live = true;
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
        if !live {
            // Every sampled participant is down: the round fires empty and
            // the edge relays its carried state at the boundaries, so no
            // barrier above can deadlock on it.
            self.fire_edge(e, now);
        }
    }

    /// A slot event from a round that already fired — a straggler to be
    /// discarded (its slot re-materializes in the next round).
    fn slot_stale(&mut self, slot: usize, round: usize) -> bool {
        let e = self.actors.sampled().slots[slot].edge;
        self.edges[e].barrier.round() != round
    }

    fn schedule_slot_step(&mut self, slot: usize, now: f64) {
        let sim = self.sim;
        let s = self.actors.sampled();
        let ctx = &mut s.slots[slot];
        let step = Ev::Step {
            worker: slot,
            round: self.edges[ctx.edge].barrier.round(),
        };
        if s.streams.masks[slot][ctx.steps] {
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
        let s = self.actors.sampled();
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
        // The upload's mailbox write, and a Byzantine slot's poisoning,
        // happen when the edge fires (`fill_slots`).
        let e = self.actors.sampled().slots[slot].edge;
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
            self.actors.sampled().retired[e] = true;
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
        let width = match &self.actors {
            Actors::Registered(r) => r.workers.len(),
            Actors::Sampled(_) => self.edges.len(),
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
        let params = match self.actors {
            Actors::Registered(_) => {
                Vector::weighted_average(stage.xs.iter().enumerate().map(|(i, x)| {
                    (
                        self.fl.weights.worker_in_total(i),
                        x.as_ref().unwrap_or(&self.fl.workers[i].x),
                    )
                }))
            }
            Actors::Sampled(_) => weighted_edge_average(
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
        let committed: usize = self
            .actors
            .registered()
            .workers
            .iter()
            .map(|w| w.tick)
            .sum();
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

    /// Child `j`'s round-`k` upload landed in edge `e`'s mailbox slot. A
    /// late upload (registered workers only; a sampled straggler is
    /// dropped before it lands) carries over and releases its worker.
    fn edge_arrival(&mut self, e: usize, j: usize, k: usize, now: f64) {
        match self.edges[e].barrier.arrive(j, k) {
            Arrival::Late => return self.release_late_worker(e, j, now),
            Arrival::ArmTimeout { round, timeout_ms } => {
                let timeout = Ev::EdgeTimeout { edge: e, round };
                self.queue.push(now + timeout_ms, ActorId::Edge(e), timeout);
            }
            Arrival::Counted => {}
        }
        self.maybe_fire_edge(e, now);
    }

    fn on_edge_timeout(&mut self, e: usize, round: usize, now: f64) {
        if self.edges[e].barrier.expire(round) {
            self.maybe_fire_edge(e, now);
        }
    }

    /// Child `j` of edge `e` will not arrive this round and is waived at
    /// the full-sync and Deadline barriers: a registered worker that died
    /// permanently, or a sampled slot absent for the round.
    fn child_gone(&self, e: usize, j: usize) -> bool {
        let i = self.edge_offset(e) + j;
        match &self.actors {
            Actors::Registered(r) => r.workers[i].dead,
            Actors::Sampled(s) => s.absent[i],
        }
    }

    /// Child `j` of edge `e` cannot catch up and is exempt from the
    /// AsyncAge staleness cap: a registered worker that is done or dead,
    /// or a sampled slot absent for the round.
    fn child_exhausted(&self, e: usize, j: usize) -> bool {
        let i = self.edge_offset(e) + j;
        match &self.actors {
            Actors::Registered(r) => r.workers[i].done || r.workers[i].dead,
            Actors::Sampled(s) => s.absent[i],
        }
    }

    /// Fires edge `e` when its barrier is ready and no cloud submission of
    /// its is outstanding. With no faults the full-sync barrier is exactly
    /// "all arrived".
    fn maybe_fire_edge(&mut self, e: usize, now: f64) {
        let edge = &self.edges[e];
        let gone = |j| self.child_gone(e, j);
        let exhausted = |j| self.child_exhausted(e, j);
        if !edge.waiting_cloud && edge.barrier.ready(gone, exhausted) {
            self.fire_edge(e, now);
        }
    }

    /// Fires the edge's current round with whoever has arrived: runs the
    /// strategy's one aggregation hook on the edge's scope with the
    /// barrier's staleness (an empty sampled round skips it and relays the
    /// carried state), submits
    /// to the cloud on boundary rounds, and hands the rest to the
    /// participant source.
    fn fire_edge(&mut self, e: usize, now: f64) {
        let strategy = self.strategy;
        let sim = self.sim;
        let barrier = &self.edges[e].barrier;
        let k = barrier.round();
        let participants = barrier.arrivals();
        let staleness = barrier.staleness();
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
            self.fill_slots(e);
            let mut view = self.fl.edge_view(e);
            strategy.tier_aggregate_stale(TierScope::Edge(&mut view), k, &staleness);
            if let Actors::Sampled(s) = &mut self.actors {
                let range = self.fl.hierarchy.edge_workers(e);
                s.spare
                    .extend(self.fl.workers[range].iter_mut().map(mem::take));
            }
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
        self.edges[e].barrier.close();
        self.after_edge_fire(e, k, cloud_round, participants, now + d);
    }

    /// Fills sampled edge `e`'s mailbox slots just before its hook, the
    /// only time they are read, and hands the buffers back to the spare
    /// list right after it (`fire_edge`), so one edge's cohort is resident
    /// at a time. Every slot's segment is computed here on the pool, from
    /// the step context the source drew at round start — the round's
    /// download pair and an untouched batcher — over the ticks its mask
    /// keeps among the `steps` its `Step` events reached: τ for a slot that
    /// arrived (or has its upload in flight), fewer for a straggler a
    /// relaxed firing catches mid-round, none for an absent slot, which
    /// holds the download itself. A straggler never steps again in its
    /// round, and full-sync firings have none. The arrived Byzantine slots
    /// are then poisoned in slot order, each from its own per-(worker,
    /// round) stream, so the draw is independent of event interleaving and
    /// of every other corruption. Registered runs keep their mailbox as it
    /// is.
    fn fill_slots(&mut self, e: usize) {
        let Actors::Sampled(s) = &mut self.actors else {
            return;
        };
        let barrier = &self.edges[e].barrier;
        let round_start = (barrier.round() - 1) * self.cfg.tau;
        let range = self.fl.hierarchy.edge_workers(e);
        let segments = range
            .clone()
            .map(|slot| {
                let ctx = s.streams.ctxs[slot]
                    .take()
                    .expect("a drawn slot holds a stream");
                let end = round_start + s.slots[slot].steps;
                Segment {
                    ticks: s.streams.kept_ticks(slot, round_start, round_start, end),
                    worker: s.spare.pop().unwrap_or_default(),
                    download: ctx.download,
                    data: ctx.data,
                    batcher: ctx.batcher,
                }
            })
            .collect();
        let segments = self.pool.run_segments(segments);
        for (j, (slot, seg)) in range.zip(segments).enumerate() {
            let mailbox = &mut self.fl.workers[slot];
            *mailbox = seg.worker;
            let adversary = s.streams.adversaries[slot].as_mut();
            if let Some((attack, sampler, entry)) = adversary.filter(|_| barrier.arrived(j)) {
                corrupt_upload(mailbox, attack, sampler, &mut s.adversaries[*entry]);
            }
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
        if cloud_round {
            // The edge waits for the cloud's reply, which snapshots the
            // distribution late joiners get from then on; until then a
            // late upload is parked in `pending_release`.
            self.actors.registered().pending_release[e] = participants;
            return;
        }
        let range = self.fl.hierarchy.edge_workers(e);
        let dist = self.snapshot_edge(e);
        let t = k * self.cfg.tau;
        if self.full_sync() && self.is_eval_tick(t) {
            for flat in range.clone() {
                let x = self.fl.workers[flat].x.clone();
                self.stage_eval(t, flat, x, now);
            }
        }
        self.deliver_from(e, participants, dist.as_deref(), now);
    }

    /// Snapshots edge `e`'s post-hook worker slots as its rejoin
    /// distribution, when the run keeps rejoin snapshots; the returned
    /// snapshots double as the firing's payloads.
    fn snapshot_edge(&mut self, e: usize) -> Option<Vec<Rc<WorkerState>>> {
        if !self.keeps_rejoin_snapshots() {
            return None;
        }
        let dist = snapshot(&self.fl.workers[self.fl.hierarchy.edge_workers(e)]);
        self.actors.registered().edge_dist[e] = dist.clone();
        Some(dist)
    }

    /// Delivers edge `e`'s post-hook slots to its local workers `locals`:
    /// the shared snapshots in `dist` when there are any, else a fresh
    /// snapshot of each slot.
    fn deliver_from(
        &mut self,
        e: usize,
        locals: Vec<usize>,
        dist: Option<&[Rc<WorkerState>]>,
        now: f64,
    ) {
        let offset = self.edge_offset(e);
        for j in locals {
            let flat = offset + j;
            let payload = match dist {
                Some(dist) => Rc::clone(&dist[j]),
                None => Rc::new(self.fl.workers[flat].clone()),
            };
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

    /// Edge `e`'s round-`p` submission reached the cloud. A late one (its
    /// cloud round fired without it: a dead-waived full-sync round, or a
    /// Deadline quorum) carries over in the mailbox and releases the edge.
    fn on_cloud_submit(&mut self, e: usize, p: usize, now: f64) {
        match self.cloud.barrier.arrive(e, p) {
            Arrival::Late => return self.release_late_edge(e, now),
            Arrival::ArmTimeout { round, timeout_ms } => {
                let timeout = Ev::CloudTimeout { round };
                self.queue.push(now + timeout_ms, ActorId::Cloud, timeout);
            }
            Arrival::Counted => {}
        }
        self.maybe_fire_cloud(now);
    }

    fn on_cloud_timeout(&mut self, round: usize, now: f64) {
        if self.cloud.barrier.expire(round) {
            self.maybe_fire_cloud(now);
        }
    }

    /// An edge that will never submit again because every one of its
    /// workers died permanently (and nothing of its is in flight): waived
    /// at the full-sync and Deadline cloud barriers.
    fn edge_perma_dead(&self, l: usize) -> bool {
        !self.edges[l].waiting_cloud && self.edge_all_dead(l)
    }

    /// An edge that can never submit again, exempt from the AsyncAge
    /// staleness cap: a sampled edge that finished its final round, or a
    /// registered one whose workers all hold their final model (or died
    /// permanently) with nothing of its in flight.
    fn edge_exhausted(&self, l: usize) -> bool {
        match &self.actors {
            Actors::Registered(r) => {
                !self.edges[l].waiting_cloud
                    && self
                        .fl
                        .hierarchy
                        .edge_workers(l)
                        .all(|i| r.workers[i].done || r.workers[i].dead)
            }
            Actors::Sampled(s) => s.retired[l],
        }
    }

    /// Fires the cloud when its barrier is ready.
    fn maybe_fire_cloud(&mut self, now: f64) {
        let gone = |l| self.edge_perma_dead(l);
        let exhausted = |l| self.edge_exhausted(l);
        if self.cloud.barrier.ready(gone, exhausted) {
            self.fire_cloud(now);
        }
    }

    /// Fires the cloud round with whichever edges have submitted: the
    /// tiers above the edges, through [`aggregate_above_edges`]. For
    /// partial rounds the absent edges' mailbox state is snapshotted around
    /// the hook, so the global update reads their carried-over submissions
    /// but does not overwrite state they never received (on sampled runs
    /// their edge states only: the slots are round-scoped).
    fn fire_cloud(&mut self, now: f64) {
        let sim = self.sim;
        let l_count = self.edges.len();
        let p = self.cloud.barrier.round();
        let participants = self.cloud.barrier.arrivals();
        let staleness = self.cloud.barrier.staleness();
        let d = self.cloud.sampler.compute_ms(&sim.env.cloud_device);
        self.cloud.busy_ms += d;
        // Sampled slots are round-scoped: the hooks do not write them and
        // an edge fills its own just before its next firing, so only the
        // edge states need saving.
        let sampled = self.is_sampled();
        let saved: Vec<_> = (0..l_count)
            .filter(|l| !participants.contains(l))
            .map(|l| {
                let range = self.fl.hierarchy.edge_workers(l);
                let slots = (!sampled).then(|| self.fl.workers[range].to_vec());
                (l, self.fl.edges[l].clone(), slots)
            })
            .collect();
        // The edge round this submission closes; `p` counts submission
        // boundaries, which fall every `submit_period` edge rounds.
        let k = p * self.submit_period;
        // The tiers above the edges are co-hosted here, at the cloud actor:
        // middle tiers fire at their own boundaries, the root every
        // `π / submit_period`-th submission (every one on three-tier runs).
        // Each middle node sees its subtree's span of the per-edge
        // staleness.
        aggregate_above_edges(
            self.strategy,
            &mut self.fl,
            k,
            self.cfg.pi,
            &staleness,
            &mut self.tier_gamma,
        );
        let keep = self.keeps_rejoin_snapshots();
        if keep {
            // A participant cannot be late for this firing: no snapshot.
            self.actors.registered().cloud_dist.fill(None);
        }
        for (l, es, slots) in saved {
            self.fl.edges[l] = es;
            let Some(mut ws) = slots else {
                continue;
            };
            let range = self.fl.hierarchy.edge_workers(l);
            self.fl.workers[range].swap_with_slice(&mut ws);
            // `ws` now holds what the hook distributed to this edge.
            if keep {
                self.actors.registered().cloud_dist[l] =
                    Some(ws.into_iter().map(Rc::new).collect());
            }
        }
        if !sampled {
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
        self.cloud.barrier.close();
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
            self.finish_round(e, self.edges[e].barrier.round() - 1, now);
            return;
        }
        let r = self.actors.registered();
        let ws = r.cloud_dist[e]
            .clone()
            .expect("a late edge missed the latest cloud firing");
        let pending = std::mem::take(&mut r.pending_release[e]);
        r.edge_dist[e] = ws.clone();
        self.deliver_from(e, pending, Some(&ws), now);
    }

    fn on_cloud_reply(&mut self, e: usize, now: f64) {
        self.edges[e].waiting_cloud = false;
        if self.is_sampled() {
            self.finish_round(e, self.edges[e].barrier.round() - 1, now);
            return;
        }
        // Late joiners from here on get the post-cloud distribution.
        let dist = self.snapshot_edge(e);
        let pending = std::mem::take(&mut self.actors.registered().pending_release[e]);
        self.deliver_from(e, pending, dist.as_deref(), now);
        match self.sim.policy {
            SyncPolicy::AsyncAge { .. } => {
                // Arrivals queued while the submission was outstanding.
                self.maybe_fire_edge(e, now);
            }
            SyncPolicy::FullSync if self.faults_on => {
                // A death while the submission was outstanding may have
                // satisfied the waived barrier.
                self.maybe_fire_edge(e, now);
                self.maybe_fire_cloud(now);
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
            Ev::Deliver { worker, state } => self.on_deliver(worker, state, now),
            Ev::CloudSubmit { edge, round } => self.on_cloud_submit(edge, round, now),
            Ev::CloudTimeout { round } => self.on_cloud_timeout(round, now),
            Ev::CloudReply { edge } => self.on_cloud_reply(edge, now),
            Ev::Recover { worker } => self.on_recover(worker, now),
            Ev::Die { worker } => self.on_die(worker, now),
            Ev::DupArrival { to } => {
                let counters = match (to, &mut self.actors) {
                    (ActorId::Worker(i), Actors::Registered(r)) => &mut r.workers[i].faults,
                    (ActorId::Worker(_), Actors::Sampled(s)) => &mut s.faults,
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
            if !self.edges[e].waiting_cloud && self.edges[e].barrier.any_arrived() {
                self.fire_edge(e, self.now);
                return true;
            }
        }
        if self.cloud.barrier.any_arrived() {
            self.fire_cloud(self.now);
            return true;
        }
        false
    }

    /// Runs every topology epoch to its end: the events of one epoch
    /// until the queue drains, then the churn boundary into the next.
    fn run(&mut self) -> Result<(), SimError> {
        loop {
            self.run_epoch();
            if self.limit == self.cfg.total_iters {
                return Ok(());
            }
            self.cross()?;
        }
    }

    fn run_epoch(&mut self) {
        let sampled = self.is_sampled();
        if let Actors::Registered(r) = &self.actors {
            // Permanent crashes are keyed by uid and land on the epoch's
            // clock: a death already past strikes again at its start.
            let base_ms = self.elastic.as_ref().map_or(0.0, |el| el.base_ms);
            for p in &self.sim.faults.permanent {
                if let Some(worker) = r.workers.iter().position(|w| w.uid == p.worker) {
                    let at_ms = (p.at_ms - base_ms).max(0.0);
                    self.queue
                        .push(at_ms, ActorId::Worker(worker), Ev::Die { worker });
                }
            }
            for i in 0..self.fl.workers.len() {
                self.schedule_step(i, 0.0);
            }
        } else {
            for e in 0..self.edges.len() {
                let start = Ev::StartRound { edge: e };
                self.queue.push(0.0, ActorId::Edge(e), start);
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
                Ev::EdgeTimeout { edge, round } => self.edges[*edge].barrier.round() != *round,
                Ev::CloudTimeout { round } => self.cloud.barrier.round() != *round,
                _ => false,
            };
            if stale && !sampled {
                continue;
            }
            self.now = time;
            self.events += 1;
            self.dispatch(payload, time);
        }
        if let Actors::Sampled(s) = &self.actors {
            assert!(
                s.retired.iter().all(|&r| r),
                "event queue drained before every edge finished its rounds"
            );
        }
    }

    /// The churn boundary at the drained epoch's end, an epoch barrier:
    /// closes the epoch, has the source transform the mailbox into the
    /// next epoch's tree ([`Participants::cross`]) and lays out fresh
    /// actors for it, as a resume at the boundary tick would — every
    /// stream re-derived by the source at that tick, the barriers' ages,
    /// carry-overs and pending releases reset, the source's training
    /// probe installed and the clock restarted at 0.
    fn cross(&mut self) -> Result<(), SimError> {
        let (t, cfg) = (self.limit, self.cfg);
        self.close_epoch();
        self.source.cross(t, &mut self.fl, self.strategy)?;
        self.limit = epoch_end(&self.source, t, cfg);
        let probe = self.source.train_probe(cfg, self.fl.workers.len());
        self.pool.set_train_probe(probe);
        let registered = Registered::new(&self.source, &self.fl, cfg, self.sim, t, self.limit);
        self.actors = Actors::Registered(registered);
        (self.edges, self.cloud) =
            Engine::<M, S>::aggregators(&self.fl, false, self.cfg, self.sim, self.submit_period, t);
        self.now = 0.0;
        self.pending_evals.clear();
        self.completed_evals.clear();
        self.gamma_stage.clear();
        Ok(())
    }

    /// Closes the current topology epoch: its evaluations join the curves
    /// on the run's clock and, on a churn run, its actor tallies fold into
    /// the run's by stable identity and its duration into the clock base.
    fn close_epoch(&mut self) {
        let base_ms = self.elastic.as_ref().map_or(0.0, |el| el.base_ms);
        self.evals.sort_by_key(|r| r.iter);
        for r in self.evals.drain(..) {
            self.curve.push(EvalPoint {
                iteration: r.iter,
                train_loss: r.train.loss,
                test_loss: r.test.loss,
                test_accuracy: r.test.accuracy,
            });
            self.timed_curve.push(TimedPoint {
                seconds: r.at_ms / 1000.0 + base_ms / 1000.0,
                iteration: r.iter,
                train_loss: r.train.loss,
                test_loss: r.test.loss,
                test_accuracy: r.test.accuracy,
            });
        }
        let (Some(el), Some(churn), Actors::Registered(r)) =
            (&mut self.elastic, self.source.churn(), &self.actors)
        else {
            return;
        };
        let none = AdversaryCounters::default();
        for w in &r.workers {
            let t = el.totals.entry((0, w.uid)).or_default();
            t.add(w.busy_ms, &w.faults, &w.advers);
        }
        for (edge, id) in self.edges.iter().zip(churn.version().live_edges()) {
            let t = el.totals.entry((1, id)).or_default();
            t.add(edge.busy_ms, &edge.faults, &none);
        }
        let t = el.totals.entry((2, 0)).or_default();
        t.add(self.cloud.busy_ms, &self.cloud.faults, &none);
        el.base_ms += (self.now / 1000.0) * 1000.0;
    }

    /// Closes the last topology epoch and builds the result.
    fn finish(mut self) -> SimResult {
        let strategy = self.strategy;
        if !self.staged_rounds() {
            // Final state after all deliveries (late arrivals may have
            // landed after the last cloud firing).
            self.record_relaxed_eval(self.now);
        }
        self.close_epoch();
        let end_ms = self.now;
        let mut utilization = Vec::new();
        let mut faults = Vec::new();
        let mut adversaries = Vec::new();
        let adversary = |actor: String, counters| ActorAdversaries { actor, counters };
        let simulated_seconds = if let Some(el) = &self.elastic {
            // Per-actor tallies over the whole run, by stable identity.
            let end_s = el.base_ms / 1000.0;
            for (key, t) in &el.totals {
                utilization.push(ActorUtilization {
                    actor: actor_label(key),
                    busy_seconds: t.busy_seconds,
                    utilization: if end_s > 0.0 {
                        (t.busy_seconds / end_s).min(1.0)
                    } else {
                        0.0
                    },
                });
                faults.push(ActorFaults {
                    actor: actor_label(key),
                    counters: t.faults,
                });
                adversaries.push(adversary(actor_label(key), t.adversaries));
            }
            end_s
        } else {
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
            // Registered runs tally every actor; sampled runs are
            // O(edges): the slots report as one aggregate "workers" entry
            // and adversaries as one entry per plan entry.
            match &self.actors {
                Actors::Registered(r) => {
                    for (i, w) in r.workers.iter().enumerate() {
                        tally(format!("worker-{i}"), w.busy_ms, w.faults);
                        adversaries.push(adversary(format!("worker-{i}"), w.advers));
                    }
                }
                Actors::Sampled(s) => {
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
                adversaries
                    .extend(idle.map(|actor| adversary(actor, AdversaryCounters::default())));
            }
            end_ms / 1000.0
        };
        let final_params = self.source.global_params(strategy, &self.fl);
        SimResult {
            algorithm: strategy.name().to_string(),
            policy: self.sim.policy.label(),
            curve: self.curve,
            timed_curve: self.timed_curve,
            gamma_trace: self.gamma_trace,
            cos_trace: self.cos_trace,
            tier_gamma: self.tier_gamma,
            final_params,
            simulated_seconds,
            utilization,
            faults,
            adversaries,
            events: self.events,
            topology: self.source.churn().map(Churn::counters).unwrap_or_default(),
        }
    }
}

/// Runs `strategy` under the co-simulation: same training semantics as
/// [`hieradmo_core::run`] (bitwise-identical under
/// [`SyncPolicy::FullSync`]), but every compute and transfer charges
/// virtual time drawn from `sim.env`, and aggregation fires per
/// `sim.policy` rather than at a global barrier.
///
/// Like the core engine, it honours [`RunConfig::churn`]. Under an empty
/// plan `worker_data` holds exactly one dataset per worker. Under a
/// non-empty one it registers the whole uid space (initial tree first,
/// join candidates after); `cfg.adversary` and `sim.faults.permanent` are
/// keyed by uid; `sim.env.worker_devices` is a device pool (uid `u`
/// computes on profile `u mod pool size`); and every churn boundary is an
/// epoch barrier inside the one event loop: every worker drains to the
/// boundary tick, the mailbox moves into the next epoch's tree
/// ([`hieradmo_core::elastic`]), and the epoch starts on fresh actors
/// with its clock at 0, its times offset by the epochs before it.
/// [`SimConfig::tiers`] does not compose with churn yet.
///
/// # Errors
///
/// Returns [`SimError`] if the config, schedule, topology, data, network
/// environment or policy are inconsistent — the same pre-flight checks as
/// the core driver plus the network/policy ones — or a churn event is
/// invalid against the live topology when it applies. A sampling policy
/// that is not full is [`RunError::BadConfig`]: only
/// [`crate::simulate_virtual`] samples.
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
    let (source, layout) = validate_registered(strategy, hierarchy, worker_data, cfg, sim)?;
    simulate_source(strategy, model, source, layout, test_data, cfg, sim)
}

/// A one-line call of [`simulate`], kept because the repository
/// benchmark calls it.
///
/// # Errors
///
/// Everything [`simulate`] rejects.
pub fn simulate_elastic<M, S>(
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
    simulate(strategy, model, hierarchy, worker_data, test_data, cfg, sim)
}

/// The checks every entry point shares: the config itself, a frozen tree
/// (populations do not churn), and the tier tree's `(τ, π)` against the
/// config.
pub(crate) fn validate_run(cfg: &RunConfig, sim: &SimConfig) -> Result<(), SimError> {
    cfg.validate()
        .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    if !cfg.churn.is_empty() {
        return Err(SimError::Run(RunError::BadConfig(
            "a ChurnPlan applies to registered workers only; a population \
             runs on a frozen tree"
                .into(),
        )));
    }
    check_tree_schedule(cfg, sim.tiers.as_ref()).map_err(SimError::Run)
}

/// The registered-worker pre-flight checks: the config, the participant
/// source's layout (sampling, data, the strategy's topology check), the
/// fault and adversary plans, tree, policy and device profiles — for a
/// churn run, the registered uid table, the initial tree and a non-empty
/// device pool instead of the per-worker data and profile counts.
/// Returns the source and its layout.
fn validate_registered<'a, S>(
    strategy: &S,
    hierarchy: &'a Hierarchy,
    worker_data: &'a [Dataset],
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<(Participants<'a>, Layout<'a>), SimError>
where
    S: Strategy + ?Sized,
{
    let bad = |m: &str| SimError::Run(RunError::BadConfig(m.into()));
    if cfg.churn.is_empty() {
        validate_run(cfg, sim)?;
    } else {
        cfg.validate().map_err(|m| bad(&m))?;
        if sim.tiers.is_some() {
            return Err(bad("N-tier trees do not compose with a ChurnPlan yet; \
                 elastic co-simulations are three-tier"));
        }
        if sim.env.worker_devices.is_empty() {
            return Err(SimError::Net(
                "elastic runs need at least one worker device profile in the pool".into(),
            ));
        }
    }
    let source = Participants::registered(hierarchy, worker_data, cfg, None)?;
    let layout = source.layout(strategy, cfg, sim.tiers.as_ref())?;
    let hierarchy = &layout.hierarchy;
    sim.faults.validate().map_err(SimError::Fault)?;
    // Plans are keyed by uid: the flat position on a frozen tree.
    let registered = worker_data.len();
    for p in &sim.faults.permanent {
        if p.worker >= registered {
            return Err(SimError::Fault(format!(
                "permanent crash targets worker {} but only {registered} are registered",
                p.worker
            )));
        }
    }
    for b in &cfg.adversary.byzantine {
        if b.worker >= registered {
            return Err(SimError::Adversary(format!(
                "attack targets worker {} but only {registered} are registered",
                b.worker
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
    if source.churn().is_none() && sim.env.worker_devices.len() != hierarchy.num_workers() {
        return Err(SimError::Net(format!(
            "{} device profiles for {} workers",
            sim.env.worker_devices.len(),
            hierarchy.num_workers()
        )));
    }
    Ok((source, layout))
}

/// Runs the participant `source`, validated by its entry point, on its
/// `layout`: the mailbox, the training probe and the pool every topology
/// epoch of the one event engine trains on.
pub(crate) fn simulate_source<M, S>(
    strategy: &S,
    model: &M,
    source: Participants<'_>,
    layout: Layout<'_>,
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<SimResult, SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    let Layout {
        hierarchy,
        weights,
        tree,
        data,
        ..
    } = layout;
    let sampled = matches!(source, Participants::Sampled { .. });
    let x0 = model.params();
    let fl = initial_state(
        strategy,
        &x0,
        hierarchy,
        weights,
        tree.as_ref(),
        cfg,
        sampled,
    );
    let slots = fl.workers.len();
    let train_probe = source.train_probe(cfg, slots);
    let ctx = ExecCtx {
        strategy,
        cfg,
        worker_data: data,
        test_data,
    };
    std::thread::scope(|scope| {
        let pool = Pool::new(scope, ctx, model, slots, train_probe);
        let mut engine = Engine::new(pool, fl, source, sim);
        engine.run()?;
        Ok(engine.finish())
    })
}
