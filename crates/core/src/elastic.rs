//! Elastic hierarchy: churn, live re-parenting, and graceful
//! degradation, as a boundary step of both training loops.
//!
//! The frozen-tree invariant — every `TierPath` stable for the life of a
//! run — relaxes here to *stable within a topology epoch*. A
//! [`ChurnPlan`] in [`RunConfig::churn`] schedules [`TopologyEvent`]s at
//! cloud-round boundaries (ticks `r·τ·π`). A registered run under a
//! non-empty plan carries a [`Churn`] in its participant source
//! ([`crate::driver::Participants`]), which the tick loop
//! (`crate::driver::run_span`) and the event engine (`hieradmo-simrt`)
//! both hold: at every boundary it calls [`Churn::cross`], which
//! transforms the live [`FlState`] in place — a pure function of
//! `(state, plan, seed)`, so both engines evolve the identical topology
//! and carry identical state across every epoch. Each loop then takes
//! the epoch's streams from the same source, exactly as a resume at that
//! tick does, and lays out its own actors.
//!
//! Consequences, all deterministic and gated by
//! `tests/elastic_topology.rs`:
//!
//! * an **empty plan** carries no [`Churn`]: it is the frozen-tree run
//!   itself;
//! * per-worker RNG streams (mini-batch order, adversary draws) are keyed
//!   by *flat position within the epoch's tree*, so a worker that changes
//!   parents continues on the stream of its new position — a pure
//!   function of `(plan, seed)`, replayed identically by every engine and
//!   thread count;
//! * the adversary plan is keyed by **uid** (registered data index) and
//!   looked up per flat position through the epoch's uid map, so a
//!   Byzantine worker stays Byzantine wherever it migrates;
//! * weight shares re-derive per epoch from the members' sample counts —
//!   re-parenting renormalizes `D_{i,ℓ}/D_ℓ` and `D_ℓ/D` automatically.
//!
//! Worker state across a parent change keeps its model `x` and lookahead
//! `y`, damps its velocity by `1/(1 + min(age, MIDDLE_AGE_CAP))` (age =
//! cloud rounds under the previous parent — the bounded-age carry-over
//! rule middle tiers already use for stale subtrees; only a strategy that
//! reads the carried-over velocity feels it, see `rehome`), and drops
//! interval accumulators (they describe sums the new edge never
//! requested).
//! Workers joining fresh materialize from their edge's `(x₊, y₋)` exactly
//! like sampled-cohort slots do.

use std::collections::BTreeMap;

use hieradmo_data::Dataset;
use hieradmo_metrics::TopologyCounters;
use hieradmo_tensor::Vector;
use hieradmo_topology::{ChurnPlan, Hierarchy, TopologyEvent, TopologyVersion, Weights};

use crate::checkpoint::TrainingSnapshot;
use crate::config::RunConfig;
use crate::driver::RunError;
use crate::state::{FlState, TierState, WorkerState};
use crate::strategy::{Strategy, MIDDLE_AGE_CAP};

/// The re-parenting transform: keep `x`/`y`, damp the velocity by the
/// bounded-age rule `1/(1 + min(age, MIDDLE_AGE_CAP))`, drop interval
/// accumulators.
///
/// The damping reaches training only through a strategy that reads the
/// `v` a worker carries over (FedADC's and Mime's local steps, the
/// compressed HierFAVG's error feedback). The NAG step of HierAdMo,
/// HierAdMo-R, FedNAG and FastSlowMo overwrites `v` with `y_t − y_{t−1}`
/// before reading it, so for them the damped `v` is read only by a
/// re-formation later in the same boundary ([`reform_assignment`]'s
/// centroids).
fn rehome(state: &mut WorkerState, age: u64) {
    let damp = 1.0 / (1 + (age as usize).min(MIDDLE_AGE_CAP)) as f32;
    state.v.scale_in_place(damp);
    state.reset_accumulators();
}

/// The re-formation assignment: greedy capacity-bounded clustering of
/// worker velocity against per-edge member-velocity centroids. Workers
/// assign in uid order to the live edge whose centroid their `v` best
/// aligns with (ties and zero-velocity workers to the lowest edge id),
/// each edge capped at `⌈present / live⌉` members so no epoch degenerates
/// to a single giant edge.
fn reform_assignment(
    version: &TopologyVersion,
    states: &BTreeMap<usize, WorkerState>,
) -> Vec<(usize, usize)> {
    let live = version.live_edges();
    let centroids: Vec<Option<Vector>> = live
        .iter()
        .map(|&e| {
            let members = version.members(e);
            if members.is_empty() {
                return None;
            }
            let mut c = Vector::zeros(states[&members[0]].v.len());
            for uid in members {
                c.axpy(1.0, &states[uid].v);
            }
            c.scale_in_place(1.0 / members.len() as f32);
            Some(c)
        })
        .collect();
    let present: Vec<usize> = {
        let mut m = version.flat_members();
        m.sort_unstable();
        m
    };
    let capacity = present.len().div_ceil(live.len());
    let mut load = vec![0usize; live.len()];
    let mut assignment = Vec::with_capacity(present.len());
    for &uid in &present {
        let mut best: Option<(usize, f32)> = None;
        for j in 0..live.len() {
            if load[j] >= capacity {
                continue;
            }
            let score = centroids[j]
                .as_ref()
                .map_or(0.0, |c| states[&uid].v.cosine(c));
            let better = match best {
                None => true,
                // Strictly-better only: ties keep the lowest edge id.
                Some((_, s)) => score > s,
            };
            if better {
                best = Some((j, score));
            }
        }
        let (j, _) = best.expect("capacity ⌈n/live⌉ · live ≥ n leaves a slot");
        load[j] += 1;
        assignment.push((uid, live[j]));
    }
    assignment
}

/// The topology of a registered run under a non-empty [`ChurnPlan`]: the
/// [`TopologyVersion`] in force, the plan, and the churn tallies so far.
/// The participant source of both training loops holds one and calls
/// [`Churn::cross`] at every boundary.
#[derive(Debug)]
pub struct Churn {
    plan: ChurnPlan,
    version: TopologyVersion,
    /// Sample count of every registered worker, by uid.
    samples: Vec<u64>,
    /// Ticks per cloud round, `τ·π`.
    interval: usize,
    /// Cloud rounds in the whole run.
    rounds: usize,
    seed: u64,
    counters: TopologyCounters,
}

impl Churn {
    /// The churn state of a run of `hierarchy` under `cfg.churn`, or
    /// `None` when the plan is empty. `worker_data` registers the whole
    /// uid space: the first `hierarchy.num_workers()` datasets fill the
    /// initial tree in flat order, trailing ones belong to join
    /// candidates. A resumed run takes its topology from the snapshot,
    /// whose tick may itself be a boundary already applied.
    ///
    /// # Errors
    ///
    /// [`RunError::Data`] when the datasets cannot register the initial
    /// tree, one is empty, or the snapshot's topology is malformed or
    /// registers a different uid count; [`RunError::BadConfig`] when a
    /// snapshot carries no topology; [`RunError::Topology`] when the
    /// initial tree is invalid.
    pub fn start(
        hierarchy: &Hierarchy,
        worker_data: &[Dataset],
        cfg: &RunConfig,
        resume: Option<&TrainingSnapshot>,
    ) -> Result<Option<Self>, RunError> {
        if cfg.churn.is_empty() {
            return Ok(None);
        }
        if worker_data.len() < hierarchy.num_workers() {
            return Err(RunError::Data(format!(
                "{} worker datasets cannot register an initial tree of {}",
                worker_data.len(),
                hierarchy.num_workers()
            )));
        }
        if let Some(i) = worker_data.iter().position(Dataset::is_empty) {
            return Err(RunError::Data(format!("worker {i} has no data")));
        }
        let version = match resume {
            Some(snap) => {
                let version = snap.topology.clone().ok_or_else(|| {
                    RunError::BadConfig(
                        "snapshot carries no topology version; it was not captured \
                         by an elastic run and cannot resume under a non-empty \
                         ChurnPlan"
                            .into(),
                    )
                })?;
                version
                    .validate()
                    .map_err(|m| RunError::Data(format!("snapshot topology: {m}")))?;
                version
            }
            None => {
                let sizes: Vec<usize> = (0..hierarchy.num_edges())
                    .map(|e| hierarchy.workers_in_edge(e))
                    .collect();
                TopologyVersion::initial(&sizes, worker_data.len()).map_err(RunError::Topology)?
            }
        };
        if version.registered() != worker_data.len() {
            return Err(RunError::Data(format!(
                "snapshot topology registers {} uids, {} datasets supplied",
                version.registered(),
                worker_data.len()
            )));
        }
        let interval = cfg.tau * cfg.pi;
        Ok(Some(Churn {
            plan: cfg.churn.clone(),
            version,
            samples: worker_data.iter().map(|d| d.len() as u64).collect(),
            interval,
            rounds: cfg.total_iters / interval,
            seed: cfg.seed,
            counters: TopologyCounters::default(),
        }))
    }

    /// The topology version in force.
    pub fn version(&self) -> &TopologyVersion {
        &self.version
    }

    /// Churn tallies of the boundaries crossed so far.
    pub fn counters(&self) -> TopologyCounters {
        self.counters
    }

    /// The uid at each flat position of the epoch's tree.
    pub fn uids(&self) -> Vec<usize> {
        self.version.flat_members()
    }

    /// The epoch's frozen tree and its data weights.
    pub fn tree(&self) -> (Hierarchy, Weights) {
        let hierarchy = Hierarchy::new(self.version.live_edge_sizes());
        let samples: Vec<u64> = self.uids().iter().map(|&u| self.samples[u]).collect();
        let weights = Weights::from_samples(&hierarchy, &samples);
        (hierarchy, weights)
    }

    /// Whether the plan mutates the topology right after tick `t`: the end
    /// of a scheduled cloud round before the run's last.
    pub fn is_boundary(&self, t: usize) -> bool {
        let round = t / self.interval;
        t > 0
            && t.is_multiple_of(self.interval)
            && round < self.rounds
            && self.plan.is_boundary(round)
    }

    /// The first boundary after tick `t`, if the plan schedules one.
    pub fn next_boundary(&self, t: usize) -> Option<usize> {
        (t / self.interval + 1..self.rounds)
            .map(|r| r * self.interval)
            .find(|&b| self.is_boundary(b))
    }

    /// Applies the boundary after tick `t` to the live mailbox `state`:
    /// the round's scheduled events in plan order, then the periodic
    /// re-formation if its cadence fires. Afterwards `state` holds the new
    /// epoch's tree and weights, worker states in its flat order and live
    /// edge states in stable-id order; the cloud is untouched, and
    /// `strategy` has checked the new tree.
    ///
    /// # Errors
    ///
    /// [`RunError::BadConfig`] when an event is invalid against the live
    /// topology (absent worker, dead edge, failing the last edge, …);
    /// [`RunError::Topology`] when `strategy` rejects the new tree.
    pub fn cross<S: Strategy + ?Sized>(
        &mut self,
        t: usize,
        state: &mut FlState,
        strategy: &S,
    ) -> Result<(), RunError> {
        let round = t / self.interval;
        let sums = state.interval_sums();
        let Churn {
            plan,
            version,
            seed,
            counters,
            ..
        } = self;
        let mut states: BTreeMap<usize, WorkerState> = version
            .flat_members()
            .into_iter()
            .zip(std::mem::take(&mut state.workers))
            .collect();
        let mut edge_states: BTreeMap<usize, TierState> = version
            .live_edges()
            .into_iter()
            .zip(std::mem::take(&mut state.edges))
            .collect();
        version.begin_epoch(round as u64);

        fn reform(
            version: &mut TopologyVersion,
            states: &mut BTreeMap<usize, WorkerState>,
            edge_states: &mut BTreeMap<usize, TierState>,
            counters: &mut TopologyCounters,
        ) -> Result<(), String> {
            let assignment = reform_assignment(version, states);
            let moves = version.reform(&assignment)?;
            for m in &moves {
                rehome(states.get_mut(&m.worker).expect("mover is present"), m.age);
            }
            counters.reformations += 1;
            counters.migrations += moves.len() as u64;
            // Edges emptied by the re-formation failed in place; drop their
            // state so the mailbox matches the live tree.
            edge_states.retain(|&e, _| version.is_live(e));
            Ok(())
        }

        let bad = RunError::BadConfig;
        for event in plan.events_at(round) {
            match *event {
                TopologyEvent::Join { worker, edge } => {
                    version.join(worker, edge).map_err(bad)?;
                    let edge_state = edge_states
                        .get(&edge)
                        .expect("join validated the edge live");
                    let mut w = WorkerState::default();
                    w.download(&edge_state.x_plus, &edge_state.y_minus, sums);
                    states.insert(worker, w);
                    counters.joins += 1;
                }
                TopologyEvent::Leave { worker } => {
                    let edge = version.leave(worker).map_err(bad)?;
                    states.remove(&worker);
                    if !version.is_live(edge) {
                        edge_states.remove(&edge);
                    }
                    counters.leaves += 1;
                }
                TopologyEvent::Migrate { worker, edge } => {
                    let from = version
                        .parent_of(worker)
                        .ok_or_else(|| bad(format!("worker {worker} is not in the tree")))?;
                    let m = version.migrate(worker, edge).map_err(bad)?;
                    rehome(states.get_mut(&worker).expect("migrant is present"), m.age);
                    if !version.is_live(from) {
                        edge_states.remove(&from);
                    }
                    counters.migrations += 1;
                }
                TopologyEvent::EdgeFail { edge } => {
                    let moves = version.fail_edge(edge, *seed).map_err(bad)?;
                    edge_states.remove(&edge);
                    for m in &moves {
                        rehome(states.get_mut(&m.worker).expect("orphan is present"), m.age);
                    }
                    counters.migrations += moves.len() as u64;
                    counters.orphaned_rounds += moves.len() as u64;
                }
                TopologyEvent::EdgeReform => {
                    reform(version, &mut states, &mut edge_states, counters).map_err(bad)?;
                }
            }
        }
        if plan.reform_at(round) {
            reform(version, &mut states, &mut edge_states, counters).map_err(bad)?;
        }

        state.workers = version
            .flat_members()
            .into_iter()
            .map(|uid| states.remove(&uid).expect("flat members have state"))
            .collect();
        state.edges = version
            .live_edges()
            .into_iter()
            .map(|e| edge_states.remove(&e).expect("live edges have state"))
            .collect();
        (state.hierarchy, state.weights) = self.tree();
        strategy
            .check_topology(&state.hierarchy)
            .map_err(RunError::Topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::small_problem;
    use crate::algorithms::HierAdMo;
    use crate::driver::{run, RunSpec};
    use hieradmo_topology::ScheduledEvent;

    fn churn_cfg(threads: usize) -> RunConfig {
        RunConfig {
            eta: 0.05,
            tau: 5,
            pi: 2,
            total_iters: 200,
            batch_size: 16,
            eval_every: 50,
            threads: Some(threads),
            ..RunConfig::default()
        }
    }

    fn churn_plan() -> ChurnPlan {
        ChurnPlan {
            events: vec![
                ScheduledEvent {
                    round: 5,
                    event: TopologyEvent::Join { worker: 4, edge: 0 },
                },
                ScheduledEvent {
                    round: 10,
                    event: TopologyEvent::EdgeFail { edge: 1 },
                },
                ScheduledEvent {
                    round: 15,
                    event: TopologyEvent::EdgeReform,
                },
            ],
            reform_every: None,
        }
    }

    /// A plan whose periodic reform would first fire after the run's last
    /// cloud round carries churn state that never crosses a boundary, so
    /// the run must be bitwise the frozen engine's run.
    #[test]
    fn never_firing_plan_is_bitwise_identical_to_the_frozen_engine() {
        let (_, test, shards, model) = small_problem(4);
        let h = Hierarchy::balanced(2, 2);
        let cfg = churn_cfg(1);
        let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
        let spec = RunSpec::hierarchy(&h, &shards);
        let frozen = run(&algo, &model, &spec, &test, &cfg).unwrap();
        let rounds = cfg.total_iters / (cfg.tau * cfg.pi);
        let mut idle = cfg.clone();
        idle.churn = ChurnPlan {
            events: Vec::new(),
            reform_every: Some(rounds + 1),
        };
        assert!(!idle.churn.is_empty());
        assert!(idle.churn.boundary_rounds(rounds).is_empty());
        let elastic = run(&algo, &model, &spec, &test, &idle).unwrap();
        assert_eq!(frozen.final_params, elastic.final_params);
        assert_eq!(frozen.curve, elastic.curve);
        assert_eq!(frozen.gamma_trace, elastic.gamma_trace);
        assert!(elastic.topology.is_zero());
    }

    #[test]
    fn churn_runs_tally_counters_and_replay_across_thread_counts() {
        let (_, test, shards, model) = small_problem(5);
        let h = Hierarchy::balanced(2, 2);
        let mut cfg = churn_cfg(1);
        cfg.churn = churn_plan();
        let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
        let spec = RunSpec::hierarchy(&h, &shards);
        let one = run(&algo, &model, &spec, &test, &cfg).unwrap();
        // Join at r5, edge 1 fails at r10 (2 orphans re-homed), reform of
        // the single surviving edge at r15 (no moves possible).
        assert_eq!(one.topology.joins, 1);
        assert_eq!(one.topology.orphaned_rounds, 2);
        assert_eq!(one.topology.migrations, 2);
        assert_eq!(one.topology.reformations, 1);
        assert_eq!(one.topology.leaves, 0);
        assert!(one.final_params.is_finite());

        let mut cfg4 = cfg.clone();
        cfg4.threads = Some(4);
        let four = run(&algo, &model, &spec, &test, &cfg4).unwrap();
        assert_eq!(one.final_params, four.final_params);
        assert_eq!(one.curve, four.curve);
        assert_eq!(one.topology, four.topology);
    }

    #[test]
    fn until_and_resumed_replay_the_remaining_boundaries_bitwise() {
        let (_, test, shards, model) = small_problem(5);
        let h = Hierarchy::balanced(2, 2);
        let mut cfg = churn_cfg(1);
        cfg.churn = churn_plan();
        let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);
        let spec = RunSpec::hierarchy(&h, &shards);
        let full = run(&algo, &model, &spec, &test, &cfg).unwrap();
        // Tick 100 is round 10 — exactly the EdgeFail boundary, so the
        // snapshot must carry the post-failure tree (one live edge, five
        // workers) and the resume must not re-apply the event.
        let until = RunSpec {
            stop_at: Some(100),
            ..spec
        };
        let snap = run(&algo, &model, &until, &test, &cfg)
            .unwrap()
            .snapshot
            .unwrap();
        let topo = snap.topology.as_ref().expect("elastic snapshot");
        assert_eq!(topo.live_edges(), vec![0]);
        assert_eq!(snap.workers.len(), 5);
        let resume = RunSpec {
            resume: Some(&snap),
            ..spec
        };
        let resumed = run(&algo, &model, &resume, &test, &cfg).unwrap();
        assert_eq!(resumed.final_params, full.final_params);
        // The resumed span re-applies only the reform boundary.
        assert_eq!(resumed.topology.reformations, 1);
        assert_eq!(resumed.topology.joins, 0);
        assert_eq!(resumed.topology.migrations, 0);
    }
}
