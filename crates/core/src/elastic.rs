//! Elastic hierarchy runtime: churn, live re-parenting, and graceful
//! degradation over the tick-driven engine.
//!
//! The frozen-tree invariant — every `TierPath` stable for the life of a
//! run — relaxes here to *stable within a topology epoch*. A
//! [`ChurnPlan`] in [`RunConfig::churn`] schedules [`TopologyEvent`]s at
//! cloud-round boundaries (ticks `r·τ·π`). Given a hierarchy source and a
//! non-empty plan, [`crate::run`] splits the run into epoch segments,
//! executes each segment through the unchanged frozen-tree loop (with
//! resume + stop), and applies the boundary's events to the
//! [`TrainingSnapshot`] between segments via [`apply_churn_boundary`] — a
//! pure function of `(snapshot, plan, seed)` that the event-driven
//! runtime (`hieradmo-simrt`) calls too, so both engines evolve the
//! identical topology and carry identical state across every epoch.
//!
//! Consequences of the segmented design, all deterministic and gated by
//! `tests/elastic_topology.rs`:
//!
//! * an **empty plan** never reaches this module: it is the frozen-tree
//!   run itself;
//! * per-worker RNG streams (mini-batch order, adversary draws) are keyed
//!   by *flat position within the epoch's tree*, so a worker that changes
//!   parents continues on the stream of its new position — a pure
//!   function of `(plan, seed)`, replayed identically by every engine and
//!   thread count;
//! * the adversary plan is keyed by **uid** (registered data index) and
//!   re-mapped to flat positions per epoch, so a Byzantine worker stays
//!   Byzantine wherever it migrates;
//! * weight shares re-derive per epoch from the members' sample counts —
//!   re-parenting renormalizes `D_{i,ℓ}/D_ℓ` and `D_ℓ/D` automatically.
//!
//! Worker state across a parent change keeps its model `x` and lookahead
//! `y`, damps its velocity by `1/(1 + min(age, MIDDLE_AGE_CAP))` (age =
//! cloud rounds under the previous parent — the bounded-age carry-over
//! rule middle tiers already use for stale subtrees), and drops interval
//! accumulators (they describe sums the new edge never requested).
//! Workers joining fresh materialize from their edge's `(x₊, y₋)` exactly
//! like sampled-cohort slots do.

use std::collections::BTreeMap;

use hieradmo_data::Dataset;
use hieradmo_metrics::{AdversaryCounters, ConvergenceCurve, TopologyCounters};
use hieradmo_models::Model;
use hieradmo_netsim::AdversaryPlan;
use hieradmo_tensor::Vector;
use hieradmo_topology::{ChurnPlan, Hierarchy, TopologyEvent, TopologyVersion};

use crate::checkpoint::TrainingSnapshot;
use crate::config::RunConfig;
use crate::driver::{run_span, Participants, RunError, RunResult};
use crate::state::{TierState, WorkerState};
use crate::strategy::{Strategy, MIDDLE_AGE_CAP};

/// The initial [`TopologyVersion`] of an elastic run: the configured
/// hierarchy's edges all live, uids dealt in flat order, and
/// `registered − hierarchy.num_workers()` trailing uids registered but
/// absent (join candidates).
///
/// # Errors
///
/// Everything [`TopologyVersion::initial`] rejects, as a human-readable
/// message.
pub fn initial_version(
    hierarchy: &Hierarchy,
    registered: usize,
) -> Result<TopologyVersion, String> {
    let sizes: Vec<usize> = (0..hierarchy.num_edges())
        .map(|e| hierarchy.workers_in_edge(e))
        .collect();
    TopologyVersion::initial(&sizes, registered)
}

/// The frozen tree of one topology epoch: the `Hierarchy` the engines
/// execute against plus the flat-position → uid map behind it.
pub fn epoch_tree(version: &TopologyVersion) -> (Hierarchy, Vec<usize>) {
    (
        Hierarchy::new(version.live_edge_sizes()),
        version.flat_members(),
    )
}

/// The ticks in `(start, end]` at which `plan` mutates the topology: one
/// per scheduled cloud-round boundary, `round · τ · π` each. `end` is
/// included so a checkpoint taken exactly at a boundary carries the
/// *post*-transform tree (the resume never re-applies the boundary).
pub fn epoch_cuts(plan: &ChurnPlan, cfg: &RunConfig, start: usize, end: usize) -> Vec<usize> {
    let interval = cfg.tau * cfg.pi;
    plan.boundary_rounds(cfg.total_iters / interval)
        .into_iter()
        .map(|r| r * interval)
        .filter(|&t| t > start && t <= end)
        .collect()
}

/// Re-keys a uid-keyed adversary plan onto the flat positions of one
/// epoch's tree: entries whose worker is present map to its flat
/// position; absent Byzantine workers corrupt nothing this epoch.
pub fn remap_adversaries(plan: &AdversaryPlan, uids: &[usize]) -> AdversaryPlan {
    let mut remapped = AdversaryPlan::none();
    for b in &plan.byzantine {
        if let Some(flat) = uids.iter().position(|&u| u == b.worker) {
            let mut entry = *b;
            entry.worker = flat;
            remapped.byzantine.push(entry);
        }
    }
    remapped
}

/// The re-parenting transform: keep `x`/`y`, damp the velocity by the
/// bounded-age rule `1/(1 + min(age, MIDDLE_AGE_CAP))`, drop interval
/// accumulators and scratch.
fn rehome(state: &mut WorkerState, age: u64) {
    let damp = 1.0 / (1 + (age as usize).min(MIDDLE_AGE_CAP)) as f32;
    state.v.scale_in_place(damp);
    state.grad_accum.fill(0.0);
    state.y_accum.fill(0.0);
    state.v_accum.fill(0.0);
    state.steps = 0;
    state.scratch.fill(0.0);
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

/// Applies one churn boundary to an end-of-segment snapshot: the round's
/// scheduled events in plan order, then the periodic re-formation if its
/// cadence fires. Returns the next epoch's snapshot — worker states in
/// the *new* tree's flat order, live edge states in stable-id order, the
/// cloud untouched, and [`TrainingSnapshot::topology`] stamped with the
/// advanced [`TopologyVersion`] — and tallies every mutation into
/// `counters`.
///
/// This is the single transform both engines call between epoch segments,
/// so a churn run replays bitwise across engines and thread counts.
///
/// # Errors
///
/// A human-readable message when an event is invalid against the live
/// topology (absent worker, dead edge, failing the last edge, …).
pub fn apply_churn_boundary(
    snapshot: &TrainingSnapshot,
    version: &mut TopologyVersion,
    plan: &ChurnPlan,
    round: usize,
    seed: u64,
    counters: &mut TopologyCounters,
) -> Result<TrainingSnapshot, String> {
    let uids = version.flat_members();
    if snapshot.workers.len() != uids.len() {
        return Err(format!(
            "snapshot holds {} workers, the topology version {}",
            snapshot.workers.len(),
            uids.len()
        ));
    }
    let mut states: BTreeMap<usize, WorkerState> = uids
        .iter()
        .copied()
        .zip(snapshot.workers.iter().cloned())
        .collect();
    let mut edge_states: BTreeMap<usize, TierState> = version
        .live_edges()
        .into_iter()
        .zip(snapshot.edges.iter().cloned())
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
        // state so the snapshot matches the live tree.
        edge_states.retain(|&e, _| version.is_live(e));
        Ok(())
    }

    for event in plan.events_at(round) {
        match *event {
            TopologyEvent::Join { worker, edge } => {
                version.join(worker, edge)?;
                let edge_state = edge_states
                    .get(&edge)
                    .expect("join validated the edge live");
                let mut w = WorkerState::default();
                w.download(&edge_state.x_plus, &edge_state.y_minus);
                states.insert(worker, w);
                counters.joins += 1;
            }
            TopologyEvent::Leave { worker } => {
                let edge = version.leave(worker)?;
                states.remove(&worker);
                if !version.is_live(edge) {
                    edge_states.remove(&edge);
                }
                counters.leaves += 1;
            }
            TopologyEvent::Migrate { worker, edge } => {
                let from = version
                    .parent_of(worker)
                    .ok_or_else(|| format!("worker {worker} is not in the tree"))?;
                let m = version.migrate(worker, edge)?;
                rehome(states.get_mut(&worker).expect("migrant is present"), m.age);
                if !version.is_live(from) {
                    edge_states.remove(&from);
                }
                counters.migrations += 1;
            }
            TopologyEvent::EdgeFail { edge } => {
                let moves = version.fail_edge(edge, seed)?;
                edge_states.remove(&edge);
                for m in &moves {
                    rehome(states.get_mut(&m.worker).expect("orphan is present"), m.age);
                }
                counters.migrations += moves.len() as u64;
                counters.orphaned_rounds += moves.len() as u64;
            }
            TopologyEvent::EdgeReform => {
                reform(version, &mut states, &mut edge_states, counters)?;
            }
        }
    }
    if plan.reform_at(round) {
        reform(version, &mut states, &mut edge_states, counters)?;
    }

    let workers = version
        .flat_members()
        .into_iter()
        .map(|uid| states.remove(&uid).expect("flat members have state"))
        .collect();
    let edges = version
        .live_edges()
        .into_iter()
        .map(|e| edge_states.remove(&e).expect("live edges have state"))
        .collect();
    Ok(TrainingSnapshot {
        algorithm: snapshot.algorithm.clone(),
        tick: snapshot.tick,
        workers,
        edges,
        cloud: snapshot.cloud.clone(),
        middle: Vec::new(),
        topology: Some(version.clone()),
    })
}

fn merge_adversaries(out: &mut [AdversaryCounters], uids: &[usize], segment: &[AdversaryCounters]) {
    for (flat, c) in segment.iter().enumerate() {
        let o = &mut out[uids[flat]];
        o.poisoned_uploads += c.poisoned_uploads;
        o.poisoned_models += c.poisoned_models;
        o.poisoned_momenta += c.poisoned_momenta;
        o.noise_injections += c.noise_injections;
    }
}

fn validate_elastic(
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    cfg: &RunConfig,
) -> Result<(), RunError> {
    cfg.validate().map_err(RunError::BadConfig)?;
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
    if let Some(b) = cfg
        .adversary
        .byzantine
        .iter()
        .find(|b| b.worker >= worker_data.len())
    {
        return Err(RunError::BadConfig(format!(
            "adversary plan marks uid {} Byzantine, but only {} workers are \
             registered (elastic adversary plans are keyed by uid)",
            b.worker,
            worker_data.len()
        )));
    }
    Ok(())
}

/// [`crate::run`] over a hierarchy under a non-empty [`ChurnPlan`]: the
/// frozen-tree loop segmented at every boundary in `cfg.churn`, with
/// workers joining, leaving, migrating, edges failing (members re-homed
/// live) and re-forming between segments.
///
/// `worker_data` registers the whole uid space: the first
/// `hierarchy.num_workers()` datasets fill the initial tree in flat
/// order, trailing datasets belong to registered-but-absent workers that
/// [`TopologyEvent::Join`] can bring in. `cfg.adversary` is keyed by uid.
/// A `stop_at` snapshot carries the topology version in force there
/// ([`TrainingSnapshot::topology`]); a stop exactly at a churn boundary
/// captures the *post*-transform tree, so resuming never re-applies it.
/// `hierarchy` and `worker_data` stay the *initial* tree and the full
/// registered table on resume.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_elastic<M, S>(
    strategy: &S,
    model: &M,
    hierarchy: &Hierarchy,
    worker_data: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    resume: Option<&TrainingSnapshot>,
    stop_at: Option<usize>,
) -> Result<RunResult, RunError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    validate_elastic(hierarchy, worker_data, cfg)?;
    let plan = cfg.churn.clone();
    let mut version = match resume {
        Some(snap) => snap.topology.clone().ok_or_else(|| {
            RunError::BadConfig(
                "snapshot carries no topology version; it was not captured \
                 by an elastic run and cannot resume under a non-empty \
                 ChurnPlan"
                    .into(),
            )
        })?,
        None => initial_version(hierarchy, worker_data.len()).map_err(RunError::Topology)?,
    };
    if version.registered() != worker_data.len() {
        return Err(RunError::Data(format!(
            "snapshot topology registers {} uids, {} datasets supplied",
            version.registered(),
            worker_data.len()
        )));
    }

    let start = resume.map_or(0, |s| s.tick);
    let end = stop_at.unwrap_or(cfg.total_iters);
    let cuts = epoch_cuts(&plan, cfg, start, end);

    let mut frozen = cfg.clone();
    frozen.churn = ChurnPlan::none();
    let mut counters = TopologyCounters::default();
    let mut cur: Option<TrainingSnapshot> = resume.cloned();
    let mut results: Vec<RunResult> = Vec::new();
    let mut uid_maps: Vec<Vec<usize>> = Vec::new();

    let run_segment = |cur: &Option<TrainingSnapshot>,
                       stop: Option<usize>,
                       version: &TopologyVersion,
                       results: &mut Vec<RunResult>,
                       uid_maps: &mut Vec<Vec<usize>>|
     -> Result<Option<TrainingSnapshot>, RunError> {
        let (tree, uids) = epoch_tree(version);
        let data: Vec<Dataset> = uids.iter().map(|&u| worker_data[u].clone()).collect();
        let mut seg_cfg = frozen.clone();
        seg_cfg.adversary = remap_adversaries(&cfg.adversary, &uids);
        let mut res = run_span(
            strategy,
            model,
            Participants::Registered {
                hierarchy: &tree,
                worker_data: &data,
            },
            test_data,
            &seg_cfg,
            None,
            cur.as_ref(),
            stop,
        )?;
        let snap = res.snapshot.take();
        results.push(res);
        uid_maps.push(uids);
        Ok(snap)
    };

    for &t in &cuts {
        let snap = run_segment(&cur, Some(t), &version, &mut results, &mut uid_maps)?
            .expect("stop_at segments return their snapshot");
        let round = t / (cfg.tau * cfg.pi);
        let next = apply_churn_boundary(&snap, &mut version, &plan, round, cfg.seed, &mut counters)
            .map_err(RunError::BadConfig)?;
        cur = Some(next);
    }
    if cuts.last() != Some(&end) {
        let snap = run_segment(&cur, stop_at, &version, &mut results, &mut uid_maps)?;
        cur = snap.map(|mut s| {
            s.topology = Some(version.clone());
            s
        });
    }

    let mut stitched = stitch(results, &uid_maps, worker_data.len());
    stitched.topology = counters;
    stitched.snapshot = cur.filter(|_| stop_at.is_some());
    Ok(stitched)
}

/// Concatenates per-segment results into one run-shaped result. The
/// `adversaries` tallies come back keyed by **uid** (one slot per
/// registered worker), since flat positions are only meaningful within an
/// epoch.
fn stitch(results: Vec<RunResult>, uid_maps: &[Vec<usize>], registered: usize) -> RunResult {
    let mut iter = results.into_iter();
    let mut out = iter.next().expect("at least one segment runs");
    let mut adversaries = vec![AdversaryCounters::default(); registered];
    let mut curve = ConvergenceCurve::new();
    for p in out.curve.points() {
        curve.push(*p);
    }
    merge_adversaries(&mut adversaries, &uid_maps[0], &out.adversaries);
    for (res, uids) in iter.zip(&uid_maps[1..]) {
        for p in res.curve.points() {
            curve.push(*p);
        }
        out.gamma_trace.extend(res.gamma_trace);
        out.cos_trace.extend(res.cos_trace);
        out.final_params = res.final_params;
        out.elapsed += res.elapsed;
        out.timings.local_steps += res.timings.local_steps;
        out.timings.edge_agg += res.timings.edge_agg;
        out.timings.cloud_agg += res.timings.cloud_agg;
        out.timings.eval += res.timings.eval;
        merge_adversaries(&mut adversaries, uids, &res.adversaries);
    }
    out.curve = curve;
    out.adversaries = adversaries;
    out
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
    /// cloud round sends the run through the elastic segmenter as one
    /// segment, which must be bitwise the frozen engine's run.
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
