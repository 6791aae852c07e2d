//! Elastic topology over the event-driven runtime: the virtual-clock
//! counterpart of [`hieradmo_core::elastic`].
//!
//! Given a non-empty [`RunConfig::churn`] plan, [`crate::simulate`]
//! splits the run at every [`ChurnPlan`] boundary into topology-epoch
//! segments, runs each through the unchanged co-simulation engine
//! against that epoch's frozen tree (resuming the
//! mailbox from the previous segment's end state), and applies the
//! boundary's events between segments via the *same*
//! [`hieradmo_core::elastic::apply_churn_boundary`] transform the
//! tick-driven engine uses — so for a given `(plan, seed)` both engines
//! evolve the identical topology and, under [`crate::SyncPolicy::FullSync`]
//! without faults, the identical model trajectory bit for bit (gated by
//! `tests/elastic_topology.rs`).
//!
//! Epoch-boundary semantics under the virtual clock:
//!
//! * **Epoch barrier.** A churn boundary is a synchronization barrier:
//!   every worker drains to the boundary tick, the mailbox state is
//!   transformed, and the next segment starts with fresh in-flight state.
//!   Relaxed-policy bookkeeping (AsyncAge ages, Deadline round carry-over,
//!   pending releases) resets at the barrier — a re-formed tree has no
//!   meaningful staleness against edges that may no longer exist.
//! * **Actor streams re-key per epoch.** Delay, fault and adversary
//!   streams are addressed by flat position within the epoch's tree
//!   (workers `0..n`, edges `n..n+L`), exactly like the training RNG
//!   streams in the core elastic runtime — a deterministic function of
//!   `(plan, seed)`, identical across thread counts.
//! * **Device profiles act as a pool** (the same rule sampled
//!   virtual-population runs use): registered worker `g` computes on
//!   profile `g mod pool size`, so the initial tree's environment
//!   describes any epoch's membership.
//! * **Permanent crashes are keyed by uid** and re-applied per segment
//!   with their death time shifted into the segment's local clock; a
//!   worker whose death time has already passed dies again at the start
//!   of every later segment it appears in, so permanent death survives
//!   the epoch barrier.
//!
//! Per-actor tallies merge across segments by stable identity —
//! `worker-{uid}`, `edge-{stable id}`, `cloud` — and utilization is
//! recomputed against the whole run's virtual duration.

use std::collections::BTreeMap;

use hieradmo_core::elastic::{
    apply_churn_boundary, epoch_cuts, epoch_tree, initial_version, remap_adversaries,
};
use hieradmo_core::{RunConfig, RunError, TrainingSnapshot};
use hieradmo_data::Dataset;
use hieradmo_metrics::{
    ActorAdversaries, ActorFaults, ActorUtilization, AdversaryCounters, FaultCounters,
    TopologyCounters,
};
use hieradmo_models::Model;
use hieradmo_netsim::PermanentCrash;
use hieradmo_topology::{ChurnPlan, Hierarchy, TopologyVersion};

use hieradmo_core::Strategy;

use crate::driver::{simulate, simulate_span, SimError, SimResult, Span};
use crate::policy::SimConfig;

/// Stable actor identity for cross-segment merging: workers sort before
/// edges, edges before the cloud, each by stable id.
type ActorKey = (u8, usize);

fn add_faults(into: &mut FaultCounters, c: &FaultCounters) {
    into.crashes += c.crashes;
    into.recovery_ms += c.recovery_ms;
    into.messages_lost += c.messages_lost;
    into.messages_duplicated += c.messages_duplicated;
    into.duplicates_received += c.duplicates_received;
    into.transfer_failures += c.transfer_failures;
    into.retries += c.retries;
    into.lost_uploads += c.lost_uploads;
    into.delay_spikes += c.delay_spikes;
}

fn add_adversaries(into: &mut AdversaryCounters, c: &AdversaryCounters) {
    into.poisoned_uploads += c.poisoned_uploads;
    into.poisoned_models += c.poisoned_models;
    into.poisoned_momenta += c.poisoned_momenta;
    into.noise_injections += c.noise_injections;
}

fn actor_label(key: &ActorKey) -> String {
    match key.0 {
        0 => format!("worker-{}", key.1),
        1 => format!("edge-{}", key.1),
        _ => "cloud".to_string(),
    }
}

/// Per-actor tallies accumulated across epoch segments.
#[derive(Default)]
struct ActorTotals {
    busy_seconds: f64,
    faults: FaultCounters,
    adversaries: AdversaryCounters,
}

/// Folds one segment's positionally-ordered actor vectors (workers in
/// flat order, then edges, then cloud — the [`SimResult`] convention)
/// into the stable-identity totals.
fn merge_actors(
    totals: &mut BTreeMap<ActorKey, ActorTotals>,
    res: &SimResult,
    uids: &[usize],
    live_edges: &[usize],
) {
    let n = uids.len();
    let l = live_edges.len();
    debug_assert_eq!(res.utilization.len(), n + l + 1);
    for (pos, util) in res.utilization.iter().enumerate() {
        let key: ActorKey = if pos < n {
            (0, uids[pos])
        } else if pos < n + l {
            (1, live_edges[pos - n])
        } else {
            (2, 0)
        };
        let t = totals.entry(key).or_default();
        t.busy_seconds += util.busy_seconds;
        add_faults(&mut t.faults, &res.faults[pos].counters);
        add_adversaries(&mut t.adversaries, &res.adversaries[pos].counters);
    }
}

/// The per-segment [`SimConfig`]: device profiles re-drawn from the pool
/// for this epoch's membership, permanent crashes re-keyed from uid to
/// flat position and shifted into the segment's local clock.
fn segment_sim(sim: &SimConfig, uids: &[usize], clock_base_ms: f64) -> SimConfig {
    let mut seg = sim.clone();
    let pool = &sim.env.worker_devices;
    seg.env.worker_devices = uids.iter().map(|&u| pool[u % pool.len()].clone()).collect();
    seg.faults.permanent = sim
        .faults
        .permanent
        .iter()
        .filter_map(|p| {
            uids.iter()
                .position(|&u| u == p.worker)
                .map(|flat| PermanentCrash {
                    worker: flat,
                    at_ms: (p.at_ms - clock_base_ms).max(0.0),
                })
        })
        .collect();
    seg
}

/// A one-line call of [`crate::simulate`], kept because the repository
/// benchmark calls it.
///
/// # Errors
///
/// Everything [`crate::simulate`] rejects.
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

/// [`crate::simulate`] under a non-empty [`RunConfig::churn`] plan: the
/// event-driven counterpart of the core elastic runtime, composing churn
/// with delay environments, sync policies, fault plans and adversary
/// plans.
///
/// `worker_data` registers the whole uid space (initial tree first, join
/// candidates after), `cfg.adversary` and `sim.faults.permanent` are
/// keyed by uid, and `sim.env.worker_devices` is a device pool (worker
/// `g` computes on profile `g mod pool size`). N-tier trees
/// ([`SimConfig::tiers`]) do not compose with churn yet and are rejected.
pub(crate) fn simulate_churn<M, S>(
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
    let bad = |m: String| SimError::Run(RunError::BadConfig(m));
    cfg.validate().map_err(bad)?;
    let plan = cfg.churn.clone();
    if sim.tiers.is_some() {
        return Err(bad(
            "N-tier trees do not compose with a ChurnPlan yet; elastic \
             co-simulations are three-tier"
                .into(),
        ));
    }
    if sim.env.worker_devices.is_empty() {
        return Err(SimError::Net(
            "elastic runs need at least one worker device profile in the pool".into(),
        ));
    }
    if worker_data.len() < hierarchy.num_workers() {
        return Err(SimError::Run(RunError::Data(format!(
            "{} worker datasets cannot register an initial tree of {}",
            worker_data.len(),
            hierarchy.num_workers()
        ))));
    }
    if let Some(i) = worker_data.iter().position(Dataset::is_empty) {
        return Err(SimError::Run(RunError::Data(format!(
            "worker {i} has no data"
        ))));
    }
    if let Some(b) = cfg
        .adversary
        .byzantine
        .iter()
        .find(|b| b.worker >= worker_data.len())
    {
        return Err(SimError::Adversary(format!(
            "attack targets uid {} but only {} workers are registered",
            b.worker,
            worker_data.len()
        )));
    }
    if let Some(p) = sim
        .faults
        .permanent
        .iter()
        .find(|p| p.worker >= worker_data.len())
    {
        return Err(SimError::Fault(format!(
            "permanent crash targets uid {} but only {} workers are registered",
            p.worker,
            worker_data.len()
        )));
    }

    let mut version: TopologyVersion = initial_version(hierarchy, worker_data.len())
        .map_err(|m| SimError::Run(RunError::Topology(m)))?;
    let total = cfg.total_iters;
    let cuts = epoch_cuts(&plan, cfg, 0, total);

    let mut frozen = cfg.clone();
    frozen.churn = ChurnPlan::none();
    let mut counters = TopologyCounters::default();
    let mut cur: Option<TrainingSnapshot> = None;
    let mut start = 0usize;
    let mut iter_base = 0usize;
    let mut firing_base = 0usize;
    let mut clock_base_ms = 0.0f64;
    let mut totals: BTreeMap<ActorKey, ActorTotals> = BTreeMap::new();
    let mut out: Option<SimResult> = None;

    let mut boundaries = cuts.clone();
    if boundaries.last() != Some(&total) {
        boundaries.push(total);
    }
    for &t in &boundaries {
        let (tree, uids) = epoch_tree(&version);
        let live = version.live_edges();
        let data: Vec<Dataset> = uids.iter().map(|&u| worker_data[u].clone()).collect();
        let mut seg_cfg = frozen.clone();
        seg_cfg.adversary = remap_adversaries(&cfg.adversary, &uids);
        let seg_sim = segment_sim(sim, &uids, clock_base_ms);
        let span = Span {
            start,
            limit: t,
            resume: cur.as_ref(),
            iter_base,
            firing_base,
            final_segment: t == total,
        };
        let (res, snap, next_iter, next_firing) = simulate_span(
            strategy, model, &tree, &data, test_data, &seg_cfg, &seg_sim, span,
        )?;
        iter_base = next_iter;
        firing_base = next_firing;
        merge_actors(&mut totals, &res, &uids, &live);
        let seg_ms = res.simulated_seconds * 1000.0;
        match &mut out {
            None => out = Some(offset_timed(res, clock_base_ms)),
            Some(acc) => fold_segment(acc, offset_timed(res, clock_base_ms)),
        }
        clock_base_ms += seg_ms;
        if cuts.contains(&t) {
            let round = t / (cfg.tau * cfg.pi);
            let next =
                apply_churn_boundary(&snap, &mut version, &plan, round, cfg.seed, &mut counters)
                    .map_err(bad)?;
            cur = Some(next);
        } else {
            cur = Some(snap);
        }
        start = t;
    }

    let mut result = out.expect("at least one segment runs");
    result.simulated_seconds = clock_base_ms / 1000.0;
    result.topology = counters;
    // Rebuild the actor tallies on stable identities over the whole run.
    let end_s = result.simulated_seconds;
    result.utilization = totals
        .iter()
        .map(|(key, t)| ActorUtilization {
            actor: actor_label(key),
            busy_seconds: t.busy_seconds,
            utilization: if end_s > 0.0 {
                (t.busy_seconds / end_s).min(1.0)
            } else {
                0.0
            },
        })
        .collect();
    result.faults = totals
        .iter()
        .map(|(key, t)| ActorFaults {
            actor: actor_label(key),
            counters: t.faults,
        })
        .collect();
    result.adversaries = totals
        .iter()
        .map(|(key, t)| ActorAdversaries {
            actor: actor_label(key),
            counters: t.adversaries,
        })
        .collect();
    Ok(result)
}

/// Shifts a segment's wall-clock axis by the accumulated virtual time of
/// the segments before it.
fn offset_timed(mut res: SimResult, clock_base_ms: f64) -> SimResult {
    if clock_base_ms > 0.0 {
        let shifted = res
            .timed_curve
            .points()
            .iter()
            .map(|p| {
                let mut q = *p;
                q.seconds += clock_base_ms / 1000.0;
                q
            })
            .collect::<Vec<_>>();
        let mut timed = hieradmo_metrics::TimedCurve::new();
        for p in shifted {
            timed.push(p);
        }
        res.timed_curve = timed;
    }
    res
}

/// Concatenates a later segment's trajectory onto the accumulator.
fn fold_segment(acc: &mut SimResult, res: SimResult) {
    for p in res.curve.points() {
        acc.curve.push(*p);
    }
    for p in res.timed_curve.points() {
        acc.timed_curve.push(*p);
    }
    acc.gamma_trace.extend(res.gamma_trace);
    acc.cos_trace.extend(res.cos_trace);
    acc.final_params = res.final_params;
    acc.events += res.events;
}

/// A `worker-{uid}` label helper for tests and exports.
#[doc(hidden)]
pub fn worker_label(uid: usize) -> String {
    actor_label(&(0, uid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_keys_sort_workers_edges_cloud() {
        let mut m: BTreeMap<ActorKey, ()> = BTreeMap::new();
        m.insert((2, 0), ());
        m.insert((1, 3), ());
        m.insert((0, 7), ());
        m.insert((0, 2), ());
        let labels: Vec<String> = m.keys().map(actor_label).collect();
        assert_eq!(labels, vec!["worker-2", "worker-7", "edge-3", "cloud"]);
    }

    #[test]
    fn policy_label_is_stable() {
        assert_eq!(crate::policy::SyncPolicy::FullSync.label(), "full-sync");
    }
}
