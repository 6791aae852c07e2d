//! Event-driven co-simulation over a *virtual* worker population: only the
//! per-round sampled cohort exists as actors, so queue cost, memory, and
//! events processed are all `O(active)`, never `O(registered)`.
//!
//! [`simulate_virtual`] is the event-driven counterpart of
//! [`hieradmo_core::population::run_virtual`] and its tiered variants. It
//! validates the population and runs it through the one co-simulation
//! engine (`crate::driver`). Under full participation the engine runs the
//! materialized population as registered workers, exactly as
//! [`crate::simulate`] does; under sampling it runs the engine's sampled
//! participant source, whose per-slot RNG streams — mini-batch order,
//! adversary draws, network delays, fault draws, dropout masks — all
//! re-derive from `(seed, worker_id, round)`. Under
//! [`SyncPolicy::FullSync`](crate::SyncPolicy::FullSync) the model
//! trajectory is therefore bitwise identical to `run_virtual`'s /
//! `run_virtual_tiered`'s and independent of thread count (gated by
//! `tests/sampling_equivalence.rs`).
//!
//! Sampled edges progress their rounds independently between cloud
//! barriers; evaluation and γ traces are staged per round at *edge*
//! granularity and emitted once every edge has contributed, reproducing
//! the tick-driven round means exactly.
//!
//! # Relaxed policies over sampled cohorts
//!
//! Because a cohort worker only exists for one round and re-materializes
//! from its edge at the next round's start, the straggler semantics of
//! [`SyncPolicy::Deadline`](crate::SyncPolicy::Deadline) and
//! [`SyncPolicy::AsyncAge`](crate::SyncPolicy::AsyncAge) simplify to
//! *waiver-at-the-round*: a straggler that misses its round's firing is
//! discarded (its slot re-materializes next round — the rejoin is free),
//! and the slot's carried state enters the aggregation hook at staleness
//! ≥ 1. Deadline rounds therefore see per-slot staleness of 0 or 1;
//! AsyncAge tracks a per-slot buffer age that grows one per missed round
//! and is bounded by `max_staleness` exactly as for registered workers.
//!
//! # Faults over sampled cohorts
//!
//! Transient crashes are decided *at materialization*: sampled worker `g`
//! in round `k` draws once from its private `(net_seed, g, k)` fault
//! stream ([`hieradmo_core::population::fault_stream`]) and, if it
//! crashes, sits the round out (absent: no download, no steps, no upload)
//! — the event-driven spelling of a crash that costs the whole interval.
//! Absent slots are waived at every policy's barrier, and rejoin
//! automatically at the next materialization. Permanent crashes remove a
//! registered id from every cohort from `at_ms` on. Delay spikes multiply
//! individual step times from the same per-`(worker, round)` stream.
//!
//! Link faults run the registered workers' retry/duplicate protocol over
//! the sampled cohort: slot downloads and uploads draw the transfer
//! outcome from the occupying worker's `(worker, round)` fault stream, and
//! the edge↔cloud hops from a per-edge stream that exists for the whole
//! run — the mailbox state a cohort slot cannot keep lives at the
//! (persistent) edge actors. Retries and backoff only stretch the transfer
//! (delivery eventually succeeds), so the FullSync model trajectory stays
//! bitwise identical to the fault-free run; duplicates arrive as separate
//! events and are tallied at the receiving actor.

use hieradmo_core::population::WorkerPopulation;
use hieradmo_core::{RunConfig, RunError, Strategy};
use hieradmo_data::Dataset;
use hieradmo_models::Model;
use hieradmo_netsim::Architecture;
use hieradmo_topology::{Hierarchy, TierTree};

use crate::driver::{simulate_sampled, validate_run, SimError, SimResult};
use crate::policy::SimConfig;

/// Runs `strategy` over a virtual population under the co-simulation: the
/// event-driven counterpart of
/// [`hieradmo_core::population::run_virtual`] and
/// [`hieradmo_core::population::run_virtual_tiered`], with the same
/// sampled model trajectory bit for bit under
/// [`SyncPolicy::FullSync`](crate::SyncPolicy::FullSync) (gated by
/// `tests/sampling_equivalence.rs`) and an honest virtual-time axis on
/// top.
///
/// Under full participation this materializes the population and runs it
/// as registered workers, exactly as [`crate::simulate`] does —
/// `sim.env.worker_devices` must then cover the whole materialized
/// population. Under sampling, device profiles act as a *pool*:
/// registered worker `g` computes on profile `g mod pool size`, so a small
/// profile set describes any population.
///
/// Per round and edge, only the sampled cohort exists: the event queue
/// holds `O(cohort + edges)` events, registered-but-idle workers cost
/// nothing, and the actor tallies in the result are `O(edges)` (workers
/// report as one aggregate entry; `adversaries` carries one entry per
/// plan entry instead of one per registered worker).
///
/// Sampled runs compose with every [`SyncPolicy`](crate::SyncPolicy)
/// (stragglers are waived per round and rejoin at the next
/// materialization — see the module docs), with N-tier trees (`sim.tiers`: middle tiers fire at the cloud
/// actor through `Strategy::tier_aggregate_stale` with per-subtree
/// staleness), with crash/spike fault plans (absence decided at
/// materialization from per-`(worker, round)` streams), with link faults
/// (the retry/duplicate protocol runs per transfer, drawing from the
/// occupying worker's round stream on the leaf hops and from per-edge
/// streams on the cloud hops — see the module docs), and with dropout
/// ([`hieradmo_core::population::cohort_dropout_mask`]).
///
/// Remaining sampled-path restrictions (validated):
/// [`Architecture::ThreeTier`] only, a non-empty device pool, no legacy
/// `edges`/`workers_per_edge` fields, no [`RunConfig::churn`] plan, and
/// N-tier trees need a uniform cohort size that matches the population's
/// registered shape.
///
/// # Errors
///
/// [`SimError`] on any inconsistency above, plus everything the
/// population/sampling validation in
/// [`hieradmo_core::population::run_virtual`] rejects.
pub fn simulate_virtual<M, S>(
    strategy: &S,
    model: &M,
    population: &WorkerPopulation,
    shards: &[Dataset],
    test_data: &Dataset,
    cfg: &RunConfig,
    sim: &SimConfig,
) -> Result<SimResult, SimError>
where
    M: Model + Clone + Send,
    S: Strategy + ?Sized,
{
    validate_run(cfg, sim)?;
    population
        .validate_shards(shards)
        .map_err(|m| SimError::Run(RunError::Data(m)))?;
    if let Some(b) = cfg
        .adversary
        .byzantine
        .iter()
        .find(|b| b.worker as u64 >= population.total_workers())
    {
        return Err(SimError::Adversary(format!(
            "attack targets worker {} but the population registers only {} workers",
            b.worker,
            population.total_workers()
        )));
    }
    if cfg.sampling.is_full() {
        let hierarchy = population
            .materialize_hierarchy()
            .map_err(|m| SimError::Run(RunError::Data(m)))?;
        let worker_data = population.materialize_shards(shards);
        return crate::simulate(
            strategy,
            model,
            &hierarchy,
            &worker_data,
            test_data,
            cfg,
            sim,
        );
    }
    if cfg.edges.is_some() || cfg.workers_per_edge.is_some() {
        return Err(SimError::Run(RunError::BadConfig(
            "legacy edges/workers_per_edge fields are not supported with a \
             virtual population (the population defines the topology)"
                .into(),
        )));
    }
    if sim.architecture != Architecture::ThreeTier {
        return Err(SimError::Net(
            "client sampling requires Architecture::ThreeTier".into(),
        ));
    }
    if sim.env.worker_devices.is_empty() {
        return Err(SimError::Net(
            "the device-profile pool must not be empty".into(),
        ));
    }
    sim.faults
        .validate_for_population(population.total_workers())
        .map_err(SimError::Fault)?;
    if let Some(tree) = &sim.tiers {
        if tree.num_edges() != population.num_edges() {
            return Err(SimError::Run(RunError::BadConfig(format!(
                "tier tree spans {} edges, the population registers {}",
                tree.num_edges(),
                population.num_edges()
            ))));
        }
        let leaf = tree.levels().last().expect("trees have levels").fanout as u64;
        if let Some(e) =
            (0..population.num_edges()).find(|&e| population.workers_in_edge(e) != leaf)
        {
            return Err(SimError::Run(RunError::BadConfig(format!(
                "tier tree registers {leaf} workers per edge, edge {e} \
                 registers {}",
                population.workers_in_edge(e)
            ))));
        }
    }

    let cohort = population
        .cohort_sizes(&cfg.sampling)
        .map_err(|m| SimError::Run(RunError::BadConfig(m)))?;
    if sim.tiers.is_some() && cohort.windows(2).any(|w| w[0] != w[1]) {
        return Err(SimError::Run(RunError::BadConfig(
            "sampled tier trees need one uniform cohort size (the sampled \
             sub-tree must stay balanced); use ClientSampling::PerEdge"
                .into(),
        )));
    }
    sim.validate(cohort.iter().copied().min())
        .map_err(SimError::Policy)?;
    // The engine runs the *sampled* sub-tree: the registered tree with its
    // leaf fanout swapped for the (uniform) cohort size. All non-leaf
    // levels — and with them every middle boundary — are unchanged.
    let tree = sim.tiers.as_ref().map(|tree| {
        let mut levels = tree.levels().to_vec();
        levels.last_mut().expect("trees have levels").fanout = cohort[0];
        TierTree::new(levels).expect("cohort sub-tree of a validated tree is valid")
    });
    let hierarchy = Hierarchy::new(cohort);
    strategy
        .check_topology(&hierarchy)
        .map_err(|m| SimError::Run(RunError::Topology(m)))?;
    Ok(simulate_sampled(
        strategy, model, population, shards, test_data, cfg, sim, hierarchy, tree,
    ))
}
