//! Virtual worker populations: per-round client sampling over millions of
//! *registered* workers while only the sampled cohort ever materializes.
//!
//! The cross-device regime (Client-Edge-Cloud HFL, arxiv 1905.06641)
//! assumes each edge samples a small cohort of its registered clients per
//! round. This module makes that regime first-class without per-worker
//! allocation:
//!
//! - [`WorkerPopulation`] describes workers *intensionally* — per-edge
//!   counts plus a data-shard assignment rule — in `O(edges + shards)`
//!   memory, whatever the registered population size.
//! - [`CohortSampler`] draws each edge's per-round cohort without
//!   replacement from a seed that depends only on `(seed, edge, round)`.
//! - [`draw_edge_cohort`] draws an edge's round cohort and refreshes its
//!   in-cohort data weights; the engines then overwrite each cohort slot
//!   from the edge's download pair
//!   ([`WorkerState::download`](crate::WorkerState::download)) on the lane
//!   that steps it, so nothing of a slot's previous occupant survives a
//!   round boundary.
//! - Every per-worker RNG stream (mini-batch order, adversary draws,
//!   network delays) re-derives from `(seed, worker_id, round)` via
//!   [`worker_round_seed`], so trajectories are independent of population
//!   size, thread count, and scheduling.
//! - [`crate::run`] with a [`crate::RunSpec::population`] source runs
//!   through the one tick-driven loop (`crate::driver`), which takes
//!   sampled cohorts as one of its two participant sources; the
//!   event-driven counterpart is `hieradmo_simrt::simulate_virtual`. Under
//!   [`ClientSampling::Full`] (or a fraction ≥ 1) both run the
//!   materialized population as registered workers, reproducing the
//!   classic trajectories bitwise (gated by
//!   `tests/sampling_equivalence.rs`).
//!
//! A sampled run, round `k` of `T / τ`: every edge samples a cohort, each
//! slot materializes from its edge's download pair, runs `τ` local steps
//! on per-round streams, Byzantine members poison their uploads, and the
//! edge aggregates the cohort with in-cohort renormalized weights; the
//! cloud fires every `π` rounds over population-weighted edge shares, and
//! middle tiers of a tree at their boundaries. Evaluation happens at round
//! boundaries on the grid of `eval_every` (and at the final round), on the
//! population-weighted edge average ([`virtual_global_params`]). Dropout
//! composes: each cohort worker skips the steps its
//! [`cohort_dropout_mask`] drops. A `stop_at` snapshot needs no RNG replay
//! on resume, since every stream re-derives from `(seed, worker, round)`.
//!
//! Restrictions of the sampled path, all typed errors: two-tier
//! algorithms ([`cohort_federation`]), adversary plans addressing workers
//! by anything but *global* ids, a tree whose leaf fanout is not every
//! edge's registered count ([`check_population_tree`]), and non-uniform
//! cohort sizes under a tree.
//!
//! Aggregation weights follow the partition-of-unity split of
//! [`Weights::from_cohort`]: within an edge, data shares renormalize over
//! the sampled cohort; across edges, shares keep the full registered
//! population's proportions.

use hieradmo_data::Dataset;
use hieradmo_netsim::stream_seed;
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierTree, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::RunConfig;
use crate::driver::RunError;
use crate::state::FlState;
use crate::strategy::{Strategy, Tier};

/// Largest population the full-participation path will
/// materialize (per-worker state and shard clones). Beyond this, ask for
/// sampling — that is the point of a virtual population.
pub const MATERIALIZE_CAP: u64 = 1 << 16;

/// Stream salts decorrelating the per-`(worker, round)` derivations from
/// each other and from every legacy stream.
const SALT_BATCH: u64 = 0x6261_7463_6865_7221;
const SALT_ADVERSARY: u64 = 0x6164_7665_7273_6172;
const SALT_NET: u64 = 0x6e65_745f_7374_7265;
const SALT_COHORT: u64 = 0x636f_686f_7274_2121;
const SALT_DROPOUT: u64 = 0x6472_6f70_6f75_7421;
const SALT_FAULT: u64 = 0x6661_756c_745f_7374;

/// Seed for a worker's per-round RNG stream: a function of `(master,
/// worker_id, round)` *only* — never of population size, cohort
/// composition, thread count, or pool-recycling order. Composes the
/// pinned [`stream_seed`] mixer twice.
pub fn worker_round_seed(master: u64, worker_id: u64, round: u64) -> u64 {
    stream_seed(stream_seed(master, worker_id), round)
}

/// Mini-batch stream seed of worker `worker_id` in round `round` (feeds
/// [`hieradmo_data::Batcher`]).
pub fn batcher_seed(master: u64, worker_id: u64, round: u64) -> u64 {
    worker_round_seed(master ^ SALT_BATCH, worker_id, round)
}

/// Adversary stream id of worker `worker_id` in round `round` (feeds
/// `AdversarySampler::from_stream` together with the training seed).
pub fn adversary_stream(worker_id: u64, round: u64) -> u64 {
    worker_round_seed(SALT_ADVERSARY, worker_id, round)
}

/// Network-delay stream id of worker `worker_id` in round `round` (feeds
/// `DelaySampler::from_stream` together with the network seed in the
/// event-driven engine).
pub fn delay_stream(worker_id: u64, round: u64) -> u64 {
    worker_round_seed(SALT_NET, worker_id, round)
}

/// Fault stream id of worker `worker_id` in round `round` (feeds
/// `FaultSampler::from_stream` together with the network seed in the
/// event-driven engine): sampled cohorts re-derive crash and spike draws
/// per `(worker, round)`, so fault trajectories are independent of cohort
/// composition, thread count, and scheduling.
pub fn fault_stream(worker_id: u64, round: u64) -> u64 {
    worker_round_seed(SALT_FAULT, worker_id, round)
}

/// Per-step dropout mask of worker `worker_id` in round `round`: `tau`
/// draws from a dedicated `(master, worker, round)` stream, `true` where
/// the step is dropped (skipped entirely: no mini-batch draw, no local
/// step, no compute time). Both virtual engines share this helper, so
/// sampled dropout runs stay bitwise identical across engines and thread
/// counts. A zero (or negative) `dropout` returns an all-false mask
/// without drawing.
pub fn cohort_dropout_mask(
    master: u64,
    worker_id: u64,
    round: u64,
    tau: usize,
    dropout: f64,
) -> Vec<bool> {
    if dropout <= 0.0 {
        return vec![false; tau];
    }
    let mut rng = StdRng::seed_from_u64(worker_round_seed(master ^ SALT_DROPOUT, worker_id, round));
    (0..tau)
        .map(|_| rng.gen_range(0.0..1.0) < dropout)
        .collect()
}

/// Per-round client sampling policy.
///
/// The default ([`ClientSampling::Full`]) is today's full participation:
/// every registered worker runs every round, and the virtual drivers run
/// the materialized population, bitwise the classic trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ClientSampling {
    /// Every registered worker participates every round.
    #[default]
    Full,
    /// Each edge samples `ceil(fraction · population)` of its registered
    /// workers per round (at least 1). `fraction` must be finite and in
    /// `(0, 1]`; a fraction of exactly 1 *is* full participation and
    /// runs like [`ClientSampling::Full`].
    Fraction {
        /// Per-edge participating fraction in `(0, 1]`.
        fraction: f64,
    },
    /// Each edge samples exactly `count` of its registered workers per
    /// round. Must be ≥ 1 and at most the smallest per-edge population.
    PerEdge {
        /// Per-edge cohort size.
        count: usize,
    },
}

impl ClientSampling {
    /// Checks internal consistency: rejects a zero sample size and
    /// non-finite or out-of-`(0, 1]` fractions. (The per-edge population
    /// cross-check lives in [`WorkerPopulation::cohort_sizes`], which
    /// knows the counts.)
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on the conditions above.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClientSampling::Full => Ok(()),
            ClientSampling::Fraction { fraction } => {
                if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
                    return Err(format!(
                        "sampling fraction must be finite and in (0, 1], got {fraction}"
                    ));
                }
                Ok(())
            }
            ClientSampling::PerEdge { count } => {
                if count == 0 {
                    return Err("per-edge sample size must be at least 1".into());
                }
                Ok(())
            }
        }
    }

    /// `true` when this policy is full participation (and the virtual
    /// drivers run the materialized population).
    pub fn is_full(&self) -> bool {
        match *self {
            ClientSampling::Full => true,
            ClientSampling::Fraction { fraction } => fraction >= 1.0,
            ClientSampling::PerEdge { .. } => false,
        }
    }
}

/// How registered workers map to data shards.
///
/// A million-worker run does not hold a million datasets; it holds a few
/// distinct shards and a *rule* assigning each registered worker one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShardAssignment {
    /// Global worker `g` holds shard `g mod num_shards`.
    RoundRobin {
        /// Number of distinct data shards.
        num_shards: usize,
    },
}

impl ShardAssignment {
    /// Number of distinct shards this rule addresses.
    pub fn num_shards(&self) -> usize {
        match *self {
            ShardAssignment::RoundRobin { num_shards } => num_shards,
        }
    }

    /// The shard index of global worker `g`.
    pub fn shard_of(&self, g: u64) -> usize {
        match *self {
            ShardAssignment::RoundRobin { num_shards } => (g % num_shards as u64) as usize,
        }
    }
}

/// An intensional description of the registered worker population: how
/// many workers each edge serves and which data shard each holds.
/// `O(edges)` memory regardless of the registered count — no per-worker
/// allocation happens until a worker is *sampled*.
///
/// Global worker ids are edge-major, exactly like [`Hierarchy`]'s flat
/// indexing: edge `e`'s workers are the contiguous id range
/// `[offsets[e], offsets[e+1])`. A tier-path or flat-index adversary/fault
/// plan built against the equivalent materialized hierarchy therefore
/// addresses the *same* workers by the same ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPopulation {
    per_edge: Vec<u64>,
    /// Prefix sums of `per_edge`; `offsets[e]` is edge `e`'s first global
    /// id, `offsets.last()` the total population.
    offsets: Vec<u64>,
    shards: ShardAssignment,
}

impl WorkerPopulation {
    /// Builds a population from per-edge registered counts and a shard
    /// assignment rule.
    ///
    /// # Errors
    ///
    /// Rejects an empty edge list, a zero-worker edge, a zero-shard rule,
    /// or a total that overflows `u64`.
    pub fn new(per_edge: Vec<u64>, shards: ShardAssignment) -> Result<Self, String> {
        if per_edge.is_empty() {
            return Err("population needs at least one edge".into());
        }
        if let Some(e) = per_edge.iter().position(|&n| n == 0) {
            return Err(format!("edge {e} has zero registered workers"));
        }
        if shards.num_shards() == 0 {
            return Err("shard assignment needs at least one shard".into());
        }
        let mut offsets = Vec::with_capacity(per_edge.len() + 1);
        let mut total: u64 = 0;
        offsets.push(0);
        for &n in &per_edge {
            total = total
                .checked_add(n)
                .ok_or_else(|| "population size overflows u64".to_string())?;
            offsets.push(total);
        }
        Ok(WorkerPopulation {
            per_edge,
            offsets,
            shards,
        })
    }

    /// A balanced population: `edges` edges of `per_edge` workers each,
    /// shards assigned round-robin over `num_shards` shards.
    ///
    /// # Errors
    ///
    /// The [`WorkerPopulation::new`] conditions.
    pub fn uniform(edges: usize, per_edge: u64, num_shards: usize) -> Result<Self, String> {
        Self::new(
            vec![per_edge; edges],
            ShardAssignment::RoundRobin { num_shards },
        )
    }

    /// The population whose edges are a [`Hierarchy`]'s edges — same
    /// worker counts, same edge-major flat ids — so flat-index adversary
    /// and fault plans address identical workers in both worlds.
    ///
    /// # Errors
    ///
    /// The [`WorkerPopulation::new`] conditions.
    pub fn from_hierarchy(hierarchy: &Hierarchy, num_shards: usize) -> Result<Self, String> {
        Self::new(
            (0..hierarchy.num_edges())
                .map(|e| hierarchy.edge_workers(e).len() as u64)
                .collect(),
            ShardAssignment::RoundRobin { num_shards },
        )
    }

    /// The population spanned by a depth-3 [`TierTree`]'s leaf tier (the
    /// tree shape tier-path plans — `AdversaryPlan::uniform_at_paths`,
    /// `PermanentCrash::at_path` — are written against).
    ///
    /// # Errors
    ///
    /// The [`WorkerPopulation::new`] conditions.
    pub fn from_tier_tree(tree: &TierTree, num_shards: usize) -> Result<Self, String> {
        Self::from_hierarchy(&tree.edge_hierarchy(), num_shards)
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.per_edge.len()
    }

    /// Total registered workers across all edges.
    pub fn total_workers(&self) -> u64 {
        *self.offsets.last().expect("offsets is never empty")
    }

    /// Registered workers under edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn workers_in_edge(&self, e: usize) -> u64 {
        self.per_edge[e]
    }

    /// Global id of edge `e`'s `local`-th worker.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `local` exceeds the edge's count.
    pub fn global_id(&self, e: usize, local: u64) -> u64 {
        assert!(local < self.per_edge[e], "local id out of range");
        self.offsets[e] + local
    }

    /// The edge serving global worker `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn edge_of(&self, g: u64) -> usize {
        assert!(g < self.total_workers(), "global id out of range");
        self.offsets.partition_point(|&o| o <= g) - 1
    }

    /// The data shard held by global worker `g`.
    pub fn shard_of(&self, g: u64) -> usize {
        self.shards.shard_of(g)
    }

    /// Per-edge cohort sizes under `sampling`.
    ///
    /// # Errors
    ///
    /// Rejects a [`ClientSampling`] that fails its own validation, and a
    /// per-edge sample size exceeding that edge's registered population.
    pub fn cohort_sizes(&self, sampling: &ClientSampling) -> Result<Vec<usize>, String> {
        sampling.validate()?;
        self.per_edge
            .iter()
            .enumerate()
            .map(|(e, &n)| {
                let k = match *sampling {
                    ClientSampling::Full => n,
                    ClientSampling::Fraction { fraction } => {
                        ((fraction * n as f64).ceil() as u64).clamp(1, n)
                    }
                    ClientSampling::PerEdge { count } => {
                        if count as u64 > n {
                            return Err(format!(
                                "sample size {count} exceeds edge {e}'s registered \
                                 population of {n}"
                            ));
                        }
                        count as u64
                    }
                };
                usize::try_from(k).map_err(|_| format!("cohort size {k} does not fit usize"))
            })
            .collect()
    }

    /// Total data samples registered under each edge, in closed form from
    /// the shard sizes: round-robin assignment sums complete shard cycles
    /// plus a remainder per residue class, `O(edges · shards)` total.
    ///
    /// # Panics
    ///
    /// Panics if `shard_sizes` disagrees with the assignment rule.
    pub fn edge_data_samples(&self, shard_sizes: &[u64]) -> Vec<u64> {
        assert_eq!(
            shard_sizes.len(),
            self.shards.num_shards(),
            "need one size per shard"
        );
        let m = shard_sizes.len() as u64;
        // Workers `g` in `[0, x)` with `g ≡ s (mod m)`.
        let count_upto = |x: u64, s: u64| if x > s { (x - s - 1) / m + 1 } else { 0 };
        (0..self.per_edge.len())
            .map(|e| {
                let (a, b) = (self.offsets[e], self.offsets[e + 1]);
                shard_sizes
                    .iter()
                    .enumerate()
                    .map(|(s, &len)| (count_upto(b, s as u64) - count_upto(a, s as u64)) * len)
                    .sum()
            })
            .collect()
    }

    /// The materialized [`Hierarchy`] equivalent to this population — the
    /// full-participation path.
    ///
    /// # Errors
    ///
    /// Rejects populations past [`MATERIALIZE_CAP`]: materializing them is
    /// exactly what a virtual population avoids; sample instead.
    pub fn materialize_hierarchy(&self) -> Result<Hierarchy, String> {
        if self.total_workers() > MATERIALIZE_CAP {
            return Err(format!(
                "refusing to materialize {} workers (cap {MATERIALIZE_CAP}); \
                 use client sampling for populations this large",
                self.total_workers()
            ));
        }
        Ok(Hierarchy::new(
            self.per_edge.iter().map(|&n| n as usize).collect(),
        ))
    }

    /// One dataset per registered worker (each a clone of its assigned
    /// shard), for the full-participation path. Call only after
    /// [`WorkerPopulation::materialize_hierarchy`] has accepted the size.
    pub fn materialize_shards(&self, shards: &[Dataset]) -> Vec<Dataset> {
        (0..self.total_workers())
            .map(|g| shards[self.shard_of(g)].clone())
            .collect()
    }

    /// Checks `shards` against the assignment rule: one non-empty dataset
    /// per shard.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on count mismatch or empty shards.
    pub fn validate_shards(&self, shards: &[Dataset]) -> Result<(), String> {
        if shards.len() != self.shards.num_shards() {
            return Err(format!(
                "{} shard datasets for a {}-shard assignment",
                shards.len(),
                self.shards.num_shards()
            ));
        }
        if let Some(s) = shards.iter().position(Dataset::is_empty) {
            return Err(format!("shard {s} has no data"));
        }
        Ok(())
    }
}

/// Seeded deterministic per-round cohort sampling: edge `e`'s round-`k`
/// cohort is a uniform without-replacement draw whose RNG seed depends
/// only on `(seed, e's tier path, k)` — never on other edges, earlier
/// rounds, thread count, or population bookkeeping.
///
/// The per-edge stream base folds [`stream_seed`] over the edge's
/// root-to-edge path in the *collapsed* tree
/// ([`TierTree::collapse`] · [`TierTree::edge_path`]), so extending a
/// tree by a pass-through tier cannot move any cohort: the collapsed
/// path — and with it every sampled trajectory — is unchanged (pinned by
/// `tests/sampling_equivalence.rs`). On a depth-3 tree the collapsed
/// path is the single component `[e]`, which makes [`CohortSampler::new`]
/// (the flat, tree-less constructor) and `for_tree` on any depth-3 or
/// pass-through-extended tree draw identical cohorts.
#[derive(Debug, Clone)]
pub struct CohortSampler {
    seed: u64,
    /// Per-edge stream bases (path-folded); `None` means flat edge
    /// indexing, which is defined as the depth-3 path `[edge]`.
    bases: Option<Vec<u64>>,
}

impl CohortSampler {
    /// A sampler over the master training seed, addressing edges by flat
    /// index (the depth-3 shape).
    pub fn new(seed: u64) -> Self {
        CohortSampler { seed, bases: None }
    }

    /// A sampler whose streams derive from each edge's full tier path in
    /// `tree` (after collapsing pass-through tiers), so cohorts are
    /// stable under pass-through extension and distinct across sibling
    /// subtrees at every depth.
    pub fn for_tree(seed: u64, tree: &TierTree) -> Self {
        let collapsed = tree.collapse();
        let bases = (0..collapsed.num_edges())
            .map(|e| {
                collapsed
                    .edge_path(e)
                    .iter()
                    .fold(seed ^ SALT_COHORT, |acc, &c| stream_seed(acc, c as u64))
            })
            .collect();
        CohortSampler {
            seed,
            bases: Some(bases),
        }
    }

    /// Draws edge `edge`'s round-`round` cohort: `k` distinct local ids in
    /// `[0, population)`, ascending. Floyd's algorithm — `O(k log k)` time
    /// and `O(k)` memory however large the population.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0, exceeds `population`, or `edge` is outside a
    /// tree-derived sampler's edge tier.
    pub fn cohort(&self, edge: usize, round: usize, population: u64, k: usize) -> Vec<u64> {
        assert!(k > 0, "cohort must be non-empty");
        assert!(k as u64 <= population, "cohort exceeds population");
        if k as u64 == population {
            return (0..population).collect();
        }
        let base = match &self.bases {
            Some(bases) => bases[edge],
            None => stream_seed(self.seed ^ SALT_COHORT, edge as u64),
        };
        let mut rng = StdRng::seed_from_u64(stream_seed(base, round as u64));
        let mut chosen = std::collections::BTreeSet::new();
        for j in (population - k as u64)..population {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

/// Data-weighted average of per-edge vectors under the cross-edge
/// population shares — the virtual engines' global model (equal to the
/// post-redistribution worker average, since every cohort worker holds its
/// edge's model after aggregation). One implementation shared by both
/// engines so evaluations stay bitwise comparable.
pub fn weighted_edge_average<'a, I>(weights: &Weights, xs: I) -> Vector
where
    I: IntoIterator<Item = &'a Vector>,
{
    Vector::weighted_average(
        xs.into_iter()
            .enumerate()
            .map(|(e, x)| (weights.edge_in_total(e), x)),
    )
}

/// The virtual engines' global model: the population-weighted average of
/// the edges' current models.
pub fn virtual_global_params(fl: &FlState) -> Vector {
    weighted_edge_average(&fl.weights, fl.edges.iter().map(|e| &e.x_plus))
}

/// Draws edge `edge`'s round-`round` cohort and swaps the edge's
/// in-cohort data weights; returns the sampled global ids, ascending.
///
/// The cohort slots themselves are left alone: each engine overwrites a
/// slot with the edge's download pair
/// ([`WorkerState::download`](crate::WorkerState::download): model from
/// `x_plus`, lookahead from `y_minus`, zero velocity and accumulators —
/// exactly the state a full-participation worker holds right after any
/// aggregation) on the lane that steps it, just before its first local
/// step. Touches only edge-local state, so both engines call it at their
/// own per-edge round boundaries and stay bitwise identical.
pub fn draw_edge_cohort(
    fl: &mut FlState,
    population: &WorkerPopulation,
    shard_sizes: &[u64],
    sampler: &CohortSampler,
    edge: usize,
    round: usize,
) -> Vec<u64> {
    let slots = fl.hierarchy.edge_workers(edge);
    let ids: Vec<u64> = sampler
        .cohort(edge, round, population.workers_in_edge(edge), slots.len())
        .into_iter()
        .map(|local| population.global_id(edge, local))
        .collect();
    let counts: Vec<u64> = ids
        .iter()
        .map(|&g| shard_sizes[population.shard_of(g)])
        .collect();
    fl.weights.set_edge_cohort(edge, &counts);
    ids
}

/// Both engines' check that `tree`, if any, describes the registered
/// population: one leaf per edge, each edge's count as the leaf fanout.
///
/// # Errors
///
/// [`RunError::BadConfig`] naming the mismatch.
pub fn check_population_tree(
    population: &WorkerPopulation,
    tree: Option<&TierTree>,
) -> Result<(), RunError> {
    if let Some(tree) = tree {
        if tree.num_edges() != population.num_edges() {
            return Err(RunError::BadConfig(format!(
                "tier tree spans {} edges, the population registers {}",
                tree.num_edges(),
                population.num_edges()
            )));
        }
        let leaf = tree.levels().last().expect("trees have levels").fanout as u64;
        if let Some(e) =
            (0..population.num_edges()).find(|&e| population.workers_in_edge(e) != leaf)
        {
            return Err(RunError::BadConfig(format!(
                "tier tree registers {leaf} workers per edge, edge {e} \
                 registers {}",
                population.workers_in_edge(e)
            )));
        }
    }
    Ok(())
}

/// The federation both engines run a sampled run of `strategy` on: each
/// edge holding its cohort slots, [`Weights::from_cohort`] weights, and on
/// N-tier runs `tiers` with the leaf fanout swapped for the (uniform)
/// cohort size, so every middle boundary is unchanged.
///
/// # Errors
///
/// [`RunError::BadConfig`] for a sampling policy the population cannot
/// serve, non-uniform cohorts under
/// a tree, or a two-tier algorithm: its hooks never write the edges'
/// `x_plus`/`y_minus`, all a cohort downloads and
/// [`virtual_global_params`] evaluates, so its model would never move.
pub fn cohort_federation<S: Strategy + ?Sized>(
    strategy: &S,
    population: &WorkerPopulation,
    shard_sizes: &[u64],
    cfg: &RunConfig,
    tiers: Option<&TierTree>,
) -> Result<(Hierarchy, Weights, Option<TierTree>), RunError> {
    if strategy.tier() == Tier::Two {
        return Err(RunError::BadConfig(format!(
            "{} is a two-tier algorithm and never updates the edge model a \
             sampled cohort downloads; run it under ClientSampling::Full",
            strategy.name()
        )));
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
    let tree = tiers.map(|tree| {
        let mut levels = tree.levels().to_vec();
        levels.last_mut().expect("trees have levels").fanout = cohort[0];
        TierTree::new(levels).expect("cohort sub-tree of a validated tree is valid")
    });
    let hierarchy = Hierarchy::new(cohort);
    let slots = vec![1u64; hierarchy.num_workers()];
    let edge_totals = population.edge_data_samples(shard_sizes);
    let weights = Weights::from_cohort(&hierarchy, &slots, edge_totals);
    Ok((hierarchy, weights, tree))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_validation_rejects_bad_policies() {
        assert!(ClientSampling::Full.validate().is_ok());
        assert!(ClientSampling::Fraction { fraction: 0.5 }
            .validate()
            .is_ok());
        assert!(ClientSampling::Fraction { fraction: 1.0 }
            .validate()
            .is_ok());
        assert!(ClientSampling::Fraction { fraction: 0.0 }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction { fraction: -0.1 }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction { fraction: 1.5 }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction { fraction: f64::NAN }
            .validate()
            .is_err());
        assert!(ClientSampling::Fraction {
            fraction: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(ClientSampling::PerEdge { count: 0 }.validate().is_err());
        assert!(ClientSampling::PerEdge { count: 3 }.validate().is_ok());
    }

    #[test]
    fn full_and_fraction_one_are_full_participation() {
        assert!(ClientSampling::Full.is_full());
        assert!(ClientSampling::Fraction { fraction: 1.0 }.is_full());
        assert!(!ClientSampling::Fraction { fraction: 0.99 }.is_full());
        assert!(!ClientSampling::PerEdge { count: 1 }.is_full());
    }

    #[test]
    fn population_indexing_round_trips() {
        let p = WorkerPopulation::new(vec![3, 5, 2], ShardAssignment::RoundRobin { num_shards: 4 })
            .unwrap();
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.total_workers(), 10);
        assert_eq!(p.workers_in_edge(1), 5);
        for e in 0..3 {
            for local in 0..p.workers_in_edge(e) {
                let g = p.global_id(e, local);
                assert_eq!(p.edge_of(g), e);
            }
        }
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(7), 3);
        assert_eq!(p.shard_of(9), 1);
    }

    #[test]
    fn population_rejects_degenerate_shapes() {
        assert!(
            WorkerPopulation::new(vec![], ShardAssignment::RoundRobin { num_shards: 1 }).is_err()
        );
        assert!(
            WorkerPopulation::new(vec![3, 0], ShardAssignment::RoundRobin { num_shards: 1 })
                .is_err()
        );
        assert!(
            WorkerPopulation::new(vec![3], ShardAssignment::RoundRobin { num_shards: 0 }).is_err()
        );
        assert!(WorkerPopulation::new(
            vec![u64::MAX, 2],
            ShardAssignment::RoundRobin { num_shards: 1 }
        )
        .is_err());
    }

    #[test]
    fn cohort_sizes_cover_every_policy() {
        let p = WorkerPopulation::uniform(2, 10, 2).unwrap();
        assert_eq!(p.cohort_sizes(&ClientSampling::Full).unwrap(), vec![10, 10]);
        assert_eq!(
            p.cohort_sizes(&ClientSampling::Fraction { fraction: 0.25 })
                .unwrap(),
            vec![3, 3]
        );
        assert_eq!(
            p.cohort_sizes(&ClientSampling::Fraction { fraction: 1e-9 })
                .unwrap(),
            vec![1, 1],
            "tiny fractions sample at least one worker"
        );
        assert_eq!(
            p.cohort_sizes(&ClientSampling::PerEdge { count: 4 })
                .unwrap(),
            vec![4, 4]
        );
        let err = p
            .cohort_sizes(&ClientSampling::PerEdge { count: 11 })
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(p
            .cohort_sizes(&ClientSampling::PerEdge { count: 0 })
            .is_err());
        assert!(p
            .cohort_sizes(&ClientSampling::Fraction { fraction: f64::NAN })
            .is_err());
    }

    #[test]
    fn edge_data_samples_match_brute_force() {
        let shard_sizes = [7u64, 3, 11, 5];
        let p = WorkerPopulation::new(
            vec![5, 13, 1, 6],
            ShardAssignment::RoundRobin { num_shards: 4 },
        )
        .unwrap();
        let closed = p.edge_data_samples(&shard_sizes);
        let brute: Vec<u64> = (0..4)
            .map(|e| {
                (0..p.workers_in_edge(e))
                    .map(|l| shard_sizes[p.shard_of(p.global_id(e, l))])
                    .sum()
            })
            .collect();
        assert_eq!(closed, brute);
    }

    #[test]
    fn cohorts_are_sorted_unique_deterministic_and_in_range() {
        let s = CohortSampler::new(42);
        for round in 1..5 {
            let c = s.cohort(3, round, 1_000_000, 64);
            assert_eq!(c.len(), 64);
            assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
            assert!(c.iter().all(|&g| g < 1_000_000));
            assert_eq!(c, s.cohort(3, round, 1_000_000, 64), "deterministic");
        }
        // Distinct rounds and edges draw different cohorts.
        assert_ne!(s.cohort(3, 1, 1_000_000, 64), s.cohort(3, 2, 1_000_000, 64));
        assert_ne!(s.cohort(3, 1, 1_000_000, 64), s.cohort(4, 1, 1_000_000, 64));
        // Distinct seeds too.
        assert_ne!(
            s.cohort(3, 1, 1_000_000, 64),
            CohortSampler::new(43).cohort(3, 1, 1_000_000, 64)
        );
        // k == population is the identity cohort.
        assert_eq!(s.cohort(0, 1, 5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn worker_round_seed_depends_only_on_its_arguments() {
        // The whole determinism story rests on this: a worker's streams
        // re-derive from (master, id, round) alone, so population size,
        // cohort composition and pool recycling cannot move them.
        assert_eq!(worker_round_seed(7, 123, 4), worker_round_seed(7, 123, 4));
        assert_ne!(worker_round_seed(7, 123, 4), worker_round_seed(7, 123, 5));
        assert_ne!(worker_round_seed(7, 123, 4), worker_round_seed(7, 124, 4));
        assert_ne!(worker_round_seed(8, 123, 4), worker_round_seed(7, 123, 4));
        // The salted derivations decorrelate from each other.
        let (g, k) = (55, 9);
        assert_ne!(batcher_seed(7, g, k), adversary_stream(g, k));
        assert_ne!(adversary_stream(g, k), delay_stream(g, k));
    }

    #[test]
    fn materialized_cohort_holds_the_edge_download() {
        let p = WorkerPopulation::uniform(2, 100, 3).unwrap();
        let hierarchy = Hierarchy::balanced(2, 2);
        let shard_sizes = [10u64, 20, 30];
        let weights =
            Weights::from_cohort(&hierarchy, &[1, 1, 1, 1], p.edge_data_samples(&shard_sizes));
        let mut fl = FlState::new(hierarchy, weights, &Vector::from(vec![0.0, 0.0]));
        fl.edges[1].x_plus = Vector::from(vec![3.0, 4.0]);
        fl.edges[1].y_minus = Vector::from(vec![5.0, 6.0]);
        fl.workers[2].v = Vector::from(vec![9.0, 9.0]);

        let sampler = CohortSampler::new(1);
        let ids = draw_edge_cohort(&mut fl, &p, &shard_sizes, &sampler, 1, 7);
        // The draw leaves the slots alone; each materializes from the
        // edge's download pair.
        assert_eq!(fl.workers[2].v.as_slice(), &[9.0, 9.0]);
        let download = crate::pool::Download::of(&fl, 1);
        for slot in 2..4 {
            fl.workers[slot].download(&download.x, &download.y, download.sums);
        }
        assert_eq!(ids.len(), 2);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(ids.iter().all(|&g| (100..200).contains(&g)), "edge 1's ids");
        for slot in 2..4 {
            assert_eq!(fl.workers[slot].x.as_slice(), &[3.0, 4.0]);
            assert_eq!(fl.workers[slot].y.as_slice(), &[5.0, 6.0]);
            assert_eq!(fl.workers[slot].v.as_slice(), &[0.0, 0.0]);
            assert_eq!(fl.workers[slot].steps, 0);
        }
        // Edge 0's slots are untouched.
        assert_eq!(fl.workers[0].x.as_slice(), &[0.0, 0.0]);
        // In-edge weights renormalize over the sampled cohort's shards.
        let w0 = fl.weights.worker_in_edge(2);
        let w1 = fl.weights.worker_in_edge(3);
        assert!((w0 + w1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn materialize_cap_guards_the_delegation_path() {
        let big = WorkerPopulation::uniform(4, 1_000_000, 2).unwrap();
        let err = big.materialize_hierarchy().unwrap_err();
        assert!(err.contains("sampling"), "{err}");
        let small = WorkerPopulation::uniform(2, 3, 2).unwrap();
        let h = small.materialize_hierarchy().unwrap();
        assert_eq!(h.num_workers(), 6);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn population_serde_round_trips() {
        let p = WorkerPopulation::new(vec![10, 20], ShardAssignment::RoundRobin { num_shards: 3 })
            .unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkerPopulation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let s = ClientSampling::Fraction { fraction: 0.125 };
        let back: ClientSampling =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
