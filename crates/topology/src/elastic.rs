//! Elastic topology: a versioned, mutable view of the worker–edge tree
//! plus the deterministic churn plans that mutate it.
//!
//! The frozen [`crate::Hierarchy`] stays the unit the engines execute
//! against; elasticity is layered on top as a sequence of *topology
//! epochs*. A [`TopologyVersion`] tracks which stable edge ids are live
//! and which registered worker (by *uid*, its index into the caller's
//! data table) currently sits under which edge. A validated [`ChurnPlan`]
//! schedules [`TopologyEvent`]s at cloud-round boundaries; applying the
//! events at a boundary advances the version's epoch and yields the next
//! frozen tree. Within an epoch every `TierPath` is stable — the
//! invariant the aggregation paths rely on — and across epochs the whole
//! evolution is a pure function of `(plan, seed)`, so churn runs replay
//! bitwise across thread counts and engines.
//!
//! Edge-failure re-homing draws each orphan's surviving parent from a
//! salted per-`(worker, epoch)` SplitMix64 stream ([`churn_stream_seed`],
//! the same finalizer as `hieradmo_netsim::stream_seed`), mirroring how
//! `FaultPlan` keeps per-actor fault streams decorrelated: the draw never
//! depends on event interleaving, only on the plan, the seed, and the
//! worker's uid.

use serde::{Deserialize, Serialize};

/// Salt XOR-ed into the master seed before deriving churn streams, so
/// re-homing draws are decorrelated from every delay, fault, and
/// adversary stream of the same master seed.
pub const CHURN_SEED_SALT: u64 = 0xe1a5_71c7_0b01_0917;

/// SplitMix64 finalizer over `master + stream` — bit-for-bit the same
/// mixing as `hieradmo_netsim::stream_seed` (duplicated here so the
/// topology crate stays dependency-free; a parity test in
/// `tests/elastic_topology.rs` pins the two together). Consecutive
/// stream indices land in unrelated parts of the seed space.
pub fn churn_stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One topology mutation, applied at a cloud-round boundary.
///
/// Workers are named by *uid* — their index into the caller's registered
/// data table, stable for the life of the run regardless of where (or
/// whether) the worker currently sits in the tree. Edges are named by
/// *stable id* — their position in the initial tree, which failed edges
/// vacate but never recycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyEvent {
    /// A registered-but-absent worker joins the live tree under `edge`,
    /// materializing its state from the edge's current model.
    Join {
        /// The joining worker's uid.
        worker: usize,
        /// The stable id of the (live) edge it joins.
        edge: usize,
    },
    /// A present worker leaves the tree; its state is dropped. An edge
    /// emptied by the departure fails in place.
    Leave {
        /// The departing worker's uid.
        worker: usize,
    },
    /// A present worker moves to another live edge, keeping its model and
    /// a bounded-age-damped momentum but dropping interval accumulators.
    Migrate {
        /// The migrating worker's uid.
        worker: usize,
        /// The stable id of the (live) destination edge.
        edge: usize,
    },
    /// A live edge dies after its boundary upload. Its members are
    /// re-homed onto surviving edges, each drawing its new parent from a
    /// private `(worker, epoch)` churn stream.
    EdgeFail {
        /// The stable id of the failing edge.
        edge: usize,
    },
    /// The live edges re-form by clustering worker momentum similarity:
    /// capacity-bounded greedy assignment of every present worker to the
    /// edge whose member-momentum centroid its own velocity best aligns
    /// with.
    EdgeReform,
}

/// One scheduled occurrence in a [`ChurnPlan`]: `event` applies at the
/// end of cloud round `round` (1-based), i.e. at tick `round · τ · π`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// The 1-based cloud round after which the event applies.
    pub round: usize,
    /// The mutation to apply.
    pub event: TopologyEvent,
}

/// A deterministic churn schedule, the topology-side analogue of
/// `FaultPlan`: explicit [`ScheduledEvent`]s plus an optional periodic
/// [`TopologyEvent::EdgeReform`] cadence. An empty plan is the default
/// and guarantees a run bitwise identical to the frozen-tree engines.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Explicit events, applied in vector order within a round.
    #[serde(default)]
    pub events: Vec<ScheduledEvent>,
    /// When `Some(k)`, an [`TopologyEvent::EdgeReform`] fires after every
    /// `k`-th cloud round (after the round's explicit events).
    #[serde(default)]
    pub reform_every: Option<usize>,
}

impl ChurnPlan {
    /// The empty plan: no churn, frozen tree, bitwise-identical runs.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.reform_every.is_none()
    }

    /// Static validation: every scheduled round is ≥ 1 and a periodic
    /// reform cadence is ≥ 1. Dynamic validity (live targets, present
    /// workers) is checked when the event applies, against the topology
    /// version of its epoch.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(ev) = self.events.iter().find(|ev| ev.round == 0) {
            return Err(format!(
                "churn event {:?} scheduled at round 0 (events apply at the \
                 end of 1-based cloud rounds)",
                ev.event
            ));
        }
        if self.reform_every == Some(0) {
            return Err("churn reform_every must be at least 1".to_string());
        }
        Ok(())
    }

    /// `true` when the plan mutates the topology at the end of cloud
    /// round `round` (1-based).
    pub fn is_boundary(&self, round: usize) -> bool {
        self.events.iter().any(|ev| ev.round == round)
            || self
                .reform_every
                .is_some_and(|k| round > 0 && round.is_multiple_of(k))
    }

    /// The sorted, distinct cloud rounds in `1..rounds_total` at which
    /// this plan mutates the topology. Events at or past the run's final
    /// round have nothing left to act on and are skipped.
    pub fn boundary_rounds(&self, rounds_total: usize) -> Vec<usize> {
        let mut rounds: Vec<usize> = (1..rounds_total).filter(|&r| self.is_boundary(r)).collect();
        rounds.dedup();
        rounds
    }

    /// The explicit events scheduled for the end of cloud round `round`,
    /// in plan order.
    pub fn events_at(&self, round: usize) -> impl Iterator<Item = &TopologyEvent> {
        self.events
            .iter()
            .filter(move |ev| ev.round == round)
            .map(|ev| &ev.event)
    }

    /// `true` when the periodic reform cadence fires at `round` (after
    /// the round's explicit events).
    pub fn reform_at(&self, round: usize) -> bool {
        self.reform_every
            .is_some_and(|k| round > 0 && round.is_multiple_of(k))
    }
}

/// A move produced by applying a [`TopologyEvent`]: worker `worker`
/// now sits under `edge`, carrying momentum of age `age` (cloud rounds
/// since it last changed parents — the damping input for bounded-age
/// momentum carry-over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The moved worker's uid.
    pub worker: usize,
    /// The stable id of its new edge.
    pub edge: usize,
    /// Cloud rounds spent under the previous parent, the momentum age.
    pub age: u64,
}

/// The versioned, mutable view of the tree: which stable edge ids are
/// live and which registered worker sits where, at a given topology
/// epoch. Serializable so checkpoints carry the epoch across a resume
/// (as [`ElasticSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyVersion {
    /// The cloud round at which this version took effect (0 = initial).
    epoch: u64,
    /// Member uids per stable edge id, each list sorted ascending. A
    /// failed edge keeps an empty list.
    members: Vec<Vec<usize>>,
    /// Liveness per stable edge id; failed ids never recycle.
    live: Vec<bool>,
    /// Per uid, the epoch at which the worker last changed parents
    /// (`u64::MAX` while absent). Momentum age for a move at epoch `E`
    /// is `E − parent_since`.
    parent_since: Vec<u64>,
}

/// The serialized form of a [`TopologyVersion`], as carried by training
/// checkpoints across a topology epoch boundary.
pub type ElasticSnapshot = TopologyVersion;

impl TopologyVersion {
    /// The initial version: edges `0..edge_sizes.len()` all live, uids
    /// `0..Σ sizes` dealt consecutively, uids `Σ sizes..registered`
    /// registered but absent (available to [`TopologyEvent::Join`]).
    ///
    /// # Errors
    ///
    /// Rejects an empty tree, a zero-worker edge, and a registered count
    /// below the initial population.
    pub fn initial(edge_sizes: &[usize], registered: usize) -> Result<Self, String> {
        if edge_sizes.is_empty() {
            return Err("elastic topology needs at least one edge".to_string());
        }
        if edge_sizes.contains(&0) {
            return Err("initial edges must have at least one worker".to_string());
        }
        let present: usize = edge_sizes.iter().sum();
        if registered < present {
            return Err(format!(
                "{registered} registered workers cannot fill an initial tree \
                 of {present}"
            ));
        }
        let mut members = Vec::with_capacity(edge_sizes.len());
        let mut next = 0;
        for &c in edge_sizes {
            members.push((next..next + c).collect());
            next += c;
        }
        Ok(TopologyVersion {
            epoch: 0,
            members,
            live: vec![true; edge_sizes.len()],
            parent_since: (0..registered)
                .map(|u| if u < present { 0 } else { u64::MAX })
                .collect(),
        })
    }

    /// Checks the invariants every operation keeps, for a version read
    /// from an untrusted source such as a deserialized checkpoint: one
    /// liveness flag per member list, at least one live edge, every live
    /// edge non-empty and every failed one empty, member lists sorted,
    /// every uid registered and present at most once, and no present
    /// worker placed after the version's epoch.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.members.len() != self.live.len() {
            return Err(format!(
                "{} member lists for {} liveness flags",
                self.members.len(),
                self.live.len()
            ));
        }
        if !self.live.contains(&true) {
            return Err("no live edge".to_string());
        }
        let mut seen = vec![false; self.registered()];
        for (e, (members, &live)) in self.members.iter().zip(&self.live).enumerate() {
            if live == members.is_empty() {
                return Err(format!(
                    "edge {e} is {} with {} members",
                    if live { "live" } else { "failed" },
                    members.len()
                ));
            }
            for &u in members {
                if u >= seen.len() {
                    return Err(format!(
                        "edge {e} holds uid {u}, but only {} are registered",
                        seen.len()
                    ));
                }
                if std::mem::replace(&mut seen[u], true) {
                    return Err(format!("uid {u} is present twice"));
                }
                if self.parent_since[u] > self.epoch {
                    return Err(format!("uid {u} was placed after epoch {}", self.epoch));
                }
            }
            if !members.is_sorted() {
                return Err(format!("edge {e}'s members are not sorted"));
            }
        }
        Ok(())
    }

    /// The cloud round at which this version took effect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The stable-id space size (live and failed edges).
    pub fn num_edges(&self) -> usize {
        self.members.len()
    }

    /// The registered uid space size.
    pub fn registered(&self) -> usize {
        self.parent_since.len()
    }

    /// `true` when stable edge id `edge` is live.
    pub fn is_live(&self, edge: usize) -> bool {
        self.live.get(edge).copied().unwrap_or(false)
    }

    /// Stable ids of the live edges, ascending.
    pub fn live_edges(&self) -> Vec<usize> {
        (0..self.live.len()).filter(|&e| self.live[e]).collect()
    }

    /// The member uids of stable edge `edge`, sorted ascending.
    pub fn members(&self, edge: usize) -> &[usize] {
        &self.members[edge]
    }

    /// Present uids in flat engine order: live edges by stable id, then
    /// members ascending.
    pub fn flat_members(&self) -> Vec<usize> {
        self.live_edges()
            .into_iter()
            .flat_map(|e| self.members[e].iter().copied())
            .collect()
    }

    /// Worker counts of the live edges, in stable-id order — the shape of
    /// the epoch's frozen `Hierarchy`.
    pub fn live_edge_sizes(&self) -> Vec<usize> {
        self.live_edges()
            .into_iter()
            .map(|e| self.members[e].len())
            .collect()
    }

    /// Number of workers currently in the tree.
    pub fn num_present(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// The stable edge id of worker `worker`, when present.
    pub fn parent_of(&self, worker: usize) -> Option<usize> {
        (0..self.members.len()).find(|&e| self.members[e].binary_search(&worker).is_ok())
    }

    /// Opens the epoch taking effect at cloud round `round`; subsequent
    /// event applications stamp moves with this epoch.
    ///
    /// # Panics
    ///
    /// Panics if `round` does not advance the epoch (boundaries apply in
    /// strictly increasing round order).
    pub fn begin_epoch(&mut self, round: u64) {
        assert!(
            round > self.epoch,
            "topology epochs apply in increasing round order \
             ({round} after {})",
            self.epoch
        );
        self.epoch = round;
    }

    fn require_live(&self, edge: usize) -> Result<(), String> {
        if edge >= self.members.len() {
            return Err(format!(
                "edge {edge} out of range for {} stable edge ids",
                self.members.len()
            ));
        }
        if !self.live[edge] {
            return Err(format!("edge {edge} already failed"));
        }
        Ok(())
    }

    fn insert(&mut self, worker: usize, edge: usize) {
        let pos = self.members[edge]
            .binary_search(&worker)
            .expect_err("worker must be absent from the target edge");
        self.members[edge].insert(pos, worker);
    }

    fn remove(&mut self, worker: usize) -> Result<usize, String> {
        let edge = self
            .parent_of(worker)
            .ok_or_else(|| format!("worker {worker} is not in the tree"))?;
        let pos = self.members[edge]
            .binary_search(&worker)
            .expect("parent_of found the worker");
        self.members[edge].remove(pos);
        Ok(edge)
    }

    /// Applies [`TopologyEvent::Join`], returning the placement.
    ///
    /// # Errors
    ///
    /// Rejects an unregistered or already-present worker and a dead or
    /// out-of-range target edge.
    pub fn join(&mut self, worker: usize, edge: usize) -> Result<Placement, String> {
        if worker >= self.parent_since.len() {
            return Err(format!(
                "join of worker {worker} but only {} uids are registered",
                self.parent_since.len()
            ));
        }
        if self.parent_of(worker).is_some() {
            return Err(format!("join of worker {worker}, already present"));
        }
        self.require_live(edge)?;
        self.insert(worker, edge);
        self.parent_since[worker] = self.epoch;
        Ok(Placement {
            worker,
            edge,
            age: 0,
        })
    }

    /// Applies [`TopologyEvent::Leave`], returning the vacated edge. An
    /// edge emptied by the departure fails in place (it cannot host an
    /// epoch of zero workers); the last present worker cannot leave.
    ///
    /// # Errors
    ///
    /// Rejects an absent worker and a departure that would empty the
    /// whole tree.
    pub fn leave(&mut self, worker: usize) -> Result<usize, String> {
        if self.num_present() == 1 {
            return Err(format!(
                "worker {worker} is the last one in the tree and cannot leave"
            ));
        }
        let edge = self.remove(worker)?;
        self.parent_since[worker] = u64::MAX;
        if self.members[edge].is_empty() {
            self.live[edge] = false;
        }
        Ok(edge)
    }

    /// Applies [`TopologyEvent::Migrate`], returning the placement (with
    /// the momentum age the damping uses). The vacated edge fails in
    /// place if emptied.
    ///
    /// # Errors
    ///
    /// Rejects an absent worker, a dead or out-of-range destination, and
    /// a self-migration.
    pub fn migrate(&mut self, worker: usize, edge: usize) -> Result<Placement, String> {
        self.require_live(edge)?;
        let from = self
            .parent_of(worker)
            .ok_or_else(|| format!("worker {worker} is not in the tree"))?;
        if from == edge {
            return Err(format!("worker {worker} already sits under edge {edge}"));
        }
        self.remove(worker).expect("parent_of found the worker");
        if self.members[from].is_empty() {
            self.live[from] = false;
        }
        self.insert(worker, edge);
        let age = self.epoch - self.parent_since[worker];
        self.parent_since[worker] = self.epoch;
        Ok(Placement { worker, edge, age })
    }

    /// Applies [`TopologyEvent::EdgeFail`]: marks the edge dead and
    /// re-homes its members (in uid order) onto surviving edges, each
    /// drawing its new parent from its private
    /// `(master ^ CHURN_SEED_SALT, worker)` stream mixed with the epoch —
    /// independent of event interleaving. Returns the placements.
    ///
    /// # Errors
    ///
    /// Rejects a dead or out-of-range edge and the failure of the last
    /// live edge (nowhere to re-home).
    pub fn fail_edge(&mut self, edge: usize, master_seed: u64) -> Result<Vec<Placement>, String> {
        self.require_live(edge)?;
        self.live[edge] = false;
        let survivors = self.live_edges();
        if survivors.is_empty() {
            return Err(format!("edge {edge} is the last live edge and cannot fail"));
        }
        let orphans = std::mem::take(&mut self.members[edge]);
        let mut moves = Vec::with_capacity(orphans.len());
        for worker in orphans {
            let stream = churn_stream_seed(master_seed ^ CHURN_SEED_SALT, worker as u64);
            let draw = churn_stream_seed(stream, self.epoch);
            let to = survivors[(draw % survivors.len() as u64) as usize];
            self.insert(worker, to);
            let age = self.epoch - self.parent_since[worker];
            self.parent_since[worker] = self.epoch;
            moves.push(Placement {
                worker,
                edge: to,
                age,
            });
        }
        Ok(moves)
    }

    /// Applies [`TopologyEvent::EdgeReform`] from a full assignment
    /// (`(worker, edge)` for every present worker, as produced by the
    /// engines' similarity clustering), returning the placements of the
    /// workers that actually moved. Edges emptied by the re-formation
    /// fail in place.
    ///
    /// # Errors
    ///
    /// Rejects assignments that miss a present worker, name an absent
    /// one, or target a dead edge.
    pub fn reform(&mut self, assignment: &[(usize, usize)]) -> Result<Vec<Placement>, String> {
        if assignment.len() != self.num_present() {
            return Err(format!(
                "reform assigns {} workers but {} are present",
                assignment.len(),
                self.num_present()
            ));
        }
        for &(worker, edge) in assignment {
            self.require_live(edge)?;
            if self.parent_of(worker).is_none() {
                return Err(format!("reform names absent worker {worker}"));
            }
        }
        let mut moves = Vec::new();
        for &(worker, edge) in assignment {
            let from = self.parent_of(worker).expect("validated above");
            if from == edge {
                continue;
            }
            self.remove(worker).expect("validated above");
            self.insert(worker, edge);
            let age = self.epoch - self.parent_since[worker];
            self.parent_since[worker] = self.epoch;
            moves.push(Placement { worker, edge, age });
        }
        for e in 0..self.members.len() {
            if self.live[e] && self.members[e].is_empty() {
                self.live[e] = false;
            }
        }
        Ok(moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v3() -> TopologyVersion {
        TopologyVersion::initial(&[2, 2, 2], 8).expect("valid initial tree")
    }

    #[test]
    fn initial_deals_uids_consecutively() {
        let v = v3();
        assert_eq!(v.members(0), &[0, 1]);
        assert_eq!(v.members(2), &[4, 5]);
        assert_eq!(v.flat_members(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(v.live_edge_sizes(), vec![2, 2, 2]);
        assert_eq!(v.registered(), 8);
        assert_eq!(v.parent_of(6), None);
    }

    #[test]
    fn initial_rejects_bad_shapes() {
        assert!(TopologyVersion::initial(&[], 4).is_err());
        assert!(TopologyVersion::initial(&[2, 0], 4).is_err());
        assert!(TopologyVersion::initial(&[3, 3], 4).is_err());
    }

    #[test]
    fn join_leave_migrate_lifecycle() {
        let mut v = v3();
        v.begin_epoch(2);
        let p = v.join(6, 1).expect("join");
        assert_eq!((p.edge, p.age), (1, 0));
        assert_eq!(v.members(1), &[2, 3, 6]);
        assert!(v.join(6, 1).is_err(), "already present");
        assert!(v.join(9, 0).is_err(), "unregistered");
        assert_eq!(v.leave(0).expect("leave"), 0);
        assert!(v.leave(0).is_err(), "already gone");
        v.begin_epoch(5);
        let p = v.migrate(6, 0).expect("migrate");
        assert_eq!((p.edge, p.age), (0, 3));
        assert!(v.migrate(6, 0).is_err(), "self-migration");
        assert_eq!(v.flat_members(), vec![1, 6, 2, 3, 4, 5]);
    }

    #[test]
    fn leave_empties_edge_into_failure() {
        let mut v = TopologyVersion::initial(&[1, 2], 3).expect("valid");
        v.begin_epoch(1);
        v.leave(0).expect("leave");
        assert!(!v.is_live(0));
        assert_eq!(v.live_edge_sizes(), vec![2]);
        v.leave(1).expect("leave");
        assert!(v.leave(2).is_err(), "last worker cannot leave");
    }

    #[test]
    fn fail_edge_rehomes_deterministically() {
        let mut a = v3();
        let mut b = v3();
        a.begin_epoch(3);
        b.begin_epoch(3);
        let ma = a.fail_edge(1, 42).expect("fail");
        let mb = b.fail_edge(1, 42).expect("fail");
        assert_eq!(ma, mb, "re-homing is a pure function of (plan, seed)");
        assert_eq!(ma.len(), 2);
        assert!(!a.is_live(1));
        assert_eq!(a.num_present(), 6);
        for m in &ma {
            assert_ne!(m.edge, 1);
            assert_eq!(m.age, 3);
        }
        let mc = v3()
            .tap(|v| v.begin_epoch(3))
            .fail_edge(1, 43)
            .expect("fail");
        assert!(
            ma != mc || ma.iter().zip(&mc).all(|(x, y)| x == y),
            "different seeds may re-home differently"
        );
    }

    #[test]
    fn last_live_edge_cannot_fail() {
        let mut v = TopologyVersion::initial(&[2], 2).expect("valid");
        v.begin_epoch(1);
        assert!(v.fail_edge(0, 7).is_err());
    }

    #[test]
    fn reform_moves_and_fails_emptied_edges() {
        let mut v = v3();
        v.begin_epoch(4);
        let moves = v
            .reform(&[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)])
            .expect("reform");
        assert_eq!(moves.len(), 3, "2, 4 and 5 moved");
        assert!(!v.is_live(2), "emptied edge fails in place");
        assert_eq!(v.live_edge_sizes(), vec![3, 3]);
        assert!(v.reform(&[(0, 0)]).is_err(), "incomplete assignment");
    }

    #[test]
    fn plan_validation_and_boundaries() {
        let mut plan = ChurnPlan::none();
        assert!(plan.is_empty());
        plan.validate().expect("empty plan is valid");
        plan.events.push(ScheduledEvent {
            round: 2,
            event: TopologyEvent::Leave { worker: 1 },
        });
        plan.reform_every = Some(3);
        plan.validate().expect("valid plan");
        assert_eq!(plan.boundary_rounds(8), vec![2, 3, 6]);
        assert!(plan.is_boundary(2) && plan.is_boundary(6));
        assert!(!plan.is_boundary(4));
        assert_eq!(plan.events_at(2).count(), 1);
        assert!(plan.reform_at(6) && !plan.reform_at(2));

        plan.reform_every = Some(0);
        assert!(plan.validate().is_err());
        plan.reform_every = None;
        plan.events[0].round = 0;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_accepts_reachable_versions_and_names_violations() {
        let mut v = v3();
        v.validate().expect("initial version");
        v.begin_epoch(2);
        v.join(7, 0).expect("join");
        v.fail_edge(1, 42).expect("fail");
        v.validate().expect("after churn");

        let broken = |f: fn(&mut TopologyVersion)| {
            let mut w = v3();
            f(&mut w);
            w.validate().expect_err("violation")
        };
        assert!(broken(|w| w.live.insert(0, true)).contains("liveness"));
        assert!(broken(|w| w.members[0].insert(0, 99)).contains("registered"));
        assert!(broken(|w| w.members[1].push(0)).contains("twice"));
        assert!(broken(|w| w.members[0].reverse()).contains("sorted"));
        assert!(broken(|w| w.live[2] = false).contains("failed"));
        assert!(broken(|w| w.members[2].clear()).contains("live"));
        assert!(broken(|w| w.live.fill(false)).contains("no live edge"));
        assert!(broken(|w| w.parent_since[0] = 5).contains("placed after"));
    }

    #[test]
    fn serde_round_trips() {
        let mut v = v3();
        v.begin_epoch(2);
        v.join(7, 0).expect("join");
        let json = serde_json::to_string(&v).expect("serialize");
        let back: TopologyVersion = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(v, back);

        let plan = ChurnPlan {
            events: vec![ScheduledEvent {
                round: 1,
                event: TopologyEvent::EdgeFail { edge: 0 },
            }],
            reform_every: Some(2),
        };
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: ChurnPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
        let legacy: ChurnPlan = serde_json::from_str("{}").expect("defaults");
        assert!(legacy.is_empty());
    }

    trait Tap: Sized {
        fn tap(mut self, f: impl FnOnce(&mut Self)) -> Self {
            f(&mut self);
            self
        }
    }
    impl<T> Tap for T {}
}
