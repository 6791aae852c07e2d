//! The [`Strategy`] trait: the hook interface every federated algorithm
//! implements against the shared [`FlState`].

use std::ops::Range;

use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierAggregation};

use crate::state::{EdgeView, FlState, WorkerState};

/// Which architecture an algorithm is defined for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Two-tier (workers ↔ cloud): runs on a degenerate single-edge
    /// hierarchy with `π = 1`.
    Two,
    /// Three-tier (workers ↔ edges ↔ cloud).
    Three,
}

/// The tier a depth-indexed aggregation targets — the argument of
/// [`Strategy::tier_aggregate_stale`] and [`Strategy::tier_aggregate`].
///
/// On three-tier runs only `Edge` and `Root` occur; `Middle`
/// appears on depth ≥ 4 [`hieradmo_topology::TierTree`] runs, once per
/// middle node at that tier's boundary. Edge scopes may be dispatched
/// concurrently (one view per edge, disjoint by construction); middle
/// and root scopes always run serially on the driver thread with the
/// whole federation in reach.
#[derive(Debug)]
pub enum TierScope<'a, 'b> {
    /// The leaf-parent ("edge") tier: one edge's workers and state.
    Edge(&'b mut EdgeView<'a>),
    /// One middle-tier node of a depth ≥ 4 tree.
    Middle {
        /// The node's tree depth (an element of
        /// [`hieradmo_topology::TierTree::middle_depths`]).
        depth: usize,
        /// The node's index within its tier.
        node: usize,
        /// The full federation state (middle hooks run serially).
        state: &'b mut FlState,
    },
    /// The root ("cloud") tier.
    Root(&'b mut FlState),
}

/// A federated-learning algorithm as a set of hooks called by both
/// engines — the tick loop ([`crate::driver`]) and the event engine in
/// `hieradmo-simrt`.
///
/// # Which hook the engines call
///
/// Local steps go through [`Strategy::local_step`], once per worker per
/// local iteration (possibly on parallel threads, hence `&self` + `Sync`).
/// Every aggregation — each edge at `t = kτ`, each middle node of an
/// N-tier tree at its boundary, the root at `t = pτπ` — goes through one
/// hook, [`Strategy::tier_aggregate_stale`], in both engines. Synchronous
/// firings pass all-zero staleness.
///
/// # What an algorithm implements
///
/// [`Strategy::edge_aggregate`] and [`Strategy::cloud_aggregate`] are
/// required; every other aggregation hook has a default, and the defaults
/// chain down to them:
///
/// ```text
/// tier_aggregate_stale(scope, round, staleness)
/// ├─ staleness all zero → tier_aggregate(scope, round)
/// │   ├─ Edge   → edge_aggregate
/// │   ├─ Middle → default_middle_aggregate
/// │   └─ Root   → cloud_aggregate
/// └─ otherwise
///     ├─ Edge   → edge_aggregate_stale  (default: edge_aggregate)
///     ├─ Middle → default_middle_aggregate_stale
///     └─ Root   → cloud_aggregate_stale (default: cloud_aggregate)
/// ```
///
/// Override the `_stale` twins to weigh carried-over contributions, and
/// [`Strategy::tier_aggregate`] to give an algorithm per-depth semantics;
/// either override is reached by every engine.
///
/// Algorithms keep *all* mutable run state inside [`FlState`]; the strategy
/// object itself only holds hyper-parameters, which keeps every algorithm
/// trivially `Send + Sync`.
///
/// Under the fault-injecting co-simulation (`hieradmo-simrt`, DESIGN.md
/// §11) the same hooks also serve crash/rejoin: a worker that crashed and
/// rejoined re-enters `local_step` from the last model its server
/// delivered, so aggregation hooks may observe contributions whose local
/// trajectory restarted mid-interval. Hooks must therefore not assume
/// every worker's `steps` counter advanced uniformly — only that each
/// upload is internally consistent (state, accumulators, and step count
/// all describe the same locally-executed interval).
pub trait Strategy: Send + Sync {
    /// Display name (matches the paper's Table II row labels).
    fn name(&self) -> &'static str;

    /// The architecture this algorithm is defined for.
    fn tier(&self) -> Tier;

    /// Hook called once before training begins (after [`FlState::new`]'s
    /// common initialization). An algorithm whose hooks read interval
    /// sums declares them here with [`FlState::declare_sums`]: that one
    /// declaration sizes every worker copy and picks the NAG step's
    /// selection (see [`crate::state::IntervalSums`]). Without it workers
    /// hold no sum. A wrapper strategy must forward `init`.
    fn init(&self, _state: &mut FlState) {}

    /// One local iteration on one worker. `grad(params, out)` evaluates the
    /// worker's mini-batch gradient at arbitrary parameters (the batch is
    /// fixed for this call), writing it into `out`, resized to the model's
    /// width if needed. Pass it [`WorkerState::scratch`]: for this call
    /// the engine lends it the lane's model-width gradient buffer, so the
    /// steady state allocates nothing. Leave the buffer in `scratch` when
    /// done (take it and put it back); the engine takes it back after the
    /// call, and between calls `scratch` is empty.
    fn local_step(
        &self,
        t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    );

    /// Edge aggregation `k` (at `t = kτ`) for the edge behind `view`.
    ///
    /// The view scopes the hook to exactly one edge's workers and state, so
    /// an engine may run all edges concurrently; implementations needing
    /// the edge index use [`EdgeView::edge`].
    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>);

    /// Cloud aggregation `p` (at `t = pτπ`).
    fn cloud_aggregate(&self, p: usize, state: &mut FlState);

    /// Staleness-aware edge aggregation, reached through
    /// [`Strategy::tier_aggregate_stale`] when some child is stale (the
    /// event engine's `Deadline` and `AsyncAge` policies).
    ///
    /// `staleness[j]` is the number of edge rounds since local worker `j`'s
    /// server-side state was refreshed by an upload: `0` means the worker
    /// participated in this round, larger values mean the edge is merging a
    /// carried-over (stale) model/momentum. The all-zero case **must** be
    /// exactly equivalent to [`Strategy::edge_aggregate`]; the default
    /// delegates unconditionally (stale entries merged at full weight).
    fn edge_aggregate_stale(&self, k: usize, view: &mut EdgeView<'_>, staleness: &[usize]) {
        let _ = staleness;
        self.edge_aggregate(k, view);
    }

    /// Staleness-aware cloud aggregation; the edge-level analogue of
    /// [`Strategy::edge_aggregate_stale`]. `staleness[l]` counts cloud
    /// rounds since edge `l` last submitted. Defaults to
    /// [`Strategy::cloud_aggregate`] (stale edges merged at full weight),
    /// so the all-zero case is always equivalent to the synchronous hook.
    fn cloud_aggregate_stale(&self, p: usize, state: &mut FlState, staleness: &[usize]) {
        let _ = staleness;
        self.cloud_aggregate(p, state);
    }

    /// Synchronous depth-indexed aggregation: what
    /// [`Strategy::tier_aggregate_stale`] runs when no child is stale.
    /// `round` is the firing tier's own aggregation index (`k` at the
    /// edges, `p` at the root, the node tier's round for middles).
    ///
    /// The default is the three-tier behavior — edge scopes delegate to
    /// [`Strategy::edge_aggregate`], the root to
    /// [`Strategy::cloud_aggregate`] — so every algorithm runs the N-tier
    /// path bitwise identically to the three-tier one (pinned by
    /// `tests/tier_equivalence.rs`). Middle scopes run
    /// [`default_middle_aggregate`]: subtree-weighted averaging through
    /// the federation's robust aggregator, or a no-op for
    /// [`TierAggregation::Identity`] levels.
    fn tier_aggregate(&self, scope: TierScope<'_, '_>, round: usize) {
        match scope {
            TierScope::Edge(view) => self.edge_aggregate(round, view),
            TierScope::Middle { depth, node, state } => {
                default_middle_aggregate(depth, node, state);
            }
            TierScope::Root(state) => self.cloud_aggregate(round, state),
        }
    }

    /// The one aggregation hook both engines call, for every edge, middle
    /// and root firing.
    ///
    /// `staleness` has one entry per child of the firing node: per local
    /// worker at an edge, per subtree edge (its `edges_per_node` leaves, in
    /// order, counting cloud boundaries since that edge last submitted) at
    /// a middle node, per edge at the root. All zero is the synchronous
    /// case: the default then runs [`Strategy::tier_aggregate`]. Otherwise
    /// it runs the scope's stale hook — [`Strategy::edge_aggregate_stale`],
    /// [`default_middle_aggregate_stale`] (which down-weights stale subtree
    /// edges by bounded age, see [`MIDDLE_AGE_CAP`]) or
    /// [`Strategy::cloud_aggregate_stale`].
    fn tier_aggregate_stale(&self, scope: TierScope<'_, '_>, round: usize, staleness: &[usize]) {
        if staleness.iter().all(|&a| a == 0) {
            return self.tier_aggregate(scope, round);
        }
        match scope {
            TierScope::Edge(view) => self.edge_aggregate_stale(round, view, staleness),
            TierScope::Middle { depth, node, state } => {
                default_middle_aggregate_stale(depth, node, state, staleness);
            }
            TierScope::Root(state) => self.cloud_aggregate_stale(round, state, staleness),
        }
    }

    /// The parameters evaluated as "the global model" between aggregations.
    /// Defaults to the data-weighted average of worker models.
    fn global_params(&self, state: &FlState) -> Vector {
        state.average_worker_models()
    }

    /// Validates that the topology matches [`Strategy::tier`].
    ///
    /// # Errors
    ///
    /// Returns a message when a two-tier algorithm is given a multi-edge
    /// hierarchy.
    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        if self.tier() == Tier::Two && !hierarchy.is_two_tier() {
            return Err(format!(
                "{} is a two-tier algorithm; run it on Hierarchy::two_tier(n) \
                 with pi = 1 (got {} edges)",
                self.name(),
                hierarchy.num_edges()
            ));
        }
        Ok(())
    }
}

/// The stock middle-tier aggregation behind the default
/// [`Strategy::tier_aggregate`]: the paper's cloud rule (Algorithm 1
/// lines 18–19 without server momentum) restricted to one node's
/// subtree.
///
/// For an [`TierAggregation::Average`] level, the node reduces its
/// subtree's edge states — `y_{ℓ−}` and `x_{ℓ+}`, weighted by the
/// subtree-renormalized data shares `D_ℓ / D_subtree` and routed through
/// the federation's [`crate::RobustAggregator`] — stores the result as
/// its own momentum/model, and redistributes both down the subtree
/// (edges' `y_minus`/`x_plus`, workers' `y`/`x`), exactly as the cloud
/// does globally. For [`TierAggregation::Identity`] levels it does
/// nothing at all, which is what makes pass-through tiers collapsible
/// (see [`hieradmo_topology::TierTree::collapse`]).
///
/// # Panics
///
/// Panics if `state` has no attached tier tree or `depth`/`node` are out
/// of range.
pub fn default_middle_aggregate(depth: usize, node: usize, state: &mut FlState) {
    let tree = state
        .tree
        .as_ref()
        .expect("middle aggregation needs a tier tree");
    // The node at `depth` aggregates its children per the spec of the
    // depth → depth+1 relation.
    if tree.levels()[depth].aggregation == TierAggregation::Identity {
        return;
    }
    let span = tree.edges_per_node(depth);
    let edges = node * span..(node + 1) * span;
    let subtree_total: f64 = edges.clone().map(|e| state.weights.edge_in_total(e)).sum();
    let weighted = |l: usize| state.weights.edge_in_total(l) / subtree_total;
    let y = state.aggregate(
        edges
            .clone()
            .map(|l| (weighted(l), &state.edges[l].y_minus)),
    );
    let x = state.aggregate(edges.clone().map(|l| (weighted(l), &state.edges[l].x_plus)));
    distribute_middle(state, depth, node, edges, &y, &x);
}

/// Stores a middle node's subtree averages `y`/`x` as its momentum and
/// model and redistributes them down its subtree `edges` — the edges'
/// `y_minus`/`x_plus` and, through [`FlState::for_edge_workers`] (which
/// skips round-scoped slots), the workers' `y`/`x` — in place.
fn distribute_middle(
    state: &mut FlState,
    depth: usize,
    node: usize,
    edges: Range<usize>,
    y: &Vector,
    x: &Vector,
) {
    let own = &mut state.middle[depth - 1][node];
    own.y_minus.clone_from(y);
    own.y_plus.clone_from(y);
    own.x_plus.clone_from(x);
    for l in edges {
        let edge = &mut state.edges[l];
        edge.y_minus.clone_from(y);
        edge.x_plus.clone_from(x);
        state.for_edge_workers(l, |w| {
            w.y.clone_from(y);
            w.x.clone_from(x);
        });
    }
}

/// Age bound for middle-tier carry-over: a stale subtree edge is
/// down-weighted by `1 / (1 + min(age, MIDDLE_AGE_CAP))`, so an edge that
/// has been absent longer than this many cloud boundaries keeps a small
/// constant share instead of decaying without bound. This keeps
/// long-partitioned subtrees represented (the HierFAVG carry-over rule)
/// while bounding their drag on fresh contributions.
pub const MIDDLE_AGE_CAP: usize = 16;

/// Staleness-aware variant of [`default_middle_aggregate`], the stock
/// behavior behind [`Strategy::tier_aggregate_stale`]'s middle arm.
///
/// `staleness[j]` is the age (in cloud boundaries) of the node's `j`-th
/// subtree edge, in subtree order. All-zero staleness delegates to
/// [`default_middle_aggregate`] bitwise — the exactness contract the
/// depth×policy matrix pins under `FullSync`. Otherwise each edge's
/// subtree weight `D_ℓ / D_subtree` is scaled by
/// `1 / (1 + min(age_ℓ, MIDDLE_AGE_CAP))` and the weights renormalized
/// over the node's span, so carried-over (stale) edge states still enter
/// the subtree average with bounded influence.
///
/// # Panics
///
/// Panics if `state` has no attached tier tree, `depth`/`node` are out of
/// range, or `staleness` is shorter than the node's subtree span.
pub fn default_middle_aggregate_stale(
    depth: usize,
    node: usize,
    state: &mut FlState,
    staleness: &[usize],
) {
    if staleness.iter().all(|&a| a == 0) {
        return default_middle_aggregate(depth, node, state);
    }
    let tree = state
        .tree
        .as_ref()
        .expect("middle aggregation needs a tier tree");
    if tree.levels()[depth].aggregation == TierAggregation::Identity {
        return;
    }
    let span = tree.edges_per_node(depth);
    assert!(
        staleness.len() >= span,
        "staleness slice covers {} edges, node subtree spans {span}",
        staleness.len()
    );
    let edges = node * span..(node + 1) * span;
    let decay = |j: usize| 1.0 / (1 + staleness[j].min(MIDDLE_AGE_CAP)) as f64;
    let scaled_total: f64 = edges
        .clone()
        .enumerate()
        .map(|(j, e)| state.weights.edge_in_total(e) * decay(j))
        .sum();
    let weighted = |j: usize, l: usize| state.weights.edge_in_total(l) * decay(j) / scaled_total;
    let y = state.aggregate(
        edges
            .clone()
            .enumerate()
            .map(|(j, l)| (weighted(j, l), &state.edges[l].y_minus)),
    );
    let x = state.aggregate(
        edges
            .clone()
            .enumerate()
            .map(|(j, l)| (weighted(j, l), &state.edges[l].x_plus)),
    );
    distribute_middle(state, depth, node, edges, &y, &x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Dummy(Tier);

    impl Strategy for Dummy {
        fn name(&self) -> &'static str {
            "Dummy"
        }
        fn tier(&self) -> Tier {
            self.0
        }
        fn local_step(
            &self,
            _t: usize,
            _w: &mut WorkerState,
            _g: &mut dyn FnMut(&Vector, &mut Vector),
        ) {
        }
        fn edge_aggregate(&self, _k: usize, _v: &mut EdgeView<'_>) {}
        fn cloud_aggregate(&self, _p: usize, _s: &mut FlState) {}
    }

    #[test]
    fn two_tier_strategy_rejects_multi_edge_topology() {
        let d = Dummy(Tier::Two);
        assert!(d.check_topology(&Hierarchy::two_tier(4)).is_ok());
        assert!(d.check_topology(&Hierarchy::balanced(2, 2)).is_err());
    }

    #[test]
    fn three_tier_strategy_accepts_both() {
        let d = Dummy(Tier::Three);
        assert!(d.check_topology(&Hierarchy::two_tier(4)).is_ok());
        assert!(d.check_topology(&Hierarchy::balanced(2, 2)).is_ok());
    }

    #[test]
    fn strategies_are_object_safe() {
        let boxed: Box<dyn Strategy> = Box::new(Dummy(Tier::Three));
        assert_eq!(boxed.name(), "Dummy");
    }

    #[test]
    fn default_stale_hooks_delegate_to_synchronous_hooks() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Counting {
            edge_calls: AtomicUsize,
            cloud_calls: AtomicUsize,
        }
        impl Strategy for Counting {
            fn name(&self) -> &'static str {
                "Counting"
            }
            fn tier(&self) -> Tier {
                Tier::Three
            }
            fn local_step(
                &self,
                _t: usize,
                _w: &mut WorkerState,
                _g: &mut dyn FnMut(&Vector, &mut Vector),
            ) {
            }
            fn edge_aggregate(&self, _k: usize, _v: &mut EdgeView<'_>) {
                self.edge_calls.fetch_add(1, Ordering::SeqCst);
            }
            fn cloud_aggregate(&self, _p: usize, _s: &mut FlState) {
                self.cloud_calls.fetch_add(1, Ordering::SeqCst);
            }
        }

        use hieradmo_topology::{Hierarchy, Weights};
        let h = Hierarchy::balanced(1, 2);
        let w = Weights::from_samples(&h, &[1, 1]);
        let mut state = FlState::new(h, w, &Vector::from(vec![0.0]));
        let s = Counting::default();
        // Even a non-trivial staleness vector reaches the synchronous hook
        // under the default impls (stale entries merged at full weight).
        s.edge_aggregate_stale(1, &mut state.edge_view(0), &[0, 3]);
        s.cloud_aggregate_stale(1, &mut state, &[2]);
        assert_eq!(s.edge_calls.load(Ordering::SeqCst), 1);
        assert_eq!(s.cloud_calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn default_tier_hook_routes_zero_staleness_to_the_synchronous_hook() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts which hook the default `tier_aggregate_stale` reaches:
        /// `[tier_aggregate, edge_aggregate_stale, cloud_aggregate_stale]`.
        #[derive(Default)]
        struct Routing([AtomicUsize; 3]);
        impl Strategy for Routing {
            fn name(&self) -> &'static str {
                "Routing"
            }
            fn tier(&self) -> Tier {
                Tier::Three
            }
            fn local_step(
                &self,
                _t: usize,
                _w: &mut WorkerState,
                _g: &mut dyn FnMut(&Vector, &mut Vector),
            ) {
            }
            fn edge_aggregate(&self, _k: usize, _v: &mut EdgeView<'_>) {
                unreachable!("the tier_aggregate override replaces it");
            }
            fn cloud_aggregate(&self, _p: usize, _s: &mut FlState) {
                unreachable!("the tier_aggregate override replaces it");
            }
            fn tier_aggregate(&self, _scope: TierScope<'_, '_>, _round: usize) {
                self.0[0].fetch_add(1, Ordering::SeqCst);
            }
            fn edge_aggregate_stale(&self, _k: usize, _v: &mut EdgeView<'_>, _s: &[usize]) {
                self.0[1].fetch_add(1, Ordering::SeqCst);
            }
            fn cloud_aggregate_stale(&self, _p: usize, _s: &mut FlState, _st: &[usize]) {
                self.0[2].fetch_add(1, Ordering::SeqCst);
            }
        }
        let counts = |s: &Routing| s.0.each_ref().map(|c| c.load(Ordering::SeqCst));

        use hieradmo_topology::Weights;
        let h = Hierarchy::balanced(1, 2);
        let w = Weights::from_samples(&h, &[1, 1]);
        let mut state = FlState::new(h, w, &Vector::from(vec![0.0]));
        let s = Routing::default();
        s.tier_aggregate_stale(TierScope::Edge(&mut state.edge_view(0)), 1, &[0, 0]);
        s.tier_aggregate_stale(TierScope::Root(&mut state), 1, &[0]);
        assert_eq!(counts(&s), [2, 0, 0], "all-zero staleness is synchronous");
        s.tier_aggregate_stale(TierScope::Edge(&mut state.edge_view(0)), 2, &[0, 1]);
        assert_eq!(counts(&s), [2, 1, 0], "a stale edge reaches its stale hook");
        s.tier_aggregate_stale(TierScope::Root(&mut state), 2, &[3]);
        assert_eq!(counts(&s), [2, 1, 1], "a stale root reaches its stale hook");
    }
}
