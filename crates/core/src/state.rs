//! The complete state of an N-tier federation, shared by all algorithms.
//!
//! Field names follow Table I of the paper: worker `{i, ℓ}` holds model
//! `x_{i,ℓ}` and momentum `y_{i,ℓ}`; every aggregator tier — edge,
//! middle, or cloud — holds one [`TierState`] with the post-aggregation
//! values `y_{ℓ−}` / `x_{ℓ+}` / `y_{ℓ+}` plus the server-momentum fields
//! the two-tier baselines keep at the root. Algorithms use whichever
//! fields they need and leave the rest untouched.

use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, TierTree, Weights};
use serde::{Deserialize, Serialize};

use crate::robust::RobustAggregator;

/// The optional edge-interval sums a strategy's hooks read: `Σ∇F`
/// ([`WorkerState::grad_accum`]), `Σy` ([`WorkerState::y_accum`]) and
/// `Σv` ([`WorkerState::v_accum`]). A strategy declares them once, in
/// [`Strategy::init`](crate::Strategy::init), through
/// [`FlState::declare_sums`]. Every worker copy then holds the declared
/// sums at the model's width and the others zero-width, and a NAG local
/// step updates exactly the declared ones. The default declares none: a
/// strategy whose hooks read only `x`, `y` and `v`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSums {
    /// `Σ ∇F`.
    pub grad: bool,
    /// `Σ y`.
    pub y: bool,
    /// `Σ v`.
    pub v: bool,
}

/// Per-worker state.
///
/// `x`, `y` and `v` have the model's width. Of the three interval sums,
/// only those the strategy declared in
/// [`Strategy::init`](crate::Strategy::init) (see [`IntervalSums`]) do;
/// the others are zero-width, and so is `scratch` outside a local step.
/// A wrapper strategy must forward `init`, or its workers hold no sum.
///
/// Serializable so a run can be snapshotted mid-training and resumed
/// bitwise-identically (see [`crate::checkpoint::TrainingSnapshot`]).
/// `clone_from` copies every field into the destination's existing
/// buffers, so the engines move worker state without allocating. The
/// default is the zero-dimensional stand-in an execution engine leaves
/// behind while the real state is checked out (`std::mem::take`); no
/// algorithm observes it.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerState {
    /// Model parameters `x_{i,ℓ}`.
    pub x: Vector,
    /// NAG momentum parameter `y_{i,ℓ}` (the "lookahead" point).
    pub y: Vector,
    /// Velocity `v_{i,ℓ} = y_t − y_{t−1}` for velocity-form algorithms
    /// (FedADC's drift-controlled velocity, Mime's momentum copy).
    pub v: Vector,
    /// `Σ_t ∇F_{i,ℓ}(x^t)` accumulated over the current edge interval
    /// (received by the edge in Algorithm 1 line 9).
    pub grad_accum: Vector,
    /// `Σ_t y^t_{i,ℓ}` accumulated over the current edge interval.
    pub y_accum: Vector,
    /// `Σ_t v^t_{i,ℓ} = Σ_t (y^t − y^{t−1})` accumulated over the current
    /// edge interval — the *displacement* basis used by the agreement and
    /// gradient-alignment adaptive variants (see
    /// [`crate::algorithms::GammaMode`]).
    pub v_accum: Vector,
    /// Number of local steps accumulated since the last reset (lets
    /// aggregators normalize the sums without knowing τ).
    pub steps: usize,
    /// The gradient buffer of the current local step, lent by the pool
    /// lane that runs it: empty between steps, model-width only inside
    /// [`Strategy::local_step`](crate::strategy::Strategy::local_step),
    /// where
    /// [`Model::loss_and_grad_into`](hieradmo_models::Model::loss_and_grad_into)
    /// writes each mini-batch gradient into it. The lane takes it back
    /// after the call, so clones, snapshots, deliveries and checkpoints
    /// carry no gradient. On a dense `Sequential` the model's own
    /// per-replica workspace holds the rest of the gradient's buffers, so
    /// the steady-state step allocates nothing; a model on the per-sample
    /// (convolutional) path still allocates per sample.
    /// Transient working memory, *not* algorithm state.
    pub scratch: Vector,
}

impl WorkerState {
    /// Fresh worker state at initial model `x0` (`y⁰ = x⁰`, zero velocity
    /// and declared sums — Algorithm 1 line 1).
    pub fn new(x0: &Vector, sums: IntervalSums) -> Self {
        let mut w = WorkerState::default();
        w.download(x0, x0, sums);
        w
    }

    /// Zero-fills the interval sums in place (done at every aggregation);
    /// undeclared ones are zero-width and stay so.
    pub fn reset_accumulators(&mut self) {
        for sum in self.sums_mut() {
            sum.fill(0.0);
        }
        self.steps = 0;
    }

    /// Overwrites this state with the fresh download of a worker joining
    /// an edge: model `x` (the edge's `x_plus`), lookahead `y` (its
    /// `y_minus`), zero velocity, the `sums` declared zero-filled and the
    /// rest zero-width, and an empty scratch — exactly what a
    /// full-participation worker holds right after any aggregation. Every
    /// field is written, in place where the lengths allow, so nothing of
    /// the previous occupant survives; a zero-dimensional placeholder ends
    /// up full-size.
    pub fn download(&mut self, x: &Vector, y: &Vector, sums: IntervalSums) {
        self.x.copy_from(x);
        self.y.copy_from(y);
        fit(&mut self.v, x.len());
        self.v.fill(0.0);
        self.lay_out(sums);
        self.reset_accumulators();
        self.scratch = Vector::default();
    }

    /// Sizes the interval sums to `sums`: a declared sum keeps its values
    /// at the model's width (zeros if it had another width), every other
    /// sum becomes zero-width.
    pub(crate) fn lay_out(&mut self, sums: IntervalSums) {
        let n = self.x.len();
        let widths = [sums.grad, sums.y, sums.v].map(|declared| if declared { n } else { 0 });
        for (sum, width) in self.sums_mut().into_iter().zip(widths) {
            fit(sum, width);
        }
    }

    /// The interval sums this worker holds: the ones its strategy
    /// declared, read off their widths.
    pub(crate) fn interval_sums(&self) -> IntervalSums {
        let [grad, y, v] = [&self.grad_accum, &self.y_accum, &self.v_accum].map(|s| !s.is_empty());
        IntervalSums { grad, y, v }
    }

    /// `[Σ∇F, Σy, Σv]`, in [`IntervalSums`] field order.
    fn sums_mut(&mut self) -> [&mut Vector; 3] {
        [&mut self.grad_accum, &mut self.y_accum, &mut self.v_accum]
    }
}

/// Reallocates `v` as `n` zeros unless it already has length `n`.
fn fit(v: &mut Vector, n: usize) {
    if v.len() != n {
        *v = Vector::zeros(n);
    }
}

impl Clone for WorkerState {
    fn clone(&self) -> Self {
        WorkerState {
            x: self.x.clone(),
            y: self.y.clone(),
            v: self.v.clone(),
            grad_accum: self.grad_accum.clone(),
            y_accum: self.y_accum.clone(),
            v_accum: self.v_accum.clone(),
            steps: self.steps,
            scratch: self.scratch.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let WorkerState {
            x,
            y,
            v,
            grad_accum,
            y_accum,
            v_accum,
            steps,
            scratch,
        } = self;
        x.clone_from(&source.x);
        y.clone_from(&source.y);
        v.clone_from(&source.v);
        grad_accum.clone_from(&source.grad_accum);
        y_accum.clone_from(&source.y_accum);
        v_accum.clone_from(&source.v_accum);
        *steps = source.steps;
        scratch.clone_from(&source.scratch);
    }
}

/// State of one aggregator node at *any* non-leaf tier — edge, middle,
/// or cloud root. One struct serves every level so deeper trees are just
/// more vectors of the same state, and a middle node's children are
/// always `&mut [TierState]` whether they are edges or lower middles.
///
/// Field naming follows the edge row of Table I; at the root, `x_plus`
/// *is* the cloud model `x` (line 19) and `y_plus` the cloud momentum
/// `y` (line 18). Fields a given role never touches stay at their
/// initial values and cost one model-sized vector each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierState {
    /// The node's model: `x_{ℓ+}` at an edge (after the edge momentum
    /// update, line 13), the global `x` at the root.
    pub x_plus: Vector,
    /// The node's momentum: `y_{ℓ+}` at an edge (line 12; its previous
    /// value feeds line 13), the cloud `y` at the root.
    pub y_plus: Vector,
    /// Aggregated child momentum `y_{ℓ−}` (line 11).
    pub y_minus: Vector,
    /// Server momentum/velocity for aggregator-momentum baselines
    /// (FedMom, SlowMo, FastSlowMo, Mime's statistic) — root-only today.
    pub v: Vector,
    /// Previous model, kept by server-momentum baselines to form the
    /// pseudo-gradient `x_prev − x̄` — root-only today.
    pub x_prev: Vector,
    /// The momentum factor `γℓ` used at the latest aggregation (adapted
    /// by HierAdMo, fixed for HierAdMo-R) — recorded per tier for the
    /// Fig. 2(i)–(k) diagnostics.
    pub gamma_edge: f32,
    /// The weighted cosine `cos θ_{k,ℓ}` measured at the latest
    /// aggregation (Eq. 6), recorded for diagnostics.
    pub cos_theta: f32,
}

impl TierState {
    pub(crate) fn new(x0: &Vector) -> Self {
        TierState {
            x_plus: x0.clone(),
            y_plus: x0.clone(),
            y_minus: x0.clone(),
            v: Vector::zeros(x0.len()),
            x_prev: x0.clone(),
            gamma_edge: 0.0,
            cos_theta: 0.0,
        }
    }

    /// Zero-dimensional stand-in used by the execution engine while the
    /// real state is checked out to a worker thread.
    pub(crate) fn placeholder() -> Self {
        TierState::new(&Vector::zeros(0))
    }
}

/// Full federation state: hierarchy, data weights, and all tier states.
#[derive(Debug, Clone)]
pub struct FlState {
    /// The cloud → edge → worker tree.
    pub hierarchy: Hierarchy,
    /// Data-size weights `D_{i,ℓ}/D_ℓ`, `D_ℓ/D`.
    pub weights: Weights,
    /// Worker states in flat order.
    pub workers: Vec<WorkerState>,
    /// Edge (leaf-parent tier) states.
    pub edges: Vec<TierState>,
    /// Cloud (root) state.
    pub cloud: TierState,
    /// Middle-tier states for depth ≥ 4 trees, outer-indexed by tier
    /// depth in [`TierTree::middle_depths`] order (top-down), inner by
    /// node. Empty — and never touched by any hook — on three-tier runs.
    pub middle: Vec<Vec<TierState>>,
    /// The tier tree behind `middle`, when this federation runs the
    /// N-tier path. `None` on the seed three-tier path.
    pub tree: Option<TierTree>,
    /// The aggregation rule every child reduction routes through. The
    /// default ([`RobustAggregator::Mean`]) is the paper's data-weighted
    /// mean and keeps runs bitwise identical to the pre-robustness code.
    /// Runtime policy, *not* algorithm state: snapshots do not carry it —
    /// a resumed run takes the rule from its `RunConfig`.
    pub aggregator: RobustAggregator,
    /// Whether the worker slots are round-scoped (see
    /// [`FlState::with_round_scoped_slots`]). Set only by a sampled
    /// participant source; no config field or snapshot carries it.
    round_scoped: bool,
    /// The interval sums the strategy declared ([`FlState::declare_sums`]).
    sums: IntervalSums,
}

impl FlState {
    /// Initializes every tier from the same initial model `x0`
    /// (Algorithm 1 lines 1–2: identical `x⁰` everywhere, `y⁰ = x⁰`).
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn new(hierarchy: Hierarchy, weights: Weights, x0: &Vector) -> Self {
        FlState::with_slots(hierarchy, weights, x0, false)
    }

    /// Like [`FlState::new`], but with round-scoped worker slots: the
    /// engine rebuilds every slot from its edge's download before the slot
    /// is read, as both engines do for sampled cohorts, so nothing an
    /// aggregation hook writes into a slot can be observed. The slots
    /// start zero-dimensional, and the event engine keeps them so outside
    /// an edge's firing. The distribution helpers —
    /// [`FlState::for_all_workers`], [`FlState::for_edge_workers`] and
    /// [`EdgeView::for_workers`] — skip their closures, which saves every
    /// hook's per-slot copies and accumulator resets without any hook
    /// knowing which participant source it serves. Hooks must reach slots
    /// through those helpers to benefit; reads are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn with_round_scoped_slots(hierarchy: Hierarchy, weights: Weights, x0: &Vector) -> Self {
        FlState::with_slots(hierarchy, weights, x0, true)
    }

    fn with_slots(hierarchy: Hierarchy, weights: Weights, x0: &Vector, round_scoped: bool) -> Self {
        assert!(!x0.is_empty(), "initial model must be non-empty");
        let slot = if round_scoped {
            WorkerState::default()
        } else {
            WorkerState::new(x0, IntervalSums::default())
        };
        let workers = vec![slot; hierarchy.num_workers()];
        let edges = (0..hierarchy.num_edges())
            .map(|_| TierState::new(x0))
            .collect();
        FlState {
            hierarchy,
            weights,
            workers,
            edges,
            cloud: TierState::new(x0),
            middle: Vec::new(),
            tree: None,
            aggregator: RobustAggregator::default(),
            round_scoped,
            sums: IntervalSums::default(),
        }
    }

    /// Declares the interval sums the strategy's hooks read, the one
    /// source for both the width of every worker copy and the NAG step's
    /// selection: every registered worker gets each declared sum at the
    /// model's width (zeros where it had none) and the others zero-width,
    /// and every later download, join, sampled slot and restore follows.
    /// Called from [`Strategy::init`](crate::Strategy::init); a federation
    /// nobody declares for holds no sum.
    pub fn declare_sums(&mut self, sums: IntervalSums) {
        self.sums = sums;
        self.for_all_workers(|w| w.lay_out(sums));
    }

    /// The interval sums the strategy declared (see
    /// [`FlState::declare_sums`]).
    pub fn interval_sums(&self) -> IntervalSums {
        self.sums
    }

    /// Whether the worker slots are round-scoped (see
    /// [`FlState::with_round_scoped_slots`]).
    pub(crate) fn round_scoped(&self) -> bool {
        self.round_scoped
    }

    /// Attaches a tier tree, allocating one [`TierState`] per middle
    /// node (initialized like every other tier: `x⁰` everywhere,
    /// `y⁰ = x⁰`). The tree's edge tier must span this state's
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the tree's edge/worker counts disagree with the
    /// hierarchy.
    pub fn attach_tree(&mut self, tree: TierTree) {
        assert_eq!(
            tree.num_edges(),
            self.hierarchy.num_edges(),
            "tier tree spans {} edges for a hierarchy with {}",
            tree.num_edges(),
            self.hierarchy.num_edges()
        );
        assert_eq!(
            tree.num_workers(),
            self.hierarchy.num_workers(),
            "tier tree spans {} workers for a hierarchy with {}",
            tree.num_workers(),
            self.hierarchy.num_workers()
        );
        let x0 = self.cloud.x_plus.clone();
        self.middle = tree
            .middle_depths()
            .map(|d| (0..tree.nodes_at(d)).map(|_| TierState::new(&x0)).collect())
            .collect();
        self.tree = Some(tree);
    }

    /// Data weight of one middle node's subtree within its parent's
    /// subtree: the sum of its edges' `D_ℓ/D` shares, renormalized so
    /// siblings sum to 1. `depth` indexes the tree as in
    /// [`TierTree::middle_depths`]; for the root's children pass
    /// `depth = 1`.
    ///
    /// # Panics
    ///
    /// Panics if no tree is attached or the node is out of range.
    pub fn subtree_weight(&self, depth: usize, node: usize) -> f64 {
        let tree = self.tree.as_ref().expect("subtree_weight needs a tree");
        let span = tree.edges_per_node(depth);
        let share = |n: usize| -> f64 {
            (n * span..(n + 1) * span)
                .map(|e| self.weights.edge_in_total(e))
                .sum()
        };
        let parent_fanout = tree.levels()[depth - 1].fanout;
        let first_sibling = (node / parent_fanout) * parent_fanout;
        let parent_share: f64 = (first_sibling..first_sibling + parent_fanout)
            .map(&share)
            .sum();
        share(node) / parent_share
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.cloud.x_plus.len()
    }

    /// Data-weighted reduction over one edge's workers of an arbitrary
    /// per-worker vector (the `Σᵢ D_{i,ℓ}/D_ℓ · (·)` primitive of lines
    /// 11–12), routed through [`FlState::aggregator`].
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_average<F>(&self, edge: usize, f: F) -> Vector
    where
        F: Fn(&WorkerState) -> &Vector,
    {
        self.aggregator.aggregate(
            self.hierarchy
                .edge_workers(edge)
                .map(|i| (self.weights.worker_in_edge(i), f(&self.workers[i]))),
        )
    }

    /// Data-weighted reduction over edges of an arbitrary per-edge vector
    /// (the `Σℓ D_ℓ/D · (·)` primitive of lines 18–19), routed through
    /// [`FlState::aggregator`].
    pub fn cloud_average<F>(&self, f: F) -> Vector
    where
        F: Fn(&TierState) -> &Vector,
    {
        self.aggregator.aggregate(
            self.edges
                .iter()
                .enumerate()
                .map(|(l, e)| (self.weights.edge_in_total(l), f(e))),
        )
    }

    /// Reduces an arbitrary weighted item list under the state's
    /// aggregation rule — the primitive behind the staleness-aware cloud
    /// hooks, which mix current and snapshotted edge states and so cannot
    /// use the closure form of [`FlState::cloud_average`].
    pub fn aggregate<'a, I>(&self, items: I) -> Vector
    where
        I: IntoIterator<Item = (f64, &'a Vector)>,
    {
        self.aggregator.aggregate(items)
    }

    /// Data-weighted average of all worker models — the global model used
    /// for evaluation between cloud rounds.
    pub fn average_worker_models(&self) -> Vector {
        Vector::weighted_average(
            self.workers
                .iter()
                .enumerate()
                .map(|(i, w)| (self.weights.worker_in_total(i), &w.x)),
        )
    }

    /// Applies a closure to every worker under one edge — a no-op when
    /// the slots are round-scoped ([`FlState::with_round_scoped_slots`]).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn for_edge_workers<F>(&mut self, edge: usize, mut f: F)
    where
        F: FnMut(&mut WorkerState),
    {
        let range = self.hierarchy.edge_workers(edge);
        if self.round_scoped {
            return;
        }
        for w in &mut self.workers[range] {
            f(w);
        }
    }

    /// Applies a closure to every worker in the system — a no-op when the
    /// slots are round-scoped ([`FlState::with_round_scoped_slots`]).
    pub fn for_all_workers<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut WorkerState),
    {
        if self.round_scoped {
            return;
        }
        for w in &mut self.workers {
            f(w);
        }
    }

    /// Borrows one edge's slice of the federation: its workers, its
    /// edge [`TierState`], and the data weights — everything
    /// [`crate::Strategy::edge_aggregate`] may touch.
    ///
    /// Views of distinct edges are disjoint (workers are stored in
    /// edge-major flat order), which is what lets the execution engine run
    /// all edges' aggregations in parallel with identical results.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_view(&mut self, edge: usize) -> EdgeView<'_> {
        let range = self.hierarchy.edge_workers(edge);
        let offset = range.start;
        EdgeView {
            edge,
            offset,
            workers: &mut self.workers[range],
            state: &mut self.edges[edge],
            weights: &self.weights,
            aggregator: self.aggregator,
            round_scoped: self.round_scoped,
        }
    }
}

/// Mutable view of a single edge: the unit of work of
/// [`crate::Strategy::edge_aggregate`].
///
/// Everything an edge aggregator is allowed to read or write lives here —
/// the edge's own workers (local indices `0..num_workers()`), its
/// edge [`TierState`], and read-only data weights. Cross-edge and cloud state
/// are deliberately out of reach, making data-race freedom of parallel
/// edge aggregation a type-level fact rather than a convention.
#[derive(Debug)]
pub struct EdgeView<'a> {
    pub(crate) edge: usize,
    /// Flat index of the edge's first worker.
    pub(crate) offset: usize,
    /// This edge's workers, locally indexed from 0.
    pub workers: &'a mut [WorkerState],
    /// This edge's aggregation state.
    pub state: &'a mut TierState,
    pub(crate) weights: &'a Weights,
    pub(crate) aggregator: RobustAggregator,
    /// The federation's slots are round-scoped
    /// ([`FlState::with_round_scoped_slots`]).
    pub(crate) round_scoped: bool,
}

impl EdgeView<'_> {
    /// The edge index this view covers.
    pub fn edge(&self) -> usize {
        self.edge
    }

    /// Number of workers under this edge.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// In-edge data weight `D_{i,ℓ}/D_ℓ` of the worker at local index
    /// `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local >= num_workers()`.
    pub fn worker_weight(&self, local: usize) -> f64 {
        assert!(
            local < self.workers.len(),
            "local worker index out of range"
        );
        self.weights.worker_in_edge(self.offset + local)
    }

    /// Iterates `(D_{i,ℓ}/D_ℓ, worker)` pairs in local order.
    pub fn weighted_workers(&self) -> impl Iterator<Item = (f64, &WorkerState)> {
        self.workers
            .iter()
            .enumerate()
            .map(|(j, w)| (self.weights.worker_in_edge(self.offset + j), w))
    }

    /// Data-weighted reduction of an arbitrary per-worker vector — the
    /// edge counterpart of [`FlState::edge_average`], routed through the
    /// federation's [`RobustAggregator`] so every `Strategy` written
    /// against this API gets Byzantine defenses for free.
    pub fn average<F>(&self, f: F) -> Vector
    where
        F: Fn(&WorkerState) -> &Vector,
    {
        self.aggregator
            .aggregate(self.weighted_workers().map(|(wt, w)| (wt, f(w))))
    }

    /// Reduces an arbitrary weighted item list under the federation's
    /// aggregation rule — for staleness-aware hooks whose inputs mix live
    /// worker state with server-side snapshots and custom (age-discounted)
    /// weights.
    pub fn aggregate<'b, I>(&self, items: I) -> Vector
    where
        I: IntoIterator<Item = (f64, &'b Vector)>,
    {
        self.aggregator.aggregate(items)
    }

    /// Fused form of [`EdgeView::average`] + the Eq. 7 momentum lookahead:
    /// returns `(m, m + gamma · (m − y_old))` in one batched traversal
    /// (see [`RobustAggregator::aggregate_momentum`]), bitwise identical
    /// to aggregating and then applying clone → subtract → `axpy`.
    pub fn average_momentum<F>(&self, f: F, gamma: f32, y_old: &Vector) -> (Vector, Vector)
    where
        F: Fn(&WorkerState) -> &Vector,
    {
        self.aggregator.aggregate_momentum(
            self.weighted_workers().map(|(wt, w)| (wt, f(w))),
            gamma,
            y_old,
        )
    }

    /// Fused form of [`EdgeView::aggregate`] + the Eq. 7 momentum
    /// lookahead, for staleness-aware hooks carrying custom weights.
    pub fn aggregate_momentum<'b, I>(
        &self,
        items: I,
        gamma: f32,
        y_old: &Vector,
    ) -> (Vector, Vector)
    where
        I: IntoIterator<Item = (f64, &'b Vector)>,
    {
        self.aggregator.aggregate_momentum(items, gamma, y_old)
    }

    /// Applies a closure to every worker under this edge, in local order
    /// — a no-op when the federation's slots are round-scoped
    /// ([`FlState::with_round_scoped_slots`]).
    pub fn for_workers<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut WorkerState),
    {
        if self.round_scoped {
            return;
        }
        for w in self.workers.iter_mut() {
            f(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every interval sum: a layout no strategy declares, so each field
    /// of a worker has an allocation.
    const ALL: IntervalSums = IntervalSums {
        grad: true,
        y: true,
        v: true,
    };

    fn state() -> FlState {
        let h = Hierarchy::new(vec![2, 1]);
        let w = Weights::from_samples(&h, &[10, 30, 20]);
        FlState::new(h, w, &Vector::from(vec![1.0, 2.0]))
    }

    #[test]
    fn subtree_weights_are_finite_and_sum_to_one_per_parent() {
        use hieradmo_topology::{TierSpec, TierTree};
        // Depth 4, 2 regions x 2 edges x 1 worker, heavily skewed data:
        // one worker owns almost everything. The division in
        // `subtree_weight` is guarded structurally — `Weights` rejects
        // zero-sample edges, so no parent share can reach 0 — and this
        // pins that invariant: every weight is finite and each parent's
        // children sum to 1.
        let tree = TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::new(2, 1),
            TierSpec::new(1, 5),
        ])
        .unwrap();
        let h = tree.edge_hierarchy();
        let w = Weights::from_samples(&h, &[1_000_000, 1, 1, 1]);
        let mut s = FlState::new(h, w, &Vector::from(vec![0.0]));
        s.attach_tree(tree.clone());
        for d in 1..tree.levels().len() {
            let fanout = tree.levels()[d - 1].fanout;
            for parent in 0..tree.nodes_at(d - 1) {
                let total: f64 = (parent * fanout..(parent + 1) * fanout)
                    .map(|n| {
                        let wt = s.subtree_weight(d, n);
                        assert!(wt.is_finite() && wt > 0.0, "weight({d}, {n}) = {wt}");
                        wt
                    })
                    .sum();
                assert!(
                    (total - 1.0).abs() < 1e-12,
                    "parent {parent} sums to {total}"
                );
            }
        }
    }

    #[test]
    fn initialization_matches_algorithm_lines_1_and_2() {
        let s = state();
        for w in &s.workers {
            assert_eq!(w.x.as_slice(), &[1.0, 2.0]);
            assert_eq!(w.y, w.x, "y0 = x0");
            assert_eq!(w.v.as_slice(), &[0.0, 0.0]);
        }
        for e in &s.edges {
            assert_eq!(e.x_plus.as_slice(), &[1.0, 2.0]);
            assert_eq!(e.y_plus, e.x_plus, "y0_{{l+}} = x0_{{l+}}");
        }
        assert_eq!(s.cloud.x_plus.as_slice(), &[1.0, 2.0]);
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn declared_sums_alone_have_the_model_width() {
        let mut s = state();
        assert_eq!(s.interval_sums(), IntervalSums::default());
        let widths = |w: &WorkerState| [&w.grad_accum, &w.y_accum, &w.v_accum].map(Vector::len);
        assert!(s.workers.iter().all(|w| widths(w) == [0; 3]));
        let adaptive = IntervalSums {
            grad: true,
            y: true,
            v: false,
        };
        s.declare_sums(adaptive);
        assert_eq!(s.interval_sums(), adaptive);
        for w in &s.workers {
            assert_eq!(widths(w), [2, 2, 0]);
            assert_eq!(w.interval_sums(), adaptive);
            assert!(w.grad_accum.iter().all(|a| a.to_bits() == 0));
        }
        // Round-scoped slots stay zero-dimensional; their downloads carry
        // the declaration instead.
        let s = state();
        let mut scoped = FlState::with_round_scoped_slots(s.hierarchy, s.weights, &s.cloud.x_plus);
        scoped.declare_sums(adaptive);
        assert!(scoped.workers.iter().all(|w| *w == WorkerState::default()));
    }

    #[test]
    fn edge_average_respects_data_weights() {
        let mut s = state();
        s.workers[0].x = Vector::from(vec![0.0, 0.0]);
        s.workers[1].x = Vector::from(vec![4.0, 4.0]);
        // Weights within edge 0: 10/40 and 30/40.
        let avg = s.edge_average(0, |w| &w.x);
        assert_eq!(avg.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn cloud_average_respects_edge_weights() {
        let mut s = state();
        s.edges[0].x_plus = Vector::from(vec![0.0, 0.0]);
        s.edges[1].x_plus = Vector::from(vec![6.0, 6.0]);
        // Edge weights: 40/60 and 20/60.
        let avg = s.cloud_average(|e| &e.x_plus);
        assert_eq!(avg.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn average_worker_models_is_global_weighted_mean() {
        let mut s = state();
        s.workers[0].x = Vector::from(vec![6.0, 0.0]);
        s.workers[1].x = Vector::from(vec![0.0, 0.0]);
        s.workers[2].x = Vector::from(vec![0.0, 3.0]);
        let avg = s.average_worker_models();
        // worker_in_total: 10/60, 30/60, 20/60.
        assert_eq!(avg.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn reset_accumulators_zeroes() {
        let mut s = state();
        s.workers[0].grad_accum = Vector::from(vec![5.0, 5.0]);
        s.workers[0].y_accum = Vector::from(vec![7.0, -0.0]);
        s.workers[0].v_accum = Vector::from(vec![3.0, 3.0]);
        s.workers[0].steps = 4;
        let w = &mut s.workers[0];
        let ptrs = [
            w.grad_accum.as_slice().as_ptr(),
            w.y_accum.as_slice().as_ptr(),
            w.v_accum.as_slice().as_ptr(),
        ];
        w.reset_accumulators();
        // Zero-filled in place, with positive zeros.
        for (acc, ptr) in [&w.grad_accum, &w.y_accum, &w.v_accum]
            .into_iter()
            .zip(ptrs)
        {
            assert_eq!(acc.as_slice().as_ptr(), ptr, "reset reallocated");
            assert_eq!(acc, &Vector::zeros(2));
            assert!(acc.iter().all(|a| a.to_bits() == 0));
        }
        assert_eq!(w.steps, 0);
        // An undeclared (zero-width) sum stays zero-width.
        w.v_accum = Vector::default();
        w.reset_accumulators();
        assert_eq!(w.grad_accum, Vector::zeros(2));
        assert_eq!(w.y_accum, Vector::zeros(2));
        assert!(w.v_accum.is_empty());
    }

    #[test]
    fn worker_clone_from_keeps_every_allocation_and_equals_clone() {
        let vals = |k: f32| Vector::from(vec![k, -k, k * 0.5]);
        let src = WorkerState {
            x: vals(1.0),
            y: vals(2.0),
            v: vals(3.0),
            grad_accum: vals(4.0),
            y_accum: vals(5.0),
            v_accum: vals(6.0),
            steps: 7,
            scratch: vals(8.0),
        };
        let mut dst = WorkerState::new(&Vector::zeros(3), ALL);
        // `new` leaves the scratch empty (the lane lends it); give it an
        // allocation so the reuse check covers every field.
        dst.scratch = Vector::zeros(3);
        let ptrs = |w: &WorkerState| {
            [
                &w.x,
                &w.y,
                &w.v,
                &w.grad_accum,
                &w.y_accum,
                &w.v_accum,
                &w.scratch,
            ]
            .map(|v| v.as_slice().as_ptr())
        };
        let before = ptrs(&dst);
        dst.clone_from(&src);
        assert_eq!(ptrs(&dst), before, "clone_from reallocated");
        assert_eq!(dst, src.clone());
        // From a zero-dimensional placeholder it still ends up equal.
        let mut placeholder = WorkerState::default();
        placeholder.clone_from(&src);
        assert_eq!(placeholder, src);
    }

    #[test]
    fn for_edge_workers_touches_only_that_edge() {
        let mut s = state();
        s.for_edge_workers(0, |w| w.x = Vector::from(vec![9.0, 9.0]));
        assert_eq!(s.workers[0].x.as_slice(), &[9.0, 9.0]);
        assert_eq!(s.workers[1].x.as_slice(), &[9.0, 9.0]);
        assert_eq!(s.workers[2].x.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn distribution_helpers_skip_round_scoped_slots_only() {
        let nine = Vector::from(vec![9.0, 9.0]);
        let write = |s: &mut FlState| {
            s.for_all_workers(|w| w.x.clone_from(&nine));
            s.for_edge_workers(1, |w| w.y.clone_from(&nine));
            s.edge_view(0).for_workers(|w| w.reset_accumulators());
        };
        // Registered slots take every write.
        let mut registered = state();
        registered.workers[0].grad_accum = Vector::from(vec![5.0, 5.0]);
        assert!(!registered.round_scoped());
        write(&mut registered);
        assert!(registered.workers.iter().all(|w| w.x == nine));
        assert_eq!(registered.workers[2].y, nine);
        assert_eq!(registered.workers[0].grad_accum, Vector::zeros(2));
        // Round-scoped slots start zero-dimensional and are left exactly
        // as they were.
        let s = state();
        let mut scoped = FlState::with_round_scoped_slots(s.hierarchy, s.weights, &s.cloud.x_plus);
        assert!(scoped.workers.iter().all(|w| *w == WorkerState::default()));
        scoped.workers[0] = registered.workers[0].clone();
        scoped.workers[0].grad_accum = Vector::from(vec![5.0, 5.0]);
        let before = scoped.workers.clone();
        write(&mut scoped);
        assert!(scoped.round_scoped());
        assert_eq!(scoped.workers, before);
        assert_eq!(scoped.edges, state().edges);
    }

    #[test]
    fn download_overwrites_every_field() {
        let vals = |k: f32| Vector::from(vec![k, -k]);
        let mut w = WorkerState {
            x: vals(1.0),
            y: vals(2.0),
            v: vals(3.0),
            grad_accum: vals(4.0),
            y_accum: vals(5.0),
            v_accum: vals(6.0),
            steps: 7,
            scratch: vals(8.0),
        };
        let ptr = w.v.as_slice().as_ptr();
        w.download(&vals(10.0), &vals(20.0), ALL);
        let mut want = WorkerState::new(&vals(10.0), ALL);
        want.y = vals(20.0);
        assert_eq!(w, want);
        assert_eq!(w.v.as_slice().as_ptr(), ptr, "download reallocated");
        // A checked-out placeholder ends up full-size.
        let mut placeholder = WorkerState::default();
        placeholder.download(&vals(10.0), &vals(20.0), ALL);
        assert_eq!(placeholder, want);
        // Undeclared sums end up zero-width.
        w.download(&vals(10.0), &vals(20.0), IntervalSums::default());
        assert_eq!(w.interval_sums(), IntervalSums::default());
        assert_eq!((&w.x, &w.y, &w.v), (&want.x, &want.y, &want.v));
    }

    #[test]
    fn edge_view_exposes_exactly_one_edge() {
        let mut s = state();
        {
            let mut view = s.edge_view(0);
            assert_eq!(view.edge(), 0);
            assert_eq!(view.num_workers(), 2);
            // In-edge weights of edge 0: 10/40 and 30/40.
            assert!((view.worker_weight(0) - 0.25).abs() < 1e-12);
            assert!((view.worker_weight(1) - 0.75).abs() < 1e-12);
            view.for_workers(|w| w.x = Vector::from(vec![8.0, 8.0]));
        }
        assert_eq!(s.workers[0].x.as_slice(), &[8.0, 8.0]);
        assert_eq!(s.workers[1].x.as_slice(), &[8.0, 8.0]);
        assert_eq!(s.workers[2].x.as_slice(), &[1.0, 2.0]);
        // Second edge holds one worker with full weight.
        let view = s.edge_view(1);
        assert_eq!(view.num_workers(), 1);
        assert!((view.worker_weight(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_view_average_matches_edge_average() {
        let mut s = state();
        s.workers[0].x = Vector::from(vec![0.0, 0.0]);
        s.workers[1].x = Vector::from(vec![4.0, 4.0]);
        let via_state = s.edge_average(0, |w| &w.x);
        let via_view = s.edge_view(0).average(|w| &w.x);
        assert_eq!(via_state, via_view);
    }
}
