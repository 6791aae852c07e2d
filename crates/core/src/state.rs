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

/// Per-worker state.
///
/// Serializable so a run can be snapshotted mid-training and resumed
/// bitwise-identically (see [`crate::checkpoint::TrainingSnapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Gradient scratch buffer, reused across local steps so the steady
    /// state allocates nothing. Transient working memory, *not* algorithm
    /// state: its contents after a step (the last mini-batch gradient) are
    /// deterministic but carry no meaning to aggregators.
    pub scratch: Vector,
}

impl WorkerState {
    /// Fresh worker state at initial model `x0` (`y⁰ = x⁰`, zero velocity
    /// and accumulators — Algorithm 1 line 1).
    pub fn new(x0: &Vector) -> Self {
        WorkerState {
            x: x0.clone(),
            y: x0.clone(),
            v: Vector::zeros(x0.len()),
            grad_accum: Vector::zeros(x0.len()),
            y_accum: Vector::zeros(x0.len()),
            v_accum: Vector::zeros(x0.len()),
            steps: 0,
            scratch: Vector::zeros(x0.len()),
        }
    }

    /// Clears both edge-interval accumulators (done at every aggregation).
    pub fn reset_accumulators(&mut self) {
        self.grad_accum = Vector::zeros(self.x.len());
        self.y_accum = Vector::zeros(self.x.len());
        self.v_accum = Vector::zeros(self.x.len());
        self.steps = 0;
    }
}

/// The zero-dimensional stand-in an execution engine leaves behind while
/// the real state is checked out (`std::mem::take`). Never observed by
/// algorithms.
impl Default for WorkerState {
    fn default() -> Self {
        WorkerState::new(&Vector::zeros(0))
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

/// Per-edge state: the leaf-parent instance of [`TierState`].
pub type EdgeState = TierState;

/// Cloud (root) state: the root instance of [`TierState`]. The root's
/// model and momentum live in [`TierState::x_plus`] / [`TierState::y_plus`].
pub type CloudState = TierState;

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
    pub edges: Vec<EdgeState>,
    /// Cloud (root) state.
    pub cloud: CloudState,
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
}

impl FlState {
    /// Initializes every tier from the same initial model `x0`
    /// (Algorithm 1 lines 1–2: identical `x⁰` everywhere, `y⁰ = x⁰`).
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    pub fn new(hierarchy: Hierarchy, weights: Weights, x0: &Vector) -> Self {
        assert!(!x0.is_empty(), "initial model must be non-empty");
        let workers = (0..hierarchy.num_workers())
            .map(|_| WorkerState::new(x0))
            .collect();
        let edges = (0..hierarchy.num_edges())
            .map(|_| EdgeState::new(x0))
            .collect();
        FlState {
            hierarchy,
            weights,
            workers,
            edges,
            cloud: CloudState::new(x0),
            middle: Vec::new(),
            tree: None,
            aggregator: RobustAggregator::default(),
        }
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
        F: Fn(&EdgeState) -> &Vector,
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

    /// Applies a closure to every worker under one edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn for_edge_workers<F>(&mut self, edge: usize, mut f: F)
    where
        F: FnMut(&mut WorkerState),
    {
        for i in self.hierarchy.edge_workers(edge) {
            f(&mut self.workers[i]);
        }
    }

    /// Applies a closure to every worker in the system.
    pub fn for_all_workers<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut WorkerState),
    {
        for w in &mut self.workers {
            f(w);
        }
    }

    /// Borrows one edge's slice of the federation: its workers, its
    /// [`EdgeState`], and the data weights — everything
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
        }
    }
}

/// Mutable view of a single edge: the unit of work of
/// [`crate::Strategy::edge_aggregate`].
///
/// Everything an edge aggregator is allowed to read or write lives here —
/// the edge's own workers (local indices `0..num_workers()`), its
/// [`EdgeState`], and read-only data weights. Cross-edge and cloud state
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
    pub state: &'a mut EdgeState,
    pub(crate) weights: &'a Weights,
    pub(crate) aggregator: RobustAggregator,
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

    /// Applies a closure to every worker under this edge, in local order.
    pub fn for_workers<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut WorkerState),
    {
        for w in self.workers.iter_mut() {
            f(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        s.workers[0].y_accum = Vector::from(vec![7.0, 7.0]);
        s.workers[0].v_accum = Vector::from(vec![3.0, 3.0]);
        s.workers[0].reset_accumulators();
        assert_eq!(s.workers[0].grad_accum.as_slice(), &[0.0, 0.0]);
        assert_eq!(s.workers[0].y_accum.as_slice(), &[0.0, 0.0]);
        assert_eq!(s.workers[0].v_accum.as_slice(), &[0.0, 0.0]);
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
