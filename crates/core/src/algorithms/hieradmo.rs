//! HierAdMo (Algorithm 1) — the paper's contribution — and its reduced
//! variant HierAdMo-R (fixed `γℓ`, Theorem 5's comparison point).

use hieradmo_tensor::Vector;

use crate::adaptive::{clamp_gamma, weighted_cosine};
use crate::state::{EdgeView, FlState, IntervalSums, WorkerState};
use crate::strategy::{Strategy, Tier};

use super::nag_local_step;

/// How the edge momentum factor `γℓ` is chosen at each edge aggregation.
///
/// **Interpretation note (measured in `EXPERIMENTS.md`).** Eq. 6 pairs
/// `−Σ∇F` with "the momentum" `Σy`, where `y` is the NAG momentum
/// *parameter* — a point in parameter space. Three readings are
/// implemented and measured. The verbatim `Σy` cosine is position-
/// dominated and stays ≤ 0 in practice (mean adapted γℓ ≈ 0.05): edge
/// momentum engages only when provably safe — uniformly stable in every
/// regime we measured, and the default. The two direction-based readings
/// (footnote-1 agreement and gradient alignment) track the best fixed
/// γℓ tightly when edge momentum helps, but both saturate toward the
/// paper's 0.99 cap whenever directions cohere, which diverges in stiff
/// quick-scale regimes (where even fixed γℓ = 0.9 diverges). All three
/// are quantified side by side in the `ablation_adaptive` and `fig2ijk`
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaMode {
    /// Online adaptation with Eq. 6 implemented verbatim: the data-weighted
    /// cosine pairs each worker's accumulated negative gradient `−Σ∇F`
    /// with its accumulated momentum-parameter sum `Σyᵗ`. The
    /// position-dominated `Σy` keeps the cosine at or below zero in
    /// practice, so the edge momentum engages only when it is genuinely
    /// safe — measured across every regime in `EXPERIMENTS.md`, this is
    /// the only reading that never diverges while preserving all of the
    /// paper's qualitative results, and it is HierAdMo's default.
    Adaptive,
    /// Footnote-1 *agreement* semantics: each worker's momentum
    /// displacement `Σ(yᵗ − yᵗ⁻¹)` compared to the edge-aggregated
    /// displacement. Tracks the best fixed `γℓ` tightly when edge
    /// momentum helps, but saturates toward the 0.99 cap whenever the
    /// edge's workers move coherently — which diverges in stiff
    /// small-scale regimes (quantified in `EXPERIMENTS.md`).
    AdaptiveAgreement,
    /// Gradient-alignment semantics: each worker's displacement against
    /// its *own* accumulated negative gradient (a self-consistency
    /// signal; saturates on aligned convex descent).
    AdaptiveGradientAlignment,
    /// A fixed factor — the reduced variant HierAdMo-R.
    Fixed(f32),
}

/// Three-tier FL with momentum on both worker and edge level
/// (paper Algorithm 1).
///
/// Every local iteration each worker runs a NAG step (lines 5–6) while
/// accumulating `Σ∇F` and `Σy` over the edge interval (line 9). Every `τ`
/// iterations each edge:
///
/// 1. adapts `γℓ` from the data-weighted cosine between accumulated
///    negative gradients and momenta (lines 10, Eqs. 6–7) — or keeps it
///    fixed in the [`GammaMode::Fixed`] reduced variant;
/// 2. aggregates worker momenta `y_{ℓ−}` (line 11) and re-distributes them
///    (line 14), refining stragglers whose momenta point the wrong way;
/// 3. performs the *edge-level* momentum update over the aggregated model
///    (lines 12–13) and re-distributes the edge model (line 15).
///
/// Every `τπ` iterations the cloud averages `y_{ℓ−}` and `x_{ℓ+}` across
/// edges and re-distributes both all the way down (lines 18–23).
///
/// # Example
///
/// ```
/// use hieradmo_core::algorithms::{GammaMode, HierAdMo};
///
/// let adaptive = HierAdMo::adaptive(0.01, 0.5);
/// let reduced = HierAdMo::reduced(0.01, 0.5, 0.5);
/// assert_eq!(adaptive.gamma_mode(), GammaMode::Adaptive);
/// assert_eq!(reduced.gamma_mode(), GammaMode::Fixed(0.5));
/// ```
#[derive(Debug, Clone)]
pub struct HierAdMo {
    eta: f32,
    gamma: f32,
    mode: GammaMode,
}

impl HierAdMo {
    /// HierAdMo with online-adaptive `γℓ` (Eqs. 6–7 verbatim — see
    /// [`GammaMode::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or `gamma ∉ [0, 1)`.
    pub fn adaptive(eta: f32, gamma: f32) -> Self {
        Self::with_mode(eta, gamma, GammaMode::Adaptive)
    }

    /// HierAdMo with the footnote-1 agreement adaptive `γℓ` (see
    /// [`GammaMode::AdaptiveAgreement`]).
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or `gamma ∉ [0, 1)`.
    pub fn adaptive_agreement(eta: f32, gamma: f32) -> Self {
        Self::with_mode(eta, gamma, GammaMode::AdaptiveAgreement)
    }

    /// HierAdMo with the gradient-alignment adaptive `γℓ` (see
    /// [`GammaMode::AdaptiveGradientAlignment`]).
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0` or `gamma ∉ [0, 1)`.
    pub fn adaptive_gradient_alignment(eta: f32, gamma: f32) -> Self {
        Self::with_mode(eta, gamma, GammaMode::AdaptiveGradientAlignment)
    }

    /// HierAdMo-R: the reduced variant with fixed `γℓ`.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0`, `gamma ∉ [0, 1)`, or `gamma_edge ∉ [0, 1)`.
    pub fn reduced(eta: f32, gamma: f32, gamma_edge: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&gamma_edge),
            "gamma_edge must be in [0,1), got {gamma_edge}"
        );
        Self::with_mode(eta, gamma, GammaMode::Fixed(gamma_edge))
    }

    fn with_mode(eta: f32, gamma: f32, mode: GammaMode) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        assert!(
            (0.0..1.0).contains(&gamma),
            "gamma must be in [0,1), got {gamma}"
        );
        HierAdMo { eta, gamma, mode }
    }

    /// The configured `γℓ` selection mode.
    pub fn gamma_mode(&self) -> GammaMode {
        self.mode
    }

    /// Worker momentum factor `γ`.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }
}

impl GammaMode {
    /// The interval sums this mode's cosine reads in the edge hooks below,
    /// declared in [`Strategy::init`] and so the ones every worker holds
    /// and the local step updates: Eq. 6 verbatim pairs `Σ∇F` with `Σy`,
    /// agreement compares `Σv` with its edge average, gradient alignment
    /// pairs `Σ∇F` with `Σv`, and a fixed `γℓ` reads none.
    fn interval_sums(self) -> IntervalSums {
        let (grad, y, v) = match self {
            GammaMode::Adaptive => (true, true, false),
            GammaMode::AdaptiveAgreement => (false, false, true),
            GammaMode::AdaptiveGradientAlignment => (true, false, true),
            GammaMode::Fixed(_) => (false, false, false),
        };
        IntervalSums { grad, y, v }
    }
}

impl Strategy for HierAdMo {
    fn name(&self) -> &'static str {
        match self.mode {
            GammaMode::Adaptive => "HierAdMo",
            GammaMode::AdaptiveAgreement => "HierAdMo-AG",
            GammaMode::AdaptiveGradientAlignment => "HierAdMo-GA",
            GammaMode::Fixed(_) => "HierAdMo-R",
        }
    }

    fn tier(&self) -> Tier {
        Tier::Three
    }

    fn init(&self, state: &mut FlState) {
        state.declare_sums(self.mode.interval_sums());
    }

    fn local_step(
        &self,
        _t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        // Holds unless a wrapper strategy failed to forward `init`.
        debug_assert_eq!(worker.interval_sums(), self.mode.interval_sums());
        nag_local_step(self.eta, self.gamma, worker, grad);
    }

    fn edge_aggregate(&self, _k: usize, view: &mut EdgeView<'_>) {
        // Line 10 / Eqs. 6–7: adapt γℓ from the interval's accumulated
        // sums, under the configured cosine basis.
        let cos_theta = match self.mode {
            GammaMode::Adaptive => {
                // Eq. 6 verbatim: −Σ∇F vs the momentum-parameter sum Σy.
                weighted_cosine(
                    view.weighted_workers()
                        .map(|(wt, w)| (wt, &w.grad_accum, &w.y_accum)),
                )
            }
            GammaMode::AdaptiveAgreement => {
                // Footnote-1 agreement: each worker's displacement vs the
                // edge-aggregated displacement.
                let edge_disp = view.average(|w| &w.v_accum);
                view.weighted_workers()
                    .map(|(wt, w)| wt as f32 * w.v_accum.cosine(&edge_disp))
                    .sum()
            }
            GammaMode::AdaptiveGradientAlignment => weighted_cosine(
                view.weighted_workers()
                    .map(|(wt, w)| (wt, &w.grad_accum, &w.v_accum)),
            ),
            GammaMode::Fixed(_) => 0.0,
        };
        let gamma_edge = match self.mode {
            GammaMode::Fixed(g) => g,
            _ => clamp_gamma(cos_theta),
        };

        // Line 11: worker momentum edge aggregation y_{ℓ−}.
        let y_minus = view.average(|w| &w.y);
        // Lines 12–13 fused into one batched traversal:
        //   y_{ℓ+} ← x_{ℓ+}^{(k−1)τ} − Σᵢ wᵢ (x_{ℓ+}^{(k−1)τ} − x_i)
        //          = Σᵢ wᵢ x_i   (weights sum to 1),
        //   x_{ℓ+} ← y_{ℓ+} + γℓ (y_{ℓ+} − y_{ℓ+}^{(k−1)τ}).
        let (y_plus_new, x_plus) = view.average_momentum(|w| &w.x, gamma_edge, &view.state.y_plus);

        let e = &mut *view.state;
        e.y_plus = y_plus_new;
        e.x_plus.clone_from(&x_plus);
        e.y_minus.clone_from(&y_minus);
        e.gamma_edge = gamma_edge;
        e.cos_theta = cos_theta;

        // Lines 14–15: re-distribute y_{ℓ−} and x_{ℓ+} to the workers,
        // and start a fresh accumulation interval.
        view.for_workers(|w| {
            w.y.clone_from(&y_minus);
            w.x.clone_from(&x_plus);
            w.reset_accumulators();
        });
    }

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        // Lines 18–19: cloud aggregation of worker momenta and edge models.
        let y_cloud = state.cloud_average(|e| &e.y_minus);
        let x_cloud = state.cloud_average(|e| &e.x_plus);
        state.cloud.y_plus.clone_from(&y_cloud);
        state.cloud.x_plus.clone_from(&x_cloud);
        // Lines 20–23: re-distribute to every edge and worker.
        for e in &mut state.edges {
            e.y_minus.clone_from(&y_cloud);
            e.x_plus.clone_from(&x_cloud);
        }
        state.for_all_workers(|w| {
            w.y.clone_from(&y_cloud);
            w.x.clone_from(&x_cloud);
        });
    }

    /// Age-weighted edge aggregation for relaxed-synchrony drivers.
    ///
    /// Two deviations from the synchronous hook, both restricted to the
    /// updates actually received:
    ///
    /// 1. the adaptive-`γℓ` cosine (Eq. 6) is computed only over *fresh*
    ///    workers (`staleness == 0`), with their data weights renormalized
    ///    — stale accumulators describe an older model and would poison the
    ///    agreement signal;
    /// 2. the momentum/model averages down-weight each worker by
    ///    `1/(1 + staleness)`, the standard staleness discount of async FL,
    ///    so a carried-over update decays rather than dominating.
    ///
    /// With an all-zero staleness vector this is exactly
    /// [`Strategy::edge_aggregate`].
    fn edge_aggregate_stale(&self, k: usize, view: &mut EdgeView<'_>, staleness: &[usize]) {
        debug_assert_eq!(staleness.len(), view.num_workers());
        if staleness.iter().all(|&s| s == 0) {
            self.edge_aggregate(k, view);
            return;
        }

        let fresh_weight: f64 = view
            .weighted_workers()
            .zip(staleness)
            .filter(|(_, &s)| s == 0)
            .map(|((wt, _), _)| wt)
            .sum();
        let cos_theta = match self.mode {
            GammaMode::Fixed(_) => 0.0,
            _ if fresh_weight <= 0.0 => 0.0,
            GammaMode::Adaptive => weighted_cosine(
                view.weighted_workers()
                    .zip(staleness)
                    .filter(|(_, &s)| s == 0)
                    .map(|((wt, w), _)| (wt / fresh_weight, &w.grad_accum, &w.y_accum)),
            ),
            GammaMode::AdaptiveAgreement => {
                let edge_disp = view.aggregate(
                    view.weighted_workers()
                        .zip(staleness)
                        .filter(|(_, &s)| s == 0)
                        .map(|((wt, w), _)| (wt, &w.v_accum)),
                );
                view.weighted_workers()
                    .zip(staleness)
                    .filter(|(_, &s)| s == 0)
                    .map(|((wt, w), _)| (wt / fresh_weight) as f32 * w.v_accum.cosine(&edge_disp))
                    .sum()
            }
            GammaMode::AdaptiveGradientAlignment => weighted_cosine(
                view.weighted_workers()
                    .zip(staleness)
                    .filter(|(_, &s)| s == 0)
                    .map(|((wt, w), _)| (wt / fresh_weight, &w.grad_accum, &w.v_accum)),
            ),
        };
        let gamma_edge = match self.mode {
            GammaMode::Fixed(g) => g,
            _ => clamp_gamma(cos_theta),
        };

        // Lines 11–13 with the staleness discount folded into the data
        // weights (the aggregator renormalizes internally), routed through
        // the federation's robust aggregation rule.
        let age = |s: usize| 1.0 / (1.0 + s as f64);
        let y_minus = view.aggregate(
            view.weighted_workers()
                .zip(staleness)
                .map(|((wt, w), &s)| (wt * age(s), &w.y)),
        );
        let (y_plus_new, x_plus) = view.aggregate_momentum(
            view.weighted_workers()
                .zip(staleness)
                .map(|((wt, w), &s)| (wt * age(s), &w.x)),
            gamma_edge,
            &view.state.y_plus,
        );

        let e = &mut *view.state;
        e.y_plus = y_plus_new;
        e.x_plus.clone_from(&x_plus);
        e.y_minus.clone_from(&y_minus);
        e.gamma_edge = gamma_edge;
        e.cos_theta = cos_theta;

        view.for_workers(|w| {
            w.y.clone_from(&y_minus);
            w.x.clone_from(&x_plus);
            w.reset_accumulators();
        });
    }

    /// Age-weighted cloud aggregation: edges are down-weighted by
    /// `1/(1 + staleness)` before the lines 18–19 averages; distribution is
    /// unchanged. All-zero staleness is exactly
    /// [`Strategy::cloud_aggregate`].
    fn cloud_aggregate_stale(&self, p: usize, state: &mut FlState, staleness: &[usize]) {
        debug_assert_eq!(staleness.len(), state.edges.len());
        if staleness.iter().all(|&s| s == 0) {
            self.cloud_aggregate(p, state);
            return;
        }
        let age = |s: usize| 1.0 / (1.0 + s as f64);
        let y_cloud = state.aggregate(state.edges.iter().enumerate().map(|(l, e)| {
            (
                state.weights.edge_in_total(l) * age(staleness[l]),
                &e.y_minus,
            )
        }));
        let x_cloud = state.aggregate(state.edges.iter().enumerate().map(|(l, e)| {
            (
                state.weights.edge_in_total(l) * age(staleness[l]),
                &e.x_plus,
            )
        }));
        state.cloud.y_plus.clone_from(&y_cloud);
        state.cloud.x_plus.clone_from(&x_cloud);
        for e in &mut state.edges {
            e.y_minus.clone_from(&y_cloud);
            e.x_plus.clone_from(&x_cloud);
        }
        state.for_all_workers(|w| {
            w.y.clone_from(&y_cloud);
            w.x.clone_from(&x_cloud);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{quick_cfg, quick_run};
    use hieradmo_topology::Hierarchy;

    #[test]
    fn learns_the_small_problem() {
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let res = quick_run(&algo, Hierarchy::balanced(2, 2), quick_cfg());
        let acc = res.curve.final_accuracy().unwrap();
        assert!(acc > 0.7, "HierAdMo should learn: acc = {acc}");
    }

    #[test]
    fn reduced_variant_uses_fixed_gamma() {
        let algo = HierAdMo::reduced(0.05, 0.5, 0.3);
        let res = quick_run(&algo, Hierarchy::balanced(2, 2), quick_cfg());
        // Every recorded edge γℓ must equal the fixed value.
        assert!(!res.gamma_trace.is_empty());
        for &(_, g) in &res.gamma_trace {
            assert_eq!(g, 0.3);
        }
    }

    #[test]
    fn adaptive_gammas_respect_the_clamp() {
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let res = quick_run(&algo, Hierarchy::balanced(2, 2), quick_cfg());
        for &(_, g) in &res.gamma_trace {
            assert!((0.0..=0.99).contains(&g), "γℓ = {g} outside [0, 0.99]");
        }
    }

    #[test]
    fn workers_synchronize_at_edge_aggregation() {
        use crate::algorithms::testutil::small_problem;
        use crate::driver::{run, RunSpec};
        use crate::RunConfig;
        // One edge interval exactly: after the run's single edge+cloud
        // aggregation, all workers hold the same model.
        let (_, test, shards, model) = small_problem(4);
        let cfg = RunConfig {
            eta: 0.05,
            tau: 3,
            pi: 1,
            total_iters: 3,
            eval_every: 3,
            threads: Some(1),
            ..RunConfig::default()
        };
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let h = Hierarchy::balanced(2, 2);
        let res = run(&algo, &model, &RunSpec::hierarchy(&h, &shards), &test, &cfg).unwrap();
        assert_eq!(res.curve.len(), 1);
    }

    fn toy_state() -> crate::state::FlState {
        use hieradmo_topology::Weights;
        let h = Hierarchy::balanced(2, 2);
        let w = Weights::from_samples(&h, &[10, 20, 30, 40]);
        let mut s = crate::state::FlState::new(h, w, &Vector::from(vec![1.0, -1.0, 0.5]));
        for (i, ws) in s.workers.iter_mut().enumerate() {
            let v = i as f32 + 1.0;
            ws.x = Vector::from(vec![v, -v, v * 0.5]);
            ws.y = Vector::from(vec![v * 0.1, v, -v]);
            ws.grad_accum = Vector::from(vec![-v, v * 0.3, 0.2]);
            ws.y_accum = Vector::from(vec![v, -v * 0.2, 0.1]);
            ws.v_accum = Vector::from(vec![0.5, v, -0.25]);
            ws.steps = 3;
        }
        s
    }

    #[test]
    fn stale_hook_with_zero_staleness_matches_synchronous_hook() {
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let mut a = toy_state();
        let mut b = a.clone();
        algo.edge_aggregate(1, &mut a.edge_view(0));
        algo.edge_aggregate_stale(1, &mut b.edge_view(0), &[0, 0]);
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.edges[0], b.edges[0]);
        algo.cloud_aggregate(1, &mut a);
        algo.cloud_aggregate_stale(1, &mut b, &[0, 0]);
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.cloud, b.cloud);
    }

    #[test]
    fn stale_hook_down_weights_old_updates() {
        let algo = HierAdMo::reduced(0.05, 0.5, 0.0);
        let mut fresh = toy_state();
        let mut stale = fresh.clone();
        algo.edge_aggregate_stale(1, &mut fresh.edge_view(0), &[0, 0]);
        algo.edge_aggregate_stale(1, &mut stale.edge_view(0), &[0, 3]);
        // Worker 1 (the heavier shard) is stale: discounting it must pull
        // the aggregate toward worker 0's model.
        let toward_w0 = |s: &crate::state::FlState| {
            let d = &s.edges[0].y_plus - &Vector::from(vec![1.0, -1.0, 0.5]);
            d.norm()
        };
        assert!(
            toward_w0(&stale) < toward_w0(&fresh),
            "staleness discount should shift the edge model toward the fresh worker"
        );
    }

    #[test]
    fn stale_cosine_ignores_stale_workers() {
        let algo = HierAdMo::adaptive(0.05, 0.5);
        let mut s = toy_state();
        // Make worker 1's accumulators pathological; marking it stale must
        // keep the cosine equal to a lone-worker-0 edge.
        s.workers[1].grad_accum = Vector::from(vec![1e6, -1e6, 1e6]);
        s.workers[1].y_accum = Vector::from(vec![-1e6, 1e6, -1e6]);
        // Reference: with worker 1 stale, the renormalized cosine reduces
        // to worker 0's own (−Σ∇F, Σy) cosine at full weight.
        let w0 = &s.workers[0];
        let expected = (-&w0.grad_accum).cosine(&w0.y_accum);
        algo.edge_aggregate_stale(1, &mut s.edge_view(0), &[0, 2]);
        assert!(
            (s.edges[0].cos_theta - expected).abs() < 1e-6,
            "cos {} vs lone-fresh-worker {}",
            s.edges[0].cos_theta,
            expected
        );
    }

    #[test]
    #[should_panic(expected = "gamma must be in [0,1)")]
    fn rejects_gamma_one() {
        let _ = HierAdMo::adaptive(0.01, 1.0);
    }

    #[test]
    #[should_panic(expected = "gamma_edge must be in [0,1)")]
    fn rejects_bad_fixed_gamma() {
        let _ = HierAdMo::reduced(0.01, 0.5, 1.5);
    }
}
