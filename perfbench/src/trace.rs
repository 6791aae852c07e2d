//! Outside-in layer tracing: [`TracedModel`] and [`TracedStrategy`] wrap
//! the `Model` and `Strategy` traits, delegate every method to the inner
//! value (so `Sequential` and `HierAdMo` overrides still run), and record
//! one span per timed call into a process-wide log that is read once the
//! engine call returns.

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hieradmo_core::state::{EdgeView, FlState, WorkerState};
use hieradmo_core::strategy::{Strategy, Tier, TierScope};
use hieradmo_data::Dataset;
use hieradmo_models::{EvalSums, Evaluation, Model};
use hieradmo_tensor::Vector;
use hieradmo_topology::Hierarchy;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Model::loss_and_grad*` / `Model::loss`.
    Grad,
    /// `Model::evaluate*`.
    Eval,
    /// `Strategy::local_step`; its `child_ns` is the `Grad` time inside it.
    LocalStep,
    /// Edge-scope aggregation hooks.
    EdgeAgg,
    /// Middle-scope `tier_aggregate*` hooks.
    MiddleAgg,
    /// Root-scope aggregation hooks.
    RootAgg,
    /// `Strategy::global_params`.
    GlobalParams,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Nanoseconds since the process-wide trace epoch.
    pub start: u64,
    pub end: u64,
    /// `Grad` time spent inside this call on the same thread.
    pub child_ns: u64,
    /// Whether the call ran inside a `LocalStep` span on the same thread.
    pub nested: bool,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static IN_STEP: Cell<bool> = const { Cell::new(false) };
    static STEP_GRAD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process-wide trace epoch: the clock of every
/// span and of the engine call around them.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("trace clock fits in u64")
}

/// Empties the span log before a traced engine call.
pub fn reset() {
    SPANS.lock().expect("span log poisoned").clear();
}

/// Moves the span log out after a traced engine call.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

fn record(kind: Kind, start: u64, child_ns: u64) {
    let end = now_ns();
    let nested = IN_STEP.with(Cell::get);
    if kind == Kind::Grad && nested {
        STEP_GRAD_NS.with(|g| g.set(g.get() + (end - start)));
    }
    SPANS.lock().expect("span log poisoned").push(Span {
        kind,
        start,
        end,
        child_ns,
        nested,
    });
}

fn timed<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    let start = now_ns();
    let out = f();
    record(kind, start, 0);
    out
}

/// A `Model` that records a span around every gradient and evaluation
/// call. Clones share the process-wide span log.
#[derive(Debug, Clone)]
pub struct TracedModel<M>(pub M);

impl<M: Model> Model for TracedModel<M> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn params(&self) -> Vector {
        self.0.params()
    }
    fn set_params(&mut self, params: &Vector) {
        self.0.set_params(params);
    }
    fn loss_and_grad(&self, data: &Dataset, indices: &[usize]) -> (f32, Vector) {
        timed(Kind::Grad, || self.0.loss_and_grad(data, indices))
    }
    fn loss_and_grad_into(&self, data: &Dataset, indices: &[usize], grad: &mut Vector) -> f32 {
        timed(Kind::Grad, || {
            self.0.loss_and_grad_into(data, indices, grad)
        })
    }
    fn output(&self, features: &Vector) -> Vector {
        self.0.output(features)
    }
    fn loss(&self, data: &Dataset, indices: &[usize]) -> f32 {
        timed(Kind::Grad, || self.0.loss(data, indices))
    }
    fn evaluate(&self, data: &Dataset) -> Evaluation {
        timed(Kind::Eval, || self.0.evaluate(data))
    }
    fn evaluate_range(&self, data: &Dataset, range: Range<usize>) -> EvalSums {
        timed(Kind::Eval, || self.0.evaluate_range(data, range))
    }
}

/// A `Strategy` that records a span around every local step, aggregation
/// hook and global-parameter read.
#[derive(Debug)]
pub struct TracedStrategy<S>(pub S);

fn scope_kind(scope: &TierScope<'_, '_>) -> Kind {
    match scope {
        TierScope::Edge(_) => Kind::EdgeAgg,
        TierScope::Middle { .. } => Kind::MiddleAgg,
        TierScope::Root(_) => Kind::RootAgg,
    }
}

impl<S: Strategy> Strategy for TracedStrategy<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn tier(&self) -> Tier {
        self.0.tier()
    }
    fn init(&self, state: &mut FlState) {
        self.0.init(state);
    }
    fn local_step(
        &self,
        t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        let start = now_ns();
        let grad_before = STEP_GRAD_NS.with(Cell::get);
        let outer = IN_STEP.with(|s| s.replace(true));
        self.0.local_step(t, worker, grad);
        IN_STEP.with(|s| s.set(outer));
        let child = STEP_GRAD_NS.with(Cell::get) - grad_before;
        record(Kind::LocalStep, start, child);
    }
    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>) {
        timed(Kind::EdgeAgg, || self.0.edge_aggregate(k, view));
    }
    fn cloud_aggregate(&self, p: usize, state: &mut FlState) {
        timed(Kind::RootAgg, || self.0.cloud_aggregate(p, state));
    }
    fn edge_aggregate_stale(&self, k: usize, view: &mut EdgeView<'_>, staleness: &[usize]) {
        timed(Kind::EdgeAgg, || {
            self.0.edge_aggregate_stale(k, view, staleness)
        });
    }
    fn cloud_aggregate_stale(&self, p: usize, state: &mut FlState, staleness: &[usize]) {
        timed(Kind::RootAgg, || {
            self.0.cloud_aggregate_stale(p, state, staleness)
        });
    }
    fn tier_aggregate(&self, scope: TierScope<'_, '_>, round: usize) {
        timed(scope_kind(&scope), || self.0.tier_aggregate(scope, round));
    }
    fn tier_aggregate_stale(&self, scope: TierScope<'_, '_>, round: usize, staleness: &[usize]) {
        timed(scope_kind(&scope), || {
            self.0.tier_aggregate_stale(scope, round, staleness)
        });
    }
    fn global_params(&self, state: &FlState) -> Vector {
        timed(Kind::GlobalParams, || self.0.global_params(state))
    }
    fn check_topology(&self, hierarchy: &Hierarchy) -> Result<(), String> {
        self.0.check_topology(hierarchy)
    }
}

/// Per-layer totals of one traced engine call.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub grad_calls: u64,
    pub grad_ns: u64,
    pub eval_calls: u64,
    pub eval_ns: u64,
    pub step_calls: u64,
    pub step_self_ns: u64,
    pub edge_calls: u64,
    pub edge_ns: u64,
    pub middle_calls: u64,
    pub middle_ns: u64,
    pub root_calls: u64,
    pub root_ns: u64,
    pub gp_calls: u64,
    pub gp_ns: u64,
    /// Sum of the top-level hook spans over all threads.
    pub busy_ns: u64,
    /// Wall time covered by at least one top-level hook span.
    pub covered_ns: u64,
}

impl LayerTotals {
    /// Folds a span log. Top-level spans are every span except gradient
    /// calls made inside a local step (those are the step's child time).
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut t = LayerTotals::default();
        let mut top: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for s in spans {
            let dur = s.end - s.start;
            match s.kind {
                Kind::Grad => {
                    t.grad_calls += 1;
                    t.grad_ns += dur;
                }
                Kind::Eval => {
                    t.eval_calls += 1;
                    t.eval_ns += dur;
                }
                Kind::LocalStep => {
                    t.step_calls += 1;
                    t.step_self_ns += dur - s.child_ns;
                }
                Kind::EdgeAgg => {
                    t.edge_calls += 1;
                    t.edge_ns += dur;
                }
                Kind::MiddleAgg => {
                    t.middle_calls += 1;
                    t.middle_ns += dur;
                }
                Kind::RootAgg => {
                    t.root_calls += 1;
                    t.root_ns += dur;
                }
                Kind::GlobalParams => {
                    t.gp_calls += 1;
                    t.gp_ns += dur;
                }
            }
            if !(s.kind == Kind::Grad && s.nested) {
                t.busy_ns += dur;
                top.push((s.start, s.end));
            }
        }
        top.sort_unstable();
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in top {
            cur = match cur {
                Some((s, e)) if a <= e => Some((s, e.max(b))),
                Some((s, e)) => {
                    t.covered_ns += e - s;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((s, e)) = cur {
            t.covered_ns += e - s;
        }
        t
    }

    /// The layer self times, which with the engine residual and minus
    /// the parallel overlap make up the traced engine call.
    pub fn self_parts_ns(&self) -> u64 {
        self.grad_ns
            + self.eval_ns
            + self.step_self_ns
            + self.edge_ns
            + self.middle_ns
            + self.root_ns
            + self.gp_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, nested: bool) -> Span {
        Span {
            kind,
            start,
            end,
            child_ns: 0,
            nested,
        }
    }

    #[test]
    fn covered_time_is_the_union_of_top_level_spans() {
        let spans = [
            span(Kind::EdgeAgg, 0, 10, false),
            span(Kind::Eval, 5, 20, false),
            span(Kind::Grad, 6, 8, true),
            span(Kind::RootAgg, 30, 40, false),
        ];
        let t = LayerTotals::from_spans(&spans);
        assert_eq!(t.covered_ns, 30);
        assert_eq!(t.busy_ns, 35);
        assert_eq!(t.grad_calls, 1);
    }

    #[test]
    fn local_step_self_time_excludes_its_gradients() {
        let mut step = span(Kind::LocalStep, 0, 100, false);
        step.child_ns = 70;
        let spans = [span(Kind::Grad, 10, 80, true), step];
        let t = LayerTotals::from_spans(&spans);
        assert_eq!(t.step_self_ns, 30);
        assert_eq!(t.grad_ns, 70);
        assert_eq!(t.self_parts_ns(), t.busy_ns);
    }
}
