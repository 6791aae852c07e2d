//! The persistent parallel execution engine.
//!
//! [`Pool`] is a scoped worker pool created once per span of the tick
//! loop and kept alive for the whole span. The driver checks state *out* of
//! [`crate::state::FlState`] into self-contained job items, ships
//! contiguous fixed-order chunks to the pool over channels, runs the first
//! chunk on the calling thread, and reassembles results by identity
//! (worker index, edge index, eval chunk index) — never by arrival order.
//! Together with per-worker RNG streams and fixed-size evaluation chunks
//! this makes every run bitwise identical for any thread count.
//!
//! Each lane owns one model replica for gradients and evaluation: every
//! gradient call sets its parameters first, so it carries no worker state.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use hieradmo_data::{Batcher, Dataset};
use hieradmo_models::{EvalSums, Evaluation, Model};
use hieradmo_tensor::Vector;
use hieradmo_topology::Weights;

use crate::config::RunConfig;
use crate::state::{EdgeState, EdgeView, WorkerState};
use crate::strategy::Strategy;

/// Everything a pool thread needs by reference: the strategy and the
/// run-wide immutable inputs. `Copy` so each job execution can capture it
/// by value.
pub(crate) struct ExecCtx<'a, S: ?Sized> {
    /// The algorithm under execution.
    pub strategy: &'a S,
    /// Run configuration (clipping, batch size, …).
    pub cfg: &'a RunConfig,
    /// Training datasets, addressed by [`StepCtx::data`].
    pub worker_data: &'a [Dataset],
    /// Held-out test set for evaluation jobs.
    pub test_data: &'a Dataset,
    /// Capped training probe for evaluation jobs.
    pub train_probe: &'a Dataset,
}

impl<S: ?Sized> Clone for ExecCtx<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for ExecCtx<'_, S> {}

/// A worker's checked-out step state: the dataset it trains on, its
/// private batcher stream, and a reusable batch-index buffer.
pub(crate) struct StepCtx {
    /// Index into [`ExecCtx::worker_data`].
    pub data: usize,
    pub batcher: Batcher,
    pub batch: Vec<usize>,
}

/// One worker's local-step work item: the ticks it steps at, in order.
pub(crate) struct StepItem {
    /// Flat worker index (identity for reassembly).
    pub idx: usize,
    pub ticks: Vec<usize>,
    pub worker: WorkerState,
    pub ctx: StepCtx,
}

/// One edge's aggregation work item: its workers and edge state, checked
/// out of `FlState`.
pub(crate) struct EdgeItem {
    /// Edge index (identity for reassembly).
    pub edge: usize,
    /// Flat index of the edge's first worker.
    pub offset: usize,
    pub workers: Vec<WorkerState>,
    pub state: EdgeState,
}

/// Which dataset an evaluation chunk reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EvalTarget {
    Test,
    Probe,
}

/// A fixed-size slice of an evaluation pass. Chunk boundaries depend only
/// on the dataset length (see [`EVAL_CHUNK`]), never on the thread count,
/// so the f64 partial-sum reduction order is invariant.
pub(crate) struct EvalChunk {
    pub target: EvalTarget,
    /// Chunk ordinal within `target` (identity for ordered reduction).
    pub idx: usize,
    pub range: Range<usize>,
}

/// Samples per evaluation chunk, fixed for all thread counts.
pub const EVAL_CHUNK: usize = 256;

/// Work shipped to a pool thread (or run inline on the caller).
pub(crate) enum Job {
    /// Local steps of the contained workers, each at its own ticks.
    Steps(Vec<StepItem>),
    /// Edge aggregations `k` for the contained edges, under the current
    /// round's data weights.
    Edges {
        k: usize,
        weights: Arc<Weights>,
        items: Vec<EdgeItem>,
    },
    /// Evaluation of `params` over the contained chunks.
    Eval {
        params: Vector,
        chunks: Vec<EvalChunk>,
    },
}

/// The completed counterpart of a [`Job`], carrying state back.
pub(crate) enum Reply {
    Steps(Vec<StepItem>),
    Edges(Vec<EdgeItem>),
    Eval(Vec<(EvalTarget, usize, EvalSums)>),
}

/// Splits `items` into at most `parts` contiguous chunks (first chunks get
/// the extra items). Order within and across chunks follows the input.
pub(crate) fn chunk<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    if items.is_empty() {
        return Vec::new();
    }
    let parts = parts.clamp(1, items.len());
    let per = items.len().div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(per).collect();
        if c.is_empty() {
            break;
        }
        out.push(c);
    }
    out
}

/// Runs one job to completion on the lane's model replica. Shared by pool
/// threads and the caller (so `threads = 1` exercises the identical code
/// path with zero spawns).
pub(crate) fn execute<M, S>(ctx: ExecCtx<'_, S>, model: &mut M, job: Job) -> Reply
where
    M: Model,
    S: Strategy + ?Sized,
{
    match job {
        Job::Steps(mut items) => {
            for item in &mut items {
                run_steps(ctx, model, item);
            }
            Reply::Steps(items)
        }
        Job::Edges {
            k,
            weights,
            mut items,
        } => {
            for item in &mut items {
                let mut view = EdgeView {
                    edge: item.edge,
                    offset: item.offset,
                    workers: &mut item.workers,
                    state: &mut item.state,
                    weights: &weights,
                    aggregator: ctx.cfg.aggregator,
                };
                ctx.strategy.edge_aggregate(k, &mut view);
            }
            Reply::Edges(items)
        }
        Job::Eval { params, chunks } => Reply::Eval(evaluate_chunks(
            model,
            &params,
            chunks,
            ctx.test_data,
            ctx.train_probe,
        )),
    }
}

/// The evaluation chunks of a `test_len`-sample test set and a
/// `probe_len`-sample probe, in `(target, chunk index)` order.
pub(crate) fn eval_chunks(test_len: usize, probe_len: usize) -> Vec<EvalChunk> {
    let mut chunks = Vec::new();
    for (target, len) in [(EvalTarget::Test, test_len), (EvalTarget::Probe, probe_len)] {
        for (idx, start) in (0..len).step_by(EVAL_CHUNK).enumerate() {
            chunks.push(EvalChunk {
                target,
                idx,
                range: start..(start + EVAL_CHUNK).min(len),
            });
        }
    }
    chunks
}

/// Evaluates `params` over `chunks` on one model replica.
pub(crate) fn evaluate_chunks<M: Model>(
    model: &mut M,
    params: &Vector,
    chunks: Vec<EvalChunk>,
    test: &Dataset,
    probe: &Dataset,
) -> Vec<(EvalTarget, usize, EvalSums)> {
    model.set_params(params);
    chunks
        .into_iter()
        .map(|c| {
            let data = match c.target {
                EvalTarget::Test => test,
                EvalTarget::Probe => probe,
            };
            (c.target, c.idx, model.evaluate_range(data, c.range))
        })
        .collect()
}

/// Merges partial sums in `(target, chunk index)` order, whatever lane
/// produced them, so the result is identical for every lane count.
pub(crate) fn reduce_eval(
    mut partials: Vec<(EvalTarget, usize, EvalSums)>,
) -> (Evaluation, Evaluation) {
    partials.sort_unstable_by_key(|&(target, idx, _)| (target, idx));
    let mut test = EvalSums::default();
    let mut probe = EvalSums::default();
    for (target, _, sums) in partials {
        match target {
            EvalTarget::Test => test.merge(&sums),
            EvalTarget::Probe => probe.merge(&sums),
        }
    }
    (test.finish(), probe.finish())
}

/// One worker's local steps, one per tick in `item.ticks`: draw the next
/// batch into the reusable buffer, then hand the strategy a gradient hook
/// that runs on the lane's model replica and the worker's scratch vector —
/// no per-step heap allocation.
fn run_steps<M, S>(ctx: ExecCtx<'_, S>, model: &mut M, item: &mut StepItem)
where
    M: Model,
    S: Strategy + ?Sized,
{
    let StepCtx {
        data,
        batcher,
        batch,
    } = &mut item.ctx;
    let data = &ctx.worker_data[*data];
    let clip = ctx.cfg.clip_norm;
    for &t in &item.ticks {
        batcher.next_batch_into(batch);
        let mut grad_fn = |p: &Vector, out: &mut Vector| {
            model.set_params(p);
            model.loss_and_grad_into(data, batch, out);
            if let Some(max_norm) = clip {
                let norm = out.norm();
                if norm > max_norm {
                    out.scale_in_place(max_norm / norm);
                }
            }
        };
        ctx.strategy.local_step(t, &mut item.worker, &mut grad_fn);
    }
}

/// A long-lived pool of scoped threads, each holding its own model replica
/// and draining jobs from a private channel; the calling thread is lane 0,
/// with the pool's own replica.
pub(crate) struct Pool<'env, M, S: ?Sized> {
    pub(crate) ctx: ExecCtx<'env, S>,
    model: M,
    senders: Vec<Sender<Job>>,
    reply_rx: Receiver<Reply>,
}

impl<'env, M, S> Pool<'env, M, S>
where
    M: Model + Clone + Send + 'env,
    S: Strategy + ?Sized,
{
    /// Spawns `spawned` worker threads on `scope` (the caller participates
    /// as lane 0, so the engine runs `spawned + 1` lanes). Dropping the
    /// pool closes the job channels, which ends every worker loop; the
    /// scope then joins them.
    pub(crate) fn new<'scope>(
        scope: &'scope Scope<'scope, 'env>,
        spawned: usize,
        ctx: ExecCtx<'env, S>,
        model: &M,
    ) -> Self {
        let (reply_tx, reply_rx) = channel();
        let mut senders = Vec::with_capacity(spawned);
        for _ in 0..spawned {
            let (tx, rx) = channel::<Job>();
            let reply_tx = reply_tx.clone();
            let mut model = model.clone();
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    if reply_tx.send(execute(ctx, &mut model, job)).is_err() {
                        break;
                    }
                }
            });
            senders.push(tx);
        }
        Pool {
            ctx,
            model: model.clone(),
            senders,
            reply_rx,
        }
    }
}

impl<M: Model, S: Strategy + ?Sized> Pool<'_, M, S> {
    /// Number of lanes, the caller's included.
    pub(crate) fn lanes(&self) -> usize {
        self.senders.len() + 1
    }

    /// Executes a batch of jobs: jobs `1..` go to pool threads, job `0`
    /// runs on the calling thread (overlapping with the pool), then all
    /// replies are collected. `jobs.len()` must not exceed the lane count.
    pub(crate) fn exec(&mut self, mut jobs: Vec<Job>) -> Vec<Reply> {
        assert!(jobs.len() <= self.lanes(), "more jobs than pool lanes");
        let mut replies = Vec::with_capacity(jobs.len());
        if jobs.is_empty() {
            return replies;
        }
        let main_job = jobs.remove(0);
        let sent = jobs.len();
        for (job, tx) in jobs.into_iter().zip(&self.senders) {
            tx.send(job).expect("pool thread terminated early");
        }
        replies.push(execute(self.ctx, &mut self.model, main_job));
        for _ in 0..sent {
            replies.push(self.reply_rx.recv().expect("pool thread terminated early"));
        }
        replies
    }
}
