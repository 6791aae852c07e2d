//! The persistent parallel execution engine, shared by both training
//! loops.
//!
//! [`Pool`] is a scoped worker pool created once per span of a loop — the
//! tick loop here, the event engine in `hieradmo-simrt` — and kept alive
//! for the whole span. Callers check state *out* into self-contained work
//! items ([`Segment`]s of local steps, evaluation chunks, and, for the tick
//! loop, edge aggregations), the pool ships contiguous fixed-order chunks
//! of them to its lanes, runs the first chunk on the calling thread, and
//! hands the results back in input order — never in arrival order.
//! Together with per-worker RNG streams and fixed-size evaluation chunks
//! this makes every run bitwise identical for any thread count.
//!
//! Each lane owns one model replica and one batch-index buffer: every
//! gradient call sets the replica's parameters first, so it carries no
//! worker state. A pool never runs more lanes than its widest batch can
//! fill (see [`Pool::new`]), however large `RunConfig::threads` is.

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

/// Everything a lane needs by reference: the strategy and the run-wide
/// immutable inputs. `Copy` so each job execution can capture it by value.
pub struct ExecCtx<'a, S: ?Sized> {
    /// The algorithm under execution.
    pub strategy: &'a S,
    /// Run configuration (clipping, batch size, lane count, …).
    pub cfg: &'a RunConfig,
    /// Training datasets, addressed by [`Segment::data`].
    pub worker_data: &'a [Dataset],
    /// Held-out test set for evaluation.
    pub test_data: &'a Dataset,
    /// Capped training probe for evaluation.
    pub train_probe: &'a Dataset,
}

impl<S: ?Sized> Clone for ExecCtx<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for ExecCtx<'_, S> {}

/// One worker's local-step segment: its state, the ticks it steps at, and
/// the mini-batch stream over its training dataset. A segment depends on
/// nothing else, so segments run on any lane in any order.
pub struct Segment {
    /// The ticks the worker steps at, in order.
    pub ticks: Vec<usize>,
    /// The worker's state, stepped in place.
    pub worker: WorkerState,
    /// Index into [`ExecCtx::worker_data`].
    pub data: usize,
    /// The worker's mini-batch stream, advanced once per tick.
    pub batcher: Batcher,
}

/// One edge's aggregation work item: its workers and edge state, checked
/// out of `FlState`.
pub(crate) struct EdgeItem {
    /// Edge index.
    pub edge: usize,
    /// Flat index of the edge's first worker.
    pub offset: usize,
    pub workers: Vec<WorkerState>,
    pub state: EdgeState,
}

/// Which dataset an evaluation chunk reads.
#[derive(Clone, Copy)]
enum EvalTarget {
    Test,
    Probe,
}

/// A fixed-size slice of an evaluation pass. Chunk boundaries depend only
/// on the dataset length (see [`EVAL_CHUNK`]), never on the thread count,
/// so the f64 partial-sum reduction order is invariant.
struct EvalChunk {
    target: EvalTarget,
    range: Range<usize>,
}

/// Samples per evaluation chunk, fixed for all thread counts.
pub const EVAL_CHUNK: usize = 256;

/// Work shipped to a lane.
enum Job {
    /// Local-step segments, each at its own ticks.
    Steps(Vec<Segment>),
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
enum Reply {
    Steps(Vec<Segment>),
    Edges(Vec<EdgeItem>),
    Eval(Vec<(EvalTarget, EvalSums)>),
}

/// Splits `items` into at most `parts` contiguous chunks (first chunks get
/// the extra items). Order within and across chunks follows the input.
fn chunk<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
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

/// The evaluation chunks of a `test_len`-sample test set and a
/// `probe_len`-sample probe, test chunks first, each in sample order.
fn eval_chunks(test_len: usize, probe_len: usize) -> Vec<EvalChunk> {
    let mut chunks = Vec::new();
    for (target, len) in [(EvalTarget::Test, test_len), (EvalTarget::Probe, probe_len)] {
        for start in (0..len).step_by(EVAL_CHUNK) {
            chunks.push(EvalChunk {
                target,
                range: start..(start + EVAL_CHUNK).min(len),
            });
        }
    }
    chunks
}

/// The lanes a pool runs: the requested `threads`, but never more than
/// its widest batch — `width` step or edge items, or the evaluation
/// chunks — can fill, and always at least one.
fn lane_count(threads: usize, width: usize, eval_chunks: usize) -> usize {
    threads.min(width.max(eval_chunks)).max(1)
}

/// One lane's private working set.
struct Lane<M> {
    model: M,
    batch: Vec<usize>,
}

impl<M: Model> Lane<M> {
    /// Runs one job to completion. Shared by pool threads and the caller,
    /// so one lane exercises the identical code path with zero spawns.
    fn execute<S: Strategy + ?Sized>(&mut self, ctx: ExecCtx<'_, S>, job: Job) -> Reply {
        match job {
            Job::Steps(mut segments) => {
                for seg in &mut segments {
                    for &t in &seg.ticks {
                        self.step(ctx, t, &mut seg.worker, seg.data, &mut seg.batcher);
                    }
                }
                Reply::Steps(segments)
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
            Job::Eval { params, chunks } => {
                self.model.set_params(&params);
                let sums = chunks.into_iter().map(|c| {
                    let data = match c.target {
                        EvalTarget::Test => ctx.test_data,
                        EvalTarget::Probe => ctx.train_probe,
                    };
                    (c.target, self.model.evaluate_range(data, c.range))
                });
                Reply::Eval(sums.collect())
            }
        }
    }

    /// One local step at tick `t`: draw the next batch into the lane's
    /// buffer, then hand the strategy a gradient hook that runs on the
    /// lane's replica and the worker's scratch vector — no per-step heap
    /// allocation.
    fn step<S: Strategy + ?Sized>(
        &mut self,
        ctx: ExecCtx<'_, S>,
        t: usize,
        worker: &mut WorkerState,
        data: usize,
        batcher: &mut Batcher,
    ) {
        let Lane { model, batch } = self;
        let data = &ctx.worker_data[data];
        let clip = ctx.cfg.clip_norm;
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
        ctx.strategy.local_step(t, worker, &mut grad_fn);
    }
}

/// A long-lived pool of scoped threads, each holding its own lane (model
/// replica and batch buffer) and draining jobs from a private channel;
/// the calling thread is lane 0, with the pool's own lane.
pub struct Pool<'env, M, S: ?Sized> {
    ctx: ExecCtx<'env, S>,
    lane: Lane<M>,
    /// One `(job sender, reply receiver)` pair per spawned lane.
    spawned: Vec<(Sender<Job>, Receiver<Reply>)>,
}

impl<'env, M, S> Pool<'env, M, S>
where
    M: Model + Clone + Send + 'env,
    S: Strategy + ?Sized,
{
    /// Spawns the pool's lanes on `scope`; the caller is lane 0. It runs
    /// `ctx.cfg.resolved_threads()` lanes, capped by the widest batch the
    /// run can issue: `width` step segments or edge items (the run's
    /// workers or cohort slots) or one evaluation pass's chunks. Each lane
    /// gets its own clone of `model`. Dropping the pool closes the job
    /// channels, which ends every lane's loop; the scope then joins them.
    pub fn new<'scope>(
        scope: &'scope Scope<'scope, 'env>,
        ctx: ExecCtx<'env, S>,
        model: &M,
        width: usize,
    ) -> Self {
        let chunks = eval_chunks(ctx.test_data.len(), ctx.train_probe.len()).len();
        let lanes = lane_count(ctx.cfg.resolved_threads(), width, chunks);
        let lane = || Lane {
            model: model.clone(),
            batch: Vec::new(),
        };
        let spawned = (1..lanes)
            .map(|_| {
                let (job_tx, job_rx) = channel::<Job>();
                let (reply_tx, reply_rx) = channel();
                let mut lane = lane();
                scope.spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        if reply_tx.send(lane.execute(ctx, job)).is_err() {
                            break;
                        }
                    }
                });
                (job_tx, reply_rx)
            })
            .collect();
        Pool {
            ctx,
            lane: lane(),
            spawned,
        }
    }
}

impl<'env, M: Model, S: Strategy + ?Sized> Pool<'env, M, S> {
    /// Number of lanes, the caller's included.
    pub fn lanes(&self) -> usize {
        self.spawned.len() + 1
    }

    /// The run-wide inputs every lane reads.
    pub fn ctx(&self) -> ExecCtx<'env, S> {
        self.ctx
    }

    /// Runs independent local-step segments across the lanes, in
    /// contiguous input-order chunks, and returns them in input order.
    pub fn run_segments(&mut self, segments: Vec<Segment>) -> Vec<Segment> {
        let jobs = chunk(segments, self.lanes()).into_iter().map(Job::Steps);
        let replies = self.exec(jobs.collect()).into_iter();
        replies
            .flat_map(|reply| {
                let Reply::Steps(segments) = reply else {
                    unreachable!("step job must yield a step reply")
                };
                segments
            })
            .collect()
    }

    /// One local step at tick `t` of `worker` on lane 0's replica, inline
    /// on the calling thread.
    pub fn step(&mut self, t: usize, worker: &mut WorkerState, data: usize, batcher: &mut Batcher) {
        self.lane.step(self.ctx, t, worker, data, batcher);
    }

    /// Evaluates `params` on the test set and the training probe, split
    /// into fixed [`EVAL_CHUNK`]-sample chunks fanned out across the lanes.
    /// Partial sums are merged in chunk order, so the result is identical
    /// for every lane count — including one, which uses the same chunking.
    pub fn evaluate(&mut self, params: &Vector) -> (Evaluation, Evaluation) {
        let chunks = eval_chunks(self.ctx.test_data.len(), self.ctx.train_probe.len());
        let jobs = chunk(chunks, self.lanes()).into_iter().map(|chunks| {
            let params = params.clone();
            Job::Eval { params, chunks }
        });
        let mut test = EvalSums::default();
        let mut probe = EvalSums::default();
        for reply in self.exec(jobs.collect()) {
            let Reply::Eval(sums) = reply else {
                unreachable!("eval job must yield an eval reply")
            };
            for (target, sums) in sums {
                match target {
                    EvalTarget::Test => test.merge(&sums),
                    EvalTarget::Probe => probe.merge(&sums),
                }
            }
        }
        (test.finish(), probe.finish())
    }

    /// Runs aggregation `k` on the edge `items` across the lanes under the
    /// round's data `weights`; returns them in input order.
    pub(crate) fn aggregate_edges(
        &mut self,
        k: usize,
        weights: &Arc<Weights>,
        items: Vec<EdgeItem>,
    ) -> Vec<EdgeItem> {
        let jobs = chunk(items, self.lanes())
            .into_iter()
            .map(|items| Job::Edges {
                k,
                weights: Arc::clone(weights),
                items,
            });
        let replies = self.exec(jobs.collect()).into_iter();
        replies
            .flat_map(|reply| {
                let Reply::Edges(items) = reply else {
                    unreachable!("edge job must yield an edge reply")
                };
                items
            })
            .collect()
    }

    /// Executes a batch of jobs: jobs `1..` go to the spawned lanes, job
    /// `0` runs on the calling thread (overlapping with them), and the
    /// replies come back in job order. `jobs.len()` must not exceed the
    /// lane count.
    fn exec(&mut self, mut jobs: Vec<Job>) -> Vec<Reply> {
        assert!(jobs.len() <= self.lanes(), "more jobs than pool lanes");
        if jobs.is_empty() {
            return Vec::new();
        }
        let rest = jobs.split_off(1);
        let sent = rest.len();
        for (job, (tx, _)) in rest.into_iter().zip(&self.spawned) {
            tx.send(job).expect("pool thread terminated early");
        }
        let main = jobs.pop().expect("one job left");
        let mut replies = Vec::with_capacity(sent + 1);
        replies.push(self.lane.execute(self.ctx, main));
        for (_, rx) in &self.spawned[..sent] {
            replies.push(rx.recv().expect("pool thread terminated early"));
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_capped_by_the_widest_batch() {
        assert_eq!(lane_count(64, 4, 2), 4, "four workers fill four lanes");
        assert_eq!(lane_count(64, 4, 9), 9, "nine eval chunks fill nine");
        assert_eq!(lane_count(2, 512, 3), 2, "the thread count binds");
        assert_eq!(lane_count(1, 0, 0), 1, "always one lane");
    }
}
