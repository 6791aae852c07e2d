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
//! Each lane owns one model replica, one batch-index buffer and one
//! model-width gradient buffer: every gradient call sets the replica's
//! parameters first, so it carries no worker state, and the lane lends its
//! gradient buffer to each worker for exactly one local step
//! ([`WorkerState::scratch`]), so worker state carries no gradient. A
//! pool never runs more lanes than its widest batch can fill (see
//! [`Pool::new`]), however large `RunConfig::threads` is.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use hieradmo_data::{Batcher, Dataset};
use hieradmo_models::{EvalSums, Evaluation, Model};
use hieradmo_tensor::Vector;
use hieradmo_topology::Weights;

use crate::config::RunConfig;
use crate::state::{EdgeView, FlState, IntervalSums, TierState, WorkerState};
use crate::strategy::{Strategy, TierScope};

/// Everything a lane needs by reference: the strategy and the run-wide
/// immutable inputs. `Copy` so each job execution can capture it by value.
/// The training probe is not among them: a churn run rebuilds it per
/// topology epoch, so the pool owns it ([`Pool::set_train_probe`]).
pub struct ExecCtx<'a, S: ?Sized> {
    /// The algorithm under execution.
    pub strategy: &'a S,
    /// Run configuration (clipping, batch size, lane count, …).
    pub cfg: &'a RunConfig,
    /// Training datasets, addressed by [`Segment::data`].
    pub worker_data: &'a [Dataset],
    /// Held-out test set for evaluation.
    pub test_data: &'a Dataset,
}

impl<S: ?Sized> Clone for ExecCtx<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for ExecCtx<'_, S> {}

/// An edge's download pair for one round: the model `x_plus` and the
/// lookahead `y_minus` every cohort slot it fills that round starts from
/// ([`WorkerState::download`]), with the interval sums the strategy
/// declared. One shared copy per edge-round.
#[derive(Debug)]
pub struct Download {
    /// The edge's model.
    pub x: Vector,
    /// The edge's aggregated momentum.
    pub y: Vector,
    /// The sums each slot holds ([`FlState::interval_sums`]).
    pub sums: IntervalSums,
}

impl Download {
    /// Snapshots edge `edge`'s current download pair.
    pub fn of(state: &FlState, edge: usize) -> Arc<Self> {
        Arc::new(Download {
            x: state.edges[edge].x_plus.clone(),
            y: state.edges[edge].y_minus.clone(),
            sums: state.interval_sums(),
        })
    }
}

/// One worker's local-step segment: its state, the ticks it steps at, and
/// the mini-batch stream over its training dataset. A segment depends on
/// nothing else, so segments run on any lane in any order.
pub struct Segment {
    /// The ticks the worker steps at, in order.
    pub ticks: Vec<usize>,
    /// The worker's state, stepped in place.
    pub worker: WorkerState,
    /// When set, the lane first overwrites `worker` with this fresh
    /// download: a sampled slot materializes on the lane that steps it,
    /// not on the calling thread.
    pub download: Option<Arc<Download>>,
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
    pub state: TierState,
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
    /// round's data weights, over round-scoped slots or not.
    Edges {
        k: usize,
        weights: Arc<Weights>,
        round_scoped: bool,
        items: Vec<EdgeItem>,
    },
    /// Evaluation of `params` over the contained chunks of the test set
    /// and `probe`.
    Eval {
        params: Vector,
        probe: Arc<Dataset>,
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
    /// The gradient buffer lent to each worker for one local step.
    grad: Vector,
}

impl<M> Lane<M> {
    fn new(model: M) -> Self {
        Lane {
            model,
            batch: Vec::new(),
            grad: Vector::default(),
        }
    }
}

impl<M: Model> Lane<M> {
    /// Runs one job to completion. Shared by pool threads and the caller,
    /// so one lane exercises the identical code path with zero spawns.
    fn execute<S: Strategy + ?Sized>(&mut self, ctx: ExecCtx<'_, S>, job: Job) -> Reply {
        match job {
            Job::Steps(mut segments) => {
                for seg in &mut segments {
                    if let Some(d) = &seg.download {
                        seg.worker.download(&d.x, &d.y, d.sums);
                    }
                    for &t in &seg.ticks {
                        self.step(ctx, t, &mut seg.worker, seg.data, &mut seg.batcher);
                    }
                }
                Reply::Steps(segments)
            }
            Job::Edges {
                k,
                weights,
                round_scoped,
                mut items,
            } => {
                // Tick-loop edges fire synchronously: no child is stale.
                let widest = items.iter().map(|item| item.workers.len()).max();
                let in_sync = vec![0; widest.unwrap_or(0)];
                for item in &mut items {
                    let width = item.workers.len();
                    let mut view = EdgeView {
                        edge: item.edge,
                        offset: item.offset,
                        workers: &mut item.workers,
                        state: &mut item.state,
                        weights: &weights,
                        aggregator: ctx.cfg.aggregator,
                        round_scoped,
                    };
                    let scope = TierScope::Edge(&mut view);
                    ctx.strategy
                        .tier_aggregate_stale(scope, k, &in_sync[..width]);
                }
                Reply::Edges(items)
            }
            Job::Eval {
                params,
                probe,
                chunks,
            } => {
                self.model.set_params(&params);
                let sums = chunks.into_iter().map(|c| {
                    let data = match c.target {
                        EvalTarget::Test => ctx.test_data,
                        EvalTarget::Probe => &probe,
                    };
                    (c.target, self.model.evaluate_range(data, c.range))
                });
                Reply::Eval(sums.collect())
            }
        }
    }

    /// One local step at tick `t`: draw the next batch into the lane's
    /// buffer, lend the lane's gradient buffer to `worker.scratch`, and
    /// hand the strategy a gradient hook that runs on the lane's replica;
    /// then take the buffer back, leaving `worker.scratch` empty. No
    /// per-step heap allocation.
    fn step<S: Strategy + ?Sized>(
        &mut self,
        ctx: ExecCtx<'_, S>,
        t: usize,
        worker: &mut WorkerState,
        data: usize,
        batcher: &mut Batcher,
    ) {
        let Lane { model, batch, grad } = self;
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
        std::mem::swap(&mut worker.scratch, grad);
        ctx.strategy.local_step(t, worker, &mut grad_fn);
        *grad = std::mem::take(&mut worker.scratch);
    }
}

/// A long-lived pool of scoped threads, each holding its own lane (model
/// replica and batch buffer) and draining jobs from a private channel;
/// the calling thread is lane 0, with the pool's own lane.
pub struct Pool<'env, M, S: ?Sized> {
    ctx: ExecCtx<'env, S>,
    /// Capped training probe for evaluation.
    probe: Arc<Dataset>,
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
    /// workers or cohort slots) or one evaluation pass's chunks over the
    /// test set and `train_probe`. Each lane gets its own clone of
    /// `model`. Dropping the pool closes the job channels, which ends
    /// every lane's loop; the scope then joins them.
    pub fn new<'scope>(
        scope: &'scope Scope<'scope, 'env>,
        ctx: ExecCtx<'env, S>,
        model: &M,
        width: usize,
        train_probe: Dataset,
    ) -> Self {
        let chunks = eval_chunks(ctx.test_data.len(), train_probe.len()).len();
        let lanes = lane_count(ctx.cfg.resolved_threads(), width, chunks);
        let lane = || Lane::new(model.clone());
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
            probe: Arc::new(train_probe),
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

    /// Replaces the training probe every later evaluation reads: a churn
    /// run's loops rebuild it from each topology epoch's members.
    pub fn set_train_probe(&mut self, probe: Dataset) {
        self.probe = Arc::new(probe);
    }

    /// Evaluates `params` on the test set and the training probe, split
    /// into fixed [`EVAL_CHUNK`]-sample chunks fanned out across the lanes.
    /// Partial sums are merged in chunk order, so the result is identical
    /// for every lane count — including one, which uses the same chunking.
    pub fn evaluate(&mut self, params: &Vector) -> (Evaluation, Evaluation) {
        let chunks = eval_chunks(self.ctx.test_data.len(), self.probe.len());
        let jobs = chunk(chunks, self.lanes())
            .into_iter()
            .map(|chunks| Job::Eval {
                params: params.clone(),
                probe: Arc::clone(&self.probe),
                chunks,
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
    /// round's data `weights`, over round-scoped slots or not
    /// ([`crate::FlState::with_round_scoped_slots`]); returns them in input
    /// order.
    pub(crate) fn aggregate_edges(
        &mut self,
        k: usize,
        weights: &Arc<Weights>,
        round_scoped: bool,
        items: Vec<EdgeItem>,
    ) -> Vec<EdgeItem> {
        let jobs = chunk(items, self.lanes())
            .into_iter()
            .map(|items| Job::Edges {
                k,
                weights: Arc::clone(weights),
                round_scoped,
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
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use hieradmo_data::synthetic::SyntheticDataset;
    use hieradmo_models::zoo;

    use super::*;
    use crate::algorithms::HierAdMo;

    /// Counts this thread's heap allocations, so the other tests of the
    /// binary, on their own threads, do not disturb a count.
    struct Counting;

    thread_local! {
        static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    fn count() {
        // `try_with`: the allocator also runs while thread-locals are
        // torn down.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }

    // SAFETY: every method forwards to `System` unchanged; the counter is
    // a const-initialized thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Heap allocations `f` makes on this thread.
    fn allocations_in(f: impl FnOnce()) -> usize {
        let before = ALLOCATIONS.with(Cell::get);
        f();
        ALLOCATIONS.with(Cell::get) - before
    }

    #[test]
    fn warm_lane_steps_allocate_nothing_and_leave_scratch_empty() {
        let tt = SyntheticDataset::mnist_like(6, 3, 11);
        let model = zoo::logistic_regression(&tt.train, 7);
        let strategy = HierAdMo::adaptive(0.05, 0.5);
        let cfg = RunConfig {
            clip_norm: Some(0.5),
            ..RunConfig::default()
        };
        let data = [tt.train];
        let ctx = ExecCtx {
            strategy: &strategy,
            cfg: &cfg,
            worker_data: &data,
            test_data: &tt.test,
        };
        let mut lane = Lane::new(model.clone());
        // The sums `HierAdMo::adaptive` declares.
        let sums = IntervalSums {
            grad: true,
            y: true,
            v: false,
        };
        let mut worker = WorkerState::new(&model.params(), sums);
        assert!(worker.scratch.is_empty());
        let mut batcher = Batcher::new(data[0].len(), 8, 3);
        lane.step(ctx, 1, &mut worker, 0, &mut batcher);
        assert_eq!(lane.grad.len(), model.dim(), "the lane keeps the buffer");
        // Enough steps to cross several epochs of the batcher.
        for t in 2..40 {
            let n = allocations_in(|| lane.step(ctx, t, &mut worker, 0, &mut batcher));
            assert_eq!(n, 0, "step {t} allocated");
            assert!(worker.scratch.is_empty(), "step {t} left a scratch");
        }
        assert_eq!(worker.steps, 39);
    }

    #[test]
    fn lanes_are_capped_by_the_widest_batch() {
        assert_eq!(lane_count(64, 4, 2), 4, "four workers fill four lanes");
        assert_eq!(lane_count(64, 4, 9), 9, "nine eval chunks fill nine");
        assert_eq!(lane_count(2, 512, 3), 2, "the thread count binds");
        assert_eq!(lane_count(1, 0, 0), 1, "always one lane");
    }
}
