//! Worker local-step cost: one NAG iteration (Algorithm 1 lines 5–6),
//! including the mini-batch gradient, per model family — plus a
//! thread-count sweep over a full tick loop so the persistent pool's win
//! over serial stepping shows up in the bench trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use hieradmo_bench::harness::run_partitioned;
use hieradmo_bench::{Scale, Workload};
use hieradmo_core::algorithms::HierAdMo;
use hieradmo_core::{FlState, RunConfig, Strategy};
use hieradmo_data::partition::x_class_partition;
use hieradmo_models::Model;
use hieradmo_tensor::Vector;
use hieradmo_topology::{Hierarchy, Weights};

fn bench_local_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("worker_local_step");
    let algo = HierAdMo::adaptive(0.01, 0.5);
    for (label, workload) in [
        ("logistic_mnist", Workload::LogisticMnist),
        ("cnn_mnist", Workload::CnnMnist),
    ] {
        let tt = workload.dataset(Scale::Quick, 1);
        let model = workload.model(&tt.train, 1);
        let batch: Vec<usize> = (0..8).collect();
        group.bench_function(label, |b| {
            // One worker laid out as the strategy declares in `init`.
            let h = Hierarchy::two_tier(1);
            let weights = Weights::uniform(&h);
            let mut state = FlState::new(h, weights, &model.params());
            algo.init(&mut state);
            let mut worker = state.workers.pop().expect("one worker");
            let mut m = model.clone();
            b.iter(|| {
                let mut grad = |p: &Vector, out: &mut Vector| {
                    m.set_params(p);
                    m.loss_and_grad_into(&tt.train, &batch, out);
                };
                algo.local_step(1, &mut worker, &mut grad);
            })
        });
    }
    group.finish();
}

/// Full worker-step loops (τ·π = one cloud round, 8 workers) across
/// execution-engine thread counts. Curves are bitwise identical across the
/// sweep; only wall-clock should move.
fn bench_thread_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("worker_steps_threads");
    let workload = Workload::LogisticMnist;
    let tt = workload.dataset(Scale::Quick, 1);
    let model = workload.model(&tt.train, 1);
    let shards = x_class_partition(&tt.train, 8, 5, 1);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep = vec![1usize, 2, 4, max];
    sweep.sort_unstable();
    sweep.dedup();
    for threads in sweep {
        let cfg = RunConfig {
            tau: 5,
            pi: 2,
            total_iters: 10,
            batch_size: 8,
            eval_every: 10,
            threads: Some(threads),
            ..RunConfig::default()
        };
        group.bench_function(format!("round_t{threads}"), |b| {
            b.iter(|| run_partitioned(&algo, &model, &shards, &tt.test, &cfg, 2))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_local_step, bench_thread_sweep
}
criterion_main!(benches);
