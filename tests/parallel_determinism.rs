//! The execution engine's determinism contract: for any thread count, a
//! run produces bitwise-identical results — convergence curve, adaptive-γℓ
//! trace, and final parameters — because work is chunked in a fixed order
//! and every worker owns its own RNG stream. Checked for both HierAdMo
//! variants, with and without failure injection, and for a thread request
//! far larger than the work.

use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::driver::build_train_probe;
use hieradmo::core::pool::{ExecCtx, Pool};
use hieradmo::core::{run, RunConfig, RunResult, Strategy};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::topology::Hierarchy;

fn run_with(algo: &dyn Strategy, threads: usize, dropout: f64) -> RunResult {
    let tt = SyntheticDataset::mnist_like(30, 10, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let model = zoo::logistic_regression(&tt.train, 5);
    let cfg = RunConfig {
        eta: 0.05,
        tau: 5,
        pi: 2,
        total_iters: 100,
        batch_size: 16,
        eval_every: 25,
        threads: Some(threads),
        dropout,
        ..RunConfig::default()
    };
    run(
        algo,
        &model,
        &Hierarchy::balanced(2, 2),
        &shards,
        &tt.test,
        &cfg,
    )
    .expect("run should succeed")
}

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, 4, max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn assert_bitwise_invariant(algo: &dyn Strategy, dropout: f64) {
    let reference = run_with(algo, 1, dropout);
    for threads in thread_counts() {
        let res = run_with(algo, threads, dropout);
        assert_eq!(
            reference.curve,
            res.curve,
            "{} curve diverged at threads = {threads} (dropout = {dropout})",
            algo.name()
        );
        assert_eq!(
            reference.gamma_trace,
            res.gamma_trace,
            "{} γℓ trace diverged at threads = {threads} (dropout = {dropout})",
            algo.name()
        );
        assert_eq!(
            reference.final_params,
            res.final_params,
            "{} final params diverged at threads = {threads} (dropout = {dropout})",
            algo.name()
        );
    }
}

#[test]
fn adaptive_hieradmo_is_bitwise_identical_across_thread_counts() {
    assert_bitwise_invariant(&HierAdMo::adaptive(0.05, 0.5), 0.0);
}

#[test]
fn reduced_hieradmo_is_bitwise_identical_across_thread_counts() {
    assert_bitwise_invariant(&HierAdMo::reduced(0.05, 0.5, 0.3), 0.0);
}

#[test]
fn determinism_survives_failure_injection() {
    // Dropout draws come from a dedicated RNG stream consumed serially on
    // the driver thread, so even fault patterns are thread-count-invariant.
    assert_bitwise_invariant(&HierAdMo::adaptive(0.05, 0.5), 0.2);
    assert_bitwise_invariant(&HierAdMo::reduced(0.05, 0.5, 0.3), 0.2);
}

#[test]
fn deprecated_parallel_flag_matches_explicit_threads() {
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let explicit = run_with(&algo, 1, 0.0);

    let tt = SyntheticDataset::mnist_like(30, 10, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let model = zoo::logistic_regression(&tt.train, 5);
    let cfg = RunConfig {
        eta: 0.05,
        tau: 5,
        pi: 2,
        total_iters: 100,
        batch_size: 16,
        eval_every: 25,
        threads: None,
        ..RunConfig::default()
    };
    let legacy = run(
        &algo,
        &model,
        &Hierarchy::balanced(2, 2),
        &shards,
        &tt.test,
        &cfg,
    )
    .expect("run should succeed");
    assert_eq!(explicit.curve, legacy.curve);
    assert_eq!(explicit.final_params, legacy.final_params);
}

/// A `threads` request far past the work spawns only the lanes the run can
/// fill — here four workers against two evaluation chunks — and leaves
/// the trajectory bitwise unchanged.
#[test]
fn oversized_thread_requests_are_capped_by_the_work() {
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let narrow = run_with(&algo, 1, 0.0);
    let wide = run_with(&algo, 64, 0.0);
    assert_eq!(narrow.curve, wide.curve);
    assert_eq!(narrow.gamma_trace, wide.gamma_trace);
    assert_eq!(narrow.final_params, wide.final_params);

    let tt = SyntheticDataset::mnist_like(30, 10, 11);
    let shards = x_class_partition(&tt.train, 4, 2, 11);
    let model = zoo::logistic_regression(&tt.train, 5);
    let cfg = RunConfig {
        threads: Some(64),
        ..RunConfig::default()
    };
    let probe = build_train_probe(&shards, cfg.train_eval_cap);
    assert_eq!((tt.test.len(), probe.len()), (100, 240), "two eval chunks");
    let ctx = ExecCtx {
        strategy: &algo,
        cfg: &cfg,
        worker_data: &shards,
        test_data: &tt.test,
        train_probe: &probe,
    };
    std::thread::scope(|scope| {
        let pool = Pool::new(scope, ctx, &model, shards.len());
        assert_eq!(pool.lanes(), 4, "64 threads capped at the 4 workers");
    });
}
